"""Checks of the benchmark itself.

    python3 perfbench/selftest.py

For every workload it runs one untraced and two traced runs with the same
seed and checks that:

* each run is correct and prints the metrics ``BENCHMARK.json`` names, and
  the untraced run also prints its workload's descriptive metrics;
* every per-layer count (every metric not in ms) and ``final_loss`` repeat
  exactly across the two traced runs;
* ``layer_map.json`` maps exactly the per-layer metrics;
* a copy holding only ``BENCHMARK.json`` and the benchmark's files exits
  non-zero without printing a result.

Exit status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5
SECONDS = "1"

DESCRIPTIVE = {
    "train-smoke": ("step_ms.p50", "step_ms.tail", "train_tokens_per_s", "final_loss"),
    "trainval-128": ("step_ms.p50", "step_ms.tail", "train_tokens_per_s", "infer_ms.p50",
                     "infer_tokens_per_s", "final_loss"),
    "gradcheck": ("gradcheck_s", "fd_evals_per_s"),
    "analyze": ("analyze_s",),
}
COMMON = ("setup_s", "peak_rss_mb", "failed_ratio")


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)


def _parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """(result object, every ``metric`` line as name -> value)."""
    lines = proc.stdout.strip().splitlines()
    lines_metrics = {line.split()[1]: float(line.split()[2])
                     for line in lines if line.startswith("metric ")}
    return json.loads(lines[-1]), lines_metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    mapped = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))["layers"]
    if set(mapped) != set(per_layer):
        problems.append(f"layer_map.json and BENCHMARK.json name different metrics: "
                        f"{sorted(set(mapped) ^ set(per_layer))}")

    for workload in DESCRIPTIVE:
        proc = _run(ROOT, workload, 0)
        if proc.returncode:
            problems.append(f"{workload}: untraced run exited {proc.returncode}: {proc.stderr}")
            continue
        result, printed = _parse(proc)
        if not result["correct"] or set(result["metrics"]) != end_to_end:
            problems.append(f"{workload}: untraced result {result}")
        missing = set(DESCRIPTIVE[workload] + COMMON) - set(printed)
        if missing:
            problems.append(f"{workload}: untraced run did not print {sorted(missing)}")

        traced = []
        for _ in range(2):
            proc = _run(ROOT, workload, 1)
            if proc.returncode:
                problems.append(f"{workload}: traced run exited {proc.returncode}: {proc.stderr}")
                break
            traced.append(_parse(proc))
        if len(traced) < 2:
            continue
        for result, _ in traced:
            if not result["correct"] or set(result["metrics"]) != set(per_layer):
                problems.append(f"{workload}: traced result {sorted(result['metrics'])}")
        (first, first_lines), (second, second_lines) = traced
        for name, unit in per_layer.items():
            if unit != "ms" and first["metrics"][name] != second["metrics"][name]:
                problems.append(f"{workload}: {name} differs: {first['metrics'][name]} "
                                f"vs {second['metrics'][name]}")
        if first_lines.get("final_loss") != second_lines.get("final_loss"):
            problems.append(f"{workload}: final_loss differs")
        print(f"{workload}: checked", flush=True)

    with tempfile.TemporaryDirectory(prefix="perfbench-bare-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "train-smoke", 0)
        if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
            problems.append("a copy without the program did not fail")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
