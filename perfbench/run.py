"""Benchmark for dyncapmoe: one process, one caller, closed loop.

    python3 perfbench/run.py --workload train-smoke --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run repeats cycles of the workload's ops until ``--seconds`` have
passed, each op starting after the previous one returns, and checks every
output.  It prints one line per measurement, then as its last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
cycles alternate between untraced and traced, the traced ones running with
every layer's public functions wrapped (see ``tracer.py``), and the metrics
are the per-layer ones, per op, plus the tracing overhead: the traced
minus the untraced median op latency of the same run.

BLAS and OpenMP thread pools are pinned to one thread before NumPy loads.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import dyncapmoe  # noqa: E402
except ImportError as exc:
    raise SystemExit(f"error: cannot import dyncapmoe from {SRC}: {exc}")
if SRC not in Path(dyncapmoe.__file__).resolve().parents:
    raise SystemExit(f"error: dyncapmoe was imported from {dyncapmoe.__file__}, not {SRC}")

import numpy as np  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("train-smoke", "trainval-128", "gradcheck", "analyze")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _env_line() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"env nproc={os.cpu_count()} affinity_cpus={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas['name']}-{blas['version']} {threads}")


def _tail(samples: list[float]) -> tuple[str, float]:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return f"p{q:g}", cuts[round(q * 10) - 1]
    return "max", max(samples)


def _measure(cycle, seconds: float, trace: bool) -> workloads.Run:
    """Run whole cycles until ``seconds`` pass; traced runs alternate."""
    run = workloads.Run(trace)
    start = time.perf_counter()
    cycles = 0
    while cycles < (2 if trace else 1) or time.perf_counter() - start < seconds:
        run.tracing = trace and cycles % 2 == 1
        cycle(run)
        cycles += 1
    return run


def _final_loss(name: str, run: workloads.Run) -> float:
    """Mean last loss of one cycle's models; every cycle repeats it."""
    models = workloads.TRAINVAL_MODELS if name == "trainval-128" else workloads.SMOKE_MODELS
    return statistics.fmean(run.values["final_loss"][:models])


def _descriptive_metrics(name: str, run: workloads.Run,
                         probe_failures: int) -> list[tuple[str, float, str, str]]:
    """The workload's end-to-end metrics under their descriptive names."""
    out = [("setup_s", statistics.median(run.setup_s), "s", "")]
    if name in ("train-smoke", "trainval-128"):
        steps = run.parts_ms["step_ms"]
        tokens = (workloads.trainval_config(0) if name == "trainval-128"
                  else workloads.hn.smoke_train_config()).batch
        label, tail = _tail(steps)
        out += [("step_ms.p50", statistics.median(steps), "ms", ""),
                ("step_ms.tail", tail, "ms", f"{label} of {len(steps)} samples"),
                ("train_tokens_per_s", tokens * len(steps) / (sum(steps) / 1e3),
                 "tokens/s", f"{tokens} tokens per step")]
        if name == "trainval-128":
            infer = run.parts_ms["infer_ms"]
            out += [("infer_ms.p50", statistics.median(infer), "ms", ""),
                    ("infer_tokens_per_s", tokens * len(infer) / (sum(infer) / 1e3),
                     "tokens/s", f"{tokens} tokens per forward")]
        out.append(("final_loss", _final_loss(name, run), "nats",
                    "mean over one cycle's models after their fixed steps"))
    elif name == "gradcheck":
        campaigns = run.parts_ms["campaign_ms"]
        evals = run.values["fd_evals"][:len(campaigns)]
        out += [("gradcheck_s", statistics.median(campaigns) / 1e3, "s", ""),
                ("fd_evals_per_s", sum(evals) / (sum(campaigns) / 1e3), "evals/s", "")]
    else:
        out.append(("analyze_s", statistics.median(run.parts_ms["session_ms"]) / 1e3, "s", ""))
    out.append(("peak_rss_mb", _peak_rss_mb(), "MB", ""))
    failed, attempted = run.failed + probe_failures, run.attempted + probe_failures
    out.append(("failed_ratio", failed / attempted, "ratio", f"{failed} of {attempted} ops"))
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(_env_line())
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    # analyze writes its trace and reports to files.  They go in the
    # checkout, not the system's temporary directory, because the benchmark
    # reads and writes nothing outside the checkout it runs in.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        cycles = {
            "train-smoke": lambda run: workloads.train_smoke(args.seed, run),
            "trainval-128": lambda run: workloads.trainval_128(args.seed, run),
            "gradcheck": lambda run: workloads.gradcheck(args.seed, run),
            "analyze": lambda run: workloads.analyze(args.seed, run, Path(tmp)),
        }
        run = _measure(cycles[args.workload], args.seconds, bool(args.trace))

    probe_failures = 0
    if args.workload == "train-smoke":
        defect = workloads.sampled_infer_probe(args.seed)
        probe_failures = defect is not None
        print(f"probe sampled_infer {'raised ' + defect if defect else 'ok'}")

    speed = statistics.median(run.reference_ms)
    print(f"speed reference_ms.p50 {speed!r} ms (times are scaled to "
          f"{workloads.REF_NOMINAL_MS} ms)")
    printed = set()
    tracer = run.tracer
    if tracer is None:
        for name, value, unit, note in _descriptive_metrics(args.workload, run, probe_failures):
            print(f"metric {name} {value!r} {unit}" + (f" ({note})" if note else ""))
            printed.add(name)
        metrics = {
            "setup_s": (statistics.median(run.setup_s), "s"),
            "op_ms.p50": (statistics.median(run.op_ms), "ms"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    else:
        ops = len(run.traced_op_ms)
        metrics = tracing.layer_metrics(tracer, ops, workloads.REF_NOMINAL_MS / speed)
        metrics["trace.overhead_ms"] = (statistics.median(run.traced_op_ms)
                                        - statistics.median(run.op_ms), "ms")
        if "final_loss" in run.values:
            print(f"metric final_loss {_final_loss(args.workload, run)!r} nats")
        print(f"traced {ops} of {ops + len(run.op_ms)} ops")
    for name, (value, unit) in metrics.items():
        if name not in printed:
            print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
