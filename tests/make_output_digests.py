"""Regenerate ``tests/output_digests.json``: the sha256 of what the CLI writes.

Run from the repository root::

    PYTHONPATH=src python tests/make_output_digests.py

Each entry is the digest of one file the CLI writes:

* ``gradcheck --json``: the CLI default, then ``gradcheck_default_config(s)``
  for seeds 0-3, both routing modes and eps 1e-6 and 1e-2, each passed with
  ``--config``;
* ``loss.csv`` and ``trace.csv`` of ``train --seed s --steps 500`` for
  seeds 1-3, and seed 1's trace after a JSONL export, import and export.

The file also records the environment it was made in (Python, NumPy, the
BLAS build and the OpenBLAS core that ``DYNAMIC_ARCH`` picked for this CPU),
because float bits may depend on it.
``tests/test_output_digests.py`` recomputes the digests and compares; a
change that moves an output on purpose reruns this script and says which
digests moved and why.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from dyncapmoe import analytics as an
from dyncapmoe import cli
from dyncapmoe import harness as hn

DIGESTS = Path(__file__).resolve().parent / "output_digests.json"
SEEDS = range(4)
MODES = ("sampled", "deterministic")
EPS = (1e-6, 1e-2)
TRAIN_SEEDS = (1, 2, 3)
TRAIN_STEPS = 500


def blas_core() -> str | None:
    """The core (kernel set) that NumPy's bundled OpenBLAS picked for this
    CPU at load time, such as ``SkylakeX`` or ``Haswell``, or None where
    NumPy bundles no OpenBLAS that names it."""
    package = Path(np.__file__).resolve().parent
    for lib in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                       *package.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def environment() -> dict[str, str | None]:
    """The versions and the BLAS core the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_core": blas_core()}


def gradcheck_runs() -> dict[str, tuple[hn.ToyModelConfig | None, float | None]]:
    """Digest name -> (config, eps) of one ``gradcheck`` run; ``None`` leaves
    the CLI default."""
    runs = {"gradcheck-default": (None, None)}
    for seed in SEEDS:
        for mode in MODES:
            cfg = hn.gradcheck_default_config(seed)
            cfg = dataclasses.replace(
                cfg, moe=dataclasses.replace(cfg.moe, routing_mode=mode))
            for eps in EPS:
                runs[f"gradcheck-seed{seed}-{mode}-eps{eps!r}"] = (cfg, eps)
    return runs


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def gradcheck_digests() -> dict[str, str]:
    """Run every ``gradcheck`` of :func:`gradcheck_runs` through
    ``cli.main`` in this process and return the sha256 of each JSON report
    it writes."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, (cfg, eps) in gradcheck_runs().items():
            out, argv = tmp / f"{name}.json", ["gradcheck"]
            if cfg is not None:
                config = tmp / f"{name}.config.json"
                config.write_text(json.dumps(cfg.to_json_dict()), encoding="utf-8")
                argv += ["--config", str(config)]
            if eps is not None:
                argv += ["--eps", repr(eps)]
            code = _run_cli(argv + ["--json", str(out)])
            if code not in (0, 1) or not out.exists():
                raise RuntimeError(f"{name}: gradcheck exited {code} without a report")
            digests[name] = _sha256(out)
    return digests


def train_digests() -> dict[str, str]:
    """Run ``train --seed s --steps 500`` for each of :data:`TRAIN_SEEDS`
    and return the sha256 of its ``loss.csv`` and ``trace.csv``, then of
    the first seed's trace exported as JSONL, imported and exported again."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for seed in TRAIN_SEEDS:
            out = tmp / f"seed{seed}"
            code = _run_cli(["train", "--seed", str(seed), "--steps", str(TRAIN_STEPS),
                             "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"train --seed {seed} exited {code}")
            for file in ("loss.csv", "trace.csv"):
                digests[f"train-seed{seed}-{file}"] = _sha256(out / file)
        seed = TRAIN_SEEDS[0]
        first, second = tmp / "first.jsonl", tmp / "second.jsonl"
        an.export_trace(an.import_trace(tmp / f"seed{seed}" / "trace.csv"), first)
        an.export_trace(an.import_trace(first), second)
        digests[f"train-seed{seed}-trace.jsonl-round-trip"] = _sha256(second)
    return digests


def compute() -> dict[str, str]:
    """Every digest the file holds, in its order."""
    return {**gradcheck_digests(), **train_digests()}


def main() -> int:
    data = {"env": environment(), "digests": compute()}
    DIGESTS.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(data['digests'])} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
