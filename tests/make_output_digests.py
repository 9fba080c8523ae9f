"""Regenerate ``tests/output_digests.json``: the sha256 of what the CLI writes.

Run from the repository root::

    PYTHONPATH=src python tests/make_output_digests.py

Each entry is the digest of one ``gradcheck --json`` file: the CLI default,
then ``gradcheck_default_config(s)`` for seeds 0-3, both routing modes and
eps 1e-6 and 1e-2, each passed with ``--config``.  The file also records
the environment it was made in (Python, NumPy, BLAS), because float bits
may depend on it.  ``tests/test_output_digests.py`` recomputes the digests
and compares; a change that moves an output on purpose reruns this script
and says which digests moved and why.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from dyncapmoe import cli
from dyncapmoe import harness as hn

DIGESTS = Path(__file__).resolve().parent / "output_digests.json"
SEEDS = range(4)
MODES = ("sampled", "deterministic")
EPS = (1e-6, 1e-2)


def environment() -> dict[str, str]:
    """The versions the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


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


def compute() -> dict[str, str]:
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
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv + ["--json", str(out)])
            if code not in (0, 1) or not out.exists():
                raise RuntimeError(f"{name}: gradcheck exited {code} without a report")
            digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def main() -> int:
    data = {"env": environment(), "digests": compute()}
    DIGESTS.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(data['digests'])} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
