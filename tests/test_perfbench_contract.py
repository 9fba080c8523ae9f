"""The benchmark's tracer wraps named program attributes; this keeps them.

``perfbench/tracer.py`` replaces each ``(owner, attr)`` in ``SPAN_SITES``
through ``vars(owner)[attr]`` when ``--trace 1`` runs, so renaming or
deleting one of them would break traced runs without failing anything else.
"""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from dyncapmoe import harness as hn

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_site_exists(tracer):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.SPAN_SITES if attr not in vars(owner)]
    assert not missing


def test_installed_wraps_and_restores_every_site(tracer):
    originals = [vars(owner)[attr] for owner, attr, _, _ in tracer.SPAN_SITES]
    t = tracer.Tracer(time.perf_counter)
    with t.installed():
        assert all(vars(owner)[attr] is not fn
                   for (owner, attr, _, _), fn in zip(tracer.SPAN_SITES, originals))
        cfg = hn.gradcheck_default_config()
        batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                                  cfg.noise, cfg.theta)
        loss, _, _ = hn.ToyTransformer(cfg).forward(batch, mode="infer")
        assert np.isfinite(float(loss.data))
    assert all(vars(owner)[attr] is fn
               for (owner, attr, _, _), fn in zip(tracer.SPAN_SITES, originals))
    assert t.calls["harness.forward"] > 0 and t.counts["tape_nodes"] > 0
