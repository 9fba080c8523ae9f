"""The benchmark's use of the program; this keeps it working.

``perfbench/tracer.py`` replaces each ``(owner, attr)`` in ``SPAN_SITES``
through ``vars(owner)[attr]`` when ``--trace 1`` runs, so renaming or
deleting one of them would break traced runs without failing anything else.
``perfbench/workloads.py`` checks the analyze workload's reports, series
and JSONL round trip against its own counts, and the training workloads'
losses and routing, and the gradcheck workload its campaigns' reports and
evaluation count; one short run of each is a test here, as is the
tracer's count of routing decisions, which reads the per-token forwards'
result.
"""

import dataclasses
import importlib.util
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import moe_reference as ref
from dyncapmoe import autodiff as ad
from dyncapmoe import harness as hn
from dyncapmoe import moe

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load("tracer")


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # for its ``import tracer``
        return load("workloads")


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 9173])
def test_the_tests_trainval_config_is_the_benchmarks(workloads, seed):
    """The 128-token node budget and oracles rely on this copy being the
    benchmark's trainval shape."""
    assert ref.trainval_config(seed) == workloads.trainval_config(seed)


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


def run_workload(workloads, episode):
    """A fresh ``Run`` after ``episode(run)``; SIGALRM is restored."""
    handler = signal.getsignal(signal.SIGALRM)  # Run() installs its own
    try:
        run = workloads.Run()
        episode(run)
    finally:
        signal.signal(signal.SIGALRM, handler)
    return run


def test_analyze_workload_checks_pass(workloads, tmp_path):
    run = run_workload(workloads, lambda run: workloads.analyze(1, run, tmp_path))
    assert run.attempted == 1 and run.failed == 0


@pytest.mark.parametrize("workload", ["train-smoke", "trainval-128"])
def test_train_workload_checks_pass(workloads, workload):
    # Two ops on one model: an episode also checks that its last loss is
    # below its first.
    if workload == "train-smoke":
        cfg, infer = dataclasses.replace(hn.smoke_train_config(1), steps=1), False
    else:
        cfg, infer = workloads.trainval_config(1), True
    run = run_workload(workloads, lambda run: workloads._train_episode(run, cfg, 2, infer))
    assert run.attempted == 2 and run.failed == 0
    assert len(run.values["final_loss"]) == 1


def test_gradcheck_workload_checks_pass(workloads, monkeypatch):
    # Every coordinate of the default config counts two evaluations, however
    # little of the forward each one reruns.
    monkeypatch.setattr(workloads, "GRADCHECK_CAMPAIGNS", 1)
    run = run_workload(workloads, lambda run: workloads.gradcheck(1, run))
    assert run.attempted == 1 and run.failed == 0
    assert run.values["fd_evals"] == [1404]


def test_tracer_counts_decisions_of_the_per_token_forwards(tracer):
    layer = moe.DynamicCapacityMoE(moe.MoEConfig(d_model=4, n_routed=2, n_null=1,
                                                 expert_hidden=3, top_p=1.0))
    x = ad.Tensor(np.linspace(-1.0, 1.0, 4))
    t = tracer.Tracer(time.perf_counter)
    with t.installed():
        layer.forward_train(x, np.random.default_rng(0))
        layer.forward_infer(x)
    assert t.counts["decisions"] == 2
    assert t.counts["active_slots"] == 6 and t.counts["null_slots"] == 2
