"""Probe-batched finite differences.

``grad_check`` evaluates every +/-eps probe of one parameter row in a single
resumed frozen forward: the parameter's ``.data`` holds a ``[2C, *shape]``
stack of copies, probe c moving coordinate c of the row by +eps and probe
C + c moving it by -eps.  Each probe's loss and match flag must carry the
bits of the unbatched resumed forward with that one coordinate moved, the
parameters must come back untouched, and a probe axis must never reach the
tape.
"""

import dataclasses

import numpy as np
import pytest

from dyncapmoe import autodiff as ad
from dyncapmoe import harness as hn
from dyncapmoe import moe

from gradcheck_reference import grad_check_blocks


def config(seed, mode):
    cfg = hn.gradcheck_default_config(seed)
    return dataclasses.replace(cfg, moe=dataclasses.replace(cfg.moe, routing_mode=mode))


# (config, eps); seed 2 deterministic at eps 1e-2 flips live selections,
# and seeds 5 and 28 leave a routed expert of one layer unchosen, so its
# weights never reach the forward and the loss comes back unbatched.
CASES = {f"{mode}-seed{s}": (config(s, mode), 1e-6)
         for s in range(4) for mode in ("sampled", "deterministic")}
CASES.update({"deterministic-seed2-eps1e-2": (config(2, "deterministic"), 1e-2),
              "deterministic-seed5": (config(5, "deterministic"), 1e-6),
              "sampled-seed28": (config(28, "sampled"), 1e-6)})


def replay(cfg, requires_grad=False):
    """A model, its batch, the frozen routing of a train forward and the
    stage inputs its replay records."""
    model = hn.ToyTransformer(cfg)
    batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                              cfg.noise, cfg.theta)
    _, frozen, _ = model.forward(batch, mode="train")
    inputs = []
    model.forward(batch, frozen=frozen, stage_inputs=inputs)
    for t in model.parameters().values():
        t.requires_grad = requires_grad
    return model, batch, frozen, inputs


def row_probes(weights, row, eps):
    """The probe stack of one row, built one coordinate at a time."""
    width = weights.shape[-1]
    probes = np.repeat(weights[None], 2 * width, axis=0)
    for c in range(width):
        orig = weights[row + (c,)]
        probes[(c, *row, c)] = orig + eps
        probes[(width + c, *row, c)] = orig - eps
    return probes


@pytest.mark.parametrize("case", CASES)
def test_each_probe_equals_its_own_resumed_forward(case):
    cfg, eps = CASES[case]
    model, batch, frozen, inputs = replay(cfg)
    flipped = unread = 0
    for stage, params in enumerate(model.stage_parameters()):

        def resumed():
            loss, _, ok = model.forward(batch, frozen=frozen,
                                        stage_inputs=inputs[:stage + 1])
            return loss.data, ok

        for t in params.values():
            weights = t.data
            width = weights.shape[-1]
            for row in np.ndindex(weights.shape[:-1]):
                t.data = row_probes(weights, row, eps)
                losses, oks = resumed()
                unread += losses.ndim == 0
                losses = np.broadcast_to(losses, (2 * width,))
                oks = np.broadcast_to(oks, (2 * width,))
                for c in range(width):
                    idx = row + (c,)
                    orig = weights[idx]
                    for p, moved in ((c, orig + eps), (width + c, orig - eps)):
                        t.data = weights.copy()
                        t.data[idx] = moved
                        loss, ok = resumed()
                        assert type(ok) is bool
                        assert (losses[p].tobytes(), bool(oks[p])) == (loss.tobytes(), ok)
                        flipped += not ok
                t.data = weights
    assert (flipped > 0) == (case == "deterministic-seed2-eps1e-2")
    assert (unread > 0) == (case in ("deterministic-seed5", "sampled-seed28"))


def test_a_campaign_with_an_unchosen_expert_equals_the_full_forward_campaign():
    cfg = config(5, "deterministic")
    got = hn.grad_check(cfg).blocks
    assert [(b.name, repr(b.max_rel_err), b.n_checked, b.n_skipped) for b in got] == \
        [(b.name, repr(b.max_rel_err), b.n_checked, b.n_skipped)
         for b in grad_check_blocks(cfg)]


@pytest.fixture
def built_models(monkeypatch):
    """Every ToyTransformer ``grad_check`` builds, with each parameter's
    array and a copy of its bits taken at construction."""
    built = []

    class Recording(hn.ToyTransformer):
        def __init__(self, cfg):
            super().__init__(cfg)
            self.snapshot = {name: (t.data, t.data.copy())
                             for name, t in self.parameters().items()}
            built.append(self)

    monkeypatch.setattr(hn, "ToyTransformer", Recording)
    return built


def assert_restored(model):
    for name, t in model.parameters().items():
        array, bits = model.snapshot[name]
        assert t.data is array, name
        assert t.data.tobytes() == bits.tobytes(), name


def test_grad_check_puts_every_parameter_array_back(built_models):
    hn.grad_check(config(2, "deterministic"), eps=1e-2)
    (model,) = built_models
    assert_restored(model)


def test_grad_check_puts_the_parameter_back_when_a_probe_forward_raises(
        built_models, monkeypatch):
    real = hn.cross_entropy

    def failing_on_probes(logits, labels):
        if logits.data.ndim > 2:
            raise ad.NonFiniteError("cross_entropy: loss is [nan]")
        return real(logits, labels)

    monkeypatch.setattr(hn, "cross_entropy", failing_on_probes)
    with pytest.raises(ad.NonFiniteError):
        hn.grad_check(config(0, "sampled"))
    (model,) = built_models
    assert_restored(model)


@pytest.mark.parametrize("name", ["layer0.attn.w_q", "layer0.moe.router",
                                  "layer0.moe.routed0.w_up", "layer1.moe.shared0.w_down",
                                  "cls.w"])
def test_a_probe_forward_with_a_differentiated_parameter_raises(name):
    model, batch, frozen, inputs = replay(config(0, "sampled"), requires_grad=True)
    stage = next(s for s, params in enumerate(model.stage_parameters()) if name in params)
    t = model.parameters()[name]
    t.data = np.repeat(t.data[None], 2, axis=0)
    for start in (0, stage):
        with pytest.raises(ad.ShapeError, match="probe axes"):
            model.forward(batch, frozen=frozen, stage_inputs=inputs[:start + 1])


def probe_ops():
    """(op, operand arrays, operand index that carries a probe axis)."""
    rng = np.random.default_rng(7)

    def a(*shape):
        return rng.normal(size=shape)

    idx, cells = np.array([2, 0, 2]), (np.array([2, 0, 1]), np.array([1, 0, 1]))
    ffn = lambda x, wg, wu, wd: moe.gated_ffn(x, moe.ExpertParams(wg, wu, wd))  # noqa: E731
    return {
        "add": (ad.add, [a(3, 2), a(3, 2)]),
        "sub": (ad.sub, [a(3, 2), a(3, 2)]),
        "mul": (ad.mul, [a(3, 2), a(3, 2)]),
        "matmul": (ad.matmul, [a(3, 4), a(4, 2)]),
        "matvec_rows": (ad.matvec_rows, [a(4, 2), a(3, 2)]),
        "scale_rows": (ad.scale_rows, [a(3, 2), a(3)]),
        "gather_rows": (lambda t: ad._gather_rows(t, idx), [a(3, 2)]),
        "gather_rows.cells": (lambda t: ad._gather_rows(t, cells), [a(3, 2)]),
        "scatter_add_rows": (lambda b, r: ad._scatter_add_rows(b, idx, r), [a(3, 2), a(3, 2)]),
        "place_rows": (lambda p, q: ad._place_rows(3, [p, q], [np.array([2, 0]),
                                                               np.array([1])]),
                       [a(2, 2), a(1, 2)]),
        "gated_ffn": (ffn, [a(3, 2), a(4, 2), a(4, 2), a(2, 4)]),
    }


@pytest.mark.parametrize("op", probe_ops())
def test_engine_ops_broadcast_a_probe_axis_and_refuse_to_tape_it(op):
    fn, arrays = probe_ops()[op]
    for k in range(len(arrays)):
        stack = np.stack([arrays[k] * (1.0 + 0.25 * p) for p in range(3)])
        operands = [ad.Tensor(stack if j == k else x) for j, x in enumerate(arrays)]
        got = fn(*operands).data
        assert got.shape[0] == 3
        for p in range(3):
            single = fn(*[ad.Tensor(stack[p] if j == k else x)
                          for j, x in enumerate(arrays)]).data
            assert got[p].tobytes() == single.tobytes()
        for taped in range(len(arrays)):
            operands = [ad.Tensor(stack if j == k else x, requires_grad=j == taped)
                        for j, x in enumerate(arrays)]
            with pytest.raises(ad.ShapeError, match="probe axes"):
                fn(*operands)
