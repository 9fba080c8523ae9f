"""The four benchmark workloads, driven through the public dyncapmoe API.

A workload runs in cycles.  A cycle is a fixed list of episodes, each built
from a sub-seed derived from the run's seed, and every cycle of a run
repeats the same computation.  So counts averaged over whole cycles repeat
exactly, however many cycles a run manages, and a run averages over several
models rather than one, which keeps seed-to-seed spread down.

Only the program calls are timed; correctness checks run after each call,
outside the timed region.  Every call into the program is made through a
lambda so that module attributes are looked up at call time, which is what
lets the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import math
import signal
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from dyncapmoe import analytics as an
from dyncapmoe import autodiff as ad
from dyncapmoe import cli
from dyncapmoe import harness as hn
from dyncapmoe import moe
from dyncapmoe import rope3d as rp

import tracer as tracing

clock = time.perf_counter

SMOKE_MODELS, SMOKE_STEPS = 8, 12
TRAINVAL_MODELS, TRAINVAL_STEPS = 8, 2
GRADCHECK_CAMPAIGNS = 8
# A run has only two or three analyze sessions, so each cycle sets up its
# trace several times over to give setup_s a median of more samples.
ANALYZE_SETUPS = 3

# Shape of a 500-step smoke run's routing trace.
TRACE_STEPS, TRACE_LAYERS, TRACE_TOKENS = 500, 2, 10
TRACE_TEXT_TOKENS = 6  # the other 4 tokens of a step are image tokens
TRACE_ROUTED, TRACE_NULL, TRACE_SHARED = 4, 1, 2
TRACE_TOP_P = 0.7
# Router logits of a generated record: normal with this scale, the null
# slot's shifted by the offset.  Calibrated so that mean k and null share
# match the traces of real 500-step ``harness.train(smoke_train_config(s))``
# runs, s = 1..8: mean k 3.09 (2.79-3.46), null share 0.168 (0.104-0.225).
# CSV export and import write and read one row per slot, so their cost
# follows mean k.
TRACE_LOGIT_SCALE = 0.86
TRACE_NULL_OFFSET = -0.35
GROUP_BYS = ("expert", "modality", "count")

SUM_TOL = 1e-12

REF_NOMINAL_MS = 1.5  # reference-loop time that reported times are scaled to
TICK_S = 0.025        # reference sampling period during a timed call


def reference_loop() -> float:
    """Fixed work that uses no dyncapmoe code: small NumPy calls, closures
    and short-lived objects, string formatting and dict updates, the mix the
    program's own time goes to.

    On a shared machine the speed can drift by 2x within a minute as other
    work loads it.  Timing this loop next to every op gives the speed the
    op ran at, and the times reported are scaled to a machine on which the
    loop takes ``REF_NOMINAL_MS``.
    """
    a = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
    acc = 0.0
    counts: dict[str, int] = {}
    nodes: list = []
    for i in range(120):
        b = np.exp(-(a @ a.T) * 0.01)
        acc += float(b.sum())
        key = f"{i % 13},{i % 7}"
        counts[key] = counts.get(key, 0) + len(key.split(","))
        for j in range(4):
            nodes.append((b[j], lambda g, row=b[j]: g * row))
        if len(nodes) > 64:
            acc += float(nodes[-1][1](nodes[0][0]).sum())
            nodes.clear()
    return acc + sum(counts.values())


def _reference_ms() -> float:
    """Time of one reference loop, with the cyclic GC off: a collection
    costs in proportion to the program's live heap, which would make the
    divisor depend on the program rather than on the machine alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        reference_loop()
        return (clock() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


class Run:
    """Everything one benchmark run measured, traced or not.

    Times are scaled to the reference speed (see :func:`reference_loop`).
    The loop is timed just before and just after every timed call and, from
    a SIGALRM handler, every ``TICK_S`` during it.  Between two consecutive
    samples the call's time is scaled by their mean.  The handler's own time
    is left out: ``program_clock`` runs only while the handler does not, and
    both the op times and the tracer's spans are read from it.
    """

    def __init__(self, trace: bool = False):
        self.tracer = tracing.Tracer(self.program_clock) if trace else None
        self.tracing = False
        self.setup_s: list[float] = []
        self.op_ms: list[float] = []         # untraced ops
        self.traced_op_ms: list[float] = []  # ops run with the tracer installed
        self.parts_ms: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.last_ms = 0.0
        _reference_ms()  # the first call runs cold
        self.reference_ms = [_reference_ms()]
        self._marks: list[tuple[float, float]] = []  # (program clock, reference ms)
        self._paused = 0.0  # seconds spent in the SIGALRM handler so far
        signal.signal(signal.SIGALRM, self._tick)

    def program_clock(self) -> float:
        """Seconds of wall time outside the SIGALRM handler."""
        return clock() - self._paused

    def _tick(self, signum, frame) -> None:
        fired = clock()
        self.reference_ms.append(_reference_ms())
        self._marks.append((fired - self._paused, self.reference_ms[-1]))
        self._paused += clock() - fired

    @contextlib.contextmanager
    def _scaled(self):
        """Set ``last_ms`` to the scaled time of the block."""
        self._marks = [(self.program_clock(), self.reference_ms[-1])]
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            end = self.program_clock()
            self.reference_ms.append(_reference_ms())
            self._marks.append((end, self.reference_ms[-1]))
            self.last_ms = 1e3 * REF_NOMINAL_MS * sum(
                (t1 - t0) * 2.0 / (r0 + r1)
                for (t0, r0), (t1, r1) in zip(self._marks, self._marks[1:]))

    @contextlib.contextmanager
    def setup(self):
        with self._scaled():
            yield
        self.setup_s.append(self.last_ms / 1e3)

    def timed(self, call):
        """Time ``call()``, with the tracer installed when tracing."""
        scope = self.tracer.installed() if self.tracing else contextlib.nullcontext()
        with self._scaled(), scope:
            return call()

    def add_op(self, ok: bool, **parts_ms: float) -> None:
        """Record one op; its latency is the sum of its timed parts."""
        self.attempted += 1
        self.failed += not ok
        (self.traced_op_ms if self.tracing else self.op_ms).append(sum(parts_ms.values()))
        if not self.tracing:
            for name, ms in parts_ms.items():
                self.parts_ms[name].append(ms)


def _batch(cfg: hn.ToyModelConfig) -> hn.SyntheticBatch:
    return hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                             cfg.noise, cfg.theta)


def _routing_ok(gates: list[float], top_p: float, n_slots: int) -> bool:
    """k >= 1 and gate mass >= top_p, unless every slot is active.

    The mass is summed left to right in selection order, as the layer sums
    it; ``sum()`` would differ, as it compensates rounding on Python 3.12+.
    """
    mass = 0.0
    for g in gates:
        mass += g
    return len(gates) >= 1 and (mass >= top_p or len(gates) == n_slots)


def _trace_routing_ok(trace: an.RoutingTrace, top_p: float, n_slots: int) -> bool:
    return all(_routing_ok([s.gate_prob for s in r.slots if s.selected_rank >= 0],
                           top_p, n_slots)
               for r in trace.records())


# ---------------------------------------------------------------------------
# train-smoke and trainval-128
# ---------------------------------------------------------------------------

def trainval_config(seed: int) -> hn.ToyModelConfig:
    """128 tokens in all four modalities, deterministic Top-P routing."""
    return hn.ToyModelConfig(
        moe=moe.MoEConfig(d_model=32, n_routed=4, n_null=1, n_shared=2,
                          expert_hidden=64, top_p=0.7, routing_mode="deterministic",
                          seed=seed),
        segments=(rp.TextSegment(8), rp.ImageSegment(4, 4),
                  rp.VideoSegment(8.0, 0.5, 4, 4, f_l=1, f_u=4),
                  rp.AudioSegment(6.0)),
        layers=2, head_dim=24, learning_rate=0.05, steps=1, seed=seed,
        n_classes=4, noise=0.05)


def _train_episode(run: Run, cfg: hn.ToyModelConfig, steps: int, infer: bool) -> None:
    """``steps`` one-step ``harness.train`` calls on one model.

    The layer keys its routing draws by (seed, layer, token), not by step,
    so these calls train exactly as one ``steps``-step call would.  With
    ``infer`` each op also runs an inference forward of the updated model.
    """
    with run.setup():
        model = hn.ToyTransformer(cfg)
        batch = _batch(cfg)
    top_p, n_slots = cfg.moe.top_p, cfg.moe.n_slots
    losses, oks, parts = [], [], []
    for _ in range(steps):
        ok = True
        try:
            result = run.timed(lambda: hn.train(cfg, model))
        except hn.TrainingDivergedError:
            result, ok = None, False
        op = {"step_ms": run.last_ms}
        if result is not None:
            losses.append(result.losses[0])
            ok = math.isfinite(result.losses[0]) and _trace_routing_ok(
                result.trace, top_p, n_slots)
        if infer:
            try:
                loss, per_layer, _ = run.timed(lambda: model.forward(batch, mode="infer"))
            except ad.NonFiniteError:
                loss, ok = None, False
            op["infer_ms"] = run.last_ms
            ok = ok and loss is not None and math.isfinite(float(loss.data)) and all(
                _routing_ok([e.gate_prob for e in d.per_expert], top_p, n_slots)
                for decisions in per_layer for d in decisions)
        oks.append(ok)
        parts.append(op)
    if len(losses) == steps:
        run.values["final_loss"].append(losses[-1])
        oks[-1] = oks[-1] and losses[-1] < losses[0]
    for ok, op in zip(oks, parts):
        run.add_op(ok, **op)


def train_smoke(seed: int, run: Run) -> None:
    for e in range(SMOKE_MODELS):
        cfg = dataclasses.replace(hn.smoke_train_config(seed * SMOKE_MODELS + e), steps=1)
        _train_episode(run, cfg, SMOKE_STEPS, infer=False)


def sampled_infer_probe(seed: int) -> str | None:
    """Inference on the shipped sampled-routing smoke config.

    It is a known defect that this raises; the message is returned so the
    report keeps it visible until the defect is fixed.
    """
    cfg = hn.smoke_train_config(seed)
    try:
        hn.ToyTransformer(cfg).forward(_batch(cfg), mode="infer")
    except ValueError as exc:
        return f"ValueError: {exc}"
    return None


def trainval_128(seed: int, run: Run) -> None:
    for e in range(TRAINVAL_MODELS):
        _train_episode(run, trainval_config(seed * TRAINVAL_MODELS + e),
                       TRAINVAL_STEPS, infer=True)


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def gradcheck(seed: int, run: Run) -> None:
    for e in range(GRADCHECK_CAMPAIGNS):
        with run.setup():
            # grad_check builds its own model and batch; building them here
            # makes work moved into model construction show in setup_s.
            cfg = hn.gradcheck_default_config(seed * GRADCHECK_CAMPAIGNS + e)
            hn.ToyTransformer(cfg)
            _batch(cfg)
        report = run.timed(lambda: hn.grad_check(cfg))
        run.values["fd_evals"].append(
            2 * sum(b.n_checked + b.n_skipped for b in report.blocks))
        run.add_op(report.passed, campaign_ms=run.last_ms)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SyntheticTrace:
    trace: an.RoutingTrace
    active: np.ndarray     # [records, slots] bool: slot activated
    k: np.ndarray          # [records] activated routable slots
    layer: np.ndarray      # [records]
    step: np.ndarray       # [records]
    is_text: np.ndarray    # [records] bool


def synthetic_trace(seed: int) -> SyntheticTrace:
    """A routing trace with the shape of a 500-step smoke run.

    Each record samples routable slots without replacement in proportion to
    a random softmax (Gumbel top-k order) until the drawn mass reaches P,
    as sampled Top-P does; shared experts follow with rank -1.  The logit
    distribution is calibrated against real smoke traces (see
    ``TRACE_LOGIT_SCALE``).
    """
    n_slots = TRACE_ROUTED + TRACE_NULL
    n = TRACE_STEPS * TRACE_LAYERS * TRACE_TOKENS
    rng = np.random.default_rng([seed, 4099])
    z = rng.normal(scale=TRACE_LOGIT_SCALE, size=(n, n_slots))
    z[:, TRACE_ROUTED:] += TRACE_NULL_OFFSET
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    order = np.argsort(-(np.log(p) + rng.gumbel(size=(n, n_slots))), axis=1)
    mass = np.cumsum(np.take_along_axis(p, order, axis=1), axis=1)
    k = 1 + (mass[:, :-1] < TRACE_TOP_P).sum(axis=1)
    rows = np.arange(n)
    step = rows // (TRACE_LAYERS * TRACE_TOKENS)
    layer = (rows // TRACE_TOKENS) % TRACE_LAYERS
    token = rows % TRACE_TOKENS
    is_text = token < TRACE_TEXT_TOKENS
    active = np.zeros((n, n_slots), dtype=bool)

    shared = tuple(an.SlotEntry(n_slots + s, "shared", 1.0, -1)
                   for s in range(TRACE_SHARED))
    trace = an.RoutingTrace()
    for r in range(n):
        picked = order[r, :k[r]]
        active[r, picked] = True
        slots = tuple(an.SlotEntry(int(e), "routed" if e < TRACE_ROUTED else "null",
                                   float(p[r, e]), rank)
                      for rank, e in enumerate(picked))
        trace.add(an.TraceRecord(step=int(step[r]), layer=int(layer[r]),
                                 token_index=int(token[r]),
                                 modality="text" if is_text[r] else "image",
                                 slots=slots + shared))
    return SyntheticTrace(trace, active, k, layer, step, is_text)


def _proportions(active: np.ndarray) -> dict[int, float]:
    counts = active.sum(axis=0)
    total = int(counts.sum())
    return {e: int(c) / total for e, c in enumerate(counts) if c}


def _close(got: dict, want: dict) -> bool:
    return (got.keys() == want.keys()
            and all(abs(got[key] - want[key]) <= SUM_TOL for key in want)
            and abs(sum(got.values()) - 1.0) <= SUM_TOL)


def _read_report(path: Path) -> dict[str, dict[int, float]]:
    """Report CSV (group,layer,expert_id,role,proportion) -> group -> shares."""
    groups: dict[str, dict[int, float]] = defaultdict(dict)
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        group, _, expert_id, _, prop = line.split(",")
        groups[group][int(expert_id)] = float(prop)
    return groups


def _read_histogram(path: Path) -> dict[int, float]:
    return {int(k): float(frac) for _, k, frac in
            (line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:])}


def _analyze_ok(syn: SyntheticTrace, work: Path, series) -> bool:
    """Reports match the generator's own counts; the JSONL round trip holds."""
    for layer in range(TRACE_LAYERS):
        at = syn.layer == layer
        want_hist = {int(k): int(c) / int(at.sum())
                     for k, c in zip(*np.unique(syn.k[at], return_counts=True))}
        if not _close(_read_histogram(work / f"count{layer}.csv"), want_hist):
            return False
        if not _close(_read_report(work / f"expert{layer}.csv")["all"],
                      _proportions(syn.active[at])):
            return False
        by_modality = _read_report(work / f"modality{layer}.csv")
        for modality, mask in (("text", syn.is_text), ("image", ~syn.is_text)):
            if not _close(by_modality[modality], _proportions(syn.active[at & mask])):
                return False
    layer0 = syn.layer == 0
    per_step = np.zeros((TRACE_STEPS, syn.active.shape[1]))
    np.add.at(per_step, syn.step[layer0], syn.active[layer0])
    per_step /= per_step.sum(axis=1, keepdims=True)
    for slot, points in enumerate(series):
        if [s for s, _ in points] != list(range(TRACE_STEPS)):
            return False
        if np.max(np.abs(np.array([v for _, v in points]) - per_step[:, slot])) > SUM_TOL:
            return False
    if np.max(np.abs(np.array([[v for _, v in points] for points in series]).sum(axis=0)
                     - 1.0)) > SUM_TOL:
        return False
    return (work / "first.jsonl").read_bytes() == (work / "second.jsonl").read_bytes()


def analyze(seed: int, run: Run, work: Path) -> None:
    trace_csv = work / "trace.csv"
    for _ in range(ANALYZE_SETUPS):
        with run.setup():
            syn = synthetic_trace(seed)
            an.export_trace(syn.trace, trace_csv)

    def session():
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["analyze", "--trace", str(trace_csv), "--layer", str(layer),
                               "--group-by", group, "--out", str(work / f"{group}{layer}.csv")])
                     for group in GROUP_BYS for layer in range(TRACE_LAYERS)]
        loaded = an.import_trace(trace_csv)
        series = [an.dynamics_over_steps(loaded, 0, slot)
                  for slot in range(TRACE_ROUTED + TRACE_NULL)]
        an.export_trace(loaded, work / "first.jsonl", fmt="jsonl")
        an.export_trace(an.import_trace(work / "first.jsonl"), work / "second.jsonl",
                        fmt="jsonl")
        return codes, series

    codes, series = run.timed(session)
    session_ms = run.last_ms
    run.add_op(all(c == 0 for c in codes) and _analyze_ok(syn, work, series),
               session_ms=session_ms)
