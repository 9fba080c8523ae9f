"""Outside-in span tracer for the dyncapmoe layers.

While installed, the tracer replaces public functions and methods of each
module under ``src/dyncapmoe`` with wrappers that open a span on entry and
close it on exit; uninstalling restores the originals, so untraced ops run
the unmodified program.  Nothing under ``src/`` is edited.

Each span has a name (the layer metric it feeds), a start, an end and a
parent (the enclosing open span).  Spans are folded into per-name totals as
they close, so memory stays flat: a gradcheck campaign opens about half a
million of them.  From the totals:

* inclusive time of a name counts only its outermost spans, so a wrapped
  function calling another one of the same name is not counted twice;
* self time of a name is its spans' time minus the time of their child
  spans;
* calls count every span of the name.

Counters that need a function's result (tape nodes, routing decisions,
records scanned) are updated by per-site observers.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict

from dyncapmoe import analytics, autodiff, cli, estimator, harness, moe, rope3d

# Tensor-producing public ops of the engine; their self time is the op
# glue around ``op_node``.
_AUTODIFF_OPS = ("add", "sub", "mul", "scale", "matmul", "transpose", "sum",
                 "index", "row", "stack_rows", "softmax", "silu",
                 "stop_gradient", "zeros", "full")


def _count_tape_node(counts, tensor) -> None:
    counts["tape_nodes"] += tensor.requires_grad


def _count_decision(counts, result) -> None:
    decision = result[1]
    counts["decisions"] += 1
    counts["active_slots"] += decision.k
    counts["null_slots"] += sum(1 for e in decision.per_expert
                                if e.role is moe.ExpertRole.NULL)


def _count_records(counts, records) -> None:
    counts["records_scanned"] += len(records)


# (owner, attribute, span name, observer)
SPAN_SITES = (
    (autodiff, "op_node", "autodiff.op_node", _count_tape_node),
    *((autodiff, op, "autodiff.ops", None) for op in _AUTODIFF_OPS),
    (autodiff, "backward", "autodiff.backward", None),
    (moe.DynamicCapacityMoE, "route", "moe.route", None),
    (moe, "select_top_p_deterministic", "moe.select", None),
    (moe, "select_top_p_sampled", "moe.select", None),
    (moe, "gated_ffn", "moe.expert", None),
    (moe.DynamicCapacityMoE, "forward_train", "moe.forward", _count_decision),
    (moe.DynamicCapacityMoE, "forward_infer", "moe.forward", _count_decision),
    (moe.DynamicCapacityMoE, "forward_frozen", "moe.forward", None),
    (estimator, "apply_estimator", "estimator.apply", None),
    (estimator, "estimator_expectation", "estimator.oracle", None),
    (estimator, "exact_gradient_oracle", "estimator.oracle", None),
    (rope3d, "apply_rope3d", "rope3d.apply", None),
    (rope3d, "apply_rope3d_rows", "rope3d.apply", None),
    (rope3d, "assign_sequence_tagged", "rope3d.assign", None),
    (rope3d, "assign_sequence", "rope3d.assign", None),
    (analytics, "record", "analytics.record", None),
    (analytics, "import_trace", "analytics.import", None),
    (analytics, "export_trace", "analytics.export", None),
    (analytics, "activation_proportions", "analytics.report", None),
    (analytics, "expert_count_histogram", "analytics.report", None),
    (analytics, "export_report", "analytics.report", None),
    (analytics, "dynamics_over_steps", "analytics.dynamics", None),
    (analytics.RoutingTrace, "records", "analytics.scan", _count_records),
    (analytics.RoutingTrace, "select", "analytics.scan", _count_records),
    (harness.ToyTransformer, "forward", "harness.forward", None),
    (harness, "cross_entropy", "harness.forward", None),
    (harness, "train", "harness.train", None),
    (harness, "grad_check", "harness.gradcheck", None),
    (cli, "main", "cli.analyze", None),
)


# Per-layer metrics: (name, unit, kind, key).  ``calls``, ``inclusive``,
# ``self`` and ``count`` are reported per traced op; the two routing shares
# are ratios of counters.
METRICS = (
    ("autodiff.op_nodes", "count", "calls", "autodiff.op_node"),
    ("autodiff.tape_nodes", "count", "count", "tape_nodes"),
    ("autodiff.op_node_ms", "ms", "inclusive", "autodiff.op_node"),
    ("autodiff.backward_ms", "ms", "inclusive", "autodiff.backward"),
    ("autodiff.ops_self_ms", "ms", "self", "autodiff.ops"),
    ("moe.route_calls", "count", "calls", "moe.route"),
    ("moe.route_ms", "ms", "inclusive", "moe.route"),
    ("moe.select_calls", "count", "calls", "moe.select"),
    ("moe.select_ms", "ms", "inclusive", "moe.select"),
    ("moe.expert_calls", "count", "calls", "moe.expert"),
    ("moe.expert_ms", "ms", "inclusive", "moe.expert"),
    ("moe.forward_self_ms", "ms", "self", "moe.forward"),
    ("moe.mean_k", "experts", "ratio", ("active_slots", "decisions")),
    ("moe.null_share", "ratio", "ratio", ("null_slots", "active_slots")),
    ("estimator.apply_calls", "count", "calls", "estimator.apply"),
    ("estimator.apply_ms", "ms", "inclusive", "estimator.apply"),
    ("estimator.oracle_ms", "ms", "inclusive", "estimator.oracle"),
    ("rope3d.apply_calls", "count", "calls", "rope3d.apply"),
    ("rope3d.apply_ms", "ms", "inclusive", "rope3d.apply"),
    ("rope3d.assign_ms", "ms", "inclusive", "rope3d.assign"),
    ("analytics.record_ms", "ms", "inclusive", "analytics.record"),
    ("analytics.import_ms", "ms", "inclusive", "analytics.import"),
    ("analytics.export_ms", "ms", "inclusive", "analytics.export"),
    ("analytics.report_ms", "ms", "inclusive", "analytics.report"),
    ("analytics.dynamics_ms", "ms", "inclusive", "analytics.dynamics"),
    ("analytics.records_scanned", "count", "count", "records_scanned"),
    ("harness.forward_self_ms", "ms", "self", "harness.forward"),
    ("harness.train_self_ms", "ms", "self", "harness.train"),
    ("harness.gradcheck_self_ms", "ms", "self", "harness.gradcheck"),
    ("cli.analyze_self_ms", "ms", "self", "cli.analyze"),
)


def layer_metrics(tracer: "Tracer", ops: int, scale: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, per traced op; 0 where the layer never ran.

    Times are multiplied by ``scale``, the run's reference-speed factor.
    """
    out = {}
    for name, unit, kind, key in METRICS:
        if kind == "calls":
            value = tracer.calls[key] / ops
        elif kind == "count":
            value = tracer.counts[key] / ops
        elif kind == "inclusive":
            value = tracer.inclusive_s[key] * 1e3 * scale / ops
        elif kind == "self":
            value = tracer.self_s[key] * 1e3 * scale / ops
        else:
            num, den = (tracer.counts[k] for k in key)
            value = num / den if den else 0.0
        out[name] = (value, unit)
    return out


class Tracer:
    """Span totals and counters accumulated over every traced op.

    ``clock`` gives the span times in seconds; the benchmark passes one
    that stands still while its own speed samples run.
    """

    def __init__(self, clock):
        self.clock = clock
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._open: dict[str, int] = defaultdict(int)

    def _wrap(self, fn, name, observe):
        stack, open_names, clock = self._stack, self._open, self.clock

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            open_names[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                open_names[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if not open_names[name]:
                    self.inclusive_s[name] += duration
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every span site for the duration of the block."""
        originals = [(owner, attr, vars(owner)[attr])
                     for owner, attr, _, _ in SPAN_SITES]
        try:
            for (owner, attr, name, observe), (_, _, fn) in zip(SPAN_SITES, originals):
                setattr(owner, attr, self._wrap(fn, name, observe))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
