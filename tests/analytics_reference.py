"""Record-based reference for the columnar routing analytics.

This is ``dyncapmoe.analytics`` as it stood before the trace became
columnar: a dict of :class:`TraceRecord` objects keyed by
(step, layer, token_index), reports that walk ``select()`` record by
record, and per-line CSV/JSONL I/O.  The columnar store, its reports and
its exports are tested against it.  The record types and the report type
are the package's own, so results compare with ``==``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from dyncapmoe.analytics import (CSV_COLUMNS, ActivationReport,
                                 DuplicateRecordError, SlotEntry, TraceRecord)


class RoutingTrace:
    """Append-only store keyed by (step, layer, token_index)."""

    def __init__(self):
        self._records: dict[tuple[int, int, int], TraceRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def add(self, rec: TraceRecord) -> None:
        key = (rec.step, rec.layer, rec.token_index)
        if key in self._records:
            raise DuplicateRecordError(f"record already exists for {key}")
        if rec.k < 1:
            raise ValueError("a record needs at least one routable slot")
        self._records[key] = rec

    def records(self) -> list[TraceRecord]:
        """Immutable snapshot, deterministically ordered by key."""
        return [self._records[k] for k in sorted(self._records)]

    def select(self, layer: int, step: int | None = None,
               modality: str | None = None) -> list[TraceRecord]:
        out = [r for r in self.records() if r.layer == layer
               and (step is None or r.step == step)
               and (modality is None or r.modality == modality)]
        return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _slot_pool(recs: list[TraceRecord], include_shared: bool) -> list[SlotEntry]:
    pool = []
    for r in recs:
        for s in r.slots:
            if s.selected_rank < 0 and not include_shared:
                continue
            pool.append(s)
    return pool


def activation_proportions(trace: RoutingTrace, layer: int,
                           modality: str | None = None,
                           include_shared: bool = False) -> ActivationReport:
    """proportion(e) = slots naming e / total assignment slots at the layer."""
    recs = trace.select(layer, modality=modality)
    pool = _slot_pool(recs, include_shared)
    if not pool:
        raise ValueError(f"no records for layer {layer}"
                         + (f" with modality {modality!r}" if modality is not None else ""))
    counts: dict[int, int] = {}
    role_of: dict[int, str] = {}
    for s in pool:
        counts[s.expert_id] = counts.get(s.expert_id, 0) + 1
        role_of[s.expert_id] = s.role
    return ActivationReport(layer=layer, group="all" if modality is None else modality,
                            counts=counts, role_of=role_of)


def expert_count_histogram(trace: RoutingTrace, layer: int,
                           modality: str | None = None) -> dict[int, float]:
    """Fraction of tokens that activated k routable slots, keyed by k."""
    recs = trace.select(layer, modality=modality)
    if not recs:
        raise ValueError(f"no records for layer {layer}")
    counts: dict[int, int] = {}
    for r in recs:
        counts[r.k] = counts.get(r.k, 0) + 1
    return {k: c / len(recs) for k, c in sorted(counts.items())}


def dynamics_over_steps(trace: RoutingTrace, layer: int,
                        expert_id: int) -> list[tuple[int, float]]:
    """(step, slot-proportion of expert_id) for every recorded step, ordered."""
    steps = sorted({r.step for r in trace.records() if r.layer == layer})
    series = []
    for step in steps:
        pool = _slot_pool(trace.select(layer, step=step), include_shared=False)
        hits = sum(1 for s in pool if s.expert_id == expert_id)
        series.append((step, hits / len(pool) if pool else 0.0))
    return series


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _csv_rows(trace: RoutingTrace) -> Iterable[str]:
    yield ",".join(CSV_COLUMNS)
    for r in trace.records():
        for s in r.slots:
            yield ",".join((str(r.step), str(r.layer), str(r.token_index),
                            r.modality, str(s.expert_id), s.role,
                            repr(s.gate_prob), str(s.selected_rank), str(r.k)))


def export_trace(trace: RoutingTrace, path, fmt: str = "csv") -> None:
    """Write the trace; CSV uses the fixed column set, JSONL one record/line.

    Row order is deterministic ((step, layer, token_index), slots in selection
    order) and floats are written with ``repr``, so export -> import -> export
    reproduces the file byte for byte.
    """
    path = Path(path)
    if fmt == "csv":
        path.write_text("\n".join(_csv_rows(trace)) + "\n", encoding="utf-8")
    elif fmt == "jsonl":
        lines = []
        for r in trace.records():
            lines.append(json.dumps({
                "step": r.step, "layer": r.layer, "token_index": r.token_index,
                "modality": r.modality, "k": r.k,
                "slots": [{"expert_id": s.expert_id, "role": s.role,
                           "gate_prob": s.gate_prob,
                           "selected_rank": s.selected_rank} for s in r.slots],
            }))
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    else:
        raise ValueError("format must be 'csv' or 'jsonl'")


def import_trace(path, fmt: str | None = None) -> RoutingTrace:
    """Inverse of :func:`export_trace`; format inferred from the suffix."""
    path = Path(path)
    if fmt is None:
        fmt = "jsonl" if path.suffix == ".jsonl" else "csv"
    trace = RoutingTrace()
    if fmt == "csv":
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != ",".join(CSV_COLUMNS):
            raise ValueError("missing or malformed CSV header")
        grouped: dict[tuple[int, int, int], dict] = {}
        for line in lines[1:]:
            f = line.split(",")
            if len(f) != len(CSV_COLUMNS):
                raise ValueError(f"malformed CSV row: {line!r}")
            key = (int(f[0]), int(f[1]), int(f[2]))
            g = grouped.setdefault(key, {"modality": f[3], "slots": []})
            g["slots"].append(SlotEntry(expert_id=int(f[4]), role=f[5],
                                        gate_prob=float(f[6]),
                                        selected_rank=int(f[7])))
        for key in sorted(grouped):
            g = grouped[key]
            trace.add(TraceRecord(step=key[0], layer=key[1], token_index=key[2],
                                  modality=g["modality"], slots=tuple(g["slots"])))
    elif fmt == "jsonl":
        for line in path.read_text(encoding="utf-8").splitlines():
            d = json.loads(line)
            slots = tuple(SlotEntry(expert_id=s["expert_id"], role=s["role"],
                                    gate_prob=s["gate_prob"],
                                    selected_rank=s["selected_rank"])
                          for s in d["slots"])
            trace.add(TraceRecord(step=d["step"], layer=d["layer"],
                                  token_index=d["token_index"],
                                  modality=d["modality"], slots=slots))
    else:
        raise ValueError("format must be 'csv' or 'jsonl'")
    return trace


def text_column(raw: bytes, lo: list[int], hi: list[int]) -> tuple[tuple[str, ...], list[int]]:
    """The distinct strings among the byte spans ``raw[lo[i]:hi[i]]`` and
    each span's index into them.

    The strings are sorted by their UTF-8 bytes padded with 0xFF, as
    ``analytics`` compares spans: a string sorts after every longer string
    it begins.
    """
    spans = [raw[a:b].decode("utf-8") for a, b in zip(lo, hi)]
    vocab = tuple(sorted(set(spans), key=lambda s: s.encode("utf-8") + b"\xff"))
    index = {s: i for i, s in enumerate(vocab)}
    return vocab, [index[s] for s in spans]
