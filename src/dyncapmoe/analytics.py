"""Routing-decision capture and analysis.

A :class:`RoutingTrace` holds one record per (step, layer, token); each
record lists the activated slots in selection order with their raw gate
probabilities, plus the always-on shared experts (sentinel rank -1).
From a trace the module reproduces the standard MoE diagnostics:

* per-layer expert activation proportions, normalized over assignment
  slots so the figures sum to one even with a variable per-token budget;
* the per-layer expert-count histogram (fraction of tokens that activated
  k slots), i.e. the dynamic computational budget;
* per-step activation series for a single expert, e.g. to watch a null
  expert's share grow over training.

Shared experts are excluded from reports by default — being always-on,
they would flatten every proportion — but can be included with a flag.
Traces round-trip losslessly through CSV (fixed column set, floats via
``repr``) and JSONL (one record per line).

The trace is stored as columns: flat per-slot NumPy arrays (step, layer,
token_index, modality code, expert_id, role code, gate_prob,
selected_rank) plus per-record offsets, sorted by (step, layer,
token_index) with each record's slots in selection order.  ``add`` is an
O(1) append; the first read after new records folds them in and sorts
once.  Every report, export and import is a few NumPy passes (group-bys
and sorts) over the columns, so its cost is near-linear in the trace size
rather than a Python scan per record or per step; only ``records`` and
``select`` build :class:`TraceRecord` objects, on demand.

Two ways in: :func:`record` appends one token's
:class:`~dyncapmoe.moe.RoutingDecision`; :func:`record_rows` appends a
whole layer's :class:`~dyncapmoe.moe.Routing` as one column block, with
the same records and the same duplicate-key check, and no per-token
objects.  Training logs through the latter.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import moe

__all__ = [
    "DuplicateRecordError",
    "SlotEntry",
    "TraceRecord",
    "RoutingTrace",
    "ActivationReport",
    "record",
    "record_rows",
    "activation_proportions",
    "expert_count_histogram",
    "dynamics_over_steps",
    "layer_modalities",
    "export_trace",
    "import_trace",
    "export_report",
]

CSV_COLUMNS = ("step", "layer", "token_index", "modality", "expert_id", "role",
               "gate_prob", "selected_rank", "k")


class DuplicateRecordError(ValueError):
    """A (step, layer, token_index) key was recorded twice."""


@dataclasses.dataclass(frozen=True)
class SlotEntry:
    expert_id: int
    role: str
    gate_prob: float
    selected_rank: int  # selection order; -1 marks an always-on shared expert


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    step: int
    layer: int
    token_index: int
    modality: str
    slots: tuple[SlotEntry, ...]

    @property
    def k(self) -> int:
        """Number of activated routable slots (shared entries excluded)."""
        return sum(1 for s in self.slots if s.selected_rank >= 0)


# ---------------------------------------------------------------------------
# columnar store
# ---------------------------------------------------------------------------

_SLOT_COLUMNS = ("step", "layer", "token_index", "modality", "expert_id", "role",
                 "gate_prob", "selected_rank")
# Role codes of a Routing block: routed below n_routed, null below n_slots.
_ROLES = tuple(role.value for role in (moe.ExpertRole.ROUTED, moe.ExpertRole.NULL,
                                       moe.ExpertRole.SHARED))


def _encode(values: Iterable[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct strings in first-seen order, and each value's code."""
    index: dict[str, int] = {}
    codes = [index.setdefault(v, len(index)) for v in values]
    return tuple(index), np.array(codes, dtype=np.int64)


def _union(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[tuple[str, ...], np.ndarray]:
    """Vocabulary a followed by b's new strings, and the code map for b."""
    merged, codes = _encode(a + b)
    return merged, codes[len(a):]


def _decode(vocab: tuple[str, ...], codes: np.ndarray) -> list[str]:
    return np.array(vocab, dtype=object)[codes].tolist()


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Indices of the slices ``lo[i]:hi[i]``, concatenated."""
    lens = hi - lo
    ends = np.cumsum(lens)
    return np.repeat(lo - (ends - lens), lens) + np.arange(ends[-1] if ends.size else 0)


def _ints(values: Sequence[int]) -> np.ndarray:
    """An int64 column; floats, strings and out-of-range ints are refused,
    not truncated or parsed."""
    column = np.array(values)
    if column.size and not (column.dtype.kind == "i" or (
            column.dtype.kind == "u" and column.max() <= np.iinfo(np.int64).max)):
        raise ValueError(f"expected int64 integers, got {column.dtype} values")
    return column.astype(np.int64)


def _offsets(counts) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


@dataclasses.dataclass(frozen=True)
class _Columns:
    """Flat per-slot arrays; record r owns slots ``offsets[r]:offsets[r + 1]``.

    Modality and role are codes into ``modalities`` and ``roles``.
    """

    step: np.ndarray
    layer: np.ndarray
    token_index: np.ndarray
    modality: np.ndarray
    expert_id: np.ndarray
    role: np.ndarray
    gate_prob: np.ndarray
    selected_rank: np.ndarray
    offsets: np.ndarray
    modalities: tuple[str, ...]
    roles: tuple[str, ...]

    @classmethod
    def from_fields(cls, step, layer, token_index, modality: Sequence[str],
                    counts: Sequence[int], expert_id, role: Sequence[str],
                    gate_prob, selected_rank) -> "_Columns":
        """Columns from per-record keys and modality, and per-slot fields."""
        counts = _ints(counts)
        modalities, modality = _encode(modality)
        roles, role = _encode(role)

        def per_slot(values):
            return np.repeat(_ints(values), counts)

        return cls(step=per_slot(step), layer=per_slot(layer),
                   token_index=per_slot(token_index), modality=np.repeat(modality, counts),
                   expert_id=_ints(expert_id), role=role,
                   gate_prob=np.array(gate_prob, dtype=np.float64),
                   selected_rank=_ints(selected_rank),
                   offsets=_offsets(counts), modalities=modalities, roles=roles)

    @classmethod
    def empty(cls) -> "_Columns":
        return cls.from_fields([], [], [], [], [], [], [], [], [])

    def __len__(self) -> int:
        return self.offsets.size - 1

    @property
    def starts(self) -> np.ndarray:
        return self.offsets[:-1]

    def k(self) -> np.ndarray:
        """Routable slots per record."""
        routable = np.concatenate(([0], np.cumsum(self.selected_rank >= 0)))
        return routable[self.offsets[1:]] - routable[self.starts]

    def key(self, r: int) -> tuple[int, int, int]:
        s = self.offsets[r]
        return (int(self.step[s]), int(self.layer[s]), int(self.token_index[s]))

    def code(self, modality: str) -> int:
        """Code of a modality string; -1 (matching nothing) if never seen."""
        return self.modalities.index(modality) if modality in self.modalities else -1

    def take(self, slots: np.ndarray, offsets: np.ndarray) -> "_Columns":
        return dataclasses.replace(
            self, offsets=offsets, **{f: getattr(self, f)[slots] for f in _SLOT_COLUMNS})

    @classmethod
    def join(cls, parts: Sequence["_Columns"]) -> "_Columns":
        """The records of every part, in order; vocabularies are merged."""
        modalities, roles = (), ()
        modality, role = [], []
        for c in parts:
            modalities, modality_map = _union(modalities, c.modalities)
            roles, role_map = _union(roles, c.roles)
            modality.append(modality_map[c.modality])
            role.append(role_map[c.role])
        ends = np.cumsum([c.offsets[-1] for c in parts])
        return cls(modality=np.concatenate(modality), role=np.concatenate(role),
                   offsets=np.concatenate([parts[0].offsets[:1]] + [
                       c.offsets[1:] + end - c.offsets[-1] for c, end in zip(parts, ends)]),
                   modalities=modalities, roles=roles,
                   **{f: np.concatenate([getattr(c, f) for c in parts])
                      for f in _SLOT_COLUMNS if f not in ("modality", "role")})

    @classmethod
    def of_routing(cls, step: int, layer: int, modality_tags: Sequence[str],
                   routing: moe.Routing) -> "_Columns":
        """One record per token of a layer's routing: its active slots in
        rank order, then the shared experts with rank -1."""
        n, n_slots = routing.rank.shape
        if len(modality_tags) != n:
            raise ValueError(f"need one modality tag per token, got {len(modality_tags)} "
                             f"for {n}")
        shared = np.broadcast_to(np.arange(n_slots, n_slots + routing.n_shared),
                                 (n, routing.n_shared))
        # sort key of each slot: its rank, shared experts after every rank
        key = np.hstack((routing.rank, shared))
        tok, slot = np.nonzero(key >= 0)
        order = np.lexsort((key[tok, slot], tok))
        tok, slot = tok[order], slot[order]
        routable = slot < n_slots
        gate = np.ones(tok.size)
        gate[routable] = routing.gate[tok[routable], slot[routable]]
        rank = np.full(tok.size, -1, dtype=np.int64)
        rank[routable] = routing.rank[tok[routable], slot[routable]]
        modalities, modality = _encode(modality_tags)
        return cls(step=np.full(tok.size, step, dtype=np.int64),
                   layer=np.full(tok.size, layer, dtype=np.int64), token_index=tok,
                   modality=modality[tok], expert_id=slot,
                   role=np.searchsorted([routing.n_routed, n_slots], slot, side="right"),
                   gate_prob=gate, selected_rank=rank,
                   offsets=_offsets(np.bincount(tok, minlength=n)),
                   modalities=modalities, roles=_ROLES)

    def checked(self, k: np.ndarray | None = None) -> "_Columns":
        """Validated and sorted by key.

        ``k``, if given, is a claimed routable-slot count per slot (a file's
        ``k`` column) and must match the record's count.  Every record needs
        one routable slot, and keys must be unique.
        """
        got = self.k()
        if k is not None:
            bad = np.flatnonzero(k != np.repeat(got, np.diff(self.offsets)))
            if bad.size:
                r = int(np.searchsorted(self.offsets, bad[0], side="right")) - 1
                raise ValueError(f"k is {int(k[bad[0]])} but record {self.key(r)} "
                                 f"has {int(got[r])} routable slots")
        if (got < 1).any():
            raise ValueError("a record needs at least one routable slot")
        keys = [a[self.starts] for a in (self.step, self.layer, self.token_index)]
        order = np.lexsort(keys[::-1])
        step, layer, token = (a[order] for a in keys)
        same = (step[1:] == step[:-1]) & (layer[1:] == layer[:-1]) & (token[1:] == token[:-1])
        if same.any():
            raise DuplicateRecordError(
                f"record already exists for {self.key(order[np.argmax(same)])}")
        if (order == np.arange(order.size)).all():
            return self
        lo, hi = self.offsets[order], self.offsets[order + 1]
        return self.take(_ranges(lo, hi), _offsets(hi - lo))

    def records(self, which: np.ndarray) -> list[TraceRecord]:
        """TraceRecord objects for the record indices ``which``, in order."""
        lo, hi = self.offsets[which], self.offsets[which + 1]
        slots_at = _ranges(lo, hi)
        slots = list(map(SlotEntry, self.expert_id[slots_at].tolist(),
                         _decode(self.roles, self.role[slots_at]),
                         self.gate_prob[slots_at].tolist(),
                         self.selected_rank[slots_at].tolist()))
        ends = np.cumsum(hi - lo).tolist()
        return [TraceRecord(step, layer, token, modality, tuple(slots[a:b]))
                for step, layer, token, modality, a, b in zip(
                    self.step[lo].tolist(), self.layer[lo].tolist(),
                    self.token_index[lo].tolist(),
                    _decode(self.modalities, self.modality[lo]), [0] + ends[:-1], ends)]


class RoutingTrace:
    """Append-only store keyed by (step, layer, token_index), kept as columns."""

    def __init__(self):
        self._columns = _Columns.empty()
        self._pending: list[TraceRecord] = []  # added since the last read
        self._blocks: list[_Columns] = []      # column blocks added since the last read
        self._keys: set[tuple[int, int, int]] | None = set()  # None: not built yet

    @classmethod
    def _of(cls, columns: _Columns) -> "RoutingTrace":
        trace = cls()
        trace._columns, trace._keys = columns, None
        return trace

    def __len__(self) -> int:
        return len(self._columns) + len(self._pending) + sum(map(len, self._blocks))

    def _known_keys(self) -> set[tuple[int, int, int]]:
        if self._keys is None:
            c = self._columns
            self._keys = set(zip(c.step[c.starts].tolist(), c.layer[c.starts].tolist(),
                                 c.token_index[c.starts].tolist()))
        return self._keys

    def add(self, rec: TraceRecord) -> None:
        keys = self._keys if self._keys is not None else self._known_keys()
        key = (rec.step, rec.layer, rec.token_index)
        if key in keys:
            raise DuplicateRecordError(f"record already exists for {key}")
        if rec.k < 1:
            raise ValueError("a record needs at least one routable slot")
        keys.add(key)
        self._pending.append(rec)

    def _add_columns(self, block: _Columns) -> None:
        """Append a block of records; like :meth:`add` for each of them."""
        known = self._known_keys()
        s = block.starts
        keys = list(zip(block.step[s].tolist(), block.layer[s].tolist(),
                        block.token_index[s].tolist()))
        new = set(keys)
        if len(new) < len(keys) or not known.isdisjoint(new):
            dup = next(key for i, key in enumerate(keys) if key in known or key in keys[:i])
            raise DuplicateRecordError(f"record already exists for {dup}")
        if (block.k() < 1).any():
            raise ValueError("a record needs at least one routable slot")
        known.update(new)
        self._blocks.append(block)

    def _store(self) -> _Columns:
        """The columns, with records added since the last read folded in."""
        if self._pending or self._blocks:
            parts = [self._columns, *self._blocks]
            recs = self._pending
            if recs:
                slots = [s for r in recs for s in r.slots]
                parts.append(_Columns.from_fields(
                    [r.step for r in recs], [r.layer for r in recs],
                    [r.token_index for r in recs], [r.modality for r in recs],
                    [len(r.slots) for r in recs], [s.expert_id for s in slots],
                    [s.role for s in slots], [s.gate_prob for s in slots],
                    [s.selected_rank for s in slots]))
            self._columns = _Columns.join(parts).checked()
            self._pending, self._blocks = [], []
        return self._columns

    def records(self) -> list[TraceRecord]:
        """Immutable snapshot, deterministically ordered by key."""
        c = self._store()
        return c.records(np.arange(len(c)))

    def select(self, layer: int, step: int | None = None,
               modality: str | None = None) -> list[TraceRecord]:
        c = self._store()
        keep = c.layer[c.starts] == layer
        if step is not None:
            keep &= c.step[c.starts] == step
        if modality is not None:
            keep &= c.modality[c.starts] == c.code(modality)
        return c.records(np.flatnonzero(keep))


def record(trace: RoutingTrace, step: int, layer: int, token_index: int,
           modality_tag: str, decision: moe.RoutingDecision) -> None:
    """Append one token's routing decision (routable slots, then shared)."""
    slots = [SlotEntry(e.index, e.role.value, e.gate_prob, e.rank)
             for e in decision.per_expert]
    slots += [SlotEntry(e.index, e.role.value, e.gate_prob, -1)
              for e in decision.shared]
    trace.add(TraceRecord(step=step, layer=layer, token_index=token_index,
                          modality=modality_tag, slots=tuple(slots)))


def record_rows(trace: RoutingTrace, step: int, layer: int,
                modality_tags: Sequence[str], routing: moe.Routing) -> None:
    """Append one layer's routing, token t as record (step, layer, t).

    The records equal those of :func:`record` called on every ``routing[t]``
    in turn, but they go in as one column block, with no per-token objects.
    """
    trace._add_columns(_Columns.of_routing(step, layer, modality_tags, routing))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ActivationReport:
    """Per-expert share of assignment slots at one layer."""

    layer: int
    group: str  # "all" or the modality filter that produced it
    counts: dict[int, int]
    role_of: dict[int, str]

    @property
    def total_slots(self) -> int:
        return sum(self.counts.values())

    @property
    def proportions(self) -> dict[int, float]:
        n = self.total_slots
        return {e: c / n for e, c in sorted(self.counts.items())}


def activation_proportions(trace: RoutingTrace, layer: int,
                           modality: str | None = None,
                           include_shared: bool = False) -> ActivationReport:
    """proportion(e) = slots naming e / total assignment slots at the layer."""
    c = trace._store()
    pool = c.layer == layer
    if modality is not None:
        pool &= c.modality == c.code(modality)
    if not include_shared:
        pool &= c.selected_rank >= 0
    ids, roles = c.expert_id[pool], c.role[pool]
    if not ids.size:
        raise ValueError(f"no records for layer {layer}"
                         + (f" with modality {modality!r}" if modality is not None else ""))
    experts, first, counts = np.unique(ids, return_index=True, return_counts=True)
    last = ids.size - 1 - np.unique(ids[::-1], return_index=True)[1]
    # Experts in first-seen order; each keeps the role of its last slot.
    order = np.argsort(first)
    experts = experts[order].tolist()
    return ActivationReport(
        layer=layer, group="all" if modality is None else modality,
        counts=dict(zip(experts, counts[order].tolist())),
        role_of=dict(zip(experts, _decode(c.roles, roles[last[order]]))))


def expert_count_histogram(trace: RoutingTrace, layer: int,
                           modality: str | None = None) -> dict[int, float]:
    """Fraction of tokens that activated k routable slots, keyed by k."""
    c = trace._store()
    keep = c.layer[c.starts] == layer
    if modality is not None:
        keep &= c.modality[c.starts] == c.code(modality)
    ks = c.k()[keep]
    if not ks.size:
        raise ValueError(f"no records for layer {layer}")
    values, counts = np.unique(ks, return_counts=True)
    n = int(ks.size)
    return {k: n_k / n for k, n_k in zip(values.tolist(), counts.tolist())}


def dynamics_over_steps(trace: RoutingTrace, layer: int,
                        expert_id: int) -> list[tuple[int, float]]:
    """(step, slot-proportion of expert_id) for every recorded step, ordered."""
    c = trace._store()
    at = c.layer == layer
    steps, step_of = np.unique(c.step[at], return_inverse=True)
    routable = c.selected_rank[at] >= 0
    totals = np.bincount(step_of[routable], minlength=steps.size)
    hits = np.bincount(step_of[routable & (c.expert_id[at] == expert_id)],
                       minlength=steps.size)
    return [(step, h / t if t else 0.0)
            for step, h, t in zip(steps.tolist(), hits.tolist(), totals.tolist())]


def layer_modalities(trace: RoutingTrace, layer: int) -> list[str]:
    """The distinct modalities recorded at the layer, sorted."""
    c = trace._store()
    return sorted(_decode(c.modalities, np.unique(c.modality[c.layer == layer])))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_JSON_HEAD = ('{{"step": {}, "layer": {}, "token_index": {}, "modality": {}, '
              '"k": {}, "slots": [')
_JSON_SLOT = '{{"expert_id": {}, "role": {}, "gate_prob": '
_JSON_SLOT_END = ', "selected_rank": {}}}'


def _format_each(fmt: Callable[..., str], *cols: np.ndarray) -> np.ndarray:
    """``fmt(*values)`` at every index of the columns, as an object array.

    Each distinct tuple of values is formatted once: slot columns repeat a
    few values over and over, and formatting is the costly part of an
    export.  Floats are told apart by their bits, so 0.0 and -0.0 keep
    their own text.
    """
    keys = [col.view(np.int64) if col.dtype == np.float64 else col for col in cols]
    order = np.lexsort(keys)
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    code = np.empty(order.size, dtype=np.int64)
    code[order] = np.cumsum(new) - 1
    first = order[new]
    table = [fmt(*values) for values in zip(*(col[first].tolist() for col in cols))]
    return np.array(table, dtype=object)[code]


def _joined(*pieces: np.ndarray) -> str:
    """The pieces of slot 0, then of slot 1, and so on, as one string."""
    return "".join(np.stack(pieces, axis=1).ravel().tolist())


def _check_csv_fields(field: str, values: Iterable[str]) -> None:
    """Raise a ValueError naming the first value that holds ',', '\\n' or
    '\\r': CSV fields are written unquoted, so no import could read it back."""
    for value in values:
        if any(ch in value for ch in ",\n\r"):
            raise ValueError(f"CSV cannot hold the {field} {value!r}: it contains ',', "
                             f"'\\n' or '\\r'; export as JSONL instead")


def _csv_text(c: _Columns) -> str:
    _check_csv_fields("modality", c.modalities)
    _check_csv_fields("role", c.roles)
    k = np.repeat(c.k(), np.diff(c.offsets))
    return ",".join(CSV_COLUMNS) + "\n" + _joined(
        _format_each(lambda step, layer, token, m: f"{step},{layer},{token},{c.modalities[m]},",
                     c.step, c.layer, c.token_index, c.modality),
        _format_each(lambda e, r: f"{e},{c.roles[r]},", c.expert_id, c.role),
        _format_each(repr, c.gate_prob),
        _format_each(lambda rank, k: f",{rank},{k}\n", c.selected_rank, k))


def _json_float(x: float) -> str:
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _jsonl_text(c: _Columns) -> str:
    """The ``json.dumps`` line of every record, assembled from pieces."""
    modalities = [json.dumps(m) for m in c.modalities]
    roles = [json.dumps(r) for r in c.roles]
    s = c.starts
    lead = np.full(c.expert_id.size, ", ", dtype=object)  # between a record's slots
    lead[s] = _format_each(lambda step, layer, token, m, k: _JSON_HEAD.format(
        step, layer, token, modalities[m], k), c.step[s], c.layer[s], c.token_index[s],
        c.modality[s], c.k())
    last = np.zeros(c.expert_id.size, dtype=bool)
    last[c.offsets[1:] - 1] = True
    return _joined(
        lead,
        _format_each(lambda e, r: _JSON_SLOT.format(e, roles[r]), c.expert_id, c.role),
        _format_each(_json_float, c.gate_prob),
        _format_each(lambda rank, end: _JSON_SLOT_END.format(rank) + ("]}\n" if end else ""),
                     c.selected_rank, last))


def export_trace(trace: RoutingTrace, path, fmt: str = "csv") -> None:
    """Write the trace; CSV uses the fixed column set, JSONL one record/line.

    Row order is deterministic ((step, layer, token_index), slots in selection
    order) and floats are written with ``repr``, so export -> import -> export
    reproduces the file byte for byte.  CSV fields are not quoted, so a CSV
    export raises ``ValueError`` if a modality or role holds ',', '\\n' or
    '\\r'; JSONL holds any string.
    """
    if fmt == "csv":
        text = _csv_text(trace._store())
    elif fmt == "jsonl":
        text = _jsonl_text(trace._store())
    else:
        raise ValueError("format must be 'csv' or 'jsonl'")
    Path(path).write_text(text, encoding="utf-8")


def _text_column(raw: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct strings among the byte spans ``raw[lo[i]:hi[i]]``, and each
    span's code.

    Spans are compared as rows padded with 0xFF, a byte UTF-8 never holds,
    so every string keeps all its characters, NULs and spaces included.
    """
    lens = hi - lo
    width = max(1, int(lens.max(initial=0)))
    pos = np.arange(width)
    inside = pos < lens[:, None]
    cells = np.full((lens.size, width), 0xFF, dtype=np.uint8)
    cells[inside] = raw[(lo[:, None] + pos)[inside]]
    _, first, code = np.unique(cells.view(f"V{width}").ravel(), return_index=True,
                               return_inverse=True)
    return tuple(raw[lo[i]:hi[i]].tobytes().decode("utf-8") for i in first.tolist()), code


def _read_csv(text: str) -> _Columns:
    """Parse CSV rows straight into typed columns.

    A record is a run of rows with one key; its modality is the first
    row's.  A key that comes back after another key is a duplicate.
    """
    head, _, body = text.partition("\n")
    if head != ",".join(CSV_COLUMNS):
        raise ValueError("missing or malformed CSV header")
    if not body:
        return _Columns.empty()
    if not body.endswith("\n"):
        body += "\n"
    raw = np.frombuffer(body.encode("utf-8"), dtype=np.uint8)
    commas = np.flatnonzero(raw == ord(","))
    per_line = np.diff(np.searchsorted(commas, np.flatnonzero(raw == ord("\n"))), prepend=0)
    bad = np.flatnonzero(per_line != len(CSV_COLUMNS) - 1)
    if bad.size:
        line = body.split("\n")[bad[0]]
        raise ValueError(f"malformed CSV row: {line!r}")
    commas = commas.reshape(-1, len(CSV_COLUMNS) - 1)
    text_fields = ("modality", "role")
    numeric = [(j, name) for j, name in enumerate(CSV_COLUMNS) if name not in text_fields]
    # No comment character: a modality may hold '#'.
    rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=1,
                      usecols=[j for j, _ in numeric],
                      dtype=[(name, np.float64 if name == "gate_prob" else np.int64)
                             for _, name in numeric])
    step, layer, token = rows["step"], rows["layer"], rows["token_index"]
    new = np.ones(step.size, dtype=bool)
    new[1:] = (step[1:] != step[:-1]) | (layer[1:] != layer[:-1]) | (token[1:] != token[:-1])
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, step.size))
    m, r = (CSV_COLUMNS.index(name) for name in text_fields)
    modalities, modality = _text_column(raw, commas[starts, m - 1] + 1, commas[starts, m])
    roles, role = _text_column(raw, commas[:, r - 1] + 1, commas[:, r])
    # Contiguous copies of the fields, so that the parsed rows are freed.
    return _Columns(step=step.copy(), layer=layer.copy(), token_index=token.copy(),
                    modality=np.repeat(modality, counts), expert_id=rows["expert_id"].copy(),
                    role=role, gate_prob=rows["gate_prob"].copy(),
                    selected_rank=rows["selected_rank"].copy(), offsets=_offsets(counts),
                    modalities=modalities, roles=roles).checked(rows["k"])


# The JSON types a JSONL field takes: a bool is not an integer, and a string
# is not a number.  Fields not named in _JSON_KIND take integers.
_JSON_TYPES = {"integer": {int}, "number": {int, float}, "string": {str}}
_JSON_KIND = {"modality": "string", "role": "string", "gate_prob": "number"}
# The integers a numeric column holds, by JSON kind: an integer field becomes
# an int64 column, and a number field a float64 one, which an integer beyond
# the largest float overflows.
_JSON_RANGE = {"integer": ("int64", int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)),
               "number": ("float64", -float(np.finfo(np.float64).max),
                          float(np.finfo(np.float64).max))}
_SLOT_FIELDS = ("expert_id", "role", "gate_prob", "selected_rank")


def _check_json_type(field: str, values: list) -> None:
    """Raise a ValueError naming the field if a value has another JSON type
    than the field takes."""
    kind = _JSON_KIND.get(field, "integer")
    types = _JSON_TYPES[kind]
    if not set(map(type, values)) <= types:
        bad = next(v for v in values if type(v) not in types)
        raise ValueError(f"{field} must be a JSON {kind}, got {json.dumps(bad)}")


def _check_json_range(field: str, values: list) -> None:
    """Raise a ValueError naming the field if an integer lies outside the
    range of the field's column."""
    kind = _JSON_KIND.get(field, "integer")
    if kind in _JSON_RANGE:
        dtype, low, high = _JSON_RANGE[kind]
        bad = next((v for v in values if type(v) is int and not low <= v <= high), None)
        if bad is not None:
            raise ValueError(f"{field} must be a JSON {kind} in the {dtype} range, got {bad}")


def _slots_error(slots) -> ValueError:
    return ValueError(f"slots must be a JSON array of objects, got {json.dumps(slots)}")


def _read_jsonl(text: str) -> _Columns:
    """Parse JSONL records line by line, keeping only their field values;
    :func:`import_trace` says what is rejected."""
    step, layer, token, modality, counts, k = [], [], [], [], [], []
    expert_id, role, gate_prob, rank = [], [], [], []
    try:
        for line in text.splitlines():
            d = json.loads(line)
            if type(d) is not dict:
                raise ValueError(f"record must be a JSON object, got {json.dumps(d)}")
            step.append(d["step"])
            layer.append(d["layer"])
            token.append(d["token_index"])
            modality.append(d["modality"])
            k.append(d["k"])
            slots = d["slots"]
            if type(slots) is not list:
                raise _slots_error(slots)
            counts.append(len(slots))
            for s in slots:
                expert_id.append(s["expert_id"])
                role.append(s["role"])
                gate_prob.append(s["gate_prob"])
                rank.append(s["selected_rank"])
    except KeyError as exc:
        field = exc.args[0]
        owner = "slots item" if field in _SLOT_FIELDS else "record"
        raise ValueError(f"a JSONL {owner} lacks the field {field!r}") from None
    except TypeError:  # a slots item that is no object fails its subscript
        raise _slots_error(slots) from None
    fields = (("step", step), ("layer", layer), ("token_index", token),
              ("modality", modality), ("k", k), ("expert_id", expert_id),
              ("role", role), ("gate_prob", gate_prob), ("selected_rank", rank))
    for field, values in fields:
        _check_json_type(field, values)
    try:
        columns = _Columns.from_fields(step, layer, token, modality, counts, expert_id,
                                       role, gate_prob, rank)
        k = np.repeat(_ints(k), counts)
    except (ValueError, OverflowError):
        # Only a read that fails its conversion scans for the field to name.
        for field, values in fields:
            _check_json_range(field, values)
        raise
    return columns.checked(k)


def import_trace(path) -> RoutingTrace:
    """Inverse of :func:`export_trace`: a ``.jsonl`` file is read as JSONL,
    any other as CSV.

    Raises :class:`DuplicateRecordError` if a key occurs twice, and
    ``ValueError`` if a record's ``k`` differs from its count of routable
    slots, a record has none, or a JSONL record lacks a field or holds
    another JSON type than the field takes (an object per record, an array
    of objects for ``slots``, strings for ``modality`` and ``role``, a
    number for ``gate_prob`` and integers for the rest; a bool is no
    integer or number) or an integer outside its column's range (int64, or
    float64 for ``gate_prob``).
    """
    path = Path(path)
    read = _read_jsonl if path.suffix == ".jsonl" else _read_csv
    return RoutingTrace._of(read(path.read_text(encoding="utf-8")))


def export_report(reports: Iterable[ActivationReport], path) -> None:
    """Report CSV: group,layer,expert_id,role,proportion (one row per expert).

    Raises ``ValueError`` if a group or role holds ',', '\\n' or '\\r'.
    """
    reports = list(reports)
    _check_csv_fields("group", dict.fromkeys(rep.group for rep in reports))
    _check_csv_fields("role", dict.fromkeys(
        role for rep in reports for role in rep.role_of.values()))
    lines = ["group,layer,expert_id,role,proportion"]
    for rep in reports:
        for expert_id, prop in rep.proportions.items():
            lines.append(f"{rep.group},{rep.layer},{expert_id},"
                         f"{rep.role_of[expert_id]},{repr(prop)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
