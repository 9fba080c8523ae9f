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

The trace is stored as columns: NumPy arrays with one entry per record
(step, layer, token_index, modality code), arrays with one entry per slot
(expert_id, role code, gate_prob, selected_rank), and per-record offsets
into the slot arrays.  Records are sorted by (step, layer, token_index),
each record's slots in selection order.  ``add`` is an O(1) append; the
first read after new records folds them in and sorts once.  Every
report, export and import is a few NumPy passes (group-bys and sorts)
over the columns, so its cost is near-linear in the trace size rather
than a Python scan per record or per step; only ``records`` and
``select`` build :class:`TraceRecord` objects, on demand.

Four ways in: :meth:`RoutingTrace.add` appends a :class:`TraceRecord`;
:func:`record` appends one token's :class:`~dyncapmoe.moe.RoutingDecision`
through it; :func:`record_rows` appends a whole layer's
:class:`~dyncapmoe.moe.Routing` as one column block, with the same records
and the same duplicate-key check, and no per-token objects (training logs
through it); :func:`import_trace` reads a CSV or JSONL file.  One rule
holds for all of them: each field takes one kind of value (an integer, a
number or a string; a bool is no integer or number, and a string no
number) that fits its column (int64, or float64 for ``gate_prob``).  Any
other value is a ``ValueError`` that names the field and the value; none is
truncated or parsed.  The layer, step, expert_id and modality arguments of
the reports and of :meth:`RoutingTrace.select` keep the same rule.
"""

from __future__ import annotations

import dataclasses
import io
import json
import warnings
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

_RECORD_COLUMNS = ("step", "layer", "token_index", "modality")
_SLOT_COLUMNS = ("expert_id", "role", "gate_prob", "selected_rank")
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


# The kind of value each trace field takes, and the column that kind makes:
# an int64 or float64 array, or a string field's distinct strings and each
# value's code.  A bool is no integer or number, and a string no number.
_FIELD_KIND = {"step": "integer", "layer": "integer", "token_index": "integer",
               "modality": "string", "k": "integer", "expert_id": "integer",
               "role": "string", "gate_prob": "number", "selected_rank": "integer"}
_KINDS = {"integer": ((int, np.integer), np.int64),
          "number": ((int, float, np.integer, np.floating), np.float64),
          "string": ((str,), None)}


def _column(field: str, values: Sequence):
    """The column of a field's values, by the field's kind in _FIELD_KIND.

    Raises a ValueError naming the field and its first value of another
    kind, or its first integer outside the column's range (int64, or
    float64 for a number); nothing is truncated or parsed.
    """
    kind = _FIELD_KIND[field]
    types, dtype = _KINDS[kind]
    wrong = {t for t in set(map(type, values)) if t is bool or not issubclass(t, types)}
    if wrong:
        bad = next(v for v in values if type(v) in wrong)
        raise ValueError(f"{field} must be a JSON {kind}, got {json.dumps(bad, default=repr)}")
    if dtype is None:
        return _encode(values)
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        info = np.iinfo(dtype) if kind == "integer" else np.finfo(dtype)
        low, high = int(info.min), int(info.max)
        bad = next(v for v in values
                   if isinstance(v, (int, np.integer)) and not low <= v <= high)
        raise ValueError(f"{field} must be a JSON {kind} in the {np.dtype(dtype)} range, "
                         f"got {bad}") from None


def _offsets(counts) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


@dataclasses.dataclass(frozen=True)
class _Columns:
    """One entry per record in the _RECORD_COLUMNS, one per slot in the
    _SLOT_COLUMNS; record r owns slots ``offsets[r]:offsets[r + 1]``.

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
        """Columns from per-record fields and slot counts, and per-slot
        fields, each converted by :func:`_column`."""
        modalities, modality = _column("modality", modality)
        roles, role = _column("role", role)
        return cls(step=_column("step", step), layer=_column("layer", layer),
                   token_index=_column("token_index", token_index), modality=modality,
                   expert_id=_column("expert_id", expert_id), role=role,
                   gate_prob=_column("gate_prob", gate_prob),
                   selected_rank=_column("selected_rank", selected_rank),
                   offsets=_offsets(counts), modalities=modalities, roles=roles)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def k(self) -> np.ndarray:
        """Routable slots per record."""
        routable = np.concatenate(([0], np.cumsum(self.selected_rank >= 0)))
        return np.diff(routable[self.offsets])

    def key(self, r: int) -> tuple[int, int, int]:
        return (int(self.step[r]), int(self.layer[r]), int(self.token_index[r]))

    def where(self, layer: int, step: int | None = None,
              modality: str | None = None) -> np.ndarray:
        """Mask of the records at the layer, and at the step and of the
        modality if given.  Each argument must be of the kind its field
        takes (module docstring), or a ValueError names it."""
        _column("layer", [layer])
        keep = self.layer == layer
        if step is not None:
            _column("step", [step])
            keep &= self.step == step
        if modality is not None:
            _column("modality", [modality])
            keep &= self.modality == (self.modalities.index(modality)
                                      if modality in self.modalities else -1)
        return keep

    def take(self, records: np.ndarray) -> "_Columns":
        """The records at the indices ``records``, in that order, each with
        its slots; the one map from records to their slot ranges."""
        lo, hi = self.offsets[records], self.offsets[records + 1]
        slots = _ranges(lo, hi)
        return dataclasses.replace(self, offsets=_offsets(hi - lo),
                                   **{f: getattr(self, f)[records] for f in _RECORD_COLUMNS},
                                   **{f: getattr(self, f)[slots] for f in _SLOT_COLUMNS})

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
                      for f in (*_RECORD_COLUMNS, *_SLOT_COLUMNS)
                      if f not in ("modality", "role")})

    @classmethod
    def of_routing(cls, step: int, layer: int, modality_tags: Sequence[str],
                   routing: moe.Routing) -> "_Columns":
        """One record per token of a layer's routing: its active slots in
        rank order, then the shared experts with rank -1.

        The active slot of rank r of token t goes to slot row
        ``offsets[t] + r``, whatever the order of the Routing's active
        pairs, which this reads; the Routing's own check guarantees that
        token t's ranks are 0..k-1, each once.
        ``modality_tags`` must be a sequence of strings, one per token, and
        not a single string.
        """
        n, n_slots = routing.rank.shape
        if isinstance(modality_tags, str):
            raise ValueError(f"modality_tags must be one tag per token, not the string "
                             f"{modality_tags!r}")
        if len(modality_tags) != n:
            raise ValueError(f"need one modality tag per token, got {len(modality_tags)} "
                             f"for {n}")
        (step,), (layer,) = _column("step", [step]), _column("layer", [layer])
        modalities, modality = _column("modality", modality_tags)
        tok, slot, r, k, _ = routing._active
        counts = k + routing.n_shared
        offsets = _offsets(counts)
        size = int(offsets[-1])
        at = offsets[tok] + r
        rank = np.full(size, -1, dtype=np.int64)
        rank[at] = r
        expert_id = np.empty(size, dtype=np.int64)
        expert_id[at] = slot
        gate = np.ones(size)
        gate[at] = routing.gate[tok, slot]
        if routing.n_shared:
            shared = np.arange(routing.n_shared)
            expert_id[(offsets[:-1] + k)[:, None] + shared] = n_slots + shared
        return cls(step=np.full(n, step, dtype=np.int64),
                   layer=np.full(n, layer, dtype=np.int64),
                   token_index=np.arange(n), modality=modality, expert_id=expert_id,
                   role=np.searchsorted([routing.n_routed, n_slots], expert_id, side="right"),
                   gate_prob=gate, selected_rank=rank, offsets=offsets,
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
        keys = (self.step, self.layer, self.token_index)
        order = np.lexsort(keys[::-1])
        step, layer, token = (a[order] for a in keys)
        same = (step[1:] == step[:-1]) & (layer[1:] == layer[:-1]) & (token[1:] == token[:-1])
        if same.any():
            raise DuplicateRecordError(
                f"record already exists for {self.key(order[np.argmax(same)])}")
        if (order == np.arange(order.size)).all():
            return self
        return self.take(order)

    def records(self, which: np.ndarray) -> list[TraceRecord]:
        """TraceRecord objects for the record indices ``which``, in order."""
        c = self.take(which)
        slots = list(map(SlotEntry, c.expert_id.tolist(), _decode(c.roles, c.role),
                         c.gate_prob.tolist(), c.selected_rank.tolist()))
        ends = c.offsets.tolist()
        return [TraceRecord(step, layer, token, modality, tuple(slots[a:b]))
                for step, layer, token, modality, a, b in zip(
                    c.step.tolist(), c.layer.tolist(), c.token_index.tolist(),
                    _decode(c.modalities, c.modality), ends[:-1], ends[1:])]


def _read_only_empty() -> _Columns:
    columns = _Columns.from_fields([], [], [], [], [], [], [], [], [])
    for field in (*_RECORD_COLUMNS, *_SLOT_COLUMNS, "offsets"):
        getattr(columns, field).flags.writeable = False
    return columns


# The columns of a trace with no records, shared by every such trace; its
# arrays are read-only, so no trace can change them.
_EMPTY = _read_only_empty()


def _record_columns(recs: Sequence[TraceRecord]) -> _Columns:
    try:
        slots = [s for r in recs for s in r.slots]
        fields = ([s.expert_id for s in slots], [s.role for s in slots],
                  [s.gate_prob for s in slots], [s.selected_rank for s in slots])
    except (TypeError, AttributeError):  # slots that are no SlotEntry sequence
        raise _slots_error(next(
            r.slots for r in recs if not isinstance(r.slots, (tuple, list))
            or not all(isinstance(s, SlotEntry) for s in r.slots))) from None
    return _Columns.from_fields(
        [r.step for r in recs], [r.layer for r in recs], [r.token_index for r in recs],
        [r.modality for r in recs], [len(r.slots) for r in recs], *fields)


class RoutingTrace:
    """Append-only store keyed by (step, layer, token_index), kept as columns."""

    def __init__(self):
        self._columns = _EMPTY
        self._pending: list[TraceRecord] = []  # added since the last read
        self._blocks: list[_Columns] = []      # column blocks added since the last read
        self._keys: set[tuple[int, int, int]] | None = None  # built at the first append

    @classmethod
    def _of(cls, columns: _Columns) -> "RoutingTrace":
        trace = cls()
        trace._columns = columns
        return trace

    def __len__(self) -> int:
        return len(self._columns) + len(self._pending) + sum(map(len, self._blocks))

    def _known_keys(self) -> set[tuple[int, int, int]]:
        if self._keys is None:
            c = self._columns
            self._keys = set(zip(c.step.tolist(), c.layer.tolist(), c.token_index.tolist()))
        return self._keys

    def add(self, rec: TraceRecord) -> None:
        """Append one record.  A repeated key, a record with no routable
        slot, or a key or slot value these checks cannot use raises here; any
        other field value of another kind than the field takes (module
        docstring) raises at the next read, which drops that record and
        keeps the others."""
        keys = self._known_keys()
        key = (rec.step, rec.layer, rec.token_index)
        try:
            if key in keys:
                raise DuplicateRecordError(f"record already exists for {key}")
            if rec.k < 1:
                raise ValueError("a record needs at least one routable slot")
        except (TypeError, AttributeError):  # a value the checks cannot use
            _record_columns([rec])  # raises the ValueError naming its field
            raise
        keys.add(key)
        self._pending.append(rec)

    def _add_columns(self, block: _Columns) -> None:
        """Append a block of records with distinct keys, each with a
        routable slot (one layer's tokens 0..n-1); like :meth:`add` for
        each of them."""
        known = self._known_keys()
        keys = list(zip(block.step.tolist(), block.layer.tolist(), block.token_index.tolist()))
        if not known.isdisjoint(keys):
            dup = next(key for key in keys if key in known)
            raise DuplicateRecordError(f"record already exists for {dup}")
        known.update(keys)
        self._blocks.append(block)

    def _store(self) -> _Columns:
        """The columns, with records added since the last read folded in.

        A pending record that holds a value of another kind than its field
        takes is dropped, its key freed, and the ValueError naming the value
        raised; the other pending records are kept for the next read.
        """
        if self._pending or self._blocks:
            parts = [self._columns, *self._blocks]
            if self._pending:
                try:
                    parts.append(_record_columns(self._pending))
                except ValueError:
                    self._pending = [r for r in self._pending if self._fits(r)]
                    raise
            self._columns = _Columns.join(parts).checked()
            self._pending, self._blocks = [], []
        return self._columns

    def _fits(self, rec: TraceRecord) -> bool:
        """Whether every field of the record takes its value; if not, the
        record's key is freed."""
        try:
            _record_columns([rec])
        except ValueError:
            self._known_keys().discard((rec.step, rec.layer, rec.token_index))
            return False
        return True

    def records(self) -> list[TraceRecord]:
        """Immutable snapshot, deterministically ordered by key."""
        c = self._store()
        return c.records(np.arange(len(c)))

    def select(self, layer: int, step: int | None = None,
               modality: str | None = None) -> list[TraceRecord]:
        c = self._store()
        return c.records(np.flatnonzero(c.where(layer, step, modality)))


def record(trace: RoutingTrace, step: int, layer: int, token_index: int,
           modality_tag: str, decision: moe.RoutingDecision) -> None:
    """Append one token's routing decision (routable slots, then shared)
    through :meth:`RoutingTrace.add`, whose checks it keeps."""
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
    A repeated key, a ``step``, ``layer`` or modality tag of another kind
    than its field takes (module docstring), or ``modality_tags`` given as
    one string, raises before anything is added.  The routing's ranks need
    no check here: a :class:`~dyncapmoe.moe.Routing` refuses a token
    without active slots ranked 0..k-1, each once, when it is built.
    """
    trace._add_columns(_Columns.of_routing(step, layer, modality_tags, routing))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ActivationReport:
    """Per-expert slot counts at one layer; ``proportions`` divides by their sum."""

    layer: int
    group: str  # "all" or the modality filter that produced it
    counts: dict[int, int]
    role_of: dict[int, str]

    @property
    def proportions(self) -> dict[int, float]:
        n = sum(self.counts.values())
        return {e: c / n for e, c in sorted(self.counts.items())}


def _no_records(layer: int, modality: str | None) -> ValueError:
    return ValueError(f"no records for layer {layer}"
                      + (f" with modality {modality!r}" if modality is not None else ""))


def activation_proportions(trace: RoutingTrace, layer: int,
                           modality: str | None = None,
                           include_shared: bool = False) -> ActivationReport:
    """proportion(e) = slots naming e / total assignment slots at the layer."""
    c = trace._store()
    pool = np.repeat(c.where(layer, modality=modality), np.diff(c.offsets))
    if not include_shared:
        pool &= c.selected_rank >= 0
    ids, roles = c.expert_id[pool], c.role[pool]
    if not ids.size:
        raise _no_records(layer, modality)
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
    ks = c.k()[c.where(layer, modality=modality)]
    if not ks.size:
        raise _no_records(layer, modality)
    values, counts = np.unique(ks, return_counts=True)
    n = int(ks.size)
    return {k: n_k / n for k, n_k in zip(values.tolist(), counts.tolist())}


def dynamics_over_steps(trace: RoutingTrace, layer: int,
                        expert_id: int) -> list[tuple[int, float]]:
    """(step, slot-proportion of expert_id) for every recorded step, ordered."""
    c = trace._store()
    at = c.where(layer)
    _column("expert_id", [expert_id])
    steps, step_of = np.unique(c.step[at], return_inverse=True)
    counts = np.diff(c.offsets)
    step_of = np.repeat(step_of, counts[at])  # for each slot of the layer
    slot_at = np.repeat(at, counts)
    routable = c.selected_rank[slot_at] >= 0
    totals = np.bincount(step_of[routable], minlength=steps.size)
    hits = np.bincount(step_of[routable & (c.expert_id[slot_at] == expert_id)],
                       minlength=steps.size)
    return [(step, h / t if t else 0.0)
            for step, h, t in zip(steps.tolist(), hits.tolist(), totals.tolist())]


def layer_modalities(trace: RoutingTrace, layer: int) -> list[str]:
    """The distinct modalities recorded at the layer, sorted."""
    c = trace._store()
    return sorted(_decode(c.modalities, np.unique(c.modality[c.where(layer)])))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_JSON_STEP = '{{"step": {}, '
_JSON_HEAD = '"layer": {}, "token_index": {}, "modality": {}, "k": {}, "slots": ['
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
    counts = np.diff(c.offsets)
    k = np.repeat(c.k(), counts)
    # A record's head is its step's piece and the piece of the rest of its
    # key, repeated over its slot rows.
    heads = (_format_each("{},".format, c.step)
             + _format_each(lambda layer, token, m: f"{layer},{token},{c.modalities[m]},",
                            c.layer, c.token_index, c.modality))
    return ",".join(CSV_COLUMNS) + "\n" + _joined(
        np.repeat(heads, counts),
        _format_each(lambda e, r: f"{e},{c.roles[r]},", c.expert_id, c.role),
        _format_each(repr, c.gate_prob),
        _format_each(lambda rank, k: f",{rank},{k}\n", c.selected_rank, k))


def _jsonl_text(c: _Columns) -> str:
    """The ``json.dumps`` line of every record, assembled from pieces."""
    modalities = [json.dumps(m) for m in c.modalities]
    roles = [json.dumps(r) for r in c.roles]
    lead = np.full(c.expert_id.size, ", ", dtype=object)  # between a record's slots
    # A record's head is its step's piece and the piece of the rest of its key.
    lead[c.offsets[:-1]] = (_format_each(_JSON_STEP.format, c.step)
                            + _format_each(lambda layer, token, m, k: _JSON_HEAD.format(
                                layer, token, modalities[m], k), c.layer, c.token_index,
                                c.modality, c.k()))
    gates = _format_each(repr, c.gate_prob)
    odd = np.flatnonzero(~np.isfinite(c.gate_prob))  # NaN, Infinity, -Infinity
    gates[odd] = [json.dumps(x) for x in c.gate_prob[odd].tolist()]
    last = np.zeros(c.expert_id.size, dtype=bool)
    last[c.offsets[1:] - 1] = True
    return _joined(
        lead,
        _format_each(lambda e, r: _JSON_SLOT.format(e, roles[r]), c.expert_id, c.role),
        gates,
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


# The low bytes that pad a word holding r bytes of a span (r = 0..8) with 0xFF.
_WORD_PAD = np.array([(1 << 8 * (8 - r)) - 1 for r in range(9)], dtype=np.uint64)


def _text_column(raw: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct strings among the byte spans ``raw[lo[i]:hi[i]]``, and each
    span's code; ``raw`` runs on for at least 8 bytes after every span.

    A span is keyed by its bytes read as big-endian 8-byte words, padded
    with 0xFF, a byte UTF-8 never holds, so every string keeps all its
    characters, NULs and spaces included.  Big-endian words compare as
    their bytes do, so the codes follow the byte order of the padded spans
    (a string sorts after the longer strings it begins).  The first word
    is deduplicated as an integer; each further word is folded into the
    code of the words before it.
    """
    lens = hi - lo
    windows = np.lib.stride_tricks.sliding_window_view(raw, 8)
    code = None
    for j in range(0, max(1, int(lens.max(initial=0))), 8):
        word = (windows[np.minimum(lo + j, hi)].view(">u8")[:, 0]
                | _WORD_PAD[np.clip(lens - j, 0, 8)])
        if code is not None:
            _, word = np.unique(word, return_inverse=True)
            word = code * (word.max() + 1) + word
        _, code = np.unique(word, return_inverse=True)
    first = np.empty(code.max(initial=-1) + 1, dtype=np.int64)
    first[code] = np.arange(code.size)  # any span of a code holds its string
    return tuple(raw[lo[i]:hi[i]].tobytes().decode("utf-8") for i in first.tolist()), code


def _loadtxt(lines, **kwargs) -> np.ndarray:
    """``np.loadtxt`` of comma-separated lines, with no comment character (a
    modality may hold '#').  A float read into an integer column fails, also
    on the NumPy versions that only warn of it as deprecated."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        warnings.simplefilter("ignore", UserWarning)  # no data: an empty array
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, **kwargs)


def _csv_parses(texts: Sequence[str], dtype) -> bool:
    """Whether :func:`_loadtxt` reads each text as one value of the dtype."""
    try:
        return _loadtxt(list(texts), dtype=dtype).size == len(texts)
    except (ValueError, DeprecationWarning):
        return False


def _csv_number_error(raw: np.ndarray, bounds: np.ndarray,
                      numeric: Sequence[tuple[int, str]]) -> ValueError | None:
    """A ValueError naming the file line and field of the first numeric
    field that :func:`_loadtxt` cannot read as an int64 integer (a float64
    number for ``gate_prob``), or None if it reads every one."""
    bad = []
    for j, field in numeric:
        texts, code = _text_column(raw, bounds[:, j] + 1, bounds[:, j + 1])
        dtype = np.float64 if field == "gate_prob" else np.int64
        if _csv_parses(texts, dtype):
            continue
        wrong = np.flatnonzero(~np.array([_csv_parses([t], dtype) for t in texts])[code])
        if wrong.size:
            bad.append((int(wrong[0]), j, field, texts[code[wrong[0]]]))
    if not bad:
        return None
    row, _, field, text = min(bad)
    kind = "a float64 number" if field == "gate_prob" else "an int64 integer"
    # Line 1 of the file is the header.
    return ValueError(f"line {row + 2}: {field} must be {kind}, got {text!r}")


def _read_csv(text: str) -> _Columns:
    """Parse CSV rows straight into typed columns.

    A record is a run of rows with one key and one modality.  A key that
    comes back after another key is a duplicate.
    """
    head, _, body = text.partition("\n")
    if head != ",".join(CSV_COLUMNS):
        raise ValueError("missing or malformed CSV header")
    if not body:
        return _EMPTY
    if not body.endswith("\n"):
        body += "\n"
    # 8 bytes past the last line for the words of _text_column
    raw = np.frombuffer(body.encode("utf-8") + bytes(8), dtype=np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    newline = raw[seps] == ord("\n")
    width = len(CSV_COLUMNS)
    # Every line has width - 1 commas iff each width-th separator, and no
    # other, is a newline.
    if seps.size % width or not newline[width - 1::width].all() \
            or newline.sum() != seps.size // width:
        commas, newlines = seps[~newline], seps[newline]
        per_line = np.diff(np.searchsorted(commas, newlines), prepend=0)
        line = body.split("\n")[np.flatnonzero(per_line != width - 1)[0]]
        raise ValueError(f"malformed CSV row: {line!r}")
    seps = seps.reshape(-1, width)  # a row's commas, then its newline
    text_fields = ("modality", "role")
    numeric = [(j, name) for j, name in enumerate(CSV_COLUMNS) if name not in text_fields]
    try:
        rows = _loadtxt(io.StringIO(body), usecols=[j for j, _ in numeric],
                        dtype=[(name, np.float64 if name == "gate_prob" else np.int64)
                               for _, name in numeric])
    except (ValueError, DeprecationWarning):
        # Field j of row i lies between bounds[i, j] and bounds[i, j + 1].
        bounds = np.column_stack((np.append(-1, seps[:-1, -1]), seps))
        error = _csv_number_error(raw, bounds, numeric)
        if error is None:
            raise
        raise error from None
    step, layer, token = rows["step"], rows["layer"], rows["token_index"]
    new = np.ones(step.size, dtype=bool)
    new[1:] = (step[1:] != step[:-1]) | (layer[1:] != layer[:-1]) | (token[1:] != token[:-1])
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, step.size))
    m, r = (CSV_COLUMNS.index(name) for name in text_fields)
    modalities, modality = _text_column(raw, seps[:, m - 1] + 1, seps[:, m])
    roles, role = _text_column(raw, seps[:, r - 1] + 1, seps[:, r])
    own = np.repeat(modality[starts], counts)  # each row's record's modality
    differs = np.flatnonzero(modality != own)
    if differs.size:
        i = int(differs[0])  # line i + 2 of the file, after the header
        raise ValueError(f"line {i + 2}: modality {modalities[modality[i]]!r} differs "
                         f"from its record's {modalities[own[i]]!r}")
    # Contiguous copies of the fields, so that the parsed rows are freed.
    return _Columns(step=step[starts], layer=layer[starts], token_index=token[starts],
                    modality=modality[starts], expert_id=rows["expert_id"].copy(),
                    role=role, gate_prob=rows["gate_prob"].copy(),
                    selected_rank=rows["selected_rank"].copy(), offsets=_offsets(counts),
                    modalities=modalities, roles=roles).checked(rows["k"])


def _slots_error(slots) -> ValueError:
    return ValueError(f"slots must be a JSON array of objects, "
                      f"got {json.dumps(slots, default=repr)}")


def _read_jsonl(text: str) -> _Columns:
    """Parse JSONL records line by line, keeping only their field values;
    :func:`import_trace` says what is rejected."""
    step, layer, token, modality, counts, k = [], [], [], [], [], []
    expert_id, role, gate_prob, rank = [], [], [], []
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    try:
        for n, line in enumerate(lines, 1):
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
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {n}: {exc.msg} at column {exc.colno}") from None
    except ValueError as exc:
        raise ValueError(f"line {n}: {exc}") from None
    except KeyError as exc:
        field = exc.args[0]
        owner = "slots item" if field in _SLOT_COLUMNS else "record"
        raise ValueError(f"line {n}: a JSONL {owner} lacks the field {field!r}") from None
    except TypeError:  # a slots item that is no object fails its subscript
        raise ValueError(f"line {n}: {_slots_error(slots)}") from None
    columns = _Columns.from_fields(step, layer, token, modality, counts, expert_id, role,
                                   gate_prob, rank)
    return columns.checked(np.repeat(_column("k", k), counts))


def import_trace(path) -> RoutingTrace:
    """Inverse of :func:`export_trace`: a ``.jsonl`` file is read as JSONL,
    any other as CSV.

    Raises :class:`DuplicateRecordError` if a key occurs twice, and
    ``ValueError`` if a record's ``k`` differs from its count of routable
    slots, a record has none, or a field holds a value that its column
    cannot (the one rule of the module docstring; ``k`` is an integer).  A
    CSV number that does not parse is named with its field and its line of
    the file.  A JSONL line that is no JSON object (a blank line included),
    lacks a field or whose ``slots`` is no array of objects is named by its
    line of the file.
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
