"""The columnar routing trace against the record-based reference.

``tests/analytics_reference.py`` keeps the record-by-record analytics; every
report, series and export of the columnar store must equal it exactly on
random traces, and the importers must reject what the format forbids.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import analytics_reference as ref
from dyncapmoe import analytics as an
from dyncapmoe import autodiff as ad
from dyncapmoe import moe

# Strings a fixed-width, NUL-padded or comment-aware parser would mangle,
# and ones that JSON writes with an escape.
MODALITIES = ("text", "image", "# hash", "  lead", "tail#", "a_modality_longer_than_8",
              "vidéo", "", "nul", "nul\x00")
ROLES = ("routed", "null", "shared", "odd#role", "pad \x00")
GATES = (5e-324, 1 / 3, 0.1, 1.0, 0.0, -0.0, 0.7071067811865476, 1e-300)

gate = st.one_of(st.sampled_from(GATES), st.floats(0.0, 1.0))


@st.composite
def trace_records(draw, max_records=40, gate=gate):
    keys = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2), st.integers(0, 8)),
                         min_size=1, max_size=max_records, unique=True))
    records = []
    for step, layer, token in keys:
        routable = draw(st.lists(st.tuples(st.integers(0, 7), st.sampled_from(ROLES), gate),
                                 min_size=1, max_size=4))
        shared = draw(st.lists(st.tuples(st.integers(5, 9), gate), max_size=2))
        slots = [an.SlotEntry(e, role, g, rank) for rank, (e, role, g) in enumerate(routable)]
        slots += [an.SlotEntry(e, "shared", g, -1) for e, g in shared]
        slots = draw(st.permutations(slots))
        records.append(an.TraceRecord(step, layer, token, draw(st.sampled_from(MODALITIES)),
                                      tuple(slots)))
    return draw(st.permutations(records))


def build(records, split):
    """The columnar trace, read once after ``split`` adds, and the reference."""
    trace, oracle = an.RoutingTrace(), ref.RoutingTrace()
    for i, rec in enumerate(records):
        if i == split:
            trace.records()  # folds the first batch in; the rest re-sorts
        trace.add(rec)
        oracle.add(rec)
    return trace, oracle


def outcome(fn, *args, **kwargs):
    """The result with its dict order, or the error it raised."""
    try:
        result = fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, an.ActivationReport):
        return result, list(result.counts.items()), list(result.role_of.items())
    if isinstance(result, dict):
        return list(result.items())
    return result


PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@PROPERTY
@given(records=trace_records(), split=st.integers(0, 40))
def test_reports_equal_the_reference(records, split):
    trace, oracle = build(records, split)
    assert len(trace) == len(oracle)
    assert trace.records() == oracle.records()
    experts = sorted({s.expert_id for r in records for s in r.slots}) + [99]
    for layer in range(4):
        assert an.layer_modalities(trace, layer) == sorted(
            {r.modality for r in oracle.records() if r.layer == layer})
        for modality in (None, *MODALITIES, "absent"):
            assert trace.select(layer, modality=modality) == oracle.select(layer, modality=modality)
            for include_shared in (False, True):
                assert (outcome(an.activation_proportions, trace, layer, modality, include_shared)
                        == outcome(ref.activation_proportions, oracle, layer, modality,
                                   include_shared))
            assert (outcome(an.expert_count_histogram, trace, layer, modality)
                    == outcome(ref.expert_count_histogram, oracle, layer, modality))
        for step in (0, 3, 7):
            assert trace.select(layer, step=step) == oracle.select(layer, step=step)
        for expert_id in experts:
            assert (an.dynamics_over_steps(trace, layer, expert_id)
                    == ref.dynamics_over_steps(oracle, layer, expert_id))


@PROPERTY
@given(records=trace_records(), split=st.integers(0, 40))
def test_exports_equal_the_reference_and_round_trip(records, split, tmp_path):
    trace, oracle = build(records, split)
    for fmt in ("csv", "jsonl"):
        path, want = tmp_path / f"trace.{fmt}", tmp_path / f"oracle.{fmt}"
        again = tmp_path / f"again.{fmt}"
        an.export_trace(trace, path, fmt=fmt)
        ref.export_trace(oracle, want, fmt=fmt)
        assert path.read_bytes() == want.read_bytes()
        back = an.import_trace(path)
        assert back.records() == ref.import_trace(path).records()
        an.export_trace(back, again, fmt=fmt)
        assert again.read_bytes() == want.read_bytes()


# Gates whose text only the exports' fix-ups get right: JSON's NaN and
# Infinity, and the sign of zero.
ODD_GATES = (math.nan, math.inf, -math.inf, -0.0, 5e-324)


@PROPERTY
@given(records=trace_records(gate=st.one_of(st.sampled_from(ODD_GATES), gate)),
       split=st.integers(0, 40))
def test_exports_of_non_finite_and_signed_zero_gates_equal_the_reference(records, split,
                                                                         tmp_path):
    """Bytes only: a NaN gate makes records unequal to themselves."""
    trace, oracle = build(records, split)
    for fmt in ("csv", "jsonl"):
        path, want = tmp_path / f"trace.{fmt}", tmp_path / f"oracle.{fmt}"
        again = tmp_path / f"again.{fmt}"
        an.export_trace(trace, path, fmt=fmt)
        ref.export_trace(oracle, want, fmt=fmt)
        assert path.read_bytes() == want.read_bytes()
        an.export_trace(an.import_trace(path), again, fmt=fmt)
        assert again.read_bytes() == want.read_bytes()


# Strings a span key must tell apart: empty, NUL, space, '#', multi-byte
# UTF-8, and 0-25 characters, many of them sharing their first 7, 8, 9 or 16
# bytes, so that spans differ on both sides of 8-byte word bounds.
span_text = st.builds(
    str.__add__, st.sampled_from(["", "a" * 7, "a" * 8, "a #\x00aaaa", "a" * 9, "é" * 8]),
    st.text(st.sampled_from(["a", "b", "\x00", " ", "#", "é", "字", "😀"]), max_size=9))


@settings(max_examples=300, deadline=None)
@given(pool=st.lists(span_text, min_size=1, max_size=6), data=st.data())
def test_text_column_equals_the_reference(pool, data):
    picks = data.draw(st.lists(st.sampled_from(pool), max_size=60))
    spans = [p.encode("utf-8") for p in picks]
    lo, at = [], 0
    for span in spans:
        lo.append(at)
        at += len(span) + 1
    hi = [a + len(span) for a, span in zip(lo, spans)]
    raw = b",".join(spans) + b"\n" + bytes(8)
    vocab, code = an._text_column(np.frombuffer(raw, dtype=np.uint8),
                                  np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64))
    assert (vocab, code.tolist()) == ref.text_column(raw, lo, hi)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=trace_records(), cut=st.integers(1, 40))
def test_adds_after_an_import_match_the_reference(records, cut, tmp_path):
    """An imported trace takes further adds, and still rejects duplicates."""
    cut = min(cut, len(records))
    path = tmp_path / "head.csv"
    an.export_trace(build(records[:cut], 0)[0], path)
    trace, oracle = an.import_trace(path), ref.import_trace(path)
    for rec in records[cut:]:
        trace.add(rec)
        oracle.add(rec)
    assert trace.records() == oracle.records()
    with pytest.raises(an.DuplicateRecordError):
        trace.add(records[0])


# ---------------------------------------------------------------------------
# import checks
# ---------------------------------------------------------------------------

HEADER = ",".join(an.CSV_COLUMNS)


def write_csv(tmp_path, rows):
    path = tmp_path / "trace.csv"
    path.write_text(HEADER + "\n" + "".join(row + "\n" for row in rows), encoding="utf-8")
    return path


def write_jsonl(tmp_path, records):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def jsonl_record(step, layer, token, k, ranks, modality="text"):
    return {"step": step, "layer": layer, "token_index": token, "modality": modality, "k": k,
            "slots": [{"expert_id": i, "role": "routed", "gate_prob": 0.5, "selected_rank": r}
                      for i, r in enumerate(ranks)]}


def test_csv_key_that_returns_after_another_key_is_a_duplicate(tmp_path):
    path = write_csv(tmp_path, ["0,0,0,text,1,routed,0.5,0,1",
                                "0,0,1,text,2,routed,0.5,0,1",
                                "0,0,0,image,3,routed,0.5,0,1"])
    with pytest.raises(an.DuplicateRecordError, match=r"\(0, 0, 0\)"):
        an.import_trace(path)


def test_jsonl_duplicate_key_is_rejected_on_the_same_content(tmp_path):
    path = write_jsonl(tmp_path, [jsonl_record(0, 0, 0, 1, [0]), jsonl_record(0, 0, 1, 1, [0]),
                                  jsonl_record(0, 0, 0, 1, [0], modality="image")])
    with pytest.raises(an.DuplicateRecordError, match=r"\(0, 0, 0\)"):
        an.import_trace(path)


def test_csv_contiguous_rows_of_one_key_are_one_record(tmp_path):
    path = write_csv(tmp_path, ["0,0,0,text,1,routed,0.5,0,2",
                                "0,0,0,text,2,routed,0.25,1,2",
                                "0,0,0,text,9,shared,1.0,-1,2"])
    (rec,) = an.import_trace(path).records()
    assert rec.k == 2 and [s.expert_id for s in rec.slots] == [1, 2, 9]


@pytest.mark.parametrize("rows,line,got,own", [
    (["0,0,0,text,1,routed,0.5,0,1", "0,0,0,image,9,shared,1.0,-1,1"], 3, "image", "text"),
    (["0,0,0,text,1,routed,0.5,0,1", "0,0,1,image,2,routed,0.5,0,1",
      "0,0,1,image,9,shared,1.0,-1,1", "0,0,1,,3,routed,0.5,1,2"], 5, "", "image")])
def test_csv_row_whose_modality_differs_from_its_records_is_refused_naming_its_line(
        tmp_path, rows, line, got, own):
    """Every row of a record holds its modality; a file that says two is
    refused rather than read as the first row's."""
    message = f"line {line}: modality {got!r} differs from its record's {own!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        an.import_trace(write_csv(tmp_path, rows))


@pytest.mark.parametrize("k", [1, 3])
def test_csv_k_column_must_match_routable_slots(tmp_path, k):
    path = write_csv(tmp_path, [f"0,0,0,text,1,routed,0.5,0,{k}",
                                f"0,0,0,text,2,routed,0.5,1,{k}",
                                f"0,0,0,text,9,shared,1.0,-1,{k}"])
    with pytest.raises(ValueError, match=rf"k is {k} but record \(0, 0, 0\) has 2"):
        an.import_trace(path)


@pytest.mark.parametrize("k", [1, 3])
def test_jsonl_k_must_match_routable_slots(tmp_path, k):
    path = write_jsonl(tmp_path, [jsonl_record(0, 0, 0, k, [0, 1, -1])])
    with pytest.raises(ValueError, match=rf"k is {k} but record \(0, 0, 0\) has 2"):
        an.import_trace(path)


def test_record_without_routable_slot_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="routable slot"):
        an.import_trace(write_csv(tmp_path, ["0,0,0,text,9,shared,1.0,-1,0"]))
    with pytest.raises(ValueError, match="routable slot"):
        an.import_trace(write_jsonl(tmp_path, [jsonl_record(0, 0, 0, 0, [])]))


@pytest.mark.parametrize("row", ["0,0,0,text,1,routed,0.5,0", "0,0,0,te,xt,1,routed,0.5,0,1",
                                 ""])
def test_csv_row_with_wrong_column_count_is_rejected(tmp_path, row):
    path = write_csv(tmp_path, ["0,0,1,text,1,routed,0.5,0,1", row])
    with pytest.raises(ValueError, match="malformed CSV row"):
        an.import_trace(path)


SHORT_ROW, LONG_ROW = "0,0,0,text,1,routed,0.5,0", "0,0,1,text,1,routed,0.5,0,1,9"


@pytest.mark.parametrize("lead", [[], ["0,0,2,text,1,routed,0.5,0,1"]])
@pytest.mark.parametrize("rows", [[SHORT_ROW, LONG_ROW], [LONG_ROW, SHORT_ROW]])
def test_csv_rows_whose_separators_balance_out_are_rejected_naming_the_first(
        tmp_path, lead, rows):
    """8 and 10 fields make two rows' worth of separators, but no two rows."""
    path = write_csv(tmp_path, lead + rows)
    with pytest.raises(ValueError, match="^" + re.escape(f"malformed CSV row: {rows[0]!r}")
                       + "$"):
        an.import_trace(path)


def test_csv_without_trailing_newline_imports(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(HEADER + "\n0,0,0, # x,1,routed,0.5,0,1", encoding="utf-8")
    (rec,) = an.import_trace(path).records()
    assert rec.modality == " # x"


def test_csv_rows_out_of_key_order_are_sorted(tmp_path):
    path = write_csv(tmp_path, ["1,0,0,text,1,routed,0.5,0,1",
                                "0,1,0,image,2,routed,0.5,0,1",
                                "0,0,5,text,3,routed,0.5,0,1"])
    keys = [(r.step, r.layer, r.token_index) for r in an.import_trace(path).records()]
    assert keys == [(0, 0, 5), (0, 1, 0), (1, 0, 0)]


@pytest.mark.parametrize("step", [1.5, 2**63, -2**63 - 1, "3"])
def test_jsonl_key_that_is_no_int64_is_rejected_not_converted(tmp_path, step):
    path = write_jsonl(tmp_path, [jsonl_record(step, 0, 0, 1, [0])])
    with pytest.raises(ValueError, match="step must be a JSON integer"):
        an.import_trace(path)


def without(mapping, key):
    return {name: value for name, value in mapping.items() if name != key}


@pytest.mark.parametrize("edit,message", [
    (lambda r: without(r, "slots"), "a JSONL record lacks the field 'slots'"),
    (lambda r: without(r, "step"), "a JSONL record lacks the field 'step'"),
    (lambda r: dict(r, slots=[without(r["slots"][0], "role")]),
     "a JSONL slots item lacks the field 'role'"),
    (lambda r: dict(r, slots=5), "slots must be a JSON array of objects, got 5"),
    (lambda r: dict(r, slots="ab"), 'slots must be a JSON array of objects, got "ab"'),
    (lambda r: dict(r, slots=[[1]]), "slots must be a JSON array of objects, got [[1]]"),
    (lambda r: [1], "record must be a JSON object, got [1]"),
    (lambda r: dict(r, step=2**63),
     "step must be a JSON integer in the int64 range, got 9223372036854775808"),
    (lambda r: dict(r, slots=[dict(r["slots"][0], expert_id=-2**63 - 1)]),
     "expert_id must be a JSON integer in the int64 range, got -9223372036854775809"),
    (lambda r: dict(r, k=2**64),
     "k must be a JSON integer in the int64 range, got 18446744073709551616"),
    (lambda r: dict(r, slots=[dict(r["slots"][0], gate_prob=10**400)]),
     "gate_prob must be a JSON number in the float64 range, got 1" + "0" * 400)])
def test_jsonl_record_of_another_shape_is_rejected_naming_the_field(tmp_path, edit,
                                                                    message):
    """A record that lacks a field, whose slots are no array of objects, or
    that holds an integer its column cannot, is a ValueError naming the
    field, not a KeyError, TypeError or OverflowError of the reader: the bad
    record comes after a good one."""
    path = write_jsonl(tmp_path, [jsonl_record(0, 0, 0, 1, [0]),
                                  edit(jsonl_record(0, 0, 1, 1, [0]))])
    with pytest.raises(ValueError, match=re.escape(message)):
        an.import_trace(path)


@pytest.mark.parametrize("field,value,kind", [
    ("step", True, "integer"), ("layer", False, "integer"), ("token_index", True, "integer"),
    ("k", True, "integer"), ("modality", 5, "string"), ("modality", None, "string"),
    ("expert_id", True, "integer"), ("selected_rank", False, "integer"),
    ("role", 3, "string"), ("gate_prob", "0.5", "number"), ("gate_prob", True, "number"),
    ("gate_prob", None, "number")])
def test_jsonl_field_of_another_json_type_is_rejected_naming_it(tmp_path, field, value,
                                                                 kind):
    """Each column takes one JSON type, even where NumPy would convert the
    value: the bad value sits in the second record, after a good one."""
    bad = jsonl_record(0, 0, 1, 1, [0])
    if field in bad:
        bad[field] = value
    else:
        bad["slots"][0][field] = value
    path = write_jsonl(tmp_path, [jsonl_record(0, 0, 0, 1, [0]), bad])
    message = f"{field} must be a JSON {kind}, got {json.dumps(value)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        an.import_trace(path)


def test_jsonl_gate_prob_takes_integers_and_non_finite_numbers(tmp_path):
    record = jsonl_record(0, 0, 0, 1, [0, 1])
    record["slots"][0]["gate_prob"] = 1
    record["slots"][1]["gate_prob"] = float("nan")
    record["k"] = 2
    (rec,) = an.import_trace(write_jsonl(tmp_path, [record])).records()
    assert rec.slots[0].gate_prob == 1.0 and math.isnan(rec.slots[1].gate_prob)


@pytest.mark.parametrize("lines,message", [
    (['{"step": 0'], "line 2: Expecting ',' delimiter at column 11"),
    ([""], "line 2: Expecting value at column 1"),
    (["", json.dumps(jsonl_record(0, 0, 2, 1, [0]))], "line 2: Expecting value at column 1"),
    (["5"], "line 2: record must be a JSON object, got 5"),
    ([json.dumps(without(jsonl_record(0, 0, 1, 1, [0]), "layer"))],
     "line 2: a JSONL record lacks the field 'layer'"),
    ([json.dumps(dict(jsonl_record(0, 0, 1, 1, [0]), slots={"a": 1}))],
     'line 2: slots must be a JSON array of objects, got {"a": 1}'),
    ([json.dumps(dict(jsonl_record(0, 0, 1, 1, [0]), slots=[None]))],
     "line 2: slots must be a JSON array of objects, got [null]")],
    ids=["decode", "blank", "blank-inside", "no-object", "missing-field", "slots-object",
         "slots-item"])
def test_jsonl_line_that_cannot_be_read_is_named_by_its_file_line(tmp_path, lines,
                                                                  message):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(line + "\n" for line in
                            [json.dumps(jsonl_record(0, 0, 0, 1, [0])), *lines]))
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        an.import_trace(path)


@pytest.mark.parametrize("field,value,message", [
    ("step", "9223372036854775808",
     "line 3: step must be an int64 integer, got '9223372036854775808'"),
    ("token_index", "1.0", "line 3: token_index must be an int64 integer, got '1.0'"),
    ("expert_id", "", "line 3: expert_id must be an int64 integer, got ''"),
    ("gate_prob", "abc", "line 3: gate_prob must be a float64 number, got 'abc'"),
    ("gate_prob", "1_0.5", "line 3: gate_prob must be a float64 number, got '1_0.5'")])
def test_csv_number_that_cannot_be_parsed_is_named_with_its_file_line(tmp_path, field,
                                                                      value, message):
    row = dict(zip(an.CSV_COLUMNS, "0,0,1,text,1,routed,0.5,0,1".split(",")), **{field: value})
    path = write_csv(tmp_path, ["0,0,0,text,1,routed,0.5,0,1", ",".join(row.values()),
                                "0,0,2,text,1,routed,xyz,0,1"])
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        an.import_trace(path)


@pytest.mark.parametrize("field,value,kind", [("step", "1.5", "an int64 integer"),
                                              ("selected_rank", "0.0", "an int64 integer"),
                                              ("gate_prob", "", "a float64 number")])
def test_csv_lone_bad_number_is_refused_not_truncated(tmp_path, field, value, kind):
    """The bad field is the only thing wrong with the file: a float in an
    integer column fails the parse itself, it is not read as an integer."""
    row = dict(zip(an.CSV_COLUMNS, "0,0,1,text,1,routed,0.5,0,1".split(",")), **{field: value})
    path = write_csv(tmp_path, [",".join(row.values())])
    with pytest.raises(ValueError, match="^" + re.escape(
            f"line 2: {field} must be {kind}, got {value!r}") + "$"):
        an.import_trace(path)


def test_csv_number_error_passes_over_every_form_loadtxt_reads(tmp_path):
    """Spaces, signs and non-finite or overflowing floats parse, so the
    error names the field that does not."""
    rows = ["0,0,0,text,1,routed, nan ,0,1", " +1,0,0,text,1,routed,-Infinity,0,1",
            "2 ,0,0,text,1,routed,1e999,0,1", "-9223372036854775808,0,0,text,1,routed,+.5,0,1"]
    assert len(an.import_trace(write_csv(tmp_path, rows))) == 4
    path = write_csv(tmp_path, rows + ["3,0,0,text,1,routed,0.5,0x1,1"])
    with pytest.raises(ValueError, match="^line 6: selected_rank must be an int64 "
                                         "integer, got '0x1'$"):
        an.import_trace(path)


def test_empty_modality_is_its_own_group_not_all(tmp_path):
    trace = an.import_trace(write_jsonl(tmp_path, [jsonl_record(0, 0, 0, 1, [0], modality=""),
                                                   jsonl_record(0, 0, 1, 1, [1])]))
    for module in (an, ref):
        assert module.activation_proportions(trace, 0, modality="").group == ""
        assert module.activation_proportions(trace, 0).group == "all"
        with pytest.raises(ValueError, match="with modality ''"):
            module.activation_proportions(trace, 1, modality="")


# ---------------------------------------------------------------------------
# one rule per field, for every way in
# ---------------------------------------------------------------------------

def one_token_routing() -> moe.Routing:
    layer = moe.DynamicCapacityMoE(moe.MoEConfig(d_model=4, n_routed=3, expert_hidden=3,
                                                 n_null=1, n_shared=1, seed=2))
    return layer.forward_rows(ad.Tensor(np.ones((1, 4))), "infer")[1]


# The fields each way in takes from its caller: record and record_rows take
# their slots from a routing.
WAYS_IN = {"add": ("step", "layer", "token_index", "modality", "slots", "expert_id", "role",
                   "gate_prob", "selected_rank"),
           "record": ("step", "layer", "token_index", "modality"),
           "record_rows": ("step", "layer", "modality"),
           "jsonl": ("step", "layer", "token_index", "modality", "k", "slots", "expert_id",
                     "role", "gate_prob", "selected_rank")}


def read_one_record_through(way, tmp_path, **fields) -> an.RoutingTrace:
    """A trace holding one record, put in the given way and then read."""
    record = jsonl_record(0, 0, 0, 1, [0])
    slot = record["slots"][0]
    slot.update((f, v) for f, v in fields.items() if f in slot)
    record.update((f, v) for f, v in fields.items() if f in record)
    trace = an.RoutingTrace()
    if way == "add":
        slots = fields.get("slots", (an.SlotEntry(**slot),))
        trace.add(an.TraceRecord(record["step"], record["layer"], record["token_index"],
                                 record["modality"], slots))
    elif way == "record":
        an.record(trace, record["step"], record["layer"], record["token_index"],
                  record["modality"], one_token_routing()[0])
    elif way == "record_rows":
        an.record_rows(trace, record["step"], record["layer"], [record["modality"]],
                       one_token_routing())
    else:
        trace = an.import_trace(write_jsonl(tmp_path, [record]))
    trace.records()
    return trace


BAD_VALUES = [("step", 1.5, "integer"), ("step", True, "integer"), ("step", 0.0, "integer"),
              ("step", "3", "integer"), ("layer", np.float64(2.0), "integer"),
              ("token_index", None, "integer"), ("modality", 5, "string"),
              ("expert_id", False, "integer"),
              ("role", 3, "string"), ("gate_prob", "0.5", "number"),
              ("gate_prob", True, "number"), ("selected_rank", 0.0, "integer"),
              ("selected_rank", "0", "integer"), ("selected_rank", None, "integer"),
              ("step", [1], "integer"), ("k", 1.0, "integer")]


@pytest.mark.parametrize("way,field,value,kind", [
    (way, field, value, kind) for field, value, kind in BAD_VALUES
    for way, takes in WAYS_IN.items() if field in takes])
def test_a_value_of_another_kind_is_refused_naming_its_field_every_way_in(
        tmp_path, way, field, value, kind):
    """No way in truncates, parses or converts a value its field does not
    take: each raises the same ValueError."""
    message = f"{field} must be a JSON {kind}, got {json.dumps(value)}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        read_one_record_through(way, tmp_path, **{field: value})


OUT_OF_RANGE = [("step", 2**63, "integer in the int64 range"),
                ("layer", np.uint64(2**63), "integer in the int64 range"),
                ("token_index", -2**63 - 1, "integer in the int64 range"),
                ("gate_prob", 10**400, "number in the float64 range")]


@pytest.mark.parametrize("way,field,value,kind", [
    pytest.param(way, field, value, kind, id=f"{way}-{field}")
    for field, value, kind in OUT_OF_RANGE for way, takes in WAYS_IN.items()
    if field in takes and (way != "jsonl" or type(value) is int)])  # JSON has no uint64
def test_an_integer_beyond_its_column_is_refused_naming_its_field_every_way_in(
        tmp_path, way, field, value, kind):
    message = f"{field} must be a JSON {kind}, got {value}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        read_one_record_through(way, tmp_path, **{field: value})


@pytest.mark.parametrize("way", ["add", "record", "record_rows", "jsonl"])
def test_every_way_in_takes_the_kinds_its_fields_take(tmp_path, way):
    """NumPy integers are integers, integers are numbers, and the int64
    bounds are in range."""
    fields = {"step": np.int64(3), "layer": -2**63, "token_index": 2**63 - 1,
              "modality": "vidéo", "gate_prob": 1, "expert_id": np.uint8(1)}
    if way == "jsonl":
        fields.update(step=3, expert_id=1)
    fields = {f: v for f, v in fields.items() if f in WAYS_IN[way]}
    (rec,) = read_one_record_through(way, tmp_path, **fields).records()
    assert (rec.step, rec.layer, rec.token_index, rec.modality) == (
        fields.get("step", 0), fields["layer"], fields.get("token_index", 0), "vidéo")
    if way in ("add", "jsonl"):
        assert rec.slots[0].gate_prob == 1.0 and rec.slots[0].expert_id == 1


@pytest.mark.parametrize("slots", [5, "ab", [5]])
@pytest.mark.parametrize("way", ["add", "jsonl"])
def test_slots_that_are_no_array_of_slot_objects_are_refused_every_way_in(
        tmp_path, way, slots):
    message = f"slots must be a JSON array of objects, got {json.dumps(slots)}"
    if way == "jsonl":
        message = "line 1: " + message
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        read_one_record_through(way, tmp_path, slots=slots)


@pytest.mark.parametrize("field,value", [("selected_rank", "0"), ("selected_rank", None),
                                         ("token_index", [0]), ("slots", 5)])
def test_an_add_its_own_checks_cannot_use_raises_naming_the_field_and_claims_no_key(
        field, value):
    """A value the duplicate-key or slot-count check cannot compare, hash or
    iterate is refused by ``add`` itself, as the fold would refuse it."""
    good = an.TraceRecord(0, 0, 0, "text", (an.SlotEntry(0, "routed", 0.5, 0),))
    if field == "selected_rank":
        bad = dataclasses.replace(good, slots=(an.SlotEntry(0, "routed", 0.5, value),))
    else:
        bad = dataclasses.replace(good, **{field: value})
    trace = an.RoutingTrace()
    with pytest.raises(ValueError, match=f"^{field} must be a JSON "):
        trace.add(bad)
    assert len(trace) == 0
    trace.add(good)
    assert trace.records() == [good]


def test_a_bad_add_drops_only_its_record_and_the_trace_stays_readable():
    """The read that meets the bad value raises naming it; the next read
    returns every good record, and the bad record's key is free again."""
    def rec(token, gate_prob=0.5):
        return an.TraceRecord(0, 0, token, "text", (an.SlotEntry(0, "routed", gate_prob, 0),))

    trace = an.RoutingTrace()
    trace.add(rec(0))
    trace.records()
    for r in (rec(1), rec(2, gate_prob="0.5"), rec(3)):
        trace.add(r)
    with pytest.raises(ValueError, match=re.escape('gate_prob must be a JSON number, got "0.5"')):
        trace.records()
    assert trace.records() == [rec(0), rec(1), rec(3)]
    trace.add(rec(2))
    assert trace.records() == [rec(0), rec(1), rec(2), rec(3)]


def layer_trace() -> an.RoutingTrace:
    """Two records at layer 0, one text and one image, and one at layer 1."""
    trace = an.RoutingTrace()
    for step, layer, token, modality in ((0, 0, 0, "text"), (0, 0, 1, "image"),
                                         (1, 1, 0, "text")):
        trace.add(an.TraceRecord(step, layer, token, modality,
                                 (an.SlotEntry(token, "routed", 0.5, 0),)))
    return trace


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda t: an.expert_count_histogram(t, True),
                 "layer must be a JSON integer, got true", id="histogram-layer"),
    pytest.param(lambda t: an.activation_proportions(t, True),
                 "layer must be a JSON integer, got true", id="proportions-layer"),
    pytest.param(lambda t: an.dynamics_over_steps(t, True, 0),
                 "layer must be a JSON integer, got true", id="dynamics-layer"),
    pytest.param(lambda t: an.layer_modalities(t, 1.0),
                 "layer must be a JSON integer, got 1.0", id="modalities-layer"),
    pytest.param(lambda t: t.select("1"), 'layer must be a JSON integer, got "1"',
                 id="select-layer"),
    pytest.param(lambda t: t.select(2**63),
                 f"layer must be a JSON integer in the int64 range, got {2**63}",
                 id="select-layer-range"),
    pytest.param(lambda t: t.select(0, step=True), "step must be a JSON integer, got true",
                 id="select-step"),
    pytest.param(lambda t: t.select(0, modality=0), "modality must be a JSON string, got 0",
                 id="select-modality"),
    pytest.param(lambda t: an.activation_proportions(t, 0, modality=["text"]),
                 'modality must be a JSON string, got ["text"]', id="proportions-modality"),
    pytest.param(lambda t: an.expert_count_histogram(t, 0, modality=1),
                 "modality must be a JSON string, got 1", id="histogram-modality"),
    pytest.param(lambda t: an.dynamics_over_steps(t, 0, False),
                 "expert_id must be a JSON integer, got false", id="dynamics-expert_id")])
def test_a_report_argument_of_another_kind_than_its_field_is_refused_naming_it(call, message):
    """A report filters by the field rule every way in keeps: True is no
    layer 1 and "1" no layer at all."""
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(layer_trace())


def test_no_records_errors_of_both_reports_name_the_modality():
    trace = layer_trace()
    for report in (an.expert_count_histogram, an.activation_proportions):
        with pytest.raises(ValueError, match="^no records for layer 1 with modality 'image'$"):
            report(trace, 1, modality="image")
        with pytest.raises(ValueError, match="^no records for layer 2$"):
            report(trace, 2)


# ---------------------------------------------------------------------------
# column layout
# ---------------------------------------------------------------------------

RECORD_FIELDS = ("step", "layer", "token_index", "modality")
SLOT_FIELDS = ("expert_id", "role", "gate_prob", "selected_rank")


def several_token_routing() -> moe.Routing:
    """Four tokens routed by a layer with a shared expert: two slots or more each."""
    layer = moe.DynamicCapacityMoE(moe.MoEConfig(d_model=4, n_routed=3, expert_hidden=3,
                                                 n_null=1, n_shared=1, seed=2))
    rows = np.random.default_rng(0).normal(size=(4, 4))
    return layer.forward_rows(ad.Tensor(rows), "infer")[1]


def filled_through(way, tmp_path) -> an.RoutingTrace:
    """A trace of records with several slots each, put in the given way."""
    trace = an.RoutingTrace()
    if way in ("add", "csv", "jsonl"):
        for token, modality in enumerate(("text", "image", "text")):
            trace.add(an.TraceRecord(0, 0, token, modality, (
                an.SlotEntry(1, "routed", 0.5, 0), an.SlotEntry(2, "null", 0.25, 1),
                an.SlotEntry(9, "shared", 1.0, -1))))
    if way in ("csv", "jsonl"):
        path = tmp_path / f"trace.{way}"
        an.export_trace(trace, path, fmt=way)
        return an.import_trace(path)
    if way == "record_rows":
        an.record_rows(trace, 0, 0, ["text", "image", "text", "audio"], several_token_routing())
    if way == "join":
        # Records read, then a later block and earlier records: the next
        # read joins three parts and re-sorts them.
        an.record_rows(trace, 5, 0, ["text"] * 4, several_token_routing())
        trace.records()
        an.record_rows(trace, 3, 1, ["image"] * 4, several_token_routing())
        for step in (4, 0):
            trace.add(an.TraceRecord(step, 0, 0, "audio", (
                an.SlotEntry(0, "routed", 0.5, 0), an.SlotEntry(9, "shared", 1.0, -1))))
    return trace


@pytest.mark.parametrize("way", ["add", "record_rows", "csv", "jsonl", "join"])
def test_a_record_field_is_stored_once_per_record_and_a_slot_field_once_per_slot(
        tmp_path, way):
    trace = filled_through(way, tmp_path)
    c = trace._store()
    assert c.offsets[-1] > len(c) > 0  # records of several slots
    for field in RECORD_FIELDS:
        assert getattr(c, field).shape == (len(c),), field
    for field in SLOT_FIELDS:
        assert getattr(c, field).shape == (c.offsets[-1],), field
    keys = [(r.step, r.layer, r.token_index) for r in trace.records()]
    assert keys == sorted(keys) and list(zip(c.step, c.layer, c.token_index)) == keys


def test_a_new_trace_is_empty_after_another_trace_was_filled():
    """Every trace starts from one shared empty column set, whose arrays
    are read-only, so filling one trace leaves the next one empty."""
    empty = an.RoutingTrace()._store()
    for field in ("step", "layer", "token_index", "modality", "expert_id", "role",
                  "gate_prob", "selected_rank", "offsets"):
        column = getattr(empty, field)
        assert not column.flags.writeable, field
        with pytest.raises(ValueError):
            column[...] = 0
    filled = an.RoutingTrace()
    filled.add(an.TraceRecord(0, 0, 0, "text", (an.SlotEntry(0, "routed", 0.5, 0),)))
    an.record_rows(filled, 1, 0, ["image"], moe.Routing(
        np.array([[1, 0]]), np.array([[0.4, 0.6]]), np.array([[False, True]]), None, 2, 1))
    assert len(filled.records()) == 2
    fresh = an.RoutingTrace()
    assert len(fresh) == 0 and fresh.records() == []
    assert fresh._store().offsets.tolist() == [0]


# ---------------------------------------------------------------------------
# export checks
# ---------------------------------------------------------------------------

def test_non_finite_gates_round_trip_csv_jsonl_csv_byte_identical(tmp_path):
    first = write_csv(tmp_path, ["0,0,0,text,1,routed,nan,0,1",
                                 "0,0,0,text,9,shared,-inf,-1,1",
                                 "0,0,1,image,2,routed,inf,0,1",
                                 "0,0,2,text,3,null,-inf,0,1"])
    jsonl = tmp_path / "trace.jsonl"
    an.export_trace(an.import_trace(first), jsonl, fmt="jsonl")
    text = jsonl.read_text(encoding="utf-8")
    assert all(word in text for word in ('"gate_prob": NaN', '"gate_prob": Infinity',
                                         '"gate_prob": -Infinity'))
    second = tmp_path / "again.csv"
    an.export_trace(an.import_trace(jsonl), second, fmt="csv")
    assert second.read_bytes() == first.read_bytes()


def _trace_holding(tmp_path, field, value):
    """A one-record trace imported from JSONL whose modality or role is ``value``."""
    record = jsonl_record(0, 0, 0, 1, [0])
    if field == "modality":
        record["modality"] = value
    else:
        record["slots"][0]["role"] = value
    return an.import_trace(write_jsonl(tmp_path, [record]))


@pytest.mark.parametrize("char", [",", "\n", "\r"], ids=["comma", "newline", "return"])
@pytest.mark.parametrize("field", ["modality", "role"])
def test_csv_export_rejects_a_field_csv_import_could_not_read(tmp_path, field, char):
    value = f"a{char}b"
    trace = _trace_holding(tmp_path, field, value)
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match=re.escape(f"{field} {value!r}")):
        an.export_trace(trace, path, fmt="csv")
    assert not path.exists()
    again = tmp_path / "again.jsonl"
    an.export_trace(trace, again, fmt="jsonl")
    assert an.import_trace(again).records() == trace.records()


@pytest.mark.parametrize("char", [",", "\n", "\r"], ids=["comma", "newline", "return"])
@pytest.mark.parametrize("field", ["modality", "role"])
def test_report_export_rejects_a_field_csv_could_not_hold(tmp_path, field, char):
    value = f"a{char}b"
    trace = _trace_holding(tmp_path, field, value)
    report = an.activation_proportions(trace, 0, modality=value if field == "modality" else None)
    name = "group" if field == "modality" else "role"
    path = tmp_path / "report.csv"
    with pytest.raises(ValueError, match=re.escape(f"{name} {value!r}")):
        an.export_report([report], path)
    assert not path.exists()
