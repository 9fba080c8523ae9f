"""Trace import and export one block of whole records at a time.

``import_trace`` reads about ``analytics._BLOCK_CHARS`` characters of the
file at a time, finished at the end of a line, and parses each block on
its own; a CSV record whose rows run past a block's end is held back and
parsed with the next block.  ``export_trace`` writes the text of about as
many characters at a time.  Neither holds the file, so their memory does
not grow with it beyond the trace's own columns.

The tests here set the block size down to a few characters, so that small
files span many blocks, and check that every block size gives what one
block holding the whole file gives: the same records, or the same error
with the same text, lines counted from the file's first line.
"""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import analytics_reference as ref
from dyncapmoe import analytics as an
from dyncapmoe import cli

HEADER = ",".join(an.CSV_COLUMNS)
WHOLE_FILE = 1 << 22  # a block size no test file reaches

MODALITIES = ("text", "image", "vidéo", "# hash", "")
ROLES = ("routed", "null", "odd#role")


def outcome(path):
    """The imported records, or the type and text of the error."""
    try:
        return an.import_trace(path).records()
    except ValueError as exc:
        return type(exc), str(exc)


def outcome_in_blocks(monkeypatch, path, chars):
    with monkeypatch.context() as patch:
        patch.setattr(an, "_BLOCK_CHARS", chars)
        return outcome(path)


def assert_blocks_agree(monkeypatch, path, sizes):
    """Every block size imports the file as one block holding all of it does."""
    want = outcome_in_blocks(monkeypatch, path, WHOLE_FILE)
    for chars in sizes:
        assert outcome_in_blocks(monkeypatch, path, chars) == want, chars
    return want


def write_csv(tmp_path, rows, newline="\n"):
    path = tmp_path / "trace.csv"
    path.write_bytes("".join(row + "\n" for row in [HEADER, *rows])
                     .replace("\n", newline).encode("utf-8"))
    return path


def write_jsonl(tmp_path, lines, newline="\n"):
    path = tmp_path / "trace.jsonl"
    path.write_bytes("".join(line + "\n" for line in lines)
                     .replace("\n", newline).encode("utf-8"))
    return path


# ---------------------------------------------------------------------------
# records across block boundaries
# ---------------------------------------------------------------------------

LONG_RECORD = ["0,0,0,text,1,routed,0.5,0,3", "00,0,0,text,2,routed,0.25,1,3",
               " 0,0,0,text,3,null,0.125,2,3", "0,0,0,text,9,shared,1.0,-1,3"]


def test_a_record_whose_rows_straddle_a_block_boundary_imports_as_one_record(
        monkeypatch, tmp_path):
    """Rows of one key are one record however its key is written, wherever
    the blocks end; every block of 1 to 200 characters gives the record."""
    path = write_csv(tmp_path, ["0,0,1,image,4,routed,0.5,0,1", *LONG_RECORD,
                                "0,1,0,text,5,routed,0.5,0,1"])
    records = assert_blocks_agree(monkeypatch, path, range(1, 201))
    assert [((r.step, r.layer, r.token_index), r.k, len(r.slots)) for r in records] == [
        ((0, 0, 0), 3, 4), ((0, 0, 1), 1, 1), ((0, 1, 0), 1, 1)]


def test_a_record_longer_than_a_block_imports_as_one_record(monkeypatch, tmp_path):
    rows = [f"0,0,0,text,{e},routed,0.5,{e},300" for e in range(300)]
    path = write_csv(tmp_path, rows + ["0,0,1,text,1,routed,0.5,0,1"])
    records = assert_blocks_agree(monkeypatch, path, (1, 64, 1000))
    assert [len(r.slots) for r in records] == [300, 1]


# ---------------------------------------------------------------------------
# faults across blocks: precedence and exact text
# ---------------------------------------------------------------------------

GOOD = "0,0,{},text,1,routed,0.5,0,1"


def good_rows(n, start=0):
    return [GOOD.format(t) for t in range(start, start + n)]


@pytest.mark.parametrize("rows,message", [
    (good_rows(2) + ["0,0,9,text,1,routed,xyz,0,1"] + good_rows(3, 10) + ["0,0,20,text"],
     "malformed CSV row: '0,0,20,text'"),
    (good_rows(1) + ["0,0,9,image,1,routed,0.5,0,1", "0,0,9,text,2,routed,0.5,1,2"]
     + good_rows(3, 10) + ["0,0,20,text,1,routed,0.5,0,1.5"],
     "line 8: k must be an int64 integer, got '1.5'"),
    (good_rows(1) + ["0,0,9,text,1,routed,0.5,0,2"] + good_rows(3, 10)
     + ["0,0,20,text,1,routed,0.5,0,1", "0,0,20,image,2,routed,0.5,1,2"],
     "line 8: modality 'image' differs from its record's 'text'"),
    (good_rows(2) + ["0,0,0,text,1,routed,0.5,0,1"] + good_rows(3, 10)
     + ["0,0,20,text,1,routed,0.5,0,7"],
     "k is 7 but record (0, 0, 20) has 1 routable slots")],
    ids=["malformed-beats-number", "number-beats-modality", "modality-beats-k",
         "k-beats-duplicate"])
def test_a_later_csv_fault_of_lower_rank_wins_with_its_file_line(monkeypatch, tmp_path,
                                                                   rows, message):
    """A malformed row anywhere, then a bad number, then a modality that
    differs from its record's, then a wrong ``k``, then a duplicate key:
    the fault of lower rank sits in the last block and wins over one in the
    first; lines count from the file's first line, the header."""
    path = write_csv(tmp_path, rows)
    for chars in (1, 30, WHOLE_FILE):
        got = outcome_in_blocks(monkeypatch, path, chars)
        assert got[1] == message, chars
        assert issubclass(got[0], ValueError)


def jsonl_line(token, **fields):
    record = {"step": 0, "layer": 0, "token_index": token, "modality": "text", "k": 1,
              "slots": [{"expert_id": 0, "role": "routed", "gate_prob": 0.5,
                         "selected_rank": 0}]}
    slot = {f: fields.pop(f) for f in list(fields) if f in an._SLOT_COLUMNS}
    record["slots"][0].update(slot)
    record.update(fields)
    return json.dumps(record)


@pytest.mark.parametrize("first,last,message", [
    (jsonl_line(1, step=True), "{", "line 6: Expecting property name enclosed in double "
                                    "quotes at column 2"),
    (jsonl_line(1, step=True), jsonl_line(9, modality=5), "modality must be a JSON "
                                                          "string, got 5"),
    (jsonl_line(1, step=2**63), jsonl_line(9, step=True), "step must be a JSON "
                                                          "integer, got true"),
    (jsonl_line(1, k=3), jsonl_line(9, k=2**64), "k must be a JSON integer in the int64 "
                                                 "range, got 18446744073709551616"),
    (jsonl_line(0), jsonl_line(9, k=2), "k is 2 but record (0, 0, 9) has 1 routable "
                                        "slots")],
    ids=["line-beats-kind", "modality-beats-step", "other-kind-beats-out-of-range",
         "kind-beats-k", "k-beats-duplicate"])
def test_a_later_jsonl_fault_of_lower_rank_wins(monkeypatch, tmp_path, first, last,
                                                message):
    """A line that cannot be read, then a value of another kind (by field,
    in the order the columns are converted; a value of another kind before
    one beyond its column), then a wrong ``k``, then a duplicate key."""
    path = write_jsonl(tmp_path, [jsonl_line(0), first, *map(jsonl_line, range(2, 5)),
                                  last])
    for chars in (1, 200, WHOLE_FILE):
        assert outcome_in_blocks(monkeypatch, path, chars)[1] == message, chars


# ---------------------------------------------------------------------------
# line ends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_lone_cr_line_ends_import_as_newlines_in_every_block(
        monkeypatch, tmp_path, newline):
    """Universal newlines, as ``Path.read_text`` reads them: a ``\\r\\n``
    split between two reads is one line end.  Line numbers of faults count
    the same lines."""
    rows = good_rows(3, 1) + LONG_RECORD + good_rows(2, 5)
    want = an.import_trace(write_csv(tmp_path, rows)).records()
    path = write_csv(tmp_path, rows, newline)
    assert assert_blocks_agree(monkeypatch, path, range(1, 120)) == want
    bad = write_csv(tmp_path, rows + ["0,0,9,text,1,routed,nope,0,1"], newline)
    assert (assert_blocks_agree(monkeypatch, bad, range(1, 120))[1]
            == "line 11: gate_prob must be a float64 number, got 'nope'")
    lines = [jsonl_line(t) for t in range(4)]
    want = an.import_trace(write_jsonl(tmp_path, lines)).records()
    jsonl = write_jsonl(tmp_path, lines, newline)
    assert assert_blocks_agree(monkeypatch, jsonl, range(1, 300)) == want


# ---------------------------------------------------------------------------
# random traces and faults: every block size agrees with one block
# ---------------------------------------------------------------------------

@st.composite
def traces(draw):
    keys = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 6)),
                         min_size=1, max_size=12, unique=True))
    trace = an.RoutingTrace()
    for step, layer, token in sorted(keys):
        k = draw(st.integers(1, 3))
        slots = [an.SlotEntry(draw(st.integers(0, 4)), draw(st.sampled_from(ROLES)),
                              draw(st.sampled_from((0.5, 1 / 3, 1e-300))), rank)
                 for rank in range(k)]
        slots += [an.SlotEntry(7, "shared", 1.0, -1)] * draw(st.integers(0, 1))
        trace.add(an.TraceRecord(step, layer, token, draw(st.sampled_from(MODALITIES)),
                                 tuple(slots)))
    return trace


CSV_EDITS = {
    "malformed": lambda f: f[:-1],
    "number": lambda f: f[:6] + ["x1"] + f[7:],
    "float-in-integer": lambda f: ["1.5"] + f[1:],
    "modality": lambda f: f[:3] + ["image" if f[3] != "image" else "text"] + f[4:],
    "k": lambda f: f[:8] + [str(int(f[8]) + 1)],
    "key": lambda f: ["0", "0", "0"] + f[3:]}

JSONL_EDITS = {
    "truncated": lambda d: json.dumps(d)[:-3],
    "blank": lambda d: "",
    "no-object": lambda d: "[]",
    "missing": lambda d: json.dumps({f: v for f, v in d.items() if f != "layer"}),
    "bool-step": lambda d: json.dumps(dict(d, step=True)),
    "big-step": lambda d: json.dumps(dict(d, step=2**63)),
    "int-modality": lambda d: json.dumps(dict(d, modality=3)),
    "string-gate": lambda d: json.dumps(dict(d, slots=[dict(d["slots"][0],
                                                            gate_prob="x")])),
    "k": lambda d: json.dumps(dict(d, k=d["k"] + 1)),
    "key": lambda d: json.dumps(dict(d, step=0, layer=0, token_index=0))}

PROPERTY = settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@PROPERTY
@given(trace=traces(), data=st.data(), newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_every_block_size_imports_a_csv_as_one_block_does(monkeypatch, tmp_path, trace,
                                                           data, newline):
    path = tmp_path / "trace.csv"
    an.export_trace(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for edit in data.draw(st.lists(st.sampled_from(sorted(CSV_EDITS)), max_size=3)):
        i = data.draw(st.integers(1, len(lines) - 1))
        fields = lines[i].split(",")
        if len(fields) == len(an.CSV_COLUMNS):
            lines[i] = ",".join(CSV_EDITS[edit](fields))
    path.write_bytes("".join(line + newline for line in lines).encode("utf-8"))
    sizes = data.draw(st.lists(st.integers(1, 400), min_size=1, max_size=3))
    assert_blocks_agree(monkeypatch, path, sizes + [1])


@PROPERTY
@given(trace=traces(), data=st.data(), newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_every_block_size_imports_a_jsonl_as_one_block_does(monkeypatch, tmp_path, trace,
                                                             data, newline):
    path = tmp_path / "trace.jsonl"
    an.export_trace(trace, path, fmt="jsonl")
    lines = path.read_text(encoding="utf-8").splitlines()
    for edit in data.draw(st.lists(st.sampled_from(sorted(JSONL_EDITS)), max_size=3)):
        i = data.draw(st.integers(0, len(lines) - 1))
        if lines[i].endswith("]}"):  # a record no earlier edit broke
            lines[i] = JSONL_EDITS[edit](json.loads(lines[i]))
    path.write_bytes("".join(line + newline for line in lines).encode("utf-8"))
    sizes = data.draw(st.lists(st.integers(1, 2000), min_size=1, max_size=3))
    assert_blocks_agree(monkeypatch, path, sizes + [1])


# ---------------------------------------------------------------------------
# bytes that are not UTF-8: named by their offset in the file
# ---------------------------------------------------------------------------

def not_utf8_error(offset):
    return ValueError, f"byte {offset} is not UTF-8 (invalid start byte)"


def ff_at_byte_20000(tmp_path, fmt):
    """A trace file of the format, 39 KB (CSV) or 102 KB (JSONL), whose
    byte 20,000 is 0xFF."""
    path = tmp_path / f"trace.{fmt}"
    an.export_trace(benchmark_trace(10), path, fmt=fmt)
    data = bytearray(path.read_bytes())
    data[20_000] = 0xFF
    path.write_bytes(bytes(data))
    return path


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("chars", [1, 100, None], ids=["1", "100", "default"])
def test_a_byte_that_is_not_utf8_is_named_by_its_offset_in_the_file(monkeypatch, tmp_path,
                                                                       fmt, chars):
    path = ff_at_byte_20000(tmp_path, fmt)
    got = outcome_in_blocks(monkeypatch, path, chars or an._BLOCK_CHARS)
    assert got == not_utf8_error(20_000)


def test_analyze_of_a_trace_with_a_byte_that_is_not_utf8_exits_1_naming_it(tmp_path,
                                                                           capsys):
    path = ff_at_byte_20000(tmp_path, "csv")
    out = tmp_path / "report.csv"
    assert cli.main(["analyze", "--trace", str(path), "--layer", "0",
                     "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: byte 20000 is not UTF-8 (invalid start byte)\n"
    assert not captured.out and not out.exists()


# Edits that make a parse fault in any row or record.
ALWAYS_FAULTY = {"csv": ("malformed", "number", "float-in-integer", "k"),
                 "jsonl": tuple(sorted(set(JSONL_EDITS) - {"key"}))}
# Good records after the trace's own, about 17 KB of them: a text file is
# decoded 8 KiB at a time, so a byte far enough into them is decoded only
# after the blocks before it are parsed.
TAIL = {"csv": [f"{9 + n},0,0,text,1,routed,0.5,0,1" for n in range(600)],
        "jsonl": [jsonl_line(0, step=9 + n) for n in range(120)]}


@PROPERTY
@given(fmt=st.sampled_from(["csv", "jsonl"]), trace=traces(), data=st.data(),
       newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_a_byte_that_is_not_utf8_after_a_parse_fault_is_named_by_its_offset(
        monkeypatch, tmp_path, fmt, trace, data, newline):
    """The import reads to the end of the file: a parse fault in an early
    line does not hide a later byte that is not UTF-8, whatever the blocks."""
    path = tmp_path / f"trace.{fmt}"
    an.export_trace(trace, path, fmt=fmt)
    lines = path.read_text(encoding="utf-8").splitlines()
    first = 1 if fmt == "csv" else 0  # the CSV header is line 0
    i = data.draw(st.integers(first, len(lines) - 1), label="faulty line")
    edit = data.draw(st.sampled_from(ALWAYS_FAULTY[fmt]), label="fault")
    if fmt == "csv":
        lines[i] = ",".join(CSV_EDITS[edit](lines[i].split(",")))
    else:
        lines[i] = JSONL_EDITS[edit](json.loads(lines[i]))
    lines += TAIL[fmt]
    text = [(line + newline).encode("utf-8") for line in lines]
    whole = b"".join(text)
    path.write_bytes(whole)
    with pytest.raises(ValueError):  # a parse fault, before any byte is wrong
        an.import_trace(path)
    j = data.draw(st.integers(i + 1, len(lines) - 1), label="line of the byte")
    at = data.draw(st.integers(0, len(lines[j])), label="character of the byte")
    offset = sum(map(len, text[:j])) + len(lines[j][:at].encode("utf-8"))
    path.write_bytes(whole[:offset] + b"\xff" + whole[offset:])
    for chars in (1, data.draw(st.integers(1, 2000), label="block size"), an._BLOCK_CHARS):
        assert outcome_in_blocks(monkeypatch, path, chars) == not_utf8_error(offset), chars


# ---------------------------------------------------------------------------
# round trips and refused exports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chars", [1, 100, None], ids=["1", "100", "default"])
def test_round_trips_stay_byte_identical_across_blocks(monkeypatch, tmp_path, chars):
    """CSV to CSV, JSONL to JSONL and CSV to JSONL to CSV, on a trace of many
    blocks; the reference writes each file in one piece."""
    if chars is not None:
        monkeypatch.setattr(an, "_BLOCK_CHARS", chars)
    trace = benchmark_trace(20 if chars else 500)
    csv, jsonl = tmp_path / "trace.csv", tmp_path / "trace.jsonl"
    an.export_trace(trace, csv)
    an.export_trace(trace, jsonl, fmt="jsonl")
    oracle = ref.RoutingTrace()
    for record in trace.records():
        oracle.add(record)
    for fmt, path in (("csv", csv), ("jsonl", jsonl)):
        want = tmp_path / f"oracle.{fmt}"
        ref.export_trace(oracle, want, fmt=fmt)
        assert path.read_bytes() == want.read_bytes()
        again = tmp_path / f"again.{fmt}"
        an.export_trace(an.import_trace(path), again, fmt=fmt)
        assert again.read_bytes() == want.read_bytes()
    back = tmp_path / "back.csv"
    an.export_trace(an.import_trace(jsonl), back)
    assert back.read_bytes() == csv.read_bytes()


def test_a_refused_csv_export_leaves_an_existing_file_untouched(tmp_path):
    trace = an.RoutingTrace()
    trace.add(an.TraceRecord(0, 0, 0, "a,b", (an.SlotEntry(0, "routed", 0.5, 0),)))
    path = tmp_path / "trace.csv"
    path.write_bytes(b"earlier contents\r\n\x00")
    with pytest.raises(ValueError, match=re.escape("modality 'a,b'")):
        an.export_trace(trace, path)
    assert path.read_bytes() == b"earlier contents\r\n\x00"
    with pytest.raises(ValueError, match="format must be"):
        an.export_trace(trace, path, fmt="tsv")
    assert path.read_bytes() == b"earlier contents\r\n\x00"


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def benchmark_trace(steps: int, seed: int = 0) -> an.RoutingTrace:
    """A trace of the benchmark's shape: per step 2 layers of 10 tokens, 6
    text and 4 image; each token activates 1-5 of 4 routed slots and a null
    slot, in random order with random gates, then 2 shared experts."""
    rng = np.random.default_rng(seed)
    n = steps * 20
    k = rng.integers(1, 6, n).tolist()
    order = np.argsort(rng.random((n, 5)), axis=1).tolist()
    gates = rng.random((n, 5)).tolist()
    shared = (an.SlotEntry(5, "shared", 1.0, -1), an.SlotEntry(6, "shared", 1.0, -1))
    trace = an.RoutingTrace()
    for r in range(n):
        step, at = divmod(r, 20)
        layer, token = divmod(at, 10)
        slots = tuple(an.SlotEntry(e, "routed" if e < 4 else "null", gates[r][e], rank)
                      for rank, e in enumerate(order[r][:k[r]]))
        trace.add(an.TraceRecord(step, layer, token, "text" if token < 6 else "image",
                                 slots + shared))
    trace.records()
    return trace


def peak_mib(call) -> float:
    """``tracemalloc`` peak of ``call()`` above its start, after a warm-up
    call; tracing is left as it was."""
    call()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return (peak - start) / 2**20


def columns_mib(trace: an.RoutingTrace) -> float:
    c = trace._store()
    return sum(getattr(c, f).nbytes for f in (*an._RECORD_COLUMNS, *an._SLOT_COLUMNS,
                                              "offsets")) / 2**20


# tracemalloc peaks on the 10,000-record trace of benchmark_trace(500) (1.91
# MiB of columns; a 2.0 MB CSV, a 5.0 MB JSONL), after a warm-up call:
# import CSV 4.23 MiB, JSONL 3.11; export CSV 1.35, JSONL 0.82.  Reading and
# writing whole files, they peaked at 20.28, 19.75, 7.99 and 12.99 MiB.
BUDGET_MIB = {("import", "csv"): 5.0, ("import", "jsonl"): 4.0,
              ("export", "csv"): 2.0, ("export", "jsonl"): 1.5}


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    """Benchmark traces of 500 and 2,000 steps, with their CSV and JSONL files."""
    files = {}
    for steps in (500, 2000):
        trace = benchmark_trace(steps)
        for fmt in ("csv", "jsonl"):
            path = tmp_path_factory.mktemp("traces") / f"trace.{fmt}"
            an.export_trace(trace, path, fmt=fmt)
            files[steps, fmt] = trace, path
    return files


def import_and_export_peaks(trace, path, fmt) -> dict[str, float]:
    out = path.with_name(f"again.{fmt}")
    return {"import": peak_mib(lambda: an.import_trace(path)),
            "export": peak_mib(lambda: an.export_trace(trace, out, fmt=fmt))}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_import_and_export_stay_within_the_memory_budget(trace_files, fmt):
    trace, path = trace_files[500, fmt]
    for way, peak in import_and_export_peaks(trace, path, fmt).items():
        assert 0 < peak <= BUDGET_MIB[way, fmt], way


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_four_times_the_records_raise_the_peak_by_at_most_the_longer_traces_columns(
        trace_files, fmt):
    """Only the trace's own columns grow with the file: 2,000 steps instead
    of 500 add 5.71 MiB of columns and raised the import peaks by 5.74 (CSV)
    and 6.21 MiB (JSONL), the export peaks by 0.02 MiB at most.  The bound
    is the 7.62 MiB of columns of the longer trace.  Whole files raised the
    import peaks by 61.1 and 59.2 MiB, the export peaks by 24.1 and 39.0."""
    short = import_and_export_peaks(*trace_files[500, fmt], fmt)
    long = import_and_export_peaks(*trace_files[2000, fmt], fmt)
    bound = columns_mib(trace_files[2000, fmt][0])
    for way in ("import", "export"):
        assert long[way] - short[way] <= bound, way
