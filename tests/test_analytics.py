import numpy as np
import pytest

from dyncapmoe import analytics as an
from dyncapmoe import moe


def make_decision(active_gates, n_routed=8, shared_ids=()):
    """Hand-built RoutingDecision: active_gates is [(slot, gate_prob), ...]."""
    entries = tuple(
        moe.ExpertActivation(
            index=slot,
            role=moe.ExpertRole.ROUTED if slot < n_routed else moe.ExpertRole.NULL,
            gate_prob=gate, rank=rank, is_argmax=(rank == 0))
        for rank, (slot, gate) in enumerate(active_gates))
    shared = tuple(
        moe.ExpertActivation(index=i, role=moe.ExpertRole.SHARED, gate_prob=1.0,
                             rank=-1, is_argmax=False)
        for i in shared_ids)
    return moe.RoutingDecision(active=tuple(s for s, _ in active_gates),
                               k=len(active_gates), per_expert=entries,
                               shared=shared)


def random_trace(rng, n_steps=3, n_layers=2, n_tokens=12, n_slots=6, n_routed=4,
                 top_p=0.7, shared_ids=(9,)):
    trace = an.RoutingTrace()
    for step in range(n_steps):
        for layer in range(n_layers):
            for tok in range(n_tokens):
                raw = rng.uniform(0.05, 1.0, size=n_slots)
                p = raw / raw.sum()
                d = moe.select_top_p_deterministic(p, top_p)
                d = make_decision([(e.index, e.gate_prob) for e in d.per_expert],
                                  n_routed=n_routed, shared_ids=shared_ids)
                modality = ("text", "audio", "image")[tok % 3]
                an.record(trace, step, layer, tok, modality, d)
    return trace


class TestRecord:
    def test_single_record_appended(self):
        trace = an.RoutingTrace()
        an.record(trace, 0, 0, 0, "text", make_decision([(2, 0.9)]))
        assert len(trace) == 1
        rec = trace.records()[0]
        assert rec.slots == (an.SlotEntry(2, "routed", 0.9, 0),) and rec.k == 1

    def test_duplicate_key_rejected(self):
        trace = an.RoutingTrace()
        an.record(trace, 1, 2, 3, "text", make_decision([(0, 1.0)]))
        with pytest.raises(an.DuplicateRecordError):
            an.record(trace, 1, 2, 3, "audio", make_decision([(1, 1.0)]))

    def test_shared_entries_carry_sentinel_rank(self):
        trace = an.RoutingTrace()
        an.record(trace, 0, 0, 0, "text",
                  make_decision([(0, 0.8)], shared_ids=(9, 10)))
        rec = trace.records()[0]
        assert rec.k == 1  # shared slots never count toward the budget
        assert [s.selected_rank for s in rec.slots] == [0, -1, -1]


class TestActivationProportions:
    def test_single_record_single_expert(self):
        trace = an.RoutingTrace()
        an.record(trace, 0, 0, 0, "text", make_decision([(2, 0.95)]))
        rep = an.activation_proportions(trace, layer=0)
        assert rep.proportions == {2: 1.0}

    def test_slot_counting_worked_example(self):
        trace = an.RoutingTrace()
        an.record(trace, 0, 0, 0, "text", make_decision([(0, 0.9)]))
        an.record(trace, 0, 0, 1, "text", make_decision([(0, 0.5), (1, 0.3)]))
        rep = an.activation_proportions(trace, layer=0)
        assert rep.proportions == {0: 2 / 3, 1: 1 / 3}

    def test_sums_to_one_on_random_traces(self):
        rng = np.random.default_rng(0)
        trace = random_trace(rng)
        for layer in (0, 1):
            rep = an.activation_proportions(trace, layer)
            assert abs(sum(rep.proportions.values()) - 1.0) <= 1e-12

    def test_shared_excluded_by_default_included_on_request(self):
        trace = an.RoutingTrace()
        an.record(trace, 0, 0, 0, "text", make_decision([(0, 0.8)], shared_ids=(9,)))
        assert 9 not in an.activation_proportions(trace, 0).proportions
        rep = an.activation_proportions(trace, 0, include_shared=True)
        assert rep.proportions == {0: 0.5, 9: 0.5}

    def test_modality_filter_counts_partition_totals(self):
        rng = np.random.default_rng(1)
        trace = random_trace(rng)
        full = an.activation_proportions(trace, 0).counts
        merged: dict[int, int] = {}
        for modality in ("text", "audio", "image"):
            for e, c in an.activation_proportions(trace, 0, modality=modality).counts.items():
                merged[e] = merged.get(e, 0) + c
        assert merged == full

    def test_permutation_invariant_over_insertion_order(self):
        rng = np.random.default_rng(2)
        decisions = [make_decision([(int(rng.integers(0, 4)), 0.5)]) for _ in range(30)]
        a, b = an.RoutingTrace(), an.RoutingTrace()
        for i, d in enumerate(decisions):
            an.record(a, 0, 0, i, "text", d)
        for i in reversed(range(30)):
            an.record(b, 0, 0, i, "text", decisions[i])
        assert an.activation_proportions(a, 0).proportions == \
               an.activation_proportions(b, 0).proportions

    def test_empty_selection_raises(self):
        trace = an.RoutingTrace()
        with pytest.raises(ValueError):
            an.activation_proportions(trace, 0)
        an.record(trace, 0, 0, 0, "text", make_decision([(0, 1.0)]))
        with pytest.raises(ValueError):
            an.activation_proportions(trace, 0, modality="video")


class TestExpertCountHistogram:
    def test_all_single_expert_tokens(self):
        trace = an.RoutingTrace()
        for tok in range(5):
            an.record(trace, 0, 0, tok, "text", make_decision([(tok % 3, 1.0)]))
        assert an.expert_count_histogram(trace, 0) == {1: 1.0}

    def test_counting_worked_example(self):
        trace = an.RoutingTrace()
        ks = [1, 2, 2, 3]
        for tok, k in enumerate(ks):
            gates = [(i, 1.0 / k) for i in range(k)]
            an.record(trace, 0, 0, tok, "text", make_decision(gates))
        assert an.expert_count_histogram(trace, 0) == {1: 0.25, 2: 0.5, 3: 0.25}

    def test_full_support_routing_concentrates_on_n_slots(self):
        rng = np.random.default_rng(3)
        trace = an.RoutingTrace()
        n_slots = 5
        for tok in range(20):
            raw = rng.uniform(0.1, 1.0, size=n_slots)
            p = raw / raw.sum()
            d = moe.select_top_p_deterministic(p, 1.0)
            an.record(trace, 0, 0, tok, "text",
                      make_decision([(e.index, e.gate_prob) for e in d.per_expert],
                                    n_routed=n_slots))
        assert an.expert_count_histogram(trace, 0) == {n_slots: 1.0}

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(4)
        trace = random_trace(rng)
        hist = an.expert_count_histogram(trace, 1)
        assert abs(sum(hist.values()) - 1.0) <= 1e-12


class TestDynamics:
    def test_constant_routing_gives_flat_series(self):
        trace = an.RoutingTrace()
        for step in range(4):
            for tok in range(3):
                an.record(trace, step, 0, tok, "text", make_decision([(1, 0.9)]))
        series = an.dynamics_over_steps(trace, 0, expert_id=1)
        assert series == [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]

    def test_null_expert_series_emitted_like_any_other(self):
        trace = an.RoutingTrace()
        # null slot id 6 (>= n_routed=4) appears in step 1 only
        an.record(trace, 0, 0, 0, "text", make_decision([(0, 0.9)], n_routed=4))
        an.record(trace, 1, 0, 0, "text",
                  make_decision([(0, 0.5), (6, 0.3)], n_routed=4))
        series = an.dynamics_over_steps(trace, 0, expert_id=6)
        assert series == [(0, 0.0), (1, 0.5)]

    def test_series_length_equals_distinct_steps(self):
        rng = np.random.default_rng(5)
        trace = random_trace(rng, n_steps=5)
        assert len(an.dynamics_over_steps(trace, 0, expert_id=0)) == 5


class TestSerialization:
    def test_csv_header_and_roundtrip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(6)
        trace = random_trace(rng)
        first = tmp_path / "trace.csv"
        second = tmp_path / "trace2.csv"
        an.export_trace(trace, first, fmt="csv")
        header = first.read_text().splitlines()[0]
        assert header == "step,layer,token_index,modality,expert_id,role,gate_prob,selected_rank,k"
        an.export_trace(an.import_trace(first), second, fmt="csv")
        assert first.read_bytes() == second.read_bytes()

    def test_jsonl_roundtrip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        trace = random_trace(rng, n_steps=2, n_tokens=6)
        first = tmp_path / "trace.jsonl"
        second = tmp_path / "trace2.jsonl"
        an.export_trace(trace, first, fmt="jsonl")
        assert len(first.read_text().splitlines()) == len(trace)
        an.export_trace(an.import_trace(first), second, fmt="jsonl")
        assert first.read_bytes() == second.read_bytes()

    def test_thousand_records_roundtrip_losslessly(self, tmp_path):
        rng = np.random.default_rng(8)
        trace = random_trace(rng, n_steps=5, n_layers=2, n_tokens=100)
        assert len(trace) == 1000
        path = tmp_path / "big.csv"
        an.export_trace(trace, path)
        back = an.import_trace(path)
        assert back.records() == trace.records()

    def test_empty_trace_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        an.export_trace(an.RoutingTrace(), path)
        assert path.read_text() == ",".join(an.CSV_COLUMNS) + "\n"
        back = an.import_trace(path)
        assert len(back) == 0 and back.records() == []

    def test_export_refuses_an_unknown_format(self, tmp_path):
        path = tmp_path / "trace.xml"
        with pytest.raises(ValueError, match="format must be 'csv' or 'jsonl'"):
            an.export_trace(an.RoutingTrace(), path, fmt="xml")
        assert not path.exists()

    def test_gate_probs_survive_exactly(self, tmp_path):
        trace = an.RoutingTrace()
        gates = [0.1, 1 / 3, 0.7071067811865476, 5e-324]
        for tok, g in enumerate(gates):
            an.record(trace, 0, 0, tok, "text", make_decision([(0, g)]))
        path = tmp_path / "exact.csv"
        an.export_trace(trace, path)
        back = an.import_trace(path)
        got = [r.slots[0].gate_prob for r in back.records()]
        assert got == gates  # bit-exact, not approximate

    def test_import_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,layer\n0,1\n")
        with pytest.raises(ValueError):
            an.import_trace(path)

    def test_report_export_schema(self, tmp_path):
        rng = np.random.default_rng(9)
        trace = random_trace(rng)
        reports = [an.activation_proportions(trace, 0),
                   an.activation_proportions(trace, 0, modality="text")]
        path = tmp_path / "report.csv"
        an.export_report(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "group,layer,expert_id,role,proportion"
        assert any(line.startswith("all,0,") for line in lines[1:])
        assert any(line.startswith("text,0,") for line in lines[1:])
