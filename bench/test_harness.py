"""Tests of the benchmark harness itself (not part of the tier-1 suite).

    python3 -m pytest bench/test_harness.py -q
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

from primpairs import ff, verify  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, "run"]


# root 0..10 holds A 1..4 (which holds a 2..3) and B 5..9
NESTED = [span("bench.x", 0.0, 10.0, -1),
          span("verify.a", 1.0, 4.0, 0),
          span("ff.g", 2.0, 3.0, 1),
          span("arith.b", 5.0, 9.0, 0)]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(NESTED) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_times_add_up_to_the_root():
    layers = tracing.layer_self(NESTED)
    assert layers["bench"] == 3.0 and layers["verify"] == 2.0
    assert layers["ff"] == 1.0 and layers["arith"] == 4.0
    assert sum(layers.values()) == 10.0
    assert tracing.check_spans(NESTED, 10.0) == []
    assert tracing.check_spans(NESTED, 10.05) == []  # within the 1 % slack
    assert tracing.check_spans(NESTED, 12.0)


def test_check_spans_rejects_a_child_outside_its_parent():
    bad = [list(s) for s in NESTED]
    bad[2][2] = 4.5  # ff.g now ends after verify.a
    assert any("outside its parent" in p
               for p in tracing.check_spans(bad, 10.0))


def test_inclusive_time_does_not_count_nested_calls_twice():
    spans = [span("arith.factor", 0.0, 5.0, -1),
             span("arith.factor", 1.0, 2.0, 0),
             span("ff.g", 6.0, 7.0, -1),
             span("arith.factor", 6.2, 6.5, 2)]
    incl = tracing.inclusive_times(spans)
    assert incl["arith.factor"] == pytest.approx(5.3)
    assert incl["ff.g"] == 1.0


def test_recorder_nests_function_and_generator_spans():
    rec = tracing.Recorder("t")

    def leaf(x):
        return x + 1

    def items(n):
        for i in range(n):
            yield traced_leaf(i)

    traced_leaf = rec.wrap("ff.leaf", leaf)
    traced_items = rec.wrap_generator("verify.items", items)
    root = rec.open("bench.t")
    assert list(traced_items(3)) == [1, 2, 3]
    rec.close(root)
    names = [s[0] for s in rec.spans]
    assert names.count("verify.items") == 4  # three items and the stop
    assert rec.counts["verify.items.items"] == 3
    for s in rec.spans:
        if s[0] == "ff.leaf":
            assert rec.spans[s[3]][0] == "verify.items"
    assert tracing.check_spans(rec.spans, rec.spans[0][2] - rec.spans[0][1]) == []


def test_installed_patches_every_binding_and_restores_it():
    orig_build, orig_eval = ff.build_ctx, ff.RationalFunction.varr_eval
    rec = tracing.Recorder("t")
    with tracing.installed(rec):
        assert verify.build_ctx is not orig_build
        assert verify.build_ctx is ff.build_ctx
        ctx = verify.build_ctx(2, 1, 3)
        assert rec.counts["ff.table_bytes"] > 0
    assert verify.build_ctx is orig_build and ff.build_ctx is orig_build
    assert ff.RationalFunction.varr_eval is orig_eval
    assert [s[0] for s in rec.spans][0] == "ff.build_ctx"
    assert ctx.N == 8


def test_percentile_rule_keeps_ten_samples_beyond():
    xs = list(range(1, 101))
    assert tracing.percentile(xs, 90) == 90
    assert tracing.tail_percentile(xs) == (90.0, 90, 100)
    assert tracing.tail_percentile(list(range(3016)))[0] == 99.0
    assert tracing.tail_percentile(list(range(20)))[0] == 50.0
    assert tracing.tail_percentile(list(range(19))) is None


# ---------------------------------------------------------------------------
# the correctness gate

class _Cert:
    passes = True


def _clean_scan(refs):
    rows = [(m, q, int((m, q) in workloads.EQUALITY_PAIRS))
            for m, q in sorted(refs.exceptions)]
    certs = {(q, m): None if (q, m) in refs.unresolved else _Cert()
             for m, q, _ in rows}
    return {"code": 0, "rows": rows, "certs": certs}


@pytest.fixture(scope="module")
def refs():
    return workloads.load_references()


def test_gate_accepts_the_reference_scan(refs):
    gate = workloads.Gate()
    workloads.check_scan(gate, _clean_scan(refs), refs)
    assert gate.failures == []
    assert gate.attempted > 2 * len(refs.exceptions)


def test_gate_rejects_one_corrupted_scan_row(refs):
    out = _clean_scan(refs)
    m, q, eq = out["rows"][100]
    out["rows"][100] = (m, q + 1, eq)
    gate = workloads.Gate()
    workloads.check_scan(gate, out, refs)
    assert f"scan misses (m={m}, q={q})" in gate.failures
    assert any("not in the table" in f for f in gate.failures)


def _exhaustive_verdicts():
    out = {workloads.EXHAUSTIVE_PAIR: verify.PairVerdict(
        2, 5, 2, verify.VERIFIED_EXHAUSTIVE,
        coverage="all 61504 representatives, all trace pairs")}
    for (q, m), w in workloads.WITNESSES.items():
        out[(q, m)] = verify.PairVerdict(
            q, m, 2, verify.EXCEPTION_WITNESS, witness=dict(w),
            coverage="zero cell after 1 representatives")
    return out


def test_gate_accepts_the_recorded_witnesses(refs):
    gate = workloads.Gate()
    workloads.check_exhaustive(gate, _exhaustive_verdicts(), refs)
    assert gate.failures == []


def test_gate_rejects_a_witness_with_a_nonzero_count(refs):
    verdicts = _exhaustive_verdicts()
    fake = dict(workloads.WITNESSES[(2, 6)], a=1, b=1)
    assert workloads.witness_count(2, 6, fake) > 0
    verdicts[(2, 6)] = verify.PairVerdict(
        2, 6, 2, verify.EXCEPTION_WITNESS, witness=fake,
        coverage="zero cell after 1 representatives", seed=7)
    gate = workloads.Gate()
    workloads.check_exhaustive(gate, verdicts, refs)
    assert len(gate.failures) == 1
    assert "nonzero count" in gate.failures[0]


def test_gate_on_sampled_verdicts(refs):
    ok = {pair: verify.PairVerdict(
        *pair, 2, verify.VERIFIED_SAMPLED, seed=3,
        coverage="3000 sampled representatives, all trace pairs")
        for pair in workloads.SAMPLED_PAIRS}
    gate = workloads.Gate()
    workloads.check_sampled(gate, ok, refs)
    assert gate.failures == []
    short = dict(ok)
    short[(2, 8)] = verify.PairVerdict(
        2, 8, 2, verify.VERIFIED_SAMPLED, seed=3,
        coverage="2999 sampled representatives, all trace pairs")
    gate = workloads.Gate()
    workloads.check_sampled(gate, short, refs)
    assert len(gate.failures) == 1
