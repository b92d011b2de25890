"""Tests of the benchmark itself: generator closed forms, the tracer's
wrappers and a one-round smoke run of every workload.

    python3 -m pytest perfbench -q
"""
import json
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gen_corpus  # noqa: E402
import gen_micro  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

import abclang  # noqa: E402


def _explore(text):
    spec, diags = abclang.load_spec(text)
    assert spec is not None, [d.render(color=False) for d in diags]
    lts = abclang.explore(spec)
    verdicts = {n: abclang.check_property(n, p, lts).status for n, p in spec.properties}
    return len(lts.states), len(lts.transitions), verdicts


def test_closed_forms_by_formula():
    assert (gen_micro.bcast(3, 2).states, gen_micro.bcast(3, 2).transitions) == (9, 8)
    assert (gen_micro.bcast(4, 3).states, gen_micro.bcast(4, 3).transitions) == (82, 81)
    assert (gen_micro.draw(20).states, gen_micro.draw(20).transitions) == (21, 20)
    assert (gen_micro.fake(50).states, gen_micro.fake(50).transitions) == (2, 1)


@pytest.mark.parametrize("m", [gen_micro.fake(1), gen_micro.fake(4), gen_micro.bcast(1, 1),
                               gen_micro.bcast(3, 2), gen_micro.bcast(2, 3), gen_micro.draw(1),
                               gen_micro.draw(5)], ids=lambda m: m.name)
def test_micro_family_matches_engine(m):
    assert _explore(m.text) == (m.states, m.transitions, m.verdicts)


def test_micro_batch_is_reproducible_and_mixed():
    a, b = gen_micro.batch(7), gen_micro.batch(7)
    assert [m.text for m in a] == [m.text for m in b]
    assert {m.name.split("-")[0] for m in a} == {"fake", "bcast", "draw"}
    assert max(m.states for m in gen_micro.batch(3, size=200)) <= 257


def test_corpus_variant_shape():
    text = gen_corpus.corpus_variant(3, 2, days=2, prices=3, seed=5)
    assert "extern get_day   : { 5, 6 }" in text
    assert "extern get_price : { 75, 85, 95 }" in text
    assert 'extern get_hotels : map { ("rome") -> 2 }' in text
    assert text.count("component Cust") == 3 and text.count("component Hotel") == 2
    assert text == gen_corpus.corpus_variant(3, 2, days=2, prices=3, seed=5)
    for row in gen_corpus.hotel_table(3, 2, 2, 3, seed=5)[:1]:
        # the anchor: always affordable, never full
        assert all(p <= 75 for p in row["price"].values())
        assert all(r >= 3 for r in row["rooms"].values())


def test_roomy_variant_verdicts():
    text = gen_corpus.corpus_variant(1, 2, rooms=1)
    _, _, verdicts = _explore(text)
    assert verdicts == gen_corpus.roomy_verdicts(1)


def test_trace_check_reports_protocol_violations():
    header = {"spec_sha256": "x", "seed": 0, "steps": 1, "termination": "step-limit"}
    step = {"message": [["str", "confirm"]], "updates": [
        {"component": "Hotel1", "attr": "room", "index": [["int", 5]], "value": ["int", -1]}]}
    problems = worker.check_trace([json.dumps(header), json.dumps(step)], customers=2)
    assert "step-limit" in problems and "1 confirm for 2" in problems
    assert "comission" in problems and "below 0" in problems


def test_wrong_answer_counts_as_failed():
    bad = gen_micro.MicroSpec("bad", gen_micro.draw(3).text, 4, 2, {"top": "holds", "over": "fails"})
    timings, failed = worker.run_micro(abclang, {}, {"specs": [bad, gen_micro.draw(3)]}, None)
    assert failed == 1 and len(timings) == 2


def test_wrappers_record_spans_and_restore_originals():
    before = {(path, attr): getattr(spans._resolve(path), attr) for path, attr, _, _ in spans.WRAPS}
    tracer = spans.Tracer().install()
    try:
        for (path, attr), original in before.items():
            assert getattr(spans._resolve(path), attr) is not original
        _explore(gen_micro.bcast(2, 2).text)
    finally:
        tracer.restore()
    for (path, attr), original in before.items():
        assert getattr(spans._resolve(path), attr) is original, (path, attr)
    summary = tracer.summary()
    assert summary["explorer.explore"][2] == 1
    assert summary["semantics.system_steps"][2] == 5  # one expansion per state
    assert tracer.counts["explorer.states"] == 5
    assert summary["parser.parse_spec"][2] == 1


def test_self_time_excludes_children():
    ns = types.SimpleNamespace()
    ns.inner = lambda: sum(range(20000))
    ns.outer = lambda: [ns.inner() for _ in range(3)]
    tracer = spans.Tracer()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    ns.outer()
    tracer.restore()
    summary = tracer.summary()
    inner_self, inner_total, inner_calls = summary["inner"]
    outer_self, outer_total, outer_calls = summary["outer"]
    assert (inner_calls, outer_calls) == (3, 1)
    assert inner_self == pytest.approx(inner_total)
    assert outer_self == pytest.approx(outer_total - inner_total)
    assert list(tracer.parent) == [-1, 0, 0, 0]


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["corpus", "wide-sim", "micro"])
def test_smoke_one_round(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench(workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in bench[kind]}
        if kind == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())
