"""State-space exploration and property checking."""
import gc
import importlib.util
import pathlib
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

from conftest import fixture_path

import pytest

from abclang import explorer, semantics, terms
from abclang.evaluator import EvalError
from abclang.explorer import (
    LTS,
    Transition,
    check_leads_to,
    check_property,
    check_reachable,
    describe_transition,
    explore,
)
from abclang.parser import MAX_DEPTH, parse_spec
from abclang.semantics import Run, system_steps
from abclang.simulator import simulate
from abclang.terms import (
    BroadcastEvent,
    Invariant,
    LeadsTo,
    Reachable,
    Received,
    FalsePred,
    Inact,
    Not,
    SCompare,
    Sent,
    TruePred,
    Env,
    EnumDomain,
    Numbering,
    SystemSpec,
    VFloat,
    VInt,
    VStr,
    state_key,
)
from abclang.validate import load_spec


def load(path):
    spec, diags = load_spec(open(path).read(), path)
    assert spec is not None, [d.render(color=False) for d in diags]
    return spec


def explore_fixture(name, **kw):
    return explore(load(fixture_path(name)), **kw)


# P's payload divides by a drawn 0 in the state after "go"
DIVISION_BY_ZERO = """extern pick : { 0, 1 }
proc P = (1 / pick())@(tt).0
component C { attrs { } interface { } run ("go")@(tt).P }
"""

# the text cannot declare an empty domain (`extern pick : {}` is an
# E-PARSE), so `empty_domain_spec` replaces pick's domain in the parsed spec
EMPTY_DOMAIN = """extern pick : { 0 }
component C { attrs { } interface { } run (pick())@(tt).0 }
"""


def empty_domain_spec():
    spec, diags = parse_spec(EMPTY_DOMAIN)
    assert spec is not None, diags
    return SystemSpec(spec.components, spec.proc_defs, (("pick", EnumDomain(())),), spec.properties)


# an awareness guard of 1,200 atoms, left-nested, so the innermost `&&` lies
# 1,200 levels down: `parse_spec` takes it and `validate` rejects it (E-DEPTH)
DEEP_GUARD = (
    "component C { attrs { x = 1; } interface { x } run <"
    + " && ".join(["x = 1"] * 1200) + '> ("a")@(tt).0 }\n'
)

# C's property formulas: a 1,200-atom invariant, nested like DEEP_GUARD,
# and two that name a component the spec does not have; `parse_spec` takes
# them and `validate` rejects them (E-DEPTH and E-UNDEF-COMP)
UNCHECKABLE = (
    'component C { attrs { x = 1; } interface { x } run ("a")@(tt).("b")@(tt).0 }\n'
    "property deep = invariant " + " && ".join(["C.x = 1"] * 1200) + "\n"
    "property nobody = reachable Nobody.x = 1\n"
    'property nobody_sends = sent(Nobody, "a") leadsto sent(C, "b")\n'
)


def only_property(spec, *names):
    """`spec` with only its properties named `names`."""
    return SystemSpec(spec.components, spec.proc_defs, spec.externs,
                      tuple((n, p) for n, p in spec.properties if n in names))


# two components named C, which `validate` rejects (E-DUP-COMP)
TWO_CS = (
    "component C { attrs { x = 1; } interface { } run 0 }\n"
    "component C { attrs { x = 2; } interface { } run 0 }\n"
    "property first = invariant C.x = 1\n"
)

# K broadcasts its counter and increments it at every step, so each step
# has a new label and the label of the step before dies; IDLE adds a
# component that never moves and judges (discards) every label
COUNTER = """proc K = ("n", n)@(tt).[n := n + 1] K
component C { attrs { n = 0; } interface { n } run K }
"""
IDLE = COUNTER + """component D { attrs { } interface { } run (x = "never")(x).0 }
"""


def gen_corpus():
    """The benchmark's generator of corpus variants, `perfbench/gen_corpus.py`."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "gen_corpus.py"
    spec = importlib.util.spec_from_file_location("gen_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# A1 sends -0.0 and A2 sends 0.0; B echoes the value it received
SIGNED_ZERO = """component A1 { attrs { } interface { } run ("v", neg(0.0))@(tt).0 }
component A2 { attrs { } interface { } run ("v", 0.0)@(tt).0 }
component B { attrs { } interface { } run (x = "v")(x, y).("echo", y)@(tt).0 }
"""


class TestExplore:
    def test_ping_lts(self):
        lts = explore_fixture("ping.abc")
        assert (len(lts.states), len(lts.transitions)) == (2, 1)
        assert not lts.truncated

    def test_choice_lts(self):
        lts = explore_fixture("choice.abc")
        assert (len(lts.states), len(lts.transitions)) == (3, 2)

    def test_fake_output_lts(self):
        lts = explore_fixture("fake3.abc")
        assert (len(lts.states), len(lts.transitions)) == (2, 1)

    def test_state_limit_truncates(self):
        lts = explore_fixture("choice.abc", max_states=1)
        assert lts.truncated and "state limit" in lts.truncation_reason

    def test_depth_limit_truncates(self):
        lts = explore_fixture("ping.abc", max_depth=0)
        assert lts.truncated and len(lts.states) == 1

    @pytest.mark.parametrize("limits", [dict(max_states=0), dict(max_states=-1), dict(max_depth=-3)])
    def test_out_of_range_limits_raise(self, limits):
        # the CLI rejects them as usage errors; the library raises
        with pytest.raises(ValueError, match="limits out of range"):
            explore_fixture("ping.abc", **limits)

    def test_export_format(self):
        lts = explore_fixture("ping.abc")
        lines = lts.export_text().splitlines()
        assert lines[0].startswith("STATE 0 ")
        assert lines[-1] == "TRANS 0 1 A ping"

    def test_witness_paths_replay(self):
        # every transition must be among the enabled successors of its source
        spec = load(fixture_path("choice.abc"))
        lts = explore(spec)
        run = Run.of(spec.defs_map(), spec.externs_map())
        for t in lts.transitions:
            succs = {state_key(s) for _, s in system_steps(lts.states[t.src], run)}
            assert state_key(lts.states[t.dst]) in succs

    def test_received_value_does_not_leak_into_sibling_branch(self):
        # y is bound in the left branch only; the right branch creates
        # the attribute y and sends it, whichever branch moves first
        src = """
proc R = (y = "m")(y).0 | ()@(ff).[y := 5] ("ok", y)@(tt).0
component S { attrs { } interface { } run ("m")@(tt).0 }
component C { attrs { } interface { } run R }
"""
        lts = explore(load_spec(src, "leak.abc")[0])
        oks = [t.event.message for t in lts.transitions if t.event.tag() == "ok"]
        assert oks and all(msg == (VStr("ok"), VInt(5)) for msg in oks)

    def test_unvalidated_unguarded_recursion_raises(self):
        spec, _ = parse_spec("proc P = P + P\ncomponent C { attrs { } interface { } run P }\n")
        with pytest.raises(EvalError, match="unguarded recursion P -> P"):
            explore(spec)

    def test_unvalidated_undefined_process_raises(self):
        spec, _ = parse_spec('component C { attrs { } interface { } run ("m")@(tt).Nope }\n')
        with pytest.raises(EvalError, match="undefined process Nope"):
            explore(spec)

    def test_unvalidated_empty_domain_raises(self):
        # a draw from the empty domain once ended in IndexError
        with pytest.raises(EvalError, match="extern pick has an empty domain"):
            explore(empty_domain_spec())

    def test_unvalidated_deep_guard_raises(self):
        # judging or printing the guard once ended in RecursionError
        spec, diags = parse_spec(DEEP_GUARD, "deep.abc")
        assert spec is not None, diags
        with pytest.raises(EvalError, match=f"nested more than {MAX_DEPTH} levels deep") as ei:
            explore(spec)
        # the `&&` 101 levels down starts at the guard's first atom
        assert (ei.value.span.line, ei.value.span.col) == (1, DEEP_GUARD.index("<") + 2)

    def test_unvalidated_deep_property_raises(self):
        # judging the invariant once ended in RecursionError
        spec, diags = parse_spec(UNCHECKABLE, "uncheckable.abc")
        assert spec is not None, diags
        with pytest.raises(EvalError, match=f"nested more than {MAX_DEPTH} levels deep"):
            explore(only_property(spec, "deep"))
        # the checker rejects it too, on an LTS of the spec without it
        with pytest.raises(EvalError, match=f"nested more than {MAX_DEPTH} levels deep"):
            check_property("deep", dict(spec.properties)["deep"], explore(only_property(spec)))

    def test_unvalidated_unknown_component_in_a_state_expression_raises(self):
        # once a FAILS verdict
        spec, _ = parse_spec(UNCHECKABLE, "uncheckable.abc")
        with pytest.raises(EvalError, match="property nobody references unknown component Nobody"):
            explore(only_property(spec, "nobody"))
        with pytest.raises(EvalError, match="property nobody references unknown component Nobody"):
            check_property("nobody", dict(spec.properties)["nobody"], explore(only_property(spec)))

    def test_unvalidated_unknown_component_in_an_event_raises(self):
        # once a HOLDS verdict
        spec, _ = parse_spec(UNCHECKABLE, "uncheckable.abc")
        with pytest.raises(EvalError, match="property nobody_sends references unknown component Nobody"):
            explore(only_property(spec, "nobody_sends"))
        with pytest.raises(EvalError, match="property nobody_sends references unknown component Nobody"):
            check_property("nobody_sends", dict(spec.properties)["nobody_sends"], explore(only_property(spec)))

    def test_unvalidated_duplicate_component_raises(self):
        # once a HOLDS verdict: the atom read the first C only
        spec, _ = parse_spec(TWO_CS, "two.abc")
        with pytest.raises(EvalError, match="duplicate component C"):
            explore(spec)
        lts = LTS([spec.initial_state()], [], ("C", "C"))
        with pytest.raises(EvalError, match="duplicate component C"):
            check_property("first", dict(spec.properties)["first"], lts)

    def test_a_check_walks_no_validated_property(self, corpus_spec, monkeypatch):
        # `validate` left each property's term list with the property
        assert all("terms" in prop.__dict__ for _, prop in corpus_spec.properties)
        lts = explore(corpus_spec)

        def walk(node):
            raise AssertionError("walked a property again")

        monkeypatch.setattr(terms, "subterms", walk)
        monkeypatch.setattr(sys.modules["abclang.validate"], "subterms", walk)
        verdicts = [check_property(name, prop, lts) for name, prop in corpus_spec.properties]
        assert len(verdicts) == 12 and all(v.holds for v in verdicts)

    def test_payload_error_in_a_reachable_state_raises_with_its_span(self):
        spec, _ = parse_spec(DIVISION_BY_ZERO, "div.abc")
        with pytest.raises(EvalError, match="division by zero") as ei:
            explore(spec)
        span = ei.value.span
        assert (span.file, span.line, span.col) == ("div.abc", 2, 11)
        assert str(ei.value) == "div.abc:2:11: division by zero"

    def test_travel_booking_lts_size(self, corpus_spec):
        # call closures trimmed to what their definitions read, P | 0 = P
        lts = explore(corpus_spec, max_states=1_000_000)
        assert not lts.truncated
        assert (len(lts.states), len(lts.transitions)) == (1_048, 2_979)

    def test_one_zero(self):
        # neg(0.0) gives 0.0, so every message carries the same zero
        spec = load_spec(SIGNED_ZERO, "zero.abc")[0]
        lts = explore(spec)
        assert (len(lts.states), len(lts.transitions)) == (7, 9)
        assert {t.event.message[1] for t in lts.transitions} == {VFloat(0.0)}
        assert all(str(t.event.message[1].v) == "0.0" for t in lts.transitions)

    def test_no_term_outlives_its_run(self, corpus_spec, corpus_source):
        # process-wide term caches once held 575 and then 941 entries
        # after these two runs; the run's memo tables die with the run
        def runs():
            return {id(o) for o in gc.get_objects() if isinstance(o, semantics.Run)}

        before = runs()
        for cap in (300, 600):
            lts = explore(corpus_spec, max_states=cap)
            initial = {id(d.proc) for d in corpus_spec.components}
            probe = weakref.ref(next(c.proc for c in lts.states[-1] if id(c.proc) not in initial))
            del lts
            gc.collect()
            assert probe() is None
            engine = [m for name, m in sys.modules.items() if name.startswith("abclang")]
            cached = [
                f for m in engine for f in vars(m).values()
                if hasattr(f, "cache_info") and f.cache_info().currsize
            ]
            assert cached == []
        simulate(corpus_spec, corpus_source, 0, 300)
        gc.collect()
        assert runs() <= before

    def test_out_edges_built_once(self):
        lts = explore_fixture("choice.abc")
        assert lts.out_edges() is lts.out_edges()
        assert lts.out_edges() == [[0, 1], [], []]

    def test_one_event_object_per_distinct_event(self):
        # the fixture's 2,979 transitions and the benchmark corpus's 179
        # carry 57 and 25 distinct events, one object each
        corpus = gen_corpus().corpus_variant(2, 1, rooms=2)
        for lts, distinct in [(explore_fixture("travel-booking.abc"), 57),
                              (explore(load_spec(corpus, "corpus.abc")[0]), 25)]:
            carried = [t.event for t in lts.transitions]
            assert len({id(e) for e in carried}) == len(set(carried)) == distinct
            events, numbers = lts.event_numbers()
            assert lts.event_numbers() is lts.event_numbers()
            assert len(events) == distinct and [events[k] for k in numbers] == carried
            firsts = [numbers.index(k) for k in range(distinct)]
            assert firsts == sorted(firsts)  # numbered in order of first use

    @pytest.mark.parametrize("source", [COUNTER, IDLE], ids=["counter", "idle"])
    def test_simulate_keeps_the_events_of_live_labels_only(self, monkeypatch, source):
        runs = []
        of_spec = Run.of_spec

        def kept(spec):
            runs.append(of_spec(spec))
            return runs[-1]

        monkeypatch.setattr(Run, "of_spec", kept)
        spec = load_spec(source, "counter.abc")[0]
        trace = simulate(spec, source, 0, max_steps=2_000)
        assert trace.termination == "step-limit" and len(trace.steps) == 2_000
        run, = runs
        # one label a step, 2,000 in all; the events of a label go with
        # the step after it, although D's judgement keeps every label
        assert set(run.events) <= set(run.labels.values())
        assert len(run.events) <= 1


# Two specs that define `proc K` with different bodies; the call instance
# K{c=1} occurs in both.
SAME_NAME_A = """
proc K = ("done", c)@(tt).0
proc W = (tt)(t, c).K
component S { attrs { } interface { } run ("go", 1)@(tt).0 }
component R { attrs { } interface { } run W }
"""
SAME_NAME_B = SAME_NAME_A.replace('("done", c)@(tt).0', '("x", c)@(tt).("y", c)@(tt).0')


class TestNumbering:
    def test_explore_writes_no_text(self, corpus_spec):
        lts = explore(corpus_spec)
        components = list({id(c): c for s in lts.states for c in s}.values())
        assert len(components) > 100
        assert not any("text" in c.__dict__ for c in components)
        lts.export_text()  # the texts are written for the export
        assert all("text" in c.__dict__ for c in components)

    def test_interleaved_runs_give_the_same_lts(self, corpus_spec, monkeypatch):
        # runs share the terms of their specs, and each run numbers them
        # anew: runs started inside another, at its 1st, 100th and 1,000th
        # key, read no number another run wrote.  The mini corpus shares
        # the definitions and four of the components' processes, and
        # numbers them in another order.
        from test_acceptance import mini_corpus  # which imports this module

        mini = mini_corpus(corpus_spec)
        alone = {id(spec): explore(spec) for spec in (corpus_spec, mini)}
        key, outer, inner, keyed = explorer.state_key, [], [], [0]

        def interleaved(state, numbering):
            outer[:] = outer or [numbering]
            if numbering is outer[0]:
                keyed[0] += 1
                spec = {1: mini, 100: corpus_spec, 1_000: mini}.get(keyed[0])
                if spec is not None:
                    inner.append((spec, explore(spec)))
            return key(state, numbering)

        monkeypatch.setattr(explorer, "state_key", interleaved)
        runs = [(corpus_spec, explore(corpus_spec))] + inner
        assert len(runs) == 4
        for spec, lts in runs:
            want = alone[id(spec)]
            assert lts.export_text() == want.export_text()
            assert [t.event for t in lts.transitions] == [t.event for t in want.transitions]

    def test_threads_exploring_shared_terms_give_the_same_lts(self, corpus_spec):
        from test_acceptance import mini_corpus

        specs = [corpus_spec, mini_corpus(corpus_spec)] * 2
        alone = [explore(spec).export_text() for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(explore, spec) for spec in specs]
                got = [f.result(timeout=120).export_text() for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == alone

    def test_a_prefix_chain_is_numbered_once(self):
        # each state's process is its predecessor's continuation, numbered
        # with it: 3,000 prefixes once took 8 s, with their texts
        chain = ('("a")@(tt).' * 3000) + "0"
        spec, _ = parse_spec("component C { attrs { } interface { } run " + chain + " }", "chain.abc")
        numbering, p = Numbering(), spec.components[0].proc
        numbers = [numbering.proc(p)]
        assert len(numbering.keys) == 3001
        while not isinstance(p, Inact):
            p = p.then
            numbers.append(numbering.proc(p))
        assert len(numbering.keys) == len(set(numbers)) == 3001
        lts = explore(spec)
        assert (len(lts.states), len(lts.transitions)) == (3001, 3000)


class TestUnfoldMemo:
    def test_same_process_name_in_two_specs(self):
        # A: go, then done: 3 states, 2 transitions.  B: go, x, y: 4 and 3.
        a = load_spec(SAME_NAME_A, "a.abc")[0]
        b = load_spec(SAME_NAME_B, "b.abc")[0]
        want = {id(a): (3, 2, ["go", "done"]), id(b): (4, 3, ["go", "x", "y"])}
        specs = [a, b, a, b]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(explore, specs))
        for spec, lts in zip(specs, results):
            tags = [t.event.tag() for t in lts.transitions]
            assert (len(lts.states), len(lts.transitions), tags) == want[id(spec)]

    def test_fresh_memo_per_state_gives_the_same_lts(self, monkeypatch):
        caps = {"travel-booking.abc": 5_000}
        specs = {name: load(fixture_path(name))
                 for name in ["ping.abc", "choice.abc", "fake3.abc", "travel-booking.abc"]}
        specs["zero.abc"] = load_spec(SIGNED_ZERO, "zero.abc")[0]
        for name, spec in specs.items():
            shared = explore(spec, max_states=caps.get(name, 100_000))
            with monkeypatch.context() as m:
                m.setattr(
                    explorer, "system_steps",
                    lambda state, run: system_steps(state, Run(run.defs, run.externs, run.needs)),
                )
                fresh = explore(spec, max_states=caps.get(name, 100_000))
            assert shared.export_text() == fresh.export_text(), name


class TestVerdicts:
    def test_enum_extern_in_send_predicate_reaches_its_receiver(self):
        # the sender draws pick() when it sends: one transition per value,
        # each received by the one component whose n matches
        src = """
extern pick : { 1, 2 }
proc S = ("m")@(n = pick()).0
proc R = (x = "m")(x).0
component A { attrs { role = "a"; } interface { role } run S }
component B1 { attrs { n = 1; } interface { n } run R }
component B2 { attrs { n = 2; } interface { n } run R }
property got1 = reachable received(B1, "m")
property got2 = reachable received(B2, "m")
"""
        spec = load_spec(src, "pick.abc")[0]
        lts = explore(spec)
        assert (len(lts.states), len(lts.transitions)) == (3, 2)
        assert [sorted(t.event.receivers) for t in lts.transitions] == [[(1, 0)], [(2, 0)]]
        for name, prop in spec.properties:
            assert check_property(name, prop, lts).status == "holds", name

    def test_reachable_event_holds(self):
        lts = explore_fixture("ping.abc")
        v = check_property("p", Reachable(Received("B", "ping")), lts)
        assert v.holds and v.witness

    def test_reachable_fails_when_absent(self):
        lts = explore_fixture("ping.abc")
        v = check_property("p", Reachable(Sent("*", "zzz")), lts)
        assert v.status == "fails"

    def test_reachable_unknown_when_truncated(self):
        lts = explore_fixture("ping.abc", max_depth=0)
        v = check_property("p", Reachable(Sent("*", "ping")), lts)
        assert v.status == "unknown"

    def test_invariant_true_false(self):
        lts = explore_fixture("ping.abc")
        assert check_property("t", Invariant(TruePred()), lts).holds
        v = check_property("f", Invariant(FalsePred()), lts)
        assert v.status == "fails" and v.witness == []  # initial state violates

    def test_invariant_counterexample_path(self):
        lts = explore_fixture("choice.abc")
        expr = SCompare("B", "r", (), "=", VInt(2))
        v = check_property("nv", Invariant(Not(expr)), lts)
        assert v.status == "fails" and len(v.witness) == 1

    def test_leads_to_holds_on_ping(self):
        lts = explore_fixture("ping.abc")
        v = check_property("lt", LeadsTo(Sent("A", "ping"), (Received("B", "ping"),)), lts)
        assert v.holds

    def test_leads_to_vacuous(self):
        lts = explore_fixture("ping.abc")
        v = check_property("lt", LeadsTo(Sent("A", "nope"), (Received("B", "x"),)), lts)
        assert v.holds and "vacuous" in v.detail

    def test_leads_to_unknown_when_truncated(self):
        lts = explore_fixture("ping.abc", max_depth=0)
        v = check_property("lt", LeadsTo(Sent("A", "ping"), (Received("B", "ping"),)), lts)
        assert v.status == "unknown"


# ---------------------------------------------------------------------------
# synthetic LTSs and the brute-force oracle


def make_lts(n, edges, shared=False):
    """edges: list of (src, dst, sender_name_index, tag).  Each edge gets
    its own event object, so equal events are different objects, unless
    `shared`: then equal events are one object, as `explore` makes them."""
    names = ("P", "Q")
    states = [(i,) for i in range(n)]  # opaque placeholder states
    transitions = []
    made = {}
    for src, dst, sender, tag in edges:
        others = frozenset(range(len(names))) - {sender}
        ev = BroadcastEvent(
            sender=sender,
            message=(VStr(tag),),
            sent_pred=TruePred(),
            exposed_env=Env(),
            receivers=frozenset((i, 0) for i in others),
            discarded=frozenset(),
        )
        if shared:
            ev = made.setdefault(ev, ev)
        transitions.append(Transition(src, dst, ev))
    return LTS(states, transitions, names)


def oracle_leads_to(lts, trigger_tag, goal_tags, trigger_sender=0):
    """Brute force: from each trigger-edge target, enumerate all simple
    paths over non-goal edges; a terminal state or a revisit (cycle)
    means some maximal run avoids every goal."""
    out = lts.out_edges()

    def is_goal(ti):
        ev = lts.transitions[ti].event
        # goal = Received(Q, tag): Q (index 1) must be among the receivers
        return ev.tag() in goal_tags and any(i == 1 for i, _ in ev.receivers)

    def bad_from(v, on_path):
        if not out[v]:
            return True
        non_goal = [ti for ti in out[v] if not is_goal(ti)]
        for ti in non_goal:
            w = lts.transitions[ti].dst
            if w in on_path:
                return True
            if bad_from(w, on_path | {w}):
                return True
        return False

    for ti, t in enumerate(lts.transitions):
        if t.event.tag() == trigger_tag and t.event.sender == trigger_sender:
            if is_goal(ti):
                continue
            if bad_from(t.dst, frozenset({t.dst})):
                return False
    return True


def rand_edges(rng, max_nodes=25):
    """(n, edges) of a random graph for `make_lts`."""
    n = rng.randrange(2, max_nodes)
    edges = []
    tags = ["t", "g", "a", "b"]
    # a sparse random graph, connected enough to be interesting
    for src in range(n):
        for _ in range(rng.randrange(0, 3)):
            edges.append((src, rng.randrange(n), rng.randrange(2), rng.choice(tags)))
    return n, edges


def rand_lts(rng, max_nodes=25):
    return make_lts(*rand_edges(rng, max_nodes))


class TestLeadsToOracle:
    def run_case(self, n, edges):
        """Leads-to agrees with the oracle, and reachable finds the first
        matching edge, whether equal events are one object or several."""
        prop = LeadsTo(Sent("P", "t"), (Received("Q", "g"),))
        # Q receives every event that P sends
        first = next((i for i, (_, _, sender, tag) in enumerate(edges) if (sender, tag) == (0, "g")), None)
        verdicts = []
        for shared in (False, True):
            lts = make_lts(n, edges, shared)
            got = check_leads_to("x", prop, lts).status
            want = "holds" if oracle_leads_to(lts, "t", {"g"}) else "fails"
            assert got == want
            reach = check_reachable("r", Reachable(Received("Q", "g")), lts)
            assert reach.status == ("fails" if first is None else "holds")
            if first is not None:
                assert reach.witness[-1] == describe_transition(lts, first)
            verdicts.append((got, reach))
        assert verdicts[0] == verdicts[1]

    def test_hand_cases(self):
        # trigger then dead end: fails
        self.run_case(3, [(0, 1, 0, "t"), (1, 2, 0, "a")])
        # trigger then goal: holds
        self.run_case(3, [(0, 1, 0, "t"), (1, 2, 0, "g")])
        # trigger then goal-free cycle: fails
        self.run_case(3, [(0, 1, 0, "t"), (1, 2, 0, "a"), (2, 1, 0, "a")])
        # cycle broken only by goal edge: holds
        self.run_case(3, [(0, 1, 0, "t"), (1, 2, 0, "g"), (2, 1, 0, "a")])

    def test_random_lts_agreement(self):
        rng = random.Random(4242)
        for _ in range(60):
            self.run_case(*rand_edges(rng))
