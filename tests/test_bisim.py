"""The state-space reductions against the unreduced systems.

`explore` identifies states by `state_key`, which numbers each
component's process up to reordering of `|` and `+` and drops `0`
operands of `|`, as its canonical text does.  Exploring with the raw `SystemState` as the key gives
the unreduced system; the two must be strongly bisimilar on behaviour
labels (see `behaviour_label`), and on the fixtures also on full
transition labels.  Full labels can tell them apart when two copies of
one process run in parallel: raw states `P' | P` and `P | P'` are one
canonical state, and the copy that receives next has a different
branch ordinal in each layout.

Call closures keep only the names their definition reads
(`validate.call_needs`).  Exploring with whole closures must give a
system bisimilar on behaviour labels, which leave out the receivers'
branch ordinals (see `behaviour_label`).

Awareness and receive guards are judged where they stand.  Closing each
guard in the judging component's environment first must give the same
transition system, byte for byte.

A run keeps each component's occurrences in its record, and a receive
skips the inputs whose message key the broadcast fails.  Walking each
process afresh and judging every input must also give the same
transition system, byte for byte.

A run shares one event object among the transitions with the same
broadcast and outcome.  Exploring with an event table that keeps
nothing must give equal events, transition by transition.

`system_steps` judges each label's target predicate once per exposed
environment, and builds a transition only when it is read.  An eager
expansion that asks `in_step` about every pair (`eager_steps`) must give
the same transitions in the same order, by index and by iteration.
"""
import itertools
import random

import pytest

from conftest import fixture_path

from _bisim import behaviour_label, bisimilar
from _gen import rand_reducible_spec
from _walk import reference_occurrences
from test_acceptance import load, mini_corpus, rand_spec_ast
from test_explorer import gen_corpus, make_lts
from test_sim_cli import CHAIN_CONTINUATIONS

from abclang import explorer, semantics, simulator
from abclang.evaluator import EvalError, close, satisfies
from abclang.explorer import check_property, explore
from abclang.semantics import Run, in_step, out_steps, system_steps
from abclang.simulator import simulate
from abclang.terms import (
    EMPTY_SUBST, BroadcastEvent, EnumDomain, Inact, Input, Par, VInt, VStr, _operands, state_key,
    subterms,
)

# After "a" or "b", component A runs Q | R or R | Q: one canonical state,
# two raw ones.  W's received x is read by nothing, so W's closure is empty.
REORDERED = """
proc Q = ("q")@(tt).0
proc R = ("r")@(tt).0
proc W = (x = "q")(x).W + (x = "r")(x).W
component A { attrs { } interface { } run ("a")@(tt).(Q | R) + ("b")@(tt).(R | Q) }
component B { attrs { } interface { } run W }
"""


# After "a" or "b", B runs W with a closure binding x to the tag; W does
# not read x, so trimming merges the two states.
DEAD_BINDING = """
proc W = ("done")@(tt).0
component A { attrs { } interface { } run ("a")@(tt).0 + ("b")@(tt).0 }
component B { attrs { } interface { } run (tt)(x).W }
"""

# G reads its closure's v only in its input guard: dropping v would make
# `n = v` a reference to the sender's (absent) attribute v, and B would
# never receive ("m", 1).
GUARD_ONLY = """
proc G = (x = "m" && n = v)(x, n).("got", n)@(tt).0
component A { attrs { } interface { } run ("v", 1)@(tt).("m", 2)@(tt).("m", 1)@(tt).0 }
component B { attrs { } interface { } run (x = "v")(x, v).G }
"""


# Each name a guard reads has its own value: the message's x is 2, the
# sender's exposed k is 1, and each receiver's own k is 3.  R's guards
# hold only as wired: the receive guard reads x from the message, bare k
# from the sender and this.k from R, and the awareness guard reads both k
# and this.k from R.  R2's receive guard holds only with the sender's and
# the receiver's environments swapped.
WIRED = """
component S { attrs { k = 1; } interface { k } run ("m", 2)@(tt).0 }
component R { attrs { k = 3; } interface { }
  run <k = 3 && this.k = 3> (t = "m" && x = 2 && k = 1 && this.k = 3)(t, x).("got", x)@(tt).0 }
component R2 { attrs { k = 3; } interface { }
  run (t = "m" && x = 2 && k = 3 && this.k = 1)(t, x).("got", x)@(tt).0 }
property r_receives = reachable sent(R, "got")
property r2_receives = reachable sent(R2, "got")
"""


@pytest.fixture
def explore_raw(monkeypatch):
    def run(spec, **kw):
        with monkeypatch.context() as m:
            m.setattr(explorer, "state_key", lambda state, numbering: state)
            return explore(spec, **kw)

    return run


@pytest.fixture
def explore_untrimmed(monkeypatch):
    """`explore` with call closures that keep every binding in scope."""
    of_spec = Run.of_spec

    def untrimmed(spec):
        run = of_spec(spec)
        return Run(run.defs, run.externs, None)

    def run(spec, **kw):
        with monkeypatch.context() as m:
            m.setattr(Run, "of_spec", untrimmed)
            return explore(spec, **kw)

    return run


def untabled(m):
    """Within the monkeypatch context `m`: every occurrence list is walked
    afresh (`_walk.reference_occurrences`), and every message key is empty,
    so each input whose arity matches is judged."""
    m.setattr(semantics, "_occurrences", reference_occurrences)
    m.setattr(Input, "message_key", property(lambda self: ()))


@pytest.fixture
def explore_untabled(monkeypatch):
    def run(spec, **kw):
        with monkeypatch.context() as m:
            untabled(m)
            return explore(spec, **kw)

    return run


class Forgetful(dict):
    """An event table that keeps nothing."""

    def __setitem__(self, key, value):
        pass


@pytest.fixture
def explore_unshared(monkeypatch):
    """`explore` with a run whose event table keeps nothing, so each
    candidate of each state makes its own events."""
    of_spec = Run.of_spec

    def unshared(spec):
        run = of_spec(spec)
        run.events = Forgetful()
        return run

    def run(spec, **kw):
        with monkeypatch.context() as m:
            m.setattr(Run, "of_spec", unshared)
            return explore(spec, **kw)

    return run


def fixture_specs(corpus_spec):
    specs = {name: load(fixture_path(name)) for name in ["ping.abc", "choice.abc", "fake3.abc"]}
    specs["mini corpus"] = mini_corpus(corpus_spec)
    specs["reordered"] = load(REORDERED, is_path=False)
    specs.update((name, load(src, is_path=False)) for name, (src, _) in CHAIN_CONTINUATIONS.items())
    return specs


def test_refinement_separates_when_choice_is_made():
    # a.(b + c) against a.b + a.c: same traces, not bisimilar
    late = make_lts(4, [(0, 1, 0, "a"), (1, 2, 0, "b"), (1, 3, 0, "c")])
    early = make_lts(5, [(0, 1, 0, "a"), (0, 2, 0, "a"), (1, 3, 0, "b"), (2, 4, 0, "c")])
    assert not bisimilar(late, early)
    assert bisimilar(late, late)
    # unfolding a loop once keeps bisimilarity
    loop = make_lts(1, [(0, 0, 0, "a")])
    assert bisimilar(loop, make_lts(2, [(0, 1, 0, "a"), (1, 0, 0, "a")]))
    assert not bisimilar(loop, make_lts(2, [(0, 1, 0, "a")]))


def test_fixtures_and_mini_corpus(corpus_spec, explore_raw):
    sizes = {}
    for name, spec in fixture_specs(corpus_spec).items():
        reduced, raw = explore(spec), explore_raw(spec)
        assert not reduced.truncated and not raw.truncated, name
        assert bisimilar(reduced, raw), name
        sizes[name] = (len(reduced.states), len(raw.states))
    # when Q or R fires, A runs the other call alone in normal form, not
    # `0 | R` or `R | 0`: A's raw processes are its run clause, Q | R,
    # R | Q, R, Q and 0
    assert sizes["reordered"] == (5, 6)
    assert {sizes[name] for name in CHAIN_CONTINUATIONS} == {(1, 1)}


def test_number_keys_and_texts_are_in_bijection(corpus_spec, monkeypatch):
    """Over every state `explore` keys, the reached ones and the
    successors it merges into them, a number key and a text key
    determine each other, and so do a component's number and text: so
    deduplicating by number is deduplicating by text."""
    specs = [(spec, {}) for spec in fixture_specs(corpus_spec).values()]
    specs.append((load(fixture_path("travel-booking.abc")), {}))
    variant = gen_corpus().corpus_variant
    specs += [(load(variant(n, m, rooms=n), is_path=False), {}) for n, m in [(2, 1), (2, 2), (3, 2)]]
    rng = random.Random(13)
    specs += [(load(rand_reducible_spec(rng), is_path=False), dict(max_states=300)) for _ in range(100)]
    key, merged = explorer.state_key, 0
    for spec, limits in specs:
        keyed, components = set(), set()

        def both(state, numbering):
            number = key(state, numbering)
            keyed.add((number, state_key(state)))
            components.update((numbering.component(c), c.text) for c in state)
            return number

        with monkeypatch.context() as m:
            m.setattr(explorer, "state_key", both)
            lts = explore(spec, **limits)
        for pairs in (keyed, components):
            assert len(pairs) == len({n for n, _ in pairs}) == len({t for _, t in pairs})
        assert len(keyed) >= len(lts.states)
        merged += len(keyed) < len(lts.transitions) + 1
    assert merged >= 80, merged


def test_successors_are_in_normal_form(corpus_spec, monkeypatch):
    """Each process `_rebuild` returns is the chain built by replacing one
    operand at each level of the fired context, with its operands as
    `terms._operands` lists them: in order, with no `|` and no `0`.  In
    more than 1,000 of the 3,268 calls it differs from the nested chain."""
    rebuild, calls = semantics._rebuild, []

    def checked(ctx, p):
        q, nested = rebuild(ctx, p), p
        while ctx is not None:
            ctx, siblings, i = ctx
            nested = Par(siblings[:i] + (nested,) + siblings[i + 1:])
        parts = _operands(nested, Par)
        assert q == (Par(tuple(parts)) if len(parts) > 1 else parts[0] if parts else Inact())
        calls.append(q != nested)
        return q

    monkeypatch.setattr(semantics, "_rebuild", checked)
    specs = list(fixture_specs(corpus_spec).values()) + [corpus_spec]
    rng = random.Random(13)
    specs += [load(rand_reducible_spec(rng), is_path=False) for _ in range(50)]
    for spec in specs:
        explore(spec, max_states=300)
    assert sum(calls) >= 1000, (len(calls), sum(calls))


def test_tables_and_message_keys_change_no_export(corpus_spec, explore_untabled):
    travel = load(fixture_path("travel-booking.abc"))
    specs = [(spec, {}) for spec in fixture_specs(corpus_spec).values()] + [(travel, {})]
    rng = random.Random(13)
    specs += [(load(rand_reducible_spec(rng), is_path=False), dict(max_states=300)) for _ in range(100)]
    for spec, limits in specs:
        tabled, walked = explore(spec, **limits), explore_untabled(spec, **limits)
        assert tabled.export_text() == walked.export_text()
        # the receivers' branch ordinals too, which the export leaves out
        assert [t.event for t in tabled.transitions] == [t.event for t in walked.transitions]
    # the fixture's broker, hotels and customers key their inputs on tags
    keyed = [q for _, body in travel.proc_defs for q in subterms(body)
             if isinstance(q, Input) and q.message_key]
    assert len(keyed) >= 10


def test_shared_events_change_no_transition(corpus_spec, explore_unshared):
    travel = load(fixture_path("travel-booking.abc"))
    specs = [(spec, {}) for spec in fixture_specs(corpus_spec).values()] + [(travel, {})]
    rng = random.Random(13)
    specs += [(load(rand_reducible_spec(rng), is_path=False), dict(max_states=300)) for _ in range(100)]
    for spec, limits in specs:
        shared, fresh = explore(spec, **limits), explore_unshared(spec, **limits)
        assert [t.event for t in shared.transitions] == [t.event for t in fresh.transitions]
    # the table is what shares them
    shared, fresh = explore(travel), explore_unshared(travel)
    objects = [len({id(t.event) for t in lts.transitions}) for lts in (shared, fresh)]
    assert objects == [57, 2_979], objects


def test_trimmed_closures_behave_the_same(corpus_spec, explore_untrimmed):
    specs = fixture_specs(corpus_spec)
    specs["dead binding"] = load(DEAD_BINDING, is_path=False)
    specs["guard only"] = load(GUARD_ONLY, is_path=False)
    sizes = {}
    for name, spec in specs.items():
        trimmed, whole = explore(spec), explore_untrimmed(spec)
        assert not trimmed.truncated and not whole.truncated, name
        assert bisimilar(trimmed, whole, behaviour_label), name
        sizes[name] = (len(trimmed.states), len(whole.states))
    assert sizes["dead binding"] == (3, 4)
    got = [t for t in explore(specs["guard only"]).transitions if t.event.tag() == "got"]
    assert [t.event.message for t in got] == [(VStr("got"), VInt(1))]


def test_fuzz_specs(explore_raw, explore_untrimmed):
    rng = random.Random(2024)
    compared = 0
    for _ in range(150):
        spec = rand_spec_ast(rng)
        try:
            reduced = explore(spec, max_states=300)
            raw = explore_raw(spec, max_states=300)
            whole = explore_untrimmed(spec, max_states=300)
        except EvalError:
            continue  # unguarded recursion or a failing evaluation
        if reduced.truncated or raw.truncated or whole.truncated:
            continue
        assert bisimilar(reduced, raw)
        assert bisimilar(reduced, whole, behaviour_label)
        compared += 1
    assert compared >= 40


def test_generated_specs(explore_raw, explore_untrimmed, monkeypatch):
    """Specs that reach the reductions by construction (see
    `rand_reducible_spec`): canonical keying, closure trimming and the
    run's memo, each against the system without it, and the memo also
    without occurrence tables and message keys."""
    rng = random.Random(13)
    counts = dict(compared=0, merged=0, trimmed=0)
    for _ in range(100):
        spec = load(rand_reducible_spec(rng), is_path=False)
        reduced = explore(spec, max_states=300)
        raw = explore_raw(spec, max_states=300)
        whole = explore_untrimmed(spec, max_states=300)
        if reduced.truncated or raw.truncated or whole.truncated:
            continue
        with monkeypatch.context() as m:
            m.setattr(explorer, "system_steps",
                      lambda state, run: system_steps(state, Run(run.defs, run.externs, run.needs)))
            fresh = explore(spec, max_states=300)
            untabled(m)
            fresh_untabled = explore(spec, max_states=300)
        assert bisimilar(reduced, raw, behaviour_label)
        assert bisimilar(reduced, whole, behaviour_label)
        assert fresh.export_text() == reduced.export_text()
        assert fresh_untabled.export_text() == reduced.export_text()
        counts["compared"] += 1
        counts["merged"] += len(raw.states) > len(reduced.states)
        counts["trimmed"] += len(whole.states) > len(reduced.states)
    assert counts["compared"] >= 90 and counts["merged"] >= 30 and counts["trimmed"] >= 10, counts


def eager_steps(state, run):
    """The reference step relation: every candidate of every sender, each
    delivered to every other component through a full `in_step`, and every
    transition built at once, in the order `system_steps` promises."""
    steps = []
    for i, sender in enumerate(state):
        for cand in out_steps(sender, run):
            receivers, discarded = [], set()
            for j, other in enumerate(state):
                if j != i:
                    r = in_step(other, cand.exposed_env, cand.sent_pred, cand.message, run)
                    if r.is_receive:
                        receivers.append((j, r.successors))
                    else:
                        discarded.add(j)
            for combo in itertools.product(*(choice for _, choice in receivers)):
                succ = list(state)
                succ[i] = cand.successor
                for (j, _), (_, c) in zip(receivers, combo):
                    succ[j] = c
                received = frozenset((j, ordinal) for (j, _), (ordinal, _) in zip(receivers, combo))
                event = BroadcastEvent(i, cand.message, cand.sent_pred, cand.exposed_env,
                                       received, frozenset(discarded))
                steps.append((event, tuple(succ)))
    return steps


def test_steps_match_an_eager_expansion(corpus_spec):
    specs = list(fixture_specs(corpus_spec).values())
    specs.append(load(fixture_path("travel-booking.abc")))
    specs += [load(gen_corpus().corpus_variant(2, m, rooms=2), is_path=False) for m in (1, 2)]
    rng = random.Random(13)
    specs += [load(rand_reducible_spec(rng), is_path=False) for _ in range(100)]
    compared = 0
    for spec in specs:
        lazy, eager = Run.of_spec(spec), Run.of_spec(spec)
        for state in explore(spec, max_states=300).states:
            steps = system_steps(state, lazy)
            want = eager_steps(state, eager)
            # read by index from the back first, so no transition is
            # built by iteration before it is read by index
            by_index = [steps[k] for k in reversed(range(len(steps)))][::-1]
            listed = list(steps)
            assert len(steps) == len(listed) == len(want)
            assert listed == by_index == want
            assert all(a[0] is b[0] for a, b in zip(listed, by_index))
            if steps:
                assert steps[-1] == steps[len(steps) - 1]
            with pytest.raises(IndexError):
                steps[len(steps)]
            compared += len(steps)
    assert compared > 10_000


def test_simulate_builds_only_the_step_it_takes(corpus_source, monkeypatch):
    made, per_step = [], []
    monkeypatch.setattr(semantics, "BroadcastEvent",
                        lambda *args, **kw: made.append(1) or BroadcastEvent(*args, **kw))

    def counted(state, run):
        per_step.append(len(made))
        made.clear()
        return system_steps(state, run)

    monkeypatch.setattr(simulator, "system_steps", counted)
    for source in (corpus_source, gen_corpus().corpus_variant(2, 2, rooms=2)):
        spec = load(source, is_path=False)
        for seed in range(5):
            assert simulate(spec, source, seed, 200).termination == "deadlock"
    assert max(per_step) == 1 and sum(per_step) > 100


def closing_judge(env, p, externs=None, chooser=None, subst=EMPTY_SUBST, this=None):
    """The reference guard judgement: close the guard in the judging
    component's environment (`this`, or `env` when it is None), then
    judge the closed guard.  Enumerated externs are hidden from `close`,
    which would draw them, so each is drawn when the judgement reaches
    it, as in the judgement in place."""
    fixed = {n: e for n, e in (externs or {}).items() if not isinstance(e, EnumDomain)}
    return satisfies(env, close(p, env if this is None else this, subst, fixed, chooser), externs, chooser)


def test_guards_judged_in_place_as_if_closed_first(corpus_spec, monkeypatch):
    specs = [(spec, {}) for spec in fixture_specs(corpus_spec).values()]
    specs.append((load(fixture_path("travel-booking.abc")), {}))
    rng = random.Random(13)
    specs += [(load(rand_reducible_spec(rng), is_path=False), dict(max_states=300)) for _ in range(100)]
    receives = 0
    for spec, limits in specs:
        in_place = explore(spec, **limits)
        with monkeypatch.context() as m:
            m.setattr(semantics, "satisfies", closing_judge)
            closing = explore(spec, **limits)
        assert in_place.export_text() == closing.export_text()
        receives += any(t.event.receivers for t in in_place.transitions)
    assert receives >= 45


def test_guards_read_the_message_the_sender_and_the_receiver():
    # hand-derived: the broadcast reaches R and not R2, so R sends "got"
    spec = load(WIRED, is_path=False)
    lts = explore(spec)
    verdicts = {name: check_property(name, prop, lts).status for name, prop in spec.properties}
    assert verdicts == {"r_receives": "holds", "r2_receives": "fails"}
    assert (len(lts.states), len(lts.transitions)) == (3, 2)
