"""Canonical-key deduplication against deduplication on the raw state.

`explore` identifies states by `state_key`, which canonicalises each
component's process up to reordering of `|` and `+`.  Exploring with the
raw `SystemState` as the key gives the unreduced system; the two must be
strongly bisimilar on full transition labels.
"""
import random

import pytest

from conftest import fixture_path

from _bisim import bisimilar
from test_acceptance import load, mini_corpus, rand_spec_ast
from test_explorer import make_lts

from abclang import explorer
from abclang.evaluator import EvalError
from abclang.explorer import explore

# After "a" or "b", component A runs Q | R or R | Q: one canonical state,
# two raw ones.
REORDERED = """
proc Q = ("q")@(tt).0
proc R = ("r")@(tt).0
proc W = (x = "q")(x).W + (x = "r")(x).W
component A { attrs { } interface { } run ("a")@(tt).(Q | R) + ("b")@(tt).(R | Q) }
component B { attrs { } interface { } run W }
"""


@pytest.fixture
def explore_raw(monkeypatch):
    def run(spec, **kw):
        with monkeypatch.context() as m:
            m.setattr(explorer, "state_key", lambda state: state)
            return explore(spec, **kw)

    return run


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
    specs = {name: load(fixture_path(name)) for name in ["ping.abc", "choice.abc", "fake3.abc"]}
    specs["mini corpus"] = mini_corpus(corpus_spec)
    specs["reordered"] = load(REORDERED, is_path=False)
    sizes = {}
    for name, spec in specs.items():
        reduced, raw = explore(spec), explore_raw(spec)
        assert not reduced.truncated and not raw.truncated, name
        assert bisimilar(reduced, raw), name
        sizes[name] = (len(reduced.states), len(raw.states))
    assert sizes["reordered"] == (6, 9)


def test_fuzz_specs(explore_raw):
    rng = random.Random(2024)
    compared = 0
    for _ in range(150):
        spec = rand_spec_ast(rng)
        try:
            reduced = explore(spec, max_states=300)
            raw = explore_raw(spec, max_states=300)
        except EvalError:
            continue  # unguarded recursion or a failing evaluation
        if reduced.truncated or raw.truncated:
            continue
        assert bisimilar(reduced, raw)
        compared += 1
    assert compared >= 40
