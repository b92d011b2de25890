"""Structural term model: values, environments, canonical forms, hashing."""
import dataclasses
import inspect
import random
import weakref

import pytest

from _gen import rand_component, rand_env, rand_proc, rand_subst, rand_value, reshuffle

from abclang import terms
from abclang.evaluator import substitute_proc
from abclang.terms import (
    EMPTY_SUBST,
    And,
    AtomApply,
    Attr,
    Call,
    Choice,
    ComponentState,
    Env,
    Inact,
    Literal,
    Not,
    Numbering,
    Or,
    Output,
    Par,
    Record,
    Span,
    Subst,
    TruePred,
    UNDEF,
    VFloat,
    VInt,
    VSet,
    VStr,
    ZERO,
    ser_pred,
    ser_proc,
    ser_value,
    state_hash,
    state_key,
    subterms,
)
from abclang.parser import Diagnostic, parse_pred_str, parse_process_str
from abclang.pretty import pp_pred


def test_subterms_is_a_preorder_with_calls_as_leaves():
    p = parse_process_str("<a = 1> (x, f(y))@(tt).[b[i] := 2] K | 0")
    assert [type(q).__name__ for q in subterms(p)] == [
        "Par", "Aware", "AtomApply", "Attr", "Literal",
        "Output", "Attr", "Apply", "Attr", "TruePred",
        "Update", "Attr", "Literal", "Call", "Inact",
    ]
    call = Call("K", Subst.of({"v": VInt(1)}))
    assert list(subterms(call)) == [call]


@pytest.mark.parametrize("source, canonical", [
    ("a <= this.b", "C<=(Aa[],Tb[])"),
    ("x in {1, 2}", "M(Ax[],L{i1,i2})"),
    ('near(loc, "rome")', "Pnear(Aloc[],Ls'rome')"),
])
def test_an_atom_prints_by_its_name(source, canonical):
    # a comparison, an `in` atom and a predicate call are one record,
    # AtomApply, and both printers tell them apart by the atom's name
    p = parse_pred_str(source)
    assert isinstance(p, AtomApply)
    assert (ser_pred(p), pp_pred(p)) == (canonical, source)
    assert (ser_pred(Not(p)), pp_pred(Not(p))) == (f"!({canonical})", f"!({source})")


def test_subterms_of_a_deep_term():
    p = Inact()
    for _ in range(5000):
        p = Output((), TruePred(), (), p)
    assert sum(isinstance(q, Output) for q in subterms(p)) == 5000


def test_values_hashable_and_equal():
    assert VInt(3) == VInt(3)
    assert VInt(3) != VInt(4)
    assert VSet.of([VInt(1), VInt(1), VInt(2)]) == VSet.of([VInt(2), VInt(1)])
    assert UNDEF == UNDEF
    assert {VStr("a"): 1}[VStr("a")] == 1


def test_ser_value_totally_orders_mixed_values():
    rng = random.Random(5)
    vals = [rand_value(rng) for _ in range(200)]
    keys = sorted(ser_value(v) for v in vals)
    assert keys == sorted(keys)
    # distinct values never collide on their serialization
    for v in vals:
        for w in vals:
            if ser_value(v) == ser_value(w):
                assert v == w


def test_env_lookup_distinguishes_absent_from_undef():
    env = Env.of({("a", ()): UNDEF})
    assert env.lookup("a") == UNDEF
    assert env.lookup("b") is None
    assert env.has("a") and not env.has("b")


def test_env_entries_sorted_regardless_of_insertion_order():
    e1 = Env.of({("b", ()): VInt(1), ("a", ()): VInt(2)})
    e2 = Env.of({("a", ()): VInt(2), ("b", ()): VInt(1)})
    assert e1 == e2


def test_env_indexed_keys_are_independent():
    env = Env.of({("room", (VInt(5),)): VInt(2)})
    env2 = env.updated("room", (VInt(6),), VInt(9))
    assert env2.lookup("room", (VInt(5),)) == VInt(2)
    assert env2.lookup("room", (VInt(6),)) == VInt(9)
    assert env.lookup("room", (VInt(6),)) is None


def reference_lookup(env, name, index=()):
    """`Env.lookup` as a dict of the entries."""
    return dict(env.entries).get((name, index))


def reference_updated(env, name, index, value):
    """`Env.updated` as a dict of the entries, stored and sorted again."""
    d = dict(env.entries)
    d[(name, index)] = value
    return Env(tuple(sorted(d.items(), key=lambda kv: (kv[0][0], tuple(ser_value(v) for v in kv[0][1])))))


def test_env_lookup_and_updated_agree_with_a_dict_of_the_entries():
    rng = random.Random(41)
    # equal numbers of two types are different keys
    indexes = [(), (VInt(1),), (VFloat(1.0),), (VInt(2),), (VFloat(0.5),), (VInt(1), VInt(2))]
    replaced = inserted = 0
    for _ in range(500):
        env = rand_env(rng)
        for _ in range(rng.randrange(4)):
            env = env.updated(rng.choice("abcm"), rng.choice(indexes), rand_value(rng))
        keys = [k for k, _ in env.entries]
        probes = keys + [(rng.choice("abcmz"), rng.choice(indexes)) for _ in range(6)]
        for name, index in probes:
            assert env.lookup(name, index) == reference_lookup(env, name, index)
            assert env.has(name, index) == ((name, index) in keys)
            value = rand_value(rng)
            got = env.updated(name, index, value)
            assert got.entries == reference_updated(env, name, index, value).entries
            replaced += (name, index) in keys
            inserted += (name, index) not in keys
    assert replaced > 1_000 and inserted > 1_000


def test_subst_extension_shadows():
    # an input binder shadows an outer binding of the same name: the
    # substitution goes under the input without the binders
    s = Subst.of({"x": VInt(2), "y": VInt(3)})
    assert s.without(["y"]).get("y") is None
    assert s.without(["y"]).get("x") == VInt(2)
    assert s.get("y") == VInt(3)
    p = parse_process_str('(tt)(y).("m", x, y)@(tt).0')
    assert substitute_proc(p, s) == parse_process_str('(tt)(y).("m", 2, y)@(tt).0')


def test_canonicalize_sorts_par():
    # C | B | A | 0 has the canonical text of the sorted chain
    # A | (B | C): the operands are reordered and the 0 is dropped, and
    # nested chains are flattened
    a, b, c = Call("A"), Call("B"), Call("C")
    assert ser_proc(Par((c, b, a, Inact()))) == "|(KA{},|(KB{},KC{}))"
    assert ser_proc(Par((c, Par((b, Par((a, Inact()))))))) == "|(KA{},|(KB{},KC{}))"
    assert ser_proc(Par((a, Par((b, Inact(), c))))) == "|(KA{},|(KB{},KC{}))"
    assert ser_proc(Par((Par((b, c)), a))) == "|(KA{},|(KB{},KC{}))"


def test_canonicalize_drops_inactive_par_operands():
    p = parse_process_str('("a")@(tt).0 + (x = "b")(x).(0 | K)')
    assert ser_proc(p) == "+(in(C=(Ax[],Ls'b'))(x).[]KK{},out(Ls'a')@(tt).[]0)"
    assert ser_proc(Par((p, Inact()))) == ser_proc(p)
    assert state_key((ComponentState("C", Env(), frozenset(), Par((Inact(), p))),)) == state_key(
        (ComponentState("C", Env(), frozenset(), p),)
    )
    assert ser_proc(Par((Inact(), Inact()))) == "0"
    assert ser_proc(Par((Inact(), Par((Inact(), Inact()))))) == "0"


def test_canonicalize_identity_on_inact():
    assert ser_proc(Inact()) == "0"
    assert ser_proc(Choice((Inact(), Inact()))) == "+(0,0)"


def test_canonicalize_merges_choice_orders():
    p1 = parse_process_str('("a")@(tt).0 + (x = \"b\")(x).0')
    p2 = parse_process_str('(x = \"b\")(x).0 + ("a")@(tt).0')
    assert ser_proc(p1) == ser_proc(p2) == "+(in(C=(Ax[],Ls'b'))(x).[]0,out(Ls'a')@(tt).[]0)"


def test_collapsed_par_splices_into_choice():
    # (A + B) | 0 is A + B, whose operands join the outer + chain
    a, b, c = Call("A"), Call("B"), Call("C")
    spliced = Choice((Par((Choice((a, b)), Inact())), c))
    assert ser_proc(spliced) == ser_proc(Choice((a, b, c))) == "+(KA{},+(KB{},KC{}))"
    assert ser_proc(Par((Choice((c, Par((Inact(), Choice((b, a)))))), Inact()))) == "+(KA{},+(KB{},KC{}))"
    # a | with two operands left stays one operand of the + chain
    assert ser_proc(Choice((Par((a, Inact(), b)), c))) == "+(KC{},|(KA{},KB{}))"


def test_ser_proc_of_a_deep_term():
    p = Inact()
    for _ in range(5000):
        p = Output((), TruePred(), (), Par((p, Inact())))
    assert ser_proc(p) == "out()@(tt).[]" * 5000 + "0"


@pytest.mark.parametrize("op", ["|", "+"])
def test_a_long_chain_compares_hashes_and_prints(op):
    # a chain is one node over its operands, so `==`, `hash` and `repr`
    # of a chain of 1,500 operands go one level deep
    source = f" {op} ".join(['("a")@(tt).0'] * 1500)
    p, q = parse_process_str(source), parse_process_str(source)
    assert p == q and hash(p) == hash(q)
    assert p != parse_process_str(source + f' {op} ("b")@(tt).0')
    assert repr(p).count("Output(") == 1500 and repr(p) == repr(q)
    assert len(p.operands) == 1500


def test_state_key_ignores_component_internals_order():
    rng = random.Random(11)
    env, subst = rand_env(rng), rand_subst(rng)
    c1 = ComponentState("C", env, frozenset(), Par((Call("B", subst), Call("A"))))
    c2 = ComponentState("C", env, frozenset(), Par((Call("A"), Call("B", subst))))
    assert state_key((c1,)) == state_key((c2,))
    assert state_hash((c1,)) == state_hash((c2,))


def test_numbers_follow_the_canonical_text():
    # equal numbers exactly for equal texts, in one numbering, also for
    # terms regrouped and reordered under `|` and `+` and given `| 0`s
    rng = random.Random(5)
    numbering = Numbering()
    procs = [rand_proc(rng, rand_env(rng), rand_subst(rng)) for _ in range(300)]
    procs += [reshuffle(rng, p) for p in procs]
    pairs = {(numbering.proc(p), ser_proc(p)) for p in procs}
    assert len(pairs) == len({n for n, _ in pairs}) == len({t for _, t in pairs}) > 100
    components = [rand_component(rng, rng.choice("CD")) for _ in range(300)]
    pairs = {(state_key((c,), numbering), state_key((c,))) for c in components}
    assert len(pairs) == len({n for n, _ in pairs}) == len({t for _, t in pairs}) > 100


def test_numberings_share_terms_but_not_numbers():
    # two numberings take the same term objects in turn, in opposite
    # orders: each reads only the numbers it wrote
    a = Output((Literal(VStr("a")),), TruePred(), (), ZERO)
    b = Output((Literal(VStr("b")),), TruePred(), (), ZERO)
    procs = [a, b, Par((a, b)), Choice((a, b)), Choice((b, a))]
    first, second = Numbering(), Numbering()
    for p, q in zip(procs, reversed(procs)):
        first.proc(p)
        second.proc(q)
    for numbering in (first, second):
        numbers = [numbering.proc(p) for p in [ZERO] + procs]
        assert len(set(numbers)) == 5 and numbers[-1] == numbers[-2]
        assert len(numbering.keys) == 5


def test_state_key_distinguishes_envs():
    c1 = ComponentState("C", Env.of({"a": VInt(1)}), frozenset(), Inact())
    c2 = ComponentState("C", Env.of({"a": VInt(2)}), frozenset(), Inact())
    assert state_key((c1,)) != state_key((c2,))


def test_state_hash_is_stable_text():
    c = ComponentState("C", Env.of({"a": VInt(1)}), frozenset(["a"]), Inact())
    h = state_hash((c,))
    assert isinstance(h, str) and len(h) == 16
    assert h == state_hash((c,))


def test_spans_do_not_affect_equality():
    p1 = parse_process_str('("a")@(tt).0')
    p2 = parse_process_str('  ("a")@(tt).0')
    assert p1 == p2
    assert Attr("a", ()) == Attr("a", ())


RECORDS = [
    c for c in vars(terms).values()
    if isinstance(c, type) and issubclass(c, Record) and c is not Record
] + [Diagnostic]


def some_record(cls):
    """An instance of `cls` whose fields hold distinct values; a span
    field holds a span."""
    names = list(inspect.signature(cls).parameters)
    return cls(*(Span("f", i, 1, i, 2) if n == "span" else VInt(i) for i, n in enumerate(names))), names


def test_spans_are_left_out_of_eq_hash_and_repr():
    here, there = Span("a", 1, 1, 1, 2), Span("b", 7, 3, 7, 9)
    x, y = Literal(VInt(1), here), Literal(VInt(1), there)
    assert x == y and hash(x) == hash(y)
    assert repr(x) == repr(y) == "Literal(value=VInt(v=1))"
    assert x.span is here and Literal(VInt(1)).span is None


def test_record_hash_is_the_hash_of_its_compared_fields():
    assert len(RECORDS) == 41
    for cls in RECORDS:
        r, names = some_record(cls)
        # a Diagnostic's span is an ordinary field; a term's span is not compared
        compared = [n for n in names if n != "span" or cls is Diagnostic]
        assert hash(r) == hash(tuple(getattr(r, n) for n in compared)), cls
        assert r == some_record(cls)[0], cls


def test_records_of_different_classes_differ():
    a, b = TruePred(), Attr("x")
    assert And(a, b) != Or(a, b)
    assert not And(a, b) == Or(a, b)


def test_records_are_immutable():
    r = Attr("x")
    with pytest.raises(AttributeError):
        r.name = "y"
    with pytest.raises(AttributeError):
        del r.name
    assert r.name == "x"


def test_keyword_construction_and_defaults():
    assert Attr("x") == Attr(name="x") == Attr("x", ())
    assert Attr("x").index == () and Attr("x").span is None
    assert Call("P").closure is EMPTY_SUBST
    assert Call(name="P", closure=Subst.of({"v": VInt(1)})).closure.get("v") == VInt(1)
    with pytest.raises(TypeError):
        Attr()


def test_float_records_have_one_zero():
    assert repr(VFloat(-0.0).v) == "0.0"
    assert repr(VFloat(-0.0)) == "VFloat(v=0.0)"


def test_records_can_be_weakly_referenced():
    r = Attr("x")
    assert weakref.ref(r)() is r


def test_no_term_class_is_a_dataclass():
    assert not [c for c in vars(terms).values() if isinstance(c, type) and dataclasses.is_dataclass(c)]
