"""Expression evaluation, closure, satisfaction, restriction, updates."""
import math
import random

import pytest

from _gen import rand_env, rand_expr, rand_pred, rand_subst

from abclang.evaluator import (
    EvalError,
    ScriptedChooser,
    ThisAttrError,
    all_runs,
    apply_updates,
    close,
    close_expr,
    compare_values,
    evaluate,
    satisfies,
)
from abclang.parser import parse_expr_str, parse_pred_str
from abclang.simulator import json_to_value
from abclang.terms import (
    Apply,
    Attr,
    AtomApply,
    EnumDomain,
    Env,
    FalsePred,
    Literal,
    Subst,
    TableFn,
    ThisAttr,
    UNDEF,
    Update,
    VBool,
    VFloat,
    VInt,
    VSet,
    VStr,
    VTuple,
    ser_value,
    subterms,
)


def env_of(**kw):
    return Env.of({k: v for k, v in kw.items()})


class TestEvaluate:
    def test_attr_lookup(self):
        assert evaluate(Attr("price", ()), env_of(price=VInt(100))) == VInt(100)

    def test_commission_arithmetic(self):
        # p * 0.10 over p bound to 200 must yield the float 20.0
        e = Apply("*", (Attr("p", ()), Literal(VFloat(0.10))))
        v = evaluate(e, Env(), Subst.of({"p": VInt(200)}))
        assert v == VFloat(20.0)

    def test_indexed_decrement(self):
        e = parse_expr_str("room[3] - 1")
        env = Env.of({("room", (VInt(3),)): VInt(2)})
        assert evaluate(e, env) == VInt(1)

    def test_table_extern_lookup(self):
        tbl = TableFn.of({(VStr("rome"),): VInt(2)})
        e = Apply("get_hotels", (Literal(VStr("rome")),))
        assert evaluate(e, Env(), externs={"get_hotels": tbl}) == VInt(2)

    def test_table_extern_missing_entry_errors(self):
        tbl = TableFn.of({(VStr("rome"),): VInt(2)})
        e = Apply("get_hotels", (Literal(VStr("paris")),))
        with pytest.raises(EvalError):
            evaluate(e, Env(), externs={"get_hotels": tbl})

    def test_absent_attribute_errors(self):
        with pytest.raises(EvalError):
            evaluate(Attr("gone", ()), Env())

    def test_ordered_comparison_with_undef_errors(self):
        e = Apply("<", (Attr("a", ()), Literal(VInt(3))))
        with pytest.raises(EvalError):
            evaluate(e, env_of(a=UNDEF))

    def test_equality_with_undef_is_total(self):
        eq = Apply("=", (Attr("a", ()), Literal(UNDEF)))
        assert evaluate(eq, env_of(a=UNDEF)) == VBool(True)
        ne = Apply("!=", (Attr("a", ()), Literal(UNDEF)))
        assert evaluate(ne, env_of(a=VInt(1))) == VBool(True)

    def test_int_division_gives_float(self):
        assert evaluate(parse_expr_str("7 / 2"), Env()) == VFloat(3.5)

    def test_division_by_zero_errors(self):
        with pytest.raises(EvalError):
            evaluate(parse_expr_str("1 / 0"), Env())

    def test_diff_builtin(self):
        assert evaluate(parse_expr_str("diff(3, 10)"), Env()) == VInt(7)

    def test_one_zero(self):
        # -0.0 == 0.0 with equal hashes, so no key or text may tell them apart
        zeros = [VFloat(-0.0), json_to_value(["float", -0.0])] + [
            evaluate(parse_expr_str(src), Env())
            for src in ["-0.0", "neg(0.0)", "0.0 * -1.0", "diff(-0.0, 0.0)"]
        ]
        for z in zeros:
            assert math.copysign(1.0, z.v) == 1.0 and ser_value(z) == "f0.0"

    def test_numbers_compare_exactly(self):
        # 2**53 + 1 is no double: compared through float() it equals 2**53
        odd, even = VInt(2**53 + 1), VInt(2**53)
        assert not compare_values("=", odd, even) and compare_values("!=", odd, VFloat(2.0**53))
        assert compare_values(">", odd, VFloat(2.0**53)) and compare_values("<=", even, VFloat(2.0**53))
        member = Apply("in", (Literal(odd), Literal(VSet.of([VFloat(2.0**53)]))))
        assert evaluate(member, Env()) == VBool(False)
        # an integer too large for a double compares without overflow
        huge = VInt(10**400)
        assert compare_values(">", huge, VFloat(1.5)) and compare_values("!=", huge, VFloat(1e308))
        assert compare_values("=", VInt(3), VFloat(3.0))

    @pytest.mark.parametrize("src", [
        "x + 1.5", "x / 3", "1.5 - x", "diff(x, 0.5)",  # int too large for a double
        "1e308 * 10.0", "1e308 - -1e308", "1e300 / 1e-300",  # not finite
        "y + 1", "neg(y) - 1", "y * y",  # more than 4300 digits
    ])
    def test_arithmetic_out_of_range_errors(self, src):
        env = env_of(x=VInt(10**400), y=VInt(10**4300 - 1))
        with pytest.raises(EvalError):
            evaluate(parse_expr_str(src), env)

    def test_arithmetic_in_range(self):
        env = env_of(x=VInt(10**400), y=VInt(10**4300 - 1))
        assert evaluate(parse_expr_str("x * x"), env) == VInt(10**800)
        assert evaluate(parse_expr_str("y - 1 + 1 - y"), env) == VInt(0)
        assert evaluate(parse_expr_str("1e308 + 1e292"), env) == VFloat(1e308 + 1e292)

    def test_set_membership(self):
        env = env_of(blist=VSet.of([VStr("b1")]))
        member = lambda s: Apply("in", (Literal(VStr(s)), Attr("blist", ())))
        assert evaluate(member("b1"), env) == VBool(True)
        assert evaluate(member("b2"), env) == VBool(False)

    def test_tuple_projection(self):
        e = Apply("proj", (Literal(VTuple((VInt(7), VInt(8)))), Literal(VInt(1))))
        assert evaluate(e, Env()) == VInt(8)

    def test_enum_domain_draw_via_chooser(self):
        dom = EnumDomain.of([VInt(1), VInt(2), VInt(3)])
        e = Apply("pick", ())
        results = all_runs(lambda ch: evaluate(e, Env(), externs={"pick": dom}, chooser=ch))
        assert sorted(results, key=lambda v: v.v) == [VInt(1), VInt(2), VInt(3)]

    def test_enum_domain_without_chooser_errors(self):
        dom = EnumDomain.of([VInt(1)])
        with pytest.raises(EvalError):
            evaluate(Apply("pick", ()), Env(), externs={"pick": dom})


class TestClose:
    def test_freezes_this_attr(self):
        p = AtomApply("=", (Attr("id", ()), ThisAttr("favh", ())))
        c = close(p, env_of(favh=VStr("h1")))
        assert c == AtomApply("=", (Attr("id", ()), Literal(VStr("h1"))))
        assert not any(isinstance(q, ThisAttr) for q in subterms(c))

    def test_leaves_bare_attr_symbolic(self):
        p = parse_pred_str('type = "Broker"')
        assert close(p, Env()) == p

    def test_identity_on_constants(self):
        assert close(FalsePred(), Env()) == FalsePred()

    def test_absent_this_attribute_errors(self):
        with pytest.raises(EvalError):
            close(parse_pred_str("this.gone = 1"), Env())

    def test_resolves_vars_from_subst(self):
        p = parse_pred_str("id = x")
        c = close(p, Env(), Subst.of({"x": VInt(9)}))
        assert c == AtomApply("=", (Attr("id", ()), Literal(VInt(9))))


class TestSatisfies:
    def test_matching_attr(self):
        assert satisfies(env_of(type=VStr("Broker")), parse_pred_str('type = "Broker"'))

    def test_failing_conjunct(self):
        env = env_of(type=VStr("Hotel"), locality=VStr("rome"))
        assert not satisfies(env, parse_pred_str('type = "Hotel" && locality = "paris"'))

    def test_absent_attribute_makes_atom_false(self):
        assert not satisfies(Env(), parse_pred_str("price <= 100"))
        # ... and negation of the false atom is true
        assert satisfies(Env(), parse_pred_str("!(price <= 100)"))

    def test_undef_ordered_comparison_is_false_not_error(self):
        assert not satisfies(env_of(a=UNDEF), parse_pred_str("a < 3"))

    def test_connectives(self):
        env = env_of(a=VInt(1))
        assert satisfies(env, parse_pred_str("a = 1 || a = 2"))
        assert not satisfies(env, parse_pred_str("ff"))
        assert satisfies(env, parse_pred_str("tt"))

    def test_atom_apply_via_boolean_table(self):
        near = TableFn.of({(VStr("rome"), VStr("rome")): VBool(True)})
        p = parse_pred_str('near(loc, "rome")')
        assert satisfies(env_of(loc=VStr("rome")), p, externs={"near": near})
        assert not satisfies(env_of(loc=VStr("paris")), p, externs={"near": near})


class TestJudgeInPlace:
    """A guard is judged where it stands: a bare name reads the other
    party (`env`), a bound name the message (`subst`), and `this.a` the
    judging component (`this`, or `env` when it is None)."""

    def test_each_name_reads_its_party(self):
        p = parse_pred_str('x = "offer" && price <= this.budget')
        sender, receiver = env_of(price=VInt(80)), env_of(budget=VInt(90), price=VInt(99))
        offer = Subst.of({"x": VStr("offer")})
        assert satisfies(sender, p, subst=offer, this=receiver)
        assert not satisfies(sender, p, subst=Subst.of({"x": VStr("no")}), this=receiver)
        assert not satisfies(sender, p, subst=offer, this=env_of(budget=VInt(79)))

    def test_unset_this_attr_is_an_error_not_a_false_atom(self):
        for src in ["this.gone = 1", "!(this.gone = 1)", "ff || this.gone = 1"]:
            with pytest.raises(ThisAttrError, match="attribute gone is not set"):
                satisfies(env_of(gone=VInt(1)), parse_pred_str(src), this=Env())
            with pytest.raises(ThisAttrError):
                satisfies(Env(), parse_pred_str(src))
        # an unset bare attribute reads the other party: the atom is false
        assert satisfies(Env(), parse_pred_str("!(gone = 1)"), this=env_of(gone=VInt(1)))

    def test_an_operand_not_reached_is_not_evaluated(self):
        assert satisfies(Env(), parse_pred_str("tt || this.gone = 1"))
        assert not satisfies(Env(), parse_pred_str("ff && this.gone = 1"))

    def test_error_in_a_this_index_is_the_judges_own(self):
        env = Env.of({("room", (VInt(1),)): VInt(1)})
        for src in ["this.room[1 / 0] = 1", "this.room[this.gone] = 1", "this.room[gone] = 1"]:
            with pytest.raises(ThisAttrError):
                satisfies(env_of(gone=VInt(1)), parse_pred_str(src), this=env)
        assert not satisfies(env, parse_pred_str("room[1 / 0] = 1"))
        # the index of `this.a` reads the judge too
        own = Env.of({("room", (VInt(1),)): VInt(1), ("i", ()): VInt(1)})
        assert satisfies(env_of(i=VInt(2)), parse_pred_str("this.room[i] = 1"), this=own)

    def test_extern_in_a_this_index_is_drawn_only_when_reached(self):
        pick = {"pick": EnumDomain.of([VInt(1), VInt(2), VInt(3)])}
        env = Env.of({("room", (VInt(i),)): VInt(i) for i in (1, 2, 3)})
        judge = lambda src: lambda ch: satisfies(Env(), parse_pred_str(src), pick, ch, this=env)
        assert all_runs(judge("tt || this.room[pick()] = 1")) == [True]
        assert all_runs(judge("ff || this.room[pick()] = 1")) == [True, False, False]


class TestSubstitute:
    """Substitution is closing with no speaker environment."""

    def test_spec_example(self):
        p = parse_pred_str('x = "offer" && op <= p')
        s = Subst.of({"x": VStr("offer"), "op": VInt(90), "p": VInt(100)})
        expected = parse_pred_str('"offer" = "offer" && 90 <= 100')
        assert close(p, None, s) == expected

    def test_empty_substitution_is_identity(self):
        p = parse_pred_str("a < b && this.c = 1")
        assert close(p, None, Subst()) is p

    def test_unbound_stay_symbolic(self):
        p = parse_pred_str("a = x")
        assert close(p, None, Subst.of({"y": VInt(1)})) == p


class TestRestrict:
    def test_keeps_named_entries(self):
        env = env_of(id=VStr("h1"), roomPrice=VInt(80), secret=VInt(1))
        r = env.restricted({"id", "roomPrice"})
        assert r == env_of(id=VStr("h1"), roomPrice=VInt(80))

    def test_empty_interface(self):
        assert env_of(a=VInt(1)).restricted(set()) == Env()

    def test_full_interface_is_identity(self):
        env = env_of(a=VInt(1), b=VInt(2))
        assert env.restricted({"a", "b"}) == env

    def test_keeps_all_indices_of_a_name(self):
        env = Env.of({("room", (VInt(1),)): VInt(4), ("room", (VInt(2),)): VInt(5), ("x", ()): VInt(0)})
        r = env.restricted({"room"})
        assert r.lookup("room", (VInt(1),)) == VInt(4)
        assert r.lookup("room", (VInt(2),)) == VInt(5)
        assert not r.has("x")


class TestApplyUpdates:
    def test_counter_increment(self):
        env = Env.of({("cnt", (VStr("c1"),)): VInt(0)})
        up = Update("cnt", (Literal(VStr("c1")),), parse_expr_str('cnt["c1"] + 1'))
        assert apply_updates(env, (up,)) == Env.of({("cnt", (VStr("c1"),)): VInt(1)})

    def test_flag_flip(self):
        env = env_of(send=VBool(True))
        up = Update("send", (), Literal(VBool(False)))
        assert apply_updates(env, (up,)) == env_of(send=VBool(False))

    def test_left_to_right_visibility(self):
        env = env_of(a=VInt(1))
        ups = (
            Update("a", (), Literal(VInt(2))),
            Update("b", (), Attr("a", ())),
        )
        assert apply_updates(env, ups) == env_of(a=VInt(2), b=VInt(2))

    def test_new_keys_created(self):
        out = apply_updates(Env(), (Update("fresh", (), Literal(VInt(7))),))
        assert out.lookup("fresh") == VInt(7)


class TestAlgebraicProperties:
    """Randomized closure/substitution laws (the large-count versions
    live in the acceptance suite)."""

    def test_close_idempotent(self):
        rng = random.Random(101)
        for _ in range(200):
            env, subst = rand_env(rng), rand_subst(rng)
            p = rand_pred(rng, env, subst)
            try:
                c = close(p, env, subst)
            except EvalError:
                continue
            assert close(c, env, subst) == c
            assert not any(isinstance(q, ThisAttr) for q in subterms(c))

    def test_close_substitute_commute(self):
        rng = random.Random(102)
        for _ in range(200):
            env, subst = rand_env(rng), rand_subst(rng)
            p = rand_pred(rng, env, subst)
            try:
                lhs = close(close(p, None, subst), env, Subst())
                rhs = close(p, env, subst)
            except EvalError:
                continue
            assert lhs == rhs

    def test_close_with_bindings_equals_close_of_substituted(self):
        # closing with bindings, the reference that judging a receive
        # guard in place is checked against, equals closing the guard
        # with the bindings substituted in
        outcomes = set()
        for seed in range(500):
            rng = random.Random(seed)
            env, subst = rand_env(rng), rand_subst(rng)
            p = rand_pred(rng, env, subst)
            # another environment or bindings may leave names unresolved
            if rng.random() < 0.5:
                env = rand_env(rng)
            bindings = rand_subst(rng) if rng.random() < 0.5 else subst
            results = []
            for closing in (lambda: close(close(p, None, bindings), env), lambda: close(p, env, bindings)):
                try:
                    results.append(closing())
                except EvalError:
                    results.append(EvalError)
            assert results[0] == results[1], (seed, p)
            outcomes.add(results[0] is EvalError)
        assert outcomes == {True, False}

    def test_judging_in_place_equals_judging_the_closed_guard(self):
        # in_step judges a receive guard in place, with the message
        # bindings and the receiver's attributes as `this`; closing the
        # guard in the receiver's environment first must give the same
        # verdict, and judging in place may fail only where closing fails
        verdicts, raised, spared = set(), 0, 0
        for seed in range(500):
            rng = random.Random(seed)
            env, subst = rand_env(rng), rand_subst(rng)
            p = rand_pred(rng, env, subst)
            # other environments or bindings may leave names unresolved
            local = rand_env(rng) if rng.random() < 0.5 else env
            remote = rand_env(rng) if rng.random() < 0.5 else env
            bindings = rand_subst(rng) if rng.random() < 0.5 else subst
            try:
                closed = close(p, local, bindings)
            except EvalError:
                closed = None
            try:
                got = satisfies(remote, p, subst=bindings, this=local)
            except EvalError:
                assert closed is None, (seed, p)
                raised += 1
                continue
            if closed is None:
                spared += 1  # the failing `this.a` is in an operand not reached
                continue
            assert got == satisfies(remote, closed), (seed, p)
            verdicts.add(got)
        assert verdicts == {True, False} and raised and spared, (verdicts, raised, spared)

    def test_evaluate_with_bindings_equals_evaluate_of_substituted(self):
        # in_step evaluates a receive's updates with the message bindings
        # rather than evaluating the updates with the bindings substituted in
        outcomes = set()
        for seed in range(500):
            rng = random.Random(seed)
            env, subst = rand_env(rng), rand_subst(rng)
            e = rand_expr(rng, env, subst)
            # another environment or bindings may leave names unresolved
            if rng.random() < 0.5:
                env = rand_env(rng)
            bindings = rand_subst(rng) if rng.random() < 0.5 else subst
            results = []
            for evaluating in (lambda: evaluate(close_expr(e, None, bindings), env), lambda: evaluate(e, env, bindings)):
                try:
                    results.append(evaluating())
                except EvalError:
                    results.append(EvalError)
            assert results[0] == results[1], (seed, e)
            outcomes.add(results[0] is EvalError)
        assert outcomes == {True, False}

    def test_satisfies_total_on_random_closed_predicates(self):
        rng = random.Random(103)
        for _ in range(200):
            env, subst = rand_env(rng), rand_subst(rng)
            p = rand_pred(rng, env, subst)
            try:
                c = close(p, env, subst)
            except EvalError:
                continue
            judge = rand_env(rng)
            assert satisfies(judge, c) in (True, False)
