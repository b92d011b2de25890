"""Component and system step relations, checked against hand-derived cases."""
import random

import pytest

from _gen import rand_component, rand_env, rand_message, rand_pred, rand_subst

from abclang import semantics
from abclang.evaluator import EvalError, close, substitute_proc
from abclang.parser import MAX_DEPTH, parse_pred_str, parse_process_str, parse_spec
from abclang.pretty import pp_pred
from abclang.semantics import Run, in_step, out_steps, system_steps, unfold
from abclang.terms import (
    Call,
    ComponentState,
    EnumDomain,
    Env,
    FalsePred,
    Inact,
    Input,
    Par,
    Subst,
    TruePred,
    VBool,
    VFloat,
    VInt,
    VSet,
    VStr,
    state_key,
)
from abclang.validate import call_needs


def comp(name, env_map, interface, proc_src):
    env = Env.of(env_map)
    proc = parse_process_str(proc_src)
    return ComponentState(name, env, frozenset(interface), proc)


CUSTOMER_F = (
    '<send = true> ()@(ff).'
    '[day := 5, price := 85]'
    '(("acms", this.id, this.price)@(type = "Broker").[send := false] F)'
)

# no definitions, so the tests can share it: what its memo keeps is the
# records of the components they judge, each holding its component
NO_DEFS = Run.of({}, {})


class TestRun:
    def test_rejects_unguarded_recursion(self):
        # unvalidated: bare system_steps once ended in RecursionError here
        defs = {"P": parse_process_str("P + P")}
        with pytest.raises(EvalError, match="unguarded recursion P -> P"):
            Run.of(defs, {})

    def test_rejects_a_call_to_an_undefined_process(self):
        with pytest.raises(EvalError, match="undefined process Nope"):
            Run.of({"P": parse_process_str('("m")@(tt).Nope')}, {})
        with pytest.raises(EvalError, match="undefined process Nope"):
            Run.of({}, {}, [parse_process_str("Nope")])

    def test_rejects_an_empty_domain(self):
        with pytest.raises(EvalError, match="extern e has an empty domain"):
            Run.of({}, {"e": EnumDomain(())})

    def test_rejects_a_term_nested_too_deep(self):
        # the innermost of n `tt`s, left-nested under `&&`, lies n levels down
        deep = parse_process_str("<" + " && ".join(["tt"] * (MAX_DEPTH + 1)) + '> ("a")@(tt).0')
        shallow = parse_process_str("<" + " && ".join(["tt"] * MAX_DEPTH) + '> ("a")@(tt).0')
        Run.of({"P": shallow}, {}, [shallow])
        with pytest.raises(EvalError, match=f"nested more than {MAX_DEPTH} levels deep"):
            Run.of({"P": deep}, {})
        with pytest.raises(EvalError, match=f"nested more than {MAX_DEPTH} levels deep"):
            Run.of({}, {}, [deep])


    def test_of_spec_derives_once_per_spec(self, monkeypatch):
        spec, _ = parse_spec('proc K = ("a")@(tt).K\ncomponent C { attrs { } interface { } run K }\n')
        walks = []
        monkeypatch.setattr(semantics, "call_needs", lambda *args: walks.append(1) or call_needs(*args))
        first, second = Run.of_spec(spec), Run.of_spec(spec)
        assert len(walks) == 1 and spec.run_parts == (first.defs, first.externs, first.needs)
        assert (second.defs, second.externs, second.needs) == spec.run_parts
        assert first.records is not second.records and first.labels is not second.labels
        # an equal spec parsed again derives its own
        again, _ = parse_spec('proc K = ("a")@(tt).K\ncomponent C { attrs { } interface { } run K }\n')
        assert again == spec and again.run_parts is None

    def test_of_spec_rejects_a_spec_on_every_call(self):
        spec, _ = parse_spec("proc P = P + P\ncomponent C { attrs { } interface { } run P }\n")
        for _ in range(2):
            with pytest.raises(EvalError, match="unguarded recursion P -> P"):
                Run.of_spec(spec)
        assert spec.run_parts is None


class TestUnfold:
    def test_returns_definition_body(self):
        body = parse_process_str('(x = "acms")(x, c).K')
        assert unfold("K", Subst(), Run.of({"K": body}, {})) == body

    def test_inact_definition(self):
        assert unfold("Z", Subst(), Run.of({"Z": Inact()}, {})) == Inact()

    def test_closure_is_pushed_into_body(self):
        body = parse_process_str('("m", c)@(tt).0')
        out = unfold("K", Subst.of({"c": VStr("c1")}), Run.of({"K": body}, {}))
        assert out == substitute_proc(body, Subst.of({"c": VStr("c1")}))

    def test_recursive_definition_unfolds_one_level(self):
        body = parse_process_str('(tt)(x).K')
        out = unfold("K", Subst(), Run.of({"K": body}, {}))
        assert isinstance(out, Input)
        # the continuation is still a call, not an infinite expansion
        assert out.then == body.then


    def test_memo_instantiates_each_call_instance_once(self):
        body = parse_process_str('("m", c)@(tt).K')
        defs = {"K": body}
        run = Run.of(defs, {})
        c1, c2 = Subst.of({"c": VStr("c1")}), Subst.of({"c": VStr("c2")})
        first = unfold("K", c1, run)
        assert unfold("K", Subst.of({"c": VStr("c1")}), run) is first
        assert first == substitute_proc(body, c1)
        assert unfold("K", c2, run) == substitute_proc(body, c2)
        assert set(run.bodies) == {("K", c1), ("K", c2)}

    def test_call_closure_keeps_what_the_definition_reads(self):
        # K reads c in a payload and g in a guard, and binds its own x
        defs = {
            "K": parse_process_str('("m", c)@(tt).0 + (x = g)(x).0'),
            "L": parse_process_str('("n")@(tt).K'),
        }
        assert call_needs(defs) == {"K": {"c", "g"}, "L": {"c", "g"}}
        scope = Subst.of({"c": VInt(1), "g": VInt(2), "x": VInt(3), "y": VInt(4)})
        kept = Subst.of({"c": VInt(1), "g": VInt(2)})
        assert unfold("L", scope, Run.of(defs, {})).then.closure == kept
        assert substitute_proc(parse_process_str("L | (tt)(c).K"), scope, call_needs(defs)) == Par((
            Call("L", kept), Input(TruePred(), ("c",), (), Call("K", Subst.of({"g": VInt(2)})))
        ))
        # without needs, a closure keeps every binding in scope
        assert unfold("L", scope, Run(defs, {}, None)).then.closure == scope


class TestOutSteps:
    def test_fake_output_enabled(self):
        c = comp("Cust", {"send": VBool(True), "id": VStr("c1")}, ["id"], CUSTOMER_F)
        cands = out_steps(c, NO_DEFS)
        assert len(cands) == 1
        cand = cands[0]
        assert cand.message == ()
        assert cand.sent_pred == FalsePred()
        # updates applied in the successor
        assert cand.successor.env.lookup("day") == VInt(5)
        assert cand.successor.env.lookup("price") == VInt(85)

    def test_enum_extern_in_target_is_drawn_by_the_sender(self):
        c = comp("S", {"role": VStr("s")}, ["role"], '("m")@(n = pick()).0')
        cands = out_steps(c, Run.of({}, {"pick": EnumDomain.of([VInt(1), VInt(2)])}))
        assert [pp_pred(cand.sent_pred) for cand in cands] == ["n = 1", "n = 2"]

    def test_awareness_blocks(self):
        c = comp("Cust", {"send": VBool(False), "id": VStr("c1")}, ["id"], CUSTOMER_F)
        assert out_steps(c, NO_DEFS) == []

    def test_hotel_offer_candidate(self):
        src = (
            '<room[5] > 0> ("offer", "c1", this.id, this.price)@(id = "b1").0'
            ' + <room[5] = 0> ("nooffer", "c1")@(id = "b1").0'
        )
        env = {("room", (VInt(5),)): VInt(2), ("id", ()): VStr("h1"), ("price", ()): VInt(80)}
        c = comp("H", env, ["id"], src)
        cands = out_steps(c, NO_DEFS)
        assert len(cands) == 1
        assert cands[0].message == (VStr("offer"), VStr("c1"), VStr("h1"), VInt(80))
        assert cands[0].sent_pred == parse_pred_str('id = "b1"')

    def test_exposed_env_is_pre_step_restriction(self):
        c = comp("A", {"id": VStr("a"), "secret": VInt(1)}, ["id"], '("m")@(tt).[id := "z"] 0')
        cand = out_steps(c, NO_DEFS)[0]
        assert cand.exposed_env == Env.of({"id": VStr("a")})
        assert cand.successor.env.lookup("id") == VStr("z")

    def test_message_evaluated_before_updates(self):
        c = comp("A", {"n": VInt(1)}, [], '(this.n)@(tt).[n := this.n + 1] 0')
        cand = out_steps(c, NO_DEFS)[0]
        assert cand.message == (VInt(1),)
        assert cand.successor.env.lookup("n") == VInt(2)

    def test_par_keeps_sibling(self):
        c = comp("A", {}, [], '("m")@(tt).0 | (x = "q")(x).0')
        cands = out_steps(c, NO_DEFS)
        assert len(cands) == 1
        succ = cands[0].successor.proc
        # the input sibling survives the output step
        assert "q" in repr(succ)

    def test_occurrences_are_numbered_left_to_right(self):
        # through +, |, awareness and a call; the fired branch's choice
        # and awareness are dropped and its | siblings kept, at every
        # position of a chain and of a chain inside it, in one flat chain
        # without the `0` the fired prefix leaves
        run = Run.of({"K": parse_process_str('("d")@(tt).0 + (x = "m")(x).0 + ("e")@(tt).0')}, {})
        left = parse_process_str('("a")@(tt).0 + <tt> ("b")@(tt).0')
        mid, tail = parse_process_str('("c")@(tt).0'), parse_process_str('("f")@(tt).0')
        inner = Par((Call("K"), tail))
        c = ComponentState("A", Env(), frozenset(), Par((left, mid, inner)))
        cands = out_steps(c, run)
        assert [(cand.message[0].v, cand.branch) for cand in cands] == [
            ("a", 0), ("b", 1), ("c", 2), ("d", 3), ("e", 4), ("f", 5),
        ]
        assert cands[0].successor.proc == Par((mid, Call("K"), tail))
        assert cands[2].successor.proc == Par((left, Call("K"), tail))
        assert cands[3].successor.proc == Par((left, mid, tail))
        assert cands[5].successor.proc == Par((left, mid, Call("K")))
        got = in_step(c, Env(), TruePred(), (VStr("m"),), run)
        assert [(i, s.proc) for i, s in got.successors] == [(0, Par((left, mid, tail)))]


def hotel_bh(blist, cont="0"):
    env = {
        ("type", ()): VStr("Hotel"),
        ("locality", ()): VStr("rome"),
        ("blist", ()): VSet.of([VStr(b) for b in blist]),
    }
    return comp(
        "H", env, ["type", "locality"],
        '(x = "acms" && b in this.blist)(x, c, d, b).' + cont,
    )


ACMS_MSG = (VStr("acms"), VStr("c1"), VInt(5), VStr("br1"))
HOTEL_PRED = parse_pred_str('type = "Hotel" && locality = "rome"')
BROKER_ENV = Env.of({"id": VStr("br1")})


class TestInStep:
    def test_hotel_receives_acms(self):
        hotel = hotel_bh(["br1"], cont="(x, c, d, b)@(tt).0")
        res = in_step(hotel, BROKER_ENV, HOTEL_PRED, ACMS_MSG, NO_DEFS)
        assert res.is_receive
        assert len(res.successors) == 1
        _, succ = res.successors[0]
        # the received values are substituted into the continuation,
        # which echoes them back
        [cand] = out_steps(succ, NO_DEFS)
        assert cand.message == ACMS_MSG

    def test_empty_blist_discards(self):
        res = in_step(hotel_bh([]), BROKER_ENV, HOTEL_PRED, ACMS_MSG, NO_DEFS)
        assert not res.is_receive

    def test_false_sent_pred_discards(self):
        res = in_step(hotel_bh(["br1"]), BROKER_ENV, FalsePred(), ACMS_MSG, NO_DEFS)
        assert not res.is_receive

    def test_arity_mismatch_discards(self):
        res = in_step(hotel_bh(["br1"]), BROKER_ENV, HOTEL_PRED, ACMS_MSG + (VInt(0),), NO_DEFS)
        assert not res.is_receive

    def test_broker_choice_exactly_one_branch(self):
        # affordable offer: the op <= p branch matches, op > p does not
        src = (
            '(x = "offer" && op <= 100)(x, cust, h, op).0'
            ' + (x = "offer" && op > 100)(x, cust, h, op).0'
        )
        c = comp("B", {"id": VStr("br1")}, ["id"], src)
        msg = (VStr("offer"), VStr("c1"), VStr("h1"), VInt(90))
        res = in_step(c, Env.of({"id": VStr("h1")}), parse_pred_str('id = "br1"'), msg, NO_DEFS)
        assert res.is_receive and len(res.successors) == 1

    def test_sender_guard_judged_on_exposed_env(self):
        c = comp("B", {}, [], '(role = "srv")(x).0')
        pred = parse_pred_str("tt")
        ok = in_step(c, Env.of({"role": VStr("srv")}), pred, (VInt(1),), NO_DEFS)
        no = in_step(c, Env.of({"role": VStr("cli")}), pred, (VInt(1),), NO_DEFS)
        assert ok.is_receive and not no.is_receive

    def test_interface_hides_attributes_from_sender_pred(self):
        c = comp("B", {"role": VStr("srv")}, [], "(tt)(x).0")
        res = in_step(c, Env(), parse_pred_str('role = "srv"'), (VInt(1),), NO_DEFS)
        assert not res.is_receive  # role is not exposed


def key_of(src):
    return parse_process_str(src).message_key


@pytest.fixture
def judge(monkeypatch):
    """The ordinals of the inputs of `src` that receive `msg`, judged with
    message keys and again with every key empty, which must agree."""

    def run(src, *msg):
        c = comp("R", {}, [], src)
        got = in_step(c, Env(), TruePred(), msg, Run.of({}, {}))
        with monkeypatch.context() as m:
            m.setattr(Input, "message_key", property(lambda self: ()))
            assert got == in_step(c, Env(), TruePred(), msg, Run.of({}, {}))
        return [i for i, _ in got.successors]

    return run


class TestMessageKey:
    def test_literal_on_either_side(self, judge):
        assert key_of('(x = "a" && "b" = y)(x, y).0') == ((0, VStr("a")), (1, VStr("b")))
        assert judge('("b" = y)(x, y).0', VStr("z"), VStr("b")) == [0]
        assert judge('("b" = y)(x, y).0', VStr("b"), VStr("z")) == []

    def test_a_repeated_binder_is_keyed_at_its_last_position(self, judge):
        # as the bindings take it: dict(zip(binders, msg)) keeps the last
        assert key_of('(x = "a")(x, x).0') == ((1, VStr("a")),)
        assert judge('(x = "a")(x, x).0', VStr("b"), VStr("a")) == [0]
        assert judge('(x = "a")(x, x).0', VStr("a"), VStr("b")) == []

    def test_numbers_are_not_keyed(self, judge):
        assert key_of("(x = 1)(x).0") == ()
        assert judge("(x = 1)(x).0", VFloat(1.0)) == [0]
        assert judge("(x = 1)(x).0", VInt(2)) == []

    def test_only_the_top_and_chain_is_keyed(self, judge):
        assert key_of('(x = "a" || x = "b")(x).0') == ()
        assert key_of('(!(x = "a"))(x).0') == ()
        assert key_of('(x = "a" && (y = "b" || tt) && !(y = "c"))(x, y).0') == ((0, VStr("a")),)
        assert judge('(!(x = "a"))(x).0', VStr("b")) == [0]
        assert judge('(x = "a" || x = "b")(x).0', VStr("b")) == [0]

    def test_only_unindexed_binders_are_keyed(self):
        # `a` is an attribute, `this.x` the receiver's own, `x[1]` indexed
        assert key_of('(a = "s" && this.x = "s" && x[1] = "s")(x).0') == ()

    def test_an_arity_mismatch_is_a_discard(self, judge):
        assert judge('(x = "a" && y = "b")(x, y).0', VStr("a")) == []
        assert judge('(y = "b")(x, y).0', VStr("b")) == []

    def test_a_skipped_occurrence_keeps_its_ordinal(self, judge):
        src = '(x = "a")(x).0 + (x = "b")(x).0 + (tt)(x).0 | (x = "b")(x).0'
        assert judge(src, VStr("b")) == [1, 2, 3]
        assert judge(src, VStr("a")) == [0, 2]


def system(*comps):
    return tuple(comps)


class TestSystemSteps:
    def test_fake_output_with_bystanders(self):
        sender = comp("S", {"send": VBool(True), "id": VStr("s")}, ["id"], CUSTOMER_F)
        b1 = comp("W1", {}, [], "(tt)(x).0")
        b2 = comp("W2", {}, [], "(tt)(x).0")
        steps = system_steps(system(sender, b1, b2), NO_DEFS)
        assert len(steps) == 1
        ev, succ = steps[0]
        assert ev.receivers == frozenset()
        assert ev.discarded == frozenset({1, 2})
        assert succ[1] == b1 and succ[2] == b2

    def test_broadcast_reaches_both_receivers_atomically(self):
        sender = comp("S", {}, [], '("m")@(tt).0')
        r1 = comp("R1", {}, [], '(x = "m")(x).0')
        r2 = comp("R2", {}, [], '(x = "m")(x).0')
        steps = system_steps(system(sender, r1, r2), NO_DEFS)
        assert len(steps) == 1
        ev, _ = steps[0]
        assert {i for i, _ in ev.receivers} == {1, 2}

    def test_choice_receiver_two_successors(self):
        sender = comp("S", {}, [], '("m")@(tt).0')
        rcv = comp("R", {"r": VInt(0)}, [], '(x = "m")(x).[r := 1] 0 + (x = "m")(x).[r := 2] 0')
        steps = system_steps(system(sender, rcv), NO_DEFS)
        assert len(steps) == 2
        results = sorted(s[1].env.lookup("r").v for _, s in steps)
        assert results == [1, 2]

    def test_sender_never_self_delivers(self):
        c = comp("S", {}, [], '("m")@(tt).0 | (x = "m")(x).0')
        steps = system_steps(system(c), NO_DEFS)
        assert len(steps) == 1
        ev, succ = steps[0]
        assert ev.receivers == frozenset() and ev.discarded == frozenset()
        # the input sibling is untouched
        assert "m" in repr(succ[0].proc)

    def test_must_receive(self):
        # a component that CAN receive appears in receivers of every event
        sender = comp("S", {}, [], '("m")@(tt).0')
        rcv = comp("R", {}, [], '(x = "m")(x).0')
        for ev, _ in system_steps(system(sender, rcv), NO_DEFS):
            assert (1, 0) in ev.receivers

    def test_partition_and_frame_invariants_random(self):
        rng = random.Random(2024)
        checked = 0
        run = Run.of({"K1": Inact(), "K2": Inact()}, {})
        for _ in range(300):
            comps = tuple(rand_component(rng, f"C{i}") for i in range(rng.randrange(2, 4)))
            try:
                steps = system_steps(comps, run)
            except Exception:
                continue  # random procs may hit genuine evaluation errors
            for ev, succ in steps:
                checked += 1
                idx = set(range(len(comps)))
                recv = {i for i, _ in ev.receivers}
                assert recv | ev.discarded | {ev.sender} == idx
                assert not (recv & ev.discarded)
                assert ev.sender not in recv and ev.sender not in ev.discarded
                for i in ev.discarded:
                    assert state_key((succ[i],)) == state_key((comps[i],))
        assert checked > 100


class TestExclusivityFuzz:
    def test_in_step_exactly_one_of_receive_discard(self):
        rng = random.Random(77)
        run = Run.of({"K1": Inact(), "K2": Inact()}, {})
        for _ in range(2000):
            c = rand_component(rng)
            env, subst = rand_env(rng), rand_subst(rng)
            try:
                pred = close(rand_pred(rng, env, subst), env, subst)
            except Exception:
                continue
            msg = rand_message(rng)
            try:
                res = in_step(c, rand_env(rng), pred, msg, run)
            except Exception:
                continue  # update application may hit real type errors
            if res.is_receive:
                assert res.successors
            else:
                assert not res.successors
