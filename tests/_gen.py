"""Random generators shared by the property-based tests.

All generators take an explicit random.Random so test runs are seeded
and reproducible.
"""
from __future__ import annotations

import random
from typing import List, Tuple

from abclang.evaluator import substitute_proc
from abclang.terms import (
    And,
    Apply,
    Attr,
    AtomApply,
    ComponentState,
    Env,
    FalsePred,
    Inact,
    Literal,
    Not,
    Or,
    Par,
    Choice,
    Aware,
    Call,
    Input,
    Output,
    Update,
    Subst,
    ThisAttr,
    TruePred,
    VBool,
    VFloat,
    VInt,
    VSet,
    VStr,
    VTuple,
    UNDEF,
)

ATTR_NAMES = ["id", "typ", "loc", "price", "room", "cnt", "flag"]
VAR_NAMES = ["x", "y", "z", "w"]
STRINGS = ["rome", "paris", "h1", "b1", "offer", "acms"]
CMP_OPS = ["=", "!=", "<", "<=", ">", ">="]


def rand_value(rng: random.Random, depth: int = 0):
    top = 9 if depth == 0 else 7
    k = rng.randrange(top)
    if k <= 1:
        return VInt(rng.randrange(-20, 100))
    if k == 2:
        return VFloat(round(rng.uniform(-5, 120), 2))
    if k == 3:
        return VBool(rng.random() < 0.5)
    if k <= 5:
        return VStr(rng.choice(STRINGS))
    if k == 6:
        return UNDEF
    if k == 7:
        return VSet.of(rand_value(rng, depth + 1) for _ in range(rng.randrange(4)))
    return VTuple(tuple(rand_value(rng, depth + 1) for _ in range(rng.randrange(2, 5))))


def rand_env(rng: random.Random) -> Env:
    entries = {}
    for name in rng.sample(ATTR_NAMES, rng.randrange(1, len(ATTR_NAMES))):
        if rng.random() < 0.3:
            key = (name, (rand_value(rng, 1),))
        else:
            key = (name, ())
        entries[key] = rand_value(rng)
    return Env.of(entries)


def rand_subst(rng: random.Random) -> Subst:
    names = rng.sample(VAR_NAMES, rng.randrange(1, len(VAR_NAMES) + 1))
    return Subst.of({n: rand_value(rng) for n in names})


def rand_expr(rng: random.Random, env: Env, subst: Subst, depth: int = 2):
    """Expression whose attribute/variable references all resolve in
    (env, subst), so local evaluation and closure cannot fail on lookup."""
    attrs = [k for k, _ in env.entries if not k[1]]
    choices = ["lit", "lit"]
    if attrs:
        choices += ["attr", "this"]
    if subst.pairs:
        choices.append("var")
    if depth > 0:
        choices += ["plus", "times"]
    k = rng.choice(choices)
    if k == "lit":
        return Literal(rand_value(rng))
    if k == "attr":
        return Attr(rng.choice(attrs)[0], ())
    if k == "this":
        return ThisAttr(rng.choice(attrs)[0], ())
    if k == "var":
        return Attr(rng.choice(subst.pairs)[0], ())
    op = "+" if k == "plus" else "*"
    return Apply(op, (rand_expr(rng, env, subst, depth - 1), rand_expr(rng, env, subst, depth - 1)))


def rand_pred(rng: random.Random, env: Env, subst: Subst, depth: int = 2):
    k = rng.randrange(8 if depth > 0 else 5)
    if k == 0:
        return TruePred()
    if k == 1:
        return FalsePred()
    if k in (2, 3):
        op = rng.choice(CMP_OPS)
        return AtomApply(op, (rand_expr(rng, env, subst, 1), rand_expr(rng, env, subst, 1)))
    if k == 4:
        return AtomApply("in", (rand_expr(rng, env, subst, 1), rand_expr(rng, env, subst, 1)))
    if k == 5:
        return Not(rand_pred(rng, env, subst, depth - 1))
    node = And if k == 6 else Or
    return node(rand_pred(rng, env, subst, depth - 1), rand_pred(rng, env, subst, depth - 1))


def rand_updates_then(rng: random.Random, env: Env, subst: Subst, depth: int):
    """The updates and the continuation of a prefix."""
    ups = tuple(
        Update(rng.choice(ATTR_NAMES), (), rand_expr(rng, env, subst, 1))
        for _ in range(rng.randrange(2))
    )
    return ups, rand_proc(rng, env, subst, depth - 1)


def rand_proc(rng: random.Random, env: Env, subst: Subst, depth: int = 3):
    if depth <= 0:
        return Inact() if rng.random() < 0.7 else Call(rng.choice(["K1", "K2"]))
    k = rng.randrange(7)
    if k == 0:
        return Inact()
    if k == 1:
        return Call(rng.choice(["K1", "K2"]))
    if k == 2:
        return Aware(rand_pred(rng, env, subst, 1), rand_proc(rng, env, subst, depth - 1))
    if k in (3, 4):
        # 2-4 operands; an operand drawn as a chain of the same kind is a
        # parenthesised sub-chain
        kind = Choice if k == 3 else Par
        return kind(tuple(rand_proc(rng, env, subst, depth - 1) for _ in range(rng.randrange(2, 5))))
    if k == 5:
        n = rng.randrange(1, 4)
        binders = tuple(rng.sample(VAR_NAMES, n))
        return Input(rand_pred(rng, env, subst, 1), binders, *rand_updates_then(rng, env, subst, depth))
    payload = tuple(rand_expr(rng, env, subst, 1) for _ in range(rng.randrange(3)))
    return Output(payload, rand_pred(rng, env, subst, 1), *rand_updates_then(rng, env, subst, depth))


def reshuffle(rng: random.Random, p):
    """A term equal to `p` under commutativity and associativity of `|`
    and `+` and the unit law P | 0 = P: the operands of every chain are
    permuted and regrouped at random into sub-chains of 2-4 operands, and
    random subterms, sub-chains included, get a `| 0`."""

    def unit(q):
        if rng.random() < 0.2:
            return Par((q, Inact())) if rng.random() < 0.5 else Par((Inact(), q))
        return q

    if isinstance(p, (Choice, Par)):
        kind = type(p)
        parts, stack = [], [p]
        while stack:
            q = stack.pop()
            if isinstance(q, kind):
                stack += q.operands
            else:
                parts.append(reshuffle(rng, q))
        rng.shuffle(parts)
        while len(parts) > 1:
            n = rng.randrange(2, min(4, len(parts)) + 1)
            i = rng.randrange(len(parts) - n + 1)
            parts[i:i + n] = [unit(kind(tuple(parts[i:i + n])))]
        return parts[0]
    if isinstance(p, Input):
        p = Input(p.guard, p.binders, p.updates, reshuffle(rng, p.then))
    elif isinstance(p, Output):
        p = Output(p.payload, p.target, p.updates, reshuffle(rng, p.then))
    elif isinstance(p, Aware):
        p = Aware(p.guard, reshuffle(rng, p.body))
    return unit(p)


def rand_component(rng: random.Random, name: str = "C") -> ComponentState:
    env = rand_env(rng)
    subst = rand_subst(rng)
    names = {k[0] for k, _ in env.entries}
    iface = frozenset(n for n in names if rng.random() < 0.6)
    return ComponentState(name, env, iface, substitute_proc(rand_proc(rng, env, subst), subst))


def rand_message(rng: random.Random) -> Tuple:
    return tuple(rand_value(rng) for _ in range(rng.randrange(4)))


# ---------------------------------------------------------------------------
# specs that reach the state-space reductions
#
# Every component has the attributes n and k, every message is a tag and
# one of 0 and 1, and every update keeps n and k in {0, 1}: no evaluation
# fails, and the state space is finite.  A definition starts with a
# prefix, so every call is guarded, and a continuation holds at most one
# call, so no run grows the number of parallel operands.


def _int_expr(rng: random.Random, bound) -> str:
    return rng.choice(["n", "k", "1 - n", "0", "1"] + ["v"] * 2 * ("v" in bound))


def _prefix(rng: random.Random, ndefs: int, bound, depth: int) -> str:
    tag = rng.choice("ab")
    if rng.random() < 0.5:
        target = rng.choice(["tt", "tt", "n = 1", "n = this.n", "k = 0"])
        head = f'("{tag}", {_int_expr(rng, bound)})@({target})'
    else:
        binder = rng.choice("vw")
        # `w = v` with w unbound reads a name that only a call's closure
        # can bind: a guard-only binding
        extra = rng.choice(["", " && n = 1", " && w = v" if binder == "v" else ""])
        head = f'(t = "{tag}"{extra})(t, {binder})'
        bound = bound | {binder}
    ups = rng.choice(["", "", "[n := 1 - n]", "[n := 0]"] + ["[k := v]"] * ("v" in bound))
    if rng.random() < 0.15:
        head = f"<k = {rng.randrange(2)}>{head}"
    return f"{head}.{ups} {_continuation(rng, ndefs, bound, depth - 1)}"


def _continuation(rng: random.Random, ndefs: int, bound, depth: int) -> str:
    r = rng.random()
    if depth > 0 and r < 0.3:
        return _prefix(rng, ndefs, bound, depth)
    if r < 0.4 - 0.1 * bool(bound):
        return "0"
    call = f"K{rng.randrange(ndefs)}"
    return rng.choice([call, call, f"({call} | 0)", f"(0 | {call})"])


def rand_reducible_spec(rng: random.Random) -> str:
    """Source text of a guarded, attribute-complete spec with parallel
    copies of one call, calls under input binders that their definition
    does not read (dead bindings) or reads only in a guard, `| 0`
    operands, and `|` and `+` chains of 2-4 operands, some with a
    parenthesised sub-chain."""
    ndefs = rng.randrange(2, 4)
    lines = []
    for i in range(ndefs):
        summands = [_prefix(rng, ndefs, frozenset(), 2) for _ in range(rng.randrange(1, 3))]
        if i == 0 and rng.random() < 0.5:
            # K0 reads w only in a guard, and K1 calls it with w bound
            summands[0] = f'(t = "b" && w = v)(t, v). {_continuation(rng, ndefs, {"v"}, 1)}'
        elif i == 1 and rng.random() < 0.5:
            summands[0] = '(t = "a")(t, w). K0'
        # repeated summands make longer chains without new states
        copies = rng.randrange(3)
        if rng.random() < 0.5:
            summands += rng.choices(summands, k=copies)
        if len(summands) > 2 and rng.random() < 0.5:
            summands[-2:] = [f"({summands[-2]} + {summands[-1]})"]
        lines.append(f"proc K{i} = " + " + ".join(summands))
    for c in range(rng.randrange(2, 4)):
        call, other = f"K{rng.randrange(ndefs)}", f"K{rng.randrange(ndefs)}"
        # one call in two of six runs keeps most state spaces within the
        # tests' state limits
        run = rng.choice([call, f"{call} | {call}", f"{call} | {other}", f"{call} | 0 | {call}",
                          f"0 | (0 | {call}) | {call}", call])
        iface = rng.choice(["n", "n, k"])
        lines.append(
            f"component C{c} {{ attrs {{ n = {rng.randrange(2)}; k = {rng.randrange(2)}; }}"
            f" interface {{ {iface} }} run {run} }}"
        )
    if rng.random() < 0.5:
        # two values under one tag: a receiver that binds one and calls a
        # definition that does not read it has a dead binding
        lines.append('component S { attrs { n = 0; k = 0; } interface { n } run ("a", 0)@(tt).0 + ("a", 1)@(tt).0 }')
    return "\n".join(lines) + "\n"
