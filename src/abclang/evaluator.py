"""Expression evaluation, predicate closure (substitution included) and satisfaction.

All functions here are pure.  Nondeterministic externs (enumerated
domains) draw through a `ScriptedChooser`, which follows a scripted
index vector; `all_runs` enumerates every combination of draws.  Both
exploration and simulation take all of them: a simulation picks
uniformly among the resulting successors.
"""
from __future__ import annotations

import math
import operator
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, TypeVar

from .terms import (
    INT_DIGITS,
    And,
    Apply,
    Attr,
    AtomApply,
    Aware,
    Call,
    COMPARE_OPS,
    Choice,
    EMPTY_SUBST,
    EnumDomain,
    Env,
    Expr,
    FalsePred,
    Inact,
    Input,
    Literal,
    Not,
    Or,
    Output,
    Par,
    Predicate,
    Span,
    Subst,
    TableFn,
    ThisAttr,
    TruePred,
    Update,
    VBool,
    VFloat,
    VInt,
    VSet,
    VStr,
    VTuple,
    VUndef,
    Value,
    ser_value,
)


class EvalError(Exception):
    def __init__(self, message: str, span: Optional[Span] = None):
        super().__init__(message)
        self.span = span

    def __str__(self):
        base = super().__str__()
        return f"{self.span}: {base}" if self.span else base


class ThisAttrError(EvalError):
    """An error in evaluating `this.a` or its index: the judge's own state."""


# ---------------------------------------------------------------------------
# choice reification


class ScriptedChooser:
    """Follows a prefix of choice indices, then picks index 0.

    Records (index, domain size) for every draw so a caller can
    enumerate the remaining alternatives.
    """

    def __init__(self, prefix: Tuple[int, ...] = ()):
        self.prefix = prefix
        self.trace: List[Tuple[int, int]] = []

    def choose(self, options: Sequence[Value]) -> Value:
        pos = len(self.trace)
        idx = self.prefix[pos] if pos < len(self.prefix) else 0
        self.trace.append((idx, len(options)))
        return options[idx]


T = TypeVar("T")


def all_runs(fn: Callable[[ScriptedChooser], T]) -> List[T]:
    """Runs `fn` once per combination of extern draws it can make.

    `fn` must be deterministic given the chooser's answers.  Later draw
    domains may depend on earlier draws; every leaf of the resulting
    choice tree is visited exactly once, in a deterministic order.
    """
    results: List[T] = []
    pending: List[Tuple[int, ...]] = [()]
    while pending:
        prefix = pending.pop(0)
        ch = ScriptedChooser(prefix)
        results.append(fn(ch))
        for pos in range(len(prefix), len(ch.trace)):
            base = tuple(idx for idx, _ in ch.trace[:pos])
            size = ch.trace[pos][1]
            for alt in range(1, size):
                pending.append(base + (alt,))
    return results


# ---------------------------------------------------------------------------
# built-in operators


def _num(v: Value, span=None) -> float:
    if isinstance(v, VInt) or isinstance(v, VFloat):
        return v.v
    raise EvalError(f"expected a number, got {ser_value(v)}", span)


_INT_LIMIT = 10 ** INT_DIGITS


def _number(r, span=None) -> Value:
    """The result `r` of arithmetic as a value: an integer of at most
    INT_DIGITS digits, or a finite float."""
    if isinstance(r, int):
        if -_INT_LIMIT < r < _INT_LIMIT:
            return VInt(r)
        raise EvalError(f"integer result longer than {INT_DIGITS} digits", span)
    if math.isfinite(r):
        return VFloat(r)
    raise EvalError("float result out of range", span)


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _arith(op: str, a: Value, b: Value, span=None) -> Value:
    x, y = _num(a, span), _num(b, span)
    if op == "/" and y == 0:
        raise EvalError("division by zero", span)
    try:
        return _number(_ARITH[op](x, y), span)
    except OverflowError:  # an int too large for a float
        raise EvalError(f"{op} overflows a float", span) from None


def values_equal(a: Value, b: Value) -> bool:
    """Equality used by `=`, `!=` and set membership.

    Structural, except that integers and doubles compare by numeric
    value, exactly.  UNDEF equals only UNDEF.
    """
    if isinstance(a, (VInt, VFloat)) and isinstance(b, (VInt, VFloat)):
        return a.v == b.v
    return a == b


_ORDERED = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def compare_values(op: str, a: Value, b: Value, span=None) -> bool:
    if op == "=":
        return values_equal(a, b)
    if op == "!=":
        return not values_equal(a, b)
    if isinstance(a, VUndef) or isinstance(b, VUndef):
        raise EvalError("ordered comparison with undef", span)
    if not (isinstance(a, (VInt, VFloat)) and isinstance(b, (VInt, VFloat))
            or isinstance(a, VStr) and isinstance(b, VStr)):
        raise EvalError(
            f"ordered comparison between {ser_value(a)} and {ser_value(b)}", span
        )
    return _ORDERED[op](a.v, b.v)  # Python compares an int and a float exactly


def _member(elem: Value, coll: Value, span=None) -> bool:
    if isinstance(coll, VSet):
        return any(values_equal(elem, x) for x in coll.items)
    if isinstance(coll, VTuple):
        return any(values_equal(elem, x) for x in coll.items)
    raise EvalError(f"membership test on non-set {ser_value(coll)}", span)


def apply_builtin(fn: str, args: List[Value], span=None) -> Value:
    if fn in ("+", "-", "*", "/"):
        if len(args) != 2:
            raise EvalError(f"{fn} takes two arguments", span)
        return _arith(fn, args[0], args[1], span)
    if fn == "neg":
        if len(args) != 1:
            raise EvalError("neg takes one argument", span)
        v = args[0]
        if isinstance(v, VInt):
            return VInt(-v.v)
        return VFloat(-_num(v, span))
    if fn in ("=", "!=", "<", "<=", ">", ">="):
        if len(args) != 2:
            raise EvalError(f"{fn} takes two arguments", span)
        return VBool(compare_values(fn, args[0], args[1], span))
    if fn == "in":
        if len(args) != 2:
            raise EvalError("in takes two arguments", span)
        return VBool(_member(args[0], args[1], span))
    if fn == "diff":
        if len(args) != 2:
            raise EvalError("diff takes two arguments", span)
        return _number(abs(_arith("-", args[0], args[1], span).v))
    if fn == "tuple":
        return VTuple(tuple(args))
    if fn == "proj":
        if len(args) != 2 or not isinstance(args[1], VInt):
            raise EvalError("proj takes (tuple, int)", span)
        t = args[0]
        if not isinstance(t, VTuple):
            raise EvalError("proj of a non-tuple", span)
        i = args[1].v
        if not 0 <= i < len(t.items):
            raise EvalError(f"proj index {i} out of range", span)
        return t.items[i]
    raise EvalError(f"unknown function {fn}", span)


BUILTIN_NAMES = frozenset(
    ["+", "-", "*", "/", "neg", "=", "!=", "<", "<=", ">", ">=", "in", "diff", "tuple", "proj"]
)


# ---------------------------------------------------------------------------
# expression evaluation


def evaluate(
    e: Expr,
    env: Env,
    subst: Subst = EMPTY_SUBST,
    externs: Optional[Dict] = None,
    chooser: Optional[ScriptedChooser] = None,
    this: Optional[Env] = None,
) -> Value:
    """Evaluates `e`: a bare `a` reads `subst` when it is unindexed and
    bound there, else `env`; `this.a` reads `this`, or `env` when `this`
    is None, and an error in it or its index is a `ThisAttrError`.

    A missing attribute is a hard error here; the lenient
    absent-attribute rule applies only inside `satisfies`.
    """
    externs = externs or {}
    if isinstance(e, Literal):
        return e.value
    if isinstance(e, (Attr, ThisAttr)):
        own = isinstance(e, ThisAttr)
        if own:
            env = env if this is None else this
        elif not e.index:
            v = subst.get(e.name)
            if v is not None:
                return v
        try:
            idx = tuple(evaluate(i, env, subst, externs, chooser, this) for i in e.index)
        except EvalError as err:
            if not own:
                raise
            raise ThisAttrError(err.args[0], err.span) from None
        v = env.lookup(e.name, idx)
        if v is None:
            shown = e.name + (f"[{','.join(ser_value(i) for i in idx)}]" if idx else "")
            raise (ThisAttrError if own else EvalError)(f"attribute {shown} is not set", e.span)
        return v
    if isinstance(e, Apply):
        ext = externs.get(e.fn)
        if isinstance(ext, EnumDomain):
            if e.args:
                raise EvalError(f"extern {e.fn} takes no arguments", e.span)
            if chooser is None:
                raise EvalError(f"extern {e.fn} drawn without a chooser", e.span)
            return chooser.choose(ext.values)
        args = [evaluate(a, env, subst, externs, chooser, this) for a in e.args]
        if isinstance(ext, TableFn):
            r = ext.lookup(tuple(args))
            if r is None:
                shown = ",".join(ser_value(a) for a in args)
                raise EvalError(f"extern {e.fn} has no entry for ({shown})", e.span)
            return r
        return apply_builtin(e.fn, args, e.span)
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# closure and substitution


def close_expr(e: Expr, env: Optional[Env], subst: Subst, externs=None, chooser=None) -> Expr:
    """Freezes bound names to literals.  With `env`, the speaker's
    environment, it also freezes `this.a` and draws the calls of
    enumerated externs, so receivers judge the values the speaker drew;
    other bare attribute references name the judging party's state."""
    if isinstance(e, Literal):
        return e
    if env is not None and isinstance(e, (ThisAttr, Apply)):
        if isinstance(e, ThisAttr) or isinstance((externs or {}).get(e.fn), EnumDomain):
            return Literal(evaluate(e, env, subst, externs, chooser), e.span)
    if isinstance(e, (Attr, ThisAttr)):
        if e.index:
            return type(e)(e.name, tuple(close_expr(i, env, subst, externs, chooser) for i in e.index), e.span)
        v = subst.get(e.name) if isinstance(e, Attr) else None
        return e if v is None else Literal(v, e.span)
    if isinstance(e, Apply):
        return Apply(e.fn, tuple(close_expr(a, env, subst, externs, chooser) for a in e.args), e.span)
    raise TypeError(f"not an expression: {e!r}")


def close(p: Predicate, env: Optional[Env], subst: Subst = EMPTY_SUBST, externs=None, chooser=None) -> Predicate:
    """Closes a predicate (see `close_expr`): with `env` None, this is
    substitution, a capture-free replacement of bound names by value
    literals, and returns `p` itself when `subst` is empty; with `env`,
    a sender closes its target predicate before it sends.  A bare,
    unindexed attribute whose name is bound is a variable occurrence:
    bound variables and attributes share the identifier namespace in
    source text, and validation rejects shadowing."""
    if env is None and not subst.pairs:
        return p
    if isinstance(p, AtomApply):
        return AtomApply(p.name, tuple(close_expr(a, env, subst, externs, chooser) for a in p.args), p.span)
    if isinstance(p, (And, Or)):
        return type(p)(close(p.lhs, env, subst, externs, chooser), close(p.rhs, env, subst, externs, chooser), p.span)
    if isinstance(p, Not):
        return Not(close(p.inner, env, subst, externs, chooser), p.span)
    if isinstance(p, (TruePred, FalsePred)):
        return p
    raise TypeError(f"not a predicate: {p!r}")


def _substitute_updates(ups: Tuple[Update, ...], subst: Subst) -> Tuple[Update, ...]:
    return tuple(
        Update(
            up.name,
            tuple(close_expr(i, None, subst) for i in up.index),
            close_expr(up.rhs, None, subst),
            up.span,
        )
        for up in ups
    )


def substitute_proc(p, subst: Subst, needs: Optional[Dict[str, FrozenSet[str]]] = None):
    """Substitution over process terms: guards, targets, payloads and
    updates are closed with no speaker environment (see `close`).  Input
    binders shadow; a call captures the substitution in its closure so
    the definition body sees the bindings of its own call site when
    unfolded.  With `needs` (see `validate.call_needs`), a closure keeps
    only the names its definition reads; without, it keeps every binding
    in scope.  Loops along prefix chains and maps over the operands of a
    `|`/`+` chain, so a long chain of either kind costs no stack."""
    chain = []  # (prefix, the substitution under it)
    while subst.pairs and isinstance(p, (Input, Output, Aware)):
        if isinstance(p, Input):
            subst = subst.without(p.binders)
        chain.append((p, subst))
        p = p.then if isinstance(p, (Input, Output)) else p.body
    if not subst.pairs or isinstance(p, Inact):
        pass
    elif isinstance(p, (Choice, Par)):
        p = type(p)(tuple(substitute_proc(q, subst, needs) for q in p.operands), p.span)
    elif isinstance(p, Call):
        merged = dict(subst.pairs)
        merged.update(p.closure.pairs)  # call-site bindings already captured win
        if needs is not None:
            read = needs[p.name]
            merged = {n: v for n, v in merged.items() if n in read}
        p = Call(p.name, Subst.of(merged), p.span)
    else:
        raise TypeError(f"not a process: {p!r}")
    for node, s in reversed(chain):
        if isinstance(node, Aware):
            p = Aware(close(node.guard, None, s), p, node.span)
        elif isinstance(node, Input):
            p = Input(close(node.guard, None, s), node.binders, _substitute_updates(node.updates, s), p, node.span)
        else:
            payload = tuple(close_expr(e, None, s) for e in node.payload)
            p = Output(payload, close(node.target, None, s), _substitute_updates(node.updates, s), p, node.span)
    return p


# ---------------------------------------------------------------------------
# satisfaction


def satisfies(env: Env, p: Predicate, externs=None, chooser=None, subst=EMPTY_SUBST, this=None) -> bool:
    """Judges `p` where it stands, open or closed: its atoms read `env`,
    `subst` and `this` as in `evaluate`.  An atom that cannot be
    evaluated — absent attribute, type error, ordered comparison with
    undef — counts as false, which keeps satisfaction total (a component
    lacking an attribute silently falls outside the addressed group),
    but a `ThisAttrError` is the judge's own and propagates.  Operands
    are judged left to right, and one that is not reached is not
    evaluated."""
    if isinstance(p, AtomApply):  # the most common node, so tested first
        name, args = p.name, p.args
        try:
            if name in COMPARE_OPS:
                a = evaluate(args[0], env, subst, externs, chooser, this)
                return compare_values(name, a, evaluate(args[1], env, subst, externs, chooser, this), p.span)
            if name == "in":
                a = evaluate(args[0], env, subst, externs, chooser, this)
                return _member(a, evaluate(args[1], env, subst, externs, chooser, this), p.span)
            values = [evaluate(a, env, subst, externs, chooser, this) for a in args]
            ext = (externs or {}).get(name)
            r = ext.lookup(tuple(values)) if isinstance(ext, TableFn) else apply_builtin(name, values, p.span)
            return isinstance(r, VBool) and r.v
        except ThisAttrError:
            raise
        except EvalError:
            return False
    if isinstance(p, And):
        return satisfies(env, p.lhs, externs, chooser, subst, this) and satisfies(env, p.rhs, externs, chooser, subst, this)
    if isinstance(p, Or):
        return satisfies(env, p.lhs, externs, chooser, subst, this) or satisfies(env, p.rhs, externs, chooser, subst, this)
    if isinstance(p, Not):
        return not satisfies(env, p.inner, externs, chooser, subst, this)
    if isinstance(p, TruePred):
        return True
    if isinstance(p, FalsePred):
        return False
    raise TypeError(f"not a predicate: {p!r}")


# ---------------------------------------------------------------------------
# updates


def apply_updates(
    env: Env,
    updates: Tuple[Update, ...],
    externs=None,
    chooser=None,
    subst: Subst = EMPTY_SUBST,
) -> Env:
    """Applies assignments left to right; each right-hand side and index
    sees the effect of the previous assignments, and the names `subst`
    binds.  New keys may be created."""
    for up in updates:
        idx = tuple(evaluate(i, env, subst, externs, chooser) for i in up.index)
        val = evaluate(up.rhs, env, subst, externs, chooser)
        env = env.updated(up.name, idx, val)
    return env
