"""Core value, expression, predicate and process types.

Every record is immutable in its fields after construction and safe to
share between threads.  The values a record keeps beside its fields
are a component's canonical text (`ComponentState.text`), an input's
message key (`Input.message_key`), a property's term list
(`Reachable.terms` and its kin) and what a run derives from a spec
(`SystemSpec.run_parts`), each written into the instance on
first use: each is a pure function of fields that never change, so it
cannot go stale, it stays out of `==`, `hash` and `repr`, and two
threads that write it at once write equal values.  A process term, an
environment or a component numbered by a run (see `Numbering`) also
keeps its number, tagged with that run: a term of the spec is shared by
every run over it, and a run reads only a number that it wrote.

Source spans are carried on AST nodes but are excluded from equality
and hashing, so structurally identical terms parsed from different
places compare equal.
"""
from __future__ import annotations

import functools
import hashlib
import sys
from bisect import bisect_right
from typing import Optional, Tuple, Union


# ---------------------------------------------------------------------------
# immutable records


_NO_DEFAULT = object()
_SPAN = object()


def _span_field():
    """Default of a span field: None, and left out of `==`, `hash` and
    `repr`."""
    return _SPAN


class Record:
    """Base of the immutable records.  A subclass lists its fields as
    annotations, in order, with defaults as class attributes.  For each
    subclass one `exec` writes `__init__` (the fields as positional or
    keyword parameters, then `__post_init__` if the class has one),
    `__eq__` (same class and equal compared fields), `__hash__` (the
    hash of the tuple of compared fields) and `__repr__`: the methods
    `@dataclass(frozen=True)` writes, without the work it does per class
    that made it most of the import time of this module.  Assigning or
    deleting an attribute raises AttributeError."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = list(cls.__dict__.get("__annotations__", ()))
        ns = {"_set": object.__setattr__}
        params, compared = ["self"], []
        for n in names:
            default = cls.__dict__.get(n, _NO_DEFAULT)
            if default is _SPAN:
                default = None
                setattr(cls, n, None)
            else:
                compared.append(n)
            if default is _NO_DEFAULT:
                params.append(n)
            else:
                ns["_d_" + n] = default
                params.append(f"{n}=_d_{n}")
        body = [f"  _set(self, {n!r}, {n})" for n in names]
        if hasattr(cls, "__post_init__"):
            body.append("  self.__post_init__()")
        mine = "".join(f"self.{n}," for n in compared)
        theirs = "".join(f"other.{n}," for n in compared)
        shown = ", ".join(f"{n}={{self.{n}!r}}" for n in compared)
        src = (
            f"def __init__({', '.join(params)}):\n" + ("\n".join(body) or "  pass") + "\n"
            "def __eq__(self, other):\n"
            "  if other.__class__ is self.__class__:\n"
            f"    return ({mine}) == ({theirs})\n"
            "  return NotImplemented\n"
            "def __hash__(self):\n"
            f"  return hash(({mine}))\n"
            "def __repr__(self):\n"
            f"  return f{cls.__qualname__ + '(' + shown + ')'!r}\n"
        )
        exec(src, ns)
        for name in ("__init__", "__eq__", "__hash__", "__repr__"):
            if name not in cls.__dict__:
                fn = ns[name]
                fn.__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, fn)

    # (run stamp, number) once a `Numbering` has numbered the record
    _number = None

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# source spans


class Span(Record):
    file: str
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self):
        return f"{self.file}:{self.line}:{self.col}"


# ---------------------------------------------------------------------------
# values


# An integer value has at most INT_DIGITS decimal digits, as many as
# CPython turns into text: 4,300, or fewer when PYTHONINTMAXSTRDIGITS or
# `-X int_max_str_digits` sets a lower limit, so that every value prints.
_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # CPython >= 3.10.7
INT_DIGITS = min(4300, _STR_DIGITS) if _STR_DIGITS else 4300


class VInt(Record):
    v: int


class VFloat(Record):
    """A finite double.  There is one zero: `-0.0` is stored as `0.0`,
    because the two compare and hash equal but would print and key
    apart."""

    v: float

    def __post_init__(self):
        if self.v == 0:
            object.__setattr__(self, "v", 0.0)


class VBool(Record):
    v: bool


class VStr(Record):
    v: str


class VTuple(Record):
    items: Tuple["Value", ...]


class VSet(Record):
    """Finite set of values; construction deduplicates structurally."""

    items: frozenset

    @staticmethod
    def of(values) -> "VSet":
        return VSet(frozenset(values))


class VUndef(Record):
    pass


UNDEF = VUndef()

Value = Union[VInt, VFloat, VBool, VStr, VTuple, VSet, VUndef]


def ser_value(v: Value) -> str:
    """Canonical text form, used for ordering, hashing and set layout."""
    if isinstance(v, VInt):
        return "i%d" % v.v
    if isinstance(v, VFloat):
        return "f%r" % v.v
    if isinstance(v, VBool):
        return "b1" if v.v else "b0"
    if isinstance(v, VStr):
        return "s" + repr(v.v)
    if isinstance(v, VTuple):
        return "(" + ",".join(ser_value(x) for x in v.items) + ")"
    if isinstance(v, VSet):
        return "{" + ",".join(sorted(ser_value(x) for x in v.items)) + "}"
    if isinstance(v, VUndef):
        return "u"
    raise TypeError(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# expressions


class Literal(Record):
    value: Value
    span: Optional[Span] = _span_field()


class Attr(Record):
    """An attribute reference; unindexed, it may also name a bound
    variable (the two share one namespace in source text)."""

    name: str
    index: Tuple["Expr", ...] = ()
    span: Optional[Span] = _span_field()


class ThisAttr(Record):
    name: str
    index: Tuple["Expr", ...] = ()
    span: Optional[Span] = _span_field()


class Apply(Record):
    fn: str
    args: Tuple["Expr", ...]
    span: Optional[Span] = _span_field()


Expr = Union[Literal, Attr, ThisAttr, Apply]


# ---------------------------------------------------------------------------
# predicates


class TruePred(Record):
    span: Optional[Span] = _span_field()


class FalsePred(Record):
    span: Optional[Span] = _span_field()


COMPARE_OPS = frozenset(("=", "!=", "<", "<=", ">", ">="))
# the names of the atoms written infix, `l op r` and `e in s`
INFIX_ATOMS = COMPARE_OPS | {"in"}


class AtomApply(Record):
    """An atomic predicate `name(args)`.  The parser makes `l op r` the
    atom named `op` (one of COMPARE_OPS) over (l, r), and `e in s` the
    atom named `in` over (e, s); no other atom has a name in INFIX_ATOMS,
    because an operator or `in` is no identifier."""

    name: str
    args: Tuple[Expr, ...]
    span: Optional[Span] = _span_field()


class And(Record):
    lhs: "Predicate"
    rhs: "Predicate"
    span: Optional[Span] = _span_field()


class Or(Record):
    lhs: "Predicate"
    rhs: "Predicate"
    span: Optional[Span] = _span_field()


class Not(Record):
    inner: "Predicate"
    span: Optional[Span] = _span_field()


Predicate = Union[TruePred, FalsePred, AtomApply, And, Or, Not]


# ---------------------------------------------------------------------------
# substitutions


class Subst(Record):
    """Immutable map from variable name to Value, stored sorted."""

    pairs: Tuple[Tuple[str, Value], ...] = ()

    @staticmethod
    def of(mapping) -> "Subst":
        return Subst(tuple(sorted(mapping.items())))

    def get(self, name: str) -> Optional[Value]:
        for n, v in self.pairs:
            if n == name:
                return v
        return None

    def domain(self):
        return frozenset(n for n, _ in self.pairs)

    def without(self, names) -> "Subst":
        return Subst(tuple((n, v) for n, v in self.pairs if n not in names))


EMPTY_SUBST = Subst()


# ---------------------------------------------------------------------------
# processes


class Update(Record):
    """One attribute assignment  name[index...] := rhs."""

    name: str
    index: Tuple[Expr, ...]
    rhs: Expr
    span: Optional[Span] = _span_field()


class Inact(Record):
    span: Optional[Span] = _span_field()


class Input(Record):
    """(guard)(binders).[updates] then"""

    guard: Predicate
    binders: Tuple[str, ...]
    updates: Tuple[Update, ...]
    then: "ProcessTerm"
    span: Optional[Span] = _span_field()

    @functools.cached_property
    def message_key(self) -> Tuple[Tuple[int, VStr], ...]:
        """The (position, string) pairs a message must hold for the guard
        to be true: one for each atom `b = "s"` or `"s" = b` in the top
        `&&` chain of the guard, where `b` is an unindexed binder and the
        position is the binder's (its last, if the name repeats, as the
        bindings take it).  A number is not keyed: `x = 1` holds for 1.0
        too.  Written on first use and kept with the node."""
        position = {b: i for i, b in enumerate(self.binders)}
        key, stack = [], [self.guard]
        while stack:
            p = stack.pop()
            if isinstance(p, And):
                stack += (p.rhs, p.lhs)
            elif isinstance(p, AtomApply) and p.name == "=" and len(p.args) == 2:
                b, s = p.args if isinstance(p.args[1], Literal) else reversed(p.args)
                if (isinstance(b, Attr) and not b.index and b.name in position
                        and isinstance(s, Literal) and isinstance(s.value, VStr)):
                    key.append((position[b.name], s.value))
        return tuple(key)


class Output(Record):
    """(payload)@(target).[updates] then"""

    payload: Tuple[Expr, ...]
    target: Predicate
    updates: Tuple[Update, ...]
    then: "ProcessTerm"
    span: Optional[Span] = _span_field()


class Aware(Record):
    guard: Predicate
    body: "ProcessTerm"
    span: Optional[Span] = _span_field()


# A `+` or `|` chain: two or more operands in source order; a
# parenthesised chain is one operand.
class Choice(Record):
    operands: Tuple["ProcessTerm", ...]
    span: Optional[Span] = _span_field()


class Par(Record):
    operands: Tuple["ProcessTerm", ...]
    span: Optional[Span] = _span_field()


class Call(Record):
    """Reference to a named process definition.

    `closure` carries the bindings that were in scope where the call
    occurred; they are applied to the definition body on unfolding, so
    concurrent sessions of the same definition keep distinct bindings.
    """

    name: str
    closure: Subst = EMPTY_SUBST
    span: Optional[Span] = _span_field()


ProcessTerm = Union[Inact, Input, Output, Aware, Choice, Par, Call]


ZERO = Inact()


_CHILDREN = {
    Attr: lambda e: e.index,
    ThisAttr: lambda e: e.index,
    Apply: lambda e: e.args,
    AtomApply: lambda p: p.args,
    And: lambda p: (p.lhs, p.rhs),
    Or: lambda p: (p.lhs, p.rhs),
    Not: lambda p: (p.inner,),
    Update: lambda u: (*u.index, u.rhs),
    Input: lambda p: (p.guard, *p.updates, p.then),
    Output: lambda p: (*p.payload, p.target, *p.updates, p.then),
    Aware: lambda p: (p.guard, p.body),
    Choice: lambda p: p.operands,
    Par: lambda p: p.operands,
}


def subterms(node):
    """Every expression, predicate, update, process term and property
    part inside `node`, `node` first, in preorder (left to right).  A
    call is a leaf: its closure holds values, not terms.  Iterative, so
    depth costs no stack."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        children = _CHILDREN.get(type(node))
        if children is not None:
            stack.extend(reversed(children(node)))


# ---------------------------------------------------------------------------
# canonical serialization (total term order + stable hashing)


def ser_expr(e: Expr) -> str:
    if isinstance(e, Literal):
        return "L" + ser_value(e.value)
    if isinstance(e, Attr):
        return "A" + e.name + "[" + ",".join(ser_expr(i) for i in e.index) + "]"
    if isinstance(e, ThisAttr):
        return "T" + e.name + "[" + ",".join(ser_expr(i) for i in e.index) + "]"
    if isinstance(e, Apply):
        return "F" + e.fn + "(" + ",".join(ser_expr(a) for a in e.args) + ")"
    raise TypeError(f"not an expression: {e!r}")


def ser_pred(p: Predicate) -> str:
    if isinstance(p, TruePred):
        return "tt"
    if isinstance(p, FalsePred):
        return "ff"
    if isinstance(p, AtomApply):
        head = "P" + p.name if p.name not in INFIX_ATOMS else "M" if p.name == "in" else "C" + p.name
        return head + "(" + ",".join(ser_expr(a) for a in p.args) + ")"
    if isinstance(p, And):
        return "&(" + ser_pred(p.lhs) + "," + ser_pred(p.rhs) + ")"
    if isinstance(p, Or):
        return "|(" + ser_pred(p.lhs) + "," + ser_pred(p.rhs) + ")"
    if isinstance(p, Not):
        return "!(" + ser_pred(p.inner) + ")"
    raise TypeError(f"not a predicate: {p!r}")


def _operands(p: ProcessTerm, kind) -> list:
    """The operands of the `kind` chain at `p`: nested `kind` chains are
    flattened and the `0`s of a `|` chain dropped.  In a `+` chain, a
    `|` left with one operand stands for that operand, so the operands
    of `((A + B) | 0) + C` are A, B and C."""
    parts, stack = [], [p]
    while stack:
        q = stack.pop()
        if isinstance(q, kind):
            stack += reversed(q.operands)
        elif kind is Choice and isinstance(q, Par) and len(sub := _operands(q, Par)) == 1:
            stack.append(sub[0])
        elif kind is Choice or not isinstance(q, Inact):
            parts.append(q)
    return parts


def ser_proc(p: ProcessTerm) -> str:
    """Canonical text of `p`, the same for terms equal under
    commutativity and associativity of `|` and `+` and the unit law
    P | 0 = P.  The operands of each `|`/`+` chain are written sorted
    and right-nested; an inactive operand has no actions, so dropping it
    keeps the behaviour.  Loops along prefix chains and recurses only
    into chain operands, so a long prefix chain costs no stack."""
    out = []
    while True:
        if isinstance(p, (Input, Output)):
            if isinstance(p, Input):
                head = f"in({ser_pred(p.guard)})({','.join(p.binders)})"
            else:
                head = f"out({','.join(map(ser_expr, p.payload))})@({ser_pred(p.target)})"
            ups = ";".join(
                f"{u.name}[{','.join(map(ser_expr, u.index))}]:={ser_expr(u.rhs)}" for u in p.updates
            )
            out.append(f"{head}.[{ups}]")
            p = p.then
        elif isinstance(p, Aware):
            out.append("<" + ser_pred(p.guard) + ">")
            p = p.body
        elif isinstance(p, (Choice, Par)) and len(parts := _operands(p, type(p))) < 2:
            p = parts[0] if parts else ZERO
        else:
            break
    if isinstance(p, (Choice, Par)):  # `parts` holds its operands from the last test above
        texts = sorted(map(ser_proc, parts))
        tag = "+(" if isinstance(p, Choice) else "|("
        out += [tag + t + "," for t in texts[:-1]]
        out.append(texts[-1] + ")" * (len(texts) - 1))
    elif isinstance(p, Inact):
        out.append("0")
    elif isinstance(p, Call):
        out.append("K" + p.name + "{" + ",".join(f"{n}={ser_value(v)}" for n, v in p.closure.pairs) + "}")
    else:
        raise TypeError(f"not a process: {p!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# attribute environments


AttrKey = Tuple[str, Tuple[Value, ...]]


class Env(Record):
    """Partial map from (attribute name, index tuple) to Value.

    An absent key is distinguishable from a stored UNDEF.  Entries are
    kept sorted, so equal environments have equal representations.
    """

    entries: Tuple[Tuple[AttrKey, Value], ...] = ()

    @staticmethod
    def of(mapping) -> "Env":
        norm = {}
        for k, v in mapping.items():
            if isinstance(k, str):
                k = (k, ())
            norm[k] = v
        return Env(tuple(sorted(norm.items(), key=lambda kv: _key_order(kv[0]))))

    def lookup(self, name: str, index: Tuple[Value, ...] = ()) -> Optional[Value]:
        """Value stored under the key, or None when absent."""
        for k, v in self.entries:
            if k[0] == name and k[1] == index:
                return v
        return None

    def has(self, name: str, index: Tuple[Value, ...] = ()) -> bool:
        return self.lookup(name, index) is not None

    def updated(self, name: str, index: Tuple[Value, ...], value: Value) -> "Env":
        """The environment with `value` stored under the key: an existing
        entry is replaced where it stands, and a new one is inserted in
        key order."""
        entries = self.entries
        for i, (k, _) in enumerate(entries):
            if k[0] == name and k[1] == index:
                return Env(entries[:i] + ((k, value),) + entries[i + 1:])
        key = (name, index)
        i = bisect_right(entries, _key_order(key), key=lambda kv: _key_order(kv[0]))
        return Env(entries[:i] + ((key, value),) + entries[i:])

    def restricted(self, names) -> "Env":
        return Env(tuple((k, v) for k, v in self.entries if k[0] in names))


def _key_order(k: AttrKey):
    return (k[0], tuple(ser_value(v) for v in k[1]))


def ser_env(env: Env) -> str:
    return ";".join(
        f"{k[0]}[{','.join(ser_value(i) for i in k[1])}]={ser_value(v)}"
        for k, v in env.entries
    )


# ---------------------------------------------------------------------------
# externs


class EnumDomain(Record):
    """Nondeterministic external choice over a finite, non-empty domain."""

    values: Tuple[Value, ...]

    @staticmethod
    def of(values) -> "EnumDomain":
        uniq = {ser_value(v): v for v in values}
        return EnumDomain(tuple(uniq[k] for k in sorted(uniq)))


class TableFn(Record):
    """Deterministic function given by explicit argument/result rows."""

    rows: Tuple[Tuple[Tuple[Value, ...], Value], ...]

    @staticmethod
    def of(mapping) -> "TableFn":
        return TableFn(
            tuple(sorted(mapping.items(), key=lambda kv: tuple(ser_value(v) for v in kv[0])))
        )

    def lookup(self, args: Tuple[Value, ...]) -> Optional[Value]:
        for a, r in self.rows:
            if a == args:
                return r
        return None


ExternDecl = Union[EnumDomain, TableFn]


# ---------------------------------------------------------------------------
# components / systems


class ComponentState(Record):
    """Γ :_I P.  Received values live in the process term, substituted
    into the continuation of the input that bound them."""

    name: str
    env: Env
    interface: frozenset
    proc: ProcessTerm

    @functools.cached_property
    def text(self) -> str:
        """Canonical text of the component, `name{env}proc`, written on
        first use and kept with the component."""
        return self.name + "{" + ser_env(self.env) + "}" + ser_proc(self.proc)


SystemState = Tuple[ComponentState, ...]


class Numbering:
    """One run's hash-consing table (Filliâtre & Conchon, "Type-safe
    modular hash-consing", 2006): it gives each distinct process term,
    environment and component a small integer, so that two numbered by
    one `Numbering` have equal numbers exactly when they have equal
    canonical texts.  A term is keyed by its kind, its own fields and
    its children's numbers, as `ser_proc` writes it: a `|` or `+` chain
    by the sorted numbers of its `_operands`, a chain of fewer than two
    operands by its operand's number, a prefix by its guard or payload
    and target, binders, updates and the number of its continuation.

    Each object is numbered once per run: its number is written into the
    instance with the run's `stamp`, and a number with another stamp is
    not read, so a run never takes a number from another run over the
    same spec.  A new prefix on a numbered continuation costs one key,
    so a prefix chain is numbered in linear time and without recursion.
    The table keeps the keys, which hold fields and numbers, not the
    numbered objects."""

    def __init__(self):
        self.keys: dict = {}
        self.stamp = object()

    def _intern(self, key) -> int:
        n = self.keys.get(key)
        if n is None:
            n = self.keys[key] = len(self.keys)
        return n

    def proc(self, p: ProcessTerm) -> int:
        """The number of `p`, numbering its unnumbered subterms bottom-up
        with an explicit stack."""
        stamp = self.stamp
        done: list = []  # the numbers of finished terms whose parent is pending
        todo: list = [(p, None)]
        while todo:
            q, parts = todo.pop()
            cls = q.__class__
            if parts is None:  # first visit: number the children first
                got = q._number
                if got is not None and got[0] is stamp:
                    done.append(got[1])
                    continue
                if cls is Input or cls is Output:
                    todo += ((q, ()), (q.then, None))
                    continue
                if cls is Aware:
                    todo += ((q, ()), (q.body, None))
                    continue
                if cls is Choice or cls is Par:
                    parts = _operands(q, cls) or [ZERO]
                    todo.append((q, parts))
                    todo += ((o, None) for o in parts)
                    continue
            if cls is Input:
                n = self._intern((Input, q.guard, q.binders, q.updates, done.pop()))
            elif cls is Output:
                n = self._intern((Output, q.payload, q.target, q.updates, done.pop()))
            elif cls is Aware:
                n = self._intern((Aware, q.guard, done.pop()))
            elif cls is Choice or cls is Par:
                kids = done[-len(parts):]
                del done[-len(parts):]
                n = kids[0] if len(kids) == 1 else self._intern((cls, tuple(sorted(kids))))
            elif cls is Call:
                n = self._intern((Call, q.name, q.closure))
            elif cls is Inact:
                n = self._intern((Inact,))
            else:
                raise TypeError(f"not a process: {q!r}")
            object.__setattr__(q, "_number", (stamp, n))
            done.append(n)
        return done[0]

    def env(self, env: "Env") -> int:
        got = env._number
        if got is not None and got[0] is self.stamp:
            return got[1]
        n = self._intern((Env, env.entries))
        object.__setattr__(env, "_number", (self.stamp, n))
        return n

    def component(self, c: ComponentState) -> int:
        got = c._number
        if got is not None and got[0] is self.stamp:
            return got[1]
        n = self._intern((c.name, self.env(c.env), c.interface, self.proc(c.proc)))
        object.__setattr__(c, "_number", (self.stamp, n))
        return n


def state_key(s: SystemState, numbering: Optional[Numbering] = None) -> tuple:
    """The canonical key of a state: its components' numbers in
    `numbering`, or without one their texts.  Two states have equal keys
    in one numbering exactly when they have equal text keys."""
    if numbering is None:
        return tuple([c.text for c in s])
    stamp = numbering.stamp
    return tuple([got[1] if (got := c._number) is not None and got[0] is stamp
                  else numbering.component(c) for c in s])


def state_hash(s: SystemState) -> str:
    h = hashlib.sha256("∥".join(state_key(s)).encode("utf-8"))
    return h.hexdigest()[:16]


class BroadcastEvent(Record):
    """One system transition: a broadcast with its delivery outcome."""

    sender: int
    message: Tuple[Value, ...]
    sent_pred: Predicate
    exposed_env: Env
    receivers: frozenset  # of (component index, branch ordinal)
    discarded: frozenset  # of component index

    def tag(self) -> Optional[str]:
        if self.message and isinstance(self.message[0], VStr):
            return self.message[0].v
        return None


# ---------------------------------------------------------------------------
# properties


class Sent(Record):
    component: str  # component name or "*"
    tag: str


class Received(Record):
    component: str
    tag: str


Event = Union[Sent, Received]


class SCompare(Record):
    """The atom `component.attr[index] op value` of a state expression."""

    component: str  # name or "*"
    attr: str
    index: Tuple[Value, ...]
    op: str
    value: Value
    span: Optional[Span] = _span_field()


# A state expression is a predicate over SCompare atoms.
StateExpr = Union[TruePred, FalsePred, SCompare, And, Or, Not]


class _Formula:
    """What the three property kinds share beside `Record`."""

    @functools.cached_property
    def terms(self) -> tuple:
        """`subterms(self)` as a tuple, written on first use and kept
        with the property, so `validate` and every check of the property
        share one walk."""
        return tuple(subterms(self))


class Reachable(Record, _Formula):
    target: Union[Event, StateExpr]


class Invariant(Record, _Formula):
    expr: StateExpr


class LeadsTo(Record, _Formula):
    trigger: Event
    goals: Tuple[Event, ...]  # disjunctive


Property = Union[Reachable, Invariant, LeadsTo]


_CHILDREN.update({
    Reachable: lambda p: (p.target,),
    Invariant: lambda p: (p.expr,),
    LeadsTo: lambda p: (p.trigger, *p.goals),
})

# the terms that are no level of an expression, predicate or formula tree
_FLAT = (Inact, Input, Output, Aware, Choice, Par, Call, Update, Reachable, Invariant, LeadsTo)


def nesting(node):
    """(term, depth) for each term that `subterms(node)` yields, in its
    order.  Process terms, updates and properties are at depth 0; any
    other term is one level below its parent, so the root of an
    expression, predicate or formula tree is at depth 1."""
    stack = [(node, 0)]
    while stack:
        node, depth = stack.pop()
        depth = 0 if isinstance(node, _FLAT) else depth + 1
        yield node, depth
        children = _CHILDREN.get(type(node))
        if children is not None:
            stack.extend((c, depth) for c in reversed(children(node)))


# ---------------------------------------------------------------------------
# parsed specifications


class ComponentDecl(Record):
    name: str
    attrs: Tuple[Tuple[AttrKey, Value], ...]
    interface: Tuple[str, ...]
    proc: ProcessTerm
    span: Optional[Span] = _span_field()


class SystemSpec(Record):
    components: Tuple[ComponentDecl, ...]
    proc_defs: Tuple[Tuple[str, ProcessTerm], ...]
    externs: Tuple[Tuple[str, ExternDecl], ...]
    properties: Tuple[Tuple[str, Property], ...]

    # (definitions, externs, needs) once `semantics.Run.of_spec` has
    # accepted the spec; not a field, so equality and hash ignore it
    run_parts = None

    def defs_map(self):
        return dict(self.proc_defs)

    def externs_map(self):
        return dict(self.externs)

    def initial_state(self) -> SystemState:
        comps = []
        for d in self.components:
            comps.append(
                ComponentState(d.name, Env.of(dict(d.attrs)), frozenset(d.interface), d.proc)
            )
        return tuple(comps)

    def component_names(self) -> Tuple[str, ...]:
        return tuple(d.name for d in self.components)
