"""Deterministic pretty-printing of specs, processes, predicates, values.

The layout is canonical: printing a parsed spec and re-parsing the
result yields a structurally equal AST.  Parenthesisation preserves the
shape of `|` and `+` chains exactly.
"""
from __future__ import annotations

from .terms import (
    And,
    Apply,
    Attr,
    AtomApply,
    Aware,
    Call,
    Choice,
    EnumDomain,
    FalsePred,
    Inact,
    INFIX_ATOMS,
    Input,
    Invariant,
    LeadsTo,
    Literal,
    Not,
    Or,
    Output,
    Par,
    Reachable,
    Received,
    SCompare,
    Sent,
    SystemSpec,
    TableFn,
    ThisAttr,
    TruePred,
    VBool,
    VFloat,
    VInt,
    VSet,
    VStr,
    VTuple,
    VUndef,
    ser_value,
)


# The lexer's escapes; any other character, a carriage return or a
# non-ASCII letter included, is written as itself.
_STRING_ESCAPES = str.maketrans({'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t"})


def pp_value(v) -> str:
    if isinstance(v, VInt):
        return str(v.v)
    if isinstance(v, VFloat):
        return repr(v.v)
    if isinstance(v, VBool):
        return "true" if v.v else "false"
    if isinstance(v, VStr):
        return '"' + v.v.translate(_STRING_ESCAPES) + '"'
    if isinstance(v, VUndef):
        return "undef"
    if isinstance(v, VSet):
        items = sorted(v.items, key=ser_value)
        return "{" + ", ".join(pp_value(x) for x in items) + "}"
    if isinstance(v, VTuple):
        return "(" + ", ".join(pp_value(x) for x in v.items) + ")"
    raise TypeError(f"not a value: {v!r}")


# expression precedence: 0 additive, 1 multiplicative, 2 unary, 3 atom
def pp_expr(e, level: int = 0) -> str:
    if isinstance(e, Literal):
        return pp_value(e.value)
    if isinstance(e, Attr):
        return e.name + _pp_index(e.index)
    if isinstance(e, ThisAttr):
        return "this." + e.name + _pp_index(e.index)
    if isinstance(e, Apply):
        if e.fn in ("+", "-") and len(e.args) == 2:
            s = f"{pp_expr(e.args[0], 0)} {e.fn} {pp_expr(e.args[1], 1)}"
            return f"({s})" if level > 0 else s
        if e.fn in ("*", "/") and len(e.args) == 2:
            s = f"{pp_expr(e.args[0], 1)} {e.fn} {pp_expr(e.args[1], 2)}"
            return f"({s})" if level > 1 else s
        if e.fn == "neg" and len(e.args) == 1:
            return "-" + pp_expr(e.args[0], 2)
        return e.fn + "(" + ", ".join(pp_expr(a, 0) for a in e.args) + ")"
    raise TypeError(f"not an expression: {e!r}")


def _pp_index(index) -> str:
    if not index:
        return ""
    return "[" + ", ".join(pp_expr(i, 0) for i in index) + "]"


def _pp_values(index) -> str:
    """A value index, as in attribute declarations and state expressions."""
    return "[" + ", ".join(map(pp_value, index)) + "]" if index else ""


# predicate and state expression precedence: 0 or, 1 and, 2 atom
def pp_pred(p, level: int = 0) -> str:
    if isinstance(p, TruePred):
        return "tt"
    if isinstance(p, FalsePred):
        return "ff"
    if isinstance(p, Or):
        s = f"{pp_pred(p.lhs, 0)} || {pp_pred(p.rhs, 1)}"
        return f"({s})" if level > 0 else s
    if isinstance(p, And):
        s = f"{pp_pred(p.lhs, 1)} && {pp_pred(p.rhs, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(p, Not):
        return "!(" + pp_pred(p.inner, 0) + ")"
    if isinstance(p, AtomApply):
        if p.name in INFIX_ATOMS:
            return f"{pp_expr(p.args[0], 1)} {p.name} {pp_expr(p.args[1], 1)}"
        return p.name + "(" + ", ".join(pp_expr(a, 0) for a in p.args) + ")"
    if isinstance(p, SCompare):
        return f"{p.component}.{p.attr}{_pp_values(p.index)} {p.op} {pp_value(p.value)}"
    raise TypeError(f"not a predicate: {p!r}")


# process precedence: 0 par, 1 choice, 2 prefixed
def pp_proc(p, level: int = 0) -> str:
    """Loops along prefix chains and maps over the operands of a `|`/`+`
    chain, so a long chain of either kind costs no stack.  An operand that
    is a chain of the same kind prints in parentheses, as it parses."""
    parts = []
    while isinstance(p, (Aware, Output, Input)):
        if isinstance(p, Aware):
            parts.append(f"<{pp_pred(p.guard)}> ")
            p, level = p.body, 2
        else:
            if isinstance(p, Output):
                payload = ", ".join(pp_expr(e, 0) for e in p.payload)
                parts.append(f"({payload})@({pp_pred(p.target)}).")
            else:
                parts.append(f"({pp_pred(p.guard)})({', '.join(p.binders)}).")
            if p.updates:
                ups = ", ".join(f"{u.name}{_pp_index(u.index)} := {pp_expr(u.rhs, 0)}" for u in p.updates)
                parts.append(f"[{ups}] ")
            p, level = p.then, 2
    if isinstance(p, (Par, Choice)):
        op, own = (" | ", 0) if isinstance(p, Par) else (" + ", 1)
        chain = op.join(pp_proc(q, own + 1) for q in p.operands)
        parts.append(f"({chain})" if level > own else chain)
    elif isinstance(p, Inact):
        parts.append("0")
    elif isinstance(p, Call):
        parts.append(p.name)
    else:
        raise TypeError(f"not a process: {p!r}")
    return "".join(parts)


def pp_event(e) -> str:
    kw = "sent" if isinstance(e, Sent) else "received"
    return f"{kw}({e.component}, {pp_value(VStr(e.tag))})"


def pp_property(p) -> str:
    if isinstance(p, Reachable):
        if isinstance(p.target, (Sent, Received)):
            return "reachable " + pp_event(p.target)
        return "reachable " + pp_pred(p.target)
    if isinstance(p, Invariant):
        return "invariant " + pp_pred(p.expr)
    if isinstance(p, LeadsTo):
        goals = " || ".join(pp_event(g) for g in p.goals)
        if len(p.goals) > 1:
            goals = f"({goals})"
        return f"{pp_event(p.trigger)} leadsto {goals}"
    raise TypeError(f"not a property: {p!r}")


def pp_spec(spec: SystemSpec) -> str:
    """Canonical textual layout; empty specs print as empty text."""
    lines = []
    for name, decl in spec.externs:
        if isinstance(decl, EnumDomain):
            vals = ", ".join(pp_value(v) for v in decl.values)
            lines.append(f"extern {name} : {{{vals}}}")
        elif isinstance(decl, TableFn):
            rows = ", ".join(
                "(" + ", ".join(pp_value(a) for a in args) + ") -> " + pp_value(res)
                for args, res in decl.rows
            )
            lines.append(f"extern {name} : map {{{rows}}}")
    if lines and (spec.proc_defs or spec.components or spec.properties):
        lines.append("")
    for name, proc in spec.proc_defs:
        lines.append(f"proc {name} = {pp_proc(proc)}")
    if spec.proc_defs and (spec.components or spec.properties):
        lines.append("")
    for comp in spec.components:
        lines.append(f"component {comp.name} {{")
        lines.append("  attrs {")
        for (aname, index), value in comp.attrs:
            lines.append(f"    {aname}{_pp_values(index)} = {pp_value(value)};")
        lines.append("  }")
        lines.append("  interface { " + ", ".join(comp.interface) + " }")
        lines.append(f"  run {pp_proc(comp.proc)}")
        lines.append("}")
    for name, prop in spec.properties:
        lines.append(f"property {name} = {pp_property(prop)}")
    return "\n".join(lines) + ("\n" if lines else "")
