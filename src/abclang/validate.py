"""Load-time validation of a parsed specification.

Checks the well-formedness rules the step relations rely on: unique
definitions, resolvable calls and externs, distinct binders, interfaces
drawn from declared attributes, no unbound variables, and no binder
shadowing a declared attribute (bound variables and attributes share
the identifier namespace in source text).
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from .evaluator import BUILTIN_NAMES, EvalError
from .parser import Diagnostic
from .terms import (
    And,
    Apply,
    Attr,
    AtomApply,
    Aware,
    Call,
    Choice,
    Compare,
    EnumDomain,
    Inact,
    Input,
    Invariant,
    LeadsTo,
    Literal,
    Member,
    Not,
    Or,
    Output,
    Par,
    Reachable,
    Received,
    SAnd,
    SCompare,
    SNot,
    SOr,
    Sent,
    SystemSpec,
    ThisAttr,
    UpdateSeq,
    Var,
)


def _expr_names(e, out: Set[str]):
    """Collects bare, unindexed identifier references (variable or
    attribute; they cannot be told apart syntactically)."""
    if isinstance(e, Literal):
        return
    if isinstance(e, Var):
        out.add(e.name)
        return
    if isinstance(e, Attr):
        if not e.index:
            out.add(e.name)
        for i in e.index:
            _expr_names(i, out)
        return
    if isinstance(e, ThisAttr):
        for i in e.index:
            _expr_names(i, out)
        return
    if isinstance(e, Apply):
        for a in e.args:
            _expr_names(a, out)
        return


def _pred_names(p, out: Set[str]):
    if isinstance(p, Compare):
        _expr_names(p.lhs, out)
        _expr_names(p.rhs, out)
    elif isinstance(p, Member):
        _expr_names(p.elem, out)
        _expr_names(p.set, out)
    elif isinstance(p, AtomApply):
        for a in p.args:
            _expr_names(a, out)
    elif isinstance(p, (And, Or)):
        _pred_names(p.lhs, out)
        _pred_names(p.rhs, out)
    elif isinstance(p, Not):
        _pred_names(p.inner, out)


def _free_names(proc, def_free: Dict[str, FrozenSet[str]]) -> FrozenSet[str]:
    """Free identifier references of a process term, treating a call as
    free in whatever its definition is currently known to need.

    Only expression positions (payloads, updates, indexes) count:
    a bare name inside a predicate falls back to an attribute of the
    judging party at runtime, so it can never be a hard unbound error.
    """
    if isinstance(proc, Inact):
        return frozenset()
    if isinstance(proc, Call):
        return def_free.get(proc.name, frozenset()) - proc.closure.domain()
    if isinstance(proc, Aware):
        return _free_names(proc.body, def_free)
    if isinstance(proc, (Choice, Par)):
        return _free_names(proc.left, def_free) | _free_names(proc.right, def_free)
    if isinstance(proc, Output):
        names: Set[str] = set()
        for e in proc.payload:
            _expr_names(e, names)
        return frozenset(names) | _useq_free(proc.cont, def_free)
    if isinstance(proc, Input):
        inner = _useq_free(proc.cont, def_free)
        return inner - frozenset(proc.binders)
    raise TypeError(f"not a process: {proc!r}")


def _useq_free(cont: UpdateSeq, def_free) -> FrozenSet[str]:
    names: Set[str] = set()
    for u in cont.updates:
        for i in u.index:
            _expr_names(i, names)
        _expr_names(u.rhs, names)
    return frozenset(names) | _free_names(cont.then, def_free)


def _read_names(proc, needs: Dict[str, FrozenSet[str]]) -> FrozenSet[str]:
    """Names that a substitution applied to `proc` replaces: bare names in
    every position, predicates included, less input binders; a call reads
    what its definition is known to need, less its closure.  Raises
    EvalError for a call to a process `needs` does not know.

    Unlike `_free_names`, guards and targets count: `substitute` replaces
    a bound name there too, so a closure value can be read only in a guard.
    """
    if isinstance(proc, Inact):
        return frozenset()
    if isinstance(proc, Call):
        need = needs.get(proc.name)
        if need is None:
            raise EvalError(f"undefined process {proc.name}", proc.span)
        return need - proc.closure.domain() if proc.closure.pairs else need
    if isinstance(proc, (Choice, Par)):
        return _read_names(proc.left, needs) | _read_names(proc.right, needs)
    names: Set[str] = set()
    if isinstance(proc, Aware):
        _pred_names(proc.guard, names)
        return _read_names(proc.body, needs).union(names)
    if isinstance(proc, Output):
        for e in proc.payload:
            _expr_names(e, names)
        _pred_names(proc.target, names)
    elif isinstance(proc, Input):
        _pred_names(proc.guard, names)
    else:
        raise TypeError(f"not a process: {proc!r}")
    for u in proc.cont.updates:
        for i in u.index:
            _expr_names(i, names)
        _expr_names(u.rhs, names)
    names |= _read_names(proc.cont.then, needs)
    if isinstance(proc, Input):
        names.difference_update(proc.binders)
    return frozenset(names)


def _fixpoint(defs, names_of) -> Dict[str, FrozenSet[str]]:
    """Least solution of `known[name] = names_of(defs[name], known)` over
    the definitions, iterated up from empty sets."""
    known: Dict[str, FrozenSet[str]] = {name: frozenset() for name in defs}
    changed = True
    while changed:
        changed = False
        for name, body in defs.items():
            names = names_of(body, known)
            if names != known[name]:
                known[name] = names
                changed = True
    return known


def call_needs(defs, roots=()) -> Dict[str, FrozenSet[str]]:
    """The names each definition needs from the closure of a call to it,
    with what the definitions it calls need.  `substitute_proc` keeps only
    these in the closures it builds: the other bindings cannot change the
    unfolded body, and would only tell apart states that behave the same.

    Raises EvalError for a call, in a definition or in one of `roots`, to
    a process `defs` does not define; `semantics.Run.of` passes the
    components' processes, because a spec need not have been validated.
    """
    needs = _fixpoint(defs, _read_names)
    for root in roots:
        _read_names(root, needs)
    return needs


def _walk(proc, visit):
    visit(proc)
    if isinstance(proc, (Choice, Par)):
        _walk(proc.left, visit)
        _walk(proc.right, visit)
    elif isinstance(proc, Aware):
        _walk(proc.body, visit)
    elif isinstance(proc, (Input, Output)):
        _walk(proc.cont.then, visit)


def _reachable_defs(root, defs) -> Set[str]:
    seen: Set[str] = set()
    frontier = [root]
    while frontier:
        p = frontier.pop()
        calls: List[str] = []
        _walk(p, lambda q: calls.append(q.name) if isinstance(q, Call) else None)
        for name in calls:
            if name in defs and name not in seen:
                seen.add(name)
                frontier.append(defs[name])
    return seen


def _unguarded_calls(proc, out: List[Call]) -> List[Call]:
    """Calls not under an input or output prefix; choice, parallel
    composition and awareness are transparent."""
    if isinstance(proc, Call):
        out.append(proc)
    elif isinstance(proc, (Choice, Par)):
        _unguarded_calls(proc.left, out)
        _unguarded_calls(proc.right, out)
    elif isinstance(proc, Aware):
        _unguarded_calls(proc.body, out)
    return out


def _unguarded_cycles(defs) -> List[Tuple[List[str], Call]]:
    """Cycles of the graph of unguarded calls between definitions, as
    (names along the cycle, first call), each cycle reported once from
    its first definition.  Unfolding such a cycle never reaches an
    action, so the step relation would not terminate."""
    edges = {name: [c for c in _unguarded_calls(body, []) if c.name in defs]
             for name, body in defs.items()}
    reported: Set[str] = set()
    cycles = []
    for root in defs:
        if root in reported:
            continue
        # breadth-first search for the shortest way back to `root`
        prev: Dict[str, Tuple[str, Call]] = {}
        queue = [root]
        while queue and root not in prev:
            nxt = []
            for u in queue:
                for call in edges[u]:
                    if call.name not in prev:
                        prev[call.name] = (u, call)
                        nxt.append(call.name)
            queue = nxt
        if root not in prev:
            continue
        path = [root]
        while len(path) == 1 or path[-1] != root:
            path.append(prev[path[-1]][0])
        path.reverse()
        reported.update(path)
        cycles.append((path, prev[path[1]][1]))
    return cycles


def _unguarded_message(path: List[str]) -> str:
    return f"unguarded recursion {' -> '.join(path)}: the call cycle passes no input or output prefix"


def require_guarded(defs) -> None:
    """Raises EvalError for the first unguarded call cycle in `defs`.  The
    step relation relies on there being none; `semantics.Run.of` checks
    it because a spec need not have been validated."""
    for path, call in _unguarded_cycles(defs):
        raise EvalError(_unguarded_message(path), call.span)


def _apply_names(proc) -> Set[str]:
    names: Set[str] = set()

    def from_expr(e):
        if isinstance(e, Apply):
            names.add(e.fn)
            for a in e.args:
                from_expr(a)
        elif isinstance(e, (Attr, ThisAttr)):
            for i in e.index:
                from_expr(i)

    def from_pred(p):
        if isinstance(p, Compare):
            from_expr(p.lhs)
            from_expr(p.rhs)
        elif isinstance(p, Member):
            from_expr(p.elem)
            from_expr(p.set)
        elif isinstance(p, AtomApply):
            names.add(p.name)
            for a in p.args:
                from_expr(a)
        elif isinstance(p, (And, Or)):
            from_pred(p.lhs)
            from_pred(p.rhs)
        elif isinstance(p, Not):
            from_pred(p.inner)

    def visit(q):
        if isinstance(q, Aware):
            from_pred(q.guard)
        elif isinstance(q, Input):
            from_pred(q.guard)
            for u in q.cont.updates:
                from_expr(u.rhs)
                for i in u.index:
                    from_expr(i)
        elif isinstance(q, Output):
            from_pred(q.target)
            for e in q.payload:
                from_expr(e)
            for u in q.cont.updates:
                from_expr(u.rhs)
                for i in u.index:
                    from_expr(i)

    _walk(proc, visit)
    return names


def _update_targets(proc) -> Set[str]:
    targets: Set[str] = set()

    def visit(q):
        if isinstance(q, (Input, Output)):
            for u in q.cont.updates:
                targets.add(u.name)

    _walk(proc, visit)
    return targets


def _binders(proc) -> List[Tuple]:
    found: List[Tuple] = []
    _walk(proc, lambda q: found.append(q) if isinstance(q, Input) else None)
    return found


def validate(spec: SystemSpec) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    defs = {}
    for name, body in spec.proc_defs:
        if name in defs:
            diags.append(Diagnostic("error", None, f"duplicate process definition {name}", "E-DUP-PROC"))
        defs[name] = body
    externs = dict(spec.externs)
    comp_names = set()
    for comp in spec.components:
        if comp.name in comp_names:
            diags.append(Diagnostic("error", comp.span, f"duplicate component {comp.name}", "E-DUP-COMP"))
        comp_names.add(comp.name)

    for name, decl in spec.externs:
        if isinstance(decl, EnumDomain) and not decl.values:
            diags.append(Diagnostic("error", None, f"extern {name} has an empty domain", "E-EMPTY-DOMAIN"))

    # call targets and extern/builtin references
    all_roots = [body for _, body in spec.proc_defs] + [c.proc for c in spec.components]
    for root in all_roots:
        calls: List = []
        _walk(root, lambda q: calls.append(q) if isinstance(q, Call) else None)
        for call in calls:
            if call.name not in defs:
                diags.append(
                    Diagnostic("error", call.span, f"undefined process {call.name}", "E-UNDEF-PROC")
                )
        for fn in sorted(_apply_names(root)):
            if fn not in externs and fn not in BUILTIN_NAMES:
                diags.append(
                    Diagnostic("error", None, f"undefined extern or function {fn}", "E-UNDEF-EXTERN")
                )

    for path, call in _unguarded_cycles(defs):
        diags.append(
            Diagnostic("error", call.span, _unguarded_message(path), "E-UNGUARDED")
        )

    # distinct binders
    for root in all_roots:
        for inp in _binders(root):
            if len(set(inp.binders)) != len(inp.binders):
                diags.append(
                    Diagnostic("error", inp.span, "input binders must be pairwise distinct", "E-DUP-BINDER")
                )

    def_free = _fixpoint(defs, _free_names)

    for comp in spec.components:
        declared = {k[0] for k, _ in comp.attrs}
        if any(i not in declared for i in comp.interface):
            bad = [i for i in comp.interface if i not in declared]
            diags.append(
                Diagnostic(
                    "error",
                    comp.span,
                    f"interface of {comp.name} names undeclared attributes: {', '.join(bad)}",
                    "E-BAD-INTERFACE",
                )
            )
        reachable = _reachable_defs(comp.proc, defs)
        known = set(declared) | _update_targets(comp.proc)
        all_binders: Set[str] = set()
        for name in reachable:
            known |= _update_targets(defs[name])
        for root in [comp.proc] + [defs[n] for n in reachable]:
            for inp in _binders(root):
                all_binders |= set(inp.binders)
        shadowed = sorted(all_binders & declared)
        if shadowed:
            diags.append(
                Diagnostic(
                    "error",
                    comp.span,
                    f"binders shadow declared attributes of {comp.name}: {', '.join(shadowed)}",
                    "E-SHADOW",
                )
            )
        unbound = sorted(_free_names(comp.proc, def_free) - known)
        if unbound:
            diags.append(
                Diagnostic(
                    "error",
                    comp.span,
                    f"unbound identifiers in {comp.name}: {', '.join(unbound)} "
                    "(not declared attributes and not bound by any enclosing input)",
                    "E-UNBOUND",
                )
            )

    # property references
    def check_event(ev, prop_name):
        if ev.component != "*" and ev.component not in comp_names:
            diags.append(
                Diagnostic(
                    "error", None,
                    f"property {prop_name} references unknown component {ev.component}",
                    "E-UNDEF-COMP",
                )
            )

    def check_sexpr(e, prop_name):
        if isinstance(e, SCompare):
            if e.component != "*" and e.component not in comp_names:
                diags.append(
                    Diagnostic(
                        "error", None,
                        f"property {prop_name} references unknown component {e.component}",
                        "E-UNDEF-COMP",
                    )
                )
        elif isinstance(e, (SAnd, SOr)):
            check_sexpr(e.lhs, prop_name)
            check_sexpr(e.rhs, prop_name)
        elif isinstance(e, SNot):
            check_sexpr(e.inner, prop_name)

    seen_props = set()
    for name, prop in spec.properties:
        if name in seen_props:
            diags.append(Diagnostic("error", None, f"duplicate property {name}", "E-DUP-PROP"))
        seen_props.add(name)
        if isinstance(prop, Reachable):
            if isinstance(prop.target, (Sent, Received)):
                check_event(prop.target, name)
            else:
                check_sexpr(prop.target, name)
        elif isinstance(prop, Invariant):
            check_sexpr(prop.expr, name)
        elif isinstance(prop, LeadsTo):
            check_event(prop.trigger, name)
            for g in prop.goals:
                check_event(g, name)
    return diags


def load_spec(source: str, filename: str = "<spec>"):
    """Parse plus validate.  Returns (spec_or_None, diagnostics)."""
    from .parser import parse_spec

    spec, diags = parse_spec(source, filename)
    if spec is None:
        return None, diags
    diags = validate(spec)
    if any(d.severity == "error" for d in diags):
        return None, diags
    return spec, diags
