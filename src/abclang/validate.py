"""Load-time validation of a parsed specification.

Checks the well-formedness rules the step relations rely on: unique
definitions, resolvable calls and externs, distinct binders, interfaces
drawn from declared attributes, no unbound variables, and no binder
shadowing a declared attribute (bound variables and attributes share
the identifier namespace in source text).  These are the engine's only
checks of a spec: `explore` and `simulate` run only a spec that
`validate` accepts.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from .evaluator import BUILTIN_NAMES, EvalError
from .parser import MAX_DEPTH, Diagnostic
from .terms import (
    Apply,
    Attr,
    AtomApply,
    Aware,
    Call,
    Choice,
    EnumDomain,
    Input,
    Output,
    Par,
    Received,
    SCompare,
    Sent,
    SystemSpec,
    Update,
    nesting,
    subterms,
)


def _names(*terms) -> Set[str]:
    """Bare, unindexed identifier references in `terms` (variable or
    attribute; they cannot be told apart syntactically)."""
    return {q.name for t in terms for q in subterms(t)
            if isinstance(q, Attr) and not q.index}


def _summary(proc, guards: bool) -> Tuple[FrozenSet[str], FrozenSet[Tuple[str, FrozenSet[str]]]]:
    """What `proc` reads, from one walk: the bare names it reads outside
    the binders of its inputs, in payloads, updates and indexes, and with
    `guards` also in awareness and input guards and send predicates; and
    each call in it as (callee, names it cannot read from the callee:
    the call's closure domain and the binders around it).  Walks with an
    explicit stack, so depth costs no stack.

    Without `guards` the names are those that must be bound: a bare name
    inside a predicate falls back to an attribute of the judging party at
    run time, so it can never be a hard unbound error.  With `guards` they
    are the names that a substitution applied to `proc` replaces: it
    replaces a bound name in a predicate too, so a closure value can be
    read only in a guard.
    """
    counted = (lambda *preds: preds) if guards else (lambda *preds: ())
    read: Set[str] = set()
    calls: Set[Tuple[str, FrozenSet[str]]] = set()
    stack = [(proc, frozenset())]
    while stack:
        proc, bound = stack.pop()
        if isinstance(proc, Output):
            read |= _names(*proc.payload, *proc.updates, *counted(proc.target)) - bound
            stack.append((proc.then, bound))
        elif isinstance(proc, Input):
            bound = bound.union(proc.binders)
            read |= _names(*proc.updates, *counted(proc.guard)) - bound
            stack.append((proc.then, bound))
        elif isinstance(proc, Aware):
            read |= _names(*counted(proc.guard)) - bound
            stack.append((proc.body, bound))
        elif isinstance(proc, (Choice, Par)):
            stack += ((q, bound) for q in reversed(proc.operands))
        elif isinstance(proc, Call):
            calls.add((proc.name, proc.closure.domain() | bound))
    return frozenset(read), frozenset(calls)


def _read_names(summary, known: Dict[str, FrozenSet[str]]) -> FrozenSet[str]:
    """The names a term with `_summary` `summary` reads, where a call
    reads what `known` says its definition needs, less what the call
    excludes."""
    read, calls = summary
    return read.union(*(known.get(callee, frozenset()) - excluded for callee, excluded in calls))


def _fixpoint(defs, guards: bool) -> Dict[str, FrozenSet[str]]:
    """Least solution of `known[name] = _read_names(_summary(defs[name],
    guards), known)` over the definitions, iterated up from each
    definition's own reads; each definition is walked once."""
    summaries = {name: _summary(body, guards) for name, body in defs.items()}
    known: Dict[str, FrozenSet[str]] = {name: read for name, (read, _) in summaries.items()}
    changed = True
    while changed:
        changed = False
        for name, summary in summaries.items():
            names = _read_names(summary, known)
            if names != known[name]:
                known[name] = names
                changed = True
    return known


def call_needs(defs) -> Dict[str, FrozenSet[str]]:
    """The names each definition needs from the closure of a call to it,
    with what the definitions it calls need.  `substitute_proc` keeps only
    these in the closures it builds: the other bindings cannot change the
    unfolded body, and would only tell apart states that behave the same.
    Relies on `validate` having accepted the definitions."""
    return _fixpoint(defs, True)


def _reachable(names, def_calls: Dict[str, Set[str]]) -> Set[str]:
    """The definitions that calls to `names` reach, directly or through
    the calls in the definitions they reach."""
    seen: Set[str] = set()
    frontier = list(names)
    while frontier:
        name = frontier.pop()
        if name in def_calls and name not in seen:
            seen.add(name)
            frontier.extend(def_calls[name])
    return seen


def _unguarded_calls(proc) -> List[Call]:
    """Calls not under an input or output prefix, left to right; choice,
    parallel composition and awareness are transparent.  Walks with an
    explicit stack, so a long `|` or `+` chain costs no depth."""
    calls, stack = [], [proc]
    while stack:
        p = stack.pop()
        if isinstance(p, Call):
            calls.append(p)
        elif isinstance(p, (Choice, Par)):
            stack += reversed(p.operands)
        elif isinstance(p, Aware):
            stack.append(p.body)
    return calls


def _unguarded_cycles(defs) -> List[Tuple[List[str], Call]]:
    """Cycles of the graph of unguarded calls between definitions, as
    (names along the cycle, first call), each cycle reported once from
    its first definition.  Unfolding such a cycle never reaches an
    action, so the step relation would not terminate."""
    edges = {name: [c for c in _unguarded_calls(body) if c.name in defs]
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


def _shallow_subterms(root) -> Iterator:
    """`subterms(root)`, raising EvalError at the first term that lies
    more than MAX_DEPTH levels down an expression, predicate or formula
    tree: the evaluator, the printer and the canonical text recurse once
    or twice per level."""
    for q, depth in nesting(root):
        if depth > MAX_DEPTH:
            raise EvalError(f"nested more than {MAX_DEPTH} levels deep", q.span)
        yield q


def _unknown_atoms(terms, comp_names) -> List:
    """The property atoms among `terms` that name a component, other
    than `*`, that is not in `comp_names`."""
    return [q for q in terms if isinstance(q, (Sent, Received, SCompare))
            and q.component not in comp_names and q.component != "*"]


def _unknown_message(name: str, q) -> str:
    return f"property {name} references unknown component {q.component}"


def require_checkable(name: str, prop, comp_names) -> None:
    """Raises EvalError if `comp_names` names two components alike, or
    if property `prop` is nested too deep (see `_shallow_subterms`) or
    names a component, other than `*`, that is not in `comp_names`
    (`validate` reports these as E-DUP-COMP, E-DEPTH and E-UNDEF-COMP).
    The checkers rely on there being none; `explorer.check_property`
    checks it because it takes a property and an LTS, not a spec."""
    if len(set(comp_names)) < len(comp_names):
        dup = next(c for i, c in enumerate(comp_names) if c in comp_names[:i])
        raise EvalError(f"duplicate component {dup}")
    terms = prop.terms
    if len(terms) > MAX_DEPTH:  # else no path down is that long
        for _ in _shallow_subterms(prop):
            pass
    for q in _unknown_atoms(terms, comp_names):
        raise EvalError(_unknown_message(name, q))


def _too_deep(root, diags: List[Diagnostic]) -> None:
    """E-DEPTH at the first term of `root` (a process or a property) that
    `_shallow_subterms` rejects."""
    try:
        for _ in _shallow_subterms(root):
            pass
    except EvalError as e:
        diags.append(Diagnostic("error", e.span, e.args[0], "E-DEPTH"))


# Each takes the subterms of a process, listed once by `validate`.


def _apply_names(terms) -> Dict[str, object]:
    """Each name a call or an atom applies, with the first that applies it."""
    named: Dict[str, object] = {}
    for q in terms:
        if isinstance(q, (Apply, AtomApply)):
            named.setdefault(q.fn if isinstance(q, Apply) else q.name, q)
    return named


def _called(terms) -> Set[str]:
    return {q.name for q in terms if isinstance(q, Call)}


def _update_targets(terms) -> Set[str]:
    return {q.name for q in terms if isinstance(q, Update)}


def _bound(terms) -> Set[str]:
    return {b for q in terms if isinstance(q, Input) for b in q.binders}


def validate(spec: SystemSpec) -> List[Diagnostic]:
    """The diagnostics of `spec`, in the order in which the rules are
    checked below.  They are also kept with the spec
    (`SystemSpec.diagnostics`), where `semantics.Run.of_spec` reads them:
    the engine runs a spec only if none of them is an error."""
    diags: List[Diagnostic] = []
    defs = {}
    for name, body in spec.proc_defs:
        if name in defs:
            diags.append(Diagnostic("error", body.span, f"duplicate process definition {name}", "E-DUP-PROC"))
        defs[name] = body
    externs = dict(spec.externs)
    comp_names = set()
    for comp in spec.components:
        if comp.name in comp_names:
            diags.append(Diagnostic("error", comp.span, f"duplicate component {comp.name}", "E-DUP-COMP"))
        comp_names.add(comp.name)

    for name, decl in spec.externs:
        if isinstance(decl, EnumDomain) and not decl.values:  # a draw has no value to pick
            diags.append(Diagnostic("error", None, f"extern {name} has an empty domain", "E-EMPTY-DOMAIN"))

    # call targets and extern/builtin references
    roots = [body for _, body in spec.proc_defs] + [c.proc for c in spec.components]
    walked = [list(subterms(root)) for root in roots]
    for root, terms in zip(roots, walked):
        if len(terms) > MAX_DEPTH:  # else no path down is that long
            _too_deep(root, diags)
    for terms in walked:
        for call in terms:
            if isinstance(call, Call) and call.name not in defs:
                diags.append(
                    Diagnostic("error", call.span, f"undefined process {call.name}", "E-UNDEF-PROC")
                )
        applied = _apply_names(terms)
        for fn in sorted(applied):
            if fn not in externs and fn not in BUILTIN_NAMES:
                diags.append(
                    Diagnostic("error", applied[fn].span, f"undefined extern or function {fn}", "E-UNDEF-EXTERN")
                )

    for path, call in _unguarded_cycles(defs):
        message = f"unguarded recursion {' -> '.join(path)}: the call cycle passes no input or output prefix"
        diags.append(Diagnostic("error", call.span, message, "E-UNGUARDED"))

    # distinct binders
    for terms in walked:
        for inp in terms:
            if isinstance(inp, Input) and len(set(inp.binders)) != len(inp.binders):
                diags.append(
                    Diagnostic("error", inp.span, "input binders must be pairwise distinct", "E-DUP-BINDER")
                )

    def_free = _fixpoint(defs, False)
    # the last definition of a name is the one in `defs`
    def_terms = dict(zip([name for name, _ in spec.proc_defs], walked))
    def_calls = {name: _called(terms) for name, terms in def_terms.items()}
    def_targets = {name: _update_targets(terms) for name, terms in def_terms.items()}
    def_bound = {name: _bound(terms) for name, terms in def_terms.items()}

    for comp, terms in zip(spec.components, walked[len(spec.proc_defs):]):
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
        reachable = _reachable(_called(terms), def_calls)
        known = declared.union(_update_targets(terms), *(def_targets[n] for n in reachable))
        all_binders = _bound(terms).union(*(def_bound[n] for n in reachable))
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
        unbound = sorted(_read_names(_summary(comp.proc, False), def_free) - known)
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
    seen_props = set()
    for name, prop in spec.properties:
        if name in seen_props:
            diags.append(Diagnostic("error", None, f"duplicate property {name}", "E-DUP-PROP"))
        seen_props.add(name)
        for q in _unknown_atoms(prop.terms, comp_names):
            diags.append(Diagnostic("error", None, _unknown_message(name, q), "E-UNDEF-COMP"))
        if len(prop.terms) > MAX_DEPTH:  # else no path down is that long
            _too_deep(prop, diags)
    object.__setattr__(spec, "diagnostics", tuple(diags))
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
