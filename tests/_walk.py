"""Walks without a memo, the references for `semantics._occurrences` and
`validate._fixpoint`.

`reference_occurrences` walks the component's whole process again on
each call, unfolding every call it meets, and builds each `|` chain's
Par context as it reaches the chain.  `reference_fixpoint` walks every
definition again on every pass.
"""
from abclang import semantics
from abclang.terms import Attr, Aware, Call, Choice, Inact, Input, Output, Par, _operands, subterms


def reference_occurrences(c, kind, run):
    found = []
    stack = [(c.proc, (), None)]
    while stack:
        p, guards, ctx = stack.pop()
        if isinstance(p, kind):
            found.append((p, guards, ctx))
        elif isinstance(p, Aware):
            stack.append((p.body, guards + (p.guard,), ctx))
        elif isinstance(p, Choice):
            for q in reversed(p.operands):
                stack.append((q, guards, ctx))
        elif isinstance(p, Par):
            ops = tuple(_operands(p, Par))
            for i in reversed(range(len(ops))):
                stack.append((ops[i], guards, (ctx, ops, i)))
        elif isinstance(p, Call):
            stack.append((semantics.unfold(p.name, p.closure, run), guards, ctx))
        elif not isinstance(p, (Inact, Input, Output)):
            raise TypeError(f"not a process: {p!r}")
    return found


def _names(*terms):
    return {q.name for t in terms for q in subterms(t) if isinstance(q, Attr) and not q.index}


def reference_read_names(proc, known, guards):
    """The bare names `proc` reads outside its inputs' binders (with
    `guards`, in predicates too), a call reading what `known` gives its
    definition, less its closure."""
    counted = (lambda *preds: preds) if guards else (lambda *preds: ())
    read = set()
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
            read |= known.get(proc.name, frozenset()) - proc.closure.domain() - bound
    return frozenset(read)


def reference_fixpoint(defs, guards):
    """Least solution of `known[name] = reference_read_names(defs[name],
    known, guards)`, iterated up from empty sets."""
    known = {name: frozenset() for name in defs}
    changed = True
    while changed:
        changed = False
        for name, body in defs.items():
            names = reference_read_names(body, known, guards)
            if names != known[name]:
                known[name] = names
                changed = True
    return known
