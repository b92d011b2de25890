"""The occurrence walk without tables, the reference for `semantics._occurrences`.

Each call walks the whole term again, unfolding every call it meets, and
builds each `|` chain's Par context as it reaches the chain.
"""
from abclang import semantics
from abclang.terms import Aware, Call, Choice, Inact, Input, Output, Par, _operands


def reference_occurrences(proc, kind, run):
    found = []
    stack = [(proc, (), None)]
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
