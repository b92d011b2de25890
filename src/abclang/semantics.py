"""The two-level transition relation.

Component level: enumeration of enabled broadcast outputs
(`out_steps`) and the receive-or-discard judgement for an incoming
broadcast (`in_step`).  System level: `system_steps` atomically
delivers each candidate broadcast to every other component and builds
the successor states.

Every step function takes the `Run` it belongs to.  They are pure,
except that `unfold`, `_occurrences` and `system_steps` fill the run's
memo.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .evaluator import (
    ScriptedChooser,
    ThisAttrError,
    all_runs,
    evaluate,
    apply_updates,
    close,
    satisfies,
    substitute_proc,
)
from .terms import (
    Aware,
    BroadcastEvent,
    Call,
    Choice,
    ComponentState,
    Env,
    Inact,
    Input,
    Output,
    Par,
    Predicate,
    ProcessTerm,
    Subst,
    SystemState,
    Value,
    ZERO,
    _operands,
)
from .validate import call_needs, require_guarded


@dataclass(slots=True)
class Memo:
    """What a run knows about one component object: its output
    candidates once it has been asked as a sender (`outs`, each with the
    number of its broadcast label), and its judgement of each label it
    has been asked to receive (`judged`, by label number)."""

    component: ComponentState
    outs: Optional[List[Tuple["OutCandidate", int]]] = None
    judged: Dict[int, "InResult"] = field(default_factory=dict)


@dataclass
class Run:
    """What one `explore` or `simulate` run derives from its spec: the
    definitions and externs, `needs` (`validate.call_needs` of the
    definitions; None keeps whole closures), and its memo.

    `bodies` holds the unfolded body of each call instance, keyed by
    (process name, closure).  Every call closure that `substitute_proc`
    builds keeps only the names its definition reads, so call instances
    that differ in dead bindings are one term.

    `tables` maps `id(term)` to the occurrence table of a process term
    (see `_occurrences`): (term, input occurrences, output occurrences).
    The table holds the term, so no id is reused while the table lives.

    `records` maps `id(component)` to the component's `Memo`, which
    holds the component, so no id is reused while the record lives.
    `labels` numbers each broadcast label (exposed environment, closed
    predicate, message) when a candidate first carries it, from
    `numbers`, so a number is never reused.  Successors are taken from
    the records, so a component that does not move in a step is the
    same object in the successor state, and equal components are almost
    always one object.  A component that moves gets its process in
    normal form (`_rebuild`), so terms do not grow with the steps."""

    defs: Dict[str, ProcessTerm]
    externs: Dict
    needs: Optional[Dict[str, FrozenSet[str]]]
    bodies: Dict[Tuple[str, Subst], ProcessTerm] = field(default_factory=dict)
    tables: Dict[int, tuple] = field(default_factory=dict)
    records: Dict[int, Memo] = field(default_factory=dict)
    labels: Dict[tuple, int] = field(default_factory=dict)
    numbers: Iterator[int] = field(default_factory=itertools.count)

    @classmethod
    def of(cls, defs, externs, roots=()) -> "Run":
        """Raises EvalError for an unguarded call cycle or a call, in a
        definition or in one of `roots`, to an undefined process
        (`validate` reports these as E-UNGUARDED and E-UNDEF-PROC): the
        step relation relies on there being none, and a spec need not
        have been validated."""
        require_guarded(defs)
        return cls(defs, externs, call_needs(defs, roots))

    def keep_only(self, components: Sequence[ComponentState]) -> None:
        """Forgets the records of components that are not in `components`,
        the labels that no kept record holds, as a sender's candidate or
        as a judgement, and the tables of terms that are not the process
        of a kept component.  `simulate` calls it with the state after
        each step, and `explore` with the components of the next level's
        states, so a run does not keep every component it met.  No hit
        is lost: each step makes new objects for the components that
        move, so a component object judged later is one of the kept
        ones, and a label a kept record holds keeps its number."""
        records, tables = self.records, self.tables
        self.records = {id(c): records[id(c)] for c in components if id(c) in records}
        held = set()
        for memo in self.records.values():
            held.update(memo.judged, (n for _, n in memo.outs or ()))
        dead = [label for label, n in self.labels.items() if n not in held]
        for label in dead:  # few die per step: rebuilding would rehash every kept label
            del self.labels[label]
        self.tables = {id(c.proc): tables[id(c.proc)] for c in components if id(c.proc) in tables}


def unfold(name: str, closure: Subst, run: Run) -> ProcessTerm:
    """Expands one level of a process definition, applying the bindings
    captured at the call site.  Each call instance is instantiated once
    per run and its (immutable) body shared afterwards."""
    key = (name, closure)
    body = run.bodies.get(key)
    if body is None:
        body = run.bodies[key] = substitute_proc(run.defs[name], closure, run.needs)
    return body


def _occurrences(proc: ProcessTerm, kind, run: Run) -> List[tuple]:
    """The `kind` (Input or Output) occurrences of `proc`, left to right,
    from its table in `run.tables`, built on first use.  Each is (prefix,
    guards, context): the awareness guards on the path to the prefix,
    outermost first, and its Par context for `_rebuild`, which is None
    or (outer context, operands of the `|` chain as `terms._operands`
    lists them, operand position).  A choice or an awareness on the path
    is dropped when the prefix fires, so neither is in the context.
    The table is built by one walk with an explicit stack, so a long
    `|` or `+` chain costs no depth, and a call is unfolded once per
    table, not once per judgement.  Terminates because `Run.of` rejects
    call cycles that are not under a prefix."""
    table = run.tables.get(id(proc))
    if table is None:
        ins: List[tuple] = []
        outs: List[tuple] = []
        stack = [(proc, (), None)]
        while stack:
            p, guards, ctx = stack.pop()
            if isinstance(p, Input):
                ins.append((p, guards, ctx))
            elif isinstance(p, Output):
                outs.append((p, guards, ctx))
            elif isinstance(p, Aware):
                stack.append((p.body, guards + (p.guard,), ctx))
            elif isinstance(p, Choice):
                for q in reversed(p.operands):
                    stack.append((q, guards, ctx))
            elif isinstance(p, Par):
                ops = tuple(_operands(p, Par))
                i = len(ops)
                while i:  # cheaper than a loop over a range for two operands
                    i -= 1
                    stack.append((ops[i], guards, (ctx, ops, i)))
            elif isinstance(p, Call):
                stack.append((unfold(p.name, p.closure, run), guards, ctx))
            elif not isinstance(p, Inact):
                raise TypeError(f"not a process: {p!r}")
        table = run.tables[id(proc)] = (proc, ins, outs)
    return table[1] if kind is Input else table[2]


def _rebuild(ctx, p: ProcessTerm) -> ProcessTerm:
    """The whole component process with the occurrence at Par context
    `ctx` replaced by `p`, in normal form: the operands of `p` and of the
    chains around it spliced into one tuple in order, without `0`s, and
    a chain of one operand is that operand, so a term does not grow."""
    ops = tuple(_operands(p, Par))
    while ctx is not None:
        ctx, siblings, i = ctx
        ops = siblings[:i] + ops + siblings[i + 1:]
    return Par(ops) if len(ops) > 1 else ops[0] if ops else ZERO


@dataclass
class OutCandidate:
    """An enabled broadcast: label data plus the sender's successor."""

    message: Tuple[Value, ...]
    sent_pred: Predicate  # closed
    exposed_env: Env  # pre-step Γ restricted to the interface
    successor: ComponentState
    branch: int  # ordinal of the syntactic occurrence that fired


@dataclass
class InResult:
    """Exactly one of: a non-empty receive set, or a discard."""

    successors: List[Tuple[int, ComponentState]] = field(default_factory=list)

    @property
    def is_receive(self) -> bool:
        return bool(self.successors)


DISCARD = InResult()


def out_steps(c: ComponentState, run: Run) -> List[OutCandidate]:
    """Every output action enabled in `c`, one candidate per extern draw
    combination.  Message, closed predicate and exposed environment all
    come from the pre-update environment.  An evaluation error in a guard,
    payload, target or update propagates."""
    externs = run.externs
    exposed = c.env.restricted(c.interface)
    candidates: List[OutCandidate] = []
    for ordinal, (node, guards, ctx) in enumerate(_occurrences(c.proc, Output, run)):

        def fire(ch: ScriptedChooser, node=node, guards=guards, ctx=ctx, ordinal=ordinal):
            if not all(satisfies(c.env, g, externs, ch) for g in guards):
                return None
            msg = tuple(evaluate(e, c.env, externs=externs, chooser=ch) for e in node.payload)
            pred = close(node.target, c.env, externs=externs, chooser=ch)
            new_env = apply_updates(c.env, node.updates, externs=externs, chooser=ch)
            succ = ComponentState(c.name, new_env, c.interface, _rebuild(ctx, node.then))
            return OutCandidate(msg, pred, exposed, succ, ordinal)

        for cand in all_runs(fire):
            if cand is not None:
                candidates.append(cand)
    return candidates


def in_step(
    c: ComponentState,
    exposed_env: Env,
    sent_pred: Predicate,
    msg: Tuple[Value, ...],
    run: Run,
) -> InResult:
    """Receive-or-discard judgement for one component and one broadcast.

    Receive requires both communication constraints: the component's
    public environment satisfies the sender's (closed) predicate, and
    the sender's exposed environment satisfies the receiving guard, its
    binders read from the message and `this.a` from `c`.  Each matching input
    occurrence contributes one successor; otherwise the component
    discards and is left untouched.  An arity mismatch between binders
    and message is an ordinary discard, and so is a message that fails
    the occurrence's `Input.message_key`: its guard is then false under
    every extern draw, so the guard is not judged.  A skipped occurrence
    keeps its ordinal.
    """
    externs = run.externs
    if not satisfies(c.env.restricted(c.interface), sent_pred, externs):
        return DISCARD
    successors: List[Tuple[int, ComponentState]] = []
    for ordinal, (node, guards, ctx) in enumerate(_occurrences(c.proc, Input, run)):
        if len(node.binders) != len(msg):
            continue
        if not all(msg[i] == s for i, s in node.message_key):
            continue
        bindings = Subst.of(dict(zip(node.binders, msg)))

        def consume(ch: ScriptedChooser, node=node, guards=guards, ctx=ctx, bindings=bindings):
            # a guard that fails on c's own state cannot authorize
            # reception: treat as discard
            try:
                if not (all(satisfies(c.env, g, externs, ch) for g in guards)
                        and satisfies(exposed_env, node.guard, externs, ch, bindings, c.env)):
                    return None
            except ThisAttrError:
                return None
            new_env = apply_updates(c.env, node.updates, externs, ch, bindings)
            then = substitute_proc(node.then, bindings, run.needs)
            return ComponentState(c.name, new_env, c.interface, _rebuild(ctx, then))

        for succ in all_runs(consume):
            if succ is not None:
                successors.append((ordinal, succ))
    if not successors:
        return DISCARD
    return InResult(successors)


def system_steps(state: SystemState, run: Run) -> List[Tuple[BroadcastEvent, SystemState]]:
    """All system transitions from `state`.

    For each component and each of its output candidates, the broadcast
    is delivered atomically: every other component either receives
    (components that can receive must) or discards.  The successor set
    is the cartesian product of the receivers' choices.  The sender
    never receives its own message.  `out_steps` and `in_step` are asked
    only what the components' records do not hold (see `Run`).
    """
    records, labels = run.records, run.labels
    memos = [records.get(id(c)) or records.setdefault(id(c), Memo(c)) for c in state]
    results: List[Tuple[BroadcastEvent, SystemState]] = []
    for i, sender in enumerate(state):
        outs = memos[i].outs
        if outs is None:
            outs = []
            for cand in out_steps(sender, run):
                label = (cand.exposed_env, cand.sent_pred, cand.message)
                outs.append((cand, labels.setdefault(label, next(run.numbers))))
            memos[i].outs = outs
        for cand, n in outs:
            receiver_choices: List[Tuple[int, List[Tuple[int, ComponentState]]]] = []
            discarded = set()
            for j, other in enumerate(state):
                if j == i:
                    continue
                judged = memos[j].judged
                r = judged.get(n)
                if r is None:
                    r = judged[n] = in_step(other, cand.exposed_env, cand.sent_pred, cand.message, run)
                if r.is_receive:
                    receiver_choices.append((j, r.successors))
                else:
                    discarded.add(j)
            for combo in itertools.product(*(ch for _, ch in receiver_choices)):
                new_state = list(state)
                new_state[i] = cand.successor
                receivers = set()
                for (j, _), (ordinal, succ) in zip(receiver_choices, combo):
                    new_state[j] = succ
                    receivers.add((j, ordinal))
                event = BroadcastEvent(
                    sender=i,
                    message=cand.message,
                    sent_pred=cand.sent_pred,
                    exposed_env=cand.exposed_env,
                    receivers=frozenset(receivers),
                    discarded=frozenset(discarded),
                )
                results.append((event, tuple(new_state)))
    return results
