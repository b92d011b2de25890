"""The two-level transition relation.

Component level: enumeration of enabled broadcast outputs
(`out_steps`) and the receive-or-discard judgement for an incoming
broadcast (`in_step`).  System level: `system_steps` atomically
delivers each candidate broadcast to every other component, and its
`Steps` build each successor state when it is read.

Every step function takes the `Run` it belongs to.  They are pure,
except that they fill the run's memo, its acceptance table and its
event table.
"""
from __future__ import annotations

import itertools
import operator
from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
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
    SystemSpec,
    SystemState,
    TruePred,
    Value,
    ZERO,
    _operands,
)
from .validate import call_needs, require_domains, require_guarded


@dataclass(slots=True)
class Memo:
    """What a run knows about one component object: its input and
    output occurrences once either is asked for (`occurrences`, see
    `_occurrences`), its output candidates once it has been asked as a
    sender (`outs`, each with the number of its broadcast label), its
    judgement of each label it has been asked to receive (`judged`, by
    label number), and its exposed environment Γ↓I once a label's
    target predicate or its own label needs it (`exposed`, see
    `_exposed`)."""

    component: ComponentState
    occurrences: Optional[Tuple[List[tuple], List[tuple]]] = None
    outs: Optional[List[Tuple["OutCandidate", int]]] = None
    judged: Dict[int, "InResult"] = field(default_factory=dict)
    exposed: Optional[Env] = None


@dataclass
class Run:
    """What one `explore` or `simulate` run derives from its spec: the
    definitions and externs, `needs` (`validate.call_needs` of the
    definitions; None keeps whole closures), and its memo.

    `bodies` holds the unfolded body of each call instance, keyed by
    (process name, closure).  Every call closure that `substitute_proc`
    builds keeps only the names its definition reads, so call instances
    that differ in dead bindings are one term.

    `records` maps `id(component)` to the component's `Memo` (see there),
    which holds the component, so no id is reused while the record lives.
    `labels` numbers each broadcast label (exposed environment, closed
    predicate, message) when a candidate first carries it, from
    `numbers`, so a number is never reused.  Successors are taken from
    the records, so a component that does not move in a step is the
    same object in the successor state, and equal components are almost
    always one object.  A component that moves gets its process in
    normal form (`_rebuild`), so terms do not grow with the steps.

    `accepts` holds, under each label number, whether the label's
    target predicate accepts an exposed environment, keyed by the
    environment: the predicate is closed, so it is judged once per
    distinct Γ↓I, whichever component exposes it.

    `events` holds, under each label number, the `BroadcastEvent`s that
    `system_steps` has made for the label, keyed by (sender index,
    number of components, then each receiver with its branch ordinal in
    index order).  The key fixes the discard set too, so every
    transition with that broadcast and outcome shares one event while
    the run keeps the label's events (see `keep_only`)."""

    defs: Dict[str, ProcessTerm]
    externs: Dict
    needs: Optional[Dict[str, FrozenSet[str]]]
    bodies: Dict[Tuple[str, Subst], ProcessTerm] = field(default_factory=dict)
    records: Dict[int, Memo] = field(default_factory=dict)
    labels: Dict[tuple, int] = field(default_factory=dict)
    numbers: Iterator[int] = field(default_factory=itertools.count)
    accepts: Dict[int, Dict[Env, bool]] = field(default_factory=dict)
    events: Dict[int, Dict[tuple, BroadcastEvent]] = field(default_factory=dict)

    @classmethod
    def of(cls, defs, externs, roots=()) -> "Run":
        """Raises EvalError for an unguarded call cycle, an extern with an
        empty domain, and a term, in a definition or in one of `roots`,
        that is nested too deep or calls an undefined process (`validate`
        reports these as E-UNGUARDED, E-EMPTY-DOMAIN, E-DEPTH and
        E-UNDEF-PROC): the step relation relies on there being none, and
        a spec need not have been validated."""
        require_guarded(defs)
        require_domains(externs)
        return cls(defs, externs, call_needs(defs, roots))

    @classmethod
    def of_spec(cls, spec: SystemSpec) -> "Run":
        """A fresh run of `spec`: `of` of its definitions, externs and
        component processes.  What `of` derives is derived on the spec's
        first run and kept with the spec (`SystemSpec.run_parts`), so
        later runs of it share the definitions, externs and `needs`, which
        no run changes, and each gets its own memo.  A spec that `of`
        rejects keeps nothing, so every call raises again."""
        parts = spec.run_parts
        if parts is None:
            run = cls.of(spec.defs_map(), spec.externs_map(), [d.proc for d in spec.components])
            parts = (run.defs, run.externs, run.needs)
            object.__setattr__(spec, "run_parts", parts)
        return cls(*parts)

    def keep_only(self, components: Sequence[ComponentState], judged_events: bool = False) -> None:
        """Forgets the records of components that are not in `components`,
        the labels that no kept record holds, as a sender's candidate or
        as a judgement, with their acceptance tables, and the events of
        the labels that no kept record holds as a candidate, or, with
        `judged_events`, that no kept record holds at all.  `simulate`
        calls it with the state after each step, and `explore`, with
        `judged_events`, with the components of the next level's states,
        so a run does not keep every component it met.  No hit is lost:
        each step makes new objects for the components that move, so a
        component object judged later is one of the kept ones, and a
        label a kept record holds keeps its number.

        A label that only a judgement holds is often offered again a few
        levels on by a sender that moved, and the LTS holds every event
        anyway, so `explore` keeps its events to share them.  A trace
        holds only the events it took, and a component that never moves
        holds every label it judged, so `simulate` drops them."""
        records = self.records
        self.records = {id(c): records[id(c)] for c in components if id(c) in records}
        held, offered = set(), set()
        for memo in self.records.values():
            held.update(memo.judged)
            offered.update(n for _, n in memo.outs or ())
        held |= offered
        labels, accepts = self.labels, self.accepts
        dead = [(label, n) for label, n in labels.items() if n not in held]
        for label, n in dead:  # few die per step: rebuilding would rehash every kept label
            del labels[label]
            accepts.pop(n, None)
        kept = held if judged_events else offered
        events = self.events
        for n in [n for n in events if n not in kept]:
            del events[n]


def unfold(name: str, closure: Subst, run: Run) -> ProcessTerm:
    """Expands one level of a process definition, applying the bindings
    captured at the call site.  Each call instance is instantiated once
    per run and its (immutable) body shared afterwards."""
    key = (name, closure)
    body = run.bodies.get(key)
    if body is None:
        body = run.bodies[key] = substitute_proc(run.defs[name], closure, run.needs)
    return body


def _memo(c: ComponentState, run: Run) -> Memo:
    """`c`'s record in `run.records`, made on first use."""
    return run.records.get(id(c)) or run.records.setdefault(id(c), Memo(c))


def _exposed(memo: Memo) -> Env:
    """The exposed environment Γ↓I of `memo`'s component, restricted on
    first use and kept in the record."""
    exposed = memo.exposed
    if exposed is None:
        c = memo.component
        exposed = memo.exposed = c.env.restricted(c.interface)
    return exposed


def _occurrences(c: ComponentState, kind, run: Run) -> List[tuple]:
    """The `kind` (Input or Output) occurrences of `c`'s process, left to
    right, from `c`'s record in `run.records`, walked on first use.  Each
    is (prefix, guards, context): the awareness guards on the path to the
    prefix, outermost first, and its Par context for `_rebuild`, which is
    None or (outer context, operands of the `|` chain as
    `terms._operands` lists them, operand position).  A choice or an
    awareness on the path is dropped when the prefix fires, so neither is
    in the context.  One walk with an explicit stack finds both kinds, so
    a long `|` or `+` chain costs no depth, and a call is unfolded once
    per component object, not once per judgement.  Terminates because
    `Run.of` rejects call cycles that are not under a prefix."""
    memo = _memo(c, run)
    found = memo.occurrences
    if found is None:
        ins: List[tuple] = []
        outs: List[tuple] = []
        stack = [(c.proc, (), None)]
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
        found = memo.occurrences = (ins, outs)
    return found[0] if kind is Input else found[1]


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
TRUE = TruePred()


def out_steps(c: ComponentState, run: Run) -> List[OutCandidate]:
    """Every output action enabled in `c`, one candidate per extern draw
    combination.  Message, closed predicate and exposed environment all
    come from the pre-update environment.  An evaluation error in a guard,
    payload, target or update propagates."""
    externs = run.externs
    exposed = _exposed(_memo(c, run))
    candidates: List[OutCandidate] = []
    for ordinal, (node, guards, ctx) in enumerate(_occurrences(c, Output, run)):

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
    if not satisfies(_exposed(_memo(c, run)), sent_pred, externs):
        return DISCARD
    successors: List[Tuple[int, ComponentState]] = []
    for ordinal, (node, guards, ctx) in enumerate(_occurrences(c, Input, run)):
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


def system_steps(state: SystemState, run: Run) -> "Steps":
    """All system transitions from `state`, as `Steps`.

    For each component and each of its output candidates, the broadcast
    is delivered atomically: every other component either receives
    (components that can receive must) or discards.  The successor set
    is the cartesian product of the receivers' choices.  The sender
    never receives its own message.

    Every (candidate, receiver) pair is judged here, in order, so an
    evaluation error raises now, whichever step is taken.  `out_steps`
    and `in_step` are asked only what the components' records do not
    hold.  A label's target predicate is judged once per exposed
    environment (`Run.accepts`); a receiver it does not select discards
    without an `in_step` call, and one it selects is judged by `in_step`
    with the predicate `tt` in its place, since the predicate is
    already known to hold.  No event or successor state is built here:
    `Steps` builds each when it is read, and an event only when
    `run.events` holds none for its key (see `Run`).
    """
    labels, accepts, events = run.labels, run.accepts, run.events
    externs = run.externs
    memos = [_memo(c, run) for c in state]
    groups: List[tuple] = []
    for i, sender in enumerate(state):
        outs = memos[i].outs
        if outs is None:
            outs = []
            for cand in out_steps(sender, run):
                label = (cand.exposed_env, cand.sent_pred, cand.message)
                outs.append((cand, labels.setdefault(label, next(run.numbers))))
            memos[i].outs = outs
        for cand, n in outs:
            shared = events.get(n)
            if shared is None:
                shared = events[n] = {}
            accepted = accepts.get(n)
            if accepted is None:
                accepted = accepts[n] = {}
            receivers: List[int] = []
            choices: List[List[Tuple[int, ComponentState]]] = []
            discarded = set()
            for j, memo in enumerate(memos):
                if j == i:
                    continue
                judged = memo.judged
                r = judged.get(n)
                if r is None:
                    exposed = _exposed(memo)
                    ok = accepted.get(exposed)
                    if ok is None:
                        ok = accepted[exposed] = satisfies(exposed, cand.sent_pred, externs)
                    r = judged[n] = (in_step(memo.component, cand.exposed_env, TRUE, cand.message, run)
                                     if ok else DISCARD)
                if r.is_receive:
                    receivers.append(j)
                    choices.append(r.successors)
                else:
                    discarded.add(j)
            groups.append((i, cand, receivers, choices, discarded, shared))
    return Steps(state, groups)


class Steps(SequenceABC):
    """The transitions from one state that `system_steps` found, as a
    sequence of (event, successor state): by sender, then by the
    sender's candidate, then by the receivers' choices in
    `itertools.product` order.  Each is built when it is read, by index
    or by iteration, so `simulate`, which takes one, builds one;
    iteration builds them all, in order.  Reading a transition twice
    gives the same event object while the run keeps the label's events,
    and an equal successor state."""

    __slots__ = ("state", "groups", "starts", "total")

    def __init__(self, state: SystemState, groups: List[tuple]):
        # a group is (sender index, candidate, receiver indices, their
        # successor choices, discard set, the label's event table); it
        # has at least one transition, since every choice list does
        self.state = state
        self.groups = groups
        self.starts: List[int] = []
        total = 0
        for group in groups:
            self.starts.append(total)
            count = 1
            for choice in group[3]:
                count *= len(choice)
            total += count
        self.total = total

    def __len__(self) -> int:
        return self.total

    def __getitem__(self, k):
        k = operator.index(k)
        if k < 0:
            k += self.total
        if not 0 <= k < self.total:
            raise IndexError("step index out of range")
        g = bisect_right(self.starts, k) - 1
        group = self.groups[g]
        rest = k - self.starts[g]
        combo = []
        for choice in reversed(group[3]):  # product order: the last choice varies fastest
            rest, d = divmod(rest, len(choice))
            combo.append(choice[d])
        combo.reverse()
        return self._build(group, combo)

    def __iter__(self):
        build = self._build
        for group in self.groups:
            for combo in itertools.product(*group[3]):
                yield build(group, combo)

    def _build(self, group: tuple, combo) -> Tuple[BroadcastEvent, SystemState]:
        """The transition of `group` in which receiver k takes `combo[k]`."""
        i, cand, receivers, _, discarded, shared = group
        new_state = list(self.state)
        new_state[i] = cand.successor
        received = []
        for j, (ordinal, succ) in zip(receivers, combo):
            new_state[j] = succ
            received.append((j, ordinal))
        key = (i, len(new_state), *received)
        event = shared.get(key)
        if event is None:
            event = shared[key] = BroadcastEvent(
                sender=i,
                message=cand.message,
                sent_pred=cand.sent_pred,
                exposed_env=cand.exposed_env,
                receivers=frozenset(received),
                discarded=frozenset(discarded),
            )
        return event, tuple(new_state)
