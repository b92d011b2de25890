"""The two-level transition relation.

Component level: enumeration of enabled broadcast outputs
(`out_steps`) and the receive-or-discard judgement for an incoming
broadcast (`in_step`).  System level: `system_steps` atomically
delivers each candidate broadcast to every other component and builds
the successor states.

All functions are pure.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .evaluator import (
    Chooser,
    EvalError,
    all_runs,
    evaluate,
    apply_updates,
    close,
    restrict,
    satisfies,
    substitute,
    substitute_proc,
    substitute_useq,
)
from .terms import (
    Aware,
    BroadcastEvent,
    Call,
    Choice,
    ComponentState,
    EMPTY_SUBST,
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
)
from .validate import call_needs


@dataclass
class Unfoldings:
    """What one run derives from its definitions map.  `needs` is
    `validate.call_needs` of the map (None keeps whole closures): every
    call closure that `substitute_proc` builds keeps only the names its
    definition reads, so call instances that differ in dead bindings are
    one term.  `bodies` holds the unfolded body of each call instance,
    keyed by (process name, closure).  `explore` and `simulate` make one
    per call and pass it down."""

    needs: Optional[Dict[str, FrozenSet[str]]]
    bodies: Dict[Tuple[str, Subst], ProcessTerm] = field(default_factory=dict)


def unfold(
    name: str,
    defs: Dict[str, ProcessTerm],
    closure: Subst = EMPTY_SUBST,
    memo: Optional[Unfoldings] = None,
) -> ProcessTerm:
    """Expands one level of a process definition, applying the bindings
    captured at the call site.  With a memo, each call instance is
    instantiated once and its (immutable) body shared afterwards."""
    if memo is None:
        return substitute_proc(defs[name], closure)
    key = (name, closure)
    body = memo.bodies.get(key)
    if body is None:
        body = memo.bodies[key] = substitute_proc(defs[name], closure, memo.needs)
    return body


@dataclass
class _Occ:
    """One syntactic action occurrence: the prefix node, the awareness
    guards on the path to it, and a rebuild function producing the whole
    component process with the prefix replaced by its continuation."""

    node: ProcessTerm  # Input or Output
    guards: Tuple[Predicate, ...]
    rebuild: Callable[[ProcessTerm], ProcessTerm]


def _occurrences(proc: ProcessTerm, defs, want_input: bool, memo: Optional[Unfoldings]) -> List[_Occ]:
    """Action occurrences of `proc`.  Terminates because `validate`
    rejects call cycles that are not under a prefix (E-UNGUARDED)."""
    if isinstance(proc, Inact):
        return []
    if isinstance(proc, Input):
        if want_input:
            return [_Occ(proc, (), lambda cont: cont)]
        return []
    if isinstance(proc, Output):
        if not want_input:
            return [_Occ(proc, (), lambda cont: cont)]
        return []
    if isinstance(proc, Aware):
        out = []
        for o in _occurrences(proc.body, defs, want_input, memo):
            out.append(_Occ(o.node, (proc.guard,) + o.guards, o.rebuild))
        return out
    if isinstance(proc, Choice):
        out = []
        for o in _occurrences(proc.left, defs, want_input, memo):
            out.append(_Occ(o.node, o.guards, o.rebuild))  # losing branch dropped
        for o in _occurrences(proc.right, defs, want_input, memo):
            out.append(_Occ(o.node, o.guards, o.rebuild))
        return out
    if isinstance(proc, Par):
        out = []
        for o in _occurrences(proc.left, defs, want_input, memo):
            out.append(
                _Occ(o.node, o.guards, (lambda rb, r: lambda c: Par(rb(c), r))(o.rebuild, proc.right))
            )
        for o in _occurrences(proc.right, defs, want_input, memo):
            out.append(
                _Occ(o.node, o.guards, (lambda rb, l: lambda c: Par(l, rb(c)))(o.rebuild, proc.left))
            )
        return out
    if isinstance(proc, Call):
        body = unfold(proc.name, defs, proc.closure, memo)
        return _occurrences(body, defs, want_input, memo)
    raise TypeError(f"not a process: {proc!r}")


@dataclass
class OutCandidate:
    """An enabled broadcast: label data plus the sender's successor."""

    message: Tuple[Value, ...]
    sent_pred: Predicate  # closed
    exposed_env: Env  # pre-step Γ restricted to the interface
    successor: ComponentState
    branch: int  # ordinal of the syntactic occurrence that fired
    diagnostic: Optional[EvalError] = None


@dataclass
class InResult:
    """Exactly one of: a non-empty receive set, or a discard."""

    successors: List[Tuple[int, ComponentState]] = field(default_factory=list)

    @property
    def is_receive(self) -> bool:
        return bool(self.successors)


DISCARD = InResult()


def _guards_hold(guards, env, externs, ch) -> bool:
    return all(satisfies(env, close(g, env, externs=externs, chooser=ch), externs, ch) for g in guards)


def out_steps(c: ComponentState, defs, externs, memo: Optional[Unfoldings] = None) -> List[OutCandidate]:
    """Every output action enabled in `c`, one candidate per extern draw
    combination.  Message, closed predicate and exposed environment all
    come from the pre-update environment.  A candidate whose evaluation
    fails is reported with its diagnostic rather than silently skipped."""
    occs = _occurrences(c.proc, defs, False, memo)
    exposed = restrict(c.env, c.interface)
    candidates: List[OutCandidate] = []
    for ordinal, occ in enumerate(occs):
        node = occ.node

        def fire(ch: Chooser, occ=occ, node=node, ordinal=ordinal):
            if not _guards_hold(occ.guards, c.env, externs, ch):
                return None
            try:
                msg = tuple(evaluate(e, c.env, externs=externs, chooser=ch) for e in node.payload)
                pred = close(node.target, c.env, externs=externs, chooser=ch, draw=True)
                new_env = apply_updates(c.env, node.cont.updates, externs=externs, chooser=ch)
            except EvalError as err:
                return OutCandidate((), node.target, exposed, c, ordinal, diagnostic=err)
            succ = ComponentState(c.name, new_env, c.interface, occ.rebuild(node.cont.then))
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
    defs,
    externs,
    memo: Optional[Unfoldings] = None,
) -> InResult:
    """Receive-or-discard judgement for one component and one broadcast.

    Receive requires both communication constraints: the component's
    public environment satisfies the sender's (closed) predicate, and
    the sender's exposed environment satisfies the receiving guard with
    the message substituted for the binders.  Each matching input
    occurrence contributes one successor; otherwise the component
    discards and is left untouched.  An arity mismatch between binders
    and message is an ordinary discard.
    """
    if not satisfies(restrict(c.env, c.interface), sent_pred, externs):
        return DISCARD
    occs = _occurrences(c.proc, defs, True, memo)
    needs = memo.needs if memo is not None else None
    successors: List[Tuple[int, ComponentState]] = []
    for ordinal, occ in enumerate(occs):
        node = occ.node
        if len(node.binders) != len(msg):
            continue
        bindings = Subst.of(dict(zip(node.binders, msg)))

        def consume(ch: Chooser, occ=occ, node=node, bindings=bindings):
            # a guard that cannot even be evaluated (absent attribute,
            # type error) cannot authorize reception: treat as discard
            try:
                if not _guards_hold(occ.guards, c.env, externs, ch):
                    return None
                guard = close(substitute(node.guard, bindings), c.env, externs=externs, chooser=ch)
                if not satisfies(exposed_env, guard, externs, ch):
                    return None
            except EvalError:
                return None
            cont = substitute_useq(node.cont, bindings, needs)
            new_env = apply_updates(c.env, cont.updates, externs=externs, chooser=ch)
            return ComponentState(c.name, new_env, c.interface, occ.rebuild(cont.then))

        for succ in all_runs(consume):
            if succ is not None:
                successors.append((ordinal, succ))
    if not successors:
        return DISCARD
    return InResult(successors)


def system_steps(
    state: SystemState, defs, externs, memo: Optional[Unfoldings] = None
) -> List[Tuple[BroadcastEvent, SystemState]]:
    """All system transitions from `state`.

    For each component and each of its output candidates, the broadcast
    is delivered atomically: every other component either receives
    (components that can receive must) or discards.  The successor set
    is the cartesian product of the receivers' choices.  The sender
    never receives its own message.  Without a memo, one is made for this
    state only, so closures are still trimmed.
    """
    if memo is None:
        memo = Unfoldings(call_needs(defs))
    results: List[Tuple[BroadcastEvent, SystemState]] = []
    for i, sender in enumerate(state):
        for cand in out_steps(sender, defs, externs, memo):
            if cand.diagnostic is not None:
                raise cand.diagnostic
            receiver_choices: List[Tuple[int, List[Tuple[int, ComponentState]]]] = []
            discarded = set()
            for j, other in enumerate(state):
                if j == i:
                    continue
                r = in_step(other, cand.exposed_env, cand.sent_pred, cand.message, defs, externs, memo)
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
