"""Exhaustive state-space exploration and property checking.

The explorer builds a labelled transition system by breadth-first
search over the broadcast step relation, deduplicating states by their
canonical key: the numbers a per-run `terms.Numbering` gives their
components.  States are numbered in the order they are first reached,
so the resulting LTS is the same on every run.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .semantics import Run, system_steps
from .terms import (
    And,
    BroadcastEvent,
    Event,
    FalsePred,
    Invariant,
    LeadsTo,
    Not,
    Numbering,
    Or,
    Property,
    Reachable,
    Received,
    Sent,
    StateExpr,
    SystemSpec,
    SystemState,
    TruePred,
    state_hash,
    state_key,
)
from .evaluator import compare_values, EvalError
from .validate import require_checkable


@dataclass(slots=True)
class Transition:
    src: int
    dst: int
    event: BroadcastEvent


@dataclass
class LTS:
    """The reachable states, numbered in the order they were first
    reached, and the transitions between them in the order they were
    found.  Transitions with the same broadcast and outcome usually
    share one event object (see `semantics.Run`); `event_numbers` gives
    each distinct event object one number."""

    states: List[SystemState]
    transitions: List[Transition]
    component_names: Tuple[str, ...]
    initial: int = 0
    truncated: bool = False
    truncation_reason: str = ""
    _out: Optional[List[List[int]]] = field(default=None, init=False, repr=False, compare=False)
    _numbered: Optional[Tuple[List[BroadcastEvent], List[int]]] = field(
        default=None, init=False, repr=False, compare=False)

    def out_edges(self) -> List[List[int]]:
        """Outgoing transition indices per state, built on the first call;
        the LTS must be complete by then."""
        if self._out is None:
            out: List[List[int]] = [[] for _ in self.states]
            for i, t in enumerate(self.transitions):
                out[t.src].append(i)
            self._out = out
        return self._out

    def event_numbers(self) -> Tuple[List[BroadcastEvent], List[int]]:
        """The distinct event objects, in the order of the first
        transition that carries each, and the number of each transition's
        event in that list; built on the first call, like `out_edges`.
        Equal events that are different objects get different numbers,
        which no checker minds: each judges an event by its contents."""
        if self._numbered is None:
            events: List[BroadcastEvent] = []
            by_id: Dict[int, int] = {}
            numbers = []
            for t in self.transitions:
                k = by_id.get(id(t.event))
                if k is None:
                    k = by_id[id(t.event)] = len(events)
                    events.append(t.event)
                numbers.append(k)
            self._numbered = (events, numbers)
        return self._numbered

    def export_text(self) -> str:
        lines = []
        for i, s in enumerate(self.states):
            lines.append(f"STATE {i} {state_hash(s)}")
        for t in self.transitions:
            sender = self.component_names[t.event.sender]
            tag = t.event.tag() or "-"
            lines.append(f"TRANS {t.src} {t.dst} {sender} {tag}")
        return "\n".join(lines) + "\n"


def explore(
    spec: SystemSpec,
    max_states: int = 100_000,
    max_depth: Optional[int] = None,
) -> LTS:
    """Breadth-first exploration of `spec`'s reachable states.  Raises
    `EvalError` with the message and span of `validate`'s first error for
    a spec that `validate` rejects (see `semantics.Run.of_spec`), and for
    a failed evaluation in a reachable state, and `ValueError` for a
    `max_states` below 1 or a negative `max_depth`."""
    if max_states < 1 or max_depth is not None and max_depth < 0:
        raise ValueError(f"limits out of range: max_states={max_states}, max_depth={max_depth}")
    run = Run.of_spec(spec)
    names = spec.component_names()
    initial = spec.initial_state()

    numbering = Numbering()
    states: List[SystemState] = [initial]
    index: Dict[tuple, int] = {state_key(initial, numbering): 0}
    transitions: List[Transition] = []
    lts = LTS(states, transitions, names)

    frontier = [0]
    depth = 0
    while frontier:
        if max_depth is not None and depth >= max_depth:
            lts.truncated = True
            lts.truncation_reason = f"depth limit {max_depth} reached"
            break
        next_frontier: List[int] = []
        capped = False
        for sid in frontier:
            for event, succ in system_steps(states[sid], run):
                key = state_key(succ, numbering)
                dst = index.get(key)
                if dst is None:
                    if len(states) >= max_states:
                        capped = True
                        continue
                    dst = len(states)
                    index[key] = dst
                    states.append(succ)
                    next_frontier.append(dst)
                transitions.append(Transition(sid, dst, event))
        if capped:
            lts.truncated = True
            lts.truncation_reason = f"state limit {max_states} reached"
            break
        frontier = next_frontier
        depth += 1
        run.keep_only([c for sid in frontier for c in states[sid]], judged_events=True)
    return lts


# ---------------------------------------------------------------------------
# property evaluation


def event_matches(ev: Event, event: BroadcastEvent, names: Sequence[str]) -> bool:
    if event.tag() != ev.tag:
        return False
    if isinstance(ev, Sent):
        return ev.component == "*" or ev.component == names[event.sender]
    # Received: some receiver matches the component pattern
    for idx, _branch in event.receivers:
        if ev.component == "*" or names[idx] == ev.component:
            return True
    return False


def _matching(lts: LTS, patterns: Sequence[Event]) -> Tuple[List[bool], List[int]]:
    """Whether each distinct event of `lts` matches some of `patterns`,
    by event number, and the event number of each transition (see
    `LTS.event_numbers`): a pattern is judged once per event, not once
    per transition."""
    events, numbers = lts.event_numbers()
    names = lts.component_names
    hits = [False] * len(events)
    for p in patterns:
        hits = [hit or event_matches(p, e, names) for hit, e in zip(hits, events)]
    return hits, numbers


def state_satisfies(expr: StateExpr, state: SystemState, names: Sequence[str]) -> bool:
    if isinstance(expr, TruePred):
        return True
    if isinstance(expr, FalsePred):
        return False
    if isinstance(expr, And):
        return state_satisfies(expr.lhs, state, names) and state_satisfies(expr.rhs, state, names)
    if isinstance(expr, Or):
        return state_satisfies(expr.lhs, state, names) or state_satisfies(expr.rhs, state, names)
    if isinstance(expr, Not):
        return not state_satisfies(expr.inner, state, names)
    # SCompare: "*" means some component satisfies the comparison
    for i, comp in enumerate(state):
        if expr.component != "*" and names[i] != expr.component:
            continue
        v = comp.env.lookup(expr.attr, expr.index)
        if v is None:
            continue
        try:
            if compare_values(expr.op, v, expr.value):
                return True
        except EvalError:
            continue
    return False


@dataclass
class Verdict:
    name: str
    status: str  # "holds" | "fails" | "unknown"
    detail: str = ""
    witness: List[str] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def _path_to(lts: LTS, targets: set) -> Optional[List[int]]:
    """Shortest transition path from the initial state to any target
    state, as a list of transition indices (empty if initial is a target)."""
    if lts.initial in targets:
        return []
    out = lts.out_edges()
    prev: Dict[int, Tuple[int, int]] = {}
    seen = {lts.initial}
    queue = [lts.initial]
    while queue:
        nxt: List[int] = []
        for u in queue:
            for ti in out[u]:
                v = lts.transitions[ti].dst
                if v in seen:
                    continue
                seen.add(v)
                prev[v] = (u, ti)
                if v in targets:
                    path = []
                    cur = v
                    while cur != lts.initial:
                        cur, ti2 = prev[cur]
                        path.append(ti2)
                    path.reverse()
                    return path
                nxt.append(v)
        queue = nxt
    return None


def describe_transition(lts: LTS, ti: int) -> str:
    t = lts.transitions[ti]
    sender = lts.component_names[t.event.sender]
    tag = t.event.tag() or "<untagged>"
    rcv = ", ".join(sorted(lts.component_names[i] for i, _ in t.event.receivers)) or "nobody"
    return f"{t.src} -> {t.dst}: {sender} sends {tag!r}, received by {rcv}"


def check_reachable(name: str, prop: Reachable, lts: LTS) -> Verdict:
    if isinstance(prop.target, (Sent, Received)):
        hits, numbers = _matching(lts, (prop.target,))
        if True in hits:
            # transitions are appended level by level, and events are
            # numbered in the order of their first transition, so the
            # first transition of the lowest matching event is the first
            # matching transition, on a shortest path
            ti = numbers.index(hits.index(True))
            path = _path_to(lts, {lts.transitions[ti].src})
            steps = [describe_transition(lts, i) for i in (path or [])]
            steps.append(describe_transition(lts, ti))
            return Verdict(name, "holds", "event is reachable", steps)
    else:
        names = lts.component_names
        hits = {
            i for i, s in enumerate(lts.states) if state_satisfies(prop.target, s, names)
        }
        if hits:
            path = _path_to(lts, hits)
            return Verdict(
                name, "holds", "state expression is reachable",
                [describe_transition(lts, i) for i in (path or [])],
            )
    if lts.truncated:
        return Verdict(name, "unknown", f"not found, but exploration was truncated: {lts.truncation_reason}")
    return Verdict(name, "fails", "target is unreachable in the full state space")


def check_invariant(name: str, prop: Invariant, lts: LTS) -> Verdict:
    names = lts.component_names
    bad = {i for i, s in enumerate(lts.states) if not state_satisfies(prop.expr, s, names)}
    if bad:
        path = _path_to(lts, bad)
        return Verdict(
            name, "fails", "a reachable state violates the invariant",
            [describe_transition(lts, i) for i in (path or [])],
        )
    if lts.truncated:
        return Verdict(name, "unknown", f"no violation found, but exploration was truncated: {lts.truncation_reason}")
    return Verdict(name, "holds", f"all {len(lts.states)} reachable states satisfy the invariant")


def check_leads_to(name: str, prop: LeadsTo, lts: LTS) -> Verdict:
    if lts.truncated:
        return Verdict(name, "unknown", f"exploration was truncated: {lts.truncation_reason}")
    is_trigger, numbers = _matching(lts, (prop.trigger,))
    if True not in is_trigger:
        return Verdict(name, "holds", "vacuously: the trigger event never occurs")
    is_goal, _ = _matching(lts, prop.goals)
    out = lts.out_edges()
    transitions = lts.transitions
    trigger_targets = sorted({
        t.dst for t, k in zip(transitions, numbers) if is_trigger[k] and not is_goal[k]
    })

    # In the subgraph with goal-labelled transitions removed, the property
    # fails iff some trigger successor can reach a state that is terminal
    # in the full graph, or a cycle: either gives a maximal run with no
    # goal after the trigger.  `sub` holds the goal-free out-edges of each
    # state that a trigger successor reaches in that subgraph.
    sub: Dict[int, List[int]] = {}
    stack = list(trigger_targets)
    while stack:
        u = stack.pop()
        if u in sub:
            continue
        edges = sub[u] = [ti for ti in out[u] if not is_goal[numbers[ti]]]
        stack.extend(transitions[ti].dst for ti in edges)
    reach = sorted(sub)

    for u in reach:
        if not out[u]:
            return Verdict(
                name, "fails",
                f"after the trigger, state {u} is reachable without any goal "
                "event and has no outgoing transitions",
            )

    # cycle detection restricted to the reachable subgraph
    color: Dict[int, int] = {}  # 0 visiting, 1 done
    for root in reach:
        if root in color:
            continue
        stack2: List[Tuple[int, int]] = [(root, 0)]
        while stack2:
            u, ei = stack2[-1]
            if ei == 0:
                color[u] = 0
            edges = sub[u]
            if ei < len(edges):
                stack2[-1] = (u, ei + 1)
                v = transitions[edges[ei]].dst
                c = color.get(v)
                if c == 0:
                    return Verdict(
                        name, "fails",
                        f"after the trigger, a cycle through state {v} avoids every goal event",
                    )
                if c is None:
                    stack2.append((v, 0))
            else:
                color[u] = 1
                stack2.pop()

    return Verdict(
        name, "holds",
        "every maximal run after the trigger eventually performs a goal event",
    )


def check_property(name: str, prop: Property, lts: LTS) -> Verdict:
    """The verdict of property `prop` on `lts`.  Raises `EvalError` for
    an LTS with two components of one name, a property nested more than
    E-DEPTH allows and one that names a component, other than `*`, that
    is not in `lts.component_names` (`validate` reports these as
    E-DUP-COMP, E-DEPTH and E-UNDEF-COMP): the checkers rely on there
    being none, and they take a property and an LTS, not a spec."""
    require_checkable(name, prop, lts.component_names)
    if isinstance(prop, Reachable):
        return check_reachable(name, prop, lts)
    if isinstance(prop, Invariant):
        return check_invariant(name, prop, lts)
    if isinstance(prop, LeadsTo):
        return check_leads_to(name, prop, lts)
    raise TypeError(f"not a property: {prop!r}")
