"""Exhaustive state-space exploration and property checking.

The explorer builds a labelled transition system by breadth-first
search over the broadcast step relation, deduplicating states by their
canonical key.  States are numbered in the order they are first reached,
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


@dataclass
class Transition:
    src: int
    dst: int
    event: BroadcastEvent


@dataclass
class LTS:
    states: List[SystemState]
    transitions: List[Transition]
    component_names: Tuple[str, ...]
    initial: int = 0
    truncated: bool = False
    truncation_reason: str = ""
    _out: Optional[List[List[int]]] = field(default=None, init=False, repr=False, compare=False)

    def out_edges(self) -> List[List[int]]:
        """Outgoing transition indices per state, built on the first call;
        the LTS must be complete by then."""
        if self._out is None:
            out: List[List[int]] = [[] for _ in self.states]
            for i, t in enumerate(self.transitions):
                out[t.src].append(i)
            self._out = out
        return self._out

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
    `EvalError` for an unguarded call cycle or a call to an undefined
    process (which `validate` reports as E-UNGUARDED and E-UNDEF-PROC) and
    for a failed evaluation in a reachable state, and `ValueError` for a
    `max_states` below 1 or a negative `max_depth`."""
    if max_states < 1 or max_depth is not None and max_depth < 0:
        raise ValueError(f"limits out of range: max_states={max_states}, max_depth={max_depth}")
    run = Run.of(spec.defs_map(), spec.externs_map(), [d.proc for d in spec.components])
    names = spec.component_names()
    initial = spec.initial_state()

    states: List[SystemState] = [initial]
    index: Dict[tuple, int] = {state_key(initial): 0}
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
                key = state_key(succ)
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
        run.keep_only([c for sid in frontier for c in states[sid]])
    return lts


# ---------------------------------------------------------------------------
# property evaluation


def event_matches(ev: Event, t: Transition, names: Sequence[str]) -> bool:
    tag = t.event.tag()
    if tag != ev.tag:
        return False
    if isinstance(ev, Sent):
        sender = names[t.event.sender]
        return ev.component == "*" or ev.component == sender
    # Received: some receiver matches the component pattern
    for idx, _branch in t.event.receivers:
        if ev.component == "*" or names[idx] == ev.component:
            return True
    return False


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
    names = lts.component_names
    if isinstance(prop.target, (Sent, Received)):
        # shortest-first scan: transitions are appended level by level
        for ti, t in enumerate(lts.transitions):
            if event_matches(prop.target, t, names):
                path = _path_to(lts, {t.src})
                steps = [describe_transition(lts, i) for i in (path or [])]
                steps.append(describe_transition(lts, ti))
                return Verdict(name, "holds", "event is reachable", steps)
    else:
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
    names = lts.component_names
    triggers = [ti for ti, t in enumerate(lts.transitions) if event_matches(prop.trigger, t, names)]
    if not triggers:
        return Verdict(name, "holds", "vacuously: the trigger event never occurs")
    out = lts.out_edges()
    goal = [
        any(event_matches(g, t, names) for g in prop.goals) for t in lts.transitions
    ]
    trigger_targets = sorted({lts.transitions[ti].dst for ti in triggers if not goal[ti]})

    # In the subgraph with goal-labelled transitions removed, the property
    # fails iff some trigger successor can reach a state that is terminal
    # in the full graph, or a cycle: either gives a maximal run with no
    # goal after the trigger.
    n = len(lts.states)
    sub_out: List[List[int]] = [[] for _ in range(n)]
    for ti, t in enumerate(lts.transitions):
        if not goal[ti]:
            sub_out[t.src].append(ti)

    reach: set = set()
    stack = list(trigger_targets)
    while stack:
        u = stack.pop()
        if u in reach:
            continue
        reach.add(u)
        for ti in sub_out[u]:
            stack.append(lts.transitions[ti].dst)

    for u in sorted(reach):
        if not out[u]:
            return Verdict(
                name, "fails",
                f"after the trigger, state {u} is reachable without any goal "
                "event and has no outgoing transitions",
            )

    # cycle detection restricted to the reachable subgraph
    color: Dict[int, int] = {}  # 0 visiting, 1 done
    for root in sorted(reach):
        if root in color:
            continue
        stack2: List[Tuple[int, int]] = [(root, 0)]
        while stack2:
            u, ei = stack2[-1]
            if ei == 0:
                color[u] = 0
            edges = sub_out[u]
            if ei < len(edges):
                stack2[-1] = (u, ei + 1)
                v = lts.transitions[edges[ei]].dst
                if v not in reach:
                    continue
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
    if isinstance(prop, Reachable):
        return check_reachable(name, prop, lts)
    if isinstance(prop, Invariant):
        return check_invariant(name, prop, lts)
    if isinstance(prop, LeadsTo):
        return check_leads_to(name, prop, lts)
    raise TypeError(f"not a property: {prop!r}")
