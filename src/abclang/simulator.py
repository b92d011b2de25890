"""Random simulation of a system specification.

A run picks uniformly among the enabled broadcast steps at each state
until deadlock, a step limit, or a runtime evaluation error.  Runs are
reproducible: the same spec text and seed give a byte-identical trace.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .evaluator import EvalError
from .pretty import pp_pred, pp_value
from .semantics import Run, system_steps
from .terms import (
    BroadcastEvent,
    SystemSpec,
    SystemState,
    VBool,
    VFloat,
    VInt,
    VSet,
    VStr,
    VTuple,
    VUndef,
    Value,
    ser_value,
)


@dataclass
class TraceStep:
    index: int
    event: BroadcastEvent
    updates: List[Tuple[str, str, Tuple[Value, ...], Value]]  # component, attr, index, new value


@dataclass
class Trace:
    spec_sha256: str
    seed: int
    steps: List[TraceStep] = field(default_factory=list)
    termination: str = "deadlock"  # "deadlock" | "step-limit" | "error"
    error: Optional[str] = None
    final_state: Optional[SystemState] = None


def _env_updates(pre: SystemState, post: SystemState) -> List[Tuple[str, str, Tuple[Value, ...], Value]]:
    out = []
    for before, after in zip(pre, post):
        if before.env == after.env:
            continue
        prev = dict(before.env.entries)
        for key, value in after.env.entries:
            if prev.get(key) != value:
                out.append((after.name, key[0], key[1], value))
    return out


def simulate(spec: SystemSpec, source: str, seed: int, max_steps: int = 1000) -> Trace:
    if max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, got {max_steps}")
    rng = random.Random(seed)
    trace = Trace(hashlib.sha256(source.encode()).hexdigest(), seed)
    state = spec.initial_state()
    try:
        run = Run.of_spec(spec)
        for i in range(max_steps):
            steps = system_steps(state, run)
            if not steps:
                trace.termination = "deadlock"
                break
            event, succ = steps[rng.randrange(len(steps))]
            trace.steps.append(TraceStep(i, event, _env_updates(state, succ)))
            state = succ
            run.keep_only(state)
        else:
            trace.termination = "step-limit"
    except EvalError as e:
        trace.termination = "error"
        trace.error = str(e)
    trace.final_state = state
    return trace


# ---------------------------------------------------------------------------
# serialization


def value_to_json(v: Value):
    if isinstance(v, VInt):
        return ["int", v.v]
    if isinstance(v, VFloat):
        return ["float", v.v]
    if isinstance(v, VBool):
        return ["bool", v.v]
    if isinstance(v, VStr):
        return ["str", v.v]
    if isinstance(v, VUndef):
        return ["undef"]
    if isinstance(v, VTuple):
        return ["tuple", [value_to_json(e) for e in v.items]]
    if isinstance(v, VSet):
        return ["set", [value_to_json(e) for e in sorted(v.items, key=ser_value)]]
    raise TypeError(f"not a value: {v!r}")


def json_to_value(j) -> Value:
    kind = j[0]
    if kind == "int":
        return VInt(j[1])
    if kind == "float":
        return VFloat(j[1])
    if kind == "bool":
        return VBool(j[1])
    if kind == "str":
        return VStr(j[1])
    if kind == "undef":
        return VUndef()
    if kind == "tuple":
        return VTuple(tuple(json_to_value(e) for e in j[1]))
    if kind == "set":
        return VSet.of(json_to_value(e) for e in j[1])
    raise ValueError(f"unknown value tag {kind!r}")


def trace_to_json(trace: Trace, names) -> str:
    """JSON-lines text: a header object followed by one object per step."""
    lines = [
        json.dumps(
            {
                "spec_sha256": trace.spec_sha256,
                "seed": trace.seed,
                "steps": len(trace.steps),
                "termination": trace.termination,
                **({"error": trace.error} if trace.error else {}),
            },
            sort_keys=False,
        )
    ]
    for st in trace.steps:
        ev = st.event
        lines.append(
            json.dumps(
                {
                    "step": st.index,
                    "sender": names[ev.sender],
                    "message": [value_to_json(v) for v in ev.message],
                    "predicate": pp_pred(ev.sent_pred),
                    "receivers": [
                        {"component": names[i], "branch": b}
                        for i, b in sorted(ev.receivers)
                    ],
                    "discarded": [names[i] for i in sorted(ev.discarded)],
                    "updates": [
                        {
                            "component": comp,
                            "attr": attr,
                            "index": [value_to_json(x) for x in idx],
                            "value": value_to_json(val),
                        }
                        for comp, attr, idx, val in st.updates
                    ],
                }
            )
        )
    return "\n".join(lines) + "\n"


def trace_to_text(trace: Trace, names) -> str:
    lines = [f"seed {trace.seed}: {len(trace.steps)} step(s), termination: {trace.termination}"]
    if trace.error:
        lines.append(f"error: {trace.error}")
    for st in trace.steps:
        ev = st.event
        msg = ", ".join(pp_value(v) for v in ev.message)
        rcv = ", ".join(names[i] for i, _ in sorted(ev.receivers)) or "nobody"
        lines.append(f"[{st.index}] {names[ev.sender]} sends ({msg}) @ {pp_pred(ev.sent_pred)} -> {rcv}")
        for comp, attr, idx, val in st.updates:
            ix = "[" + ", ".join(pp_value(x) for x in idx) + "]" if idx else ""
            lines.append(f"      {comp}.{attr}{ix} := {pp_value(val)}")
    return "\n".join(lines) + "\n"
