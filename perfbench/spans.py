"""Outside-in tracing of the engine's layers.

`Tracer.install()` replaces public functions of the engine's modules with
wrappers, by `setattr` on the module (or class) attribute that the
calling code looks up at call time; `restore()` puts the originals back.
Each wrapper records one span in memory: name, start, end, parent span
and run id.  Nothing in the engine changes.

A span's self time is its duration minus the durations of its direct
children.  Calls inside one module that bind the callee directly (for
example `evaluate` recursing into itself) are not separate spans; their
time stays with the span that was entered from outside.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span name, counter)
# The module is the one whose global the caller reads, so a function
# called from two modules is wrapped in both.  `counter(counts, result)`
# records what the call produced.


def _count_candidates(counts, result):
    counts["semantics.out_steps.candidates"] += len(result)


def _count_receive(counts, result):
    counts["semantics.in_step.receives"] += bool(result.successors)


def _count_fanout(counts, result):
    counts["evaluator.all_runs.results"] += len(result)


def _count_lts(counts, result):
    counts["explorer.states"] += len(result.states)
    counts["explorer.transitions"] += len(result.transitions)


def _count_sim_steps(counts, result):
    counts["simulator.steps"] += len(result.steps)


WRAPS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("abclang.parser", "parse_spec", "parser.parse_spec", None),
    ("abclang.validate", "validate", "validate.validate", None),
    ("abclang", "explore", "explorer.explore", _count_lts),
    ("abclang.explorer", "system_steps", "semantics.system_steps", None),
    ("abclang.explorer", "state_key", "terms.state_key", None),
    ("abclang.explorer", "check_reachable", "explorer.check.reachable", None),
    ("abclang.explorer", "check_invariant", "explorer.check.invariant", None),
    ("abclang.explorer", "check_leads_to", "explorer.check.leadsto", None),
    ("abclang.explorer.LTS", "out_edges", "explorer.out_edges", None),
    ("abclang", "simulate", "simulator.simulate", _count_sim_steps),
    ("abclang.simulator", "system_steps", "semantics.system_steps", None),
    ("abclang", "trace_to_json", "simulator.trace_to_json", None),
    ("abclang.simulator", "pp_pred", "pretty.pp", None),
    ("abclang.semantics", "out_steps", "semantics.out_steps", _count_candidates),
    ("abclang.semantics", "in_step", "semantics.in_step", _count_receive),
    ("abclang.semantics", "unfold", "semantics.unfold", None),
    ("abclang.semantics", "substitute_proc", "evaluator.substitute_proc", None),
    ("abclang.semantics", "close", "evaluator.pred", None),
    ("abclang.semantics", "satisfies", "evaluator.pred", None),
    ("abclang.semantics", "evaluate", "evaluator.eval", None),
    ("abclang.semantics", "apply_updates", "evaluator.eval", None),
    ("abclang.semantics", "all_runs", "evaluator.all_runs", _count_fanout),
]


def _resolve(path: str):
    """`abclang.explorer.LTS` -> the class; `abclang.validate` -> the module
    (the package attribute of that name is the function)."""
    if path in sys.modules:
        return sys.modules[path]
    module, _, attr = path.rpartition(".")
    return getattr(sys.modules[module], attr)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, counter: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter_ns
        name_id, parent, run, start, end = self.name_id, self.parent, self.run, self.start, self.end
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        for path, attr, name, counter in WRAPS:
            self.wrap(_resolve(path), attr, name, counter)
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> Dict[str, Tuple[float, float, int]]:
        """Span name -> (self seconds, total seconds, calls) over every
        recorded span.  No wrapped function reaches another span of its
        own name, so total time is the plain sum of durations."""
        n = len(self.start)
        child_ns = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        self_ns = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            nid = self.name_id[i]
            dur = self.end[i] - self.start[i]
            self_ns[nid] += dur - child_ns[i]
            total_ns[nid] += dur
            calls[nid] += 1
        return {name: (self_ns[i] / 1e9, total_ns[i] / 1e9, calls[i])
                for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """One tab-separated line per span: index, name, start_ns, end_ns,
        parent index (-1 for a root) and run id."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\tname\tstart_ns\tend_ns\tparent\trun\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.run[i]}\n"
                )
