"""The abclang benchmark.

    python3 perfbench/run.py --workload corpus|wide-sim|micro --seed N \\
        --seconds S --trace 0|1

Runs rounds of the workload, each in a fresh process (worker.py) with
fresh inputs made from the seed and the round number, one after another
until S seconds have passed, and prints one JSON object
as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
an untraced and a traced round of the same inputs alternate; the metrics are
the per-layer self times and counts of the traced rounds, per round, and
`trace.overhead_ratio`, the traced operation time over the untraced one.
The spans of the first traced round are written to perfbench/out/.
Exit status 1 means a wrong answer or a failed round, 2 a missing engine.
See perfbench/README.md for the metrics, the workloads and the baseline.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
TIME_LIMIT_S = 170  # the whole command, rounds included

sys.path.insert(0, HERE)
import worker  # noqa: E402  (inputs only; the engine is imported by the rounds)


def run_round(workload: str, seed: int, round_no: int, trace: bool, timeout: float,
              spans: str = "") -> Optional[Dict]:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--round", str(round_no), "--trace", str(int(trace))]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        print(f"round timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"round exited with status {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(rounds: List[Dict]) -> Dict[str, tuple]:
    ops = [t for r in rounds for t in r["timings"]]
    op_ms = [t["op_ms"] for t in ops]
    build_s = sum(t["build_ms"] for t in ops) / 1e3
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "op_ms.p50": (quantile(op_ms, 50), "ms"),
        "op_ms.p90": (quantile(op_ms, 90), "ms"),
        "build_ms.p50": (quantile([t["build_ms"] for t in ops], 50), "ms"),
        "output_ms.p50": (quantile([t["output_ms"] for t in ops], 50), "ms"),
        "steps_per_s": (sum(t["steps"] for t in ops) / build_s, "1/s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in rounds), "MiB"),
    }


def per_layer(traced: List[Dict], untraced: List[Dict]) -> Dict[str, tuple]:
    n = len(traced)
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    for r in traced:
        for name, (s, total, c) in r["layers"].items():
            self_s[name] += s
            total_s[name] += total
            calls[name] += c
        counts.update(r["counts"])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: Dict[str, tuple] = {}
    for name in ["semantics.system_steps", "semantics.out_steps", "semantics.in_step",
                 "semantics.unfold", "evaluator.substitute_proc", "evaluator.pred",
                 "evaluator.eval", "evaluator.all_runs", "terms.state_key"]:
        m[f"{name}_s"] = (self_s[name] / n, "s")
        m[f"{name}.calls"] = (calls[name] / n, "count")
    m["semantics.out_steps.candidates"] = (counts["semantics.out_steps.candidates"] / n, "count")
    m["semantics.in_step.receive_ratio"] = (
        ratio(counts["semantics.in_step.receives"], calls["semantics.in_step"]), "ratio")
    m["evaluator.fanout"] = (
        ratio(counts["evaluator.all_runs.results"], calls["evaluator.all_runs"]), "ratio")
    states, transitions = counts["explorer.states"], counts["explorer.transitions"]
    new_by_transition = states - calls["explorer.explore"]
    m["explorer.explore_self_s"] = (self_s["explorer.explore"] / n, "s")
    m["explorer.states"] = (states / n, "count")
    m["explorer.transitions"] = (transitions / n, "count")
    m["explorer.dedup_hit_ratio"] = (ratio(transitions - new_by_transition, transitions), "ratio")
    m["explorer.states_per_s"] = (ratio(states, total_s["explorer.explore"]), "1/s")
    for kind in ("reachable", "invariant", "leadsto"):
        m[f"explorer.check.{kind}_s"] = (self_s[f"explorer.check.{kind}"] / n, "s")
    m["explorer.out_edges_s"] = (self_s["explorer.out_edges"] / n, "s")
    m["explorer.out_edges.calls"] = (calls["explorer.out_edges"] / n, "count")
    m["parser.parse_spec_s"] = (self_s["parser.parse_spec"] / n, "s")
    m["validate.validate_s"] = (self_s["validate.validate"] / n, "s")
    m["simulator.simulate_s"] = (self_s["simulator.simulate"] / n, "s")
    m["simulator.steps"] = (counts["simulator.steps"] / n, "count")
    m["simulator.trace_to_json_s"] = (self_s["simulator.trace_to_json"] / n, "s")
    m["pretty.pp_s"] = (self_s["pretty.pp"] / n, "s")
    op_s = [sum(t["op_ms"] for r in side for t in r["timings"]) for side in (traced, untraced)]
    m["trace.overhead_ratio"] = (op_s[0] / op_s[1], "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="abclang benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "abclang", "__init__.py")):
        print(f"error: the engine's sources are not under {ROOT}/src", file=sys.stderr)
        return 2

    started = time.monotonic()
    untraced: List[Dict] = []
    traced: List[Dict] = []
    attempted = failed = 0
    crashed = False
    while not crashed and (not untraced or time.monotonic() - started < args.seconds):
        round_no = len(untraced)
        planned = worker.WORKLOADS[args.workload][0](args.seed, round_no)["planned"]
        for trace in ([False, True] if args.trace else [False]):
            spans = ""
            if trace and not traced:
                os.makedirs(OUT, exist_ok=True)
                spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv")
            left = TIME_LIMIT_S - (time.monotonic() - started)
            r = run_round(args.workload, args.seed, round_no, trace, left, spans)
            attempted += planned
            if r is None:
                failed += planned
                crashed = True
                break
            failed += r["failed"]
            (traced if trace else untraced).append(r)

    ok = failed == 0
    metrics: Dict[str, tuple] = {}
    if ok:
        metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced)
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
