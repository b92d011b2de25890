"""One benchmark round, run in a fresh process by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --round K --trace 0|1 [--spans FILE]

A round makes its inputs from the seed and its round number, imports the engine from `src/`,
loads every spec (the set-up), runs the workload's operations through
the package's public API and checks every answer against values known
without the engine.  It prints one JSON object on its last line: the
set-up time, the timings (one record per corpus spec, trace or micro
spec), the number of failed operations, the process's peak RSS and,
when traced, each span name's self and total time and calls.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import gen_corpus  # noqa: E402
import gen_micro  # noqa: E402
import spans  # noqa: E402

# The hotel table is fixed (generator seed 0), so the benchmark seed only
# picks traces: with a seeded table, steps/s differed by 18 % between seeds.
WIDE = dict(customers=4, hotels=4, days=2, prices=3, seed=0)
TRACES_PER_ROUND = 6
MAX_SIM_STEPS = 500


def _op(build_s: float, output_s: float, total_s: float, steps: int) -> Dict:
    return {"build_ms": build_s * 1e3, "output_ms": output_s * 1e3,
            "op_ms": total_s * 1e3, "steps": steps}


def _verdicts(abc, spec, lts) -> Dict[str, str]:
    return {name: abc.check_property(name, prop, lts).status for name, prop in spec.properties}


def _load(abc, text: str, name: str):
    spec, diags = abc.load_spec(text, name)
    if spec is None:
        raise ValueError(f"{name}: " + "; ".join(d.message for d in diags))
    return spec


# ---------------------------------------------------------------------------
# workloads: inputs(seed, round) -> dict; run(abc, loaded, inputs, tracer)
# -> (timings, failed)
#
# Every input is text made from the seed and the round number before the
# engine is imported; successive rounds of a run get fresh inputs, so one
# run's medians cover many of them.
# `planned` is the number of operations a round attempts.  `loaded`
# holds the specs load_spec returned during set-up.


def corpus_inputs(seed: int, round_no: int) -> Dict:
    del seed, round_no  # one fixed variant: 2 customers x 1 hotel with 2 rooms
    verdicts = gen_corpus.roomy_verdicts(2)
    return {"texts": {"corpus": gen_corpus.corpus_variant(2, 1, rooms=2)},
            "verdicts": verdicts, "planned": len(verdicts)}


def run_corpus(abc, loaded, inputs, tracer) -> Tuple[List[Dict], int]:
    spec = loaded["corpus"]
    t0 = time.perf_counter()
    lts = abc.explore(spec, max_states=1_000_000)
    t1 = time.perf_counter()
    got = _verdicts(abc, spec, lts)
    t2 = time.perf_counter()
    want = inputs["verdicts"]
    # each verdict is one operation; a truncated exploration fails them all
    wrong = [n for n, v in want.items() if lts.truncated or got.get(n) != v]
    if wrong:
        print(f"corpus: verdicts {got}, expected {want}", file=sys.stderr)
    return [_op(t1 - t0, t2 - t1, t2 - t0, len(lts.states))], len(wrong)


def wide_inputs(seed: int, round_no: int) -> Dict:
    first = (seed * 1000 + round_no) * TRACES_PER_ROUND
    return {"texts": {"wide": gen_corpus.corpus_variant(**WIDE)},
            "trace_seeds": list(range(first, first + TRACES_PER_ROUND)),
            "planned": TRACES_PER_ROUND}


def check_trace(lines: List[str], customers: int) -> str:
    """Protocol facts of a finished wide-sim trace, read from its JSON
    lines; returns '' when all hold, else what failed."""
    header = json.loads(lines[0])
    tags: Dict[str, int] = {}
    rooms = {}
    for line in lines[1:]:
        step = json.loads(line)
        msg = step["message"]
        if msg and msg[0][0] == "str":
            tags[msg[0][1]] = tags.get(msg[0][1], 0) + 1
        for u in step["updates"]:
            if u["attr"] == "room":
                rooms[(u["component"], json.dumps(u["index"]))] = u["value"]
    problems = []
    if header["termination"] != "deadlock":
        problems.append(f"termination {header['termination']}")
    if tags.get("confirm", 0) != customers:
        problems.append(f"{tags.get('confirm', 0)} confirm for {customers} customers")
    if tags.get("comission", 0) != tags.get("confirm", 0):
        problems.append("comission count differs from confirm count")
    if any(v[0] != "int" or v[1] < 0 for v in rooms.values()):
        problems.append("a room count fell below 0")
    return ", ".join(problems)


def run_wide(abc, loaded, inputs, tracer) -> Tuple[List[Dict], int]:
    spec = loaded["wide"]
    source = inputs["texts"]["wide"]
    names = spec.component_names()
    ops, failed = [], 0
    for run_id, trace_seed in enumerate(inputs["trace_seeds"]):
        if tracer is not None:
            tracer.run_id = run_id
        t0 = time.perf_counter()
        trace = abc.simulate(spec, source, trace_seed, max_steps=MAX_SIM_STEPS)
        t1 = time.perf_counter()
        text = abc.trace_to_json(trace, names)
        t2 = time.perf_counter()
        problem = check_trace(text.splitlines(), WIDE["customers"])
        if problem:
            failed += 1
            print(f"wide-sim seed {trace_seed}: {problem}", file=sys.stderr)
        ops.append(_op(t1 - t0, t2 - t1, t2 - t0, len(trace.steps) + 1))
    return ops, failed


def micro_inputs(seed: int, round_no: int) -> Dict:
    specs = gen_micro.batch(seed * 1000 + round_no)
    return {"texts": {m.name: m.text for m in specs}, "specs": specs, "planned": len(specs)}


def run_micro(abc, loaded, inputs, tracer) -> Tuple[List[Dict], int]:
    ops, failed = [], 0
    for run_id, m in enumerate(inputs["specs"]):
        if tracer is not None:
            tracer.run_id = run_id
        t0 = time.perf_counter()
        spec = _load(abc, m.text, m.name)
        t1 = time.perf_counter()
        lts = abc.explore(spec)
        t2 = time.perf_counter()
        got = _verdicts(abc, spec, lts)
        t3 = time.perf_counter()
        shape = (len(lts.states), len(lts.transitions), lts.truncated)
        ok = shape == (m.states, m.transitions, False) and got == m.verdicts
        if not ok:
            failed += 1
            print(f"micro {m.name}: {shape} {got}, expected {m.states}/{m.transitions} {m.verdicts}",
                  file=sys.stderr)
        ops.append(_op(t2 - t1, t3 - t2, t3 - t0, len(lts.states)))
    return ops, failed


WORKLOADS = {
    "corpus": (corpus_inputs, run_corpus),
    "wide-sim": (wide_inputs, run_wide),
    "micro": (micro_inputs, run_micro),
}


def run_round(workload: str, seed: int, round_no: int, trace: bool, spans_path: str = "") -> Dict:
    make_inputs, run = WORKLOADS[workload]
    inputs = make_inputs(seed, round_no)
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import abclang

    tracer = spans.Tracer().install() if trace else None
    try:
        loaded = {name: _load(abclang, text, name) for name, text in inputs["texts"].items()}
        setup_s = time.perf_counter() - t0
        timings, failed = run(abclang, loaded, inputs, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "setup_s": setup_s,
        "timings": timings,
        "failed": failed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["counts"] = dict(tracer.counts)
        if spans_path:
            tracer.write(spans_path)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans", default="", help="write the round's spans here (traced rounds)")
    args = ap.parse_args(argv)
    result = run_round(args.workload, args.seed, args.round, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
