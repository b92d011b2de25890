"""Command-line interface: parse, run, explore, check.

Exit codes: 0 success / property holds; 1 a property fails; 2 parse or
validation error, a file that cannot be read or written (standard output
included), or a usage error
(an unknown option, a negative --max-steps or --max-depth, a --max-states
below 1); 3 a resource
limit left a verdict unknown; 4 runtime evaluation error.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .evaluator import EvalError
from .explorer import check_property, explore
from .simulator import simulate, trace_to_json, trace_to_text
from .validate import load_spec

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_SPEC_ERROR = 2
EXIT_UNKNOWN = 3
EXIT_EVAL_ERROR = 4


class _StdoutError(Exception):
    """Standard output could not be written; the message says why."""


def _emit(text: str) -> None:
    """Writes `text` to standard output and flushes it, so that a full
    disk or a closed pipe is met here, as `_StdoutError`."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as e:
        raise _StdoutError(e.strerror or str(e)) from e


def _load(path: str):
    try:
        # newline="": a carriage return in a string literal stays one
        with open(path, encoding="utf-8", newline="") as f:
            source = f.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read {path}: {getattr(e, 'strerror', e)}", file=sys.stderr)
        return None, None
    spec, diags = load_spec(source, path)
    for d in diags:
        print(d.render(), file=sys.stderr)
    return spec, source


def _cmd_parse(args) -> int:
    spec, _ = _load(args.file)
    if spec is None:
        return EXIT_SPEC_ERROR
    _emit(
        f"{args.file}: ok "
        f"({len(spec.components)} component(s), {len(spec.proc_defs)} process definition(s), "
        f"{len(spec.properties)} property(ies))\n"
    )
    return EXIT_OK


def _cmd_run(args) -> int:
    spec, source = _load(args.file)
    if spec is None:
        return EXIT_SPEC_ERROR
    trace = simulate(spec, source, args.seed, args.max_steps)
    names = spec.component_names()
    if args.format == "json":
        _emit(trace_to_json(trace, names))
    else:
        _emit(trace_to_text(trace, names))
    return EXIT_EVAL_ERROR if trace.termination == "error" else EXIT_OK


def _cmd_explore(args) -> int:
    spec, _ = _load(args.file)
    if spec is None:
        return EXIT_SPEC_ERROR
    try:
        lts = explore(spec, max_states=args.max_states, max_depth=args.max_depth)
    except EvalError as e:
        print(f"evaluation error: {e}", file=sys.stderr)
        return EXIT_EVAL_ERROR
    if args.export_lts:
        try:
            with open(args.export_lts, "w", encoding="utf-8") as f:
                f.write(lts.export_text())
        except OSError as e:
            print(f"error: cannot write {args.export_lts}: {e.strerror}", file=sys.stderr)
            return EXIT_SPEC_ERROR
    status = "truncated: " + lts.truncation_reason if lts.truncated else "complete"
    _emit(f"{len(lts.states)} state(s), {len(lts.transitions)} transition(s) ({status})\n")
    return EXIT_UNKNOWN if lts.truncated else EXIT_OK


def _cmd_check(args) -> int:
    spec, _ = _load(args.file)
    if spec is None:
        return EXIT_SPEC_ERROR
    props = dict(spec.properties)
    if args.property is not None:
        if args.property not in props:
            print(f"error: unknown property {args.property!r}", file=sys.stderr)
            return EXIT_SPEC_ERROR
        selected = [(args.property, props[args.property])]
    else:
        selected = list(spec.properties)
    if not selected:
        print("no properties to check", file=sys.stderr)
        return EXIT_SPEC_ERROR
    try:
        lts = explore(spec, max_states=args.max_states)
    except EvalError as e:
        print(f"evaluation error: {e}", file=sys.stderr)
        return EXIT_EVAL_ERROR
    any_fail = any_unknown = False
    for name, prop in selected:
        v = check_property(name, prop, lts)
        label = {"holds": "HOLDS", "fails": "FAILS", "unknown": "UNKNOWN"}[v.status]
        _emit(f"{name}: {label} — {v.detail}\n" + "".join(f"    {line}\n" for line in v.witness))
        any_fail |= v.status == "fails"
        any_unknown |= v.status == "unknown"
    if any_fail:
        return EXIT_PROPERTY_FAILED
    if any_unknown:
        return EXIT_UNKNOWN
    return EXIT_OK


def _at_least(least: int):
    """An argparse type: an integer of at least `least`."""

    def count(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return count


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="abc", description="AbC specification toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and validate a spec")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("run", help="simulate one random trace")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_at_least(0), default=1000)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("explore", help="build the full transition system")
    p.add_argument("file")
    p.add_argument("--max-states", type=_at_least(1), default=100_000)
    p.add_argument("--max-depth", type=_at_least(0), default=None)
    p.add_argument("--export-lts", metavar="FILE", default=None)
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser("check", help="verify declared properties")
    p.add_argument("file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--property", metavar="NAME", default=None)
    g.add_argument("--all", action="store_true")
    p.add_argument("--max-states", type=_at_least(1), default=1_000_000)
    p.set_defaults(fn=_cmd_check)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _StdoutError as e:
        print(f"error: cannot write standard output: {e}", file=sys.stderr)
        if sys.stdout is sys.__stdout__:
            # the interpreter flushes standard output again on exit, and a
            # closed pipe fails that flush too: send what is left in the
            # buffer to the null device
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        return EXIT_SPEC_ERROR


if __name__ == "__main__":
    sys.exit(main())
