"""Byte-identity of every source span the front end produces.

The golden diagnostics show only where a span starts.  Each digest
below is the SHA-256 of `(class name, line, col, end_line, end_col)` for
every parsed term that carries a span, in preorder, followed by the
span of every diagnostic that `load_spec` reports.  So a change to how
tokens are positioned, or to where a term's span ends, moves a digest.

Run as a script (`PYTHONPATH=src python tests/test_spans.py`), this file
prints every input's current digest and marks those that differ from the
pinned ones; given an input's name, it prints that input's rows, one
`class line col end_line end_col` a line, so a moved digest can be
checked row by row.
"""
import hashlib
import sys

import pytest

from conftest import fixture_path
from test_golden import BROKEN

from abclang.parser import parse_process_str, parse_spec
from abclang.terms import subterms
from abclang.validate import load_spec

FIXTURES = ["choice.abc", "fake3.abc", "ping.abc", "travel-booking.abc"]

# Inputs whose positions depend on how lines are counted.
POSITIONS = {
    # a string continued over a backslash-newline moves what follows it
    # to the next line
    "string-newline": (
        'component C { attrs { s = "a\\\nb"; t = 1; }\n'
        '  interface { s } run ("m", s)@(tt).(x > 1)(y).0 }\n'
        'property p = reachable C.t = 1\n'
    ),
    "comment-at-eof": "component C { attrs { } interface { } run 0 }\ncomponent D {  # open",
    "comment-at-eof-newline": "component C { attrs { } interface { } run 0 }\ncomponent D {  # open\n",
    "parse-line-4": (
        "proc P = (tt)(x).\n"
        "  (x)@(tt).P\n"
        "\n"
        "component C { attrs { a = 1; } interface { a } run P + (a = 1 || ) }\n"
    ),
    "lex-line-3": 'proc P = 0\n  # note\n  component C { attrs { s = "ab\\\ncd"; } interface { } run P } ?\n',
}


def _source(name):
    if name in FIXTURES:
        return open(fixture_path(name), encoding="utf-8").read()
    return BROKEN.get(name) or POSITIONS[name]


def _spans(name):
    source = _source(name)
    spec, _ = parse_spec(source, name)
    rows = []
    if spec is not None:
        roots = [body for _, body in spec.proc_defs] + [prop for _, prop in spec.properties]
        for comp in spec.components:
            rows.append(("ComponentDecl", comp.span))
            roots.append(comp.proc)
        rows += [(type(q).__name__, q.span) for root in roots for q in subterms(root)
                 if getattr(q, "span", None) is not None]
    _, diags = load_spec(source, name)
    rows += [("Diagnostic", d.span) for d in diags if d.span is not None]
    return "\n".join(f"{cls} {s.line} {s.col} {s.end_line} {s.end_col}" for cls, s in rows)


SPANS = {
    'choice.abc': 'bf53a886ce4c7d49a8278e41b04effe8b8ca24fe3f459248dc537853b314c306',
    'fake3.abc': 'ea92472b6adb4c4f054b480c3b770a42e215018d257e0424e6afc3cabb388b06',
    'ping.abc': '92c50ab958bd3956f65ce2b9f02ec7aedb2a908e88600482c488a6de03524f72',
    'travel-booking.abc': 'ff98df3ec6181c185fdf5ac2d3171de51eca3c6d0fa148db26dcd32d52de2b97',
    'lex': '8f6b36fd11d46c0059ac28d198366bb676d6902662d40b00c4e740d58fba7336',
    'parse': 'fc84d9c10487d2e5ee367dab0e2357addecca9746581d2a160d1f533e12f4ff8',
    'properties': '5a84124f5a65442905c6aefbd6274bc5aa6304045880190070ee1ddc69d192c4',
    'shadow-unbound': 'b1e14306269998457ef29befd7b31a888a6514a9af0174cd01356d10885fc031',
    'undefined': '9d9354499a6077a8752473aef84d66f96f151ba753c7e4baa75a8926d70f35a3',
    'unguarded': '906d3c46e9164b889e6cd0a8e75fd9fe4b79630cc90bdb51ab5c06bf80f25e3d',
    'comment-at-eof': '9bdd922a7033ffde96de2d30dc5684ccbb9d581a7f8be2bd225b37a4a5eeb270',
    'comment-at-eof-newline': '63202ce8b8efe05901d1996534c5fe00370b63b092646f90fa2daf692a3e1568',
    'lex-line-3': 'c10f7339c03ed2d3d708908a567b49caea02bd3b19c1e1cae36ee3ac0d8a4e07',
    'parse-line-4': '35946ca852fa2a66f83968a02ec7652d7282b96ec40b8d569929c93d1f28759d',
    'string-newline': 'db023613b379cb4ce8d5a2d0f048785c2cfd9a25fbe1a9b02ed2dca127cd965b',
}


@pytest.mark.parametrize("name", FIXTURES + sorted(BROKEN) + sorted(POSITIONS))
def test_spans_are_unchanged(name):
    assert hashlib.sha256(_spans(name).encode("utf-8")).hexdigest() == SPANS[name]



def _where(span):
    return span.line, span.col, span.end_line, span.end_col


def test_a_string_span_ends_after_its_closing_quote():
    assert _where(parse_process_str('("acms")@(tt).0').payload[0].span) == (1, 2, 1, 8)


def test_a_string_continued_over_a_backslash_newline_ends_on_its_last_line():
    _, (diag,) = parse_spec('proc P = "a\\\nbcdefghij"')
    assert diag.code == "E-PARSE" and _where(diag.span) == (1, 10, 2, 11)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(_spans(sys.argv[1]))
    else:
        for name in FIXTURES + sorted(BROKEN) + sorted(POSITIONS):
            digest = hashlib.sha256(_spans(name).encode("utf-8")).hexdigest()
            print(f"{name} {digest}" + ("" if digest == SPANS[name] else "  # moved"))
