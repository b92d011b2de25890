"""Byte-identity of every source span the front end produces.

The golden diagnostics show only where a span starts.  Each digest
below is the SHA-256 of `(class name, line, col, end_line, end_col)` for
every parsed term that carries a span, in preorder, followed by the
span of every diagnostic that `load_spec` reports.  So a change to how
tokens are positioned, or to where a term's span ends, moves a digest.
"""
import hashlib

import pytest

from conftest import fixture_path
from test_golden import BROKEN

from abclang.parser import parse_spec
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
    'choice.abc': '312b10005bb397fe8e2a74179b963683ad8ac3b5cebe5944910c00fb5208c401',
    'fake3.abc': 'c504b03a904c5673ddda04a24a120b720b4c81f6766cdcd6a913eb7014ebf4ed',
    'ping.abc': 'dc5795ba226d8f2afec759d126aae92047226fa00677c2e63f23140eb007f447',
    'travel-booking.abc': '92282c4718573492660682a2868e8b818f429eeb1d2bdedd2c43c86f4dac7e64',
    'lex': '8f6b36fd11d46c0059ac28d198366bb676d6902662d40b00c4e740d58fba7336',
    'parse': 'fc84d9c10487d2e5ee367dab0e2357addecca9746581d2a160d1f533e12f4ff8',
    'properties': 'e22d965bbfec723fbb9b8b5c32dd2f9453d1869d568637ce5cf55f002119c354',
    'shadow-unbound': 'b1e14306269998457ef29befd7b31a888a6514a9af0174cd01356d10885fc031',
    'undefined': '021c738a311b6fe0de8b234b5658da831029763fecac0da5efb7739f876c3d0c',
    'unguarded': '624c995f518606dee3623cf218d2d611ba5c4510845061649226622955ebc1ee',
    'comment-at-eof': '9bdd922a7033ffde96de2d30dc5684ccbb9d581a7f8be2bd225b37a4a5eeb270',
    'comment-at-eof-newline': '63202ce8b8efe05901d1996534c5fe00370b63b092646f90fa2daf692a3e1568',
    'lex-line-3': 'c10f7339c03ed2d3d708908a567b49caea02bd3b19c1e1cae36ee3ac0d8a4e07',
    'parse-line-4': '35946ca852fa2a66f83968a02ec7652d7282b96ec40b8d569929c93d1f28759d',
    'string-newline': '84d0e54a2c163eb0c6c1a02b2d077a41d30555ddc2297fb4c94f727a28a5b9c9',
}


@pytest.mark.parametrize("name", FIXTURES + sorted(BROKEN) + sorted(POSITIONS))
def test_spans_are_unchanged(name):
    assert hashlib.sha256(_spans(name).encode("utf-8")).hexdigest() == SPANS[name]
