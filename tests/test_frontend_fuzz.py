"""Robustness of the front end on arbitrary text.

`load_spec` must end every input in a spec without errors or in `None`
with diagnostics, never in an exception, and every diagnostic span and
every span of a parsed term must point into the text.  The inputs are short runs of the language's own
tokens mixed with comments, line breaks and stray characters, so most of
them get some way into the grammar before they go wrong.
"""
from hypothesis import HealthCheck, given, settings, strategies as st

from abclang.parser import KEYWORDS, PUNCT, parse_spec
from abclang.terms import subterms
from abclang.validate import load_spec

FRAGMENTS = sorted(KEYWORDS) + PUNCT + [
    "x", "a", "P", "C", "_b", "été",
    "0", "1", "42", "2.5", "1e3",
    '""', '"a"', '"\\n"', '"a\\\nb"', '"a\\\nbcdefghij"', '"',
    "#", " ", "  ", "\n", "\n", "$", "?", "²", "\\", "'",
]
soups = st.lists(st.sampled_from(FRAGMENTS), max_size=150).map("".join)

# Whole declarations with names drawn from a few, so that texts also
# parse and then break the rules of validation.
NAME = st.sampled_from(["x", "y", "P", "Q", "C", "f"])
PREFIX = st.sampled_from([
    '("m", x)@(tt).', '("a\\\nbcdefghij")@(tt).', "(x = 1)(y).", "<y > 0> ", "(tt)(x, x).", '("m")@(z = 1).[q := f(1)]', "()@(ff).[x := y]",
])
PROCESS = st.tuples(st.lists(PREFIX, max_size=3).map("".join), st.sampled_from(["0", "P", "Q", "(P | 0)", "(0 + Q)"]))
DECLARATION = st.one_of(
    st.tuples(NAME, PROCESS).map(lambda t: f"proc {t[0]} = {''.join(t[1])}\n"),
    st.tuples(NAME, NAME, PROCESS).map(
        lambda t: f"component {t[0]} {{ attrs {{ {t[1]} = 1; }} interface {{ {t[1]} }} run {''.join(t[2])} }}\n"
    ),
    st.sampled_from([
        "property p = invariant C.x = 1 && *.y >= 0\n", 'property p = sent(C, "m") leadsto received(Q, "m")\n',
        "extern f : {1, 2}\n", "extern f : {}\n", "proc P = P + (P | 0)\n",
    ]),
)
texts = st.one_of(soups, st.lists(DECLARATION, max_size=4).map("".join)).map(lambda text: text[:300])


def _inside(lines, line, col, past_end=1):
    """Whether `col` lies on line `line` of the text, or at most
    `past_end` columns after its last character."""
    return 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + past_end


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(texts)
def test_load_spec_ends_in_a_spec_or_diagnostics(text):
    spec, diags = load_spec(text, "f.abc")
    assert (spec is None) == any(d.severity == "error" for d in diags)
    lines = text.split("\n")
    for d in diags:
        s = d.span
        if s is not None:
            assert _inside(lines, s.line, s.col), d.render(color=False)
            # a span is at least one column wide, so one that starts at the
            # end of the text ends a column past it
            assert _inside(lines, s.end_line, s.end_col, 2), d.render(color=False)
            assert (s.line, s.col) <= (s.end_line, s.end_col), d.render(color=False)
    parsed, _ = parse_spec(text, "f.abc")
    if parsed is not None:
        roots = [c.proc for c in parsed.components] + [b for _, b in parsed.proc_defs] + [p for _, p in parsed.properties]
        for q in (q for root in roots for q in subterms(root)):
            s = getattr(q, "span", None)
            if s is not None:
                # a term ends after its last token, on that token's line
                assert _inside(lines, s.line, s.col) and _inside(lines, s.end_line, s.end_col), q
                assert (s.line, s.col) < (s.end_line, s.end_col), q
