"""DSL parsing, pretty-printing round-trips, diagnostics, validation."""
import pytest

from conftest import fixture_path

from abclang.parser import (
    KEYWORDS, MAX_DEPTH, ParseError, _lex, _line_col, _newlines, parse_spec, parse_process_str, parse_pred_str,
)
from abclang.pretty import pp_proc, pp_spec
from abclang.terms import AtomApply, Attr, Aware, Call, Inact, Input, Output, Par, Choice, Span, ThisAttr, VStr
from abclang.validate import call_needs, load_spec, validate


def tokens(src):
    """The tokens of `src` as (class, text, line, col); a keyword is of
    class "kw" and a punctuation mark of class "punct"."""
    newlines = _newlines(src)
    return [
        (key if key in ("ident", "int", "float", "string", "eof") else "kw" if key in KEYWORDS else "punct",
         text, *_line_col(newlines, offset))
        for key, text, offset in _lex(src, "t.abc")
    ]


def lex_error(src):
    with pytest.raises(ParseError) as ei:
        _lex(src, "t.abc")
    d = ei.value.diagnostic
    return d.code, d.message, d.span.line, d.span.col


class TestLexer:
    """Expected tokens are written from the grammar in the README."""

    def test_numbers(self):
        assert tokens("1.5e-3 1e5 2.x 1e") == [
            ("float", "1.5e-3", 1, 1), ("float", "1e5", 1, 8),
            ("int", "2", 1, 12), ("punct", ".", 1, 13), ("ident", "x", 1, 14),
            ("int", "1", 1, 16), ("ident", "e", 1, 17),
            ("eof", "", 1, 18),
        ]

    def test_punctuation_takes_the_longest_match(self):
        assert tokens(":= : -> - != ! <= < || | &&") == [
            ("punct", p, 1, col) for p, col in [
                (":=", 1), (":", 4), ("->", 6), ("-", 9), ("!=", 11), ("!", 14),
                ("<=", 16), ("<", 19), ("||", 21), ("|", 24), ("&&", 26),
            ]
        ] + [("eof", "", 1, 28)]
        assert tokens(":=:|||") == [
            ("punct", ":=", 1, 1), ("punct", ":", 1, 3), ("punct", "||", 1, 4),
            ("punct", "|", 1, 6), ("eof", "", 1, 7),
        ]

    def test_keyword_and_identifier(self):
        assert tokens("proc procs in index") == [
            ("kw", "proc", 1, 1), ("ident", "procs", 1, 6), ("kw", "in", 1, 12),
            ("ident", "index", 1, 15), ("eof", "", 1, 20),
        ]

    def test_comment_at_eof_without_newline(self):
        # the eof token sits where the comment starts
        assert tokens("x # note") == [("ident", "x", 1, 1), ("eof", "", 1, 3)]
        assert tokens("x\n# note") == [("ident", "x", 1, 1), ("eof", "", 2, 1)]

    def test_string_escapes(self):
        assert tokens(r'"\n\t\"\\" x') == [
            ("string", '\n\t"\\', 1, 1), ("ident", "x", 1, 12), ("eof", "", 1, 13),
        ]

    def test_unterminated_string_is_reported_at_its_start(self):
        assert lex_error('x = "abc') == ("E-LEX", "unterminated string literal", 1, 5)
        assert lex_error('y\n  "ab\ncd"') == ("E-LEX", "unterminated string literal", 2, 3)

    def test_non_ascii_digits_are_not_numbers(self):
        assert lex_error("x = 2\u00b2") == ("E-LEX", "unexpected character '\u00b2'", 1, 6)
        assert lex_error("x = \u0663") == ("E-LEX", "unexpected character '\u0663'", 1, 5)
        assert tokens("\u00e9t\u00e9 x\u00b2") == [
            ("ident", "\u00e9t\u00e9", 1, 1), ("ident", "x\u00b2", 1, 5), ("eof", "", 1, 7),
        ]

    def test_string_continued_over_a_newline_counts_the_line(self):
        assert tokens('"a\\\nb" c') == [
            ("string", "a\nb", 1, 1), ("ident", "c", 2, 4), ("eof", "", 2, 5),
        ]
        src = (
            'proc P = ("a\\\nb")@(tt).0\n'
            "component C { attrs { a = 1; } interface { a } run Q }\n"
        )
        spec, diags = load_spec(src, "s.abc")
        assert [d.render(color=False) for d in diags] == [
            "s.abc:3:52: error[E-UNDEF-PROC]: undefined process Q"
        ]


class TestParseProcess:
    def test_inact(self):
        assert parse_process_str("0") == Inact()

    def test_customer_f_shape(self):
        # awareness, fake output, update block, real output, update, call
        p = parse_process_str(
            '<send = true> ()@(ff).'
            '[day := 5]'
            '(("acms", this.id)@(type = "Broker").[send := false] F)'
        )
        assert isinstance(p, Aware)
        out1 = p.body
        assert isinstance(out1, Output) and out1.payload == ()
        assert len(out1.updates) == 1
        out2 = out1.then
        assert isinstance(out2, Output) and len(out2.payload) == 2
        assert out2.updates[0].name == "send"
        assert out2.then == Call("F")

    def test_precedence_dot_plus_par(self):
        # "." binds tightest, then "+", then "|"
        p = parse_process_str('("a")@(tt).0 + ("b")@(tt).0 | K')
        assert isinstance(p, Par)
        assert isinstance(p.operands[0], Choice)
        assert p.operands[1] == Call("K")

    def test_input_binders(self):
        p = parse_process_str('(x = "acms")(x, c, l, d, p).0')
        assert isinstance(p, Input)
        assert p.binders == ("x", "c", "l", "d", "p")

    def test_parenthesized_grouping(self):
        p = parse_process_str('(K | 0)')
        assert p == Par((Call("K"), Inact()))
        # a parenthesised chain stays one operand
        assert parse_process_str("A | (B | C)") == Par((Call("A"), Par((Call("B"), Call("C")))))
        assert parse_process_str("(A | B) | C") == Par((Par((Call("A"), Call("B"))), Call("C")))
        assert parse_process_str("A | B | C") == Par((Call("A"), Call("B"), Call("C")))

    def test_multiple_update_blocks(self):
        p = parse_process_str('(tt)(x).[a := 1][b := 2] 0')
        assert [u.name for u in p.updates] == ["a", "b"]

    def test_member_predicate(self):
        p = parse_pred_str('x = "acms" && b in this.blist')
        assert p.rhs == AtomApply("in", (Attr("b"), ThisAttr("blist")))

    def test_parse_error_has_span(self):
        with pytest.raises(ParseError) as ei:
            parse_process_str('("a"@(tt).0')
        assert ei.value.diagnostic.span is not None

    def test_a_chain_is_one_node_with_one_span(self):
        p = parse_process_str("A | B | C")
        assert p.span == Span("<proc>", 1, 1, 1, 10)
        assert [q.span for q in p.operands] == [
            Span("<proc>", 1, 1, 1, 2), Span("<proc>", 1, 5, 1, 6), Span("<proc>", 1, 9, 1, 10)
        ]
        p = parse_process_str('<tt> ("a")@(tt).K + 0')
        assert p.span == Span("<proc>", 1, 1, 1, 22)
        assert p.operands[0].span == Span("<proc>", 1, 1, 1, 18)
        assert p.operands[0].body.span == Span("<proc>", 1, 6, 1, 18)
        assert p.operands[0].body.then.span == Span("<proc>", 1, 17, 1, 18)

    def test_deep_chains_parse(self):
        n = 3000
        spec, diags = parse_spec(
            "component C { attrs { } interface { } run " + '("a")@(tt).' * n + "0 }"
        )
        assert not diags
        p, depth = spec.components[0].proc, 0
        while isinstance(p, Output):
            p, depth = p.then, depth + 1
        assert depth == n and isinstance(p, Inact)
        p = parse_process_str(" | ".join(["K"] * n))
        assert p == Par((Call("K"),) * n)

    def test_determinism(self):
        src = '<a = 1> ("m", this.b)@(c != 2).[d := 3] K'
        assert parse_process_str(src) == parse_process_str(src)


class TestParseSpec:
    def test_empty_spec(self):
        spec, diags = parse_spec("")
        assert spec is not None and not diags
        assert spec.components == ()

    def test_comments_ignored(self):
        spec, _ = parse_spec("# nothing here\n  # nor here\n")
        assert spec is not None

    def test_bad_file_diagnostics(self):
        spec, diags = parse_spec("component {", "bad.abc")
        assert spec is None
        assert diags and diags[0].severity == "error"
        text = diags[0].render(color=False)
        assert text.startswith("bad.abc:1:")

    @pytest.mark.parametrize("src, message", [
        # an empty string is a token, not the end of input
        ('component "" { }', "1:11: error[E-PARSE]: expected 'ident', found '\"\"'"),
        # a string shows as written, quotes and escapes included
        ('proc "a\\n" = 0', "1:6: error[E-PARSE]: expected 'ident', found '\"a\\\\n\"'"),
        ("component C { attrs { x = 1", "1:28: error[E-PARSE]: expected ';', found end of input"),
        ("proc P = ", "1:10: error[E-PARSE]: expected a process, found end of input"),
        ('"x"', "1:1: error[E-PARSE]: expected a declaration, found '\"x\"'"),
    ])
    def test_found_token_is_shown_as_written(self, src, message):
        spec, diags = parse_spec(src, "f.abc")
        assert spec is None
        assert [d.render(color=False) for d in diags] == ["f.abc:" + message]

    @pytest.mark.parametrize("value, message", [
        ("1" + "0" * 4300, "integer literal longer than 4300 digits"),
        ("1e999", "float literal out of range"),
        ("-1e999", "float literal out of range"),
    ], ids=["4301-digit int", "1e999", "-1e999"])
    def test_out_of_range_number_literal(self, value, message):
        spec, diags = parse_spec(f"component C {{ attrs {{ x = {value}; }} interface {{ }} run 0 }}", "f.abc")
        assert spec is None
        col = 28 if value.startswith("-") else 27
        assert [d.render(color=False) for d in diags] == [f"f.abc:1:{col}: error[E-PARSE]: {message}"]

    def test_widest_number_literals_print_and_load_back(self):
        longest = "9" * 4300
        src = f"component C {{ attrs {{ x = {longest}; y = 00{longest}; z = 1.7e308; w = -5e-324; }} interface {{ }} run 0 }}"
        spec, diags = parse_spec(src)
        assert spec is not None and not diags
        assert parse_spec(pp_spec(spec)) == (spec, [])

    def test_extern_forms(self):
        src = 'extern d : { 1, 2 }\nextern t : map { ("a") -> 1, ("b") -> 2 }\n'
        spec, diags = parse_spec(src)
        assert spec is not None and not diags
        kinds = {name: type(e).__name__ for name, e in spec.externs}
        assert kinds == {"d": "EnumDomain", "t": "TableFn"}


# Where a nest can stand: (text before, text after).
PLACES = {
    "value": ("component C { attrs { v = ", "; } interface { } run 0 }"),
    "expr": ("component C { attrs { } interface { } run (", ")@(tt).0 }"),
    "pred": ("component C { attrs { } interface { } run ()@(", ").0 }"),
    "state": ("property p = invariant ", ""),
    "proc": ("component C { attrs { } interface { } run ", " }"),
}

# Every way the grammar nests a construct in one of its kind: (place,
# the construct n levels deep, the token that opens a level).
NESTS = {
    "negative value": ("value", lambda n: "-" * n + "1", "-"),
    "set": ("value", lambda n: "{" * n + "}" * n, "{"),
    "tuple": ("value", lambda n: "(1, " * n + "1" + ")" * n, "("),
    "negation": ("expr", lambda n: "-" * n + "x", "-"),
    "parenthesised expression": ("expr", lambda n: "(" * n + "x" + ")" * n, "("),
    "index": ("expr", lambda n: "x[" * n + "1" + "]" * n, "["),
    "call": ("expr", lambda n: "f(" * n + ")" * n, "("),
    "not": ("pred", lambda n: "!" * n + "tt", "!"),
    "parenthesised predicate": ("pred", lambda n: "(" * n + "tt" + ")" * n, "("),
    "state not": ("state", lambda n: "!" * n + "tt", "!"),
    "parenthesised state expression": ("state", lambda n: "(" * n + "tt" + ")" * n, "("),
    "parenthesised process": ("proc", lambda n: "(" * n + "0" + ")" * n, "("),
}


class TestNesting:
    @pytest.mark.parametrize("name", sorted(NESTS))
    def test_nesting_beyond_the_bound_is_e_depth_at_its_opener(self, name):
        place, nest, opener = NESTS[name]
        before, after = PLACES[place]
        spec, diags = parse_spec(before + nest(MAX_DEPTH) + after)
        assert spec is not None, [d.render(color=False) for d in diags]
        spec, diags = parse_spec(before + nest(MAX_DEPTH + 1) + after)
        assert spec is None and [d.code for d in diags] == ["E-DEPTH"]
        # the opener of the level one too deep
        col = len(before) + 1 + [i for i, c in enumerate(nest(MAX_DEPTH + 1)) if c == opener][MAX_DEPTH]
        assert (diags[0].span.line, diags[0].span.col) == (1, col)
        assert diags[0].message == f"nested more than {MAX_DEPTH} levels deep"


class TestRoundTrip:
    def roundtrip(self, path):
        src = open(path).read()
        spec1, d1 = parse_spec(src, path)
        assert spec1 is not None, [x.render(color=False) for x in d1]
        printed = pp_spec(spec1)
        spec2, d2 = parse_spec(printed, path + "<pp>")
        assert spec2 is not None, [x.render(color=False) for x in d2]
        assert spec1 == spec2

    def test_corpus(self):
        self.roundtrip(fixture_path("travel-booking.abc"))

    def test_micro_fixtures(self):
        for name in ["ping.abc", "fake3.abc", "choice.abc"]:
            self.roundtrip(fixture_path(name))

    def test_deep_chain_prints_and_reparses(self):
        # 3,000 prefixes; compare texts, not ASTs: `==` on a deep term
        # recurses
        body = '<tt> (tt)(v).[x := v] ("a", v)@(tt).' * 1000 + "(K | 0)"
        spec, _ = parse_spec("component C { attrs { x = 0; } interface { } run " + body + " }")
        printed = pp_spec(spec)
        assert "  run " + body + "\n" in printed
        assert pp_spec(parse_spec(printed)[0]) == printed

    def test_property_formulas_print_exactly_and_reparse(self):
        # the printed formula is the source text wherever the source
        # already has the printer's layout
        component = "component A { attrs { } interface { } run 0 }\n"
        for formula, printed in [
            ("invariant !(A.x = 1 || *.y[2] >= 0) && (tt || ff)", None),
            ('reachable ff || !(tt) && *.s["k", 2] != "v"', None),
            ("invariant (A.x = 1 && A.y < -2) && A.z <= 0.5", "invariant A.x = 1 && A.y < -2 && A.z <= 0.5"),
            ("reachable ((A.x = 1)) || !(!(ff))", "reachable A.x = 1 || !(!(ff))"),
            ('invariant ((!(tt) || ff) || A.u = undef) || *.t = (1, "a")',
             'invariant !(tt) || ff || A.u = undef || *.t = (1, "a")'),
            # a right operand of the same connective keeps its parentheses
            ("invariant A.x = 1 && (A.y > 2 && A.z = true)", None),
            ("reachable A.x = 1 || (A.y = 2 || tt) || !(ff)", None),
        ]:
            spec, diags = parse_spec(component + f"property p = {formula}\n")
            assert spec is not None, [d.render(color=False) for d in diags]
            text = pp_spec(spec)
            assert text.endswith(f"property p = {printed or formula}\n"), text
            again, _ = parse_spec(text)
            assert again == spec and pp_spec(again) == text

    def test_long_left_chain_prints_within_the_depth_bound(self):
        # 95 comparisons joined by `&&` nest 94 levels to the left; printed
        # with a parenthesis per level, they were too deep to load again
        proc = '("a")@(' + " && ".join(f"x = {i}" for i in range(95)) + ").0"
        for _ in range(10):
            proc = f"({proc} | 0)"
        spec, diags = load_spec("component C { attrs { x = 0; } interface { x } run " + proc + " }\n")
        assert spec is not None and not diags
        again, diags = load_spec(pp_spec(spec))
        assert not diags and again == spec

    def test_strings_print_with_the_lexer_escapes_only(self):
        # a non-ASCII letter and a carriage return are written as
        # themselves, a tab, a quote and a backslash by the lexer's escapes,
        # in an attribute, a payload, a predicate and a property tag
        lit = '"caf\u00e9\\t\r\\"\\\\"'
        src = (f"component C {{ attrs {{ s = {lit}; }} interface {{ s }} run ({lit}, s)@(s = {lit}).0 }}\n"
               f"property p = reachable sent(C, {lit})\n")
        spec, diags = parse_spec(src)
        assert spec is not None and not diags
        assert spec.components[0].attrs == ((("s", ()), VStr('caf\u00e9\t\r"\\')),)
        text = pp_spec(spec)
        assert text.count(lit) == 4, text
        again, _ = parse_spec(text)
        assert again == spec and pp_spec(again) == text

    def test_empty_spec_prints_empty(self):
        spec, _ = parse_spec("")
        assert pp_spec(spec) == ""

    def test_proc_nesting_shapes_survive(self):
        for src in [
            "(K1 + K2) | K3",
            "K1 + (K2 | K3)",
            "<tt> (K1 + K2)",
            '("a")@(tt).(K1 | K2)',
            "((K1 | K2) | K3) + K4",
        ]:
            p = parse_process_str(src)
            assert parse_process_str(pp_proc(p)) == p
        # a parenthesised chain is one operand, and prints as one
        for src in ["K1 | (K2 | K3)", "K1 + (K2 + K3) + K4", "(K1 | K2) | K3"]:
            assert pp_proc(parse_process_str(src)) == src


class TestValidation:
    def check(self, src):
        spec, diags = parse_spec(src)
        assert spec is not None, [d.render(color=False) for d in diags]
        return validate(spec)

    def codes(self, src):
        return [d.code for d in self.check(src)]

    def test_duplicate_proc(self):
        assert "E-DUP-PROC" in self.codes("proc A = 0\nproc A = 0\n")

    def test_undefined_proc(self):
        src = "component C { attrs { } interface { } run MISSING }"
        assert "E-UNDEF-PROC" in self.codes(src)

    def test_undefined_extern(self):
        src = 'component C { attrs { } interface { } run ("m", f(1))@(tt).0 }'
        assert "E-UNDEF-EXTERN" in self.codes(src)

    def test_bad_interface(self):
        src = "component C { attrs { a = 1; } interface { a, ghost } run 0 }"
        assert "E-BAD-INTERFACE" in self.codes(src)

    def test_duplicate_binder(self):
        src = "component C { attrs { } interface { } run (tt)(x, x).0 }"
        assert "E-DUP-BINDER" in self.codes(src)

    def test_unbound_variable(self):
        # c occurs in a payload with no enclosing input binding it
        src = 'component C { attrs { } interface { } run ("m", c)@(tt).0 }'
        assert "E-UNBOUND" in self.codes(src)

    def test_binder_shadowing_attribute(self):
        src = "component C { attrs { a = 1; } interface { } run (tt)(a).0 }"
        assert "E-SHADOW" in self.codes(src)

    def test_unknown_property_component(self):
        src = 'property p = reachable sent(Ghost, "m")\n'
        assert "E-UNDEF-COMP" in self.codes(src)

    def test_unknown_components_are_reported_in_formula_order(self):
        src = (
            "component A { attrs { } interface { } run 0 }\n"
            "property p = invariant !(X.a = 1 || *.a[2] >= 0 && A.a = 1) && (tt || !(Y.b = 2 || Z.c = 3))\n"
            'property q = sent(A, "m") leadsto (received(V, "m") || sent(*, "n") || received(W, "m"))\n'
            'property r = sent(U, "m") leadsto sent(T, "m")\n'
        )
        assert [d.message for d in self.check(src)] == [
            f"property {p} references unknown component {c}"
            for p, c in [("p", "X"), ("p", "Y"), ("p", "Z"), ("q", "V"), ("q", "W"), ("r", "U"), ("r", "T")]
        ]
        assert {d.code for d in self.check(src)} == {"E-UNDEF-COMP"}

    def test_trees_deeper_than_the_bound(self):
        # the first node in preorder one level too deep: the innermost +
        # of a sum, and the innermost && of a formula, both left-nested
        head = "component C { attrs { x = 1; } interface { } run ("
        src = head + " + ".join(["x"] * (MAX_DEPTH + 1)) + ")@(tt).0 }\n"
        src += "property p = invariant " + " && ".join(["C.x = 1"] * (MAX_DEPTH + 1)) + "\n"
        assert [(d.code, d.span.line, d.span.col) for d in self.check(src)] == [
            ("E-DEPTH", 1, len(head) + 1), ("E-DEPTH", 2, len("property p = invariant ") + 1),
        ]
        assert not self.check(src.replace(" + x)", ")").replace(" && C.x = 1\n", "\n"))

    def test_bound_variable_is_not_unbound(self):
        src = 'component C { attrs { } interface { } run (tt)(c).(("m", c)@(tt).0) }'
        assert self.check(src) == []

    def test_unguarded_direct_recursion(self):
        diags = self.check("proc P = P + P\ncomponent C { attrs { } interface { } run P }")
        assert [d.code for d in diags] == ["E-UNGUARDED"]
        assert "P -> P" in diags[0].message

    def test_unguarded_mutual_recursion(self):
        src = (
            'proc P = Q\nproc Q = P | ("m")@(tt).0\n'
            "component C { attrs { } interface { } run P }"
        )
        diags = self.check(src)
        assert [d.code for d in diags] == ["E-UNGUARDED"]
        assert "P -> Q -> P" in diags[0].message

    def test_unguarded_cycles_sharing_a_definition_behind_a_prefix(self):
        # A and B lie on no cycle; C -> D -> C and E -> C -> E share C,
        # and each is reported once, from its first definition
        src = (
            "proc A = B | C\nproc B = C\nproc C = D + E\nproc D = C\nproc E = <tt> C\n"
            "component K { attrs { } interface { } run A }"
        )
        diags = self.check(src)
        assert [(d.code, d.span.line) for d in diags] == [("E-UNGUARDED", 3), ("E-UNGUARDED", 5)]
        assert [d.message for d in diags] == [
            "unguarded recursion C -> D -> C: the call cycle passes no input or output prefix",
            "unguarded recursion E -> C -> E: the call cycle passes no input or output prefix",
        ]

    def test_unguarded_recursion_under_awareness(self):
        src = "proc P = <a = 1> P\ncomponent C { attrs { a = 1; } interface { } run P }"
        assert self.codes(src) == ["E-UNGUARDED"]

    def test_recursion_under_a_prefix_is_guarded(self):
        src = (
            'proc P = <a = 1> ("m")@(tt).P + (tt)(x).Q\nproc Q = P\n'
            "component C { attrs { a = 1; } interface { } run P }"
        )
        assert self.check(src) == []

    def test_call_needs_of_the_fixture(self, corpus_spec):
        needs = call_needs(corpus_spec.defs_map())
        # BrkA reads its session's c and p only in its input guard
        assert {"c", "l", "p"} <= needs["BrkA"]
        # none of the x, c, l, d, p that BrkMain binds: its closure stays
        # empty.  The names left are attributes in BrkH's target predicate,
        # which cannot be told from variables syntactically.
        assert needs["BrkMain"] == {"id", "locality", "type"}
        assert needs["BrkCC"] == frozenset()

    def test_clean_fixtures_have_no_diagnostics(self):
        for name in ["travel-booking.abc", "ping.abc", "fake3.abc", "choice.abc"]:
            path = fixture_path(name)
            spec, diags = load_spec(open(path).read(), path)
            assert spec is not None and diags == [], name
