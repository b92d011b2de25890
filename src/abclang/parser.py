"""Recursive-descent parser for the `.abc` system specification DSL.

Syntax overview (the tokens are defined under "Lexical syntax" in the
README):

    extern get_day : {5}
    extern diff : map {("rome", "rome") -> 0}
    proc F = <send> ()@(ff).[day := get_day()] F
    component Cust1 {
      attrs { id = "c1"; send = true; }
      interface { id }
      run F | A
    }
    property booked = sent(Cust1, "book") leadsto received(Cust1, "confirm")

`#` starts a line comment.  Identifier references in expressions parse
as attribute references; whether a name is actually a bound variable is
resolved by substitution at run time, and validation rejects binders
that shadow declared attributes so the two can never collide.
"""
from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .terms import (
    And,
    Apply,
    Attr,
    AtomApply,
    Aware,
    Call,
    Choice,
    Compare,
    ComponentDecl,
    EnumDomain,
    FalsePred,
    Inact,
    Input,
    Invariant,
    LeadsTo,
    Literal,
    Member,
    Not,
    Or,
    Output,
    Par,
    Predicate,
    ProcessTerm,
    Property,
    Reachable,
    Received,
    Record,
    SCompare,
    Sent,
    Span,
    StateExpr,
    SystemSpec,
    TableFn,
    ThisAttr,
    TruePred,
    UNDEF,
    Update,
    VBool,
    VFloat,
    VInt,
    VSet,
    VStr,
    VTuple,
    Value,
    ser_value,
)

KEYWORDS = frozenset(
    [
        "extern", "proc", "component", "attrs", "interface", "run", "map",
        "property", "reachable", "invariant", "leadsto", "sent", "received",
        "this", "tt", "ff", "true", "false", "undef", "in",
    ]
)

# The deepest nesting a spec may have.  The parser counts the levels open
# at once: parenthesised processes, expressions and predicates, indexes,
# call arguments, tuple and set values, prefix `-` and `!`.  `validate`
# counts the nodes on each path down an expression, predicate or formula
# tree.  Either ends deeper nesting in E-DEPTH, so no recursive walk of a
# loaded spec runs out of stack.
MAX_DEPTH = 100

PUNCT = [
    ":=", "->", "!=", "<=", ">=", "&&", "||",
    "{", "}", "(", ")", "[", "]", ",", ";", ".", "=", "<", ">",
    "!", "+", "-", "*", "/", "@", ":", "|",
]


class Diagnostic(Record):
    severity: str  # "error" | "warning"
    span: Optional[Span]
    message: str
    code: str

    def render(self, color: Optional[bool] = None) -> str:
        loc = str(self.span) if self.span else "<spec>"
        sev = self.severity
        if color is None:
            color = sys.stderr.isatty() and os.environ.get("ABC_COLOR", "1") != "0"
        if color:
            tint = "\x1b[31m" if sev == "error" else "\x1b[33m"
            sev = f"{tint}{sev}\x1b[0m"
        return f"{loc}: {sev}[{self.code}]: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render(color=False))
        self.diagnostic = diagnostic


@dataclass
class Token:
    kind: str  # "ident" | "kw" | "int" | "float" | "string" | "punct" | "eof"
    text: str
    line: int
    col: int


_ESCAPES = {"n": "\n", "t": "\t"}

# One alternative per token class, tried in order: floats before ints,
# punctuation longest first.  Numbers are ASCII; a word is a run of
# Unicode word characters, and `_lex` rejects one that starts with a
# numeral other than a decimal digit.
_TOKEN = re.compile(
    r"""(?P<skip>[ \t\r]+|\#[^\n]*)|(?P<newline>\n)
    |(?P<float>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))|(?P<int>[0-9]+)
    |(?P<word>[^\W\d]\w*)|(?P<string>"(?:[^"\\\n]|\\.)*")
    |(?P<punct>""" + "|".join(re.escape(p) for p in sorted(PUNCT, key=len, reverse=True)) + r""")
    |(?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)


def _lex(src: str, filename: str) -> List[Token]:
    tokens: List[Token] = []
    line, line_start, end = 1, 0, 0
    for m in _TOKEN.finditer(src):
        kind, text, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "word" and not (text[0].isalpha() or text[0] == "_"):
            kind, text = "bad", text[0]  # a numeral such as '²' starts no word
        # the eof token sits where a trailing comment starts
        end = m.start() if text[0] == "#" else m.end()
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "word":
            tokens.append(Token("kw" if text in KEYWORDS else "ident", text, line, col))
        elif kind == "string":
            body = re.sub(r"\\(.)", lambda e: _ESCAPES.get(e[1], e[1]), text[1:-1], flags=re.DOTALL)
            tokens.append(Token("string", body, line, col))
            if "\n" in text:  # a backslash-newline continues the string
                line, line_start = line + text.count("\n"), m.start() + text.rindex("\n") + 1
        elif kind == "bad":
            message = "unterminated string literal" if text == '"' else f"unexpected character {text!r}"
            raise ParseError(Diagnostic("error", Span(filename, line, col, line, col), message, "E-LEX"))
        elif kind != "skip":
            tokens.append(Token(kind, text, line, col))
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Token], filename: str):
        self.toks = tokens
        self.pos = 0
        self.filename = filename
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if self.at(kind, text):
            return self.next()
        t = self.peek()
        want = text if text is not None else kind
        raise self.error(f"expected {want!r}, found {t.text!r}" if t.text else f"expected {want!r}, found end of input")

    def span_here(self, ahead: int = 0) -> Span:
        t = self.peek(ahead)
        return Span(self.filename, t.line, t.col, t.line, t.col + max(len(t.text), 1))

    def span_from(self, start: Span) -> Span:
        prev = self.toks[max(self.pos - 1, 0)]
        return Span(self.filename, start.line, start.col, prev.line, prev.col + len(prev.text))

    def error(self, message: str, code: str = "E-PARSE") -> ParseError:
        return ParseError(Diagnostic("error", self.span_here(), message, code))

    def nested(self, rule, *args):
        """`rule(*args)` one nesting level deeper, called just after the
        token that opens the level: E-DEPTH at that token if the level is
        deeper than MAX_DEPTH.  Every recursive rule goes down through here."""
        if self.depth == MAX_DEPTH:
            raise ParseError(Diagnostic(
                "error", self.span_here(-1), f"nested more than {MAX_DEPTH} levels deep", "E-DEPTH"
            ))
        self.depth += 1
        try:
            return rule(*args)
        finally:
            self.depth -= 1

    def sep_by(self, item, close: Optional[str] = None, sep: str = ",") -> list:
        """`item (sep item)*`; nothing at all when the next token is `close`."""
        if close is not None and self.at("punct", close):
            return []
        items = [item()]
        while self.accept("punct", sep):
            items.append(item())
        return items

    def ident(self) -> str:
        return self.expect("ident").text

    def index(self, item) -> Tuple:
        """An optional `[item, ...]` index."""
        if not self.accept("punct", "["):
            return ()
        idx = tuple(self.nested(self.sep_by, item))
        self.expect("punct", "]")
        return idx

    # -- values -------------------------------------------------------------

    def parse_value(self) -> Value:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return VInt(int(t.text))
        if t.kind == "float":
            self.next()
            return VFloat(float(t.text))
        if t.kind == "punct" and t.text == "-":
            self.next()
            inner = self.nested(self.parse_value)
            if isinstance(inner, VInt):
                return VInt(-inner.v)
            if isinstance(inner, VFloat):
                return VFloat(-inner.v)
            raise self.error("'-' applies only to numeric literals")
        if t.kind == "string":
            self.next()
            return VStr(t.text)
        if t.kind == "kw" and t.text in ("true", "false"):
            self.next()
            return VBool(t.text == "true")
        if t.kind == "kw" and t.text == "undef":
            self.next()
            return UNDEF
        if t.kind == "punct" and t.text == "{":
            self.next()
            items = self.nested(self.sep_by, self.parse_value, "}")
            self.expect("punct", "}")
            return VSet.of(items)
        if t.kind == "punct" and t.text == "(":
            self.next()
            first = self.nested(self.parse_value)
            self.expect("punct", ",")
            items = (first, *self.nested(self.sep_by, self.parse_value))
            self.expect("punct", ")")
            return VTuple(items)
        raise self.error(f"expected a value, found {t.text!r}")

    # -- expressions ---------------------------------------------------------

    def parse_expr(self):
        return self._expr_add()

    def _expr_add(self):
        start = self.span_here()
        e = self._expr_mul()
        while self.at("punct", "+") or self.at("punct", "-"):
            op = self.next().text
            rhs = self._expr_mul()
            e = Apply(op, (e, rhs), self.span_from(start))
        return e

    def _expr_mul(self):
        start = self.span_here()
        e = self._expr_unary()
        while self.at("punct", "*") or self.at("punct", "/"):
            op = self.next().text
            rhs = self._expr_unary()
            e = Apply(op, (e, rhs), self.span_from(start))
        return e

    def _expr_unary(self):
        if self.at("punct", "-"):
            start = self.span_here()
            self.next()
            inner = self.nested(self._expr_unary)
            if isinstance(inner, Literal) and isinstance(inner.value, (VInt, VFloat)):
                neg = VInt(-inner.value.v) if isinstance(inner.value, VInt) else VFloat(-inner.value.v)
                return Literal(neg, self.span_from(start))
            return Apply("neg", (inner,), self.span_from(start))
        return self._expr_atom()

    def _expr_atom(self):
        t = self.peek()
        start = self.span_here()
        if t.kind in ("int", "float", "string") or (
            t.kind == "kw" and t.text in ("true", "false", "undef")
        ) or (t.kind == "punct" and t.text == "{"):
            return Literal(self.parse_value(), self.span_from(start))
        if t.kind == "kw" and t.text == "this":
            self.next()
            self.expect("punct", ".")
            name = self.ident()
            index = self.index(self.parse_expr)
            return ThisAttr(name, index, self.span_from(start))
        if t.kind == "ident":
            name = self.next().text
            if self.at("punct", "("):
                self.next()
                args = tuple(self.nested(self.sep_by, self.parse_expr, ")"))
                self.expect("punct", ")")
                return Apply(name, args, self.span_from(start))
            index = self.index(self.parse_expr)
            return Attr(name, index, self.span_from(start))
        if t.kind == "punct" and t.text == "(":
            self.next()
            first = self.nested(self.parse_expr)
            if self.accept("punct", ","):
                # tuple literal / construction
                items = (first, *self.nested(self.sep_by, self.parse_expr))
                self.expect("punct", ")")
                if all(isinstance(e, Literal) for e in items):
                    return Literal(VTuple(tuple(e.value for e in items)), self.span_from(start))
                return Apply("tuple", items, self.span_from(start))
            self.expect("punct", ")")
            return first
        raise self.error(f"expected an expression, found {t.text!r}")

    # -- predicates ----------------------------------------------------------

    def parse_pred(self) -> Predicate:
        return self._pred_or(self._pred_atom)

    # A state expression has the connectives of a predicate over other
    # atoms: `_pred_or`, `_pred_and` and `_pred_unary` take the atom rule.

    def _pred_or(self, atom) -> Predicate:
        start = self.span_here()
        p = self._pred_and(atom)
        while self.accept("punct", "||"):
            rhs = self._pred_and(atom)
            p = Or(p, rhs, self.span_from(start))
        return p

    def _pred_and(self, atom) -> Predicate:
        start = self.span_here()
        p = self._pred_unary(atom)
        while self.accept("punct", "&&"):
            rhs = self._pred_unary(atom)
            p = And(p, rhs, self.span_from(start))
        return p

    def _pred_unary(self, atom) -> Predicate:
        start = self.span_here()
        if self.accept("punct", "!"):
            inner = self.nested(self._pred_unary, atom)
            return Not(inner, self.span_from(start))
        if self.accept("kw", "tt"):
            return TruePred(self.span_from(start))
        if self.accept("kw", "ff"):
            return FalsePred(self.span_from(start))
        return atom()

    def _pred_atom(self) -> Predicate:
        if self.at("punct", "("):
            # Either a parenthesised predicate or a parenthesised
            # expression opening a comparison: try the predicate reading
            # and fall back when the suffix proves it was an expression.
            mark = self.pos
            pred_result = pred_end = None
            try:
                self.next()
                p = self.nested(self._pred_or, self._pred_atom)
                self.expect("punct", ")")
                nxt = self.peek()
                if not (
                    nxt.kind == "punct" and nxt.text in ("=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/")
                    or (nxt.kind == "kw" and nxt.text == "in")
                ):
                    return p
                # a suffix like '>' may still belong to the surrounding
                # construct (e.g. the close of an awareness guard), so
                # keep the predicate reading as a fallback
                pred_result, pred_end = p, self.pos
            except ParseError:
                pass
            self.pos = mark
            try:
                return self._pred_comparison()
            except ParseError:
                if pred_result is not None:
                    self.pos = pred_end
                    return pred_result
                raise
        return self._pred_comparison()

    def _pred_comparison(self) -> Predicate:
        start = self.span_here()
        lhs = self.parse_expr()
        t = self.peek()
        if t.kind == "punct" and t.text in ("=", "!=", "<", "<=", ">", ">="):
            op = self.next().text
            rhs = self.parse_expr()
            return Compare(op, lhs, rhs, self.span_from(start))
        if t.kind == "kw" and t.text == "in":
            self.next()
            rhs = self.parse_expr()
            return Member(lhs, rhs, self.span_from(start))
        if isinstance(lhs, Apply):
            return AtomApply(lhs.fn, lhs.args, self.span_from(start))
        raise self.error("expected a comparison operator or 'in'")

    # -- processes -----------------------------------------------------------

    def parse_process(self) -> ProcessTerm:
        return self._chain("|", Par, self._proc_choice)

    def _proc_choice(self) -> ProcessTerm:
        return self._chain("+", Choice, self._proc_prefixed)

    def _chain(self, op: str, node, operand) -> ProcessTerm:
        """`operand (op operand)*`, nested to the right.  Every link ends
        at the chain's last token, so all spans are taken at the end."""
        parts = [(self.span_here(), operand())]
        while self.accept("punct", op):
            parts.append((self.span_here(), operand()))
        term = parts.pop()[1]
        for start, left in reversed(parts):
            term = node(left, term, self.span_from(start))
        return term

    def _proc_prefixed(self) -> ProcessTerm:
        """A chain of awareness, output and input prefixes ending in `0`, a
        call or a parenthesised process.  '.' binds tightest: a
        continuation is again such a chain; parenthesise to continue with
        a parallel or a choice."""
        links = []  # (start, node, fields before the body)
        while True:
            start = self.span_here()
            after = self._after_matching_paren() if self.at("punct", "(") else None
            if self.accept("punct", "<"):
                guard = self.parse_pred()
                self.expect("punct", ">")
                links.append((start, Aware, (guard,)))
            elif after == "@":
                links.append((start, Output, self._output_head()))
            elif after == "(":
                links.append((start, Input, self._input_head()))
            else:
                break
        t = self.peek()
        if t.kind == "int" and t.text == "0":
            self.next()
            term = Inact(self.span_from(start))
        elif t.kind == "ident":
            term = Call(self.next().text, span=self.span_from(start))
        elif self.accept("punct", "("):
            term = self.nested(self.parse_process)
            self.expect("punct", ")")
        else:
            raise self.error(f"expected a process, found {t.text!r}")
        for start, node, fields in reversed(links):
            term = node(*fields, term, self.span_from(start))
        return term

    def _after_matching_paren(self) -> str:
        """Text of the token following the parenthesised group starting
        at the current position (used to tell outputs, inputs and
        grouping apart)."""
        depth = 0
        i = self.pos
        while i < len(self.toks):
            t = self.toks[i]
            if t.kind == "punct" and t.text in ("(", "[", "{"):
                depth += 1
            elif t.kind == "punct" and t.text in (")", "]", "}"):
                depth -= 1
                if depth == 0:
                    nxt = self.toks[i + 1] if i + 1 < len(self.toks) else None
                    return nxt.text if nxt else ""
            elif t.kind == "eof":
                break
            i += 1
        return ""

    def _output_head(self):
        self.expect("punct", "(")
        payload = tuple(self.sep_by(self.parse_expr, ")"))
        self.expect("punct", ")")
        self.expect("punct", "@")
        self.expect("punct", "(")
        target = self.parse_pred()
        self.expect("punct", ")")
        self.expect("punct", ".")
        return payload, target, self._updates()

    def _input_head(self):
        self.expect("punct", "(")
        guard = self.parse_pred()
        self.expect("punct", ")")
        self.expect("punct", "(")
        binders = tuple(self.sep_by(self.ident, ")"))
        self.expect("punct", ")")
        self.expect("punct", ".")
        return guard, binders, self._updates()

    def _updates(self) -> Tuple[Update, ...]:
        updates: List[Update] = []
        while self.at("punct", "["):
            updates.extend(self.index(self._parse_update))
        return tuple(updates)

    def _parse_update(self) -> Update:
        start = self.span_here()
        name = self.ident()
        index = self.index(self.parse_expr)
        self.expect("punct", ":=")
        rhs = self.parse_expr()
        return Update(name, index, rhs, self.span_from(start))

    # -- properties ----------------------------------------------------------

    def _parse_event(self):
        t = self.peek()
        if t.kind == "kw" and t.text in ("sent", "received"):
            self.next()
            self.expect("punct", "(")
            comp = "*" if self.accept("punct", "*") else self.ident()
            self.expect("punct", ",")
            tag = self.expect("string").text
            self.expect("punct", ")")
            return Sent(comp, tag) if t.text == "sent" else Received(comp, tag)
        raise self.error("expected 'sent' or 'received'")

    def _parse_goal_events(self) -> Tuple:
        paren = self.accept("punct", "(")
        goals = tuple(self.sep_by(self._parse_event, sep="||"))
        if paren:
            self.expect("punct", ")")
        return goals

    def _state_atom(self) -> StateExpr:
        """A parenthesised state expression or `C.a[i] op v`."""
        if self.accept("punct", "("):
            e = self.nested(self._pred_or, self._state_atom)
            self.expect("punct", ")")
            return e
        start = self.span_here()
        comp = "*" if self.accept("punct", "*") else self.ident()
        self.expect("punct", ".")
        attr = self.ident()
        index = self.index(self.parse_value)
        t = self.peek()
        if not (t.kind == "punct" and t.text in ("=", "!=", "<", "<=", ">", ">=")):
            raise self.error("expected a comparison operator")
        op = self.next().text
        value = self.parse_value()
        return SCompare(comp, attr, index, op, value, self.span_from(start))

    def _parse_property(self) -> Property:
        if self.accept("kw", "reachable"):
            t = self.peek()
            if t.kind == "kw" and t.text in ("sent", "received"):
                return Reachable(self._parse_event())
            return Reachable(self._pred_or(self._state_atom))
        if self.accept("kw", "invariant"):
            return Invariant(self._pred_or(self._state_atom))
        trigger = self._parse_event()
        self.expect("kw", "leadsto")
        goals = self._parse_goal_events()
        return LeadsTo(trigger, goals)

    # -- declarations ----------------------------------------------------------

    def parse_spec(self) -> SystemSpec:
        components: List[ComponentDecl] = []
        procs: List[Tuple[str, ProcessTerm]] = []
        externs: List[Tuple[str, object]] = []
        props: List[Tuple[str, Property]] = []
        while not self.at("eof"):
            if self.at("kw", "extern"):
                externs.append(self._parse_extern())
            elif self.at("kw", "proc"):
                self.next()
                name = self.ident()
                self.expect("punct", "=")
                procs.append((name, self.parse_process()))
            elif self.at("kw", "component"):
                components.append(self._parse_component())
            elif self.at("kw", "property"):
                self.next()
                name = self.ident()
                self.expect("punct", "=")
                props.append((name, self._parse_property()))
            else:
                raise self.error(
                    f"expected a declaration, found {self.peek().text!r}"
                )
        return SystemSpec(tuple(components), tuple(procs), tuple(externs), tuple(props))

    def _parse_extern(self):
        self.expect("kw", "extern")
        name = self.ident()
        self.expect("punct", ":")
        if self.accept("kw", "map"):
            self.expect("punct", "{")
            rows = dict(self.sep_by(self._table_row))
            self.expect("punct", "}")
            return (name, TableFn.of(rows))
        self.expect("punct", "{")
        values = self.sep_by(self.parse_value)
        self.expect("punct", "}")
        return (name, EnumDomain.of(values))

    def _table_row(self):
        self.expect("punct", "(")
        args = tuple(self.sep_by(self.parse_value))
        self.expect("punct", ")")
        self.expect("punct", "->")
        return args, self.parse_value()

    def _parse_component(self) -> ComponentDecl:
        start = self.span_here()
        self.expect("kw", "component")
        name = self.ident()
        self.expect("punct", "{")
        self.expect("kw", "attrs")
        self.expect("punct", "{")
        attrs = {}
        while not self.at("punct", "}"):
            aname = self.ident()
            index = self.index(self.parse_value)
            self.expect("punct", "=")
            attrs[(aname, index)] = self.parse_value()
            self.expect("punct", ";")
        self.expect("punct", "}")
        self.expect("kw", "interface")
        self.expect("punct", "{")
        iface = self.sep_by(self.ident) if self.at("ident") else []
        self.expect("punct", "}")
        self.expect("kw", "run")
        proc = self.parse_process()
        self.expect("punct", "}")
        sorted_attrs = tuple(
            sorted(attrs.items(), key=lambda kv: (kv[0][0], tuple(ser_value(v) for v in kv[0][1])))
        )
        return ComponentDecl(name, sorted_attrs, tuple(iface), proc, self.span_from(start))


def parse_spec(source: str, filename: str = "<spec>"):
    """Parses a full specification.

    Returns (spec, diagnostics); on error spec is None and the list is
    non-empty.
    """
    try:
        return _parse_whole(_Parser.parse_spec, source, filename), []
    except ParseError as e:
        return None, [e.diagnostic]


def _parse_whole(rule, source: str, filename: str):
    p = _Parser(_lex(source, filename), filename)
    result = rule(p)
    p.expect("eof")
    return result


def parse_process_str(source: str, filename: str = "<proc>") -> ProcessTerm:
    return _parse_whole(_Parser.parse_process, source, filename)


def parse_pred_str(source: str, filename: str = "<pred>") -> Predicate:
    return _parse_whole(_Parser.parse_pred, source, filename)


def parse_expr_str(source: str, filename: str = "<expr>"):
    return _parse_whole(_Parser.parse_expr, source, filename)
