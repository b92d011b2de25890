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

import math
import os
import re
import sys
from bisect import bisect_left
from typing import List, Optional, Tuple

from .terms import (
    INT_DIGITS,
    And,
    Apply,
    Attr,
    AtomApply,
    Aware,
    Call,
    COMPARE_OPS,
    Choice,
    ComponentDecl,
    EnumDomain,
    Env,
    FalsePred,
    Inact,
    INFIX_ATOMS,
    Input,
    Invariant,
    LeadsTo,
    Literal,
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

# The keys that, after a parenthesised predicate, show that it was an
# expression opening a comparison.
_EXPR_SUFFIX = INFIX_ATOMS | {"+", "-", "*", "/"}


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


# a backslash before a line break, LF or CRLF, continues a string with "\n"
_ESCAPES = {"n": "\n", "t": "\t", "\r\n": "\n"}

# One alternative per token class, tried in order: floats before ints,
# punctuation longest first.  Numbers are ASCII; a word is a run of
# Unicode word characters, and `_lex` rejects one that starts with a
# numeral other than a decimal digit.
_TOKEN = re.compile(
    r"""(?P<skip>[ \t\r\n]+|\#[^\n]*)
    |(?P<float>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))|(?P<int>[0-9]+)
    |(?P<word>[^\W\d]\w*)|(?P<string>"(?:[^"\\\n]|\\\r\n|\\.)*")
    |(?P<punct>""" + "|".join(re.escape(p) for p in sorted(PUNCT, key=len, reverse=True)) + r""")
    |(?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)


def _newlines(src: str) -> List[int]:
    return [m.start() for m in re.finditer("\n", src)]


def _line_col(newlines: List[int], offset: int) -> Tuple[int, int]:
    """1-based line and column of `offset`, counted in characters."""
    line = bisect_left(newlines, offset)
    return line + 1, offset - (newlines[line - 1] + 1 if line else 0) + 1


def _lex(src: str, filename: str) -> List[Tuple[str, str, int]]:
    """The tokens of `src`, each as (key, text, offset).  The key of a
    keyword or a punctuation mark is its text; any other token's key is
    its class: "ident", "int", "float", "string" (whose text is the
    unescaped body) or "eof"."""
    tokens = []
    end = 0
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "word" and not (text[0].isalpha() or text[0] == "_"):
            kind, text = "bad", text[0]  # a numeral such as '²' starts no word
        # the eof token sits where a trailing comment starts
        end = m.start() if text[0] == "#" else m.end()
        if kind == "word":
            tokens.append((text if text in KEYWORDS else "ident", text, m.start()))
        elif kind == "string":
            body = re.sub(r"\\(\r\n|.)", lambda e: _ESCAPES.get(e[1], e[1]), text[1:-1], flags=re.DOTALL)
            tokens.append(("string", body, m.start()))
        elif kind == "punct":
            tokens.append((text, text, m.start()))
        elif kind == "bad":
            line, col = _line_col(_newlines(src), m.start())
            message = "unterminated string literal" if text == '"' else f"unexpected character {text!r}"
            raise ParseError(Diagnostic("error", Span(filename, line, col, line, col), message, "E-LEX"))
        elif kind != "skip":
            tokens.append((kind, text, m.start()))
    tokens.append(("eof", "", end))
    return tokens


class _Parser:
    def __init__(self, src: str, filename: str):
        self.toks = _lex(src, filename)
        self.src = src
        self.newlines = _newlines(src)
        self.pos = 0
        self.filename = filename
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def next(self) -> str:
        key, text, _ = self.toks[self.pos]
        if key != "eof":
            self.pos += 1
        return text

    def at(self, key: str) -> bool:
        return self.toks[self.pos][0] == key

    def accept(self, key: str) -> bool:
        if self.at(key):
            self.next()
            return True
        return False

    def expect(self, key: str) -> str:
        if self.at(key):
            return self.next()
        raise self.error(f"expected {key!r}, found {self.found()}")

    def written(self, i: int) -> str:
        """Token `i` as written in the source: a string keeps its quotes
        and escapes, and runs on over each backslash-newline in it."""
        key, text, offset = self.toks[i]
        return _TOKEN.match(self.src, offset).group() if key == "string" else text

    def found(self) -> str:
        """The next token as a diagnostic shows it: as written in the source."""
        return "end of input" if self.at("eof") else repr(self.written(self.pos))

    def span_here(self, ahead: int = 0) -> Span:
        i = self.pos + ahead
        offset = self.toks[i][2]
        line, col = _line_col(self.newlines, offset)
        end_line, end_col = _line_col(self.newlines, offset + max(len(self.written(i)), 1))
        return Span(self.filename, line, col, end_line, end_col)

    def span_from(self, start: Span) -> Span:
        i = max(self.pos - 1, 0)
        end_line, end_col = _line_col(self.newlines, self.toks[i][2] + len(self.written(i)))
        return Span(self.filename, start.line, start.col, end_line, end_col)

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
        if close is not None and self.at(close):
            return []
        items = [item()]
        while self.accept(sep):
            items.append(item())
        return items

    def ident(self) -> str:
        return self.expect("ident")

    def index(self, item) -> Tuple:
        """An optional `[item, ...]` index."""
        if not self.accept("["):
            return ()
        idx = tuple(self.nested(self.sep_by, item))
        self.expect("]")
        return idx

    # -- values -------------------------------------------------------------

    def parse_value(self) -> Value:
        key = self.peek()
        if key == "int":
            digits = self.toks[self.pos][1].lstrip("0")
            if len(digits) > INT_DIGITS:
                raise self.error(f"integer literal longer than {INT_DIGITS} digits")
            self.next()
            return VInt(int(digits or "0"))
        if key == "float":
            v = float(self.toks[self.pos][1])
            if not math.isfinite(v):
                raise self.error("float literal out of range")
            self.next()
            return VFloat(v)
        if key == "-":
            self.next()
            inner = self.nested(self.parse_value)
            if isinstance(inner, VInt):
                return VInt(-inner.v)
            if isinstance(inner, VFloat):
                return VFloat(-inner.v)
            raise self.error("'-' applies only to numeric literals")
        if key == "string":
            return VStr(self.next())
        if key in ("true", "false"):
            return VBool(self.next() == "true")
        if key == "undef":
            self.next()
            return UNDEF
        if key == "{":
            self.next()
            items = self.nested(self.sep_by, self.parse_value, "}")
            self.expect("}")
            return VSet.of(items)
        if key == "(":
            self.next()
            first = self.nested(self.parse_value)
            self.expect(",")
            items = (first, *self.nested(self.sep_by, self.parse_value))
            self.expect(")")
            return VTuple(items)
        raise self.error(f"expected a value, found {self.found()}")

    # -- expressions ---------------------------------------------------------

    def parse_expr(self):
        return self._expr_add()

    def _expr_add(self):
        start = self.span_here()
        e = self._expr_mul()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self._expr_mul()
            e = Apply(op, (e, rhs), self.span_from(start))
        return e

    def _expr_mul(self):
        start = self.span_here()
        e = self._expr_unary()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self._expr_unary()
            e = Apply(op, (e, rhs), self.span_from(start))
        return e

    def _expr_unary(self):
        if self.at("-"):
            start = self.span_here()
            self.next()
            inner = self.nested(self._expr_unary)
            if isinstance(inner, Literal) and isinstance(inner.value, (VInt, VFloat)):
                neg = VInt(-inner.value.v) if isinstance(inner.value, VInt) else VFloat(-inner.value.v)
                return Literal(neg, self.span_from(start))
            return Apply("neg", (inner,), self.span_from(start))
        return self._expr_atom()

    def _expr_atom(self):
        key = self.peek()
        start = self.span_here()
        if key in ("int", "float", "string", "true", "false", "undef", "{"):
            return Literal(self.parse_value(), self.span_from(start))
        if self.accept("this"):
            self.expect(".")
            name = self.ident()
            index = self.index(self.parse_expr)
            return ThisAttr(name, index, self.span_from(start))
        if key == "ident":
            name = self.next()
            if self.accept("("):
                args = tuple(self.nested(self.sep_by, self.parse_expr, ")"))
                self.expect(")")
                return Apply(name, args, self.span_from(start))
            index = self.index(self.parse_expr)
            return Attr(name, index, self.span_from(start))
        if self.accept("("):
            first = self.nested(self.parse_expr)
            if self.accept(","):
                # tuple literal / construction
                items = (first, *self.nested(self.sep_by, self.parse_expr))
                self.expect(")")
                if all(isinstance(e, Literal) for e in items):
                    return Literal(VTuple(tuple(e.value for e in items)), self.span_from(start))
                return Apply("tuple", items, self.span_from(start))
            self.expect(")")
            return first
        raise self.error(f"expected an expression, found {self.found()}")

    # -- predicates ----------------------------------------------------------

    def parse_pred(self) -> Predicate:
        return self._pred_or(self._pred_atom)

    # A state expression has the connectives of a predicate over other
    # atoms: `_pred_or`, `_pred_and` and `_pred_unary` take the atom rule.

    def _pred_or(self, atom) -> Predicate:
        start = self.span_here()
        p = self._pred_and(atom)
        while self.accept("||"):
            rhs = self._pred_and(atom)
            p = Or(p, rhs, self.span_from(start))
        return p

    def _pred_and(self, atom) -> Predicate:
        start = self.span_here()
        p = self._pred_unary(atom)
        while self.accept("&&"):
            rhs = self._pred_unary(atom)
            p = And(p, rhs, self.span_from(start))
        return p

    def _pred_unary(self, atom) -> Predicate:
        start = self.span_here()
        if self.accept("!"):
            inner = self.nested(self._pred_unary, atom)
            return Not(inner, self.span_from(start))
        if self.accept("tt"):
            return TruePred(self.span_from(start))
        if self.accept("ff"):
            return FalsePred(self.span_from(start))
        return atom()

    def _pred_atom(self) -> Predicate:
        if self.at("("):
            # Either a parenthesised predicate or a parenthesised
            # expression opening a comparison: try the predicate reading
            # and fall back when the suffix proves it was an expression.
            mark = self.pos
            pred_result = pred_end = None
            try:
                self.next()
                p = self.nested(self._pred_or, self._pred_atom)
                self.expect(")")
                if self.peek() not in _EXPR_SUFFIX:
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
        if self.peek() in INFIX_ATOMS:
            op = self.next()
            rhs = self.parse_expr()
            return AtomApply(op, (lhs, rhs), self.span_from(start))
        if isinstance(lhs, Apply):
            return AtomApply(lhs.fn, lhs.args, self.span_from(start))
        raise self.error("expected a comparison operator or 'in'")

    # -- processes -----------------------------------------------------------

    def parse_process(self) -> ProcessTerm:
        return self._chain("|", Par, self._proc_choice)

    def _proc_choice(self) -> ProcessTerm:
        return self._chain("+", Choice, self._proc_prefixed)

    def _chain(self, op: str, node, operand) -> ProcessTerm:
        """`operand (op operand)*`: one `node` over all the operands, or
        the operand itself when there is one."""
        start = self.span_here()
        parts = [operand()]
        while self.accept(op):
            parts.append(operand())
        return node(tuple(parts), self.span_from(start)) if len(parts) > 1 else parts[0]

    def _proc_prefixed(self) -> ProcessTerm:
        """A chain of awareness, output and input prefixes ending in `0`, a
        call or a parenthesised process.  '.' binds tightest: a
        continuation is again such a chain; parenthesise to continue with
        a parallel or a choice."""
        links = []  # (start, node, fields before the body)
        while True:
            start = self.span_here()
            after = self._after_matching_paren() if self.at("(") else None
            if self.accept("<"):
                guard = self.parse_pred()
                self.expect(">")
                links.append((start, Aware, (guard,)))
            elif after == "@":
                links.append((start, Output, self._output_head()))
            elif after == "(":
                links.append((start, Input, self._input_head()))
            else:
                break
        if self.toks[self.pos][:2] == ("int", "0"):
            self.next()
            term = Inact(self.span_from(start))
        elif self.at("ident"):
            term = Call(self.next(), span=self.span_from(start))
        elif self.accept("("):
            term = self.nested(self.parse_process)
            self.expect(")")
        else:
            raise self.error(f"expected a process, found {self.found()}")
        for start, node, fields in reversed(links):
            term = node(*fields, term, self.span_from(start))
        return term

    def _after_matching_paren(self) -> str:
        """Key of the token following the parenthesised group starting
        at the current position (used to tell outputs, inputs and
        grouping apart)."""
        depth = 0
        for i in range(self.pos, len(self.toks) - 1):  # the last token is eof
            key = self.toks[i][0]
            if key in ("(", "[", "{"):
                depth += 1
            elif key in (")", "]", "}"):
                depth -= 1
                if depth == 0:
                    return self.toks[i + 1][0]
        return ""

    def _output_head(self):
        self.expect("(")
        payload = tuple(self.sep_by(self.parse_expr, ")"))
        self.expect(")")
        self.expect("@")
        self.expect("(")
        target = self.parse_pred()
        self.expect(")")
        self.expect(".")
        return payload, target, self._updates()

    def _input_head(self):
        self.expect("(")
        guard = self.parse_pred()
        self.expect(")")
        self.expect("(")
        binders = tuple(self.sep_by(self.ident, ")"))
        self.expect(")")
        self.expect(".")
        return guard, binders, self._updates()

    def _updates(self) -> Tuple[Update, ...]:
        updates: List[Update] = []
        while self.at("["):
            updates.extend(self.index(self._parse_update))
        return tuple(updates)

    def _parse_update(self) -> Update:
        start = self.span_here()
        name = self.ident()
        index = self.index(self.parse_expr)
        self.expect(":=")
        rhs = self.parse_expr()
        return Update(name, index, rhs, self.span_from(start))

    # -- properties ----------------------------------------------------------

    def _parse_event(self):
        kind = self.peek()
        if kind in ("sent", "received"):
            self.next()
            self.expect("(")
            comp = "*" if self.accept("*") else self.ident()
            self.expect(",")
            tag = self.expect("string")
            self.expect(")")
            return Sent(comp, tag) if kind == "sent" else Received(comp, tag)
        raise self.error("expected 'sent' or 'received'")

    def _parse_goal_events(self) -> Tuple:
        paren = self.accept("(")
        goals = tuple(self.sep_by(self._parse_event, sep="||"))
        if paren:
            self.expect(")")
        return goals

    def _state_atom(self) -> StateExpr:
        """A parenthesised state expression or `C.a[i] op v`."""
        if self.accept("("):
            e = self.nested(self._pred_or, self._state_atom)
            self.expect(")")
            return e
        start = self.span_here()
        comp = "*" if self.accept("*") else self.ident()
        self.expect(".")
        attr = self.ident()
        index = self.index(self.parse_value)
        if self.peek() not in COMPARE_OPS:
            raise self.error("expected a comparison operator")
        op = self.next()
        value = self.parse_value()
        return SCompare(comp, attr, index, op, value, self.span_from(start))

    def _parse_property(self) -> Property:
        if self.accept("reachable"):
            if self.peek() in ("sent", "received"):
                return Reachable(self._parse_event())
            return Reachable(self._pred_or(self._state_atom))
        if self.accept("invariant"):
            return Invariant(self._pred_or(self._state_atom))
        trigger = self._parse_event()
        self.expect("leadsto")
        goals = self._parse_goal_events()
        return LeadsTo(trigger, goals)

    # -- declarations ----------------------------------------------------------

    def parse_spec(self) -> SystemSpec:
        components: List[ComponentDecl] = []
        procs: List[Tuple[str, ProcessTerm]] = []
        externs: List[Tuple[str, object]] = []
        props: List[Tuple[str, Property]] = []
        while not self.at("eof"):
            if self.accept("extern"):
                externs.append(self._parse_extern())
            elif self.accept("proc"):
                name = self.ident()
                self.expect("=")
                procs.append((name, self.parse_process()))
            elif self.at("component"):
                components.append(self._parse_component())
            elif self.accept("property"):
                name = self.ident()
                self.expect("=")
                props.append((name, self._parse_property()))
            else:
                raise self.error(f"expected a declaration, found {self.found()}")
        return SystemSpec(tuple(components), tuple(procs), tuple(externs), tuple(props))

    def _parse_extern(self):
        name = self.ident()
        self.expect(":")
        if self.accept("map"):
            self.expect("{")
            rows = dict(self.sep_by(self._table_row))
            self.expect("}")
            return (name, TableFn.of(rows))
        self.expect("{")
        values = self.sep_by(self.parse_value)
        self.expect("}")
        return (name, EnumDomain.of(values))

    def _table_row(self):
        self.expect("(")
        args = tuple(self.sep_by(self.parse_value))
        self.expect(")")
        self.expect("->")
        return args, self.parse_value()

    def _parse_component(self) -> ComponentDecl:
        start = self.span_here()
        self.expect("component")
        name = self.ident()
        self.expect("{")
        self.expect("attrs")
        self.expect("{")
        attrs = {}
        while not self.at("}"):
            aname = self.ident()
            index = self.index(self.parse_value)
            self.expect("=")
            attrs[(aname, index)] = self.parse_value()
            self.expect(";")
        self.expect("}")
        self.expect("interface")
        self.expect("{")
        iface = self.sep_by(self.ident) if self.at("ident") else []
        self.expect("}")
        self.expect("run")
        proc = self.parse_process()
        self.expect("}")
        return ComponentDecl(name, Env.of(attrs).entries, tuple(iface), proc, self.span_from(start))


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
    p = _Parser(source, filename)
    result = rule(p)
    p.expect("eof")
    return result


def parse_process_str(source: str, filename: str = "<proc>") -> ProcessTerm:
    return _parse_whole(_Parser.parse_process, source, filename)


def parse_pred_str(source: str, filename: str = "<pred>") -> Predicate:
    return _parse_whole(_Parser.parse_pred, source, filename)


def parse_expr_str(source: str, filename: str = "<expr>"):
    return _parse_whole(_Parser.parse_expr, source, filename)
