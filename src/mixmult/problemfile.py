"""Problem-file parsing: field, ring, and ideal declarations.

Grammar (``#`` starts a line comment)::

    field Q | field F <prime>
    ring <name> vars <v>:(<d1>,<d2>) ...     # single-graded shorthand <v>:<d>
    ideal <name> in <ring> = <poly> ; <poly> ; ...

Polynomials are infix expressions over ``+ - * ^`` with integer literals
(ASCII digits 0-9) and parentheses. Diagnostics carry line and column.
"""

from __future__ import annotations

import math

from .errors import ParseError
from .fields import FieldSpec
from .groebner import Ideal
from .rings import Poly, Ring

_KEYWORDS = {"field", "ring", "ideal", "vars", "in"}
_SYMBOLS = set("+-*^():,;=")
# str.isdigit() also accepts digits such as "²" that int() refuses
_DIGITS = set("0123456789")
_EXPONENT_CAP = 1 << 20
# Bound, checked before expanding, on the terms of a product (len(a) * len(b))
# and of a t-term base to the e (C(e + t - 1, t - 1)). A binomial's power costs
# about its size squared, so (x + y)^2047, a few seconds, is the dearest.
_TERM_CAP = 1 << 11


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind  # "ident" | "int" | a symbol character | "eof"
        self.value, self.line, self.col = value, line, col


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in _DIGITS:
            start = i
            c0 = col
            while i < n and text[i] in _DIGITS:
                i += 1
                col += 1
            tokens.append(Token("int", text[start:i], line, c0))
        elif ch.isalpha() or ch == "_":
            start = i
            c0 = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("ident", text[start:i], line, c0))
        elif ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class ProblemFile:
    def __init__(self, field_spec: FieldSpec):
        self.field_spec = field_spec
        self.rings: dict[str, Ring] = {}
        self.ideals: dict[str, Ideal] = {}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str = "") -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what or kind}, found {tok.value or tok.kind!r}",
                tok.line,
                tok.col,
            )
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- statements ---------------------------------------------------------

    def parse(self) -> ProblemFile:
        spec = None
        pf = None
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind != "ident":
                self.fail(f"expected a statement keyword, found {tok.value!r}")
            if tok.value == "field":
                if spec is not None:
                    self.fail("duplicate field declaration")
                self.next()
                spec = self._field()
                pf = ProblemFile(spec)
            elif tok.value == "ring":
                if pf is None:
                    self.fail("the field must be declared before rings")
                self.next()
                self._ring(pf)
            elif tok.value == "ideal":
                if pf is None:
                    self.fail("the field must be declared before ideals")
                self.next()
                self._ideal(pf)
            else:
                self.fail(f"unknown statement {tok.value!r}")
        if pf is None:
            tok = self.peek()
            raise ParseError("empty problem file", tok.line, tok.col)
        return pf

    def _field(self) -> FieldSpec:
        tok = self.expect("ident", "field kind Q or F")
        if tok.value == "Q":
            return FieldSpec()
        if tok.value == "F":
            p = self.expect("int", "prime characteristic")
            try:
                return FieldSpec(int(p.value))
            except Exception as exc:
                raise ParseError(str(exc), p.line, p.col) from None
        raise ParseError(f"unknown field kind {tok.value!r}", tok.line, tok.col)

    def _name(self, what: str) -> Token:
        tok = self.expect("ident", what)
        if tok.value in _KEYWORDS:
            raise ParseError(f"{tok.value!r} is a reserved word", tok.line, tok.col)
        return tok

    def _ring(self, pf: ProblemFile):
        name = self._name("ring name")
        if name.value in pf.rings:
            raise ParseError(f"duplicate ring {name.value!r}", name.line, name.col)
        kw = self.expect("ident", "'vars'")
        if kw.value != "vars":
            raise ParseError("expected 'vars'", kw.line, kw.col)
        variables = []
        bidegrees = []
        while self.peek().kind == "ident" and self.peek().value not in _KEYWORDS:
            v = self.next()
            self.expect(":", "':' after variable name")
            if self.peek().kind == "(":
                self.next()
                d1 = int(self.expect("int", "degree").value)
                self.expect(",", "','")
                d2 = int(self.expect("int", "degree").value)
                self.expect(")", "')'")
                bidegrees.append((d1, d2))
            else:
                d = self.expect("int", "degree")
                bidegrees.append((int(d.value), 0))
            variables.append(v.value)
        if not variables:
            self.fail("ring declares no variables")
        try:
            ring = Ring(name.value, tuple(variables), tuple(bidegrees), pf.field_spec)
        except Exception as exc:
            raise ParseError(str(exc), name.line, name.col) from None
        pf.rings[name.value] = ring

    def _ideal(self, pf: ProblemFile):
        name = self._name("ideal name")
        if name.value in pf.ideals:
            raise ParseError(f"duplicate ideal {name.value!r}", name.line, name.col)
        kw = self.expect("ident", "'in'")
        if kw.value != "in":
            raise ParseError("expected 'in'", kw.line, kw.col)
        rname = self._name("ring name")
        ring = pf.rings.get(rname.value)
        if ring is None:
            raise ParseError(f"unknown ring {rname.value!r}", rname.line, rname.col)
        self.expect("=", "'='")
        polys = [self._expression(ring)]
        while self.peek().kind == ";":
            self.next()
            polys.append(self._expression(ring))
        pf.ideals[name.value] = Ideal(ring, polys)

    # -- expressions ----------------------------------------------------------

    def _expression(self, ring: Ring) -> Poly:
        acc = self._term(ring)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self._term(ring)
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def _term(self, ring: Ring) -> Poly:
        acc = self._factor(ring)
        while self.peek().kind == "*":
            star = self.next()
            rhs = self._factor(ring)
            self._bound_terms(len(acc.terms) * len(rhs.terms), star)
            acc = acc * rhs
        return acc

    def _bound_terms(self, terms: int, tok: Token) -> None:
        if terms > _TERM_CAP:
            raise ParseError(f"expansion may reach {terms} terms, above the cap of "
                             f"{_TERM_CAP}", tok.line, tok.col)

    def _factor(self, ring: Ring) -> Poly:
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            return -self._factor(ring)
        base = self._atom(ring)
        while self.peek().kind == "^":
            caret = self.next()
            e = self.expect("int", "exponent")
            exp = int(e.value)
            if exp > _EXPONENT_CAP:
                raise ParseError(f"exponent {exp} exceeds the cap", e.line, e.col)
            t = len(base.terms)
            self._bound_terms(math.comb(exp + t - 1, t - 1) if t else 0, caret)
            base = base ** exp
        return base

    def _atom(self, ring: Ring) -> Poly:
        tok = self.next()
        if tok.kind == "int":
            return ring.const(int(tok.value))
        if tok.kind == "ident":
            if tok.value in _KEYWORDS:
                raise ParseError(f"{tok.value!r} cannot appear in a polynomial",
                                 tok.line, tok.col)
            if tok.value not in ring.variables:
                raise ParseError(
                    f"unknown variable {tok.value!r} in ring {ring.name}",
                    tok.line, tok.col,
                )
            return ring.var(tok.value)
        if tok.kind == "(":
            inner = self._expression(ring)
            close = self.next()
            if close.kind != ")":
                raise ParseError("expected ')'", close.line, close.col)
            return inner
        raise ParseError(f"unexpected token {tok.value or tok.kind!r}", tok.line, tok.col)


def parse_problem(text: str) -> ProblemFile:
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:  # the descent outran the interpreter's stack
        tok = parser.tokens[min(parser.pos, len(parser.tokens) - 1)]
        raise ParseError("expression nested too deeply", tok.line, tok.col) from None

