"""Parser for the identity language.

Grammar (whitespace is insignificant; products of term atoms are written by
juxtaposition, products inside unit expressions with * and /):

    identity := term '=' term
    term     := ['-'] prod (('+'|'-') prod)*
    prod     := atom (atom)*
    atom     := INT | 'eta' | 'eps' | 'h' | '[' usum ']' | '<' usum '>'
              | '(' term ')' | atom '^' INT
    usum     := ['-'] uexpr (('+'|'-') uexpr)*
    uexpr    := uatom (('*'|'/') uatom)*
    uatom    := IDENT | INT | '-' uatom | '(' usum ')' | uatom '^' INT

    hypotheses := 'unit' '(' usum ')' (',' 'unit' '(' usum ')')*

Compared to the strictest reading of the grammar this accepts sums directly
inside [..], <..> and unit(..) without extra parentheses, a leading minus
sign, and ^ exponents on unit atoms; rendered unit expressions round-trip.
Parse errors carry 1-based line and column numbers, except a fault of the
whole identity (sides of different degrees, a sum without its unit
hypothesis), which has no position.

What an identity may build is bounded, so that no input makes the parser
build huge integers or terms, and every integer renders (``str`` refuses
ints of more than 4300 digits):

* an exponent after ``^`` and every exponent in a unit are at most
  ``MAX_EXPONENT``;
* the eta power of a word and its number of symbols are at most
  ``MAX_WORD_LENGTH`` (a power of a term costs about the cube of its
  longest word to build);
* a coefficient, and every numerator and denominator in a unit, has at
  most ``MAX_INT_BITS`` bits (about 1233 digits);
* a term has at most ``MAX_TERM_WORDS`` words, and a product of terms
  pairs at most that many;
* brackets of any kind nest, and unary minus signs repeat, at most
  ``MAX_NESTING`` deep (the parser recurses once or more per level).

Powers are checked before they are built, products and sums as they are
built; a breach is a ``ParseError`` at the offending token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import kmwterm as km
from .errors import InputError


class ParseError(InputError):
    """A refused text; ``line`` and ``col`` are None for a fault of the
    whole identity, which has no position."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        super().__init__(message if line is None else f"{message} at line {line}, column {col}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # INT, IDENT, or a literal symbol
    text: str
    line: int
    col: int


_SYMBOLS = "+-*/^()[]<>=,"

MAX_EXPONENT = 1000
MAX_WORD_LENGTH = 64
MAX_INT_BITS = 4096
MAX_TERM_WORDS = 4096
MAX_NESTING = 64


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


def _check_nesting(tokens: list[Token]) -> None:
    """Refuse brackets nested, or minus signs repeated, past ``MAX_NESTING``."""
    depth = run = 0
    for tok in tokens:
        if tok.kind in ("(", "[", "<"):
            depth += 1
        elif tok.kind in (")", "]", ">"):
            depth -= 1
        run = run + 1 if tok.kind == "-" else 0
        if depth > MAX_NESTING or run > MAX_NESTING:
            raise ParseError(f"nesting exceeds {MAX_NESTING} levels", tok.line, tok.col)


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        _check_nesting(self.tokens)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def int_value(self, tok: Token) -> int:
        """The value of an INT token; one too long for ``int()`` is a parse error."""
        try:
            return int(tok.text)
        except ValueError:
            raise ParseError(f"integer of {len(tok.text)} digits is too long",
                             tok.line, tok.col) from None

    def exponent(self, tok: Token) -> int:
        """The value of an exponent token, at most ``MAX_EXPONENT``."""
        n = self.int_value(tok)
        if n > MAX_EXPONENT:
            raise ParseError(f"exponent {n} exceeds the bound {MAX_EXPONENT}", tok.line, tok.col)
        return n

    # bounds ---------------------------------------------------------------

    def bounded_unit(self, u: km.Unit, tok: Token) -> km.Unit:
        """``u``, unless an integer or exponent in it exceeds its bound."""
        for content, factors in km.unit_parts(u):
            if max(abs(content.numerator), content.denominator).bit_length() > MAX_INT_BITS:
                raise ParseError(f"a unit's numerator or denominator exceeds {MAX_INT_BITS} bits",
                                 tok.line, tok.col)
            if any(abs(e) > MAX_EXPONENT for _, e in factors):
                raise ParseError(f"a unit exponent exceeds the bound {MAX_EXPONENT}",
                                 tok.line, tok.col)
        return u

    def unit_power(self, u: km.Unit, n: int, tok: Token) -> km.Unit:
        """``u ** n``, refused before it is built when its content is surely too long."""
        for x in (u.content.numerator, u.content.denominator):
            # x ** n has at least (bits(x) - 1) * n + 1 bits
            if (abs(x).bit_length() - 1) * abs(n) + 1 > MAX_INT_BITS:
                raise ParseError(f"a unit's numerator or denominator exceeds {MAX_INT_BITS} bits",
                                 tok.line, tok.col)
        return self.bounded_unit(u**n, tok)

    def bounded_term(self, term: km.Term, tok: Token) -> km.Term:
        """``term``, unless its size, a coefficient or a word exceeds its bound."""
        if len(term.words) > MAX_TERM_WORDS:
            raise ParseError(f"term exceeds {MAX_TERM_WORDS} words", tok.line, tok.col)
        for (e, brs), c in term.words.items():
            if c.bit_length() > MAX_INT_BITS:
                raise ParseError(f"coefficient exceeds {MAX_INT_BITS} bits", tok.line, tok.col)
            if e > MAX_WORD_LENGTH or len(brs) > MAX_WORD_LENGTH:
                raise ParseError(f"a word exceeds {MAX_WORD_LENGTH} eta factors or symbols",
                                 tok.line, tok.col)
        return term

    def term_product(self, a: km.Term, b: km.Term, tok: Token) -> km.Term:
        """``a * b``, refused before it is built when it pairs too many words."""
        if len(a.words) * len(b.words) > MAX_TERM_WORDS:
            raise ParseError(f"product of terms exceeds {MAX_TERM_WORDS} words", tok.line, tok.col)
        return self.bounded_term(a * b, tok)

    # terms ----------------------------------------------------------------

    def parse_term(self) -> km.Term:
        negate = False
        if self.peek().kind == "-":
            self.next()
            negate = True
        term = self.parse_prod()
        if negate:
            term = -term
        while self.peek().kind in ("+", "-"):
            op = self.next()
            rhs = self.parse_prod()
            term = self.bounded_term(term + rhs if op.kind == "+" else term - rhs, op)
        return term

    def parse_prod(self) -> km.Term:
        term = self.parse_atom()
        while self.peek().kind in ("INT", "IDENT", "[", "<", "("):
            tok = self.peek()
            term = self.term_product(term, self.parse_atom(), tok)
        return term

    def parse_atom(self) -> km.Term:
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            term = self.bounded_term(km.integer(self.int_value(tok)), tok)
        elif tok.kind == "IDENT":
            if tok.text == "eta":
                self.next()
                term = km.eta()
            elif tok.text == "eps":
                self.next()
                term = km.epsilon()
            elif tok.text == "h":
                self.next()
                term = km.hyperbolic()
            else:
                self.fail(f"unexpected identifier {tok.text!r} in term position")
        elif tok.kind == "[":
            self.next()
            u = self.parse_usum()
            self.expect("]")
            term = km.bracket(u)
        elif tok.kind == "<":
            self.next()
            u = self.parse_usum()
            self.expect(">")
            term = km.angle(u)
        elif tok.kind == "(":
            self.next()
            term = self.parse_term()
            self.expect(")")
        else:
            self.fail(f"unexpected token {tok.text or 'end of input'!r} in term position")
        while self.peek().kind == "^":
            self.next()
            exp = self.expect("INT")
            base, term = term, km.integer(1)
            for _ in range(self.exponent(exp)):
                term = self.term_product(term, base, exp)
        return term

    # unit expressions -----------------------------------------------------

    def parse_usum(self) -> km.Unit:
        parts = []
        negate = False
        if self.peek().kind == "-":
            self.next()
            negate = True
        first = self.parse_uexpr()
        parts.append(-first if negate else first)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            nxt = self.parse_uexpr()
            parts.append(nxt if op == "+" else -nxt)
        tok = self.peek()
        if len(parts) == 1:
            return parts[0]
        try:
            return self.bounded_unit(km.usum(parts), tok)
        except km.UnitExprError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None

    def parse_uexpr(self) -> km.Unit:
        u = self.parse_uatom()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            v = self.parse_uatom()
            u = self.bounded_unit(u * v if op.kind == "*" else u / v, op)
        return u

    def parse_uatom(self) -> km.Unit:
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            u = -self.parse_uatom()
        elif tok.kind == "INT":
            self.next()
            if tok.text == "0":
                raise ParseError("0 is not a unit", tok.line, tok.col)
            u = self.bounded_unit(km.uint(self.int_value(tok)), tok)
        elif tok.kind == "IDENT":
            self.next()
            u = km.uvar(tok.text)
        elif tok.kind == "(":
            self.next()
            u = self.parse_usum()
            self.expect(")")
        else:
            self.fail(f"unexpected token {tok.text or 'end of input'!r} in unit expression")
        while self.peek().kind == "^":
            self.next()
            neg = False
            if self.peek().kind == "-":
                self.next()
                neg = True
            exp = self.expect("INT")
            n = self.exponent(exp)
            u = self.unit_power(u, -n if neg else n, exp)
        return u


def parse_term(text: str) -> km.Term:
    p = _Parser(text)
    term = p.parse_term()
    p.expect("EOF")
    return term


def parse_unit(text: str) -> km.Unit:
    p = _Parser(text)
    u = p.parse_usum()
    p.expect("EOF")
    return u


def parse_hypotheses(text: str) -> tuple[km.Unit, ...]:
    """Parse a 'unit(expr), unit(expr), ...' clause list."""
    if not text.strip():
        return ()
    p = _Parser(text)
    out = []
    while True:
        tok = p.expect("IDENT")
        if tok.text != "unit":
            raise ParseError(f"expected 'unit', found {tok.text!r}", tok.line, tok.col)
        p.expect("(")
        out.append(p.parse_usum())
        p.expect(")")
        if p.peek().kind == ",":
            p.next()
            continue
        p.expect("EOF")
        return tuple(out)


def parse_identity(text: str, hypotheses: str = "") -> km.Identity:
    """Parse 'lhs = rhs' with an optional hypothesis clause list."""
    p = _Parser(text)
    lhs = p.parse_term()
    p.expect("=")
    rhs = p.parse_term()
    p.expect("EOF")
    hyps = parse_hypotheses(hypotheses)
    try:
        return km.Identity(lhs, rhs, hyps)
    except km.IdentityError as exc:
        raise ParseError(str(exc)) from None  # a fault of both sides, at no one position
