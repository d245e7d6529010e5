"""Surface syntax for algebra expressions.

Grammar (whitespace separates juxtaposed factors, juxtaposition multiplies):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (['.'] factor)*
    symm   := '{' factor+ '}'
    factor := NUMBER | NAME | '[' expr ',' expr ']' | symm | '(' expr ')'

The pattern ``_TOKEN`` is the lexical grammar: NUMBER is digits ('/'
digits)? and NAME is letters (('^' ['-'] | '_') digits)? (',' digits)? "'"*.
Digits are ASCII, so "٣" and "²" are refused with a located error; letters
are what ``str.isalpha`` accepts, so "θ" is a name.

A NAME in the parameter set is a parameter with its index as exponent, and
the single letter i is the imaginary unit. Any other NAME is a generator:
one index per digit (Q^12 has indices 1,2), and the digits after a comma are
formal-derivative indices (g_11,2; theta_,1). Parsing a canonical print
returns the same tree; printing a parse is normalizing.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .constraints import symmetrize
from .ncpoly import Generator, NcPoly, commutator
from .quotient import NAMED_SYSTEMS, RewriteSystem, _normalizer
from .scalar import Scalar

DEFAULT_PARAMS = frozenset({"hbar", "m", "dt", "tau", "k", "Delta"})
# A symmetrized product sums over the distinct arrangements of its factors:
# n!/prod(m_i!) for multiplicities m_i, so 40320 for eight distinct factors.
MAX_SYMM_FACTORS = 8
# Parsing, evaluating and printing recurse once or more per open bracket;
# this keeps the deepest nesting well inside Python's recursion limit.
MAX_NESTING = 200


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        loc = f"{line}:{col}"
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"syntax error at {loc}: {message}{hint}")
        self.line = line
        self.col = col
        self.expected = expected


# -- AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class ImagUnit:
    pass


@dataclass(frozen=True)
class Param:
    name: str
    exp: int = 1


@dataclass(frozen=True)
class Prod:
    factors: tuple["Expr", ...]


@dataclass(frozen=True)
class Sum:
    parts: tuple[tuple[int, "Expr"], ...]  # (sign, term)


@dataclass(frozen=True)
class Comm:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Symm:
    factors: tuple["Expr", ...]


Expr = Num | ImagUnit | Param | Generator | Prod | Sum | Comm | Symm


# -- lexer ---------------------------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<space>\s+)
  | (?P<number>[0-9]+(?:/[0-9]+)?)
  | (?P<name>(?P<letters>[^\W\d_]+)
        (?:(?P<marker>[_^])(?P<index>(?<=\^)-?[0-9]*|[0-9]*))?
        (?:,(?P<deriv>[0-9]+))?
        (?P<primes>'*))
  | (?P<decimal>\.[0-9])
  | (?P<punct>[][(){}+\-,.])
  | (?P<bad>.)
""", re.VERBOSE)


@dataclass(slots=True)  # not frozen: a frozen __init__ costs 1 µs per token
class Token:
    kind: str          # number name punct end
    text: str
    line: int
    col: int
    match: re.Match | None = None  # a name's suffix groups


def _tokens(src: str) -> list[Token]:
    out = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind, pos = m.lastgroup, m.start()
        col = pos - line_start + 1
        if kind == "space":
            newline = m.group().rfind("\n")
            if newline >= 0:
                line += m.group().count("\n")
                line_start = pos + newline + 1
        elif kind == "name":
            letters, marker, index, deriv = m.group("letters", "marker", "index", "deriv")
            if not letters.isalpha():  # [^\W\d_] also matches "²" and "½"
                bad = next(k for k, ch in enumerate(letters) if not ch.isalpha())
                raise ParseError(f"unexpected character {letters[bad]!r}", line, col + bad)
            # "theta_,1" carries derivative indices only
            if marker and not index.lstrip("-") and not (marker == "_" and deriv):
                raise ParseError(f"missing digits after {marker!r}", line,
                                 col + m.end("index") - pos, ("digits",))
            out.append(Token(kind, letters, line, col, m))
        elif kind == "decimal":
            raise ParseError("decimal literals are not supported; use p/q", line, col)
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        else:
            out.append(Token(kind, m.group(), line, col))
    out.append(Token("end", "", line, len(src) - line_start + 1))
    return out


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokens(src)
        self.pos = 0
        self.depth = 0  # brackets open at the current token

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text:
            return self.advance()
        self.fail(f"found {tok.text!r}" if tok.text else "unexpected end of input", (text,))

    def fail(self, message: str, expected: tuple[str, ...] = ()):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected)

    # expr := ['-'] term (('+'|'-') term)*
    def parse_expr(self):
        parts: list[tuple[int, object]] = []
        sign = 1
        if self._is_punct("-"):
            self.advance()
            sign = -1
        parts.append((sign, self.parse_term()))
        while self._is_punct("+") or self._is_punct("-"):
            op = self.advance().text
            parts.append((1 if op == "+" else -1, self.parse_term()))
        if len(parts) == 1 and parts[0][0] == 1:
            return parts[0][1]
        return Sum(tuple(parts))

    # term := factor (['.'] factor)*
    def parse_term(self):
        factors = [self.parse_factor()]
        while True:
            if self._is_punct("."):
                self.advance()
                factors.append(self.parse_factor())
            elif self._starts_factor():
                factors.append(self.parse_factor())
            else:
                break
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def _is_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def _starts_factor(self) -> bool:
        tok = self.peek()
        if tok.kind in ("number", "name"):
            return True
        return tok.kind == "punct" and tok.text in "[{("

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            try:
                return Num(_literal(Fraction, tok.text, tok))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {tok.text!r}", tok.line, tok.col) from None
        if tok.kind == "name":
            self.advance()
            return self._name_node(tok)
        if tok.kind == "punct" and tok.text in "[{(":
            if self.depth == MAX_NESTING:
                self.fail(f"brackets nest at most {MAX_NESTING} deep")
            self.depth += 1
            self.advance()
            node = self._bracketed(tok.text)
            self.depth -= 1
            return node
        self.fail(f"found {tok.text!r}" if tok.text else "unexpected end of input",
                  ("number", "name", "[", "{", "("))

    def _bracketed(self, opening: str):
        if opening == "[":
            a = self.parse_expr()
            self.expect(",")
            b = self.parse_expr()
            self.expect("]")
            return Comm(a, b)
        if opening == "{":
            factors = [self.parse_factor()]
            while self._starts_factor():
                if len(factors) == MAX_SYMM_FACTORS:
                    self.fail(f"a symmetrized product takes at most {MAX_SYMM_FACTORS} factors")
                factors.append(self.parse_factor())
            self.expect("}")
            return Symm(tuple(factors))
        inner = self.parse_expr()
        self.expect(")")
        return inner

    def _name_node(self, tok: Token):
        marker, index, deriv, primes = tok.match.group("marker", "index", "deriv", "primes")
        if tok.text == "i" and marker is None and deriv is None and not primes:
            return ImagUnit()
        if tok.text in DEFAULT_PARAMS:
            if deriv is not None or primes:
                raise ParseError(f"parameter {tok.text!r} takes only an exponent",
                                 tok.line, tok.col)
            exp = _literal(int, index, tok) if index else 1
            if exp == 0:
                raise ParseError("zero exponent", tok.line, tok.col)
            return Param(tok.text, exp)
        if index and index[0] == "-":
            raise ParseError("generator indices cannot be negative", tok.line, tok.col)
        return Generator(tok.text, tuple(map(int, index or "")),
                         tuple(map(int, deriv or "")), len(primes))


def _literal(convert, digits: str, tok: Token):
    """``convert(digits)``, with CPython's limit on the digits of an integer
    string (the only ValueError the token pattern leaves) located at ``tok``."""
    try:
        return convert(digits)
    except ValueError:
        raise ParseError(f"a literal takes at most {sys.get_int_max_str_digits()} digits",
                         tok.line, tok.col) from None


def parse(src: str):
    parser = _Parser(src)
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        parser.fail(f"trailing input {tok.text!r}", ("end of input",))
    return expr


# -- printer -------------------------------------------------------------------

def print_expr(e) -> str:
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, ImagUnit):
        return "i"
    if isinstance(e, Param):
        return e.name if e.exp == 1 else f"{e.name}^{e.exp}"
    if isinstance(e, Generator):
        return e.text()
    if isinstance(e, Prod):
        return " ".join(_factor_text(f) for f in e.factors)
    if isinstance(e, Sum):
        out = ""
        for idx, (sign, part) in enumerate(e.parts):
            body = _factor_text(part) if isinstance(part, Sum) else print_expr(part)
            if idx == 0:
                out = ("-" if sign < 0 else "") + body
            else:
                out += (" + " if sign > 0 else " - ") + body
        return out
    if isinstance(e, Comm):
        return f"[{print_expr(e.a)}, {print_expr(e.b)}]"
    if isinstance(e, Symm):
        return "{" + " ".join(_factor_text(f) for f in e.factors) + "}"
    raise TypeError(f"not an expression node: {e!r}")


def _factor_text(e) -> str:
    text = print_expr(e)
    if isinstance(e, (Sum, Prod)):
        return f"({text})"
    if isinstance(e, Num) and e.value < 0:
        return f"({text})"
    return text


# -- evaluation ------------------------------------------------------------------

def evaluate(e, system: RewriteSystem | None = None,
             max_steps: int | None = None) -> NcPoly:
    """The value of ``e``, in normal form when ``system`` has rules.

    A confluent system's normal form is an algebra map, so each product,
    commutator and symmetrizer is reduced as soon as it is formed, all under
    one step budget, instead of multiplying everything out first."""
    if system is None or not system.rules:
        return _eval(e, _unreduced)
    nf = _normalizer(system, max_steps)
    poly = _eval(e, nf)
    # a product, commutator or symmetrizer comes back reduced already
    return poly if isinstance(e, (Prod, Comm, Symm)) else nf(poly)


def _unreduced(poly: NcPoly) -> NcPoly:
    return poly


def _eval(e, nf: Callable[[NcPoly], NcPoly]) -> NcPoly:
    if isinstance(e, Num):
        return NcPoly.from_scalar(e.value)
    if isinstance(e, ImagUnit):
        return NcPoly.from_scalar(Scalar.imag_unit())
    if isinstance(e, Param):
        return NcPoly.from_scalar(Scalar.param(e.name, e.exp))
    if isinstance(e, Generator):
        return NcPoly.from_word((e,))
    if isinstance(e, Prod):
        out = _eval(e.factors[0], nf)
        for f in e.factors[1:]:
            out = nf(out * _eval(f, nf))
        return out
    if isinstance(e, Sum):
        return NcPoly.total(_eval(part, nf) if sign > 0 else -_eval(part, nf)
                            for sign, part in e.parts)
    if isinstance(e, Comm):
        return nf(commutator(_eval(e.a, nf), _eval(e.b, nf)))
    if isinstance(e, Symm):
        return nf(symmetrize([_eval(f, nf) for f in e.factors]))
    raise TypeError(f"not an expression node: {e!r}")


def world(name: str) -> RewriteSystem:
    try:
        return NAMED_SYSTEMS[name]
    except KeyError:
        raise ValueError(f"unknown world {name!r}; choose from "
                         f"{sorted(set(NAMED_SYSTEMS))}") from None
