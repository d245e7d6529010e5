"""Surface syntax for algebra expressions.

Grammar (whitespace separates juxtaposed factors, juxtaposition multiplies):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (['.'] factor)*
    symm   := '{' factor+ '}'
    factor := NUMBER | param | gen | '[' expr ',' expr ']' | symm | '(' expr ')'
    param  := PNAME ('^' ['-'] digits)?          names from the parameter set
    gen    := NAME (('^' | '_') digits)? (',' digits)? '\''*
    NUMBER := digits ('/' digits)?

Generator index digits are read one index per digit (Q^12 has indices 1,2);
the digits after a comma are formal-derivative indices (g_11,2). The single
letter i is the imaginary unit. Parsing a canonical print returns the same
tree; printing a parse is normalizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .constraints import symmetrize
from .ncpoly import Generator, NcPoly, commutator
from .quotient import NAMED_SYSTEMS, RewriteSystem, reduce_poly
from .scalar import Scalar

DEFAULT_PARAMS = frozenset({"hbar", "m", "dt", "tau", "k", "Delta"})
# A symmetrized product of n factors expands into n! products.
MAX_SYMM_FACTORS = 8


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

@dataclass(frozen=True)
class Token:
    kind: str          # NUMBER NAME PUNCT END
    text: str
    line: int
    col: int
    # attached generator suffix, lexed only when adjacent to a NAME
    index_digits: str | None = None
    index_signed: bool = False
    deriv_digits: str | None = None
    primes: int = 0


_PUNCT = set("[](){}+-,.")


def _tokens(src: str) -> Iterator[Token]:
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == "/" and j + 1 < n and src[j + 1].isdigit():
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
            yield Token("NUMBER", src[i:j], line, start_col)
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and src[j].isalpha():
                j += 1
            name = src[i:j]
            index_digits = None
            index_signed = False
            deriv_digits = None
            primes = 0
            if j < n and src[j] in "^_":
                marker = src[j]
                j += 1
                k = j
                if marker == "^" and k < n and src[k] == "-":
                    index_signed = True
                    k += 1
                digits_start = k
                while k < n and src[k].isdigit():
                    k += 1
                # "theta_,1" carries derivative indices only
                deriv_only = marker == "_" and src[k:k + 1] == "," and src[k + 1:k + 2].isdigit()
                if k == digits_start and not deriv_only:
                    raise ParseError(f"missing digits after {marker!r}", line,
                                     start_col + k - i, ("digits",))
                index_digits = src[j:k]
                j = k
            if j + 1 < n and src[j] == "," and src[j + 1].isdigit():
                j += 1
                k = j
                while k < n and src[k].isdigit():
                    k += 1
                deriv_digits = src[j:k]
                j = k
            while j < n and src[j] == "'":
                primes += 1
                j += 1
            yield Token("NAME", name, line, start_col,
                        index_digits=index_digits, index_signed=index_signed,
                        deriv_digits=deriv_digits, primes=primes)
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            if ch == "." and i + 1 < n and src[i + 1].isdigit():
                raise ParseError("decimal literals are not supported; use p/q",
                                 line, start_col)
            yield Token("PUNCT", ch, line, start_col)
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    yield Token("END", "", line, col)


class _Parser:
    def __init__(self, src: str, params: frozenset[str]):
        self.tokens = list(_tokens(src))
        self.pos = 0
        self.params = params

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text == text:
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
        return tok.kind == "PUNCT" and tok.text == text

    def _starts_factor(self) -> bool:
        tok = self.peek()
        if tok.kind in ("NUMBER", "NAME"):
            return True
        return tok.kind == "PUNCT" and tok.text in "[{("

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            try:
                return Num(Fraction(tok.text))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {tok.text!r}", tok.line, tok.col) from None
        if tok.kind == "NAME":
            self.advance()
            return self._name_node(tok)
        if tok.kind == "PUNCT" and tok.text == "[":
            self.advance()
            a = self.parse_expr()
            self.expect(",")
            b = self.parse_expr()
            self.expect("]")
            return Comm(a, b)
        if tok.kind == "PUNCT" and tok.text == "{":
            self.advance()
            factors = [self.parse_factor()]
            while self._starts_factor():
                if len(factors) == MAX_SYMM_FACTORS:
                    self.fail(f"a symmetrized product takes at most {MAX_SYMM_FACTORS} factors")
                factors.append(self.parse_factor())
            self.expect("}")
            return Symm(tuple(factors))
        if tok.kind == "PUNCT" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        self.fail(f"found {tok.text!r}" if tok.text else "unexpected end of input",
                  ("number", "name", "[", "{", "("))

    def _name_node(self, tok: Token):
        if tok.text == "i" and tok.index_digits is None and not tok.primes and tok.deriv_digits is None:
            return ImagUnit()
        if tok.text in self.params:
            if tok.deriv_digits is not None or tok.primes:
                raise ParseError(f"parameter {tok.text!r} takes only an exponent",
                                 tok.line, tok.col)
            exp = int(tok.index_digits) if tok.index_digits else 1
            if exp == 0:
                raise ParseError("zero exponent", tok.line, tok.col)
            return Param(tok.text, exp)
        if tok.index_signed:
            raise ParseError("generator indices cannot be negative", tok.line, tok.col)
        indices = tuple(int(d) for d in (tok.index_digits or ""))
        derivs = tuple(int(d) for d in (tok.deriv_digits or ""))
        return Generator(tok.text, indices, derivs, tok.primes)


def parse(src: str, params: frozenset[str] = DEFAULT_PARAMS):
    parser = _Parser(src, params)
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "END":
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
    poly = _eval(e)
    if system is not None and system.rules:
        poly = reduce_poly(poly, system, max_steps)
    return poly


def _eval(e) -> NcPoly:
    if isinstance(e, Num):
        return NcPoly.from_scalar(e.value)
    if isinstance(e, ImagUnit):
        return NcPoly.from_scalar(Scalar.imag_unit())
    if isinstance(e, Param):
        return NcPoly.from_scalar(Scalar.param(e.name, e.exp))
    if isinstance(e, Generator):
        return NcPoly.from_word((e,))
    if isinstance(e, Prod):
        out = NcPoly.one()
        for f in e.factors:
            out = out * _eval(f)
        return out
    if isinstance(e, Sum):
        return NcPoly.total(_eval(part) if sign > 0 else -_eval(part)
                            for sign, part in e.parts)
    if isinstance(e, Comm):
        return commutator(_eval(e.a), _eval(e.b))
    if isinstance(e, Symm):
        return symmetrize([_eval(f) for f in e.factors])
    raise TypeError(f"not an expression node: {e!r}")


def world(name: str) -> RewriteSystem:
    try:
        return NAMED_SYSTEMS[name]
    except KeyError:
        raise ValueError(f"unknown world {name!r}; choose from "
                         f"{sorted(set(NAMED_SYSTEMS))}") from None
