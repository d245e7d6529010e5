"""Output oracles for the benchmark's request families.

Nothing here imports ``ncworlds``: each oracle parses the printed output with
its own parser and compares it with a closed form or a known verdict.

- qp-power: (Q_i P_i)^n = sum_k (-1)^(n+k) S(n,k) Q_i^k P_i^k, with S the
  Stirling numbers of the second kind (Blasiak, Penson and Solomon,
  "Combinatorics of boson normal ordering", 2003).
- pq-product: P^a Q^c = sum_k (-1)^k k! C(a,k) C(c,k) Q^(c-k) P^(a-k), one
  factor per index, since different indices commute.
- scaled-product: the same with the scalar (i hbar)^a (p^e)^c in front.
- p-theta: P_j^n theta = sum_k (-1)^k C(n,k) theta_,j..j (k indices) P_j^(n-k).
- abc-word: one word, coefficient 1, the input's letters, no B.A or B.C.A.
- symmetrize: every distinct ordering of the factors, each with
  coefficient prod(mult!) / n!.
- tower: level n is the complete Bell polynomial; the monomial
  prod_j (h^(k_j))^(e_j) theta has coefficient n! / prod_j ((k_j+1)!^e_j e_j!).
- decompose: the printed terms, summed, give back the input matrix.
- verify, em-sim: the known verdict, every check passes with residual 0.

``CORRUPTERS`` make wrong copies of a real output (one coefficient changed,
one term dropped); the benchmark checks that the oracle rejects each one.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

PARAM_NAMES = frozenset({"hbar", "m", "dt", "tau", "k", "Delta"})
EM_EQUATIONS = ["lorentz-force", "divergence-b", "faraday-with-curvature",
                "ampere-with-waves"]

# A scalar is {monomial: (re, im)}; a monomial is a sorted tuple of
# (name, exponent). A polynomial is {word: scalar}; a word is a tuple of
# generator texts.
ONE = {(): (Fraction(1), Fraction(0))}


class Mismatch(Exception):
    """The output disagrees with the oracle."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# -- text parsing ---------------------------------------------------------------

_RATIONAL = re.compile(r"-?\d+(/\d+)?")
_IMAG = re.compile(r"(-?)(\d+(?:/\d+)?)?i")
_MONO_FACTOR = re.compile(r"([A-Za-z]+)(?:\^(-?\d+))?")
_GENERATOR = re.compile(r"[A-Za-z]+(_\d*(,\d+)?)?'*")


def _split_top(text: str, seps: tuple[str, ...]) -> list[tuple[str, str]]:
    """Split at separators outside parentheses; returns (separator, piece)."""
    out: list[tuple[str, str]] = []
    depth, start, sep, i = 0, 0, "", 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            hit = next((s for s in seps if text.startswith(s, i)), None)
            if hit:
                out.append((sep, text[start:i]))
                sep, start = hit, i + len(hit)
                i = start
                continue
        i += 1
    out.append((sep, text[start:]))
    return out


def _matching_paren(text: str) -> int:
    depth = 0
    for i, ch in enumerate(text):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth == 0:
            return i
    raise Mismatch(f"unbalanced parentheses in {text!r}")


def _gaussian(token: str) -> tuple[Fraction, Fraction]:
    if _RATIONAL.fullmatch(token):
        return Fraction(token), Fraction(0)
    m = _IMAG.fullmatch(token)
    if m:
        mag = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        return Fraction(0), -mag if m.group(1) else mag
    if token.startswith("(") and token.endswith(")"):
        pieces = _split_top(token[1:-1], (" + ", " - "))
        _expect(len(pieces) == 2, f"bad complex number {token!r}")
        (_, re_text), (sep, im_text) = pieces
        re_part, _ = _gaussian(re_text)
        _, im_part = _gaussian(im_text)
        _expect(re_part != 0 and im_part > 0, f"non-canonical complex number {token!r}")
        return re_part, -im_part if sep == " - " else im_part
    raise Mismatch(f"bad number {token!r}")


def _monomial(tokens: list[str]) -> tuple:
    exps: dict[str, int] = {}
    for tok in tokens:
        m = _MONO_FACTOR.fullmatch(tok)
        _expect(m is not None, f"bad parameter factor {tok!r}")
        exps[m.group(1)] = exps.get(m.group(1), 0) + int(m.group(2) or 1)
    return tuple(sorted((k, v) for k, v in exps.items() if v))


def parse_scalar(text: str) -> dict:
    out: dict = {}
    for sep, piece in _split_top(text, (" + ", " - ")):
        sign = -1 if sep == " - " else 1
        if piece.startswith("-"):
            sign, piece = -sign, piece[1:]
        if piece.startswith("("):
            end = _matching_paren(piece)
            re_part, im_part = _gaussian(piece[:end + 1])
            mono = _monomial(piece[end + 1:].split())
        else:
            tokens = piece.split()
            try:
                re_part, im_part = _gaussian(tokens[0])
                tokens = tokens[1:]
            except Mismatch:
                re_part, im_part = Fraction(1), Fraction(0)
            mono = _monomial(tokens)
        old = out.get(mono, (Fraction(0), Fraction(0)))
        out[mono] = (old[0] + sign * re_part, old[1] + sign * im_part)
    return {m: c for m, c in out.items() if c != (0, 0)}


def _word(text: str) -> tuple[str, ...] | None:
    gens = text.split(".")
    for g in gens:
        if not _GENERATOR.fullmatch(g) or g in PARAM_NAMES or g == "i":
            return None
    return tuple(gens)


def parse_poly(text: str) -> dict:
    """Parse a printed normal form into {word: scalar}."""
    out: dict = {}
    if text == "0":
        return out
    for _, part in _split_top(text, (" + ",)):
        if part.startswith("("):
            end = _matching_paren(part)
            coeff = parse_scalar(part[1:end])
            rest = part[end + 1:].strip()
            word = _word(rest) if rest else ()
            _expect(word is not None, f"bad word {rest!r}")
        else:
            word = _word(part)
            coeff = ONE if word is not None else parse_scalar(part)
            word = word or ()
        _expect(word not in out, f"word {'.'.join(word) or '1'} printed twice")
        _expect(bool(coeff), f"zero coefficient printed in {part!r}")
        out[word] = coeff
    return out


def _json(text: str) -> dict:
    lines = text.splitlines()
    _expect(len(lines) == 1, f"expected one output line, got {len(lines)}")
    try:
        return json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from None


def _compare(got: dict, want: dict) -> None:
    for w in sorted(set(got) | set(want)):
        _expect(got.get(w) == want.get(w),
                f"word {'.'.join(w) or '1'}: got {got.get(w)}, want {want.get(w)}")


# -- closed forms ---------------------------------------------------------------

def stirling2(n: int, k: int) -> int:
    row = [1]                                   # S(0, j)
    for i in range(1, n + 1):
        row = [0] + [j * (row[j] if j < i else 0) + row[j - 1] for j in range(1, i + 1)]
    return row[k] if k < len(row) else 0


def _rat(x) -> dict:
    return {(): (Fraction(x), Fraction(0))}


def _pq_terms(a: int, c: int) -> list[tuple[int, int, int]]:
    """(coefficient, Q power, P power) of P^a Q^c in normal order."""
    return [((-1) ** k * factorial(k) * comb(a, k) * comb(c, k), c - k, a - k)
            for k in range(min(a, c) + 1)]


def _gens(name: str, index: int, power: int) -> tuple[str, ...]:
    return (f"{name}_{index}",) * power


def expect_qp_power(n: int, i: int) -> dict:
    return {_gens("Q", i, k) + _gens("P", i, k): _rat((-1) ** (n + k) * stirling2(n, k))
            for k in range(1, n + 1)}


def expect_pq_product(a: int, b: int, c: int, d: int, i: int, j: int) -> dict:
    out = {}
    for ci, qi, pi in _pq_terms(a, c):
        for cj, qj, pj in _pq_terms(b, d):
            q = {i: qi, j: qj}
            p = {i: pi, j: pj}
            lo, hi = sorted((i, j))
            word = (_gens("Q", lo, q[lo]) + _gens("Q", hi, q[hi])
                    + _gens("P", lo, p[lo]) + _gens("P", hi, p[hi]))
            out[word] = _rat(ci * cj)
    return out


def expect_scaled_product(a: int, c: int, j: int, param: str, exp: int) -> dict:
    mono = tuple(sorted(((("hbar", a),) + ((param, exp * c),))))
    unit = [(1, 0), (0, 1), (-1, 0), (0, -1)][a % 4]   # i^a
    out = {}
    for coeff, q, p in _pq_terms(a, c):
        out[_gens("Q", j, q) + _gens("P", j, p)] = {
            mono: (Fraction(coeff * unit[0]), Fraction(coeff * unit[1]))}
    return out


def expect_p_theta(n: int, j: int) -> dict:
    return {(("theta_," + str(j) * k) if k else "theta",) + _gens("P", j, n - k):
            _rat((-1) ** k * comb(n, k)) for k in range(n + 1)}


def expect_symmetrize(letters: str) -> dict:
    coeff = Fraction(1, factorial(len(letters)))
    for mult in Counter(letters).values():
        coeff *= factorial(mult)
    return {w: _rat(coeff) for w in set(permutations(letters))}


def partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def expect_tower_level(n: int) -> dict:
    """Complete Bell polynomial: {((k, e), ...) + theta: coefficient}."""
    out = {}
    for parts in partitions(n):
        mults = Counter(parts)
        coeff = Fraction(factorial(n))
        for part, e in mults.items():
            coeff /= factorial(part) ** e * factorial(e)
        key = tuple(sorted([(part - 1, e) for part, e in mults.items()] + [(-1, 1)]))
        out[key] = coeff
    return out


_CSYM = re.compile(r"(h\^\((\d+)\)|h('*)|theta)(?:\^(\d+))?")


def parse_tower_level(text: str) -> dict:
    """Parse a classical level such as "h^2 theta + 3 h' theta"."""
    out: dict = {}
    for sep, piece in _split_top(text, (" + ", " - ")):
        sign = -1 if sep == " - " else 1
        if piece.startswith("-"):
            sign, piece = -sign, piece[1:]
        tokens = piece.split()
        coeff = Fraction(1)
        if tokens and _RATIONAL.fullmatch(tokens[0]):
            coeff = Fraction(tokens.pop(0))
        powers: Counter = Counter()
        for tok in tokens:
            m = _CSYM.fullmatch(tok)
            _expect(m is not None, f"bad tower factor {tok!r}")
            if m.group(1) == "theta":
                k = -1
            elif m.group(2) is not None:
                k = int(m.group(2))
            else:
                k = len(m.group(3))
            powers[k] += int(m.group(4) or 1)
        key = tuple(sorted(powers.items()))
        _expect(key not in out, f"monomial printed twice in {text!r}")
        out[key] = sign * coeff
    return out


# -- oracles --------------------------------------------------------------------

def _reduce_output(spec: dict, text: str) -> dict:
    obj = _json(text)
    _expect(set(obj) == {"input", "normal_form", "world"}, f"keys {sorted(obj)}")
    _expect(obj["world"] == spec["world"], f"world {obj['world']!r}")
    return parse_poly(obj["normal_form"])


def check_abc_word(spec: dict, text: str) -> None:
    poly = _reduce_output(spec, text)
    _expect(len(poly) == 1, f"expected one word, got {len(poly)} terms")
    (word, coeff), = poly.items()
    _expect(coeff == ONE, "coefficient is not 1")
    _expect(sorted(word) == sorted(spec["letters"]), "letters changed")
    joined = ".".join(word)
    _expect("B.A" not in joined and "B.C.A" not in joined, f"{joined} is reducible")


def _closed_form(expect):
    def check(spec: dict, text: str) -> None:
        args = {k: v for k, v in spec.items() if k != "world"}
        _compare(_reduce_output(spec, text), expect(**args))
    return check


def check_tower(spec: dict, text: str) -> None:
    obj = _json(text)
    levels = obj.get("levels")
    _expect(isinstance(levels, list)
            and [lvl.get("level") for lvl in levels] == list(range(1, spec["levels"] + 1)),
            "wrong level list")
    for lvl in levels:
        got = parse_tower_level(lvl["polynomial"])
        want = expect_tower_level(lvl["level"])
        _expect(got == want, f"level {lvl['level']} is not the complete Bell polynomial")


def check_decompose(spec: dict, text: str) -> None:
    obj = _json(text)
    rows = spec["rows"]
    n = len(rows)
    _expect(obj.get("n") == n and obj.get("reconstructs") is True, "bad header")
    total = [[Fraction(0)] * n for _ in range(n)]
    seen = set()
    for term in obj["terms"]:
        perm, diag = tuple(term["permutation"]), term["diagonal"]
        _expect(sorted(perm) == list(range(1, n + 1)) and perm not in seen,
                f"bad permutation {perm}")
        _expect(len(diag) == n, "bad diagonal length")
        seen.add(perm)
        for i, x in enumerate(diag):
            _expect(_RATIONAL.fullmatch(x) is not None, f"bad entry {x!r}")
            total[i][perm[i] - 1] += Fraction(x)
    _expect(total == rows, "terms do not sum to the input matrix")


def check_verify(spec: dict, text: str) -> None:
    obj = _json(text)
    _expect(obj.get("suite") == spec["suite"] and obj.get("seed") == spec["seed"],
            "wrong suite or seed")
    _expect(obj.get("status") == "pass", f"status {obj.get('status')!r}")
    checks = obj.get("checks") or []
    _expect(len(checks) > 0, "no checks")
    for c in checks:
        _expect(c.get("status") == "pass" and c.get("residual") == "0",
                f"check {c.get('id')} did not pass: {c.get('residual')!r}")


def check_em_sim(spec: dict, text: str) -> None:
    obj = _json(text)
    _expect(obj.get("seed") == spec["seed"] and obj.get("trials") == spec["trials"],
            "wrong seed or trial count")
    _expect(obj.get("residual_max") == "0", f"residual {obj.get('residual_max')!r}")
    eqs = obj.get("equations") or []
    _expect([e.get("id") for e in eqs] == EM_EQUATIONS, "wrong equation list")
    _expect(all(e.get("holds") is True for e in eqs), "an equation does not hold")


ORACLES = {
    "qp-power": _closed_form(expect_qp_power),
    "pq-product": _closed_form(expect_pq_product),
    "scaled-product": _closed_form(expect_scaled_product),
    "p-theta": _closed_form(expect_p_theta),
    "abc-word": check_abc_word,
    "symmetrize": _closed_form(expect_symmetrize),
    "tower": check_tower,
    "decompose": check_decompose,
    "verify": check_verify,
    "em-sim": check_em_sim,
}


def check(family: str, spec: dict, text: str) -> None:
    """Raise Mismatch unless ``text`` is a right output for the request."""
    try:
        ORACLES[family](spec, text)
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        raise Mismatch(f"malformed output: {type(exc).__name__}: {exc}") from None


# -- corrupted copies -----------------------------------------------------------

def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _recoefficient(part: str) -> str:
    """Change the coefficient of one printed term of a normal form."""
    if part.startswith("("):
        end = _matching_paren(part)
        rest = part[end + 1:].strip()
        return rest or "1"                      # coefficient was not 1
    if _word(part) is not None:
        return "(2) " + part
    return f"(-{part})"


def corrupt_reduce(text: str) -> list[str]:
    obj = json.loads(text)
    parts = [p for _, p in _split_top(obj["normal_form"], (" + ",))]
    changed = [_recoefficient(parts[0])] + parts[1:]
    dropped = parts[:-1] or ["0"]
    return [_dump(dict(obj, normal_form=" + ".join(p))) for p in (changed, dropped)]


def corrupt_tower(text: str) -> list[str]:
    obj = json.loads(text)
    out = []
    poly = obj["levels"][-1]["polynomial"]
    m = re.match(r"\d+", poly)
    recoeff = f"{int(m.group()) + 1}{poly[m.end():]}" if m else "2 " + poly
    pieces = _split_top(poly, (" + ", " - "))
    dropped = pieces[0][1] + "".join(sep + p for sep, p in pieces[1:-1]) if len(pieces) > 1 else "0"
    for new in (recoeff, dropped):
        levels = [dict(lvl) for lvl in obj["levels"]]
        levels[-1]["polynomial"] = new
        out.append(_dump(dict(obj, levels=levels)))
    return out


def corrupt_decompose(text: str) -> list[str]:
    obj = json.loads(text)
    terms = [dict(t) for t in obj["terms"]]
    diag = list(terms[0]["diagonal"])
    diag[0] = str(Fraction(diag[0]) + 1)
    terms[0]["diagonal"] = diag
    return [_dump(dict(obj, terms=terms)), _dump(dict(obj, terms=obj["terms"][:-1]))]


def corrupt_verify(text: str) -> list[str]:
    obj = json.loads(text)
    out = []
    for key, value in (("residual", "1"), ("status", "fail")):
        checks = [dict(c) for c in obj["checks"]]
        checks[0][key] = value
        out.append(_dump(dict(obj, checks=checks)))
    return out


def corrupt_em_sim(text: str) -> list[str]:
    obj = json.loads(text)
    eqs = [dict(e) for e in obj["equations"]]
    eqs[0]["holds"] = False
    return [_dump(dict(obj, residual_max="1")), _dump(dict(obj, equations=eqs))]


CORRUPTERS = {
    **{family: corrupt_reduce for family in ("qp-power", "pq-product", "scaled-product",
                                             "p-theta", "abc-word", "symmetrize")},
    "tower": corrupt_tower,
    "decompose": corrupt_decompose,
    "verify": corrupt_verify,
    "em-sim": corrupt_em_sim,
}
