"""Symmetrized operator products and the constraint hierarchy.

The symmetrizer averages a product over all orderings of its factors; it is
the correspondence rule taking classical monomials to operators. Asking the
operator image of each classical derivative formula to match the operator
derivative produces a tower of constraints, each equivalent to a commutator
equation. The classical side lives in a small commutative polynomial ring
whose derivation d(theta) = h theta, d(h^(k)) = h^(k+1) generates the
derivative tower.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Sequence

from .ncpoly import G, NcPoly, Word, commutator
from .quotient import ABC, FLAT_FN, Q, P, reduce_poly
from .scalar import Coeff, RatLike, Scalar, narrow
from .sparse import SparseSum, add_into


def symmetrize(factors: Sequence[NcPoly]) -> NcPoly:
    """Average of the product over all orderings of the factor list.

    The average depends only on the multiset of factors (McCoy's symmetric
    ordering rule), so it is a sum over distinct arrangements. With m_i
    copies of the distinct factor f_i and n factors in all, it is
    (prod m_i! / n!) S(m), where S(c) is the sum of the products of the
    distinct arrangements of the multiset c, grouped by their last factor:
    S(c) = sum over i with c_i > 0 of S(c - e_i) f_i, and S(e_i) = f_i.
    Each sub-multiset is summed once, so n distinct factors take fewer than
    n 2^(n-1) products of a partial sum by a factor where the n! orderings
    take n - 1 products each, and ``{T H H H H H}`` takes 14 where its 720
    orderings would take 3600.
    """
    if not factors:
        raise ValueError("symmetrize needs at least one factor")
    distinct: list[NcPoly] = []
    counts: list[int] = []
    for f in factors:
        if f in distinct:
            counts[distinct.index(f)] += 1
        else:
            distinct.append(f)
            counts.append(1)
    zero = (0,) * len(distinct)
    memo = {zero[:i] + (1,) + zero[i + 1:]: f._terms for i, f in enumerate(distinct)}

    def arrangements(c: tuple[int, ...]) -> dict[Word, Coeff]:
        if c not in memo:
            terms: dict[Word, Coeff] = {}
            for i, k in enumerate(c):
                if k:
                    last = distinct[i]._terms.items()
                    for w1, c1 in arrangements(c[:i] + (k - 1,) + c[i + 1:]).items():
                        for w2, c2 in last:
                            add_into(terms, w1 + w2, c1 * c2)
            memo[c] = terms
        return memo[c]

    weight = narrow(Fraction(prod(map(factorial, counts)), factorial(len(factors))))
    return NcPoly({w: c * weight for w, c in arrangements(tuple(counts)).items()})


# -- second constraint -------------------------------------------------------

def second_constraint_residual(theta: NcPoly, h: NcPoly) -> NcPoly:
    """{T H H} - {{T H} H} - (1/12) [[T, H], H]; zero in the free algebra,
    so the symmetrized constraint is the commutator equation [[T,H],H] = 0."""
    lhs = symmetrize([theta, h, h]) - symmetrize([symmetrize([theta, h]), h])
    return lhs - commutator(commutator(theta, h), h) / 12


def requirement_form_residual(theta: NcPoly, h: NcPoly) -> NcPoly:
    """T H^2 + H^2 T - 2 H T H equals [[T, H], H] identically."""
    direct = theta * h * h + h * h * theta - (h * theta * h).scaled(2)
    return direct - commutator(commutator(theta, h), h)


@dataclass(frozen=True)
class AbcIdentity:
    """Reduction of {ABC} - {A{BC}} under AB = BA, ACB = BCA."""

    reduced_difference: NcPoly      # should be (1/12)(ABC - 2 ACB + CAB)
    intermediate_residual: NcPoly   # difference minus that display
    commutator_residual: NcPoly     # difference minus (1/12)[A,[B,C]], reduced

    def ok(self) -> bool:
        return self.intermediate_residual.is_zero() and self.commutator_residual.is_zero()


def symmetrizer_commutator_identity() -> AbcIdentity:
    a, b, c = NcPoly.gen("A"), NcPoly.gen("B"), NcPoly.gen("C")
    diff = symmetrize([a, b, c]) - symmetrize([a, symmetrize([b, c])])
    reduced = reduce_poly(diff, ABC)
    display = (a * b * c - (a * c * b).scaled(2) + c * a * b) / 12
    bracket = commutator(a, commutator(b, c)) / 12
    return AbcIdentity(
        reduced_difference=reduced,
        intermediate_residual=reduced - reduce_poly(display, ABC),
        commutator_residual=reduced - reduce_poly(bracket, ABC),
    )


# -- third constraint --------------------------------------------------------

@dataclass(frozen=True)
class ThirdConstraint:
    expansion_double: NcPoly   # [H^2,[H,T]] minus its displayed expansion
    expansion_dotted: NcPoly   # [Hdot,[H,T]] - 2[H,[Hdot,T]] minus its expansion
    ratio: Fraction | None     # c with {T'''} - {T''}^dot = c * commutator form
    ratio_residual: NcPoly     # global residual after fitting c


def third_constraint_check(theta: NcPoly, h: NcPoly, hdot: NcPoly) -> ThirdConstraint:
    hddot = NcPoly.gen("H", primes=2)
    hh = h * h
    exp1 = commutator(hh, commutator(h, theta)) - (
        h * h * h * theta - h * h * theta * h - h * theta * h * h + theta * h * h * h
    )
    exp2 = (commutator(hdot, commutator(h, theta))
            - commutator(h, commutator(hdot, theta)).scaled(2)) - (
        hdot * h * theta + hdot * theta * h + h * theta * hdot + theta * h * hdot
        - (h * hdot * theta + theta * hdot * h).scaled(2)
    )

    # symmetrized third derivative, straight from the classical tower
    tower = derivative_tower(3)
    sym_third = symmetrized_level(tower[2], theta, [h, hdot, hddot])
    sym_second_dotted = symmetrized_level_dot(tower[1], theta, [h, hdot, hddot])
    diff = sym_third - sym_second_dotted

    target = (commutator(hh, commutator(h, theta))
              - commutator(hdot, commutator(h, theta))
              + commutator(h, commutator(hdot, theta)).scaled(2))

    ratio = _match_ratio(diff, target)
    if ratio is None:
        ratio_residual = diff
    else:
        ratio_residual = diff - target.scaled(ratio)
    return ThirdConstraint(exp1, exp2, ratio, ratio_residual)


def _match_ratio(diff: NcPoly, target: NcPoly) -> Fraction | None:
    """Solve diff = c * target from the first word where both coefficients
    are nonzero rational constants, if any."""
    for w, c in target.terms():
        c, d = narrow(c), narrow(diff.coeff(w))
        if d and not isinstance(c, Scalar) and not isinstance(d, Scalar):
            return Fraction(d) / c
    return None


# -- curvature form of the second constraint ---------------------------------

def theta_sym(i: int, j: int) -> NcPoly:
    """Symmetric second-derivative symbol: indices stored sorted."""
    lo, hi = min(i, j), max(i, j)
    return NcPoly.gen("Theta", lo, hi)


def curvature_form_check(n: int) -> tuple[dict[tuple[int, int], NcPoly], NcPoly]:
    """Per-pair residual of the rearrangement
    [[T_ij, H_j], H_i] = [[T_ij, H_i], H_j] + [[H_i, H_j], T_ij]
    plus the summed weave sum_ij [[H_i, H_j], T_ij], which cancels pairwise
    for symmetric T."""
    residuals: dict[tuple[int, int], NcPoly] = {}
    weaves = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            hi, hj, t = NcPoly.gen("H", i), NcPoly.gen("H", j), theta_sym(i, j)
            lhs = commutator(commutator(t, hj), hi)
            rhs = commutator(commutator(t, hi), hj) + commutator(commutator(hi, hj), t)
            residuals[(i, j)] = lhs - rhs
            weaves.append(commutator(commutator(hi, hj), t))
    return residuals, NcPoly.total(weaves)


# -- first constraint with the quadratic Hamiltonian --------------------------

def quadratic_hamiltonian(n: int) -> NcPoly:
    """(1/4) sum_ij (g_ij P_i P_j + P_i P_j g_ij) with symmetric g."""
    def term(i: int, j: int) -> NcPoly:
        g = NcPoly.from_word((G("g", min(i, j), max(i, j)),))
        return g * P(i) * P(j) + P(i) * P(j) * g

    pairs = range(1, n + 1)
    return NcPoly.total(term(i, j) for i in pairs for j in pairs) / 4


def first_constraint_residual(n: int) -> NcPoly:
    """[theta, H] - sum_i {Hdot_i theta_i} for the quadratic Hamiltonian,
    reduced in the flat world with function symbols g_ij and theta."""
    theta = NcPoly.gen("theta")
    h = quadratic_hamiltonian(n)
    lhs = reduce_poly(commutator(theta, h), FLAT_FN)
    rhs = NcPoly.total(
        symmetrize([reduce_poly(commutator(Q(i), h), FLAT_FN),
                    reduce_poly(commutator(theta, P(i)), FLAT_FN)])
        for i in range(1, n + 1))
    return reduce_poly(lhs - rhs, FLAT_FN)


# -- classical derivative tower ----------------------------------------------

# commutative symbols: ("theta", 0) or ("h", k) for the k-th derivative of h
CSym = tuple[str, int]
CMonomial = tuple[CSym, ...]

THETA: CSym = ("theta", 0)


def hsym(k: int = 0) -> CSym:
    return ("h", k)


class CPoly(SparseSum):
    """Commutative polynomial in theta and the derivatives of h; a monomial
    is the sorted tuple of its symbols."""

    __slots__ = ()

    @staticmethod
    def monomial(syms: Iterable[CSym], coeff: RatLike = 1) -> "CPoly":
        return CPoly({tuple(sorted(syms)): narrow(coeff)})

    def coeff(self, syms: Iterable[CSym]) -> RatLike:
        return self._terms.get(tuple(sorted(syms)), 0)

    def derive(self) -> "CPoly":
        """Leibniz derivation with d theta = h theta and d h^(k) = h^(k+1):
        one term per distinct symbol, times its number of copies."""
        terms: dict[CMonomial, RatLike] = {}
        for m, c in self._terms.items():
            end = 0
            while end < len(m):
                sym = m[end]
                copies = m.count(sym)
                end += copies
                # the grown key is sorted without a sort: h = h^(0) sorts
                # first, and h^(k+1) sorts directly after h^(k), whose last
                # copy it replaces
                if sym == THETA:
                    grown = (hsym(0),) + m
                else:
                    grown = m[:end - 1] + (("h", sym[1] + 1),) + m[end:]
                add_into(terms, grown, c * copies)
        return self._like(terms)

    def coefficient_sum(self) -> RatLike:
        return sum(self._terms.values())

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m, c in self.terms():
            body = " ".join(_csym_text(s, m.count(s)) for s in dict.fromkeys(m)) or "1"
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c} {body}")
        out = parts[0]
        for p in parts[1:]:
            out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
        return out

    def __repr__(self) -> str:
        return f"CPoly({self.to_text()})"


def _csym_text(sym: CSym, power: int) -> str:
    name, k = sym
    if name == "theta":
        base = "theta"
    elif k == 0:
        base = "h"
    elif k <= 3:
        base = "h" + "'" * k
    else:
        base = f"h^({k})"
    return base if power == 1 else f"{base}^{power}"


@dataclass(frozen=True)
class TowerLevel:
    level: int
    polynomial: CPoly


def derivative_tower(levels: int) -> list[TowerLevel]:
    """Successive temporal derivatives of theta, levels 1..N."""
    if levels < 1:
        raise ValueError("need at least one level")
    out = [TowerLevel(1, CPoly.monomial((hsym(0), THETA)))]
    for n in range(2, levels + 1):
        out.append(TowerLevel(n, out[-1].polynomial.derive()))
    return out


def hprime_coefficient(level: TowerLevel) -> RatLike:
    """Coefficient of h^(n-2) theta h' at level n."""
    n = level.level
    syms = (hsym(0),) * (n - 2) + (THETA, hsym(1))
    return level.polynomial.coeff(syms)


def hprime2_coefficient(level: TowerLevel) -> RatLike:
    """Coefficient of h^(n-4) theta h'^2 at level n."""
    n = level.level
    syms = (hsym(0),) * (n - 4) + (THETA, hsym(1), hsym(1))
    return level.polynomial.coeff(syms)


def _factor_polys(m: CMonomial, theta: NcPoly, h_derivs: Sequence[NcPoly]) -> list[NcPoly]:
    factors = []
    for name, k in m:
        if name == "theta":
            factors.append(theta)
        else:
            if k >= len(h_derivs):
                raise ValueError(f"no operator supplied for derivative order {k}")
            factors.append(h_derivs[k])
    return factors


def symmetrized_level(level: TowerLevel, theta: NcPoly,
                      h_derivs: Sequence[NcPoly]) -> NcPoly:
    """Operator image of a classical level: symmetrize each monomial."""
    return NcPoly.total(symmetrize(_factor_polys(m, theta, h_derivs)).scaled(c)
                        for m, c in level.polynomial.terms())


def symmetrized_level_dot(level: TowerLevel, theta: NcPoly,
                          h_derivs: Sequence[NcPoly]) -> NcPoly:
    """Dot-derivative of a symmetrized level, factor by factor, replacing a
    differentiated theta by the nested first-constraint value {theta h}."""
    theta_dot = symmetrize([theta, h_derivs[0]])

    def dotted(m: CMonomial, sym: CSym) -> NcPoly:
        """The symmetrized monomial with one copy of ``sym`` differentiated."""
        pos = m.index(sym)
        factors = _factor_polys(m[:pos] + m[pos + 1:], theta, h_derivs)
        if sym == THETA:
            factors.append(theta_dot)
        else:
            _, k = sym
            if k + 1 >= len(h_derivs):
                raise ValueError(f"no operator supplied for derivative order {k + 1}")
            factors.append(h_derivs[k + 1])
        return symmetrize(factors)

    return NcPoly.total(dotted(m, sym).scaled(c * m.count(sym))
                        for m, c in level.polynomial.terms() for sym in dict.fromkeys(m))
