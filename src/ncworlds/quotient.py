"""Quotient algebras presented by oriented rewrite rules.

A rewrite system is an ordered list of rules; a rule inspects a word at a
position and may replace a short span by a polynomial. Reduction applies the
first matching rule at the leftmost position, repeatedly, until no rule
fires. The shipped systems terminate: each rule strictly decreases either
the number of out-of-order adjacent pairs or the word length.

The rule applied to a word depends on the word alone, so for a terminating
system reduction is one fixed linear map NF: NF(w) = w for an irreducible
word, else the sum of c' NF(w') over the terms c' w' of its rewrite.
``reduce_poly`` therefore sums equal words before rewriting them, since
NF(a w + b w) = (a + b) NF(w): the result is the same as following every
rewrite path apart, confluent system or not, and cancelled words cost nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .ncpoly import G, Generator, NcPoly, Word, commutator, word_text
from .scalar import Scalar
from .sparse import add_into

DEFAULT_STEP_LIMIT = 10**6
STEP_LIMIT_ENV = "NCWORLDS_MAX_STEPS"

# A rule maps (word, position) to (span length, replacement) or None.
Rule = Callable[[Word, int], Optional[tuple[int, NcPoly]]]


class ReductionError(RuntimeError):
    """Step limit exceeded; names the word that was still reducing."""

    def __init__(self, system: str, word: Word, limit: int):
        super().__init__(
            f"reduction in system {system!r} exceeded {limit} steps "
            f"while rewriting {word_text(word)}"
        )
        self.word = word
        self.limit = limit


def _classify(g: Generator, fn_names: frozenset[str] | None) -> str:
    if g.name == "Q" and g.indices and not g.derivs:
        return "Q"
    if g.name == "P" and g.indices and not g.derivs:
        return "P"
    if g.derivs or fn_names is None or g.name in fn_names:
        return "fn"
    return "other"


@dataclass(frozen=True)
class RewriteSystem:
    name: str
    rules: tuple[Rule, ...]
    note: str
    fn_names: frozenset[str] | None = frozenset()  # None means every non-Q/P name

    def classify(self, g: Generator) -> str:
        return _classify(g, self.fn_names)


def step_limit(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(STEP_LIMIT_ENV)
    return int(env) if env else DEFAULT_STEP_LIMIT


def reduce_poly(e: NcPoly, system: RewriteSystem, max_steps: int | None = None) -> NcPoly:
    """Normal form of ``e``: the fixpoint of leftmost-first rule application."""
    limit = step_limit(max_steps)
    steps = 0
    out: dict[Word, Scalar] = {}
    pending: dict[Word, Scalar] = e._terms
    while pending:
        pending, rewriting = {}, pending
        for w, c in rewriting.items():
            match = _first_match(w, system)
            if match is None:
                add_into(out, w, c)
                continue
            steps += 1
            if steps > limit:
                raise ReductionError(system.name, w, limit)
            i, span, repl = match
            prefix, suffix = w[:i], w[i + span:]
            for w2, c2 in repl._terms.items():
                add_into(pending, prefix + w2 + suffix, c * c2)
    return NcPoly(out)


def _first_match(w: Word, system: RewriteSystem) -> tuple[int, int, NcPoly] | None:
    for i in range(len(w)):
        for rule in system.rules:
            hit = rule(w, i)
            if hit is not None:
                span, repl = hit
                return i, span, repl
    return None


def subword_rule(pattern: Word, replacement: NcPoly) -> Rule:
    span = len(pattern)

    def rule(w: Word, i: int):
        if w[i:i + span] == pattern:
            return span, replacement
        return None

    return rule


# -- the flat world ---------------------------------------------------------

def _normal_order_rule(fn_names: frozenset[str] | None) -> Rule:
    # normal order: function symbols, then Q's, then P's, each family sorted;
    # P past Q costs a Kronecker delta, P past a function costs a derivative

    def rule(w: Word, i: int):
        if i + 1 >= len(w):
            return None
        x, y = w[i], w[i + 1]
        cx, cy = _classify(x, fn_names), _classify(y, fn_names)
        if cx == "other" or cy == "other":
            return None
        if cx == "P" and cy == "Q":
            repl = NcPoly.from_word((y, x))
            if x.indices == y.indices:
                repl = repl - NcPoly.one()
            return 2, repl
        if cx == "P" and cy == "fn":
            j = x.indices[0]
            return 2, NcPoly.from_word((y, x)) - NcPoly.from_word((y.with_deriv(j),))
        if cx == "Q" and cy == "fn":
            return 2, NcPoly.from_word((y, x))
        if cx == cy and y < x:
            return 2, NcPoly.from_word((y, x))
        return None

    return rule


def normal_order_system(name: str, fn_names: frozenset[str] | None) -> RewriteSystem:
    note = "each application removes an inversion or shortens the word"
    return RewriteSystem(name, (_normal_order_rule(fn_names),), note, fn_names)


FREE = RewriteSystem(name="free", rules=(), note="no relations", fn_names=frozenset())
FLAT = normal_order_system("flat", frozenset())
FLAT_FN = normal_order_system("flat-fn", None)


def flat_with_functions(fn_names: Iterable[str]) -> RewriteSystem:
    return normal_order_system("flat-fn", frozenset(fn_names))


def abc_system() -> RewriteSystem:
    a, b, c = G("A"), G("B"), G("C")
    return RewriteSystem(
        name="abc-relations",
        rules=(
            subword_rule((b, a), NcPoly.from_word((a, b))),
            subword_rule((b, c, a), NcPoly.from_word((a, c, b))),
        ),
        note="both rules strictly decrease inversions for the order A < B < C",
    )


ABC = abc_system()

NAMED_SYSTEMS = {"free": FREE, "flat": FLAT, "flat-fn": FLAT_FN, "abc": ABC,
                 "abc-relations": ABC}


# -- flat-world calculus ----------------------------------------------------

def q_gen(i: int) -> Generator:
    return G("Q", i)


def p_gen(i: int) -> Generator:
    return G("P", i)


def Q(i: int) -> NcPoly:
    return NcPoly.from_word((q_gen(i),))


def P(i: int) -> NcPoly:
    return NcPoly.from_word((p_gen(i),))


def flat_partial_q(f: NcPoly, i: int, system: RewriteSystem = FLAT,
                   max_steps: int | None = None) -> NcPoly:
    """d f / d Q_i as the reduced commutator [f, P_i]."""
    return reduce_poly(commutator(f, P(i)), system, max_steps)


def flat_partial_p(f: NcPoly, i: int, system: RewriteSystem = FLAT,
                   max_steps: int | None = None) -> NcPoly:
    """d f / d P_i as the reduced commutator [Q_i, f]."""
    return reduce_poly(commutator(Q(i), f), system, max_steps)


def formal_partial_q(f: NcPoly, i: int, system: RewriteSystem = FLAT) -> NcPoly:
    """Termwise formal derivative by Q_i of a normal-form polynomial.

    Independent of the commutator route: counts Q_i occurrences and applies
    the product rule to function-symbol factors.
    """
    out: dict[Word, Scalar] = {}
    for w, c in f.terms():
        for pos, g in enumerate(w):
            cls = system.classify(g)
            if cls == "fn":
                add_into(out, w[:pos] + (g.with_deriv(i),) + w[pos + 1:], c)
            elif cls == "Q" and g.indices == (i,):
                add_into(out, w[:pos] + w[pos + 1:], c)
    return NcPoly(out)


def formal_partial_p(f: NcPoly, i: int, system: RewriteSystem = FLAT) -> NcPoly:
    out: dict[Word, Scalar] = {}
    for w, c in f.terms():
        for pos, g in enumerate(w):
            if system.classify(g) == "P" and g.indices == (i,):
                add_into(out, w[:pos] + w[pos + 1:], c)
    return NcPoly(out)


def hamilton_check(h: NcPoly, dims: Sequence[int], system: RewriteSystem = FLAT,
                   ) -> list[tuple[NcPoly, NcPoly]]:
    """Residuals of Hamilton's equations for each coordinate index.

    The commutator route is checked against independent formal
    differentiation of the normal form; both residuals must vanish.
    """
    h_nf = reduce_poly(h, system)
    out = []
    for i in dims:
        r1 = reduce_poly(commutator(Q(i), h), system) - formal_partial_p(h_nf, i, system)
        r2 = reduce_poly(commutator(P(i), h), system) + formal_partial_q(h_nf, i, system)
        out.append((r1, r2))
    return out


def gauge_curvature_residual(a: Sequence[NcPoly], f: NcPoly, i: int, j: int,
                             system: RewriteSystem = FLAT) -> NcPoly:
    """Residual of the curvature identity for the connection G_i = P_i - A_i.

    The mixed second derivative is composed in writing order (first i then
    j, minus first j then i), which makes it equal [F, R_ij] exactly; with
    the opposite composition convention the same quantity is [R_ij, F].
    """
    g = {k: P(k) - a[k - 1] for k in (i, j)}

    def nab(k: int, x: NcPoly) -> NcPoly:
        return commutator(x, g[k])

    mixed = nab(j, nab(i, f)) - nab(i, nab(j, f))
    r_ij = (flat_partial_q(a[j - 1], i, system) - flat_partial_q(a[i - 1], j, system)
            + commutator(a[i - 1], a[j - 1]))
    return reduce_poly(mixed - commutator(f, r_ij), system)


def schroedinger_residual(dt_name: str = "dt", hbar_name: str = "hbar") -> NcPoly:
    """[psi, J/dt] - i hbar [psi, H] for J = 1 + i hbar H dt; identically 0."""
    psi = NcPoly.gen("psi")
    h = NcPoly.gen("H")
    i_hbar_dt = Scalar.imag_unit() * Scalar.param(hbar_name) * Scalar.param(dt_name)
    j_op = NcPoly.one() + h.scaled(i_hbar_dt)
    lhs = commutator(psi, j_op / Scalar.param(dt_name))
    rhs = commutator(psi, h).scaled(Scalar.imag_unit() * Scalar.param(hbar_name))
    return lhs - rhs
