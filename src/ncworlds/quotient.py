"""Quotient algebras presented by oriented rewrite rules.

A rewrite system is a named, ordered list of rules; a rule inspects a word at
a position and may replace a short span by a plain list of ``(word,
coefficient)`` terms. Reduction applies the first matching rule at the
leftmost position, repeatedly, until no rule fires. The shipped worlds are
``free`` (no relations), ``flat`` (the canonical commutation relations of
the ``Q_i`` and ``P_i``), ``flat-fn`` (``flat`` with every other generator a
commuting function symbol of the ``Q_i``) and ``abc``; each one's
termination argument sits beside its definition.

The rule applied to a word depends on the word alone, so for a terminating
system reduction is one fixed linear map NF: NF(w) = w for an irreducible
word, else the sum of c' NF(w') over the terms c' w' of its rewrite.
``reduce_poly`` therefore sums equal words before rewriting them, since
NF(a w + b w) = (a + b) NF(w): the result is the same as following every
rewrite path apart, confluent system or not, and cancelled words cost nothing.

A terminating system is confluent when every word has one normal form
whichever rule and position is rewritten first; by Newman's lemma it is
enough that the one-step rewrites of each word share a normal form, and by
Bergman's diamond lemma only the words where two rule spans overlap or nest
can fail (Knuth and Bendix, 1970). ``check_confluence`` tests this on every
word up to a length over a representative alphabet; every named system
passes. In a confluent system NF is an algebra map, NF(ab) = NF(NF(a) NF(b)),
so an expression may be reduced at each product node instead of once after
multiplying everything out, which is how ``parser.evaluate`` works.

Every rewrite counts against one step budget per call of ``reduce_poly``, or
per evaluation of a whole expression by ``parser.evaluate``: the
``max_steps`` argument when given, else ``NCWORLDS_MAX_STEPS``, else
``DEFAULT_STEP_LIMIT``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Sequence

from .ncpoly import G, Generator, NcPoly, Word, commutator, word_text
from .scalar import Coeff, Scalar
from .sparse import add_into

DEFAULT_STEP_LIMIT = 10**6
STEP_LIMIT_ENV = "NCWORLDS_MAX_STEPS"

Terms = Sequence[tuple[Word, Coeff]]
# A rule maps (word, position) to (span length, replacement terms) or None.
Rule = Callable[[Word, int], Optional[tuple[int, Terms]]]


class ReductionError(RuntimeError):
    """Step limit exceeded; names the word that was still reducing."""

    def __init__(self, system: str, word: Word, limit: int):
        super().__init__(
            f"reduction in system {system!r} exceeded {limit} steps "
            f"while rewriting {word_text(word)}"
        )
        self.word = word
        self.limit = limit


def _classify(g: Generator, functions: bool) -> str:
    if g.name in ("Q", "P") and g.indices and not g.derivs:
        return g.name
    if g.derivs or functions:
        return "fn"
    return "other"


@dataclass(frozen=True)
class RewriteSystem:
    name: str
    rules: tuple[Rule, ...]
    functions: bool = False  # every generator but the Q_i and P_i is a function symbol

    def classify(self, g: Generator) -> str:
        return _classify(g, self.functions)


def step_limit(explicit: int | None = None) -> int:
    """The step budget; raises ValueError when it is not a positive integer."""
    source, value = "max_steps", explicit
    if explicit is None:
        source, value = STEP_LIMIT_ENV, os.environ.get(STEP_LIMIT_ENV)
        if not value:
            return DEFAULT_STEP_LIMIT
    try:
        limit = int(value)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"{source} must be a positive integer, got {value!r}")
    return limit


def reduce_poly(e: NcPoly, system: RewriteSystem, max_steps: int | None = None) -> NcPoly:
    """Normal form of ``e``: the fixpoint of leftmost-first rule application."""
    return _normalizer(system, max_steps)(e)


def _normalizer(system: RewriteSystem, max_steps: int | None = None,
                ) -> Callable[[NcPoly], NcPoly]:
    """The normal-form map of ``system``; every call counts its rewrites
    against one shared step budget."""
    limit = step_limit(max_steps)
    steps = 0

    def normal_form(e: NcPoly) -> NcPoly:
        nonlocal steps
        out: dict[Word, Coeff] = {}
        pending: dict[Word, Coeff] = e._terms
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
                for w2, c2 in repl:
                    add_into(pending, prefix + w2 + suffix, c * c2)
        return e._like(out)

    return normal_form


def _first_match(w: Word, system: RewriteSystem) -> tuple[int, int, Terms] | None:
    for i in range(len(w)):
        for rule in system.rules:
            hit = rule(w, i)
            if hit is not None:
                return (i, *hit)
    return None


def subword_rule(pattern: Word, replacement: NcPoly) -> Rule:
    span = len(pattern)
    hit = (span, tuple(replacement.terms()))

    def rule(w: Word, i: int):
        return hit if w[i:i + span] == pattern else None

    return rule


def check_confluence(system: RewriteSystem, alphabet: Sequence[Generator],
                     max_len: int) -> Word | None:
    """The first word over ``alphabet``, by length then alphabet order, up to
    ``max_len`` letters, whose one-step rewrites (every rule at every position
    where it fires) do not all reduce to one normal form; None when there is
    none. With a terminating system and ``max_len`` covering every overlap of
    two rule spans, None means the system is confluent on that alphabet."""
    for n in range(1, max_len + 1):
        for w in product(alphabet, repeat=n):
            forms = set()
            for i in range(n):
                for rule in system.rules:
                    hit = rule(w, i)
                    if hit is not None:
                        span, repl = hit
                        step = NcPoly.total(NcPoly.from_word(w[:i] + w2 + w[i + span:], c)
                                            for w2, c in repl)
                        forms.add(reduce_poly(step, system))
            if len(forms) > 1:
                return w
    return None


# -- the worlds --------------------------------------------------------------

def _normal_order_rule(functions: bool) -> Rule:
    # normal order: function symbols, then Q's, then P's, each family sorted;
    # P past Q costs a Kronecker delta, P past a function costs a derivative

    def rule(w: Word, i: int):
        if i + 1 >= len(w):
            return None
        x, y = w[i], w[i + 1]
        cx, cy = _classify(x, functions), _classify(y, functions)
        if cx == "other" or cy == "other":
            return None
        if cx == "P" and cy == "Q":
            if x.indices == y.indices:
                return 2, (((y, x), 1), ((), -1))
            return 2, (((y, x), 1),)
        if cx == "P" and cy == "fn":
            return 2, (((y, x), 1), ((y.with_deriv(x.indices[0]),), -1))
        if (cx == "Q" and cy == "fn") or (cx == cy and y < x):
            return 2, (((y, x), 1),)
        return None

    return rule


FREE = RewriteSystem("free", ())
# Termination of flat and flat-fn: each rewrite either removes an inversion
# of the normal order or shortens the word.
FLAT = RewriteSystem("flat", (_normal_order_rule(False),))
FLAT_FN = RewriteSystem("flat-fn", (_normal_order_rule(True),), functions=True)

_A, _B, _C = G("A"), G("B"), G("C")
# Termination: both rules strictly decrease inversions for the order A < B < C.
ABC = RewriteSystem("abc", (
    subword_rule((_B, _A), NcPoly.from_word((_A, _B))),
    subword_rule((_B, _C, _A), NcPoly.from_word((_A, _C, _B))),
))

NAMED_SYSTEMS = {s.name: s for s in (FREE, FLAT, FLAT_FN, ABC)}


# -- flat-world calculus ----------------------------------------------------

def q_gen(i: int) -> Generator:
    return G("Q", i)


def p_gen(i: int) -> Generator:
    return G("P", i)


def Q(i: int) -> NcPoly:
    return NcPoly.from_word((q_gen(i),))


def P(i: int) -> NcPoly:
    return NcPoly.from_word((p_gen(i),))


def flat_partial_q(f: NcPoly, i: int, system: RewriteSystem = FLAT) -> NcPoly:
    """d f / d Q_i as the reduced commutator [f, P_i]."""
    return reduce_poly(commutator(f, P(i)), system)


def flat_partial_p(f: NcPoly, i: int, system: RewriteSystem = FLAT) -> NcPoly:
    """d f / d P_i as the reduced commutator [Q_i, f]."""
    return reduce_poly(commutator(Q(i), f), system)


def formal_partial_q(f: NcPoly, i: int, system: RewriteSystem = FLAT) -> NcPoly:
    """Termwise formal derivative by Q_i of a normal-form polynomial.

    Independent of the commutator route: counts Q_i occurrences and applies
    the product rule to function-symbol factors.
    """
    out: dict[Word, Coeff] = {}
    for w, c in f.terms():
        for pos, g in enumerate(w):
            cls = system.classify(g)
            if cls == "fn":
                add_into(out, w[:pos] + (g.with_deriv(i),) + w[pos + 1:], c)
            elif cls == "Q" and g.indices == (i,):
                add_into(out, w[:pos] + w[pos + 1:], c)
    return NcPoly(out)


def formal_partial_p(f: NcPoly, i: int, system: RewriteSystem = FLAT) -> NcPoly:
    out: dict[Word, Coeff] = {}
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


def schroedinger_residual(h: NcPoly = NcPoly.gen("H")) -> NcPoly:
    """[psi, J/dt] - i hbar [psi, h] for J = 1 + i hbar h dt; identically 0."""
    psi = NcPoly.gen("psi")
    dt, i_hbar = Scalar.param("dt"), Scalar.imag_unit() * Scalar.param("hbar")
    j_op = NcPoly.one() + h.scaled(i_hbar * dt)
    lhs = commutator(psi, j_op / dt)
    rhs = commutator(psi, h).scaled(i_hbar)
    return lhs - rhs
