"""Buchberger engine over Q with exact arithmetic, plus ideal queries.

The kernel runs over the integers.  Inside `buchberger` every element is a
primitive integer term dict with a positive leading coefficient, and the
S-polynomial of f and g, with leading coefficients a and b, is
(b/d)*x^alpha*f - (a/d)*x^beta*g for d = gcd(a, b).  Division is
fraction-free: a term c*m meets its first divisor g, with leading
coefficient a, by scaling the work and the remainder by a/gcd(a, c) and
subtracting (c/gcd(a, c))*(m/lm)*g.  Every intermediate is then a positive
multiple of the one that division over Q gives, so leading monomials,
divisor choices and processed pairs are those of a `Fraction` kernel; each
remainder is made primitive once (`linalg.primitive`).  `Fraction`s are
made only at the API edge: when the reduced basis is made monic, and when
`normal_form` divides its integer remainder by the product of its scale
factors.

The construction uses the two classical pair-discarding criteria (coprime
leading monomials, and the chain criterion in its order-safe form: a pair
(i, j) is dropped only when some k has lm_k dividing lcm(lm_i, lm_j) and
*both* pairs (i, k) and (j, k) have already left the queue).  Pair
selection is the normal strategy: smallest lcm in the monomial order.
Pairs wait on a heap keyed by (key(lcm), i, j), so each pair is keyed once
and pops in the same order a `min` over the pending pairs by that key would
give; a set of the pending (i, j) answers the chain criterion's membership
tests, and a pair leaves both when it is popped.

Every run is bounded by an explicit cap on processed S-pair reductions;
exceeding it raises ResourceLimitExceeded rather than returning anything.
`certify` recomputes every S-polynomial of a finished basis with no
criteria applied, as an independent correctness pass.

Reduced bases are unique for a fixed monomial order, so ideal equality is
literal equality of reduced bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence

from .linalg import primitive
from .orders import EliminationOrder, MonomialOrder, WeightedGrevlex
from .poly import (
    Exponents,
    NotQuasiHomogeneous,
    Polynomial,
    PolynomialError,
    WeightedGrading,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    quasi_homogeneity_witness,
    weighted_degree,
)
from .series import RationalSeries, UniPoly, one_minus_power, weight_denominator

IntTerms = dict[Exponents, int]

__all__ = [
    "GroebnerError",
    "ResourceLimitExceeded",
    "CertificationError",
    "NotZeroDimensional",
    "ReductionLimits",
    "DEFAULT_LIMITS",
    "Ideal",
    "GroebnerBasis",
    "leading_exponents",
    "s_polynomial",
    "buchberger",
    "groebner_basis",
    "normal_form",
    "certify",
    "is_zero_dimensional",
    "standard_monomials",
    "hilbert_series",
    "krull_dimension",
    "ideal_intersection",
    "ideal_product",
    "ideal_equal",
    "clear_cache",
]


class GroebnerError(Exception):
    pass


class ResourceLimitExceeded(GroebnerError):
    """The pair-reduction cap was hit; no basis is returned."""

    def __init__(self, cap: int, context: str = "buchberger"):
        self.cap = cap
        self.context = context
        super().__init__(f"{context}: exceeded the cap of {cap} pair reductions")


class CertificationError(GroebnerError):
    """An S-polynomial of a claimed basis failed to reduce to zero."""

    def __init__(self, detail: str, witness: Polynomial):
        self.witness = witness
        super().__init__(detail)


class NotZeroDimensional(GroebnerError):
    """Raised by staircase queries on a positive-dimensional ideal."""

    def __init__(self, basis: "GroebnerBasis"):
        self.basis = basis
        super().__init__("ideal is not zero-dimensional; offending basis attached")


@dataclass(frozen=True)
class ReductionLimits:
    """Explicit resource cap: processed S-pair reductions per run."""

    max_pair_reductions: int = 500_000


DEFAULT_LIMITS = ReductionLimits()


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    """Finite generator list over a fixed variable tuple.

    Zero generators are rejected; the empty list is the zero ideal.
    An optional grading travels with the ideal so graded queries
    (Hilbert series, canonical orders) know the intended weights.
    """

    variables: tuple[str, ...]
    generators: tuple[Polynomial, ...]
    grading: WeightedGrading | None = None

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if not isinstance(g, Polynomial):
                raise PolynomialError(f"ideal generator {g!r} is not a Polynomial")
            if g.variables != self.variables:
                raise PolynomialError(
                    f"generator over {g.variables} in ideal over {self.variables}"
                )
            if g.is_zero():
                raise PolynomialError("zero polynomial cannot be an ideal generator")
        if self.grading is not None and len(self.grading.weights) != len(self.variables):
            raise PolynomialError("grading length does not match the variable count")

    def is_zero(self) -> bool:
        return not self.generators

    def default_order(self) -> MonomialOrder:
        if self.grading is not None:
            return WeightedGrevlex(self.grading.weights)
        return WeightedGrevlex.units(len(self.variables))


class GroebnerBasis:
    """Reduced basis: monic, mutually irreducible, sorted by leading monomial."""

    __slots__ = ("variables", "order", "basis", "leading", "source")

    def __init__(
        self,
        variables: tuple[str, ...],
        order: MonomialOrder,
        basis: tuple[Polynomial, ...],
        source: tuple[Polynomial, ...] | None = None,
    ):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "leading", tuple(leading_exponents(g, order) for g in basis))
        object.__setattr__(self, "source", source)

    def __setattr__(self, name, value):
        raise AttributeError("GroebnerBasis is immutable")

    def __len__(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroebnerBasis)
            and self.variables == other.variables
            and self.order == other.order
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.order, self.basis))

    def __repr__(self) -> str:
        return f"GroebnerBasis({len(self.basis)} elements over {self.variables})"


def leading_exponents(p: Polynomial, order: MonomialOrder) -> Exponents:
    if p.is_zero():
        raise PolynomialError("the zero polynomial has no leading monomial")
    return max(p.terms, key=order.key)


def _int_terms(terms: Mapping[Exponents, Fraction | int], lm: Exponents) -> IntTerms:
    """The primitive integer multiple of `terms` whose coefficient at `lm` is positive."""
    coeffs = primitive(list(terms.values()))
    if terms[lm] < 0:
        coeffs = [-c for c in coeffs]
    return dict(zip(terms, coeffs))


def _from_int(variables: tuple[str, ...], terms: IntTerms, denominator: int) -> Polynomial:
    return Polynomial(variables, {e: Fraction(c, denominator) for e, c in terms.items()})


def _s_terms(f: IntTerms, lmf: Exponents, g: IntTerms, lmg: Exponents) -> IntTerms:
    """lcm(a, b) times the S-polynomial of f and g, a and b their leading coefficients."""
    big = mono_lcm(lmf, lmg)
    a, b = f[lmf], g[lmg]
    d = gcd(a, b)
    sf, sg = b // d, a // d
    shift = mono_div(big, lmf)
    out = {mono_mul(e, shift): c * sf for e, c in f.items()}
    shift = mono_div(big, lmg)
    for e, c in g.items():
        e = mono_mul(e, shift)
        s = out.get(e, 0) - c * sg
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lmf = leading_exponents(f, order)
    lmg = leading_exponents(g, order)
    fi, gi = _int_terms(f.terms, lmf), _int_terms(g.terms, lmg)
    return _from_int(f.variables, _s_terms(fi, lmf, gi, lmg), lcm(fi[lmf], gi[lmg]))


def _nf_terms(
    work: IntTerms,
    lms: Sequence[Exponents],
    polys: Sequence[IntTerms],
    keyfn: Callable,
) -> tuple[IntTerms, int]:
    """Fraction-free full remainder of division by (lms, polys); divisor = first match.

    Every divisor has a positive leading coefficient.  `work` is consumed.
    Returns (rem, scale): rem is scale times the remainder that division
    over Q gives, and scale > 0 is the product of the step factors.  The
    terms of rem come in descending order, so its first key is its leading
    monomial.
    """
    rem: IntTerms = {}
    scale = 1
    keycache: dict[Exponents, object] = {}

    def key_of(e: Exponents):
        v = keycache.get(e)
        if v is None:
            v = keycache[e] = keyfn(e)
        return v

    while work:
        m = max(work, key=key_of)
        c = work.pop(m)
        for lm, g in zip(lms, polys):
            if mono_divides(lm, m):
                # a*work - c*(m/lm)*g over Q becomes (a/d)*work - (c/d)*(m/lm)*g
                a = g[lm]
                d = gcd(a, c)
                if d != a:
                    step = a // d
                    scale *= step
                    work = {e: v * step for e, v in work.items()}
                    rem = {e: v * step for e, v in rem.items()}
                t = c // d
                shift = mono_div(m, lm)
                for e2, c2 in g.items():
                    if e2 == lm:
                        continue
                    tgt = mono_mul(e2, shift)
                    s = work.get(tgt, 0) - t * c2
                    if s:
                        work[tgt] = s
                    else:
                        work.pop(tgt, None)
                break
        else:
            rem[m] = c
    return rem, scale


def _int_basis(gb: GroebnerBasis) -> list[IntTerms]:
    return [_int_terms(g.terms, lm) for g, lm in zip(gb.basis, gb.leading)]


def _reduce(
    p: Polynomial, lms: Sequence[Exponents], polys: Sequence[IntTerms], keyfn: Callable
) -> Polynomial:
    """The exact remainder over Q of p by integer divisors."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    work = {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
    rem, scale = _nf_terms(work, lms, polys, keyfn)
    return _from_int(p.variables, rem, den * scale)


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo the (reduced) basis."""
    if p.variables != gb.variables:
        raise PolynomialError("polynomial and basis live over different variables")
    return _reduce(p, gb.leading, _int_basis(gb), gb.order.key)


# ---------------------------------------------------------------------------


def buchberger(
    ideal: Ideal,
    order: MonomialOrder | None = None,
    limits: ReductionLimits = DEFAULT_LIMITS,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order."""
    if order is None:
        order = ideal.default_order()
    variables = ideal.variables
    key = order.key

    lms = [leading_exponents(g, order) for g in ideal.generators]
    work = [_int_terms(g.terms, lm) for g, lm in zip(ideal.generators, lms)]

    pending = {(i, j) for j in range(len(work)) for i in range(j)}
    queue = [(key(mono_lcm(lms[i], lms[j])), i, j) for i, j in pending]
    heapify(queue)

    processed = 0
    while queue:
        _, i, j = heappop(queue)
        pending.remove((i, j))
        big = mono_lcm(lms[i], lms[j])
        # coprime criterion
        if big == mono_mul(lms[i], lms[j]):
            continue
        # chain criterion (order-safe form)
        skip = False
        for k in range(len(work)):
            if k in (i, j):
                continue
            if not mono_divides(lms[k], big):
                continue
            if (min(i, k), max(i, k)) in pending:
                continue
            if (min(j, k), max(j, k)) in pending:
                continue
            skip = True
            break
        if skip:
            continue
        processed += 1
        if processed > limits.max_pair_reductions:
            raise ResourceLimitExceeded(limits.max_pair_reductions)
        s = _s_terms(work[i], lms[i], work[j], lms[j])
        if not s:
            continue
        r, _ = _nf_terms(s, lms, work, key)
        if not r:
            continue
        lm = next(iter(r))
        t = len(work)
        work.append(_int_terms(r, lm))
        lms.append(lm)
        for i2 in range(t):
            pending.add((i2, t))
            heappush(queue, (key(mono_lcm(lms[i2], lms[t])), i2, t))

    reduced = _reduce_basis(work, lms, order, variables)
    return GroebnerBasis(variables, order, reduced, source=ideal.generators)


def _reduce_basis(
    work: list[IntTerms], lms: list[Exponents], order: MonomialOrder, variables: tuple[str, ...]
) -> tuple[Polynomial, ...]:
    """Minimal, tail-reduced and monic, sorted by leading monomial."""
    key = order.key
    kept: list[IntTerms] = []
    kept_lms: list[Exponents] = []
    for i in sorted(range(len(work)), key=lambda i: key(lms[i])):
        lm = lms[i]
        if any(mono_divides(k, lm) for k in kept_lms):
            continue
        kept.append(work[i])
        kept_lms.append(lm)
    # tail-reduce each element against the others, then make it monic;
    # a kept leading monomial divides no other, so it stays leading
    out: list[Polynomial] = []
    for i, lm in enumerate(kept_lms):
        others = kept[:i] + kept[i + 1 :]
        other_lms = kept_lms[:i] + kept_lms[i + 1 :]
        r, _ = _nf_terms(dict(kept[i]), other_lms, others, key)
        out.append(_from_int(variables, r, r[lm]))
        kept[i] = _int_terms(r, lm)
    return tuple(out)


@lru_cache(maxsize=256)
def _cached_basis(ideal: Ideal, order: MonomialOrder, limits: ReductionLimits) -> GroebnerBasis:
    return buchberger(ideal, order, limits)


def groebner_basis(
    ideal: Ideal,
    order: MonomialOrder | None = None,
    limits: ReductionLimits = DEFAULT_LIMITS,
) -> GroebnerBasis:
    """Cached front end to `buchberger` (ideals and orders are value types)."""
    if order is None:
        order = ideal.default_order()
    return _cached_basis(ideal, order, limits)


def clear_cache() -> None:
    _cached_basis.cache_clear()


def certify(gb: GroebnerBasis, limits: ReductionLimits = DEFAULT_LIMITS) -> bool:
    """Independent pass: reduce every S-polynomial, no pair criteria.

    Also re-reduces the source generators when the basis remembers them.
    Returns True or raises CertificationError with the nonzero witness.
    """
    n = len(gb.basis)
    budget = limits.max_pair_reductions
    lms, polys, key = gb.leading, _int_basis(gb), gb.order.key
    count = 0
    for j in range(n):
        for i in range(j):
            count += 1
            if count > budget:
                raise ResourceLimitExceeded(budget, context="certify")
            s = _s_terms(polys[i], lms[i], polys[j], lms[j])
            if not s:
                continue
            r, scale = _nf_terms(s, lms, polys, key)
            if r:
                scale *= lcm(polys[i][lms[i]], polys[j][lms[j]])
                raise CertificationError(
                    f"S-polynomial of basis elements {i} and {j} does not reduce to zero",
                    witness=_from_int(gb.variables, r, scale),
                )
    for g in gb.source or ():
        r = _reduce(g, lms, polys, key)
        if not r.is_zero():
            raise CertificationError(
                "an original generator does not reduce to zero", witness=r
            )
    return True


# ---------------------------------------------------------------------------
# staircase queries


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True iff the staircase is finite: every variable has a pure-power
    leading monomial (the constant monomial counts for every variable)."""
    n = len(gb.variables)
    for i in range(n):
        if not any(
            all(e == 0 for j, e in enumerate(lm) if j != i) for lm in gb.leading
        ):
            return False
    return True


def standard_monomials(gb: GroebnerBasis) -> list[Exponents]:
    """All monomials outside the leading-term ideal, sorted by order key.

    Raises NotZeroDimensional when the staircase is infinite.
    """
    if not is_zero_dimensional(gb):
        raise NotZeroDimensional(gb)
    n = len(gb.variables)
    start = (0,) * n
    seen = {start}
    queue = [start]
    found: list[Exponents] = []
    while queue:
        m = queue.pop()
        if any(mono_divides(lm, m) for lm in gb.leading):
            continue
        found.append(m)
        for i in range(n):
            nxt = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    found.sort(key=gb.order.key)
    return found


def _minimalize(gens: Iterable[Exponents]) -> tuple[Exponents, ...]:
    uniq = sorted(set(gens), key=lambda e: (sum(e), e))
    out: list[Exponents] = []
    for g in uniq:
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return tuple(out)


def _monomial_numerator(gens: tuple[Exponents, ...], weights: tuple[int, ...]) -> UniPoly:
    """Numerator N with Hilb(R/(gens)) = N / prod(1 - t^w), by pivot recursion."""
    gens = _minimalize(gens)
    n = len(weights)
    if any(not any(g) for g in gens):
        return UniPoly()  # unit ideal
    counts = [0] * n
    for g in gens:
        for i, e in enumerate(g):
            if e:
                counts[i] += 1
    pivot_var = max(range(n), key=lambda i: counts[i])
    if counts[pivot_var] < 2:
        # pairwise disjoint supports (no generator or one included): the
        # quotient is a tensor product
        out = UniPoly.one()
        for g in gens:
            out = out * one_minus_power(sum(w * e for w, e in zip(weights, g)))
        return out
    # split along the pivot variable x_v:  N(I) = N(I + (x_v)) + t^w N(I : x_v)
    pivot = tuple(1 if i == pivot_var else 0 for i in range(n))
    plus = tuple(g for g in gens if g[pivot_var] == 0) + (pivot,)
    colon = tuple(
        g[:pivot_var] + (max(0, g[pivot_var] - 1),) + g[pivot_var + 1 :] for g in gens
    )
    left = _monomial_numerator(plus, weights)
    right = _monomial_numerator(colon, weights)
    return left + UniPoly.term(1, weights[pivot_var]) * right


def hilbert_series(
    ideal: Ideal,
    grading: WeightedGrading | None = None,
    limits: ReductionLimits = DEFAULT_LIMITS,
) -> RationalSeries:
    """Graded dimension series of R/I for quasi-homogeneous I, fully reduced.

    Inhomogeneous generators are reported with a pair of witness monomials.
    """
    if grading is None:
        grading = ideal.grading or WeightedGrading.units(len(ideal.variables))
    for g in ideal.generators:
        witness = quasi_homogeneity_witness(g, grading)
        if witness is not None:
            raise NotQuasiHomogeneous(*witness)
    denom = weight_denominator(grading.weights)
    gb = groebner_basis(ideal, WeightedGrevlex(grading.weights), limits)
    numerator = _monomial_numerator(gb.leading, grading.weights)
    return RationalSeries(numerator, denom)


def krull_dimension(ideal_or_gb: Ideal | GroebnerBasis, limits: ReductionLimits = DEFAULT_LIMITS) -> int:
    """Dimension of R/I: the largest variable subset S such that no leading
    monomial is supported entirely inside S.  (Unit ideal: returns 0, the
    convention chosen here for the empty scheme.)"""
    if isinstance(ideal_or_gb, Ideal):
        gb = groebner_basis(ideal_or_gb, limits=limits)
    else:
        gb = ideal_or_gb
    supports = {frozenset(i for i, e in enumerate(lm) if e) for lm in _minimalize(gb.leading)}
    if frozenset() in supports:
        return 0
    n = len(gb.variables)
    memo: dict[frozenset[int], int] = {}

    def best(avail: frozenset[int]) -> int:
        got = memo.get(avail)
        if got is not None:
            return got
        violated = None
        for s in supports:
            if s <= avail:
                violated = s
                break
        if violated is None:
            result = len(avail)
        else:
            result = max(best(avail - {v}) for v in violated)
        memo[avail] = result
        return result

    return best(frozenset(range(n)))


# ---------------------------------------------------------------------------
# ideal-level operations


def _fresh_name(taken: Sequence[str]) -> str:
    for base in ("t", "s", "u"):
        if base not in taken:
            return base
    i = 0
    while f"t{i}" in taken:
        i += 1
    return f"t{i}"


def _lift(p: Polynomial, t_exp: int) -> dict[Exponents, Fraction]:
    return {(t_exp,) + e: c for e, c in p.terms.items()}


def ideal_intersection(left: Ideal, right: Ideal, limits: ReductionLimits = DEFAULT_LIMITS) -> Ideal:
    """I ∩ J via the tag-variable trick: eliminate t from t·I + (1-t)·J."""
    if left.variables != right.variables:
        raise PolynomialError("intersection needs a common variable tuple")
    variables = left.variables
    grading = left.grading if left.grading == right.grading else None
    if left.is_zero() or right.is_zero():
        return Ideal(variables, (), grading)
    tag = _fresh_name(variables)
    new_vars = (tag,) + variables
    gens: list[Polynomial] = []
    for f in left.generators:
        gens.append(Polynomial(new_vars, _lift(f, 1)))
    for g in right.generators:
        terms = _lift(g, 0)
        for e, c in _lift(g, 1).items():
            terms[e] = terms.get(e, Fraction(0)) - c
            if not terms[e]:
                del terms[e]
        gens.append(Polynomial(new_vars, terms))
    inner_weights = grading.weights if grading is not None else (1,) * len(variables)
    order = EliminationOrder(
        block=1, first=WeightedGrevlex((1,)), rest=WeightedGrevlex(inner_weights)
    )
    gb = buchberger(Ideal(new_vars, tuple(gens)), order, limits)
    kept: list[Polynomial] = []
    for p, lm in zip(gb.basis, gb.leading):
        if lm[0] == 0:
            # elimination order: a t-free leading monomial forces a t-free element
            kept.append(Polynomial(variables, {e[1:]: c for e, c in p.terms.items()}))
    return Ideal(variables, tuple(kept), grading)


def ideal_product(left: Ideal, right: Ideal) -> Ideal:
    if left.variables != right.variables:
        raise PolynomialError("product needs a common variable tuple")
    grading = left.grading if left.grading == right.grading else None
    gens = tuple(f * g for f in left.generators for g in right.generators)
    return Ideal(left.variables, gens, grading)


def ideal_equal(
    left: Ideal,
    right: Ideal,
    order: MonomialOrder | None = None,
    limits: ReductionLimits = DEFAULT_LIMITS,
) -> bool:
    """Equality of ideals = equality of reduced bases under one fixed order."""
    if left.variables != right.variables:
        raise PolynomialError("equality needs a common variable tuple")
    if order is None:
        order = WeightedGrevlex.units(len(left.variables))
    gb_left = groebner_basis(left, order, limits)
    gb_right = groebner_basis(right, order, limits)
    return gb_left.basis == gb_right.basis
