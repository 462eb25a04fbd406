"""Local multiplicity algebras of quasi-homogeneous maps.

Given a square quasi-homogeneous map h = (h_1, ..., h_N) in N weighted
variables, the quotient Q = C[x_1..x_N]/(h_1..h_N) -- when it is finite
dimensional -- is a graded Artinian algebra with a tight structure:

  1. finite dimensional, with the standard monomials as a basis;
  2. the degree-0 piece is one-dimensional, spanned by 1;
  3. Gorenstein: the socle (annihilator of the maximal ideal) is
     one-dimensional, concentrated in top degree m = sum(deg h_i) -
     sum(weights), and spanned by the Jacobian determinant of h;
  4. the bilinear pairing (a, b) = ell(a*b), with ell the coefficient
     functional of the socle generator, is perfect in complementary
     degrees Q^k x Q^(m-k);
  5. the Poincare polynomial sum dim(Q^k) t^k equals the equivariant
     multiplicity  prod(1 - t^(deg h_i)) / prod(1 - t^(w_j)).

`verify_structure_theorem` checks every clause independently with exact
arithmetic and returns a report; nothing here ever rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import index
from typing import Iterable, Mapping

from .groebner import (
    DEFAULT_LIMITS,
    GroebnerBasis,
    Ideal,
    NotZeroDimensional,
    ReductionLimits,
    groebner_basis,
    normal_form,
    standard_monomials,
)
from .linalg import nullspace, rank
from .orders import WeightedGrevlex
from .poly import (
    Exponents,
    Polynomial,
    PolynomialError,
    PolynomialMap,
    WeightedGrading,
    jacobian_determinant,
    monomial_to_text,
    monomials_of_weighted_degree,
)
from .series import RationalSeries, UniPoly

__all__ = [
    "NotFinite",
    "FiniteGradedAlgebra",
    "build_quotient",
    "poincare_polynomial",
    "equivariant_multiplicity",
    "socle",
    "jacobian_spans_socle",
    "DegreePairing",
    "PairingReport",
    "pairing_matrices",
    "StructureReport",
    "verify_structure_theorem",
    "hitchin_base_weights",
    "random_zero_dimensional_map",
]

# the largest accepted weight list takes about 2 s to print as JSON
# (2-vCPU host, Python 3.11); a longer one is refused before any work
MAX_HITCHIN_WEIGHTS = 4_000_000
# the largest accepted weight ratio takes about 2 s to print (2-vCPU host,
# Python 3.11): 1/(1 - t)^4499 from 4500 domain weights 1; a larger sum
# is refused before any work
MAX_EQUIVARIANT_DEGREE = 4500

# build_quotient raises the staircase error unchanged; the basis rides along
# so degenerate (non-finite) inputs can still be analyzed by ideal queries.
NotFinite = NotZeroDimensional


class FiniteGradedAlgebra:
    """Zero-dimensional graded quotient with its standard-monomial basis.

    The coordinates of b_i * b_j and x_v * b_j come from the basis's
    staircase walk, which `standard_monomials` makes once per basis and
    which the algebra keeps (see `groebner`'s module docstring).  `vector`
    reads the `Fraction` coordinates of any monomial, as a sparse {index:
    coefficient} dict, off its normal form, which widens the basis's
    packing as far as the monomial needs.  The socle and the Jacobian's
    coordinates, which several clauses of the structure report read, are
    memoised, and the basis indices are grouped by degree once.

    A variable is either standard or a leading monomial of the reduced
    basis (a divisor of x_v is 1 or x_v).  The coordinates of x_v * 1 for a
    leading variable x_v are NF(x_v), which `socle` reads to check that it
    is homogeneous of degree w_v; the socle then multiplies by the
    standard variables only, and the staircase is walked by them only.
    """

    __slots__ = (
        "gb", "grading", "variables", "basis", "degrees", "index", "source_map",
        "_by_degree", "_stairs", "_memo",
    )

    def __init__(
        self,
        gb: GroebnerBasis,
        grading: WeightedGrading,
        source_map: PolynomialMap | None = None,
    ):
        if len(grading.weights) != len(gb.variables):
            raise PolynomialError("grading length does not match the variable count")
        basis = tuple(standard_monomials(gb))  # raises NotZeroDimensional
        degrees = tuple(grading.degree(b) for b in basis)
        by_degree: dict[int, list[int]] = {}
        for i, d in enumerate(degrees):
            by_degree.setdefault(d, []).append(i)
        object.__setattr__(self, "gb", gb)
        object.__setattr__(self, "grading", grading)
        object.__setattr__(self, "variables", gb.variables)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "index", {b: i for i, b in enumerate(basis)})
        object.__setattr__(self, "source_map", source_map)
        object.__setattr__(self, "_by_degree", by_degree)
        object.__setattr__(self, "_stairs", gb._stairs)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGradedAlgebra is immutable")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def top_degree(self) -> int:
        return max(self._by_degree, default=0)

    def basis_monomial(self, i: int) -> str:
        return monomial_to_text(self.basis[i], self.variables)

    def vector(self, target: Exponents) -> dict[int, Fraction]:
        """Sparse `Fraction` coordinates of a monomial, read off its normal form.

        The normal form reduces from scratch, so a monomial far past the
        staircase can take long: x1^160 modulo the Gr(3,7) relations takes
        about a second, and the cost grows steeply with the exponent.
        """
        return _coordinates(self, Polynomial(self.variables, {target: 1}))


def build_quotient(
    m: PolynomialMap, limits: ReductionLimits = DEFAULT_LIMITS
) -> FiniteGradedAlgebra:
    """Quotient by the components of a quasi-homogeneous map.

    Raises NotFinite (with the Groebner basis attached) when the quotient
    is not finite dimensional -- the degenerate case where the fibre of
    the map through the origin is positive-dimensional.
    """
    ideal = Ideal(m.variables, m.components, m.grading)
    gb = groebner_basis(ideal, WeightedGrevlex(m.grading.weights), limits)
    return FiniteGradedAlgebra(gb, m.grading, source_map=m)


def poincare_polynomial(q: FiniteGradedAlgebra) -> UniPoly:
    """Coefficient of t^k = number of standard monomials of weighted degree k."""
    return UniPoly([len(q._by_degree.get(k, ())) for k in range(q.top_degree + 1)])


def equivariant_multiplicity(
    domain: Iterable[int], codomain: Iterable[int]
) -> RationalSeries:
    """Reduced  prod_{d in codomain}(1 - t^d) / prod_{w in domain}(1 - t^w).

    For a finite quotient of a quasi-homogeneous map this equals the
    Poincare polynomial; for a degenerate map it stays a genuine series.
    Raises ValueError, before any work, unless both multisets are nonempty,
    hold positive integers only and each sum to at most
    MAX_EQUIVARIANT_DEGREE, which bounds the degree of either side.
    """
    try:
        dom = tuple(map(index, domain))
        cod = tuple(map(index, codomain))
    except TypeError as e:
        raise ValueError(f"weights must be integers: {e}") from None
    if not dom or not cod:
        raise ValueError("weight multisets must be nonempty")
    if any(w <= 0 for w in dom + cod):
        raise ValueError("weights must be positive")
    degree = max(sum(cod), sum(dom))
    if degree > MAX_EQUIVARIANT_DEGREE:
        raise ValueError(f"the weights sum to {degree}, over the cap of {MAX_EQUIVARIANT_DEGREE}")
    return RationalSeries.from_weight_ratio(cod, dom)


def socle(q: FiniteGradedAlgebra) -> tuple[Polynomial, ...]:
    """Basis of ann(maximal ideal) = intersection of kernels of all x_v.

    Only the standard variables need a kernel.  A variable x_v that is a
    leading monomial equals NF(x_v) in Q, a combination of standard
    monomials of degree w_v > 0, each with a standard variable as a
    factor; so x_v kills whatever every standard variable kills, and the
    kernels of the standard variables alone meet in the socle.

    Multiplication by x_v maps Q^k into Q^(k+w_v), so the socle splits by
    degree: socle intersect Q^k is the kernel of one small block whose rows are
    the coordinates of degree k+w_v for each standard v, and whose columns
    are the basis monomials of degree k.  These are the diagonal blocks of
    the stacked multiplication matrices, and equal kernels have one RREF,
    so the vectors are those of the nullspace stacked over all variables:
    one per free column, that column = 1, listed in increasing free column
    over the whole basis.

    Raises ValueError when the ideal is not homogeneous for the grading:
    when NF(x_v) of a leading variable has a coordinate outside degree
    w_v, or x_v * b_j of a standard one outside degree deg(b_j) + w_v.
    The argument above needs the first check; together they hold exactly
    when every x_v * b_j stays in degree deg(b_j) + w_v, so they refuse
    the same algebras as a check over all variables.  The result is
    memoised on q.
    """
    got = q._memo.get("socle")
    if got is None:
        got = q._memo["socle"] = _graded_socle(q)
    return got


def _graded_socle(q: FiniteGradedAlgebra) -> tuple[Polynomial, ...]:
    stairs, n = q._stairs, len(q.variables)
    standard = []  # (v, w_v) of the standard variables
    for v, w in enumerate(q.grading.weights):
        if tuple(int(u == v) for u in range(n)) in q.index:
            standard.append((v, w))
        # NF(x_v) of a leading x_v is x_v * b_0, b_0 = 1 unless the basis is empty
        elif q.dimension and any(q.degrees[i] != w for i in stairs.times(v, [0])[0][0]):
            raise ValueError(
                f"{q.variables[v]} * 1 leaves degree {w}: "
                "the ideal is not homogeneous for the grading"
            )
    by_degree = q._by_degree
    found: list[tuple[int, Polynomial]] = []
    for k, cols in by_degree.items():
        images = []  # images[s][c]: integer coordinates of x_v * b_cols[c], x_v standard[s]
        for v, w in standard:
            images.append(stairs.times(v, cols))
            for j, (num, _) in zip(cols, images[-1]):
                if any(q.degrees[i] != k + w for i in num):
                    raise ValueError(
                        f"{q.variables[v]} * {q.basis_monomial(j)} leaves degree {k + w}: "
                        "the ideal is not homogeneous for the grading"
                    )
        # column c of the block is N_c / L_c, L_c the lcm of its denominators, so
        # its kernel is diag(L) times that of the integer N, rescaled so free = 1
        scales = [lcm(*(row[c][1] for row in images)) for c in range(len(cols))]
        block: list[list[int]] = []
        for (_, w), row in zip(standard, images):
            factors = [s // den for s, (_, den) in zip(scales, row)]
            block.extend(
                [num.get(i, 0) * f for (num, _), f in zip(row, factors)]
                for i in by_degree.get(k + w, ())
            )
        for vec in nullspace(block, len(cols)):
            free = max(c for c, x in enumerate(vec) if x)  # pivots lie left of it
            terms = {q.basis[cols[c]]: x * scales[c] / scales[free] for c, x in enumerate(vec) if x}
            found.append((cols[free], Polynomial(q.variables, terms)))
    return tuple(p for _, p in sorted(found, key=lambda item: item[0]))


def _coordinates(q: FiniteGradedAlgebra, p: Polynomial) -> dict[int, Fraction]:
    """Sparse `Fraction` coordinates of p in the basis, read off its normal form."""
    return {q.index[e]: c for e, c in normal_form(p, q.gb).terms.items()}


def _jacobian_vector(q: FiniteGradedAlgebra) -> dict[int, Fraction]:
    """Coordinates of the source map's Jacobian determinant, memoised on q."""
    got = q._memo.get("jacobian")
    if got is None:
        got = q._memo["jacobian"] = _coordinates(q, jacobian_determinant(q.source_map))
    return got


def jacobian_spans_socle(q: FiniteGradedAlgebra) -> bool:
    """True iff NF of the Jacobian determinant is nonzero and proportional
    to the (one-dimensional) socle.

    Every top-degree element lies in the socle, since multiplying it by a
    variable gives 0.  So a one-dimensional socle is the top-degree piece,
    its generator is a multiple of a single basis monomial, and the Jacobian
    is a nonzero multiple of it exactly when both have the same support.
    """
    if q.source_map is None:
        raise ValueError("algebra does not remember its source map")
    soc = socle(q)
    if len(soc) != 1:
        return False
    # the socle is solved in the basis: its monomials are basis monomials
    return _jacobian_vector(q).keys() == {q.index[e] for e in soc[0].terms}


@dataclass(frozen=True)
class DegreePairing:
    degree: int
    complementary_degree: int
    matrix: tuple[tuple[Fraction, ...], ...]
    rank: int
    perfect: bool


@dataclass(frozen=True)
class PairingReport:
    top_degree: int
    jacobian_normalized: bool  # ell scaled so that ell(Jacobian) = 1
    by_degree: tuple[DegreePairing, ...]
    perfect: bool


def pairing_matrices(q: FiniteGradedAlgebra) -> PairingReport:
    """Pairing (a, b) = ell(a*b) between Q^k and Q^(m-k) for every k.

    ell is the coefficient functional of the socle generator, scaled so
    that ell(Jacobian) = 1 when the map is available and the Jacobian has
    a nonzero socle coefficient (perfection does not depend on the scale).
    b_i*b_j and b_j*b_i are one packed monomial, so for k > m/2 the block
    is the transpose of the block of degree m - k, read once, with its rank.
    (A one-dimensional socle makes dim Q^k = dim Q^(m-k), so the shapes
    agree even where a block is empty.)
    Raises ValueError when the socle is not one-dimensional.
    """
    soc = socle(q)
    if len(soc) != 1:
        raise ValueError(f"socle is {len(soc)}-dimensional, pairing needs dimension 1")
    # a one-dimensional socle is one top-degree basis monomial (see
    # jacobian_spans_socle), so the generator has exactly one term
    ((e, c),) = soc[0].terms.items()
    slot = q.index[e]
    scale = Fraction(1) / c
    normalized = False
    if q.source_map is not None:
        jac = _jacobian_vector(q).get(slot)
        if jac:
            scale = Fraction(1) / jac
            normalized = True

    stairs, top, bottom = q._stairs, scale.numerator, scale.denominator

    def ell(num: dict[int, int], den: int) -> Fraction:  # of a product, given its coordinates
        return Fraction(num.get(slot, 0) * top, den * bottom)

    m = q.top_degree
    by_deg: list[DegreePairing] = []
    all_perfect = True
    for k in range(m + 1):
        rows_idx = q._by_degree.get(k, [])
        cols_idx = q._by_degree.get(m - k, [])
        if m - k < k:
            matrix, r = tuple(zip(*by_deg[m - k].matrix)), by_deg[m - k].rank
        else:
            matrix = tuple(tuple(ell(*c) for c in stairs.products(i, cols_idx)) for i in rows_idx)
            r = rank([list(row) for row in matrix])
        perfect = len(rows_idx) == len(cols_idx) and r == len(rows_idx)
        by_deg.append(DegreePairing(k, m - k, matrix, r, perfect))
        all_perfect = all_perfect and perfect
    return PairingReport(m, normalized, tuple(by_deg), all_perfect)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    """Outcome of every structure clause, checked independently.

    When the quotient is not finite dimensional only `finite_dimensional`
    is meaningful; the remaining fields stay None and `clauses` is empty.
    """

    finite_dimensional: bool
    dimension: int | None = None
    top_degree: int | None = None
    expected_top_degree: int | None = None
    poincare: UniPoly | None = None
    m_at_1: int | None = None
    socle_degree: int | None = None
    socle_basis: tuple[str, ...] = ()
    pairing_perfect_per_degree: tuple[bool, ...] = ()
    equivariant: RationalSeries | None = None
    clauses: Mapping[str, bool] = field(default_factory=dict)

    def all_true(self) -> bool:
        return self.finite_dimensional and bool(self.clauses) and all(self.clauses.values())

    def to_json_dict(self) -> dict:
        out: dict = {"finite_dimensional": self.finite_dimensional}
        if not self.finite_dimensional:
            return out
        out.update(
            {
                "dimension": self.dimension,
                "top_degree": self.top_degree,
                "expected_top_degree": self.expected_top_degree,
                "poincare": str(self.poincare),
                "m_at_1": self.m_at_1,
                "socle_degree": self.socle_degree,
                "socle_basis": list(self.socle_basis),
                "pairing_perfect_per_degree": list(self.pairing_perfect_per_degree),
                "equivariant_multiplicity": str(self.equivariant),
                "clauses": dict(self.clauses),
                "all_clauses_true": self.all_true(),
            }
        )
        return out


def verify_structure_theorem(
    m: PolynomialMap, limits: ReductionLimits = DEFAULT_LIMITS
) -> StructureReport:
    """Run every clause of the structure suite on one map, exactly.

    No clause subsumes another: each boolean in `clauses` is computed from
    its own definition (socle dimension by linear algebra, pairing by rank,
    palindromicity by coefficient comparison, the Poincare/multiplicity
    agreement by reduced-series equality).
    """
    try:
        q = build_quotient(m, limits)
    except NotFinite:
        return StructureReport(finite_dimensional=False)

    poincare = poincare_polynomial(q)
    expected_top = sum(m.degrees) - sum(m.grading.weights)
    soc = socle(q)
    socle_degrees = sorted(
        {q.grading.degree(e) for s in soc for e in s.terms}
    )
    gorenstein = len(soc) == 1
    socle_degree = socle_degrees[0] if len(socle_degrees) == 1 else None
    pairing = pairing_matrices(q) if gorenstein else None
    per_degree = tuple(p.perfect for p in pairing.by_degree) if pairing is not None else ()
    pairing_perfect = pairing is not None and pairing.perfect
    # the map's own validated weights and degrees, which the quotient built
    # above already bounds: MAX_EQUIVARIANT_DEGREE caps free-standing input
    equivariant = RationalSeries.from_weight_ratio(m.degrees, m.grading.weights)

    clauses = {
        "degree_zero_dim1": len(q._by_degree.get(0, ())) == 1,
        "gorenstein_socle_dim1": gorenstein,
        "socle_in_top_degree": gorenstein and socle_degree == expected_top,
        "socle_is_jacobian": jacobian_spans_socle(q),
        "pairing_perfect": pairing_perfect,
        "palindromic": poincare.is_palindromic(),
        "monic": poincare.is_monic_top(),
        "nonnegative": poincare.nonnegative(),
        "poincare_equals_equivariant_multiplicity": equivariant == poincare,
    }
    return StructureReport(
        finite_dimensional=True,
        dimension=q.dimension,
        top_degree=q.top_degree,
        expected_top_degree=expected_top,
        poincare=poincare,
        m_at_1=poincare(1),
        socle_degree=socle_degree,
        socle_basis=tuple(str(s) for s in soc),
        pairing_perfect_per_degree=per_degree,
        equivariant=equivariant,
        clauses=clauses,
    )


def hitchin_base_weights(n: int, g: int) -> tuple[int, ...]:
    """Torus weights on the base of the rank-n genus-g integrable system.

    Weight 1 with multiplicity g, and weight i with multiplicity
    (2i-1)(g-1) for 2 <= i <= n; the total count is n^2(g-1) + 1, and
    a count over MAX_HITCHIN_WEIGHTS raises ValueError.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    if g < 2:
        raise ValueError("genus must be at least 2 for these section counts")
    count = n * n * (g - 1) + 1
    if count > MAX_HITCHIN_WEIGHTS:
        raise ValueError(f"{count} weights, over the cap of {MAX_HITCHIN_WEIGHTS}")
    out = [1] * g
    for i in range(2, n + 1):
        out.extend([i] * ((2 * i - 1) * (g - 1)))
    return tuple(out)


def random_zero_dimensional_map(
    rng: random.Random,
    n_vars: int,
    max_degree: int = 5,
    limits: ReductionLimits = DEFAULT_LIMITS,
) -> PolynomialMap:
    """Random quasi-homogeneous map with a finite quotient.

    Component i always contains the pure power x_i^(d_i/w_i), which keeps
    the finite case generic; resamples until the quotient is actually
    zero-dimensional.  Raises ValueError, before drawing anything, unless
    1 <= n_vars <= 4.
    """
    if not 1 <= n_vars <= 4:
        raise ValueError(f"n_vars must be between 1 and 4, got {n_vars}")
    names = ("x", "y", "z", "w")[:n_vars]
    for _ in range(60):
        weights = tuple(rng.choice((1, 1, 1, 2)) for _ in range(n_vars))
        comps = []
        for i in range(n_vars):
            k = rng.randint(1, max(1, max_degree // weights[i]))
            degree = weights[i] * k
            pure = tuple(k if j == i else 0 for j in range(n_vars))
            terms = {pure: Fraction(1)}
            for mono in monomials_of_weighted_degree(weights, degree):
                if mono == pure or rng.random() < 0.5:
                    continue
                c = rng.randint(-3, 3)
                if c:
                    terms[mono] = Fraction(c)
            comps.append(Polynomial(names, terms))
        candidate = PolynomialMap.build(comps, WeightedGrading(weights))
        try:
            build_quotient(candidate, limits)
        except NotFinite:
            continue
        return candidate
    raise RuntimeError("could not sample a finite quotient in 60 tries")
