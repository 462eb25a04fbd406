"""Executable catalogue of worked examples and cross-module identities.

Every numbered example value in the package's contract lives here as a
CheckCase: a named, tagged, self-contained check that either passes,
fails with a concrete witness, or is skipped because the Groebner
resource cap fired (skips carry the cap value).  Failures are data, not
exceptions: `run_all` always returns a summary, and two consecutive runs
of the same catalogue produce byte-identical JSON.

Negative controls -- deliberately corrupted fixtures that must fail --
are first-class cases but excluded from the default run, so a green
default run stays meaningful; include them to prove the machinery can
reject a wrong identity (their failure detail carries the normal-form
witness).

Provenance tags: "paper" for values copied from the source results,
"trivial" for immediate identities, "derived" for values computed by an
independent oracle and frozen.

A case is one row of `_ROWS`: `CheckCase(name, tag, anchor, compute,
expected)`.  `compute(limits)` runs when the case runs, and the case
passes when its result equals `expected`, which states the pinned value
as plain data (a polynomial as its text or its term dict, a series as
its text); on a mismatch the witness is "got <result>, expected
<expected>".  An identity between two computations returns both sides,
and `expected` states their common value.  A case that does not fit --
one that expects an exception, names the failing sample of a loop or
must keep a hand-written witness -- is a named runner that returns None
or its own witness, with `_WITNESS` as its expected value.  The case's
module comes from the name's prefix ("poly" -> "poly_core",
"multiplicity" -> "multiplicity_algebra", "verification" ->
"verification_suite", any other prefix names its module as is); a name
that occurs twice, the seeded sweep's included, makes `catalogue` raise
ValueError.

Rows hold no engine object: they parse and compute only when their case
runs, through module-level names, so a tracer that rebinds those names
sees every call.

Each pinned value has one home.  A value pinned by a case here is not
asserted again in pytest, which keeps properties, independent oracles,
error paths and API shape; the test suite runs the whole catalogue.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from .grassmann import (
    DivisorData,
    closure_vs_grassmann_dimensions,
    gaussian_binomial,
    grassmann_multiplicity,
    grassmann_presentation,
    product_hilbert,
)
from .groebner import (
    DEFAULT_LIMITS,
    Ideal,
    ReductionLimits,
    ResourceLimitExceeded,
    certify,
    groebner_basis,
    hilbert_series,
    ideal_equal,
    ideal_intersection,
    ideal_product,
    is_zero_dimensional,
    krull_dimension,
    normal_form,
    standard_monomials,
)
from .jets import apply_substitution, jet_invariants, jet_presentation
from .multiplicity import (
    FiniteGradedAlgebra,
    NotFinite,
    build_quotient,
    equivariant_multiplicity,
    hitchin_base_weights,
    jacobian_spans_socle,
    pairing_matrices,
    poincare_polynomial,
    random_zero_dimensional_map,
    socle,
    verify_structure_theorem,
)
from .orders import Lex
from .poly import (
    Polynomial,
    PolynomialMap,
    WeightedGrading,
    ZeroDegreeUndefined,
    NotQuasiHomogeneous,
    jacobian_determinant,
    parse_polynomial,
    weighted_degree,
)
from .rings import PresentedRing
from .series import UniPoly
from .weights import (
    DominantWeight,
    dominance_leq,
    fundamental_decomposition,
    fundamental_weight,
    is_minuscule,
    lower_set,
    weyl_orbit_size,
)

__all__ = [
    "CheckCase",
    "RunSummary",
    "catalogue",
    "run_all",
    "embedded_point_check",
]


@dataclass(frozen=True, eq=False)  # some `expected` values are lists
class CheckCase:
    """One catalogue entry.  `run` returns None on pass, a witness on fail."""

    name: str
    tag: str  # "paper" | "trivial" | "derived"
    anchor: str  # the identity being pinned, in domain language
    compute: Callable[[ReductionLimits], object]
    expected: object  # the pinned value, or `_WITNESS` for a named runner
    negative_control: bool = False

    @property
    def module(self) -> str:
        prefix = self.name.split(".", 1)[0]
        return _MODULE_OF_PREFIX.get(prefix, prefix)

    def run(self, limits: ReductionLimits) -> str | None:
        got = self.compute(limits)
        if self.expected is _WITNESS:
            return got
        return None if got == self.expected else f"got {got!r}, expected {self.expected!r}"


@dataclass(frozen=True)
class RunSummary:
    passed: tuple[str, ...]
    failed: tuple[tuple[str, str], ...]  # (name, witness)
    skipped: tuple[tuple[str, str], ...]  # (name, reason)
    excluded_negative_controls: tuple[str, ...]
    untested: tuple[str, ...]  # names filtered out of this run
    modules: dict

    @property
    def failure_count(self) -> int:
        return len(self.failed)

    def to_json_dict(self) -> dict:
        return {
            "passed": list(self.passed),
            "failed": [{"name": n, "witness": w} for n, w in self.failed],
            "skipped": [{"name": n, "reason": r} for n, r in self.skipped],
            "excluded_negative_controls": list(self.excluded_negative_controls),
            "untested": list(self.untested),
            "counts": {
                "passed": len(self.passed),
                "failed": len(self.failed),
                "skipped": len(self.skipped),
            },
            "modules": self.modules,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# small fixture helpers (each case rebuilds its inputs; runs stay independent)


def _p(text: str, variables: tuple[str, ...]) -> Polynomial:
    return parse_polynomial(text, variables)


def _ideal(variables: tuple[str, ...], texts: tuple[str, ...], weights=None) -> Ideal:
    grading = WeightedGrading(weights) if weights else WeightedGrading.units(len(variables))
    return Ideal(variables, tuple(_p(t, variables) for t in texts), grading)


_A2 = ("a0", "a1")
_A3 = ("a0", "a1", "a2")
_PQ = ("p1", "q1")
_W = DominantWeight
_Q42 = "1 + t + 2*t^2 + t^3 + t^4"  # the (4,2) Gaussian binomial


def _square_ring() -> PresentedRing:
    """C[a]/(a^2) as a presented ring -- the base of every jet example."""
    return PresentedRing(("a",), (1,), (_p("a^2", ("a",)),), provenance="custom")


def _d2_ideal() -> Ideal:
    return _ideal(_A2, ("a0^2", "a0*a1"))


def _d3_ideal() -> Ideal:
    return _ideal(_A3, ("a0^2", "a0*a1", "a0*a2 + a1^2"))


def _gr21_ideal() -> Ideal:
    return _ideal(_PQ, ("p1 + q1", "p1*q1"))


def _gr21_map() -> PolynomialMap:
    return grassmann_presentation(2, 1).as_map()


def _gr24_map() -> PolynomialMap:
    return grassmann_presentation(4, 2).as_map()


def _x2_map() -> PolynomialMap:
    return PolynomialMap.build((_p("x^2", ("x",)),), WeightedGrading((1,)))


def _degenerate_map() -> PolynomialMap:
    return PolynomialMap.build((_p("a0^2", _A2), _p("a0*a1", _A2)), WeightedGrading((1, 2)))


def _texts(polys) -> list[str]:
    return [str(p) for p in polys]


# ---------------------------------------------------------------------------
# a standalone named check (public; a catalogue case runs it)


def embedded_point_check(limits: ReductionLimits = DEFAULT_LIMITS) -> bool:
    """(a0, a1)^2 intersected with (a0) equals (a0^2, a0*a1)."""
    return ideal_equal(_square_meet("a0", limits), _d2_ideal(), limits=limits)


# ---------------------------------------------------------------------------
# values that several rows, or one row's several sides, read off one object


def _square_z_coefficients(_) -> list:
    """The z^0, z^1, z^2 coefficients of (a0 + a1 z + a2 z^2)^2, as term dicts."""
    vs = ("a0", "a1", "a2", "z")
    series = _p("a0 + a1*z + a2*z^2", vs)
    by_z: dict[int, dict] = {}
    for exps, c in (series * series).terms.items():
        by_z.setdefault(exps[3], {})[exps[:3]] = c
    return [by_z.get(k) for k in range(3)]


def _jacobian_degree(m: PolynomialMap) -> tuple[int, int]:
    """Weighted degree of the Jacobian, and sum(degrees) - sum(weights)."""
    d = weighted_degree(jacobian_determinant(m), m.grading)
    return d, sum(m.degrees) - sum(m.grading.weights)


def _syzygy_cube(limits) -> tuple[bool, str]:
    """Is a1^3 in the lex basis of the degree-3 jet ideal; its grevlex normal form."""
    lex = groebner_basis(_d3_ideal(), Lex(), limits)
    cube = _p("a1^3", _A3)
    in_lex = cube in lex.basis
    return in_lex, str(normal_form(cube, groebner_basis(_d3_ideal(), limits=limits)))


def _meets_itself(ideal: Ideal, limits) -> bool:
    return ideal_equal(ideal_intersection(ideal, ideal, limits), ideal, limits=limits)


def _scaled_generator_differs(limits) -> tuple[bool, str]:
    """Are (a0a2 + a1^2) and (2a0a2 + a1^2) equal; the first reduced modulo the second."""
    one = _ideal(_A3, ("a0*a2 + a1^2",))
    two = _ideal(_A3, ("2*a0*a2 + a1^2",))
    equal = ideal_equal(one, two, limits=limits)
    return equal, str(normal_form(one.generators[0], groebner_basis(two, limits=limits)))


def _square_meet(text: str, limits) -> Ideal:
    """(a0, a1)^2 intersected with the principal ideal of `text`."""
    linear = _ideal(_A2, ("a0", "a1"))
    return ideal_intersection(ideal_product(linear, linear), _ideal(_A2, (text,)), limits)


def _socle_degrees(q: FiniteGradedAlgebra) -> list[set[int]]:
    return [{q.grading.degree(e) for e in s.terms} for s in socle(q)]


def _structure(m: PolynomialMap, limits) -> tuple:
    """(finite, all clauses true, clause count, dimension, m(1)) of a structure report."""
    rep = verify_structure_theorem(m, limits)
    return rep.finite_dimensional, rep.all_true(), len(rep.clauses), rep.dimension, rep.m_at_1


def _ring_text(ring: PresentedRing) -> tuple[tuple[str, ...], list[str]]:
    return ring.variables, _texts(ring.relations)


def _graded_relations(ring: PresentedRing) -> list[tuple[str, int]]:
    return [(str(r), weighted_degree(r, ring.grading())) for r in ring.relations]


def _square_jet(order: int, texts: tuple[str, ...], limits) -> tuple:
    """Variables and relations of the order-`order` jets of C[a]/(a^2), and
    whether their ideal is the one generated by `texts`."""
    ring = jet_presentation(_square_ring(), order).ring
    same = ideal_equal(ring.ideal(), _ideal(ring.variables, texts), limits=limits)
    return ring.variables, _texts(ring.relations), same


def _square_jet_order_3(limits) -> tuple[list, bool, bool, bool]:
    """Order-3 jet relations (term dicts), both directions of a2 -> 2a2, and
    whether the jet ideal equals the reference ideal without the rescaling."""
    ring = jet_presentation(_square_ring(), 3).ring
    rescaled = apply_substitution(_d3_ideal(), {"a2": _p("2*a2", _A3)})
    forward = ideal_equal(rescaled, ring.ideal(), limits=limits)
    halved = apply_substitution(ring.ideal(), {"a2": _p("1/2*a2", _A3)})
    back = ideal_equal(halved, _d3_ideal(), limits=limits)
    unrescaled = ideal_equal(ring.ideal(), _d3_ideal(), limits=limits)
    return [r.terms for r in ring.relations], forward, back, unrescaled


def _substitution_identity(limits) -> bool:
    ideal = _d3_ideal()
    return ideal_equal(apply_substitution(ideal, {}), ideal, limits=limits)


def _square_jet_invariants(order: int, limits) -> tuple:
    """(Krull dimension, finite, dimension, Hilbert series) of C[a]/(a^2) jets."""
    inv = jet_invariants(jet_presentation(_square_ring(), order), limits)
    return inv.krull_dimension, inv.finite, inv.dimension, str(inv.hilbert)


def _order_1_is_identity(limits) -> bool:
    """Renamed into the order-1 jet ring, the (3,1) ideal is the jet ideal."""
    ring = grassmann_presentation(3, 1)
    jet = jet_presentation(ring, 1)
    target = jet.ring.variables
    assignment = {
        v: Polynomial.variable(target, jv)
        for v, jv in zip(ring.variables, target)
    }
    renamed = apply_substitution(ring.ideal(), assignment)
    return ideal_equal(renamed, jet.ring.ideal(), limits=limits)


def _jet_counts(ring: PresentedRing, order: int) -> tuple[int, int, int, int]:
    """Variable and relation counts of the ring and of its order-`order` jets."""
    jet = jet_presentation(ring, order).ring
    return len(ring.variables), len(ring.relations), len(jet.variables), len(jet.relations)


def _jet_weights(_) -> tuple[int, ...]:
    """Weights of the order-2 jets of the (3,1) ring; raises if a relation
    is not quasi-homogeneous for them."""
    ring = jet_presentation(grassmann_presentation(3, 1), 2).ring
    grading = ring.grading()
    for rel in ring.relations:
        if not rel.is_zero():
            weighted_degree(rel, grading)
    return ring.weights


def _strata(mu: DominantWeight) -> list[tuple]:
    return [(s.status, s.polynomial, s.note) for s in closure_vs_grassmann_dimensions(mu).strata]


# ---------------------------------------------------------------------------
# named runners: cases that return their own witness


def _inhomogeneity_witnesses(_):
    try:
        weighted_degree(_p("a0^2 + a1", _A2), WeightedGrading.units(2))
    except NotQuasiHomogeneous as e:
        return None if sorted(e.degrees) == [1, 2] else f"witness degrees {e.degrees}"
    return "no inhomogeneity report"


def _zero_polynomial_has_no_degree(_):
    try:
        weighted_degree(Polynomial.zero(_A2), WeightedGrading.units(2))
    except ZeroDegreeUndefined:
        return None
    return "zero polynomial was assigned a degree"


def _degenerate_map_not_finite(limits):
    try:
        build_quotient(_degenerate_map(), limits)
    except NotFinite as e:
        return None if e.basis.basis else "error carried no basis"
    return "degenerate map produced a finite algebra"


def _pairing_flags_fat_socle(limits):
    # three quadric generators in two variables: socle is {x, y}, 2-dimensional
    vs = ("x", "y")
    ideal = _ideal(vs, ("x^2", "x*y", "y^2"))
    gb = groebner_basis(ideal, limits=limits)
    q = FiniteGradedAlgebra(gb, WeightedGrading.units(2))
    if len(socle(q)) != 2:
        return f"socle dimension {len(socle(q))}"
    try:
        pairing_matrices(q)
    except ValueError:
        return None
    return "pairing accepted a 2-dimensional socle"


def _structure_sweep(limits):
    for n in range(2, 6):
        for k in range(1, n):
            rep = verify_structure_theorem(grassmann_presentation(n, k).as_map(), limits)
            if not rep.all_true():
                bad = [c for c, v in rep.clauses.items() if not v]
                return f"({n},{k}) failed {bad}"
    return None


def _negative_control_corrupted_order_3(limits):
    jet = jet_presentation(_square_ring(), 3)
    corrupted = _ideal(_A3, ("a0^2", "a0*a1", "a0*a2 - a1^2"))
    rescaled = apply_substitution(corrupted, {"a2": _p("2*a2", _A3)})
    if ideal_equal(rescaled, jet.ring.ideal(), limits=limits):
        return None
    gb = groebner_basis(rescaled, limits=limits)
    witness = next(
        (normal_form(g, gb) for g in jet.ring.ideal().generators
         if not normal_form(g, gb).is_zero()),
        None,
    )
    return f"ideals differ; normal-form witness: {witness}"


def _structure_random_sweep(seed: int, limits: ReductionLimits) -> str | None:
    rng = random.Random(seed)
    for i in range(5):
        m = random_zero_dimensional_map(rng, n_vars=rng.randint(1, 3), max_degree=4, limits=limits)
        rep = verify_structure_theorem(m, limits)
        if not rep.all_true():
            bad = [k for k, v in rep.clauses.items() if not v]
            return f"sample {i} failed clauses {bad}"
    return None


# ---------------------------------------------------------------------------
# the catalogue: one row per case, plus the seeded sweep in `catalogue`

_WITNESS = object()  # `expected` of a named runner: its result is the witness

_ROWS = (
    # -- poly_core
    CheckCase(
        "poly.parse_single_monomial", "trivial", "text 'a0^2' parses to the squared first variable",
        lambda _: _p("a0^2", _A2).terms, {(2, 0): 1},
    ),
    CheckCase(
        "poly.parse_two_term_generator", "paper",
        "the degree-4 jet relation a0*a2 + a1^2 parses with both terms",
        lambda _: _p("a0*a2 + a1^2", _A3).terms, {(1, 0, 1): 1, (0, 2, 0): 1},
    ),
    CheckCase(
        "poly.parse_zero", "trivial", "text '0' is the empty-term polynomial",
        lambda _: _p("0", _A2).terms, {},
    ),
    CheckCase(
        "poly.product_of_monic_linear_factors", "paper",
        "(p1+x)(q1+x) expands to p1*q1 + (p1+q1)x + x^2",
        lambda _: str(_p("p1 + x", (*_PQ, "x")) * _p("q1 + x", (*_PQ, "x"))),
        "p1*q1 + p1*x + q1*x + x^2",
    ),
    CheckCase(
        "poly.additive_identity", "trivial", "f + 0 = f",
        lambda _: (_p("3*a0 - 1/2*a1", _A2) + Polynomial.zero(_A2)).terms,
        {(1, 0): 3, (0, 1): Fraction(-1, 2)},
    ),
    CheckCase(
        "poly.truncated_series_square", "derived",
        "(a0 + a1 z + a2 z^2)^2 has z-coefficients a0^2, 2a0a1, 2a0a2 + a1^2",
        _square_z_coefficients, [{(2, 0, 0): 1}, {(1, 1, 0): 2}, {(1, 0, 1): 2, (0, 2, 0): 1}],
    ),
    CheckCase(
        "poly.weighted_degree_mixed_weights", "derived",
        "a0*a2 + a1^2 has weighted degree 4 under weights (1,2,3)",
        lambda _: weighted_degree(_p("a0*a2 + a1^2", _A3), WeightedGrading((1, 2, 3))), 4,
    ),
    CheckCase(
        "poly.weighted_degree_pure_power", "trivial", "x^5 has degree 5 under unit weights",
        lambda _: weighted_degree(_p("x^5", ("x",)), WeightedGrading((1,))), 5,
    ),
    CheckCase(
        "poly.inhomogeneity_witnesses", "trivial",
        "a0^2 + a1 is flagged with witness degrees 2 and 1",
        _inhomogeneity_witnesses, _WITNESS,
    ),
    CheckCase(
        "poly.zero_polynomial_has_no_degree", "trivial",
        "the zero polynomial raises the distinguished degree error",
        _zero_polynomial_has_no_degree, _WITNESS,
    ),
    CheckCase(
        "poly.jacobian_one_variable", "trivial", "the map (x^2) has Jacobian determinant 2x",
        lambda _: jacobian_determinant(_x2_map()).terms, {(1,): 2},
    ),
    CheckCase(
        "poly.jacobian_two_by_two", "derived",
        "the map (p1+q1, p1*q1) has Jacobian determinant p1 - q1",
        lambda _: str(jacobian_determinant(_gr21_map())), "p1 - q1",
    ),
    CheckCase(
        "poly.jacobian_degree_grassmann_4_2", "derived",
        "Jacobian degree of the (4,2) presentation map is (1+2+3+4)-(1+2+1+2) = 4",
        lambda _: _jacobian_degree(_gr24_map()), (4, 4),
    ),
    # -- groebner
    CheckCase(
        "groebner.reduced_basis_gr_2_1", "derived",
        "(p1+q1, p1*q1) reduces to the basis {p1+q1, q1^2}",
        lambda limits: _texts(groebner_basis(_gr21_ideal(), limits=limits).basis),
        ["p1 + q1", "q1^2"],
    ),
    CheckCase(
        "groebner.principal_ideal", "trivial", "(a0) is its own reduced basis",
        lambda limits: [g.terms for g in groebner_basis(_ideal(_A2, ("a0",)), limits=limits).basis],
        [{(1, 0): 1}],
    ),
    CheckCase(
        "groebner.syzygy_gives_cube", "derived",
        "a1^3 = a1(a0a2+a1^2) - a2(a0a1) enters the lex basis of the degree-3 jet ideal",
        _syzygy_cube, (True, "0"),
    ),
    CheckCase(
        "groebner.normal_form_reduces_generator", "derived", "p1*q1 reduces to zero through -q1^2",
        lambda limits: str(
            normal_form(_p("p1*q1", _PQ), groebner_basis(_gr21_ideal(), limits=limits))
        ),
        "0",
    ),
    CheckCase(
        "groebner.normal_form_of_unit", "trivial",
        "1 survives reduction modulo a proper homogeneous ideal",
        lambda limits: normal_form(
            Polynomial.constant(_A2, 1), groebner_basis(_d2_ideal(), limits=limits)
        ).terms,
        {(0, 0): 1},
    ),
    CheckCase(
        "groebner.normal_form_of_jet_generator", "paper",
        "a0*a2 + a1^2 is a member of the degree-3 jet ideal",
        lambda limits: str(
            normal_form(_p("a0*a2 + a1^2", _A3), groebner_basis(_d3_ideal(), limits=limits))
        ),
        "0",
    ),
    CheckCase(
        "groebner.zero_dimensional_gr_2_1", "derived",
        "(p1+q1, q1^2) has pure-power leading monomials p1 and q1^2",
        lambda limits: is_zero_dimensional(groebner_basis(_gr21_ideal(), limits=limits)), True,
    ),
    CheckCase(
        "groebner.not_zero_dimensional_embedded_line", "paper",
        "(a0^2, a0a1) has no pure power of a1: an infinite staircase",
        lambda limits: is_zero_dimensional(groebner_basis(_d2_ideal(), limits=limits)), False,
    ),
    CheckCase(
        "groebner.zero_dimensional_principal", "trivial", "(x) in one variable is zero-dimensional",
        lambda limits: is_zero_dimensional(groebner_basis(_ideal(("x",), ("x",)), limits=limits)),
        True,
    ),
    CheckCase(
        "groebner.staircase_gr_2_1", "derived", "standard monomials of (p1+q1, q1^2) are 1 and q1",
        lambda limits: standard_monomials(groebner_basis(_gr21_ideal(), limits=limits)),
        [(0, 0), (0, 1)],
    ),
    CheckCase(
        "groebner.staircase_count_gr_4_2", "derived",
        "the (4,2) presentation has 6 standard monomials = C(4,2)",
        lambda limits: len(
            standard_monomials(groebner_basis(grassmann_presentation(4, 2).ideal(), limits=limits))
        ),
        6,
    ),
    CheckCase(
        "groebner.staircase_principal", "trivial", "(x) leaves only the constant monomial",
        lambda limits: standard_monomials(groebner_basis(_ideal(("x",), ("x",)), limits=limits)),
        [(0,)],
    ),
    CheckCase(
        "groebner.hilbert_series_finite_quotient", "derived",
        "quotient by (p1+q1, p1q1) has Hilbert series 1 + t",
        lambda limits: str(hilbert_series(_gr21_ideal(), limits=limits)), "1 + t",
    ),
    CheckCase(
        "groebner.hilbert_series_embedded_point", "derived",
        "quotient by (a0^2, a0a1) has series (1 + t - t^2)/(1 - t)",
        lambda limits: str(hilbert_series(_d2_ideal(), limits=limits)), "(1 + t - t^2)/(1 - t)",
    ),
    CheckCase(
        "groebner.hilbert_series_free_ring", "trivial",
        "the zero ideal in one weight-1 variable gives 1/(1 - t)",
        lambda limits: str(hilbert_series(Ideal(("x",), (), WeightedGrading((1,))), limits=limits)),
        "(1)/(1 - t)",
    ),
    CheckCase(
        "groebner.krull_dimension_embedded_point", "paper",
        "the degree-2 jet ideal cuts out a line: dimension 1",
        lambda limits: krull_dimension(_d2_ideal(), limits), 1,
    ),
    CheckCase(
        "groebner.krull_dimension_grassmann", "derived",
        "the (4,2) presentation ideal is zero-dimensional",
        lambda limits: krull_dimension(grassmann_presentation(4, 2).ideal(), limits), 0,
    ),
    CheckCase(
        "groebner.krull_dimension_zero_ideal", "trivial",
        "the zero ideal in 3 variables has dimension 3",
        lambda limits: krull_dimension(Ideal(_A3, (), WeightedGrading.units(3)), limits), 3,
    ),
    CheckCase(
        "groebner.intersection_embedded_point", "paper",
        "(a0,a1)^2 meet (a0) equals (a0^2, a0a1) by elimination",
        lambda limits: embedded_point_check(limits), True,
    ),
    CheckCase(
        "groebner.intersection_idempotent", "trivial", "I meet I = I",
        lambda limits: _meets_itself(_gr21_ideal(), limits), True,
    ),
    CheckCase(
        "groebner.intersection_coprime_principal", "derived", "(a0) meet (a1) = (a0*a1)",
        lambda limits: ideal_equal(
            ideal_intersection(_ideal(_A2, ("a0",)), _ideal(_A2, ("a1",)), limits),
            _ideal(_A2, ("a0*a1",)),
            limits=limits,
        ),
        True,
    ),
    CheckCase(
        "groebner.equality_unit_scaling", "trivial", "(x) and (2x) are the same ideal",
        lambda limits: ideal_equal(
            _ideal(("x",), ("x",)), _ideal(("x",), ("2*x",)), limits=limits
        ),
        True,
    ),
    CheckCase(
        "groebner.inequality_with_witness", "derived",
        "(a0a2 + a1^2) differs from (2a0a2 + a1^2), witnessed by a normal form",
        _scaled_generator_differs, (False, "-a0*a2"),
    ),
    CheckCase(
        "groebner.certification_pass", "derived",
        "every S-polynomial of the worked bases reduces to zero post hoc",
        lambda limits: [
            certify(groebner_basis(ideal, None, limits), limits)
            for ideal in (_gr21_ideal(), _d3_ideal(), grassmann_presentation(4, 2).ideal())
        ],
        [True] * 3,
    ),
    # -- multiplicity_algebra
    CheckCase(
        "multiplicity.quotient_gr_2_1", "derived",
        "the (2,1) presentation map gives a 2-dimensional algebra on {1, q1}",
        lambda limits: build_quotient(_gr21_map(), limits).basis, ((0, 0), (0, 1)),
    ),
    CheckCase(
        "multiplicity.quotient_x_squared", "paper",
        "(x^2) gives the 2-dimensional algebra of the projective line",
        lambda limits: build_quotient(_x2_map(), limits).dimension, 2,
    ),
    CheckCase(
        "multiplicity.degenerate_map_not_finite", "paper",
        "(a0^2, a0a1) is degenerate: the quotient is not finite-dimensional",
        _degenerate_map_not_finite, _WITNESS,
    ),
    CheckCase(
        "multiplicity.poincare_gr_2_1", "derived",
        "Poincare polynomial of the (2,1) quotient is 1 + t",
        lambda limits: str(poincare_polynomial(build_quotient(_gr21_map(), limits))), "1 + t",
    ),
    CheckCase(
        "multiplicity.poincare_gr_4_2", "derived",
        "Poincare polynomial of the (4,2) quotient equals the (4,2) Gaussian binomial",
        lambda limits: (
            str(poincare_polynomial(build_quotient(_gr24_map(), limits))),
            str(gaussian_binomial(4, 2)),
        ),
        (_Q42, _Q42),
    ),
    CheckCase(
        "multiplicity.poincare_x_squared", "paper", "Poincare polynomial of C[x]/(x^2) is 1 + t",
        lambda limits: str(poincare_polynomial(build_quotient(_x2_map(), limits))), "1 + t",
    ),
    CheckCase(
        "multiplicity.socle_x_squared", "trivial",
        "socle of C[x]/(x^2) is spanned by x in degree 1",
        lambda limits: _texts(socle(build_quotient(_x2_map(), limits))), ["x"],
    ),
    CheckCase(
        "multiplicity.socle_gr_2_1", "derived", "socle of the (2,1) quotient is spanned by q1",
        lambda limits: _texts(socle(build_quotient(_gr21_map(), limits))), ["q1"],
    ),
    CheckCase(
        "multiplicity.socle_gr_4_2", "derived",
        "socle of the (4,2) quotient is one-dimensional in degree 4 = k(n-k)",
        lambda limits: _socle_degrees(build_quotient(_gr24_map(), limits)), [{4}],
    ),
    CheckCase(
        "multiplicity.jacobian_socle_x_squared", "trivial", "2x spans the socle of C[x]/(x^2)",
        lambda limits: jacobian_spans_socle(build_quotient(_x2_map(), limits)), True,
    ),
    CheckCase(
        "multiplicity.jacobian_socle_gr_2_1", "derived",
        "p1 - q1 reduces to -2q1 and spans the socle",
        lambda limits: jacobian_spans_socle(build_quotient(_gr21_map(), limits)), True,
    ),
    CheckCase(
        "multiplicity.jacobian_socle_gr_4_2", "derived",
        "the (4,2) Jacobian determinant spans the socle",
        lambda limits: jacobian_spans_socle(build_quotient(_gr24_map(), limits)), True,
    ),
    CheckCase(
        "multiplicity.pairing_x_squared", "trivial", "the (1, x) pairing of C[x]/(x^2) is perfect",
        lambda limits: pairing_matrices(build_quotient(_x2_map(), limits)).perfect, True,
    ),
    CheckCase(
        "multiplicity.pairing_gr_4_2_middle", "derived",
        "the 2x2 middle-degree pairing matrix of the (4,2) quotient is invertible",
        lambda limits: [
            (p.degree, len(p.matrix), p.rank, p.perfect)
            for p in pairing_matrices(build_quotient(_gr24_map(), limits)).by_degree
        ],
        [(0, 1, 1, True), (1, 1, 1, True), (2, 2, 2, True), (3, 1, 1, True), (4, 1, 1, True)],
    ),
    CheckCase(
        "multiplicity.pairing_flags_fat_socle", "trivial",
        "a 2-dimensional socle (non-square degree pairing) is rejected",
        _pairing_flags_fat_socle, _WITNESS,
    ),
    CheckCase(
        "multiplicity.equivariant_cancellation", "derived",
        "degrees {1,2} over weights {1,1} reduce to 1 + t",
        lambda _: str(equivariant_multiplicity((1, 1), (1, 2))), "1 + t",
    ),
    CheckCase(
        "multiplicity.equivariant_gr_4_2", "derived",
        "degrees {1,2,3,4} over weights {1,2,1,2} give the (4,2) Gaussian binomial",
        lambda _: (
            str(equivariant_multiplicity((1, 2, 1, 2), (1, 2, 3, 4))),
            str(gaussian_binomial(4, 2)),
        ),
        (_Q42, _Q42),
    ),
    CheckCase(
        "multiplicity.equivariant_identity_map", "trivial",
        "equal weight multisets give the constant series 1",
        lambda _: str(equivariant_multiplicity((1, 2), (1, 2))), "1",
    ),
    CheckCase(
        "multiplicity.structure_report_gr_4_2", "derived",
        "the (4,2) quotient passes every structure clause with dimension 6",
        lambda limits: _structure(_gr24_map(), limits), (True, True, 9, 6, 6),
    ),
    CheckCase(
        "multiplicity.structure_report_x_squared", "paper",
        "C[x]/(x^2) passes every structure clause with dimension 2",
        lambda limits: _structure(_x2_map(), limits), (True, True, 9, 2, 2),
    ),
    CheckCase(
        "multiplicity.structure_report_degenerate", "paper",
        "the degenerate map reports finite_dimensional = false and nothing else",
        lambda limits: _structure(_degenerate_map(), limits), (False, False, 0, None, None),
    ),
    CheckCase(
        "multiplicity.base_weights_rank_1", "derived",
        "rank 1 genus 2 base weights are {1,1}, cardinality 1^2 * 1 + 1",
        lambda _: hitchin_base_weights(1, 2), (1, 1),
    ),
    CheckCase(
        "multiplicity.base_weights_rank_2", "derived",
        "rank 2 genus 2 base weights are {1,1,2,2,2}, cardinality 5",
        lambda _: hitchin_base_weights(2, 2), (1, 1, 2, 2, 2),
    ),
    # -- grassmann
    CheckCase(
        "grassmann.gaussian_2_1", "derived",
        "the (2,1) Gaussian binomial is 1 + t (counts lines in the plane)",
        lambda _: str(gaussian_binomial(2, 1)), "1 + t",
    ),
    CheckCase(
        "grassmann.gaussian_4_2", "derived",
        "the (4,2) Gaussian binomial is 1 + t + 2t^2 + t^3 + t^4, value 6 at t=1",
        lambda _: (str(gaussian_binomial(4, 2)), gaussian_binomial(4, 2)(1)), (_Q42, 6),
    ),
    CheckCase(
        "grassmann.gaussian_k_zero", "trivial", "[n 0] = 1",
        lambda _: str(gaussian_binomial(7, 0)), "1",
    ),
    CheckCase(
        "grassmann.presentation_2_1", "paper",
        "the (2,1) ring has variables (p1, q1) and relations p1+q1, p1*q1",
        lambda _: _ring_text(grassmann_presentation(2, 1)), (_PQ, ["p1 + q1", "p1*q1"]),
    ),
    CheckCase(
        "grassmann.presentation_4_2", "derived",
        "the (4,2) ring has 4 relations of degrees 1..4 from the monic product",
        lambda _: _graded_relations(grassmann_presentation(4, 2)),
        [("p1 + q1", 1), ("p1*q1 + p2 + q2", 2), ("p2*q1 + p1*q2", 3), ("p2*q2", 4)],
    ),
    CheckCase(
        "grassmann.presentation_3_1", "derived",
        "(p1+x)(q2+q1x+x^2) yields relations p1q2, p1q1+q2, p1+q1",
        lambda _: _ring_text(grassmann_presentation(3, 1)),
        (("p1", "q1", "q2"), ["p1 + q1", "p1*q1 + q2", "p1*q2"]),
    ),
    CheckCase(
        "grassmann.multiplicity_single_point_rank_2", "paper",
        "rank 2 with one simple point gives 1 + t",
        lambda _: str(grassmann_multiplicity(DivisorData(2, (1,)))), "1 + t",
    ),
    CheckCase(
        "grassmann.multiplicity_single_factor", "derived",
        "rank 4 with m = (0,1,0) is the single factor [4 2]",
        lambda _: (
            str(grassmann_multiplicity(DivisorData(4, (0, 1, 0)))),
            str(gaussian_binomial(4, 2)),
        ),
        (_Q42, _Q42),
    ),
    CheckCase(
        "grassmann.multiplicity_square", "derived",
        "rank 3 with m = (1,1) gives (1+t+t^2)^2 = 1 + 2t + 3t^2 + 2t^3 + t^4",
        lambda _: str(grassmann_multiplicity(DivisorData(3, (1, 1)))),
        "1 + 2*t + 3*t^2 + 2*t^3 + t^4",
    ),
    CheckCase(
        "grassmann.product_hilbert_two_lines", "derived",
        "two copies of the (2,1) ring give (1+t)^2 by the dimension count",
        lambda limits: str(product_hilbert([grassmann_presentation(2, 1)] * 2, limits)),
        "1 + 2*t + t^2",
    ),
    CheckCase(
        "grassmann.product_hilbert_empty", "trivial", "the empty product has Hilbert series 1",
        lambda limits: str(product_hilbert([], limits)), "1",
    ),
    CheckCase(
        "grassmann.product_hilbert_matches_multiplicity", "derived",
        "one (4,2) factor matches the divisor-data product formula",
        lambda limits: (
            str(product_hilbert([grassmann_presentation(4, 2)], limits)),
            str(grassmann_multiplicity(DivisorData(4, (0, 1, 0)))),
        ),
        (_Q42, _Q42),
    ),
    CheckCase(
        "grassmann.structure_sweep", "derived",
        "every presentation with n up to 5 passes the full structure suite",
        _structure_sweep, _WITNESS,
    ),
    CheckCase(
        "grassmann.gaussian_duality", "derived", "[n k] = [n n-k] for n up to 6",
        lambda _: [
            (n, k) for n in range(1, 7) for k in range(0, n + 1)
            if gaussian_binomial(n, k) != gaussian_binomial(n, n - k)
        ],
        [],
    ),
    CheckCase(
        "grassmann.gaussian_pascal_recurrence", "derived",
        "[n k] = [n-1 k-1] + t^k [n-1 k] for n up to 10",
        lambda _: [
            (n, k) for n in range(1, 11) for k in range(1, n)
            if gaussian_binomial(n, k)
            != gaussian_binomial(n - 1, k - 1) + UniPoly.term(1, k) * gaussian_binomial(n - 1, k)
        ],
        [],
    ),
    CheckCase(
        "grassmann.equivariant_closed_form", "derived",
        "weight ratio {1..n} over {1..k}+{1..n-k} equals [n k] for n up to 8",
        lambda _: [
            (n, k) for n in range(2, 9) for k in range(1, n)
            if equivariant_multiplicity(
                (*range(1, k + 1), *range(1, n - k + 1)), tuple(range(1, n + 1))
            )
            != gaussian_binomial(n, k)
        ],
        [],
    ),
    # -- jets
    CheckCase(
        "jets.square_zero_order_1", "paper", "order-1 jets of C[a]/(a^2) are C[a0]/(a0^2)",
        lambda limits: _square_jet(1, ("a0^2",), limits), (("a0",), ["a0^2"], True),
    ),
    CheckCase(
        "jets.square_zero_order_2", "paper",
        "order-2 jets give (a0^2, 2a0a1), the ideal (a0^2, a0a1)",
        lambda limits: _square_jet(2, ("a0^2", "a0*a1"), limits),
        (_A2, ["a0^2", "2*a0*a1"], True),
    ),
    CheckCase(
        "jets.square_zero_order_3", "paper",
        "order-3 jets give (a0^2, 2a0a1, 2a0a2+a1^2): the reference ideal rescaled by a2 -> 2a2, "
        "and not the reference ideal itself",
        _square_jet_order_3,
        ([{(2, 0, 0): 1}, {(1, 1, 0): 2}, {(1, 0, 1): 2, (0, 2, 0): 1}], True, True, False),
    ),
    CheckCase(
        "jets.substitution_identity", "trivial", "the identity substitution preserves the ideal",
        _substitution_identity, True,
    ),
    CheckCase(
        "jets.substitution_collapse_to_zero", "trivial",
        "a0 -> 0 on (a0^2) collapses to the zero ideal",
        lambda _: apply_substitution(
            _ideal(_A2, ("a0^2",)), {"a0": Polynomial.zero(_A2)}
        ).generators,
        (),
    ),
    CheckCase(
        "jets.invariants_order_2", "derived",
        "order-2 jets of the square-zero ring: a line (dimension 1), series (1+t-t^2)/(1-t)",
        lambda limits: _square_jet_invariants(2, limits), (1, False, None, "(1 + t - t^2)/(1 - t)"),
    ),
    CheckCase(
        "jets.invariants_order_1", "paper",
        "order-1 jets are the ring itself: finite of dimension 2",
        lambda limits: _square_jet_invariants(1, limits), (0, True, 2, "1 + t"),
    ),
    CheckCase(
        "jets.order_1_is_identity", "trivial",
        "order-1 jets of the (3,1) ring equal the ring after renaming",
        _order_1_is_identity, True,
    ),
    CheckCase(
        "jets.counts_scale_with_order", "trivial",
        "variable and relation counts both scale by the jet order",
        lambda _: _jet_counts(grassmann_presentation(3, 2), 3), (3, 3, 9, 9),
    ),
    CheckCase(
        "jets.induced_grading_homogeneous", "derived",
        "jet relations are quasi-homogeneous for weight(x, level j) = weight(x) + j",
        _jet_weights, (1, 2, 1, 2, 2, 3),  # p1 then q1, q2, each at levels 0 and 1
    ),
    CheckCase(
        "jets.negative_control_corrupted_order_3", "trivial",
        "a sign-flipped order-3 fixture must NOT match the rescaled jet ideal",
        _negative_control_corrupted_order_3, _WITNESS, negative_control=True,
    ),
    # -- weights
    CheckCase(
        "weights.dominance_positive_root", "derived",
        "(1,1,0) lies below (2,0,0): the difference is a positive root",
        lambda _: dominance_leq(_W((1, 1, 0)), _W((2, 0, 0))), True,
    ),
    CheckCase(
        "weights.dominance_reflexive", "trivial", "every weight lies below itself",
        lambda _: dominance_leq(_W((3, 1, 0)), _W((3, 1, 0))), True,
    ),
    CheckCase(
        "weights.dominance_totals_differ", "trivial",
        "(2,0) and (1,0) are incomparable: totals differ",
        lambda _: (dominance_leq(_W((2, 0)), _W((1, 0))), dominance_leq(_W((1, 0)), _W((2, 0)))),
        (False, False),
    ),
    CheckCase(
        "weights.lower_set_two_zero", "derived", "the closure of (2,0) has strata (2,0) and (1,1)",
        lambda _: [w.entries for w in lower_set(_W((2, 0)))], [(2, 0), (1, 1)],
    ),
    CheckCase(
        "weights.lower_set_four_zero", "derived",
        "the closure of (4,0) has 3 = floor(4/2)+1 strata",
        lambda _: [w.entries for w in lower_set(_W((4, 0)))], [(4, 0), (3, 1), (2, 2)],
    ),
    CheckCase(
        "weights.lower_set_minuscule_singleton", "paper",
        "the first fundamental weight of GL_3 is alone in its closure",
        lambda _: [w.entries for w in lower_set(_W((1, 0, 0)))], [(1, 0, 0)],
    ),
    CheckCase(
        "weights.orbit_size_rank_2", "paper", "(d+1, 0) has a 2-element symmetric-group orbit",
        lambda _: [weyl_orbit_size(_W((d + 1, 0))) for d in range(0, 6)], [2] * 6,
    ),
    CheckCase(
        "weights.orbit_size_choose", "derived", "(3,3,0,0) has orbit size 4!/(2!2!) = 6 = C(4,2)",
        lambda _: weyl_orbit_size(_W((3, 3, 0, 0))), 6,
    ),
    CheckCase(
        "weights.orbit_size_central", "trivial", "constant weights have a singleton orbit",
        lambda _: weyl_orbit_size(_W((5, 5, 5))), 1,
    ),
    CheckCase(
        "weights.decomposition_omega_2", "derived",
        "(1,1,0,0) decomposes as omega_2 with reversed exponents (0,0,1,0)",
        lambda _: fundamental_decomposition(_W((1, 1, 0, 0))), ((0, 1, 0, 0), (0, 0, 1, 0)),
    ),
    CheckCase(
        "weights.decomposition_rank_2", "paper",
        "(2,0) has coefficients (2,0) and reversed exponents (0,2)",
        lambda _: fundamental_decomposition(_W((2, 0))), ((2, 0), (0, 2)),
    ),
    CheckCase(
        "weights.decomposition_zero", "trivial", "the zero weight decomposes to all zeros",
        lambda _: fundamental_decomposition(_W((0, 0, 0))), ((0, 0, 0), (0, 0, 0)),
    ),
    CheckCase(
        "weights.minuscule_omega_2", "paper", "the second fundamental weight of GL_4 is minuscule",
        lambda _: is_minuscule(_W((1, 1, 0, 0))), True,
    ),
    CheckCase(
        "weights.minuscule_fails_above", "derived",
        "(2,0) is not minuscule: (1,1) lies strictly below",
        lambda _: is_minuscule(_W((2, 0))), False,
    ),
    CheckCase(
        "weights.minuscule_zero", "trivial", "the zero weight is minuscule",
        lambda _: is_minuscule(_W((0, 0, 0))), True,
    ),
    # -- verification_suite
    CheckCase(
        "verification.embedded_point_symmetric", "derived",
        "(a0,a1)^2 meet (a1) = (a1^2, a0a1) by the same elimination",
        lambda limits: ideal_equal(
            _square_meet("a1", limits), _ideal(_A2, ("a1^2", "a0*a1")), limits=limits
        ),
        True,
    ),
    CheckCase(
        "verification.embedded_point_diagonal_differs", "derived",
        "(a0,a1)^2 meet (a0+a1) is a different ideal",
        lambda limits: ideal_equal(_square_meet("a0 + a1", limits), _d2_ideal(), limits=limits),
        False,
    ),
    CheckCase(
        "verification.closure_rank_2", "derived",
        "(2,0) strata: a jet case without a closed formula, then the central stratum",
        lambda _: _strata(_W((2, 0))),
        [
            ("no_paper_formula", None, "jet case: order-1 jets of the Gr(1,2) ring"),
            ("multiplicity", "1", "central"),
        ],
    ),
    CheckCase(
        "verification.closure_minuscule", "derived",
        "the second fundamental weight of GL_4 has one stratum with the (4,2) binomial",
        lambda _: (_strata(fundamental_weight(4, 2)), str(gaussian_binomial(4, 2))),
        ([("multiplicity", _Q42, "")], _Q42),
    ),
    CheckCase(
        "verification.closure_zero_weight", "trivial",
        "the zero weight has a single stratum with multiplicity polynomial 1",
        lambda _: _strata(_W((0, 0, 0))), [("multiplicity", "1", "central")],
    ),
)

_MODULE_OF_PREFIX = {
    "poly": "poly_core",
    "multiplicity": "multiplicity_algebra",
    "verification": "verification_suite",
}


def catalogue(seed: int = 0) -> tuple[CheckCase, ...]:
    """All cases, sorted by name.  `seed` feeds the randomized sweep."""
    sweep = CheckCase(
        "multiplicity.structure_random_sweep", "derived",
        "five seeded random finite quotients pass every structure clause",
        partial(_structure_random_sweep, seed), _WITNESS,
    )
    cases: dict[str, CheckCase] = {}
    for case in (*_ROWS, sweep):
        if case.name in cases:
            raise ValueError(f"duplicate case name {case.name!r}")
        cases[case.name] = case
    return tuple(sorted(cases.values(), key=lambda c: c.name))


def run_all(
    filter_substring: str | None = None,
    include_negative_controls: bool = False,
    limits: ReductionLimits = DEFAULT_LIMITS,
    seed: int = 0,
) -> RunSummary:
    """Run the catalogue; deterministic, failures returned as data.

    Negative controls only run when asked for: they are *supposed* to
    fail, and a default run must stay green when the mathematics holds.
    """
    cases = catalogue(seed)
    passed: list[str] = []
    failed: list[tuple[str, str]] = []
    skipped: list[tuple[str, str]] = []
    excluded: list[str] = []
    untested: list[str] = []
    modules: dict[str, dict[str, int]] = {}
    for case in cases:
        counts = modules.setdefault(case.module, {"total": 0, "run": 0, "passed": 0})
        counts["total"] += 1
        if filter_substring is not None and filter_substring not in case.name:
            untested.append(case.name)
            continue
        if case.negative_control and not include_negative_controls:
            excluded.append(case.name)
            continue
        counts["run"] += 1
        try:
            witness = case.run(limits)
        except ResourceLimitExceeded as e:
            skipped.append((case.name, f"resource cap of {e.cap} pair reductions hit"))
            continue
        except Exception as e:  # a crash is a failure with its message as witness
            failed.append((case.name, f"{type(e).__name__}: {e}"))
            continue
        if witness is None:
            passed.append(case.name)
            counts["passed"] += 1
        else:
            failed.append((case.name, witness))
    return RunSummary(
        passed=tuple(passed),
        failed=tuple(failed),
        skipped=tuple(skipped),
        excluded_negative_controls=tuple(excluded),
        untested=tuple(untested),
        modules=modules,
    )
