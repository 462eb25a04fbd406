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

Adding a case is one decorated module-level function: put
`@_case(name, tag, anchor)` on a `_`-prefixed runner that takes the
reduction limits and returns None or a witness.  The case's module comes
from the name's prefix ("poly" -> "poly_core", "multiplicity" ->
"multiplicity_algebra", "verification" -> "verification_suite", any
other prefix names its module as is); a name already in the catalogue
raises ValueError.

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
from .series import RationalSeries, UniPoly
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

Runner = Callable[[ReductionLimits], "str | None"]


@dataclass(frozen=True)
class CheckCase:
    """One catalogue entry.  `run` returns None on pass, a witness on fail."""

    name: str
    module: str
    tag: str  # "paper" | "trivial" | "derived"
    anchor: str  # the identity being pinned, in domain language
    run: Runner
    negative_control: bool = False


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


def _square_ring() -> PresentedRing:
    """C[a]/(a^2) as a presented ring -- the base of every jet example."""
    return PresentedRing(("a",), (1,), (_p("a^2", ("a",)),), provenance="custom")


def _d2_ideal() -> Ideal:
    return _ideal(_A2, ("a0^2", "a0*a1"))


def _d3_ideal() -> Ideal:
    return _ideal(_A3, ("a0^2", "a0*a1", "a0*a2 + a1^2"))


def _gr21_map() -> PolynomialMap:
    return grassmann_presentation(2, 1).as_map()


def _gr24_map() -> PolynomialMap:
    return grassmann_presentation(4, 2).as_map()


def _x2_map() -> PolynomialMap:
    return PolynomialMap.build((_p("x^2", ("x",)),), WeightedGrading((1,)))


def _expect(condition: bool, witness: str) -> str | None:
    return None if condition else witness


# ---------------------------------------------------------------------------
# standalone named checks (also exposed to the CLI)


def embedded_point_check(limits: ReductionLimits = DEFAULT_LIMITS) -> bool:
    """(a0, a1)^2 intersected with (a0) equals (a0^2, a0*a1)."""
    linear = _ideal(_A2, ("a0", "a1"))
    axis = _ideal(_A2, ("a0",))
    squared = ideal_product(linear, linear)
    meet = ideal_intersection(squared, axis, limits)
    return ideal_equal(meet, _d2_ideal(), limits=limits)


# ---------------------------------------------------------------------------
# the catalogue: one `@_case` per entry, plus the seeded sweep in `catalogue`

_MODULE_OF_PREFIX = {
    "poly": "poly_core",
    "multiplicity": "multiplicity_algebra",
    "verification": "verification_suite",
}
_SEEDED_SWEEP = "multiplicity.structure_random_sweep"
_REGISTRY: dict[str, CheckCase] = {}


def _check_case(
    name: str, tag: str, anchor: str, run: Runner, negative_control: bool = False
) -> CheckCase:
    prefix = name.split(".", 1)[0]
    module = _MODULE_OF_PREFIX.get(prefix, prefix)
    return CheckCase(name, module, tag, anchor, run, negative_control)


def _case(name: str, tag: str, anchor: str, negative_control: bool = False):
    """Register the decorated runner as the catalogue case `name`."""

    def register(run: Runner) -> Runner:
        if name in _REGISTRY or name == _SEEDED_SWEEP:
            raise ValueError(f"duplicate case name {name!r}")
        _REGISTRY[name] = _check_case(name, tag, anchor, run, negative_control)
        return run

    return register


# ---------------------------------------------------------------------------
# poly_core


@_case("poly.parse_single_monomial", "trivial", "text 'a0^2' parses to the squared first variable")
def _parse_single_monomial(_):
    p = _p("a0^2", _A2)
    return _expect(
        p.terms == {(2, 0): Fraction(1)} and str(p) == "a0^2",
        f"parsed to {p!r}",
    )


@_case(
    "poly.parse_two_term_generator", "paper",
    "the degree-4 jet relation a0*a2 + a1^2 parses with both terms",
)
def _parse_two_term_generator(_):
    p = _p("a0*a2 + a1^2", _A3)
    return _expect(
        p.terms == {(1, 0, 1): Fraction(1), (0, 2, 0): Fraction(1)},
        f"parsed to {p!r}",
    )


@_case("poly.parse_zero", "trivial", "text '0' is the empty-term polynomial")
def _parse_zero(_):
    return _expect(_p("0", _A2).is_zero(), "nonzero parse of '0'")


@_case(
    "poly.product_of_monic_linear_factors", "paper",
    "(p1+x)(q1+x) expands to p1*q1 + (p1+q1)x + x^2",
)
def _product_of_monic_linear_factors(_):
    vs = ("p1", "q1", "x")
    lhs = _p("p1 + x", vs) * _p("q1 + x", vs)
    rhs = _p("p1*q1 + p1*x + q1*x + x^2", vs)
    return _expect(lhs == rhs, f"(p1+x)(q1+x) = {lhs}")


@_case("poly.additive_identity", "trivial", "f + 0 = f")
def _additive_identity(_):
    return _expect((f := _p("3*a0 - 1/2*a1", _A2)) + Polynomial.zero(_A2) == f, "f+0 != f")


@_case(
    "poly.truncated_series_square", "derived",
    "(a0 + a1 z + a2 z^2)^2 has z-coefficients a0^2, 2a0a1, 2a0a2 + a1^2",
)
def _truncated_series_square(_):
    vs = ("a0", "a1", "a2", "z")
    series = _p("a0 + a1*z + a2*z^2", vs)
    sq = series * series
    # read off z-coefficients of the square up to z^2
    by_z: dict[int, dict] = {}
    for exps, c in sq.terms.items():
        by_z.setdefault(exps[3], {})[exps[:3]] = c
    want0 = {(2, 0, 0): Fraction(1)}
    want1 = {(1, 1, 0): Fraction(2)}
    want2 = {(1, 0, 1): Fraction(2), (0, 2, 0): Fraction(1)}
    ok = by_z.get(0) == want0 and by_z.get(1) == want1 and by_z.get(2) == want2
    return _expect(ok, f"z-coefficients were {by_z}")


@_case(
    "poly.weighted_degree_mixed_weights", "derived",
    "a0*a2 + a1^2 has weighted degree 4 under weights (1,2,3)",
)
def _weighted_degree_mixed_weights(_):
    d = weighted_degree(_p("a0*a2 + a1^2", _A3), WeightedGrading((1, 2, 3)))
    return _expect(d == 4, f"degree {d}")


@_case("poly.weighted_degree_pure_power", "trivial", "x^5 has degree 5 under unit weights")
def _weighted_degree_pure_power(_):
    return _expect(weighted_degree(_p("x^5", ("x",)), WeightedGrading((1,))) == 5, "wrong degree")


@_case(
    "poly.inhomogeneity_witnesses", "trivial",
    "a0^2 + a1 is flagged with witness degrees 2 and 1",
)
def _inhomogeneity_witnesses(_):
    try:
        weighted_degree(_p("a0^2 + a1", _A2), WeightedGrading.units(2))
    except NotQuasiHomogeneous as e:
        return _expect(sorted(e.degrees) == [1, 2], f"witness degrees {e.degrees}")
    return "no inhomogeneity report"


@_case(
    "poly.zero_polynomial_has_no_degree", "trivial",
    "the zero polynomial raises the distinguished degree error",
)
def _zero_polynomial_has_no_degree(_):
    try:
        weighted_degree(Polynomial.zero(_A2), WeightedGrading.units(2))
    except ZeroDegreeUndefined:
        return None
    return "zero polynomial was assigned a degree"


@_case("poly.jacobian_one_variable", "trivial", "the map (x^2) has Jacobian determinant 2x")
def _jacobian_one_variable(_):
    return _expect(jacobian_determinant(_x2_map()) == _p("2*x", ("x",)), "wrong derivative")


@_case(
    "poly.jacobian_two_by_two", "derived",
    "the map (p1+q1, p1*q1) has Jacobian determinant p1 - q1",
)
def _jacobian_two_by_two(_):
    jac = jacobian_determinant(_gr21_map())
    want = _p("p1 - q1", ("p1", "q1"))
    return _expect(jac == want, f"J = {jac}")


@_case(
    "poly.jacobian_degree_grassmann_4_2", "derived",
    "Jacobian degree of the (4,2) presentation map is (1+2+3+4)-(1+2+1+2) = 4",
)
def _jacobian_degree_grassmann_4_2(_):
    m = _gr24_map()
    d = weighted_degree(jacobian_determinant(m), m.grading)
    want = sum(m.degrees) - sum(m.grading.weights)
    return _expect(d == want == 4, f"degree {d}, expected {want}")


# ---------------------------------------------------------------------------
# groebner


@_case(
    "groebner.reduced_basis_gr_2_1", "derived",
    "(p1+q1, p1*q1) reduces to the basis {p1+q1, q1^2}",
)
def _reduced_basis_gr_2_1(limits):
    gb = groebner_basis(_ideal(("p1", "q1"), ("p1 + q1", "p1*q1")), limits=limits)
    want = (_p("p1 + q1", ("p1", "q1")), _p("q1^2", ("p1", "q1")))
    return _expect(gb.basis == want, f"basis {[str(b) for b in gb.basis]}")


@_case("groebner.principal_ideal", "trivial", "(a0) is its own reduced basis")
def _principal_ideal(limits):
    return _expect(
        groebner_basis(_ideal(_A2, ("a0",)), limits=limits).basis
        == (_p("a0", _A2),),
        "unexpected basis",
    )


@_case(
    "groebner.syzygy_gives_cube", "derived",
    "a1^3 = a1(a0a2+a1^2) - a2(a0a1) enters the lex basis of the degree-3 jet ideal",
)
def _syzygy_gives_cube(limits):
    gb = groebner_basis(_d3_ideal(), Lex(), limits)
    cube = _p("a1^3", _A3)
    if cube not in gb.basis:
        return f"lex basis {[str(b) for b in gb.basis]} lacks a1^3"
    default_gb = groebner_basis(_d3_ideal(), limits=limits)
    return _expect(normal_form(cube, default_gb).is_zero(), "a1^3 not a member under grevlex")


@_case("groebner.normal_form_reduces_generator", "derived", "p1*q1 reduces to zero through -q1^2")
def _normal_form_reduces_generator(limits):
    gb = groebner_basis(_ideal(("p1", "q1"), ("p1 + q1", "p1*q1")), limits=limits)
    r = normal_form(_p("p1*q1", ("p1", "q1")), gb)
    return _expect(r.is_zero(), f"normal form {r}")


@_case(
    "groebner.normal_form_of_unit", "trivial",
    "1 survives reduction modulo a proper homogeneous ideal",
)
def _normal_form_of_unit(limits):
    return _expect(
        normal_form(
            Polynomial.constant(_A2, 1),
            groebner_basis(_d2_ideal(), limits=limits),
        )
        == Polynomial.constant(_A2, 1),
        "unit did not survive",
    )


@_case(
    "groebner.normal_form_of_jet_generator", "paper",
    "a0*a2 + a1^2 is a member of the degree-3 jet ideal",
)
def _normal_form_of_jet_generator(limits):
    gb = groebner_basis(_d3_ideal(), limits=limits)
    r = normal_form(_p("a0*a2 + a1^2", _A3), gb)
    return _expect(r.is_zero(), f"normal form {r}")


@_case(
    "groebner.zero_dimensional_gr_2_1", "derived",
    "(p1+q1, q1^2) has pure-power leading monomials p1 and q1^2",
)
def _zero_dimensional_gr_2_1(limits):
    return _expect(
        is_zero_dimensional(
            groebner_basis(_ideal(("p1", "q1"), ("p1 + q1", "p1*q1")), limits=limits)
        ),
        "reported positive-dimensional",
    )


@_case(
    "groebner.not_zero_dimensional_embedded_line", "paper",
    "(a0^2, a0a1) has no pure power of a1: an infinite staircase",
)
def _not_zero_dimensional_embedded_line(limits):
    return _expect(
        not is_zero_dimensional(groebner_basis(_d2_ideal(), limits=limits)),
        "claimed zero-dimensional",
    )


@_case("groebner.zero_dimensional_principal", "trivial", "(x) in one variable is zero-dimensional")
def _zero_dimensional_principal(limits):
    return _expect(
        is_zero_dimensional(
            groebner_basis(_ideal(("x",), ("x",)), limits=limits)
        ),
        "claimed positive-dimensional",
    )


@_case("groebner.staircase_gr_2_1", "derived", "standard monomials of (p1+q1, q1^2) are 1 and q1")
def _staircase_gr_2_1(limits):
    gb = groebner_basis(_ideal(("p1", "q1"), ("p1 + q1", "p1*q1")), limits=limits)
    mons = standard_monomials(gb)
    return _expect(mons == [(0, 0), (0, 1)], f"staircase {mons}")


@_case(
    "groebner.staircase_count_gr_4_2", "derived",
    "the (4,2) presentation has 6 standard monomials = C(4,2)",
)
def _staircase_count_gr_4_2(limits):
    ring = grassmann_presentation(4, 2)
    gb = groebner_basis(ring.ideal(), limits=limits)
    count = len(standard_monomials(gb))
    return _expect(count == 6, f"{count} standard monomials")


@_case("groebner.staircase_principal", "trivial", "(x) leaves only the constant monomial")
def _staircase_principal(limits):
    return _expect(
        standard_monomials(groebner_basis(_ideal(("x",), ("x",)), limits=limits))
        == [(0,)],
        "unexpected staircase",
    )


@_case(
    "groebner.hilbert_series_finite_quotient", "derived",
    "quotient by (p1+q1, p1q1) has Hilbert series 1 + t",
)
def _hilbert_series_finite_quotient(limits):
    s = hilbert_series(_ideal(("p1", "q1"), ("p1 + q1", "p1*q1")), limits=limits)
    return _expect(s == UniPoly([1, 1]), f"series {s}")


@_case(
    "groebner.hilbert_series_embedded_point", "derived",
    "quotient by (a0^2, a0a1) has series (1 + t - t^2)/(1 - t)",
)
def _hilbert_series_embedded_point(limits):
    s = hilbert_series(_d2_ideal(), limits=limits)
    want = RationalSeries(UniPoly([1, 1, -1]), UniPoly([1, -1]))
    return _expect(s == want, f"series {s}")


@_case(
    "groebner.hilbert_series_free_ring", "trivial",
    "the zero ideal in one weight-1 variable gives 1/(1 - t)",
)
def _hilbert_series_free_ring(limits):
    s = hilbert_series(Ideal(("x",), (), WeightedGrading((1,))), limits=limits)
    want = RationalSeries(UniPoly([1]), UniPoly([1, -1]))
    return _expect(s == want, f"series {s}")


@_case(
    "groebner.krull_dimension_embedded_point", "paper",
    "the degree-2 jet ideal cuts out a line: dimension 1",
)
def _krull_dimension_embedded_point(limits):
    return _expect(krull_dimension(_d2_ideal(), limits) == 1, "dimension != 1")


@_case(
    "groebner.krull_dimension_grassmann", "derived",
    "the (4,2) presentation ideal is zero-dimensional",
)
def _krull_dimension_grassmann(limits):
    return _expect(
        krull_dimension(grassmann_presentation(4, 2).ideal(), limits) == 0,
        "dimension != 0",
    )


@_case(
    "groebner.krull_dimension_zero_ideal", "trivial",
    "the zero ideal in 3 variables has dimension 3",
)
def _krull_dimension_zero_ideal(limits):
    return _expect(
        krull_dimension(Ideal(_A3, (), WeightedGrading.units(3)), limits) == 3,
        "dimension != 3",
    )


@_case(
    "groebner.intersection_embedded_point", "paper",
    "(a0,a1)^2 meet (a0) equals (a0^2, a0a1) by elimination",
)
def _intersection_embedded_point(limits):
    return _expect(embedded_point_check(limits), "identity failed")


@_case("groebner.intersection_idempotent", "trivial", "I meet I = I")
def _intersection_idempotent(limits):
    gr = _ideal(("p1", "q1"), ("p1 + q1", "p1*q1"))
    return _expect(
        ideal_equal(ideal_intersection(gr, gr, limits), gr, limits=limits),
        "I meet I != I",
    )


@_case("groebner.intersection_coprime_principal", "derived", "(a0) meet (a1) = (a0*a1)")
def _intersection_coprime_principal(limits):
    meet = ideal_intersection(_ideal(_A2, ("a0",)), _ideal(_A2, ("a1",)), limits)
    return _expect(
        ideal_equal(meet, _ideal(_A2, ("a0*a1",)), limits=limits),
        f"generators {[str(g) for g in meet.generators]}",
    )


@_case("groebner.equality_unit_scaling", "trivial", "(x) and (2x) are the same ideal")
def _equality_unit_scaling(limits):
    return _expect(
        ideal_equal(_ideal(("x",), ("x",)), _ideal(("x",), ("2*x",)), limits=limits),
        "scaling changed the ideal",
    )


@_case(
    "groebner.inequality_with_witness", "derived",
    "(a0a2 + a1^2) differs from (2a0a2 + a1^2), witnessed by a normal form",
)
def _inequality_with_witness(limits):
    one = _ideal(_A3, ("a0*a2 + a1^2",))
    two = _ideal(_A3, ("2*a0*a2 + a1^2",))
    if ideal_equal(one, two, limits=limits):
        return "distinct principal ideals compared equal"
    witness = normal_form(one.generators[0], groebner_basis(two, limits=limits))
    return _expect(not witness.is_zero(), "no normal-form witness")


@_case(
    "groebner.certification_pass", "derived",
    "every S-polynomial of the worked bases reduces to zero post hoc",
)
def _certification_pass(limits):
    for ideal, order in (
        (_ideal(("p1", "q1"), ("p1 + q1", "p1*q1")), None),
        (_d3_ideal(), None),
        (grassmann_presentation(4, 2).ideal(), None),
    ):
        certify(groebner_basis(ideal, order, limits), limits)
    return None


# ---------------------------------------------------------------------------
# multiplicity_algebra


@_case(
    "multiplicity.quotient_gr_2_1", "derived",
    "the (2,1) presentation map gives a 2-dimensional algebra on {1, q1}",
)
def _quotient_gr_2_1(limits):
    q = build_quotient(_gr21_map(), limits)
    return _expect(
        q.dimension == 2 and q.basis == ((0, 0), (0, 1)),
        f"dimension {q.dimension}, basis {q.basis}",
    )


@_case(
    "multiplicity.quotient_x_squared", "paper",
    "(x^2) gives the 2-dimensional algebra of the projective line",
)
def _quotient_x_squared(limits):
    return _expect(build_quotient(_x2_map(), limits).dimension == 2, "dimension != 2")


@_case(
    "multiplicity.degenerate_map_not_finite", "paper",
    "(a0^2, a0a1) is degenerate: the quotient is not finite-dimensional",
)
def _degenerate_map_not_finite(limits):
    try:
        build_quotient(
            PolynomialMap.build(
                (_p("a0^2", _A2), _p("a0*a1", _A2)), WeightedGrading((1, 2))
            ),
            limits,
        )
    except NotFinite as e:
        return _expect(len(e.basis.basis) > 0, "error carried no basis")
    return "degenerate map produced a finite algebra"


@_case(
    "multiplicity.poincare_gr_2_1", "derived",
    "Poincare polynomial of the (2,1) quotient is 1 + t",
)
def _poincare_gr_2_1(limits):
    return _expect(
        poincare_polynomial(build_quotient(_gr21_map(), limits)) == UniPoly([1, 1]),
        "wrong polynomial",
    )


@_case(
    "multiplicity.poincare_gr_4_2", "derived",
    "Poincare polynomial of the (4,2) quotient equals the (4,2) Gaussian binomial",
)
def _poincare_gr_4_2(limits):
    got = poincare_polynomial(build_quotient(_gr24_map(), limits))
    return _expect(got == gaussian_binomial(4, 2), f"got {got}")


@_case("multiplicity.poincare_x_squared", "paper", "Poincare polynomial of C[x]/(x^2) is 1 + t")
def _poincare_x_squared(limits):
    return _expect(
        poincare_polynomial(build_quotient(_x2_map(), limits)) == UniPoly([1, 1]),
        "wrong polynomial",
    )


@_case("multiplicity.socle_x_squared", "trivial", "socle of C[x]/(x^2) is spanned by x in degree 1")
def _socle_x_squared(limits):
    s = socle(build_quotient(_x2_map(), limits))
    return _expect(len(s) == 1 and s[0] == _p("x", ("x",)), f"socle {[str(x) for x in s]}")


@_case("multiplicity.socle_gr_2_1", "derived", "socle of the (2,1) quotient is spanned by q1")
def _socle_gr_2_1(limits):
    s = socle(build_quotient(_gr21_map(), limits))
    return _expect(
        len(s) == 1 and s[0] == _p("q1", ("p1", "q1")),
        f"socle {[str(x) for x in s]}",
    )


@_case(
    "multiplicity.socle_gr_4_2", "derived",
    "socle of the (4,2) quotient is one-dimensional in degree 4 = k(n-k)",
)
def _socle_gr_4_2(limits):
    q = build_quotient(_gr24_map(), limits)
    s = socle(q)
    if len(s) != 1:
        return f"socle dimension {len(s)}"
    degree = {q.grading.degree(e) for e in s[0].terms}
    return _expect(degree == {4}, f"socle degrees {degree}")


@_case("multiplicity.jacobian_socle_x_squared", "trivial", "2x spans the socle of C[x]/(x^2)")
def _jacobian_socle_x_squared(limits):
    return _expect(jacobian_spans_socle(build_quotient(_x2_map(), limits)), "check failed")


@_case(
    "multiplicity.jacobian_socle_gr_2_1", "derived",
    "p1 - q1 reduces to -2q1 and spans the socle",
)
def _jacobian_socle_gr_2_1(limits):
    return _expect(jacobian_spans_socle(build_quotient(_gr21_map(), limits)), "check failed")


@_case(
    "multiplicity.jacobian_socle_gr_4_2", "derived",
    "the (4,2) Jacobian determinant spans the socle",
)
def _jacobian_socle_gr_4_2(limits):
    return _expect(jacobian_spans_socle(build_quotient(_gr24_map(), limits)), "check failed")


@_case("multiplicity.pairing_x_squared", "trivial", "the (1, x) pairing of C[x]/(x^2) is perfect")
def _pairing_x_squared(limits):
    rep = pairing_matrices(build_quotient(_x2_map(), limits))
    return _expect(rep.perfect, "pairing not perfect")


@_case(
    "multiplicity.pairing_gr_4_2_middle", "derived",
    "the 2x2 middle-degree pairing matrix of the (4,2) quotient is invertible",
)
def _pairing_gr_4_2_middle(limits):
    rep = pairing_matrices(build_quotient(_gr24_map(), limits))
    middle = next(p for p in rep.by_degree if p.degree == 2)
    ok = (
        rep.perfect
        and len(middle.matrix) == 2
        and middle.rank == 2
    )
    return _expect(ok, f"middle degree pairing rank {middle.rank}")


@_case(
    "multiplicity.pairing_flags_fat_socle", "trivial",
    "a 2-dimensional socle (non-square degree pairing) is rejected",
)
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


@_case(
    "multiplicity.equivariant_cancellation", "derived",
    "degrees {1,2} over weights {1,1} reduce to 1 + t",
)
def _equivariant_cancellation(_):
    return _expect(
        equivariant_multiplicity((1, 1), (1, 2)) == UniPoly([1, 1]),
        "wrong series",
    )


@_case(
    "multiplicity.equivariant_gr_4_2", "derived",
    "degrees {1,2,3,4} over weights {1,2,1,2} give the (4,2) Gaussian binomial",
)
def _equivariant_gr_4_2(_):
    return _expect(
        equivariant_multiplicity((1, 2, 1, 2), (1, 2, 3, 4))
        == gaussian_binomial(4, 2),
        "wrong series",
    )


@_case(
    "multiplicity.equivariant_identity_map", "trivial",
    "equal weight multisets give the constant series 1",
)
def _equivariant_identity_map(_):
    return _expect(equivariant_multiplicity((1, 2), (1, 2)) == UniPoly([1]), "wrong series")


@_case(
    "multiplicity.structure_report_gr_4_2", "derived",
    "the (4,2) quotient passes every structure clause with dimension 6",
)
def _structure_report_gr_4_2(limits):
    rep = verify_structure_theorem(_gr24_map(), limits)
    ok = rep.all_true() and rep.dimension == 6 and rep.m_at_1 == 6
    return _expect(ok, f"dimension {rep.dimension}, clauses {rep.clauses}")


@_case(
    "multiplicity.structure_report_x_squared", "paper",
    "C[x]/(x^2) passes every structure clause with dimension 2",
)
def _structure_report_x_squared(limits):
    rep = verify_structure_theorem(_x2_map(), limits)
    return _expect(rep.all_true() and rep.dimension == 2, f"clauses {rep.clauses}")


@_case(
    "multiplicity.structure_report_degenerate", "paper",
    "the degenerate map reports finite_dimensional = false and nothing else",
)
def _structure_report_degenerate(limits):
    rep = verify_structure_theorem(
        PolynomialMap.build(
            (_p("a0^2", _A2), _p("a0*a1", _A2)), WeightedGrading((1, 2))
        ),
        limits,
    )
    return _expect(not rep.finite_dimensional and not rep.clauses, "degenerate map got clauses")


@_case(
    "multiplicity.base_weights_rank_1", "derived",
    "rank 1 genus 2 base weights are {1,1}, cardinality 1^2 * 1 + 1",
)
def _base_weights_rank_1(_):
    return _expect(hitchin_base_weights(1, 2) == (1, 1), "wrong multiset")


@_case(
    "multiplicity.base_weights_rank_2", "derived",
    "rank 2 genus 2 base weights are {1,1,2,2,2}, cardinality 5",
)
def _base_weights_rank_2(_):
    return _expect(hitchin_base_weights(2, 2) == (1, 1, 2, 2, 2), "wrong multiset")


@_case(
    "multiplicity.base_weights_rank_3", "derived",
    "rank 3 genus 3 base has 19 = 9*2 + 1 weights",
)
def _base_weights_rank_3(_):
    return _expect(len(hitchin_base_weights(3, 3)) == 19, "wrong cardinality")


# ---------------------------------------------------------------------------
# grassmann


@_case(
    "grassmann.gaussian_2_1", "derived",
    "the (2,1) Gaussian binomial is 1 + t (counts lines in the plane)",
)
def _gaussian_2_1(_):
    return _expect(gaussian_binomial(2, 1) == UniPoly([1, 1]), "wrong value")


@_case(
    "grassmann.gaussian_4_2", "derived",
    "the (4,2) Gaussian binomial is 1 + t + 2t^2 + t^3 + t^4, value 6 at t=1",
)
def _gaussian_4_2(_):
    return _expect(
        gaussian_binomial(4, 2) == UniPoly([1, 1, 2, 1, 1])
        and gaussian_binomial(4, 2)(1) == 6,
        f"got {gaussian_binomial(4, 2)}",
    )


@_case("grassmann.gaussian_k_zero", "trivial", "[n 0] = 1")
def _gaussian_k_zero(_):
    return _expect(gaussian_binomial(7, 0) == UniPoly([1]), "wrong value")


@_case(
    "grassmann.presentation_2_1", "paper",
    "the (2,1) ring has variables (p1, q1) and relations p1+q1, p1*q1",
)
def _presentation_2_1(_):
    ring = grassmann_presentation(2, 1)
    want = {_p("p1 + q1", ring.variables), _p("p1*q1", ring.variables)}
    return _expect(
        ring.variables == ("p1", "q1") and set(ring.relations) == want,
        f"relations {[str(r) for r in ring.relations]}",
    )


@_case(
    "grassmann.presentation_4_2", "derived",
    "the (4,2) ring has 4 relations of degrees 1..4 from the monic product",
)
def _presentation_4_2(_):
    ring = grassmann_presentation(4, 2)
    vs = ring.variables
    want = (
        _p("p1 + q1", vs),
        _p("p2 + p1*q1 + q2", vs),
        _p("p2*q1 + p1*q2", vs),
        _p("p2*q2", vs),
    )
    degs = tuple(weighted_degree(r, ring.grading()) for r in ring.relations)
    return _expect(
        ring.relations == want and degs == (1, 2, 3, 4),
        f"relations {[str(r) for r in ring.relations]} of degrees {degs}",
    )


@_case(
    "grassmann.presentation_3_1", "derived",
    "(p1+x)(q2+q1x+x^2) yields relations p1q2, p1q1+q2, p1+q1",
)
def _presentation_3_1(_):
    ring = grassmann_presentation(3, 1)
    vs = ring.variables
    want = {_p("p1*q2", vs), _p("p1*q1 + q2", vs), _p("p1 + q1", vs)}
    return _expect(
        set(ring.relations) == want,
        f"relations {[str(r) for r in ring.relations]}",
    )


@_case(
    "grassmann.multiplicity_single_point_rank_2", "paper",
    "rank 2 with one simple point gives 1 + t",
)
def _multiplicity_single_point_rank_2(_):
    return _expect(
        grassmann_multiplicity(DivisorData(2, (1,))) == UniPoly([1, 1]),
        "wrong polynomial",
    )


@_case(
    "grassmann.multiplicity_single_factor", "derived",
    "rank 4 with m = (0,1,0) is the single factor [4 2]",
)
def _multiplicity_single_factor(_):
    return _expect(
        grassmann_multiplicity(DivisorData(4, (0, 1, 0)))
        == gaussian_binomial(4, 2),
        "wrong polynomial",
    )


@_case(
    "grassmann.multiplicity_square", "derived",
    "rank 3 with m = (1,1) gives (1+t+t^2)^2 = 1 + 2t + 3t^2 + 2t^3 + t^4",
)
def _multiplicity_square(_):
    return _expect(
        grassmann_multiplicity(DivisorData(3, (1, 1)))
        == UniPoly([1, 2, 3, 2, 1]),
        "wrong polynomial",
    )


@_case(
    "grassmann.product_hilbert_two_lines", "derived",
    "two copies of the (2,1) ring give (1+t)^2 by the dimension count",
)
def _product_hilbert_two_lines(limits):
    ring = grassmann_presentation(2, 1)
    s = product_hilbert([ring, ring], limits)
    return _expect(s == UniPoly([1, 2, 1]), f"series {s}")


@_case("grassmann.product_hilbert_empty", "trivial", "the empty product has Hilbert series 1")
def _product_hilbert_empty(limits):
    return _expect(product_hilbert([], limits) == UniPoly([1]), "wrong series")


@_case(
    "grassmann.product_hilbert_matches_multiplicity", "derived",
    "one (4,2) factor matches the divisor-data product formula",
)
def _product_hilbert_matches_multiplicity(limits):
    s = product_hilbert([grassmann_presentation(4, 2)], limits)
    want = grassmann_multiplicity(DivisorData(4, (0, 1, 0)))
    return _expect(s == want, f"series {s}")


@_case(
    "grassmann.hilbert_equals_gaussian_sweep", "derived",
    "presented-ring Hilbert series match Gaussian binomials for n up to 5",
)
def _hilbert_equals_gaussian_sweep(limits):
    for n in range(2, 6):
        for k in range(1, n):
            ring = grassmann_presentation(n, k)
            got = hilbert_series(ring.ideal(), ring.grading(), limits)
            if got != gaussian_binomial(n, k):
                return f"({n},{k}): {got}"
    return None


@_case(
    "grassmann.structure_sweep", "derived",
    "every presentation with n up to 5 passes the full structure suite",
)
def _structure_sweep(limits):
    for n in range(2, 6):
        for k in range(1, n):
            rep = verify_structure_theorem(grassmann_presentation(n, k).as_map(), limits)
            if not rep.all_true():
                bad = [c for c, v in rep.clauses.items() if not v]
                return f"({n},{k}) failed {bad}"
    return None


@_case("grassmann.gaussian_duality", "derived", "[n k] = [n n-k] for n up to 6")
def _gaussian_duality(_):
    for n in range(1, 7):
        for k in range(0, n + 1):
            if gaussian_binomial(n, k) != gaussian_binomial(n, n - k):
                return f"({n},{k}) duality broken"
    return None


@_case(
    "grassmann.gaussian_pascal_recurrence", "derived",
    "[n k] = [n-1 k-1] + t^k [n-1 k] for n up to 10",
)
def _gaussian_pascal_recurrence(_):
    for n in range(1, 11):
        for k in range(1, n):
            lhs = gaussian_binomial(n, k)
            rhs = gaussian_binomial(n - 1, k - 1) + UniPoly.term(1, k) * gaussian_binomial(n - 1, k)
            if lhs != rhs:
                return f"({n},{k}) recurrence broken"
    return None


@_case(
    "grassmann.equivariant_closed_form", "derived",
    "weight ratio {1..n} over {1..k}+{1..n-k} equals [n k] for n up to 8",
)
def _equivariant_closed_form(_):
    for n in range(2, 9):
        for k in range(1, n):
            dom = tuple(range(1, k + 1)) + tuple(range(1, n - k + 1))
            cod = tuple(range(1, n + 1))
            if equivariant_multiplicity(dom, cod) != gaussian_binomial(n, k):
                return f"({n},{k}) closed form broken"
    return None


# ---------------------------------------------------------------------------
# jets


@_case("jets.square_zero_order_1", "paper", "order-1 jets of C[a]/(a^2) are C[a0]/(a0^2)")
def _square_zero_order_1(limits):
    jet = jet_presentation(_square_ring(), 1)
    want = _ideal(("a0",), ("a0^2",))
    return _expect(
        jet.ring.variables == ("a0",)
        and ideal_equal(jet.ring.ideal(), want, limits=limits),
        f"relations {[str(r) for r in jet.ring.relations]}",
    )


@_case(
    "jets.square_zero_order_2", "paper",
    "order-2 jets give (a0^2, 2a0a1), the ideal (a0^2, a0a1)",
)
def _square_zero_order_2(limits):
    jet = jet_presentation(_square_ring(), 2)
    want_rel = (_p("a0^2", _A2), _p("2*a0*a1", _A2))
    return _expect(
        jet.ring.relations == want_rel
        and ideal_equal(jet.ring.ideal(), _d2_ideal(), limits=limits),
        f"relations {[str(r) for r in jet.ring.relations]}",
    )


@_case(
    "jets.square_zero_order_3", "paper",
    "order-3 jets give (a0^2, 2a0a1, 2a0a2+a1^2), the reference ideal rescaled by a2 -> 2a2",
)
def _square_zero_order_3(limits):
    jet = jet_presentation(_square_ring(), 3)
    want_rel = (
        _p("a0^2", _A3),
        _p("2*a0*a1", _A3),
        _p("2*a0*a2 + a1^2", _A3),
    )
    if jet.ring.relations != want_rel:
        return f"relations {[str(r) for r in jet.ring.relations]}"
    # the diagonal rescaling a2 -> 2a2 carries the reference ideal
    # (a0^2, a0a1, a0a2 + a1^2) onto the jet ideal exactly
    rescaled = apply_substitution(_d3_ideal(), {"a2": _p("2*a2", _A3)})
    if not ideal_equal(rescaled, jet.ring.ideal(), limits=limits):
        return "a2 -> 2a2 on the reference ideal did not reach the jet ideal"
    # equivalent inverse witness: a2 -> a2/2 on the jet ideal
    halved = apply_substitution(jet.ring.ideal(), {"a2": _p("1/2*a2", _A3)})
    return _expect(
        ideal_equal(halved, _d3_ideal(), limits=limits),
        "a2 -> a2/2 on the jet ideal did not reach the reference ideal",
    )


@_case("jets.substitution_identity", "trivial", "the identity substitution preserves the ideal")
def _substitution_identity(limits):
    ideal = _d3_ideal()
    image = apply_substitution(ideal, {})
    return _expect(ideal_equal(image, ideal, limits=limits), "identity changed the ideal")


@_case(
    "jets.substitution_collapse_to_zero", "trivial",
    "a0 -> 0 on (a0^2) collapses to the zero ideal",
)
def _substitution_collapse_to_zero(_):
    ideal = _ideal(_A2, ("a0^2",))
    image = apply_substitution(ideal, {"a0": Polynomial.zero(_A2)})
    return _expect(image.is_zero(), f"generators {[str(g) for g in image.generators]}")


@_case(
    "jets.invariants_order_2", "derived",
    "order-2 jets of the square-zero ring: a line (dimension 1), series (1+t-t^2)/(1-t)",
)
def _invariants_order_2(limits):
    inv = jet_invariants(jet_presentation(_square_ring(), 2), limits)
    want = RationalSeries(UniPoly([1, 1, -1]), UniPoly([1, -1]))
    return _expect(
        inv.krull_dimension == 1 and inv.hilbert == want and not inv.finite,
        f"krull {inv.krull_dimension}, series {inv.hilbert}",
    )


@_case(
    "jets.invariants_order_1", "paper",
    "order-1 jets are the ring itself: finite of dimension 2",
)
def _invariants_order_1(limits):
    inv = jet_invariants(jet_presentation(_square_ring(), 1), limits)
    return _expect(
        inv.finite and inv.dimension == 2 and inv.krull_dimension == 0,
        f"finite {inv.finite}, dimension {inv.dimension}",
    )


@_case(
    "jets.order_1_is_identity", "trivial",
    "order-1 jets of the (3,1) ring equal the ring after renaming",
)
def _order_1_is_identity(limits):
    ring = grassmann_presentation(3, 1)
    jet = jet_presentation(ring, 1)
    # rename base variables into the jet ring and compare ideals
    target = jet.ring.variables
    assignment = {
        v: Polynomial.variable(target, jv)
        for v, jv in zip(ring.variables, target)
    }
    renamed = apply_substitution(ring.ideal(), assignment)
    return _expect(
        ideal_equal(renamed, jet.ring.ideal(), limits=limits),
        "order-1 jet ideal differs from the base ideal",
    )


@_case(
    "jets.counts_scale_with_order", "trivial",
    "variable and relation counts both scale by the jet order",
)
def _counts_scale_with_order(_):
    ring = grassmann_presentation(3, 2)
    jet = jet_presentation(ring, 3)
    ok = (
        len(jet.ring.variables) == 3 * len(ring.variables)
        and len(jet.ring.relations) == 3 * len(ring.relations)
    )
    return _expect(ok, f"{len(jet.ring.variables)} variables, {len(jet.ring.relations)} relations")


@_case(
    "jets.induced_grading_homogeneous", "derived",
    "jet relations are quasi-homogeneous for weight(x, level j) = weight(x) + j",
)
def _induced_grading_homogeneous(_):
    ring = grassmann_presentation(3, 1)
    jet = jet_presentation(ring, 2)
    grading = jet.ring.grading()
    for rel in jet.ring.relations:
        if rel.is_zero():
            continue
        weighted_degree(rel, grading)  # raises if inhomogeneous
    want = (1, 2, 1, 2, 2, 3)  # p1 then q1, q2, each at levels 0 and 1
    return _expect(jet.ring.weights == want, f"weights {jet.ring.weights}")


@_case(
    "jets.negative_control_corrupted_order_3", "trivial",
    "a sign-flipped order-3 fixture must NOT match the rescaled jet ideal",
    negative_control=True,
)
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


# ---------------------------------------------------------------------------
# weights

_W = DominantWeight


@_case(
    "weights.dominance_positive_root", "derived",
    "(1,1,0) lies below (2,0,0): the difference is a positive root",
)
def _dominance_positive_root(_):
    return _expect(dominance_leq(_W((1, 1, 0)), _W((2, 0, 0))), "not below")


@_case("weights.dominance_reflexive", "trivial", "every weight lies below itself")
def _dominance_reflexive(_):
    return _expect(dominance_leq(_W((3, 1, 0)), _W((3, 1, 0))), "not reflexive")


@_case(
    "weights.dominance_totals_differ", "trivial",
    "(2,0) and (1,0) are incomparable: totals differ",
)
def _dominance_totals_differ(_):
    return _expect(
        not dominance_leq(_W((2, 0)), _W((1, 0)))
        and not dominance_leq(_W((1, 0)), _W((2, 0))),
        "weights with different totals compared",
    )


@_case("weights.lower_set_two_zero", "derived", "the closure of (2,0) has strata (2,0) and (1,1)")
def _lower_set_two_zero(_):
    return _expect(
        [w.entries for w in lower_set(_W((2, 0)))] == [(2, 0), (1, 1)],
        f"lower set {[str(w) for w in lower_set(_W((2, 0)))]}",
    )


@_case("weights.lower_set_four_zero", "derived", "the closure of (4,0) has 3 = floor(4/2)+1 strata")
def _lower_set_four_zero(_):
    return _expect(
        [w.entries for w in lower_set(_W((4, 0)))] == [(4, 0), (3, 1), (2, 2)],
        f"lower set {[str(w) for w in lower_set(_W((4, 0)))]}",
    )


@_case(
    "weights.lower_set_minuscule_singleton", "paper",
    "the first fundamental weight of GL_3 is alone in its closure",
)
def _lower_set_minuscule_singleton(_):
    return _expect(
        [w.entries for w in lower_set(_W((1, 0, 0)))] == [(1, 0, 0)],
        "extra strata below a minuscule weight",
    )


@_case("weights.orbit_size_rank_2", "paper", "(d+1, 0) has a 2-element symmetric-group orbit")
def _orbit_size_rank_2(_):
    return _expect(
        all(weyl_orbit_size(_W((d + 1, 0))) == 2 for d in range(0, 6)),
        "wrong orbit size",
    )


@_case("weights.orbit_size_choose", "derived", "(3,3,0,0) has orbit size 4!/(2!2!) = 6 = C(4,2)")
def _orbit_size_choose(_):
    return _expect(weyl_orbit_size(_W((3, 3, 0, 0))) == 6, "wrong orbit size")


@_case("weights.orbit_size_central", "trivial", "constant weights have a singleton orbit")
def _orbit_size_central(_):
    return _expect(weyl_orbit_size(_W((5, 5, 5))) == 1, "wrong orbit size")


@_case(
    "weights.decomposition_omega_2", "derived",
    "(1,1,0,0) decomposes as omega_2 with reversed exponents (0,0,1,0)",
)
def _decomposition_omega_2(_):
    alpha, delta = fundamental_decomposition(_W((1, 1, 0, 0)))
    return _expect(
        alpha == (0, 1, 0, 0) and delta == (0, 0, 1, 0),
        f"alpha {alpha}, delta {delta}",
    )


@_case(
    "weights.decomposition_rank_2", "paper",
    "(2,0) has coefficients (2,0) and reversed exponents (0,2)",
)
def _decomposition_rank_2(_):
    d = 1
    alpha, delta = fundamental_decomposition(_W((d + 1, 0)))
    return _expect(
        alpha == (d + 1, 0) and delta == (0, d + 1),
        f"alpha {alpha}, delta {delta}",
    )


@_case("weights.decomposition_zero", "trivial", "the zero weight decomposes to all zeros")
def _decomposition_zero(_):
    return _expect(
        fundamental_decomposition(_W((0, 0, 0))) == ((0, 0, 0), (0, 0, 0)),
        "nonzero decomposition",
    )


@_case("weights.minuscule_omega_2", "paper", "the second fundamental weight of GL_4 is minuscule")
def _minuscule_omega_2(_):
    return _expect(is_minuscule(_W((1, 1, 0, 0))), "not minuscule")


@_case(
    "weights.minuscule_fails_above", "derived",
    "(2,0) is not minuscule: (1,1) lies strictly below",
)
def _minuscule_fails_above(_):
    return _expect(not is_minuscule(_W((2, 0))), "claimed minuscule")


@_case("weights.minuscule_zero", "trivial", "the zero weight is minuscule")
def _minuscule_zero(_):
    return _expect(is_minuscule(_W((0, 0, 0))), "not minuscule")


# ---------------------------------------------------------------------------
# verification_suite


@_case("verification.embedded_point_identity", "paper", "(a0,a1)^2 meet (a0) = (a0^2, a0a1)")
def _embedded_point_identity(limits):
    return _expect(embedded_point_check(limits), "identity failed")


@_case(
    "verification.embedded_point_symmetric", "derived",
    "(a0,a1)^2 meet (a1) = (a1^2, a0a1) by the same elimination",
)
def _embedded_point_symmetric(limits):
    linear = _ideal(_A2, ("a0", "a1"))
    meet = ideal_intersection(
        ideal_product(linear, linear), _ideal(_A2, ("a1",)), limits
    )
    want = _ideal(_A2, ("a1^2", "a0*a1"))
    return _expect(ideal_equal(meet, want, limits=limits), "symmetric identity failed")


@_case(
    "verification.embedded_point_diagonal_differs", "derived",
    "(a0,a1)^2 meet (a0+a1) is a different ideal",
)
def _embedded_point_diagonal_differs(limits):
    linear = _ideal(_A2, ("a0", "a1"))
    meet = ideal_intersection(
        ideal_product(linear, linear), _ideal(_A2, ("a0 + a1",)), limits
    )
    return _expect(
        not ideal_equal(meet, _d2_ideal(), limits=limits),
        "diagonal intersection unexpectedly matched",
    )


@_case(
    "verification.closure_rank_2", "derived",
    "(2,0) strata: a jet case without a closed formula, then the central stratum",
)
def _closure_rank_2(_):
    report = closure_vs_grassmann_dimensions(DominantWeight((2, 0)))
    if len(report.strata) != 2:
        return f"{len(report.strata)} strata"
    top, central = report.strata
    ok = (
        top.status == "no_paper_formula"
        and "jet" in top.note
        and central.status == "multiplicity"
        and central.polynomial == "1"
        and central.note == "central"
    )
    return _expect(ok, f"strata {[s.to_json_dict() for s in report.strata]}")


@_case(
    "verification.closure_minuscule", "derived",
    "the second fundamental weight of GL_4 has one stratum with the (4,2) binomial",
)
def _closure_minuscule(_):
    report = closure_vs_grassmann_dimensions(fundamental_weight(4, 2))
    if len(report.strata) != 1:
        return f"{len(report.strata)} strata"
    s = report.strata[0]
    return _expect(
        s.status == "multiplicity" and s.polynomial == str(gaussian_binomial(4, 2)),
        f"stratum {s.to_json_dict()}",
    )


@_case(
    "verification.closure_zero_weight", "trivial",
    "the zero weight has a single stratum with multiplicity polynomial 1",
)
def _closure_zero_weight(_):
    report = closure_vs_grassmann_dimensions(DominantWeight((0, 0, 0)))
    s = report.strata
    return _expect(
        len(s) == 1 and s[0].polynomial == "1", f"strata {[x.to_json_dict() for x in s]}"
    )


# ---------------------------------------------------------------------------
# the one case that reads the catalogue seed


def _structure_random_sweep(seed: int, limits: ReductionLimits) -> str | None:
    rng = random.Random(seed)
    for i in range(5):
        m = random_zero_dimensional_map(rng, n_vars=rng.randint(1, 3), max_degree=4, limits=limits)
        rep = verify_structure_theorem(m, limits)
        if not rep.all_true():
            bad = [k for k, v in rep.clauses.items() if not v]
            return f"sample {i} failed clauses {bad}"
    return None


def catalogue(seed: int = 0) -> tuple[CheckCase, ...]:
    """All cases, sorted by name.  `seed` feeds the randomized sweep."""
    sweep = _check_case(
        _SEEDED_SWEEP, "derived",
        "five seeded random finite quotients pass every structure clause",
        partial(_structure_random_sweep, seed),
    )
    return tuple(sorted((*_REGISTRY.values(), sweep), key=lambda c: c.name))


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
