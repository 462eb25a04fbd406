"""Groebner engine tests.

The reduced-basis computation is cross-checked against sympy's
independent implementation on randomized unit-weight ideals, with integer
and with rational coefficients.  The normal-form operator is pinned by its
two defining invariants (idempotence and linearity) and compared with a
plain `Fraction` division on exponent tuples kept here, since the engine
itself reduces packed monomials over the integers; the packing is checked
against exponent-tuple arithmetic and the order keys.  Everything runs
over exact rationals.
"""

import itertools
import random
import time
from fractions import Fraction
from operator import le

import pytest
from hypothesis import given, settings, strategies as st

import sympy

from multalg import groebner
from multalg.groebner import (
    CertificationError,
    DEFAULT_LIMITS,
    GroebnerBasis,
    Ideal,
    NotZeroDimensional,
    ReductionLimits,
    ResourceLimitExceeded,
    buchberger,
    certify,
    clear_cache,
    groebner_basis,
    hilbert_series,
    ideal_equal,
    ideal_intersection,
    ideal_product,
    is_zero_dimensional,
    krull_dimension,
    normal_form,
    s_polynomial,
    standard_monomials,
)
from multalg.grassmann import grassmann_presentation
from multalg.jets import jet_presentation
from multalg.multiplicity import random_zero_dimensional_map
from multalg.orders import EliminationOrder, Lex, WeightedGrevlex
from multalg.poly import (
    Polynomial,
    PolynomialError,
    WeightedGrading,
    mono_mul,
    monomials_of_weighted_degree,
    parse_polynomial,
    weighted_degree,
)
from multalg.series import RationalSeries, UniPoly

XY = ("x", "y")
XYZ = ("x", "y", "z")
A3 = ("a0", "a1", "a2")
WXYZ = ("w", "x", "y", "z")


def P(text, vs):
    return parse_polynomial(text, vs)


def I(vs, *texts):
    return Ideal(vs, tuple(P(t, vs) for t in texts), WeightedGrading.units(len(vs)))


# ----------------------------------------------------------- worked bases


def test_spolynomial_cancels_leading_terms():
    order = WeightedGrevlex((1, 1))
    f = P("x^2 + y", XY)
    g = P("x*y + 1", XY)
    s = s_polynomial(f, g, order)
    # lcm(x^2, xy) = x^2 y; y*f - x*g = y^2 - x
    assert s == P("y^2 - x", XY)


def test_reduced_basis_is_monic_and_autoreduced():
    gb = groebner_basis(I(XYZ, "x^2 - y", "x*y - z", "3*y^2 - x*z"))
    order = gb.order
    for i, b in enumerate(gb.basis):
        lead = b.terms[gb.leading[i]]
        assert lead == Fraction(1)
        # no monomial of b is divisible by another element's leading monomial
        for j, other_lm in enumerate(gb.leading):
            if i == j:
                continue
            for exps in b.terms:
                assert not all(e >= m for e, m in zip(exps, other_lm))


# ------------------------------------------------------------ sympy oracle


def _random_ideal(rng, vs, max_terms=3, max_deg=2, count=2):
    gens = []
    n = len(vs)
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = tuple(rng.randint(0, max_deg) for _ in range(n))
            c = rng.randint(-3, 3)
            if c:
                terms[exps] = Fraction(c)
        if terms:
            gens.append(Polynomial(vs, terms))
    if not gens:
        gens = [Polynomial.constant(vs, 1)]
    return Ideal(vs, tuple(gens), WeightedGrading.units(n))


def _to_sympy(p, syms):
    expr = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exps):
            term *= s**e
        expr += term
    return expr


@pytest.mark.parametrize("seed", range(24))
def test_reduced_basis_matches_sympy(seed):
    rng = random.Random(seed)
    vs = XY if seed % 2 == 0 else XYZ
    ideal = _random_ideal(rng, vs, count=2 if len(vs) == 3 else 3)
    syms = sympy.symbols(" ".join(vs))
    ours = groebner_basis(ideal)
    theirs = sympy.groebner(
        [_to_sympy(g, syms) for g in ideal.generators],
        *syms,
        order="grevlex",
        domain="QQ",
    )
    ours_exprs = {sympy.expand(_to_sympy(b, syms)) for b in ours.basis}
    theirs_exprs = {sympy.expand(e) for e in theirs.exprs}
    assert ours_exprs == theirs_exprs


def _rational_coefficients(rng, ideal):
    """The ideal with every coefficient divided by a random +-2, 3 or 7."""
    dens = (2, -2, 3, -3, 7, -7)
    gens = tuple(
        Polynomial(ideal.variables, {e: c / rng.choice(dens) for e, c in g.terms.items()})
        for g in ideal.generators
    )
    return Ideal(ideal.variables, gens, ideal.grading)


@pytest.mark.parametrize("seed", range(16))
def test_rational_basis_matches_sympy(seed):
    # the engine reduces integer multiples of the generators; the basis over Q must not see that
    rng = random.Random(200 + seed)
    vs = XY if seed % 2 == 0 else XYZ
    ideal = _rational_coefficients(rng, _random_ideal(rng, vs, max_terms=4, count=3))
    order, sympy_order = (Lex(), "lex") if seed % 4 >= 2 else (ideal.default_order(), "grevlex")
    syms = sympy.symbols(" ".join(vs))
    ours = buchberger(ideal, order)
    theirs = sympy.groebner(
        [_to_sympy(g, syms) for g in ideal.generators], *syms, order=sympy_order, domain="QQ"
    )
    ours_exprs = {sympy.expand(_to_sympy(b, syms)) for b in ours.basis}
    theirs_exprs = {sympy.expand(e) for e in theirs.exprs}
    assert ours_exprs == theirs_exprs


@pytest.mark.parametrize("seed", range(8))
def test_scaling_a_generator_leaves_the_reduced_basis_unchanged(seed):
    # metamorphic: c*f spans the ideal f spans for any nonzero rational c,
    # and the reduced basis is unique under every order
    rng = random.Random(600 + seed)
    ideal = _random_ideal(rng, XYZ, max_terms=4, count=2)
    i = rng.randrange(len(ideal.generators))
    c = Fraction(rng.choice((-5, -2, 1, 4)), rng.choice((3, 7)))
    gens = list(ideal.generators)
    gens[i] = Polynomial(XYZ, {e: c * v for e, v in gens[i].terms.items()})
    scaled = Ideal(XYZ, tuple(gens), ideal.grading)
    orders = (
        ideal.default_order(),
        Lex(),
        EliminationOrder(block=1, first=WeightedGrevlex((1,)), rest=WeightedGrevlex((2, 1))),
    )
    for order in orders:
        assert buchberger(scaled, order).basis == buchberger(ideal, order).basis, order


def test_zero_and_unit_ideals():
    assert buchberger(Ideal(XY, ())).basis == ()
    one = (Polynomial.constant(XY, 1),)
    for order in (WeightedGrevlex.units(2), Lex(), EliminationOrder(block=1)):
        assert buchberger(I(XY, "2*x + 1", "x"), order).basis == one
        assert buchberger(I(XY, "-1/3"), order).basis == one


def test_buchberger_makes_fractions_only_for_the_basis(monkeypatch):
    # the kernel runs over int; Fractions appear when the kept elements are
    # made monic, on the first read of the basis and only then
    ideal = _map_ideal(grassmann_presentation(8, 4))
    made = 0
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    gb = buchberger(ideal, ideal.default_order(), DEFAULT_LIMITS)
    assert made == 0
    basis = gb.basis
    first = made
    assert 0 < first <= 2 * sum(len(g.terms) for g in basis)
    assert gb.basis is basis and made == first


@pytest.mark.parametrize("seed", range(8))
def test_lex_basis_matches_sympy(seed):
    rng = random.Random(100 + seed)
    ideal = _random_ideal(rng, XY, count=2)
    syms = sympy.symbols("x y")
    ours = groebner_basis(ideal, Lex())
    theirs = sympy.groebner(
        [_to_sympy(g, syms) for g in ideal.generators], *syms, order="lex", domain="QQ"
    )
    ours_exprs = {sympy.expand(_to_sympy(b, syms)) for b in ours.basis}
    theirs_exprs = {sympy.expand(e) for e in theirs.exprs}
    assert ours_exprs == theirs_exprs


# ------------------------------------------------------------- normal form


def _fixed_gb():
    return groebner_basis(I(A3, "a0^2", "a0*a1", "a0*a2 + a1^2"))


poly3 = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5),
    max_size=5,
).map(lambda d: Polynomial(A3, d))


@given(poly3)
@settings(max_examples=100, deadline=None)
def test_normal_form_idempotent(p):
    gb = _fixed_gb()
    r = normal_form(p, gb)
    assert normal_form(r, gb) == r


@given(poly3, poly3)
@settings(max_examples=100, deadline=None)
def test_normal_form_linear(p, q):
    gb = _fixed_gb()
    assert normal_form(p + q, gb) == normal_form(p, gb) + normal_form(q, gb)
    assert normal_form(p.scale(3), gb) == normal_form(p, gb).scale(3)


@given(poly3, st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_normal_form_kills_members(p, i):
    gb = _fixed_gb()
    member = p * gb.basis[i % len(gb.basis)]
    assert normal_form(member, gb).is_zero()


def _fraction_division(p, basis):
    """Reference: the remainder of first-match division over Q, on Fractions."""
    key = basis.order.key
    work = dict(p.terms)
    rem = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for lm, g in zip(basis.leading, basis.basis):
            if all(a <= b for a, b in zip(lm, m)):
                factor = c / g.terms[lm]
                shift = tuple(a - b for a, b in zip(m, lm))
                for e, cg in g.terms.items():
                    if e != lm:
                        target = tuple(a + b for a, b in zip(e, shift))
                        work[target] = work.get(target, 0) - factor * cg
                        if not work[target]:
                            del work[target]
                break
        else:
            rem[m] = c
    return Polynomial(p.variables, rem)


@pytest.mark.parametrize("seed", range(12))
def test_normal_form_matches_fraction_division(seed):
    rng = random.Random(300 + seed)
    order = (
        WeightedGrevlex((1, 2, 3)),
        Lex(),
        EliminationOrder(block=1, first=WeightedGrevlex((1,)), rest=WeightedGrevlex((2, 1))),
    )[seed % 3]
    ideal = _rational_coefficients(rng, _random_ideal(rng, XYZ, max_terms=4, count=3))
    reduced = buchberger(ideal, order)
    # the raw generators as divisors: not monic, leading coefficients of either sign
    raw = GroebnerBasis(XYZ, order, ideal.generators)
    for _ in range(6):
        single = _random_ideal(rng, XYZ, max_terms=5, max_deg=3, count=1)
        (p,) = _rational_coefficients(rng, single).generators
        for basis in (reduced, raw):
            assert normal_form(p, basis) == _fraction_division(p, basis)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_jet_ideal_normal_forms_match_fraction_division(k):
    # Gr(k,4) order-2 jets: the reduced basis, and the raw generators as a
    # basis that is not one, against division on Fractions and tuples
    ideal = _map_ideal(jet_presentation(grassmann_presentation(4, k), 2).ring)
    order = ideal.default_order()
    reduced = buchberger(ideal, order)
    raw = GroebnerBasis(ideal.variables, order, ideal.generators)
    for g in ideal.generators:
        assert _fraction_division(g, reduced).is_zero()
    rng = random.Random(500 + k)
    n = len(ideal.variables)

    def low_degree(terms):
        out = {}
        for _ in range(terms):
            e = [0] * n
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(n)] += 1
            out[tuple(e)] = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
        return Polynomial(ideal.variables, out)

    for _ in range(8):
        p = low_degree(4) + low_degree(2) * rng.choice(ideal.generators)
        for basis in (reduced, raw):
            assert normal_form(p, basis) == _fraction_division(p, basis)


def test_normal_form_examples():
    gb = groebner_basis(I(("p1", "q1"), "p1 + q1", "p1*q1"))
    assert normal_form(P("p1", ("p1", "q1")), gb) == P("-q1", ("p1", "q1"))

    one = Polynomial.constant(A3, 1)
    assert normal_form(one, _fixed_gb()) == one
    assert normal_form(Polynomial.zero(A3), _fixed_gb()).is_zero()

    # the zero ideal's basis is empty and leaves every polynomial as it is
    p = P("a0^2 - 1/2*a1*a2 + 3", A3)
    assert normal_form(p, groebner_basis(Ideal(A3, ()))) == p


# ---------------------------------------------------------- packed monomials

PACKED_ORDERS = (
    WeightedGrevlex((2, 1, 3, 1)),
    Lex(),
    EliminationOrder(block=2, first=WeightedGrevlex((1, 2)), rest=WeightedGrevlex((3, 1))),
    EliminationOrder(block=1),
)


@pytest.mark.parametrize("order", PACKED_ORDERS, ids=repr)
def test_packing_agrees_with_tuples(order):
    pk = groebner._packing(order, 4, 8)
    rng = random.Random(41)
    for _ in range(400):
        a = tuple(rng.randint(0, 4) for _ in range(4))
        # b is a multiple of a about half the time
        b = tuple(x + rng.randint(0, 2) if rng.random() < 0.5 else rng.randint(0, 4) for x in a)
        pa, pb = pk.pack(a), pk.pack(b)
        assert (pa < pb, pa == pb) == (order.key(a) < order.key(b), a == b)
        assert pa + pb == pk.pack(mono_mul(a, b))
        for x, y, px, py in ((a, b, pa, pb), (b, a, pb, pa)):
            assert (not (pk.image(py) - pk.image(px)) & pk.guards) == all(map(le, x, y))
        assert pk.lcm(pk.image(pa), pk.image(pb)) == pk.pack(tuple(map(max, a, b)))
        assert pk.unpack(pa) == a and pk.unpack(pb) == b


def _widths(monkeypatch):
    """Every field width a packing is made at, in order."""
    made = []
    packing = groebner._packing

    def spy(order, n, bits):
        made.append(bits)
        return packing(order, n, bits)

    monkeypatch.setattr(groebner, "_packing", spy)
    return made


def test_lex_overflow_retries_at_double_width(monkeypatch):
    # reducing x^3 by x - y^63 gives y^189, past the 8-bit fields the input starts at
    widths = _widths(monkeypatch)
    gb = buchberger(I(XYZ, "x - y^63", "x^3 - z"), Lex())
    assert widths == [8, 16]
    assert gb.basis == (P("y^189 - z", XYZ), P("x - y^63", XYZ))
    widths.clear()
    raw = GroebnerBasis(XYZ, Lex(), (P("x - y^63", XYZ),))
    for basis in (gb, raw):
        p = P("x^5*z + 2*x*y - 1/3", XYZ)
        assert normal_form(p, basis) == _fraction_division(p, basis)
    assert widths == [8, 16]  # the raw basis overflows on x^5 -> y^315
    assert certify(gb)
    # z passes 127 in a product whose z exceeds the leading monomial's
    raw = GroebnerBasis(XYZ, Lex(), (P("y^40*z^5 + 3*y^20*z^15", XYZ), P("x + 3*y^20", XYZ)))
    p = P("x^30*y^3*z^10 - 2*x*z^2", XYZ)
    assert normal_form(p, raw) == _fraction_division(p, raw)


def test_s_polynomial_products_check_the_width():
    # at 8 bits y^100 fits, and so does the lcm x*y^100, but y^100 * y^100 does not;
    # later reduction steps catch such a product in every case seen, so test it here
    f, g = P("x - y^100", XYZ), P("x*y^100 - z", XYZ)
    pk = groebner._packing(Lex(), 3, 8)
    (lmf, lmg), (uf, ug), (fi, gi), (rf, rg) = groebner._elements(pk, (f, g))
    with pytest.raises(groebner._Overflow):
        groebner._s_terms(pk, fi, lmf, rf, gi, lmg, rg, pk.lcm(uf, ug))
    # the public function starts from the inputs' width, where it fits
    assert s_polynomial(f, g, Lex()) == P("z - y^200", XYZ)


def _grevlex_matches_sympy(ideal, gb):
    syms = sympy.symbols(" ".join(ideal.variables))
    theirs = sympy.groebner(
        [_to_sympy(g, syms) for g in ideal.generators], *syms, order="grevlex", domain="QQ"
    )
    return {sympy.expand(_to_sympy(b, syms)) for b in gb.basis} == set(theirs.exprs)


def test_graded_overflow_retries_at_double_width(monkeypatch):
    # the lcm x^60*y^60*z^61 has a degree past the 127 of the 8-bit fields
    widths = _widths(monkeypatch)
    ideal = I(XYZ, "x^60*y - z^61", "x*y^60 - z^61")
    gb = buchberger(ideal, ideal.default_order())
    assert widths == [8, 16]
    assert _grevlex_matches_sympy(ideal, gb)
    widths.clear()
    p = P("x^300*y^2 - x^61*z^3 + y", XYZ)
    assert normal_form(p, gb) == _fraction_division(p, gb)
    assert widths == []  # p's degree 302 needs 11 bits; the basis keeps its 16-bit packing
    # an input exponent past 127: the width starts from the input
    widths.clear()
    ideal = I(XYZ, "x^200 - y^3*z", "y^2 - x*z")
    gb = buchberger(ideal, ideal.default_order())
    assert widths[0] == 10 and _grevlex_matches_sympy(ideal, gb)
    assert certify(gb)


# -------------------------------------------------------------- staircase


def test_zero_dimensionality():
    # the unit ideal has no standard monomials at all but is 0-dimensional
    assert is_zero_dimensional(groebner_basis(I(XY, "1")))


def test_standard_monomials():
    with pytest.raises(NotZeroDimensional):
        standard_monomials(groebner_basis(I(("a0", "a1"), "a0^2", "a0*a1")))

    assert standard_monomials(groebner_basis(I(XY, "1"))) == []


def test_staircase_walk_stays_below_the_corner(monkeypatch):
    # y^k and z^k are standard in (x^3, x*y^2) for every k, so the staircase
    # is infinite; told otherwise, the walk still ends in the box below the
    # corner x^3*y^2 of the leading monomials
    monkeypatch.setattr(groebner, "is_zero_dimensional", lambda gb: True)
    got = standard_monomials(groebner_basis(I(XYZ, "x^3", "x*y^2")))
    box = {(a, b, 0) for a in range(3) for b in range(3)} - {(1, 2, 0), (2, 2, 0)}
    assert len(got) == 7 and set(got) == box


def _seeded_zero_dimensional_ideals():
    """Pure powers of every variable with random polynomials and, half of the
    time, a random linear form, so that some variables are leading."""
    rng = random.Random(31)
    for _ in range(24):
        vs = (XY, XYZ, WXYZ)[rng.randrange(3)]
        n = len(vs)
        gens = [Polynomial(vs, {tuple(rng.randint(2, 4) * (j == i) for j in range(n)): 1}) for i in range(n)]
        gens += _random_ideal(rng, vs, max_terms=3, max_deg=2, count=2).generators
        if rng.random() < 0.5:
            gens.append(Polynomial(vs, {tuple(int(j == i) for j in range(n)): rng.randint(-2, 2) for i in range(n)}))
        yield Ideal(vs, tuple(g for g in gens if not g.is_zero()), WeightedGrading.units(n))


def test_standard_monomials_match_a_box_enumeration():
    # the walk steps by standard variables only; the oracle lists every
    # monomial below the corner of the leading monomials and keeps those
    # that no leading monomial divides
    leading = 0
    for ideal in _seeded_zero_dimensional_ideals():
        n = len(ideal.variables)
        orders = (ideal.default_order(), Lex(), EliminationOrder(block=1))
        for order in orders:
            gb = groebner_basis(ideal, order)
            corner = tuple(map(max, zip(*gb.leading)))
            box = itertools.product(*(range(c + 1) for c in corner))
            expected = [m for m in box if not any(all(map(le, lm, m)) for lm in gb.leading)]
            assert standard_monomials(gb) == sorted(expected, key=order.key), order
            leading += sum(tuple(int(u == v) for u in range(n)) in gb.leading for v in range(n))
    assert leading >= 20


def test_standard_monomial_count_is_bezout_product():
    # zero-dimensional quasi-homogeneous complete intersection:
    # the count is the product of degree/weight ratios
    rng = random.Random(7)
    for _ in range(6):
        n = rng.randint(1, 3)
        vs = XYZ[:n]
        weights = tuple(rng.choice((1, 1, 2)) for _ in range(n))
        gens = []
        for i in range(n):
            k = rng.randint(1, 3)
            terms = {tuple(k if j == i else 0 for j in range(n)): Fraction(1)}
            gens.append(Polynomial(vs, terms))
        ideal = Ideal(vs, tuple(gens), WeightedGrading(weights))
        gb = groebner_basis(ideal, WeightedGrevlex(weights))
        count = len(standard_monomials(gb))
        # degree of the pure power x_i^k is k*w_i, so the ratio d_i/w_i is k
        expect = 1
        for i, g in enumerate(gens):
            k = next(iter(g.terms))[i]
            expect *= k
        assert count == expect


# ---------------------------------------------------------- hilbert series


def test_hilbert_series_examples():
    s = hilbert_series(I(("a0", "a1"), "a0^2", "a0*a1"))
    assert str(s) == "(1 + t - t^2)/(1 - t)"

    unit = hilbert_series(I(XY, "1"))
    assert unit == RationalSeries(UniPoly([]), UniPoly([1]))


def test_hilbert_series_weighted():
    # C[x]/(x^2) with weight 2: dimensions live in degrees 0 and 2
    ideal = Ideal(("x",), (P("x^2", ("x",)),), WeightedGrading((2,)))
    assert hilbert_series(ideal) == UniPoly([1, 0, 1])


def test_hilbert_series_of_complete_intersection_is_weight_ratio():
    # for a regular sequence the series is prod(1-t^d_i) / prod(1-t^w_j)
    cases = [
        (XY, (1, 1), ("x^2", "y^3")),
        (XY, (1, 2), ("x^4", "y^2")),
        (XYZ, (1, 1, 1), ("x^2", "y^2", "z^2")),
        (("p1", "q1"), (1, 1), ("p1 + q1", "p1*q1")),
    ]
    for vs, weights, texts in cases:
        grading = WeightedGrading(weights)
        gens = tuple(P(t, vs) for t in texts)
        ideal = Ideal(vs, gens, grading)
        degrees = tuple(weighted_degree(g, grading) for g in gens)
        want = RationalSeries.from_weight_ratio(degrees, weights)
        assert hilbert_series(ideal) == want


def _expansion(series, top):
    """Coefficients of t^0 .. t^top of the series, by long division."""
    num, den = series.numerator, series.denominator
    rem = [Fraction(num.coefficient(k)) for k in range(top + 1)]
    d0 = den.coefficient(0)
    assert d0 != 0
    for k in range(top + 1):
        rem[k] /= d0
        for j in range(1, min(len(den.coeffs), top + 1 - k)):
            rem[k + j] -= rem[k] * den.coeffs[j]
    return rem


def _random_monomial_ideal(rng):
    """1-4 variables weighted from {1, 2, 3}, 1-4 monomial generators, and
    half the time a pure power of every variable (a finite quotient)."""
    n = rng.randint(1, 4)
    vs = WXYZ[:n]
    exps = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        exps += [tuple(rng.randint(1, 3) if j == i else 0 for j in range(n)) for i in range(n)]
    gens = tuple(Polynomial(vs, {e: Fraction(1)}) for e in exps)
    return Ideal(vs, gens, WeightedGrading(tuple(rng.choice((1, 2, 3)) for _ in range(n))))


def test_hilbert_series_counts_standard_monomials():
    # independent route: the number of monomials of each weighted degree up
    # to 10 outside in(I), counted by brute force, against the series
    # expanded to that degree; on (x^3, x*y^2), seeded monomial ideals of
    # every dimension (the unit ideal included) and the order-2 jet ideals
    # of Gr(k, 4), whose level-shifted weights reach 4
    rng = random.Random(19)
    ideals = [I(XY, "x^3", "x*y^2")]
    ideals += [_random_monomial_ideal(rng) for _ in range(150)]
    ideals += [jet_presentation(grassmann_presentation(4, k), 2).ring.ideal() for k in (1, 2, 3)]
    dims = set()
    for ideal in ideals:
        weights = ideal.grading.weights
        gb = groebner_basis(ideal, WeightedGrevlex(weights))
        counts = [
            sum(
                1
                for e in monomials_of_weighted_degree(weights, d)
                if not any(all(map(le, lm, e)) for lm in gb.leading)
            )
            for d in range(11)
        ]
        assert _expansion(hilbert_series(ideal), 10) == counts, ideal
        dims.add(krull_dimension(gb))
    assert dims == {0, 1, 2, 3}


def _numerator_layouts(rng, n):
    """(order, weights asked of the numerator, weights they stand for): the
    packing's own weights (the criterion's count and `hilbert_series`), unit
    weights on a weighted packing (`krull_dimension`), a lex block, and two
    graded blocks of an elimination order."""
    w = tuple(rng.choice((1, 2, 3)) for _ in range(n))
    yield WeightedGrevlex(w), None, w
    yield WeightedGrevlex(w), (1,) * n, (1,) * n
    yield Lex(), w, w
    yield EliminationOrder(block=1, first=WeightedGrevlex(w[:1]), rest=WeightedGrevlex(w[1:])), w, w


def test_monomial_numerator_counts_standard_monomials(monkeypatch):
    # oracle for the numerator alone: N / prod(1 - t^w) expanded to degree 8
    # against the monomials of each degree outside the ideal, counted by
    # brute force, on seeded monomial ideals in 1-4 variables whose supports
    # often overlap (so the pivot recursion runs), the zero ideal and the
    # unit ideal
    numerator = groebner._monomial_numerator
    depth = recursed = 0

    def spy(pk, images, weights=None):
        nonlocal depth, recursed
        recursed += depth > 0
        depth += 1
        try:
            return numerator(pk, images, weights)
        finally:
            depth -= 1

    monkeypatch.setattr(groebner, "_monomial_numerator", spy)
    rng = random.Random(32)
    shapes = {"zero": 0, "unit": 0}
    for trial in range(80):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 5))]
        if trial % 20 == 0:
            gens.append((0,) * n)
        shapes["zero"] += not gens
        shapes["unit"] += (0,) * n in gens
        for order, weights, degrees in _numerator_layouts(rng, n):
            pk = groebner._packing(order, n, 8)
            got = spy(pk, [pk.image(pk.pack(e)) for e in gens], weights)
            assert not got or got[-1], got  # trimmed
            series = (got + [0] * 9)[:9]
            for w in degrees:  # times 1 / (1 - t^w)
                for k in range(w, 9):
                    series[k] += series[k - w]
            counts = [
                sum(
                    1
                    for e in monomials_of_weighted_degree(degrees, d)
                    if not any(all(map(le, g, e)) for g in gens)
                )
                for d in range(9)
            ]
            assert series == counts, (order, weights, gens)
    assert shapes["zero"] and shapes["unit"] and recursed >= 100


# ------------------------------------------------------------------- krull


def test_krull_dimension_examples():
    assert krull_dimension(I(XY, "1")) == 0
    assert krull_dimension(I(("p1", "q1"), "p1 + q1", "p1*q1")) == 0
    assert krull_dimension(Ideal((), ())) == 0  # no variables: a point


def _subset_dimension(gb):
    # the largest variable subset S such that no leading monomial is
    # supported inside S, by exhaustive enumeration (unit ideal: 0)
    from itertools import combinations

    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in gb.leading]
    if frozenset() in supports:
        return 0
    n = len(gb.variables)
    return max(
        r
        for r in range(n + 1)
        for S in combinations(range(n), r)
        if not any(sup <= set(S) for sup in supports)
    )


def test_krull_dimension_matches_brute_force():
    # oracle: the subset search above, on bases under every order family
    # (R/in(I) has the dimension of R/I whatever the order), on jet bases,
    # and on the zero and unit ideals
    rng = random.Random(11)
    bases = [groebner_basis(_random_ideal(rng, XYZ, count=2)) for _ in range(10)]
    orders = (WeightedGrevlex.units(4), Lex(), EliminationOrder(block=2, first=WeightedGrevlex.units(2)))
    for _ in range(8):
        ideal = _random_ideal(rng, WXYZ, count=rng.randint(1, 3))
        dims = set()
        for order in orders:
            gb = groebner_basis(ideal, order)
            bases.append(gb)
            dims.add(krull_dimension(gb))
        assert len(dims) == 1
    for k in (1, 2, 3):
        bases.append(groebner_basis(jet_presentation(grassmann_presentation(4, k), 2).ring.ideal()))
    # finite quotients under every order family, for is_zero_dimensional
    finite = (
        grassmann_presentation(4, 2).ideal(),
        I(WXYZ, "w^2 - x*y", "x^2 + y", "y^3 - z", "z^2 - w"),
    )
    bases += [groebner_basis(ideal, order) for ideal in finite for order in orders]
    zero, unit = Ideal(XYZ, (), WeightedGrading.units(3)), I(XYZ, "1")
    bases += [groebner_basis(zero), groebner_basis(unit)]
    for gb in bases:
        assert krull_dimension(gb) == _subset_dimension(gb)
        assert is_zero_dimensional(gb) == (_subset_dimension(gb) == 0)
    assert {_subset_dimension(gb) for gb in bases} == {0, 1, 2, 3}
    assert krull_dimension(zero) == 3 and krull_dimension(unit) == 0


# --------------------------------------------------- intersection / product


def test_intersection_members_lie_in_both():
    rng = random.Random(3)
    for _ in range(6):
        a = _random_ideal(rng, XY, count=2)
        b = _random_ideal(rng, XY, count=2)
        meet = ideal_intersection(a, b)
        gba, gbb = groebner_basis(a), groebner_basis(b)
        for g in meet.generators:
            assert normal_form(g, gba).is_zero()
            assert normal_form(g, gbb).is_zero()


def test_intersection_with_the_zero_ideal_is_zero():
    # eliminating t from t*I + (1 - t)*J leaves no t-free element when
    # either side is zero; the shared grading is kept
    units = WeightedGrading.units(2)
    zero, some = Ideal(XY, (), units), I(XY, "x^2", "x*y - y^2")
    for left, right in ((zero, some), (some, zero), (zero, zero)):
        assert ideal_intersection(left, right) == zero


def test_intersection_tags_past_taken_variable_names():
    # t, s and u are all taken, so the tag variable is t0; the intersection
    # of two monomial ideals is generated by the lcms of their generators
    tsu = ("t", "s", "u")
    assert groebner._fresh_name(tsu) == "t0"
    assert groebner._fresh_name(tsu + ("t0", "t1")) == "t2"
    meet = ideal_intersection(I(tsu, "t^2", "s"), I(tsu, "t", "u"))
    assert meet.variables == tsu
    assert ideal_equal(meet, I(tsu, "t^2", "s*t", "s*u"))


def test_product_generators():
    prod = ideal_product(I(XY, "x", "y"), I(XY, "x", "y"))
    assert set(map(str, prod.generators)) == {"x^2", "x*y", "y^2"}


def test_ideal_equal():
    # different generator presentations of one ideal
    assert ideal_equal(
        I(XY, "x + y", "x - y"),
        I(XY, "x", "y"),
    )


def test_elimination_order_keeps_blocks_separate():
    # eliminating t from (t*x - 1, t*y - 1) yields x - y among the t-free part
    vs = ("t", "x", "y")
    ideal = I(vs, "t*x - 1", "t*y - 1")
    order = EliminationOrder(block=1)
    gb = groebner_basis(ideal, order)
    t_free = [b for b in gb.basis if all(e[0] == 0 for e in b.terms)]
    assert any(b == P("x - y", vs) or b == P("y - x", vs) for b in t_free)


# ---------------------------------------------------------- certification


def test_certify_accepts_valid_bases():
    assert certify(groebner_basis(I(XYZ, "x^2 - y", "y^2 - z")))


def test_monomial_basis_with_vanishing_s_polynomials_certifies():
    # every S-polynomial of (xy, xz, yz) is zero before any reduction step,
    # in Buchberger's pair loop and in certify's
    gb = groebner_basis(I(XYZ, "x*y", "x*z", "y*z"))
    assert [str(g) for g in gb.basis] == ["y*z", "x*z", "x*y"]
    assert certify(gb)


def test_certify_rejects_non_basis():
    # (x^2 + y^2 - 1, x*y) is not its own Groebner basis
    ideal = I(XY, "x^2 + y^2 - 1", "x*y")
    order = ideal.default_order()
    fake = GroebnerBasis(XY, order, ideal.generators, ideal.generators)
    with pytest.raises(CertificationError):
        certify(fake)


def test_certify_rejects_basis_missing_source_membership():
    # a correct basis for a DIFFERENT ideal fails the source-generator check
    good = groebner_basis(I(XY, "x"))
    impostor = GroebnerBasis(XY, good.order, good.basis, (P("y", XY),))
    with pytest.raises(CertificationError):
        certify(impostor)


def test_basis_over_other_variables_is_rejected():
    # read over (x,), y^2 + x would lead with x and reduce x^2 to 1
    units = WeightedGrevlex.units(1)
    stray = P("y^2 + x", XY)
    with pytest.raises(PolynomialError):
        GroebnerBasis(("x",), units, (stray,))
    with pytest.raises(PolynomialError):
        GroebnerBasis(("x",), units, (P("x", ("x",)),), (stray,))


# -------------------------------------------------------------- resources


def test_resource_cap_raises():
    tiny = ReductionLimits(max_pair_reductions=1)
    with pytest.raises(ResourceLimitExceeded) as err:
        groebner_basis(
            I(XYZ, "x^2 + y*z", "y^2 + x*z", "z^2 + x*y"), limits=tiny
        )
    assert err.value.cap == 1


def _map_ideal(ring):
    m = ring.as_map()
    return Ideal(m.variables, m.components, m.grading)


def _pair_sequence_cases():
    for n, k, counts in [(4, 2, (4, 9, 12)), (6, 3, (16, 53, 108)), (8, 4, (92, 249))]:
        ideal = _map_ideal(grassmann_presentation(n, k))
        orders = (ideal.default_order(), WeightedGrevlex.units(len(ideal.variables)), Lex())
        for order, count in zip(orders, counts):
            yield ideal, order, count
    jet = _map_ideal(jet_presentation(grassmann_presentation(4, 1), 3).ring)
    yield jet, WeightedGrevlex.units(12), 198


def test_pair_sequence_and_cap_are_unchanged():
    # exact processed-pair counts: the chain criterion skips a pair only once
    # its partner pairs have left the queue, so taking the pairs in another
    # order can move these counts, and changing a criterion does; the
    # Hilbert-driven criterion runs under the default orders only
    for ideal, order, count in _pair_sequence_cases():
        buchberger(ideal, order, ReductionLimits(count))
        with pytest.raises(ResourceLimitExceeded):
            buchberger(ideal, order, ReductionLimits(count - 1))


def test_pair_selection_does_not_rekey_pending_pairs(monkeypatch):
    # re-keying every pending pair at each step makes over a million key calls here
    ideal = _map_ideal(grassmann_presentation(8, 4))
    calls = 0
    key = WeightedGrevlex.key

    def counting_key(self, exps):
        nonlocal calls
        calls += 1
        return key(self, exps)

    monkeypatch.setattr(WeightedGrevlex, "key", counting_key)
    buchberger(ideal, ideal.default_order(), DEFAULT_LIMITS)
    assert calls < 20_000


def test_pair_lcms_are_batched_and_the_count_builds_no_series(monkeypatch):
    # a new element's lcms with every earlier one come from one batched
    # pass, and the count's numerators are integer lists: one pair at a
    # time and one UniPoly per numerator make 2,016 lcm calls and 57 UniPolys
    ideal = _map_ideal(grassmann_presentation(8, 4))
    buchberger(ideal)  # warms the cached weight ratio, which builds series
    calls = {"lcm": 0, "UniPoly": 0}
    lcm, init = groebner._Packing.lcm, UniPoly.__init__

    def counting_lcm(self, x, y):
        calls["lcm"] += 1
        return lcm(self, x, y)

    def counting_init(self, *args):
        calls["UniPoly"] += 1
        init(self, *args)

    monkeypatch.setattr(groebner._Packing, "lcm", counting_lcm)
    monkeypatch.setattr(UniPoly, "__init__", counting_init)
    buchberger(ideal)
    assert calls["lcm"] < 100 and calls["UniPoly"] == 0, calls


def test_cache_returns_identical_object():
    clear_cache()
    ideal = I(XY, "x^2 - y", "y^2")
    a = groebner_basis(ideal)
    b = groebner_basis(ideal)
    assert a is b
    clear_cache()
    c = groebner_basis(ideal)
    assert c is not a and c == a


def test_cache_shares_one_basis_across_gradings():
    # `buchberger` reads the grading only to pick a default order, so an
    # ideal that differs only there, given the same order, reuses the basis
    clear_cache()
    units = I(XYZ, "x*y - z^2", "x^2 - y*z")
    plain = Ideal(XYZ, units.generators)
    weighted = Ideal(XYZ, units.generators, WeightedGrading((1, 1, 2)))
    assert len({plain, units, weighted}) == 3
    assert groebner_basis(plain) is groebner_basis(units)
    order = WeightedGrevlex((1, 1, 1))
    assert groebner_basis(weighted, order) is groebner_basis(plain)


def test_buchberger_direct_raw_output_certifies():
    # the uncached engine also produces a certified basis
    ideal = I(XYZ, "x*y - z", "y*z - x")
    gb = buchberger(ideal, WeightedGrevlex((1, 1, 1)), DEFAULT_LIMITS)
    assert certify(gb)


def test_ideal_validation():
    with pytest.raises(ValueError):
        Ideal(XY, (Polynomial.zero(XY),), WeightedGrading.units(2))
    mixed = P("x", ("x", "z"))
    with pytest.raises(ValueError):
        Ideal(XY, (mixed,), WeightedGrading.units(2))


# ------------------------------------------------ Hilbert-driven criterion


def _form(rng, variables, weights, degree):
    """Every monomial of the weighted degree, with a small nonzero coefficient."""
    monos = monomials_of_weighted_degree(weights, degree)
    return Polynomial(variables, {m: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for m in monos})


_CI_SHAPES = (((1, 1), (2, 3)), ((1, 2), (4, 4)), ((1, 1, 1), (2, 3, 4)), ((1, 1, 1, 2), (2, 3, 4, 4)))


def _complete_intersections():
    rng = random.Random(21)
    for weights, degrees in _CI_SHAPES * 2:
        vs = WXYZ[: len(weights)]
        yield Ideal(vs, tuple(_form(rng, vs, weights, d) for d in degrees), WeightedGrading(weights))


def _binary_cubics():
    """(x + y)*(x - y)^2 and (x + y)*(x^2 + y^2)."""
    return I(XY, "x^3 - x^2*y - x*y^2 + y^3", "x^3 + x^2*y + x*y^2 + y^3")


def _common_factor_ideals():
    """Square systems of forms that share a factor: positive-dimensional."""
    rng = random.Random(22)
    for weights, degrees in _CI_SHAPES:
        vs = WXYZ[: len(weights)]
        factor = _form(rng, vs, weights, weights[-1])
        gens = tuple(factor * _form(rng, vs, weights, d) for d in degrees)
        yield Ideal(vs, gens, WeightedGrading(weights))
    yield _binary_cubics()


def _random_maps():
    rng = random.Random(23)
    for _ in range(40):
        m = random_zero_dimensional_map(rng, rng.randint(1, 4), max_degree=4)
        yield Ideal(m.variables, m.components, m.grading)


_CRITERION_FAMILIES = {
    "grassmannians": lambda: (
        _map_ideal(grassmann_presentation(n, k)) for n in range(2, 8) for k in range(1, n)
    ),
    "random_maps": _random_maps,
    "complete_intersections": _complete_intersections,
    "common_factor": _common_factor_ideals,
    "jets_gr_k_4": lambda: (
        _map_ideal(jet_presentation(grassmann_presentation(4, k), 2).ring) for k in (1, 2, 3)
    ),
}


def _criterion_log(monkeypatch):
    """Record each check of the criterion's count: ("start", degree, agrees)
    when a degree is taken up, ("full", degree, full) when a pair is weighed
    for deferral and ("probe", degree, complete) right after a new leading
    monomial of that degree is counted.  Record the pair queue too:
    ("queue", None, size) after each pop and push, and ("heapify", None,
    size) when the queue is made and when deferred pairs go back on it."""
    log = []
    count = groebner._HilbertCount
    start, full, add, complete = count.start, count.full, count.add, count.complete
    heapify, heappop, heappush = groebner.heapify, groebner.heappop, groebner.heappush
    added = []  # the degree of a leading monomial counted and not yet probed

    def logged_start(self, d):
        out = start(self, d)
        log.append(("start", d, out))
        return out

    def logged_full(self):
        out = full(self)
        log.append(("full", self.degree, out))
        return out

    def logged_add(self, u, lcms):
        add(self, u, lcms)
        added.append(u >> self.shift)

    def logged_complete(self):
        out = complete(self)
        log.append(("probe", added.pop(), out))
        return out

    def logged_heapify(queue):
        heapify(queue)
        log.append(("heapify", None, len(queue)))

    def logged_heappop(queue):
        out = heappop(queue)
        log.append(("queue", None, len(queue)))
        return out

    def logged_heappush(queue, item):
        heappush(queue, item)
        log.append(("queue", None, len(queue)))

    monkeypatch.setattr(count, "start", logged_start)
    monkeypatch.setattr(count, "full", logged_full)
    monkeypatch.setattr(count, "add", logged_add)
    monkeypatch.setattr(count, "complete", logged_complete)
    monkeypatch.setattr(groebner, "heapify", logged_heapify)
    monkeypatch.setattr(groebner, "heappop", logged_heappop)
    monkeypatch.setattr(groebner, "heappush", logged_heappush)
    return log


def _deferred(log):
    return any(kind == "full" and out for kind, _, out in log)


def _criterion_off(monkeypatch):
    monkeypatch.setattr(groebner, "_hilbert_count", lambda *args: None)


@pytest.mark.parametrize("family", sorted(_CRITERION_FAMILIES))
def test_hilbert_criterion_leaves_reduced_bases_unchanged(monkeypatch, family):
    # the criterion only skips pairs, so the (unique) reduced basis is the
    # one computed with it switched off; every family defers some pair
    ideals = list(_CRITERION_FAMILIES[family]())
    log = _criterion_log(monkeypatch)
    with_criterion = [buchberger(ideal) for ideal in ideals]
    assert _deferred(log)
    _criterion_off(monkeypatch)
    for ideal, gb in zip(ideals, with_criterion):
        plain = buchberger(ideal)
        assert gb.basis == plain.basis and gb.leading == plain.leading


def test_hilbert_criterion_leaves_no_zero_reduction_on_a_complete_intersection(monkeypatch):
    rng = random.Random(24)
    weights = (1, 1, 1, 1)
    ideal = Ideal(WXYZ, tuple(_form(rng, WXYZ, weights, 3) for _ in range(4)), WeightedGrading(weights))
    # 81 = 3^4 standard monomials: the four cubics are a complete intersection
    assert len(standard_monomials(buchberger(ideal))) == 81
    remainders = []
    reduce = groebner._nf_terms

    def spy(work, *divisors):
        rem, scale = reduce(work, *divisors)
        remainders.append(bool(rem))
        return rem, scale

    monkeypatch.setattr(groebner, "_nf_terms", spy)
    buchberger(ideal)
    assert remainders and all(remainders)
    # the spy does see the zero reductions that the criterion removes
    remainders.clear()
    _criterion_off(monkeypatch)
    buchberger(ideal)
    assert not all(remainders)


def test_hilbert_criterion_falls_back_when_the_input_is_no_complete_intersection(monkeypatch):
    # the order-2 jets of Gr(1,4) defer pairs until a finished degree has
    # more standard monomials than a complete intersection would; the
    # second ideal, (x + z/2, z^2, y*z) and positive-dimensional, defers a
    # pair that goes back only when the queue has run out
    jets = _map_ideal(jet_presentation(grassmann_presentation(4, 1), 2).ring)
    vs = XYZ
    late = Ideal(vs, tuple(P(t, vs) for t in ("x^3 - x*y", "x^2 + x*z", "2*x + z")), WeightedGrading((1, 2, 1)))
    log = _criterion_log(monkeypatch)
    bases = []
    for ideal, final in ((jets, False), (late, True)):
        log.clear()
        bases.append(buchberger(ideal))
        assert _deferred(log)
        disproofs = [kind for kind, _, out in log if kind == "start" and not out]
        assert disproofs == ([] if final else ["start"])
        # the deferred pairs go back once, the second ideal's only when the
        # queue has run out (the first heapify makes the queue)
        back = [k for k, (kind, _, _) in enumerate(log) if kind == "heapify"][1:]
        assert len(back) == 1
        queued = [size for kind, _, size in log[: back[0]] if kind == "queue"]
        assert (queued[-1] == 0) == final
        # neither ideal is a complete intersection, so no probe finds the count complete
        assert not any(out for kind, _, out in log if kind == "probe")
    _criterion_off(monkeypatch)
    assert [gb.basis for gb in bases] == [buchberger(ideal).basis for ideal in (jets, late)]


def test_hilbert_criterion_counts_instead_of_listing_the_staircase(monkeypatch):
    # H(1) = 10^6 standard monomials, yet the count takes one Hilbert
    # numerator of a colon ideal per leading monomial, of which there are
    # three; the numerator's median pivot keeps its recursion shallow on
    # the staircase of 1000 steps in x
    ideal = I(XY, "x^1000 + y^1000", "x^999*y")
    log = _criterion_log(monkeypatch)
    began = time.perf_counter()
    gb = buchberger(ideal)
    assert time.perf_counter() - began < 2
    # the third leading monomial completes the count, and the loop stops there
    assert log[-1] == ("probe", 1001, True)
    assert gb.leading == ((999, 1), (1000, 0), (0, 1001))
    assert hilbert_series(ideal) == RationalSeries.from_weight_ratio((1000, 1000), (1, 1))
    _criterion_off(monkeypatch)
    assert buchberger(ideal).basis == gb.basis


def test_no_pair_is_popped_once_the_count_is_complete(monkeypatch):
    # a complete count proves the basis complete, so the loop stops at the
    # leading monomial that completes it, with pairs still queued
    count = groebner._HilbertCount
    add, complete, pop = count.add, count.complete, groebner.heappop
    closed, late = [], []

    def watched_add(self, u, lcms):
        add(self, u, lcms)
        closed.append(complete(self))

    def watched_pop(queue):
        late.append(any(closed))
        return pop(queue)

    monkeypatch.setattr(count, "add", watched_add)
    monkeypatch.setattr(groebner, "heappop", watched_pop)
    families = ("grassmannians", "complete_intersections", "random_maps")
    ideals = [ideal for family in families for ideal in _CRITERION_FAMILIES[family]()]
    bases, stopped = [], 0
    for ideal in ideals:
        closed.clear()
        late.clear()
        bases.append(buchberger(ideal))
        assert not any(late)
        stopped += any(closed)
    assert stopped >= 20
    _criterion_off(monkeypatch)
    assert [gb.basis for gb in bases] == [buchberger(ideal).basis for ideal in ideals]
