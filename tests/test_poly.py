import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

import sympy

from multalg.poly import (
    NotQuasiHomogeneous,
    ParseError,
    Polynomial,
    PolynomialError,
    PolynomialMap,
    UnknownVariable,
    VariableMismatch,
    WeightedGrading,
    jacobian_determinant,
    jacobian_matrix,
    monomials_of_weighted_degree,
    parse_polynomial,
    polynomial_to_text,
    quasi_homogeneity_witness,
    weighted_degree,
)

XY = ("x", "y")
A3 = ("a0", "a1", "a2")


# ---------------------------------------------------------------- parsing


def test_parse_examples():
    cases = [
        ("a0^2", A3, {(2, 0, 0): 1}),
        ("-x + 3", XY, {(1, 0): -1, (0, 0): 3}),
        ("1/2*x*y^3", XY, {(1, 3): Fraction(1, 2)}),
        ("x - x", XY, {}),
        ("2", XY, {(0, 0): 2}),
    ]
    for text, vs, want in cases:
        p = parse_polynomial(text, vs)
        assert p.terms == {e: Fraction(c) for e, c in want.items()}, text


# (text, exception class, message, position) over ("x", "y")
MALFORMED = [
    ("", ParseError, "empty polynomial text", 0),
    ("  ", ParseError, "empty polynomial text", 0),
    ("-", ParseError, "expected a term", 1),
    ("x +", ParseError, "expected a term", 3),
    ("x + + y", ParseError, "expected a term, found '+'", 4),
    ("+-x", ParseError, "expected a term, found '-'", 1),
    ("(x)", ParseError, "expected a term, found '('", 0),
    ("x 3", ParseError, "expected '+' or '-', found '3'", 2),
    ("x/0", ParseError, "expected '+' or '-', found '/'", 1),
    ("x^2^3", ParseError, "expected '+' or '-', found '^'", 3),
    ("x*2", ParseError, "expected a variable name, found '2'", 2),
    ("2*3", ParseError, "expected a variable name, found '3'", 2),
    ("x*", ParseError, "expected a variable name, found None", 2),
    ("x^", ParseError, "expected an integer exponent", 2),
    ("x^y", ParseError, "expected an integer exponent", 2),
    ("x^0", ParseError, "exponent must be positive", 2),
    ("1/", ParseError, "expected an integer denominator", 2),
    ("1/-2", ParseError, "expected an integer denominator", 2),
    ("1/0", ParseError, "zero denominator", 2),
    ("x # y", ParseError, "unexpected character '#'", 2),
    ("٣*x", ParseError, "unexpected character '٣'", 0),  # integers are ASCII
    ("x^۲", ParseError, "unexpected character '۲'", 2),
    ("x + z", UnknownVariable, "unknown variable 'z'", 4),
]


@pytest.mark.parametrize("text, cls, message, position", MALFORMED)
def test_parse_error_class_message_and_position(text, cls, message, position):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, XY)
    assert type(err.value) is cls
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


@pytest.mark.parametrize(
    "text, want",
    [
        ("x*x", {(2, 0): 1}),
        ("2*x^2*x", {(3, 0): 2}),
        ("x*y - y*x", {}),
        ("-1/2*x + 1/2*x + 3", {(0, 0): 3}),
    ],
)
def test_parse_folds_repeated_factors_and_terms(text, want):
    assert parse_polynomial(text, XY).terms == want


def test_parse_builds_one_polynomial(monkeypatch):
    built = []
    init = Polynomial.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    long_sum = " + ".join(f"{i}*x^{i}*y" for i in range(1, 101))
    for text in ("x^2 + 3*x*y - 1/2*y + 4", long_sum):
        built.clear()
        parse_polynomial(text, XY)
        assert len(built) == 1, text


def test_text_round_trip_examples():
    for text in ["a0^2", "a0*a2 + a1^2", "2*a0*a1", "a1^2 + 2*a0*a2 - 1/3"]:
        p = parse_polynomial(text, A3)
        assert parse_polynomial(polynomial_to_text(p), A3) == p


# ------------------------------------------------------------- arithmetic


def test_mixed_ring_arithmetic_rejected():
    p = parse_polynomial("x", XY)
    q = parse_polynomial("x", ("x", "z"))
    with pytest.raises(VariableMismatch):
        p + q
    with pytest.raises(VariableMismatch):
        p * q


def test_polynomials_are_immutable_and_hashable():
    p = parse_polynomial("x + y", XY)
    with pytest.raises(AttributeError):
        p.terms = {}
    assert hash(p) == hash(parse_polynomial("y + x", XY))


def test_scaling_by_zero_gives_the_zero_polynomial():
    p = parse_polynomial("x^2 - 3*x*y", XY)
    for zero in (p.scale(0), p.scale(Fraction(0)), 0 * p, Fraction(0) * p):
        assert zero == Polynomial.zero(XY) and not zero.terms


@pytest.mark.parametrize("coeff", [0.1, 1.0, "1/3", "2", None])
def test_polynomial_rejects_non_rational_coefficients(coeff):
    with pytest.raises(PolynomialError):
        Polynomial(("x",), {(1,): coeff})
    with pytest.raises(PolynomialError):
        Polynomial.constant(("x",), coeff)


def test_polynomial_keeps_fraction_coefficients():
    third = Fraction(1, 3)
    p = Polynomial(XY, {(1, 0): third, (0, 1): 2})
    assert p.terms[(1, 0)] is third
    assert type(p.terms[(0, 1)]) is Fraction and p.terms[(0, 1)] == 2


names = st.sampled_from([("x", "y"), ("x", "y", "z")])


@st.composite
def polys(draw, vs=None):
    variables = vs if vs is not None else draw(names)
    n = len(variables)
    exps = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exps, st.integers(-4, 4), max_size=5))
    return Polynomial(variables, terms)


@given(polys(vs=XY), polys(vs=XY), polys(vs=XY))
@settings(max_examples=150)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p + Polynomial.zero(XY) == p
    assert p * Polynomial.constant(XY, 1) == p
    assert p - p == Polynomial.zero(XY)


@given(polys(vs=XY), st.integers(0, 4))
@settings(max_examples=60)
def test_pow_matches_repeated_product(p, n):
    expected = Polynomial.constant(XY, 1)
    for _ in range(n):
        expected = expected * p
    assert p**n == expected


@given(polys(vs=XY))
@settings(max_examples=80)
def test_text_round_trip(p):
    assert parse_polynomial(polynomial_to_text(p), XY) == p


# ------------------------------------------------------- calculus / sympy


def _to_sympy(p, syms):
    expr = sympy.Integer(0)
    for exps, c in p.terms.items():
        mono = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exps):
            mono *= s**e
        expr += mono
    return sympy.expand(expr)


@given(polys(vs=XY))
@settings(max_examples=60)
def test_partial_matches_sympy(p):
    sx, sy = sympy.symbols("x y")
    got = _to_sympy(p.partial("x"), (sx, sy))
    want = sympy.expand(sympy.diff(_to_sympy(p, (sx, sy)), sx))
    assert sympy.simplify(got - want) == 0


def test_substitute_requires_total_assignment_on_source():
    p = parse_polynomial("x*y", XY)
    target = ("u",)
    u = Polynomial.variable(target, "u")
    assert p.substitute({"x": u, "y": u}) == parse_polynomial("u^2", target)
    with pytest.raises(PolynomialError):
        p.substitute({"x": u})


def test_substitute_composes():
    p = parse_polynomial("x^2 + y", XY)
    img = p.substitute(
        {"x": parse_polynomial("x + y", XY), "y": parse_polynomial("y", XY)}
    )
    assert img == parse_polynomial("x^2 + 2*x*y + y^2 + y", XY)


# ------------------------------------------------------------- gradings


def test_weighted_degree_examples():
    g = WeightedGrading((1, 2, 3))
    assert weighted_degree(parse_polynomial("a0^5", A3), g) == 5


def test_quasi_homogeneity_witness_none_for_homogeneous():
    g = WeightedGrading((1, 2))
    assert quasi_homogeneity_witness(parse_polynomial("x^2 + y", XY), g) is None


@pytest.mark.parametrize("weights", [(1.7, 2), (Fraction(3, 2),), ("2",), (1, 2.0)])
def test_grading_rejects_non_integer_weights(weights):
    # int() would truncate (1.7, 2) to (1, 2) silently
    with pytest.raises(PolynomialError, match="must be integers"):
        WeightedGrading(weights)


def test_grading_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        WeightedGrading((1, 0))
    with pytest.raises(ValueError):
        WeightedGrading((-1, 2))


def test_monomials_of_weighted_degree():
    mons = monomials_of_weighted_degree((1, 2), 4)
    assert set(mons) == {(4, 0), (2, 1), (0, 2)}
    assert monomials_of_weighted_degree((1, 1), 0) == [(0, 0)]


# --------------------------------------------------------------- maps


def test_map_build_validates():
    # non-square: 1 component, 2 variables
    with pytest.raises(PolynomialError):
        PolynomialMap.build((parse_polynomial("x + y", XY),), WeightedGrading.units(2))
    # inhomogeneous component
    with pytest.raises(NotQuasiHomogeneous):
        PolynomialMap.build(
            (parse_polynomial("x^2 + y", XY), parse_polynomial("y", XY)),
            WeightedGrading.units(2),
        )


def test_map_degrees_derived():
    m = PolynomialMap.build(
        (parse_polynomial("x^2 + y", XY), parse_polynomial("y^2", XY)),
        WeightedGrading((1, 2)),
    )
    assert m.degrees == (2, 4)


def test_jacobian_matrix_shape():
    m = PolynomialMap.build(
        (parse_polynomial("x + y", XY), parse_polynomial("x*y", XY)),
        WeightedGrading.units(2),
    )
    jm = jacobian_matrix(m)
    assert [[str(e) for e in row] for row in jm] == [["1", "1"], ["y", "x"]]


def _leibniz_determinant(m):
    """Reference: the permutation sum over the Fraction Jacobian matrix."""
    rows = jacobian_matrix(m)
    n = len(rows)
    total = Polynomial.zero(m.variables)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Polynomial.constant(m.variables, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def _random_rational_map(rng, n):
    variables = ("x", "y", "z", "w")[:n]
    weights = (1,) + tuple(rng.choice((1, 2)) for _ in range(n - 1))
    comps = []
    for _ in range(n):
        monos = monomials_of_weighted_degree(weights, rng.randint(1, 4))
        terms = {
            e: Fraction(rng.choice((-9, -4, -1, 1, 2, 5)), rng.choice((1, 2, 3, 7)))
            for e in rng.sample(monos, min(3, len(monos)))
        }
        comps.append(Polynomial(variables, terms))
    return PolynomialMap.build(comps, WeightedGrading(weights))


@pytest.mark.parametrize("seed", range(15))
def test_jacobian_determinant_matches_leibniz(seed):
    m = _random_rational_map(random.Random(seed), 2 + seed % 3)
    assert jacobian_determinant(m) == _leibniz_determinant(m)


def test_jacobian_determinant_with_exponents_past_eight_bit_fields():
    # exponents of the determinant reach 599, past a field of 8 or 9 bits
    m = PolynomialMap.build(
        [parse_polynomial(t, XY) for t in ("x^300*y + y^2", "1/2*x^300 - 3*y")],
        WeightedGrading((1, 300)),
    )
    det = jacobian_determinant(m)
    assert det == _leibniz_determinant(m)
    assert max(e for exps in det.terms for e in exps) == 599


def test_jacobian_determinant_of_dependent_map_is_zero():
    for texts in (("x + y", "2*x + 2*y"), ("1/2*x + 1/3*y", "3/5*x + 2/5*y")):
        m = PolynomialMap.build([parse_polynomial(t, XY) for t in texts], WeightedGrading.units(2))
        assert _leibniz_determinant(m).is_zero()
        assert jacobian_determinant(m).is_zero()


@st.composite
def quasi_homogeneous_maps(draw):
    """Square maps in 2-3 variables with random rational coefficients on
    every monomial of each component's weighted degree."""
    variables = ("x", "y", "z")[: draw(st.integers(2, 3))]
    weights = (1,) + tuple(draw(st.sampled_from((1, 2))) for _ in variables[1:])
    comps = []
    for _ in variables:
        monos = monomials_of_weighted_degree(weights, draw(st.integers(1, 3)))
        coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
        terms = draw(st.lists(coeffs, min_size=len(monos), max_size=len(monos)))
        comp = Polynomial(variables, dict(zip(monos, terms)))
        assume(comp)
        comps.append(comp)
    return PolynomialMap.build(comps, WeightedGrading(weights))


@given(quasi_homogeneous_maps())
@settings(max_examples=40, deadline=None)
def test_jacobian_determinant_matches_sympy(m):
    syms = sympy.symbols(m.variables)
    comps = [_to_sympy(c, syms) for c in m.components]
    want = sympy.Matrix([[sympy.diff(f, s) for s in syms] for f in comps]).det()
    got = _to_sympy(jacobian_determinant(m), syms)
    assert sympy.expand(got - want) == 0
