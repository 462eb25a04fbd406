import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import sympy

from multalg.grassmann import gaussian_binomial
from multalg.series import (
    RationalSeries,
    UniPoly,
    _pseudo_remainder,
    one_minus_power,
    weight_denominator,
)

t = sympy.Symbol("t")

coeff_lists = st.lists(st.integers(-6, 6), max_size=7)


def to_sympy(p: UniPoly):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], t)


@pytest.mark.parametrize("coeffs", [[0.5, 1.9], [Fraction(3, 2)], ["7"], [1, 2.0]])
def test_construction_rejects_non_integer_coefficients(coeffs):
    # int() would truncate these silently: [0.5, 1.9] printed as t
    with pytest.raises(ValueError, match="must be integers"):
        UniPoly(coeffs)


def test_construction_trims_and_compares():
    assert UniPoly([1, 2, 0, 0]) == UniPoly([1, 2])
    assert UniPoly([]).is_zero()
    assert UniPoly([0]).is_zero()
    assert UniPoly([1, 1]).degree == 1
    assert UniPoly([]).degree == -1
    assert UniPoly.term(3, 4).coefficient(4) == 3


def test_str_matches_cli_convention():
    assert str(UniPoly([1, 1, 2, 1, 1])) == "1 + t + 2*t^2 + t^3 + t^4"
    assert str(UniPoly([1, 1, -1])) == "1 + t - t^2"
    assert str(UniPoly([0, 1])) == "t"
    assert str(UniPoly([])) == "0"
    assert str(UniPoly([-2, 0, 3])) == "-2 + 3*t^2"


@given(coeff_lists, coeff_lists)
@settings(max_examples=120)
def test_arithmetic_matches_sympy(a, b):
    pa, pb = UniPoly(a), UniPoly(b)
    assert to_sympy(pa + pb) == to_sympy(pa) + to_sympy(pb)
    assert to_sympy(pa - pb) == to_sympy(pa) - to_sympy(pb)
    assert to_sympy(pa * pb) == to_sympy(pa) * to_sympy(pb)


@given(coeff_lists, st.integers(-3, 3))
@settings(max_examples=60)
def test_evaluation(a, x):
    p = UniPoly(a)
    assert p(x) == sum(c * x**i for i, c in enumerate(p.coeffs))


@given(coeff_lists, coeff_lists)
@settings(max_examples=80)
def test_divide_exact_inverts_product(a, b):
    pa, pb = UniPoly(a), UniPoly(b)
    if pb.is_zero():
        return
    assert (pa * pb).divide_exact(pb) == pa


def test_divide_exact_rejects_remainder():
    with pytest.raises(ZeroDivisionError, match=r"^polynomial division by zero$"):
        UniPoly([1, 2]).divide_exact(UniPoly())
    with pytest.raises(ZeroDivisionError, match=r"^polynomial division by zero$"):
        UniPoly().divide_exact(UniPoly())
    with pytest.raises(ValueError, match=r"^inexact polynomial division$"):
        UniPoly([1, 1, 1]).divide_exact(UniPoly([1, 1]))
    with pytest.raises(ValueError, match=r"^inexact polynomial division$"):
        UniPoly([1]).divide_exact(UniPoly([1, 1]))
    # the first step is not integral and 2t does not divide 1 + t^2 over Q
    with pytest.raises(ValueError, match=r"^inexact polynomial division$"):
        UniPoly([1, 0, 1]).divide_exact(UniPoly([0, 2]))
    with pytest.raises(ValueError, match=r"^inexact polynomial division \(non-integer quotient\)$"):
        UniPoly([1, 1]).divide_exact(UniPoly([2, 2]))
    assert UniPoly().divide_exact(UniPoly([0, 3])) == UniPoly()


@given(coeff_lists, coeff_lists, st.sampled_from([1, -1, 2, -3, 6]))
@settings(max_examples=120)
def test_divide_exact_matches_sympy_division(a, b, k):
    pa, pb = UniPoly(a), UniPoly(b) * k
    if pb.is_zero():
        return
    for dividend in (pa, pa * UniPoly(b)):
        q, r = to_sympy(dividend).div(to_sympy(pb))
        if not r.is_zero:
            with pytest.raises(ValueError, match=r"^inexact polynomial division$"):
                dividend.divide_exact(pb)
        elif any(not c.is_integer for c in q.all_coeffs()):
            with pytest.raises(ValueError, match=r"non-integer quotient"):
                dividend.divide_exact(pb)
        else:
            assert to_sympy(dividend.divide_exact(pb)) == q


def test_shape_predicates():
    assert UniPoly([1, 1, 2, 1, 1]).is_palindromic()
    assert not UniPoly([1, 2]).is_palindromic()
    assert UniPoly([1, 0, 1]).is_monic_top()
    assert not UniPoly([1, 2]).is_monic_top()
    assert UniPoly([1, 0, 2]).nonnegative()
    assert not UniPoly([1, -1]).nonnegative()


def test_helpers():
    assert one_minus_power(3) == UniPoly([1, 0, 0, -1])
    assert weight_denominator([1, 2]) == UniPoly([1, -1]) * UniPoly([1, 0, -1])


# ------------------------------------------------------------ rational series


def test_reduction_cancels_common_factor():
    # (1-t^2)/(1-t) = 1 + t
    s = RationalSeries(one_minus_power(2), one_minus_power(1))
    assert s.is_polynomial()
    assert s.as_polynomial() == UniPoly([1, 1])


def test_embedded_point_display():
    s = RationalSeries(UniPoly([1, 1, -1]), UniPoly([1, -1]))
    assert str(s) == "(1 + t - t^2)/(1 - t)"
    assert not s.is_polynomial()
    with pytest.raises(ValueError):
        s.as_polynomial()


def test_normalization_uses_power_series_sign():
    # whatever representation comes in, the denominator's lowest nonzero
    # coefficient ends up positive, so 1/(1-t) never prints as -1/(t-1)
    s = RationalSeries(UniPoly([-1]), UniPoly([-1, 1]))
    assert s == RationalSeries(UniPoly([1]), UniPoly([1, -1]))
    assert str(s) == "(1)/(1 - t)"


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=80)
def test_equality_invariant_under_common_factor(a, b, c):
    pa, pb, pc = UniPoly(a), UniPoly(b), UniPoly(c)
    if pb.is_zero() or pc.is_zero():
        return
    assert RationalSeries(pa, pb) == RationalSeries(pa * pc, pb * pc)


def test_series_arithmetic():
    one_over = RationalSeries(UniPoly([1]), one_minus_power(1))
    poly = RationalSeries.from_polynomial(UniPoly([1, 1]))
    prod = one_over * poly
    assert prod == RationalSeries(UniPoly([1, 1]), one_minus_power(1))
    total = one_over + one_over
    assert total == RationalSeries(UniPoly([2]), one_minus_power(1))


def test_from_weight_ratio():
    # degrees {1,2} over weights {1,1}: (1-t)(1-t^2)/(1-t)^2 = 1 + t
    s = RationalSeries.from_weight_ratio((1, 2), (1, 1))
    assert s.is_polynomial() and s.as_polynomial() == UniPoly([1, 1])


@pytest.mark.parametrize(
    "codomain, domain, numerator, denominator",
    [
        ((6, 2, 3), (3, 6, 2), UniPoly.one(), UniPoly.one()),  # reduces to 1
        ((), (), UniPoly.one(), UniPoly.one()),
        ((4, 3), (1, 2), UniPoly([1, 1, 2, 1, 1]), UniPoly.one()),  # a polynomial, [4 2]
        ((2,), (), one_minus_power(2), UniPoly.one()),
        ((5,), (5, 1, 1), UniPoly.one(), one_minus_power(1) ** 2),  # 1/(1 - t)^k
        ((2, 3), (1, 3, 1, 1, 2), UniPoly.one(), one_minus_power(1) ** 3),
        ((), (1,) * 4, UniPoly.one(), one_minus_power(1) ** 4),
        ((1,), (2,), UniPoly.one(), UniPoly([1, 1])),  # 1/(1 + t): Phi_2 alone
        ((12,), (4, 6), UniPoly([1, 0, -1, 0, 1]), weight_denominator((2,))),
    ],
)
def test_from_weight_ratio_reduced_forms(codomain, domain, numerator, denominator):
    s = RationalSeries.from_weight_ratio(codomain, domain)
    assert (s.numerator, s.denominator) == (numerator, denominator)


def test_from_weight_ratio_matches_euclidean_reduction():
    # the cyclotomic count against the gcd route on 2,000 seeded multisets;
    # a narrow entry range makes repeated weights common
    rng = random.Random(26)

    def multiset() -> list[int]:
        top = rng.randint(1, 14)
        return rng.choices(range(1, top + 1), k=rng.randint(1, 7))

    for _ in range(2000):
        codomain, domain = multiset(), multiset()
        s = RationalSeries.from_weight_ratio(codomain, domain)
        euclid = RationalSeries(weight_denominator(codomain), weight_denominator(domain))
        assert (s.numerator, s.denominator) == (euclid.numerator, euclid.denominator)


def test_from_weight_ratio_rejects_nonpositive_weights():
    for codomain, domain in [((0,), (1,)), ((1,), (2, -1))]:
        with pytest.raises(ValueError, match="power must be positive"):
            RationalSeries.from_weight_ratio(codomain, domain)


def test_pseudo_remainder_scales_only_where_lc_does_not_divide():
    # by 1 - t^2, whose lc -1 divides every coefficient, the remainder is
    # the true one, 5t + 3 for 5t^3 + 3, with no power of lc: one pass per
    # coefficient, so high-degree weight ratios stay linear in the degree
    assert _pseudo_remainder((3, 0, 0, 5), (1, 0, -1)) == (3, 5)
    # by 2t^2 + 1 the top coefficient 5 is scaled: 2 * (5t^3) = 5t(2t^2 + 1) - 5t
    assert _pseudo_remainder((3, 0, 0, 5), (1, 0, 2)) == (6, -5)
    s = RationalSeries.from_weight_ratio((1000, 999), (1, 1, 1))
    assert s.denominator == one_minus_power(1) and s.numerator(1) == 1000 * 999


@pytest.mark.parametrize(
    "numerator, denominator, order",
    [
        (UniPoly([1, 2, 1]), UniPoly.one(), 0),  # a polynomial
        (UniPoly.one(), one_minus_power(1) ** 3, 3),
        (UniPoly([1, 1]), one_minus_power(2), 1),  # reduces to 1/(1 - t)
        (UniPoly.one(), weight_denominator((2, 3)), 2),
        (UniPoly(), weight_denominator((1, 1)), 0),  # the zero series
    ],
)
def test_pole_order(numerator, denominator, order):
    assert RationalSeries(numerator, denominator).pole_order() == order


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalSeries(UniPoly([1]), UniPoly([]))


def sympy_canonical(num: UniPoly, den: UniPoly) -> tuple[UniPoly, UniPoly]:
    """num/den cancelled by sympy, then scaled to joint content 1 with the
    lowest nonzero denominator coefficient positive."""
    expr = sympy.cancel(to_sympy(num).as_expr() / to_sympy(den).as_expr())
    p, q = sympy.fraction(sympy.together(expr))
    cp = sympy.Poly(p, t, domain="QQ").all_coeffs()[::-1]
    cq = sympy.Poly(q, t, domain="QQ").all_coeffs()[::-1]
    both = [sympy.Rational(c) for c in cp + cq]
    scale = lcm(*(int(c.q) for c in both))
    ints = [int(c * scale) for c in both]
    content = gcd(*ints)
    ints = [x // content for x in ints]
    if next(x for x in ints[len(cp):] if x) < 0:
        ints = [-x for x in ints]
    return UniPoly(ints[: len(cp)]), UniPoly(ints[len(cp):])


def test_canonical_form_matches_sympy_cancel():
    rng = random.Random(20260)

    def poly(max_degree: int) -> UniPoly:
        while True:
            p = UniPoly(rng.randint(-5, 5) for _ in range(rng.randint(1, max_degree + 1)))
            if p:
                return p

    for case in range(150):
        common = poly(3)
        lead = rng.choice([2, 3, -2, -1, 4])
        common = common + UniPoly.term(lead, common.degree + 1)  # non-monic, maybe negative
        num = UniPoly() if case % 10 == 0 else poly(4)
        den = poly(4)
        s = RationalSeries(num * common, den * common)
        assert (s.numerator, s.denominator) == sympy_canonical(num * common, den * common)
        assert s == RationalSeries(num, den)


def test_series_arithmetic_makes_no_fraction(monkeypatch):
    made = 0
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    gaussian_binomial(12, 6)
    RationalSeries.from_weight_ratio((1, 2, 3, 4), (1, 2, 1, 2))
    common = UniPoly([-2, 0, 3])  # 3t^2 - 2: non-monic
    RationalSeries(UniPoly([2, 2]) * common, UniPoly([1, -1, 0, 1]) * common)
    assert made == 0
    Fraction(1, 2)
    assert made == 1  # the counter is live


def test_series_and_polynomial_compare_both_ways(monkeypatch):
    poly = UniPoly([1, 1])
    polynomial = RationalSeries(one_minus_power(2), one_minus_power(1))  # 1 + t
    proper = RationalSeries(UniPoly([1, 1, -1]), UniPoly([1, -1]))
    zero = RationalSeries(UniPoly(), one_minus_power(1))
    made = 0
    series_init = RationalSeries.__init__

    def counting_init(self, *args):
        nonlocal made
        made += 1
        series_init(self, *args)

    monkeypatch.setattr(RationalSeries, "__init__", counting_init)
    for series, other, equal in [
        (polynomial, poly, True),
        (polynomial, UniPoly([1, 2]), False),
        (proper, UniPoly([1, 1, -1]), False),  # the numerator alone
        (zero, UniPoly(), True),
        (zero, poly, False),
    ]:
        assert (series == other) is (other == series) is equal
        assert (series != other) is (other != series) is (not equal)
    assert made == 0
    assert hash(polynomial) == hash(poly) and hash(zero) == hash(UniPoly())
    assert len({polynomial, poly, proper}) == 2


def test_equality_and_hash_agree_across_int_polynomial_and_series():
    # one value may arrive as an int, a UniPoly or a RationalSeries; equal
    # values must compare equal both ways and hash alike
    values = [
        0, 1, 5, -5,
        UniPoly(), UniPoly([1]), UniPoly([5]), UniPoly([1, 1]), UniPoly([0, 5]),
        RationalSeries(UniPoly(), one_minus_power(1)),
        RationalSeries.from_polynomial(UniPoly([5])),
        RationalSeries(one_minus_power(2), one_minus_power(1)),  # 1 + t
        RationalSeries(one_minus_power(1), one_minus_power(1)),  # 1
        RationalSeries(UniPoly([5]), one_minus_power(1)),
    ]

    def value(x):
        if isinstance(x, int):
            return (x,) if x else (), (1,)
        if isinstance(x, UniPoly):
            return x.coeffs, (1,)
        return x.numerator.coeffs, x.denominator.coeffs

    for a in values:
        for b in values:
            equal = value(a) == value(b)
            assert (a == b) is (b == a) is equal, (a, b)
            assert (a != b) is (b != a) is (not equal), (a, b)
            if equal:
                assert hash(a) == hash(b), (a, b)
    assert len(set(values)) == 7
