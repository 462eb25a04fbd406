import itertools
import random
from fractions import Fraction
from math import comb, prod

import pytest
import sympy

from multalg.grassmann import (
    MAX_GAUSSIAN_DEGREE,
    MAX_MULTIPLICITY_DEGREE,
    MAX_PRESENTATION_ENTRIES,
    DivisorData,
    closure_vs_grassmann_dimensions,
    gaussian_binomial,
    grassmann_multiplicity,
    grassmann_presentation,
    product_hilbert,
)
from multalg.series import UniPoly
from multalg.weights import DominantWeight


def count_subspaces_brute(n: int, k: int, q: int) -> int:
    """Count k-dimensional subspaces of F_q^n by enumerating spans.

    Every k-tuple of vectors is tried; the span is materialized as the
    set of all q^k linear combinations and kept only when it has full
    size.  Distinct subspaces are collected as frozensets of vectors, so
    the count owes nothing to any product formula.
    """
    vectors = list(itertools.product(range(q), repeat=n))
    spans = set()
    for rows in itertools.product(vectors, repeat=k):
        span = set()
        for coeffs in itertools.product(range(q), repeat=k):
            v = tuple(
                sum(c * r[i] for c, r in zip(coeffs, rows)) % q for i in range(n)
            )
            span.add(v)
        if len(span) == q**k:
            spans.add(frozenset(span))
    return len(spans)


# ------------------------------------------------------------- gaussians


def test_gaussian_small_values():
    assert gaussian_binomial(1, 0) == UniPoly([1])
    assert gaussian_binomial(4, 1) == UniPoly([1, 1, 1, 1])


def test_gaussian_counts_subspaces_over_finite_fields():
    cases = [(n, k) for n in range(1, 4) for k in range(0, n + 1)]
    cases += [(4, 1), (4, 2), (4, 3)]
    for n, k in cases:
        poly = gaussian_binomial(n, k)
        assert poly(2) == count_subspaces_brute(n, k, 2)
    for n in range(1, 4):
        for k in range(0, n + 1):
            assert gaussian_binomial(n, k)(3) == count_subspaces_brute(n, k, 3)


def test_gaussian_shape():
    for n in range(0, 9):
        for k in range(0, n + 1):
            g = gaussian_binomial(n, k)
            assert g == gaussian_binomial(n, n - k)
            assert g.degree == k * (n - k)
            assert g(1) == comb(n, k)
            assert g.is_palindromic() and g.is_monic_top()
            assert all(c > 0 for c in g.coeffs)


def test_gaussian_matches_q_pascal_recurrence():
    # [n k] = [n-1 k-1] + t^k [n-1 k], built up from [0 0] = 1
    row = [UniPoly.one()]
    for n in range(1, 31):
        row = [UniPoly.one()] + [
            row[k - 1] + UniPoly.term(1, k) * row[k] for k in range(1, n)
        ] + [UniPoly.one()]
        assert [gaussian_binomial(n, k) for k in range(n + 1)] == row


def test_gaussian_at_the_degree_cap_counts_subsets():
    assert 60 * 60 == MAX_GAUSSIAN_DEGREE
    assert gaussian_binomial(120, 60)(1) == comb(120, 60)


def test_gaussian_rejects_bad_input():
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3)
    with pytest.raises(ValueError):
        gaussian_binomial(2, -1)


# ---------------------------------------------------------- presentation


def as_sympy(p, syms):
    expr = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        term = sympy.Rational(coeff)
        for s, e in zip(syms, exps):
            term *= s**e
        expr += term
    return expr


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 2), (5, 2), (5, 3)])
def test_presentation_relations_are_product_coefficients(n, k):
    ring = grassmann_presentation(n, k)
    x = sympy.Symbol("x")
    syms = [sympy.Symbol(v) for v in ring.variables]
    ps = syms[:k]
    qs = syms[k:]
    P = x**k + sum(p * x ** (k - 1 - i) for i, p in enumerate(ps))
    Q = x ** (n - k) + sum(q * x ** (n - k - 1 - j) for j, q in enumerate(qs))
    product = sympy.expand(P * Q - x**n)
    # relation of weighted degree d is the coefficient of x^(n-d)
    assert len(ring.relations) == n
    for d, rel in enumerate(ring.relations, start=1):
        expected = product.coeff(x, n - d)
        assert sympy.expand(as_sympy(rel, syms) - expected) == 0


def test_presentation_weights_and_names():
    ring = grassmann_presentation(4, 2)
    assert ring.variables == ("p1", "p2", "q1", "q2")
    assert ring.weights == (1, 2, 1, 2)
    ring = grassmann_presentation(3, 1)
    assert ring.variables == ("p1", "q1", "q2")
    assert ring.weights == (1, 1, 2)


def test_presentation_rejects_bad_input():
    with pytest.raises(ValueError):
        grassmann_presentation(2, 0)
    with pytest.raises(ValueError):
        grassmann_presentation(2, 2)


# ---------------------------------------------------------- divisor data


def test_divisor_data_validation():
    d = DivisorData(3, (1, 0))
    assert d.m == (1, 0)
    with pytest.raises(ValueError):
        DivisorData(3, (1,))
    with pytest.raises(ValueError):
        DivisorData(3, (1, -1))
    with pytest.raises(ValueError):
        DivisorData(0, ())


@pytest.mark.parametrize(
    "n, m",
    [(3, (1.9, 0.5)), (3, (1, 0.0)), (3.0, (1, 0)), (2, ("1",)), (2, (Fraction(3, 2),)), (2, (None,))],
)
def test_divisor_data_rejects_non_integers(n, m):
    # int() would truncate (1.9, 0.5) to (1, 0), whose multiplicity is 1 + t + t^2
    with pytest.raises(ValueError, match="must be integers"):
        DivisorData(n, m)


def dense_multiplicity(n: int, m: tuple[int, ...]) -> UniPoly:
    """prod_i [n i]_t^(m_i) by dense `UniPoly` powers and products."""
    out = UniPoly.one()
    for i, mult in enumerate(m, start=1):
        out = out * gaussian_binomial(n, i) ** mult
    return out


def test_multiplicity_matches_dense_product():
    rng = random.Random(27)
    for _ in range(300):
        n = rng.randint(1, 8)
        m = tuple(rng.randint(0, 3) for _ in range(n - 1))
        assert grassmann_multiplicity(DivisorData(n, m)) == dense_multiplicity(n, m), (n, m)


@pytest.mark.parametrize(
    "entries", [(8,) + (0,) * 7, (5, 3, 1, 0, 0, 0), (2, 2, 1, 1, 0, 0, 0, 0), (4, 3, 3, 2, 1, 1, 0), (3, 1, 1)]
)
def test_closure_strata_match_dense_product(entries):
    n = len(entries)
    report = closure_vs_grassmann_dimensions(DominantWeight(entries))
    strata = [s for s in report.strata if s.status == "multiplicity"]
    assert strata
    for s in strata:
        dense = dense_multiplicity(n, s.alpha[: n - 1])
        assert (s.polynomial, s.point_count) == (str(dense), dense(1)), s.weight


def test_closure_makes_no_dense_product(monkeypatch):
    calls = []
    mul = UniPoly.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(UniPoly, "__mul__", counted)
    report = closure_vs_grassmann_dimensions(DominantWeight((12,) + (0,) * 11))
    assert sum(s.status == "multiplicity" for s in report.strata) > 1
    assert calls == []


def test_grassmann_multiplicity_products():
    assert grassmann_multiplicity(DivisorData(2, (2,))) == UniPoly([1, 2, 1])
    assert grassmann_multiplicity(DivisorData(4, (0, 0, 0))) == UniPoly([1])


def test_output_degree_caps_accept_their_bound():
    # degree exactly at each cap; in [n n-1]_t the factors 1 - t^2 ..
    # 1 - t^(n-1) cancel, so like [n 1]_t it is (1 - t^n) / (1 - t)
    n = MAX_GAUSSIAN_DEGREE + 1
    assert gaussian_binomial(n, 1) == gaussian_binomial(n, n - 1) == UniPoly([1] * n)
    n = MAX_MULTIPLICITY_DEGREE + 1
    assert grassmann_multiplicity(DivisorData(n, (1,) + (0,) * (n - 2))) == UniPoly([1] * n)
    with pytest.raises(ValueError, match="over the cap"):
        grassmann_multiplicity(DivisorData(n + 1, (1,) + (0,) * (n - 1)))


def test_presentation_cap_accepts_its_bound():
    # n^2 (min(k, n-k) + 1) exponent entries: Gr(1,2000) has exactly the cap
    assert 2000 * 2000 * 2 == MAX_PRESENTATION_ENTRIES
    assert len(grassmann_presentation(2000, 1).relations) == 2000
    for n, k in ((2001, 1), (2001, 2000), (1000, 500)):
        with pytest.raises(ValueError, match="over the cap"):
            grassmann_presentation(n, k)


def test_expected_point_count_is_value_at_one():
    for d in [
        DivisorData(2, (3,)),
        DivisorData(3, (1, 2)),
        DivisorData(4, (1, 0, 2)),
    ]:
        point_count = prod(comb(d.n, i) ** m_i for i, m_i in enumerate(d.m, start=1))
        assert grassmann_multiplicity(d)(1) == point_count


def test_product_hilbert_multiplies_factors():
    r1 = grassmann_presentation(2, 1)
    r2 = grassmann_presentation(3, 1)
    combined = product_hilbert([r1, r2])
    assert combined.is_polynomial()
    expected = gaussian_binomial(2, 1) * gaussian_binomial(3, 1)
    assert combined.as_polynomial() == expected


def test_divisor_multiplicity_matches_tensor_hilbert():
    # three reduced points on a rank-2 divisor: algebra is a triple tensor
    d = DivisorData(2, (3,))
    rings = [grassmann_presentation(2, 1)] * 3
    assert product_hilbert(rings).as_polynomial() == grassmann_multiplicity(d)
