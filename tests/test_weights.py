import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multalg.weights import (
    MAX_STRATA,
    DominantWeight,
    dominance_leq,
    fundamental_decomposition,
    fundamental_weight,
    is_minuscule,
    lower_set,
    weyl_orbit_size,
)


def W(*entries):
    return DominantWeight(entries)


def all_dominant(n: int, total: int) -> list[DominantWeight]:
    """Exhaustive list of weakly decreasing non-negative n-tuples with the
    given total -- the comparison pool for lower_set."""
    out = []
    for combo in itertools.combinations_with_replacement(range(total + 1), n):
        entries = tuple(sorted(combo, reverse=True))
        if sum(entries) == total:
            out.append(DominantWeight(entries))
    return sorted(set(out), key=lambda w: w.entries, reverse=True)


dominant_weights = st.lists(
    st.integers(min_value=-3, max_value=6), min_size=1, max_size=5
).map(lambda xs: DominantWeight(tuple(sorted(xs, reverse=True))))


# ------------------------------------------------------------------ basics


def test_weight_validation():
    with pytest.raises(ValueError):
        DominantWeight(())
    with pytest.raises(ValueError):
        W(1, 2)
    assert W(3, 1).entries == (3, 1)
    assert str(W(2, 1, 0)) == "(2,1,0)"
    assert W(2, -1).total == 1


@pytest.mark.parametrize("entries", [(1.7, 0.2), (2, 1.0), ("3", "1"), (Fraction(1, 2),), (None,)])
def test_weight_rejects_non_integers(entries):
    # int() would truncate (1.7, 0.2) to (1, 0)
    with pytest.raises(ValueError, match="must be integers"):
        DominantWeight(entries)


def test_fundamental_weight():
    assert fundamental_weight(4, 2).entries == (1, 1, 0, 0)
    assert fundamental_weight(3, 3).entries == (1, 1, 1)
    assert fundamental_weight(2, 1, scale=4).entries == (4, 0)
    with pytest.raises(ValueError):
        fundamental_weight(3, 0)
    with pytest.raises(ValueError):
        fundamental_weight(3, 4)


# --------------------------------------------------------------- dominance


def test_dominance_examples():
    assert dominance_leq(W(1, 1), W(2, 0))
    assert not dominance_leq(W(2, 0), W(1, 1))
    assert dominance_leq(W(2, 1, 1), W(2, 2, 0))
    with pytest.raises(ValueError):
        dominance_leq(W(1, 0), W(1, 0, 0))


@given(dominant_weights)
def test_dominance_reflexive(w):
    assert dominance_leq(w, w)


def test_dominance_partial_order_axioms_exhaustive():
    pool = all_dominant(3, 6)
    for a, b in itertools.product(pool, repeat=2):
        if dominance_leq(a, b) and dominance_leq(b, a):
            assert a == b
    for a, b, c in itertools.product(pool, repeat=3):
        if dominance_leq(a, b) and dominance_leq(b, c):
            assert dominance_leq(a, c)


# --------------------------------------------------------------- lower set


@pytest.mark.parametrize(
    "mu", [W(4, 0), W(3, 1, 0), W(2, 2, 2), W(5, 0, 0), W(3, 2, 1, 0), W(2, 2, 1, 1)]
)
def test_lower_set_matches_exhaustive_filter(mu):
    pool = all_dominant(len(mu), mu.total)
    expected = [lam for lam in pool if dominance_leq(lam, mu)]
    got = lower_set(mu)
    assert got == expected  # same elements, descending lexicographic
    assert got[0] == mu


def test_lower_set_is_downward_closed():
    mu = W(4, 2, 0)
    closure = set(w.entries for w in lower_set(mu))
    for lam in lower_set(mu):
        for nu in lower_set(lam):
            assert nu.entries in closure


def test_lower_set_with_negative_entries():
    got = lower_set(W(1, -1))
    assert [w.entries for w in got] == [(1, -1), (0, 0)]


def test_lower_set_stops_past_the_strata_cap():
    # the closure of (k, 0, ..., 0) holds the p(k) partitions of k:
    # p(25) = 1,958 and p(26) = 2,436 fit under the cap, p(27) = 3,010 does not
    for k, size in [(25, 1958), (26, 2436)]:
        assert len(lower_set(fundamental_weight(k, 1, scale=k))) == size <= MAX_STRATA
    with pytest.raises(ValueError, match="over the cap"):
        lower_set(fundamental_weight(27, 1, scale=27))


# ------------------------------------------------------------------ orbits


def test_orbit_size_vs_permutation_count():
    for mu in [W(1, 0), W(1, 1, 0), W(2, 1, 0), W(3, 3, 0, 0), W(2, 2, 2)]:
        assert weyl_orbit_size(mu) == len(set(itertools.permutations(mu.entries)))


@given(dominant_weights)
def test_orbit_size_matches_permutations(w):
    assert weyl_orbit_size(w) == len(set(itertools.permutations(w.entries)))


# ----------------------------------------------------------- decomposition


def test_fundamental_decomposition_reconstructs():
    for mu in [W(3, 1, 0), W(2, 2, 1), W(5, 0), W(1, 1, 1, 1)]:
        alpha, reversed_alpha = fundamental_decomposition(mu)
        n = len(mu)
        assert reversed_alpha == tuple(reversed(alpha))
        rebuilt = tuple(sum(alpha[j] for j in range(i, n)) for i in range(n))
        assert rebuilt == mu.entries
        assert all(a >= 0 for a in alpha[:-1])


def test_fundamental_decomposition_examples():
    assert fundamental_decomposition(W(2, 2, 0))[0] == (0, 2, 0)
    assert fundamental_decomposition(W(3, 1))[0] == (2, 1)


# --------------------------------------------------------------- minuscule


def test_minuscule_iff_singleton_lower_set():
    for n in range(1, 5):
        for total in range(0, 7):
            for mu in all_dominant(n, total):
                assert is_minuscule(mu) == (len(lower_set(mu)) == 1)


def test_minuscule_examples():
    assert is_minuscule(W(2, 2, 2))
