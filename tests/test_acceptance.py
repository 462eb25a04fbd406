"""End-to-end acceptance checks, one per headline guarantee.

Every check prints a single [PASS]/[FAIL] line (visible under `pytest -s`
and in failure reports), runs in exact rational arithmetic, and carries
an explicit wall-clock budget.  The numbers missing here (1, 2 and 5: the
jet ladder, the embedded point, the equivariant closed form) are catalogue
cases of `multalg verify`, which the suite runs whole.
"""

import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from multalg.cli import main as cli_main
from multalg.grassmann import gaussian_binomial, grassmann_presentation
from multalg.groebner import (
    Ideal,
    certify,
    groebner_basis,
    hilbert_series,
    ideal_intersection,
    ideal_product,
    normal_form,
)
from multalg.jets import apply_substitution, jet_presentation
from multalg.multiplicity import (
    hitchin_base_weights,
    random_zero_dimensional_map,
    verify_structure_theorem,
)
from multalg.poly import Polynomial, WeightedGrading, parse_polynomial
from multalg.rings import PresentedRing
from multalg.weights import (
    DominantWeight,
    dominance_leq,
    fundamental_weight,
    is_minuscule,
    lower_set,
    weyl_orbit_size,
)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}", file=sys.stdout)
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"[PASS] criterion {number}: {label} ({elapsed:.2f}s)", file=sys.stdout)


def P(text, vs):
    return parse_polynomial(text, vs)


A2 = ("a0", "a1")
A3 = ("a0", "a1", "a2")


def square_point_ring() -> PresentedRing:
    return PresentedRing(("a",), (1,), (P("a^2", ("a",)),))


def d3_reference_ideal() -> Ideal:
    return Ideal(
        A3,
        (P("a0^2", A3), P("a0*a1", A3), P("a0*a2 + a1^2", A3)),
        WeightedGrading.units(3),
    )


def embedded_point_ideals():
    linear = Ideal(A2, (P("a0", A2), P("a1", A2)), WeightedGrading.units(2))
    axis = Ideal(A2, (P("a0", A2),), WeightedGrading.units(2))
    target = Ideal(A2, (P("a0^2", A2), P("a0*a1", A2)), WeightedGrading.units(2))
    return linear, axis, target


def random_ci_maps(count=20, seed=2026):
    rng = random.Random(seed)
    return [
        random_zero_dimensional_map(rng, n_vars=rng.randint(1, 4), max_degree=5)
        for _ in range(count)
    ]


def grassmann_sweep():
    return [(n, k) for n in range(2, 7) for k in range(1, n)]


# ---------------------------------------------------------------------------


def test_criterion_03_hilbert_vs_gaussian_sweep():
    with criterion(3, "Hilbert series of k-plane rings match Gaussian binomials, n <= 6", 60.0):
        for n, k in grassmann_sweep():
            ring = grassmann_presentation(n, k)
            series = hilbert_series(ring.ideal(), ring.grading())
            assert series.is_polynomial(), (n, k)
            poly = series.as_polynomial()
            assert poly == gaussian_binomial(n, k), (n, k)
            assert poly(1) == comb(n, k), (n, k)


def test_criterion_04_structure_suite():
    with criterion(4, "graded structure suite on the sweep and 20 random intersections", 120.0):
        maps = [grassmann_presentation(n, k).as_map() for n, k in grassmann_sweep()]
        maps += random_ci_maps()
        for m in maps:
            rep = verify_structure_theorem(m)
            assert rep.finite_dimensional
            assert rep.all_true(), rep.clauses
            expected_top = sum(m.degrees) - sum(m.grading.weights)
            assert rep.top_degree == rep.expected_top_degree == expected_top


def test_criterion_06_weyl_orbit_sizes():
    with criterion(6, "orbit of (d+1)*omega_k has size C(n,k)", 1.0):
        for n in range(1, 9):
            for k in range(1, n + 1):
                for d in range(0, 6):
                    mu = fundamental_weight(n, k, scale=d + 1)
                    assert weyl_orbit_size(mu) == comb(n, k), (n, k, d)


def test_criterion_07_dominance_suite():
    with criterion(7, "dominance order axioms, lower sets, minuscule singletons", 5.0):
        rng = random.Random(7)

        def random_dominant(n, total):
            cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
            return DominantWeight(tuple(sorted(parts, reverse=True)))

        pairs = []
        for _ in range(500):
            n = rng.randint(1, 6)
            total = rng.randint(0, 10)
            pairs.append((random_dominant(n, total), random_dominant(n, total)))
        for a, b in pairs:
            assert dominance_leq(a, a) and dominance_leq(b, b)
            if dominance_leq(a, b) and dominance_leq(b, a):
                assert a == b
        for (a, b), (c, d) in zip(pairs, pairs[1:]):
            if dominance_leq(a, b) and len(b) == len(c) and dominance_leq(b, c):
                assert dominance_leq(a, c)

        for mu in [DominantWeight((4, 2, 0)), DominantWeight((3, 3, 1, 0))]:
            below = lower_set(mu)
            names = {w.entries for w in below}
            for lam in below:
                assert dominance_leq(lam, mu)
                for nu in lower_set(lam):
                    assert nu.entries in names  # downward closed

        for d in range(0, 11):
            assert len(lower_set(fundamental_weight(2, 1, scale=d + 1))) == (d + 1) // 2 + 1

        for n in range(1, 7):
            for k in range(1, n + 1):
                omega = fundamental_weight(n, k)
                assert is_minuscule(omega)
                assert len(lower_set(omega)) == 1


def test_criterion_08_hitchin_cardinality():
    with criterion(8, "base weight count is n^2(g-1)+1", 1.0):
        for n in range(1, 7):
            for g in range(2, 6):
                assert len(hitchin_base_weights(n, g)) == n * n * (g - 1) + 1, (n, g)


def test_criterion_09_certification_and_normal_form_laws():
    with criterion(9, "independent certification of every basis, normal-form laws", 60.0):
        ideals = []
        base = square_point_ring()
        for d in (1, 2, 3):
            ideals.append(jet_presentation(base, d).ring.ideal())
        ideals.append(d3_reference_ideal())
        ideals.append(apply_substitution(d3_reference_ideal(), {"a2": P("2*a2", A3)}))
        linear, axis, target = embedded_point_ideals()
        squared = ideal_product(linear, linear)
        ideals += [squared, axis, target, ideal_intersection(squared, axis)]
        for n, k in grassmann_sweep():
            ideals.append(grassmann_presentation(n, k).ideal())
        for m in random_ci_maps():
            ideals.append(Ideal(m.variables, m.components, m.grading))

        bases = [groebner_basis(i) for i in ideals]
        for gb in bases:
            assert certify(gb)

        rng = random.Random(99)
        pool = [gb for gb in bases if len(gb.variables) >= 2][:6]

        def random_poly(vs):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                exps = tuple(rng.randint(0, 3) for _ in vs)
                terms[exps] = Fraction(rng.randint(-5, 5))
            p = Polynomial(vs, terms)
            return p if not p.is_zero() else Polynomial.constant(vs, 1)

        for i in range(200):
            gb = pool[i % len(pool)]
            f = random_poly(gb.variables)
            g = random_poly(gb.variables)
            c = Fraction(rng.randint(-4, 4))
            nf = normal_form(f, gb)
            assert normal_form(nf, gb) == nf  # idempotent
            assert normal_form(f + g, gb) == nf + normal_form(g, gb)  # additive
            assert normal_form(c * f, gb) == c * nf  # homogeneous
            member = f * gb.basis[i % len(gb.basis)]
            assert normal_form(member, gb).is_zero()  # kills the ideal


def test_criterion_10_negative_control_fails_loudly(capsys):
    with criterion(10, "corrupted order-3 fixture is caught with a nonzero witness", 30.0):
        rc = cli_main(
            ["verify", "--filter", "negative_control", "--include-negative-controls"]
        )
        out = capsys.readouterr().out
        assert rc != 0
        data = json.loads(out)
        assert len(data["failed"]) == 1
        witness = data["failed"][0]["witness"]
        assert "witness:" in witness
        poly = parse_polynomial(witness.split("witness:")[1], A3)
        assert not poly.is_zero()
