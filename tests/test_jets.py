import random
import time

import pytest
import sympy

from multalg import groebner, jets
from multalg.grassmann import grassmann_presentation
from multalg.groebner import (
    Ideal,
    groebner_basis,
    hilbert_series,
    ideal_equal,
    is_zero_dimensional,
    krull_dimension,
    standard_monomials,
)
from multalg.jets import (
    GRADING_ASSUMPTION,
    MAX_JET_VARIABLES,
    MAX_JET_WORK,
    apply_substitution,
    jet_invariants,
    jet_presentation,
)
from multalg.poly import (
    Polynomial,
    PolynomialError,
    WeightedGrading,
    parse_polynomial,
    quasi_homogeneity_witness,
)
from multalg.rings import PresentedRing
from multalg.series import RationalSeries, UniPoly


def P(text, vs):
    return parse_polynomial(text, vs)


def square_ring():
    vs = ("a",)
    return PresentedRing(vs, (1,), (P("a^2", vs),))


def gr21_ring():
    vs = ("p1", "q1")
    return PresentedRing(vs, (1, 1), (P("p1 + q1", vs), P("p1*q1", vs)))


def sympy_jet_relations(base: PresentedRing, d: int):
    """Schoolbook route: substitute truncated series, expand, read z-coefficients."""
    z = sympy.Symbol("z")
    jet = jet_presentation(base, d)
    jet_syms = {v: sympy.Symbol(v) for v in jet.ring.variables}
    groups = []
    idx = 0
    for _ in base.variables:
        groups.append(
            sum(
                jet_syms[jet.ring.variables[idx + j]] * z**j for j in range(d)
            )
        )
        idx += d
    subs = dict(zip(base.variables, groups))
    out = []
    for rel in base.relations:
        expr = sympy.Integer(0)
        for exps, coeff in rel.terms.items():
            term = sympy.Rational(coeff)
            for name, e in zip(base.variables, exps):
                term *= subs[name] ** e
            expr += term
        expr = sympy.expand(expr)
        for j in range(d):
            out.append(sympy.expand(expr.coeff(z, j)))
    return jet, out


def to_sympy(p):
    syms = [sympy.Symbol(v) for v in p.variables]
    expr = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        term = sympy.Rational(coeff)
        for s, e in zip(syms, exps):
            term *= s**e
        expr += term
    return expr


# ------------------------------------------------------------ presentation


@pytest.mark.parametrize("d", [1, 2, 3])
def test_jet_relations_match_series_substitution_square(d):
    jet, expected = sympy_jet_relations(square_ring(), d)
    assert len(jet.ring.relations) == len(expected) == d
    for rel, exp in zip(jet.ring.relations, expected):
        assert sympy.expand(to_sympy(rel) - exp) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_jet_relations_match_series_substitution_gr21(d):
    jet, expected = sympy_jet_relations(gr21_ring(), d)
    assert len(jet.ring.relations) == len(expected) == 2 * d
    for rel, exp in zip(jet.ring.relations, expected):
        assert sympy.expand(to_sympy(rel) - exp) == 0


def weighted_rational_ring():
    vs = ("x", "y")
    return PresentedRing(vs, (1, 2), (P("x^4 + 3/2*x^2*y - y^2", vs),))


def quintic_ring():
    vs = ("x",)
    return PresentedRing(vs, (1,), (P("x^5", vs),))


def gr24_ring():
    return grassmann_presentation(4, 2)


@pytest.mark.parametrize(
    "make_base, d",
    [(weighted_rational_ring, d) for d in (1, 2, 3, 4)]
    + [(quintic_ring, d) for d in range(1, 7)]
    + [(gr24_ring, 4)],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_jet_relations_match_series_substitution_wider(make_base, d):
    base = make_base()
    jet, expected = sympy_jet_relations(base, d)
    assert len(jet.ring.relations) == len(expected) == len(base.relations) * d
    for rel, exp in zip(jet.ring.relations, expected):
        assert sympy.expand(to_sympy(rel) - exp) == 0


def jet_relations_by_products(base: PresentedRing, d: int):
    """Reference route: the e-th truncated power of x_i^(0) + ... +
    x_i^(d-1) z^(d-1) is the (e-1)-th times that series, and each base term
    is the product of its variables' powers; one term dict per jet relation."""
    unit = (0,) * (len(base.variables) * d)

    def product(a, b):
        out = {}
        for (i, ma), ca in a.items():
            for (j, mb), cb in b.items():
                if i + j < d:
                    key = (i + j, tuple(x + y for x, y in zip(ma, mb)))
                    out[key] = out.get(key, 0) + ca * cb
        return out

    images = [
        {(j, unit[: i * d + j] + (1,) + unit[i * d + j + 1 :]): 1 for j in range(d)}
        for i in range(len(base.variables))
    ]
    powers = [[{(0, unit): 1}] for _ in images]
    relations = []
    for rel in base.relations:
        levels = [{} for _ in range(d)]
        for exps, c in rel.terms.items():
            term = {(0, unit): c}
            for i, e in enumerate(exps):
                while len(powers[i]) <= e:
                    powers[i].append(product(powers[i][-1], images[i]))
                term = product(term, powers[i][e])
            for (j, m), t in term.items():
                levels[j][m] = levels[j].get(m, 0) + t
        relations.extend({m: t for m, t in level.items() if t} for level in levels)
    return relations


def test_jet_powers_match_repeated_products():
    # seeded forms in one to three variables, exponents 1-40, orders 1-12
    rng = random.Random(33)
    for _ in range(60):
        vs = ("x", "y", "z")[: rng.randint(1, 3)]
        degree = rng.randint(1, 40)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            cuts = sorted(rng.randint(0, degree) for _ in vs[1:])
            terms[tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))] = rng.choice((1, -2, 3))
        base = PresentedRing(vs, (1,) * len(vs), (Polynomial(vs, terms),))
        d = rng.randint(1, 12)
        got = [rel.terms for rel in jet_presentation(base, d).ring.relations]
        assert got == jet_relations_by_products(base, d), (base, d)


def test_order_20_jets_of_a_100th_power_build_quickly():
    # the construction follows the 2,087 result terms, not the exponent 100
    began = time.perf_counter()
    jet = jet_presentation(fat_point("x", 100), 20)
    assert time.perf_counter() - began < 0.1
    assert sum(len(rel.terms) for rel in jet.ring.relations) == 2087


def test_jet_presentation_builds_one_polynomial_per_relation(monkeypatch):
    base = gr24_ring()
    built = []
    init = Polynomial.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counting)
    jet = jet_presentation(base, 3)
    assert len(jet.ring.relations) == 4 * 3
    assert len(built) == len(jet.ring.relations)


def test_order_one_is_renaming():
    jet = jet_presentation(square_ring(), 1)
    assert jet.ring.weights == (1,)
    assert jet.ring.relations == (P("a0^2", ("a0",)),)


def test_naming_conventions():
    jet = jet_presentation(gr21_ring(), 2)
    assert jet.ring.variables == ("p1_0", "p1_1", "q1_0", "q1_1")


def test_name_collision_rejected():
    vs = ("a0_", "a0")
    ring = PresentedRing(vs, (1, 1), (P("a0_ + a0", vs),))
    with pytest.raises(PolynomialError):
        jet_presentation(ring, 1)


def test_jet_order_must_be_positive():
    with pytest.raises(ValueError):
        jet_presentation(square_ring(), 0)


def test_jet_order_cap_counts_jet_variables():
    line = PresentedRing.loads('{"variables": ["a"], "generators": ["a"]}')
    jet = jet_presentation(line, MAX_JET_VARIABLES)
    assert len(jet.ring.variables) == MAX_JET_VARIABLES
    with pytest.raises(ValueError, match="over the cap"):
        jet_presentation(line, MAX_JET_VARIABLES + 1)
    with pytest.raises(ValueError, match="over the cap"):
        jet_presentation(gr21_ring(), MAX_JET_VARIABLES // 2 + 1)


def test_jet_work_counts_made_and_result_terms():
    # (x^2) at order 2, by hand: the power x0^2 + 2*x0*x1*z makes 2 terms,
    # no product is taken, and the result has those 2 terms; each counts
    # n*d = 2 exponents, a result term 20 times
    base = fat_point("x", 2)
    assert jets._jet_work(base, 2) == 2 * (2 + 20 * 2)
    # a result term is never free: the work is at least 20*n*d per term
    for e in range(1, 6):
        for d in range(1, 9):
            terms = sum(len(r.terms) for r in jet_presentation(fat_point("a", e), d).ring.relations)
            assert jets._jet_work(fat_point("a", e), d) >= 20 * d * terms


def test_jet_work_is_the_count_of_the_terms_the_build_makes(monkeypatch):
    # seeded one-term relations in one to three variables, exponents 0-12,
    # orders 1-10.  A product makes each of its terms with one mono_mul; a
    # power of one variable makes as many terms as the jets of (a^e) have
    made = []
    mul = jets.mono_mul

    def counting(a, b):
        made.append(1)
        return mul(a, b)

    monkeypatch.setattr(jets, "mono_mul", counting)
    rng = random.Random(35)
    for _ in range(60):
        vs = ("x", "y", "z")[: rng.randint(1, 3)]
        exps = tuple(rng.randint(0, 12) for _ in vs)
        d = rng.randint(1, 10)
        base = PresentedRing(vs, (1,) * len(vs), (Polynomial(vs, {exps: 1}),))
        made.clear()
        result = sum(len(rel.terms) for rel in jet_presentation(base, d).ring.relations)
        products = len(made)
        powers = sum(
            len(rel.terms) for e in exps if e for rel in jet_presentation(fat_point("a", e), d).ring.relations
        )
        assert jets._jet_work(base, d) == len(vs) * d * (powers + products + 20 * result), (exps, d)


@pytest.mark.parametrize(
    "fixture, d, admitted",
    [
        ('{"variables": ["x", "y", "z"], "generators": ["x^3*y^3*z^3"]}', 16, True),
        ('{"variables": ["x", "y"], "generators": ["x^20*y^20"]}', 20, True),
        ('{"variables": ["x"], "generators": ["x^36"]}', 36, False),
        ('{"variables": ["x"], "generators": ["x^40"]}', 40, False),
    ],
    ids=["x3y3z3-16", "x20y20-20", "x36-36", "x40-40"],
)
def test_jet_work_cap_admits_products_of_powers(fixture, d, admitted):
    # counted without building: products across variables print in about
    # 1-1.5 s through the CLI, the two high powers of one variable take 2.5 s
    # and more
    assert (jets._jet_work(PresentedRing.loads(fixture), d) <= MAX_JET_WORK) is admitted


def test_jet_work_cap_accepts_its_bound(monkeypatch):
    base = fat_point("a", 5)
    work = jets._jet_work(base, 6)
    monkeypatch.setattr(jets, "MAX_JET_WORK", work)
    assert len(jet_presentation(base, 6).ring.relations) == 6
    monkeypatch.setattr(jets, "MAX_JET_WORK", work - 1)
    with pytest.raises(ValueError, match="over the cap"):
        jet_presentation(base, 6)


def test_every_grassmannian_fits_the_jet_work_cap():
    # at the largest order the variable cap allows
    for n in range(2, 9):
        for k in range(1, n):
            assert jets._jet_work(grassmann_presentation(n, k), MAX_JET_VARIABLES // n) <= MAX_JET_WORK


def test_counts_scale_with_order():
    base = gr21_ring()
    for d in (1, 2, 3, 4):
        jet = jet_presentation(base, d)
        assert len(jet.ring.variables) == 2 * d
        assert len(jet.ring.relations) == 2 * d
        assert jet.order == d and jet.base is base


def test_induced_weights_shift_by_level():
    base = PresentedRing(("x", "y"), (1, 2), (P("y - x^2", ("x", "y")),))
    jet = jet_presentation(base, 3)
    assert jet.ring.weights == (1, 2, 3, 2, 3, 4)
    grading = WeightedGrading(jet.ring.weights)
    for rel in jet.ring.relations:
        # every relation is quasi-homogeneous for the shifted weights
        assert quasi_homogeneity_witness(rel, grading) is None


def test_zero_relation_kept_in_presentation_pruned_in_ideal():
    vs = ("x",)
    base = PresentedRing(vs, (1,), (Polynomial.zero(vs), P("x^3", vs)))
    jet = jet_presentation(base, 2)
    assert len(jet.ring.relations) == 4
    assert sum(1 for r in jet.ring.relations if r.is_zero()) == 2
    assert len(jet.ring.ideal().generators) == 2


# ------------------------------------------------------------ substitution


def test_apply_substitution_identity():
    ideal = jet_presentation(square_ring(), 3).ring.ideal()
    assert ideal_equal(apply_substitution(ideal, {}), ideal)


def test_apply_substitution_collapse_prunes_zero_images():
    vs = ("x", "y")
    ideal = Ideal(vs, (P("x*y", vs), P("x^2", vs)), None)
    collapsed = apply_substitution(ideal, {"x": Polynomial.zero(vs)})
    assert collapsed.generators == ()
    assert collapsed.variables == vs


def test_apply_substitution_rejects_mixed_targets():
    vs = ("x", "y")
    ideal = Ideal(vs, (P("x*y", vs),), None)
    with pytest.raises(PolynomialError):
        apply_substitution(ideal, {"x": P("z", ("z",)), "y": P("w", ("w",))})
    with pytest.raises(PolynomialError):
        # partial assignment into a foreign ring leaves y with no image
        apply_substitution(ideal, {"x": P("z", ("z",))})


def test_apply_substitution_partial_into_same_ring():
    vs = ("x", "y")
    ideal = Ideal(vs, (P("x + y", vs),), None)
    out = apply_substitution(ideal, {"x": P("y^2", vs)})
    assert out.generators == (P("y^2 + y", vs),)


# -------------------------------------------------------------- invariants


def test_invariants_order_1():
    inv = jet_invariants(jet_presentation(square_ring(), 1))
    assert inv.hilbert == RationalSeries(UniPoly([1, 1]), UniPoly([1]))


def test_invariants_order_2():
    inv = jet_invariants(jet_presentation(square_ring(), 2))
    assert inv.dimension is None
    assert str(inv.hilbert) == "(1 + t - t^2)/(1 - t)"


def test_invariants_order_3():
    inv = jet_invariants(jet_presentation(square_ring(), 3))
    assert not inv.finite
    assert inv.krull_dimension == 1
    assert str(inv.hilbert) == "(1 + 2*t)/(1 - t)"


def test_invariants_series_weights_unit_when_possible():
    inv = jet_invariants(jet_presentation(square_ring(), 3))
    assert inv.series_weights == (1, 1, 1)
    inv = jet_invariants(jet_presentation(gr21_ring(), 2))
    assert inv.series_weights == (1, 1, 1, 1)


def test_invariants_fall_back_to_induced_weights():
    # a relation mixing ordinary degrees has no unit grading; the series
    # then counts under the level-shifted presentation weights
    vs = ("x", "y")
    base = PresentedRing(vs, (1, 2), (P("y - x^2", vs), P("x*y", vs)))
    inv = jet_invariants(jet_presentation(base, 2))
    assert inv.series_weights == (1, 2, 2, 3)
    # eliminating y0 = x0^2 and y1 = 2*x0*x1 leaves C[x0,x1]/(x0^3, x0^2*x1):
    # infinite, one-dimensional, series 1/(1-t) + t^2 in the shifted weights
    assert not inv.finite and inv.dimension is None
    assert inv.krull_dimension == 1
    assert str(inv.hilbert) == "(1 + t^2 - t^3)/(1 - t)"


@pytest.mark.parametrize(
    "base, d",
    [(square_ring(), d) for d in (1, 2, 3)]
    + [(grassmann_presentation(4, k), d) for k in (1, 2, 3) for d in (1, 2)],
)
def test_invariants_read_off_the_series_match_the_staircase(base, d):
    # oracle: the staircase of a basis built directly, under the ring's
    # own order, which is the path the series replaced
    jet = jet_presentation(base, d)
    inv = jet_invariants(jet)
    gb = groebner_basis(jet.ring.ideal())
    assert inv.finite == is_zero_dimensional(gb)
    if inv.finite:
        assert inv.dimension == len(standard_monomials(gb))
    else:
        assert inv.dimension is None


@pytest.mark.parametrize("k", (1, 2, 3))
def test_permuting_variables_keeps_hilbert_series_and_dimension(k):
    # metamorphic: renaming variables (their weights moving with them) is a
    # graded isomorphism, though grevlex then gives a different basis
    ideal = jet_presentation(grassmann_presentation(4, k), 2).ring.ideal()
    perm = list(range(len(ideal.variables)))
    random.Random(700 + k).shuffle(perm)
    assert perm != sorted(perm)
    variables = tuple(ideal.variables[i] for i in perm)
    gens = tuple(
        Polynomial(variables, {tuple(e[i] for i in perm): c for e, c in g.terms.items()})
        for g in ideal.generators
    )
    weights = WeightedGrading(tuple(ideal.grading.weights[i] for i in perm))
    permuted = Ideal(variables, gens, weights)
    assert hilbert_series(permuted) == hilbert_series(ideal)
    assert krull_dimension(permuted) == krull_dimension(ideal)


def test_jet_invariants_builds_one_basis(monkeypatch):
    # the Gr(1,3) jet ideal is not unit-homogeneous, so a basis under unit
    # grevlex would be a second Buchberger run beside the series grading's
    groebner.clear_cache()
    calls = 0
    buchberger = groebner.buchberger

    def counting_buchberger(*args):
        nonlocal calls
        calls += 1
        return buchberger(*args)

    monkeypatch.setattr(groebner, "buchberger", counting_buchberger)
    jet_invariants(jet_presentation(grassmann_presentation(3, 1), 2))
    assert calls == 1


def test_invariants_json_carries_grading_assumption():
    inv = jet_invariants(jet_presentation(square_ring(), 2))
    d = inv.to_json_dict()
    assert d["grading_assumption"] == GRADING_ASSUMPTION
    assert "z carries weight 1" in d["grading_assumption"]
    assert d["finite"] is False and d["dimension"] is None
    assert d["hilbert_series"] == "(1 + t - t^2)/(1 - t)"


# ------------------------------------------------------ jet-scheme oracles


def fat_point(variable, e):
    """k[a]/(a^e) on one variable of weight 1."""
    vs = (variable,)
    return PresentedRing(vs, (1,), (P(f"{variable}^{e}", vs),))


def presentation_series(jet):
    """Hilbert series of a jet ring under its presentation grading."""
    return hilbert_series(jet.ring.ideal(), jet.ring.grading())


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("e", range(1, 6))
def test_fat_point_jets_have_dimension_d_minus_ceil_d_over_e(e, d):
    # a(z)^e = 0 mod z^d exactly when ord a(z) >= ceil(d/e): the first
    # ceil(d/e) coordinates vanish on the reduced locus, the rest are free
    series = presentation_series(jet_presentation(fat_point("a", e), d))
    assert series.pole_order() == d - -(-d // e)


@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("e, f", [(e, f) for e in range(1, 4) for f in range(1, 4)])
def test_jets_of_a_product_are_the_product_of_the_jets(e, f, d):
    # on disjoint variables the jets of A (x) B are those of A tensor those
    # of B: the series multiply and the Krull dimensions add
    vs = ("a", "b")
    both = PresentedRing(vs, (1, 1), (P(f"a^{e}", vs), P(f"b^{f}", vs)))
    left = presentation_series(jet_presentation(fat_point("a", e), d))
    right = presentation_series(jet_presentation(fat_point("b", f), d))
    product = presentation_series(jet_presentation(both, d))
    assert product == left * right
    assert product.pole_order() == left.pole_order() + right.pole_order()
