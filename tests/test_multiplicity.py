import random
import time
from fractions import Fraction

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

import multalg.groebner
import multalg.linalg
import multalg.multiplicity
from multalg.grassmann import grassmann_presentation
from multalg.groebner import buchberger, groebner_basis, Ideal, normal_form, standard_monomials
from multalg.linalg import nullspace, rank, rref
from multalg.orders import EliminationOrder, Lex, WeightedGrevlex
from multalg.multiplicity import (
    MAX_EQUIVARIANT_DEGREE,
    MAX_HITCHIN_WEIGHTS,
    FiniteGradedAlgebra,
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
from multalg.poly import (
    Polynomial,
    PolynomialError,
    PolynomialMap,
    WeightedGrading,
    jacobian_determinant,
    mono_mul,
    monomials_of_weighted_degree,
    parse_polynomial,
)
from multalg.series import RationalSeries, UniPoly, one_minus_power


def P(text, vs):
    return parse_polynomial(text, vs)


def gr21_map():
    vs = ("p1", "q1")
    return PolynomialMap.build(
        (P("p1 + q1", vs), P("p1*q1", vs)), WeightedGrading.units(2)
    )


def x2_map():
    return PolynomialMap.build((P("x^2", ("x",)),), WeightedGrading((1,)))


# ------------------------------------------------------------------ linalg


def test_rref_and_rank():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    reduced, pivots = rref(m)
    assert pivots == [0]
    assert rank(m) == 1
    assert rank([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(3)]]) == 2


def test_nullspace():
    # x + y = 0 has nullspace spanned by (1, -1) up to scaling
    basis = nullspace([[Fraction(1), Fraction(1)]], 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0
    # empty system: full standard basis
    assert nullspace([], 2) == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]


def fraction_rref_reference(rows):
    """Plain Gauss-Jordan over Fraction; a column's first nonzero entry is its pivot."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def random_rational_matrices(rng):
    def entry(height):
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        height = rng.choice((3, 9, 10**6))
        rows = [[entry(height) for _ in range(ncols)] for _ in range(nrows)]
        kind = rng.randrange(4)
        if kind == 1:  # rank at most k: a product of nrows x k and k x ncols
            k = rng.randint(1, max(1, min(nrows, ncols) - 1))
            left = [[entry(height) for _ in range(k)] for _ in range(nrows)]
            right = [[entry(height) for _ in range(ncols)] for _ in range(k)]
            rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        elif kind == 2:  # zero rows in random places
            for _ in range(rng.randint(1, 3)):
                rows.insert(rng.randint(0, len(rows)), [Fraction(0)] * ncols)
        elif kind == 3:  # one column
            rows = [row[:1] for row in rows]
        yield rows
    yield []
    yield [[], []]
    yield [[Fraction(0)] * 3 for _ in range(2)]


def test_integer_rref_matches_fraction_reference():
    for rows in random_rational_matrices(random.Random(11)):
        before = [list(row) for row in rows]
        reduced, pivots = rref(rows)
        assert (reduced, pivots) == fraction_rref_reference(rows)
        assert all(type(x) is Fraction for row in reduced for x in row)
        assert rows == before  # the input is not modified
        assert rank(rows) == len(pivots)
        ncols = len(rows[0]) if rows else 0
        kernel = nullspace(rows, ncols)
        assert len(kernel) == ncols - len(pivots)
        for v in kernel:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


def reference_nullspace(rows, ncols):
    reduced, pivots = fraction_rref_reference(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(ncols)]
        for row, c in zip(reduced, pivots):
            v[c] = -row[free]
        basis.append(v)
    return basis


def test_rank_deficient_modulo_the_prime_falls_back_to_elimination():
    p = multalg.linalg._PRIME
    cases = [
        [[p, 0], [0, 1]],
        [[1, 1], [1, 1 + p]],
        [[Fraction(1, p), 1], [0, 1]],
        [[1, 0], [1, p], [2, p]],  # every 2x2 minor is p or -p
        [[1, 0, 0], [1, p, 2 * p]],  # wider than tall
    ]
    for rows in cases:
        ncols = len(rows[0])
        want = min(len(rows), ncols)
        reduced, pivots = fraction_rref_reference(rows)
        assert multalg.linalg._rank_mod_prime(rows, want) < len(pivots) == want
        assert rref(rows) == (reduced, pivots)
        assert rank(rows) == len(pivots)
        assert nullspace(rows, ncols) == reference_nullspace(rows, ncols)


def test_integer_rref_matches_fraction_reference_modulo_3(monkeypatch):
    # modulo 3 many of the random matrices lose rank, so both the certificate
    # and the exact elimination answer many calls
    calls = {"settled": 0, "eliminated": 0}
    certificate, echelon = multalg.linalg._rank_mod_prime, multalg.linalg._echelon

    def counting_certificate(rows, want):
        got = certificate(rows, want)
        calls["settled"] += got == want
        return got

    def counting_echelon(rows):
        calls["eliminated"] += 1
        return echelon(rows)

    monkeypatch.setattr(multalg.linalg, "_PRIME", 3)
    monkeypatch.setattr(multalg.linalg, "_rank_mod_prime", counting_certificate)
    monkeypatch.setattr(multalg.linalg, "_echelon", counting_echelon)
    test_integer_rref_matches_fraction_reference()
    # 99 and 360 calls; under 2^61 - 1, 237 and 222
    assert calls["settled"] > 50 and calls["eliminated"] > 300


# ---------------------------------------------------------------- quotient


def test_build_quotient_gr21():
    assert build_quotient(gr21_map()).top_degree == 1


@pytest.mark.parametrize("weights", [(1,), (1, 1, 1)])
def test_grading_of_the_wrong_length_is_rejected(weights):
    vs = ("x", "y")
    gb = groebner_basis(Ideal(vs, (P("x^2", vs), P("y^2", vs))))
    with pytest.raises(PolynomialError, match="grading length"):
        FiniteGradedAlgebra(gb, WeightedGrading(weights))


def sparse_normal_form(q, m):
    """{index: coefficient} of the normal form of the monomial m, reduced from scratch."""
    nf = normal_form(Polynomial(q.variables, {m: Fraction(1)}), q.gb)
    return {q.index[e]: c for e, c in nf.terms.items()}


def walked(q, m):
    """{index: coefficient} of the monomial m, read by the walk on the basis's staircase."""
    stairs = q.gb._stairs
    num, den = stairs.coords(stairs.pk.pack(m))
    return {i: Fraction(c, den) for i, c in num.items()}


def test_multiplication_matrices_match_normal_forms():
    for q in reference_algebras():
        n = len(q.variables)
        # products first, on an empty cache, so the walk starts from the top
        for i in range(q.dimension):
            for j in range(i, q.dimension):
                product = mono_mul(q.basis[i], q.basis[j])
                assert walked(q, product) == sparse_normal_form(q, product)
        for v in range(n):
            unit = tuple(int(u == v) for u in range(n))
            for b in q.basis:
                image = mono_mul(b, unit)
                assert walked(q, image) == sparse_normal_form(q, image)


def test_coordinates_of_monomials_past_the_product_width():
    # exponents in the hundreds do not fit the fields that hold a product of
    # two standard monomials: `vector` reads them off the normal form, which
    # moves the basis to a wider packing, while the walk keeps its own
    others = [q for q in reference_algebras() if not isinstance(q.gb.order, WeightedGrevlex)]
    for q in [build_quotient(gr21_map()), *others]:
        n = len(q.variables)
        narrow = q.gb._stairs.pk.bits
        for far in ((300,) * n, tuple(150 * (v + 1) for v in range(n))):
            assert q.vector(far) == sparse_normal_form(q, far)
        assert q.gb._packed[0].bits > narrow == q.gb._stairs.pk.bits
        # the walk still gives every product
        for i in range(q.dimension):
            product = mono_mul(q.basis[i], q.basis[-1])
            assert walked(q, product) == sparse_normal_form(q, product)


def test_coordinates_reject_foreign_monomial():
    # a leading monomial's vector is minus its tail: p1 + q1 is in the
    # ideal, so p1 = -q1 and q1 is basis[1]
    q = build_quotient(gr21_map())
    assert q.vector((1, 0)) == {1: Fraction(-1)}


# ---------------------------------------------------------------- poincare


def test_poincare_of_unit_ideal_is_zero():
    vs = ("x", "y")
    q = FiniteGradedAlgebra(groebner_basis(Ideal(vs, (P("1", vs),))), WeightedGrading.units(2))
    assert q.dimension == 0
    assert poincare_polynomial(q) == UniPoly()


def test_poincare_equals_hilbert_numerator():
    m = gr21_map()
    q = build_quotient(m)
    from multalg.groebner import hilbert_series

    ideal = Ideal(m.variables, m.components, m.grading)
    series = hilbert_series(ideal)
    assert series.is_polynomial()
    assert series.as_polynomial() == poincare_polynomial(q)


# ------------------------------------------------------------------- socle


def fat_point():
    vs = ("x", "y")
    ideal = Ideal(vs, (P("x^2", vs), P("x*y", vs), P("y^2", vs)), WeightedGrading.units(2))
    return FiniteGradedAlgebra(groebner_basis(ideal), WeightedGrading.units(2))


def dense_socle_reference(q):
    """The socle as one stacked nullspace over all multiplication matrices."""
    n = len(q.variables)
    stacked = []
    for v in range(n):
        unit = tuple(int(u == v) for u in range(n))
        images = [q.vector(mono_mul(b, unit)) for b in q.basis]
        # row i of the matrix of x_v: coordinate i of every x_v * b_j
        stacked.extend([image.get(i, Fraction(0)) for image in images] for i in range(q.dimension))
    return nullspace(stacked, q.dimension)


def reference_algebras():
    """Quotients whose socles, products and neighbours the oracles below check."""
    vs = ("x", "y")
    weighted = PolynomialMap.build(
        (P("x^4 + x^2*y + y^2", vs), P("x^2*y - 3*y^2", vs)), WeightedGrading((1, 2))
    )
    algebras = [
        build_quotient(x2_map()),
        build_quotient(gr21_map()),
        fat_point(),
        build_quotient(grassmann_presentation(4, 2).as_map()),
        build_quotient(grassmann_presentation(6, 3).as_map()),
        build_quotient(weighted),
    ]
    rng = random.Random(7)
    for n_vars in (3, 3, 4, 4):
        algebras.append(build_quotient(random_zero_dimensional_map(rng, n_vars, max_degree=4)))
    # cubes plus two dense quadrics: socles in two degrees, with many terms;
    # a Lex basis is not sorted by degree, so its degree blocks interleave
    vs3, units = ("x", "y", "z"), WeightedGrading.units(3)
    quadrics = monomials_of_weighted_degree((1, 1, 1), 2)
    for _ in range(3):
        gens = [P(f"{v}^3", vs3) for v in vs3]
        for _ in range(2):
            gens.append(Polynomial(vs3, {e: rng.choice((-3, -1, 1, 2)) for e in quadrics}))
        ideal = Ideal(vs3, tuple(gens), units)
        for order in (WeightedGrevlex.units(3), Lex()):
            algebras.append(FiniteGradedAlgebra(groebner_basis(ideal, order), units))
    # Lex and elimination orders: lex blocks alone or next to a graded block
    gens = (P("x^2 + y*z", vs3), P("y^2 - 2*x*z", vs3), P("z^3 + x*y*z", vs3))
    for order in (
        EliminationOrder(block=1),
        EliminationOrder(block=2, first=WeightedGrevlex.units(2), rest=Lex()),
    ):
        algebras.append(FiniteGradedAlgebra(groebner_basis(Ideal(vs3, gens, units), order), units))
    ideal = Ideal(vs, weighted.components, weighted.grading)
    for order in (Lex(), EliminationOrder(block=1, first=Lex(), rest=WeightedGrevlex((2,)))):
        algebras.append(FiniteGradedAlgebra(groebner_basis(ideal, order), weighted.grading))
    return algebras


def algebras_with_leading_variables():
    """Every Gr(k,n) with n <= 7, and seeded complete intersections with a
    linear generator: quotients where some variables are leading monomials."""
    algebras = [
        build_quotient(grassmann_presentation(n, k).as_map()) for n in range(2, 8) for k in range(1, n)
    ]
    rng = random.Random(11)
    shapes = (((1, 1, 1), (1, 2, 3)), ((1, 1, 1, 2), (1, 2, 3, 4)), ((1, 1, 1, 1), (1, 1, 3, 3)), ((1, 2, 1), (1, 4, 3)))
    for weights, degrees in shapes * 2:
        algebras.append(complete_intersection(rng, weights, degrees))
    return algebras


def test_graded_socle_matches_dense_reference():
    # the socle multiplies by the standard variables only, the reference by
    # every variable; the second list has variables that are leading monomials
    leading = 0
    for q in [*reference_algebras(), *algebras_with_leading_variables()]:
        n = len(q.variables)
        leading += sum(tuple(int(u == v) for u in range(n)) in q.gb.leading for v in range(n))
        got = [[s.terms.get(b, Fraction(0)) for b in q.basis] for s in socle(q)]
        assert got == dense_socle_reference(q)
    assert leading >= 60
    assert [str(s) for s in socle(fat_point())] == ["y", "x"]


def complete_intersection(rng, weights, degrees):
    """Every monomial of each degree with a nonzero coefficient in -3..3; finite."""
    vs = ("x", "y", "z", "w")[: len(weights)]
    grading = WeightedGrading(weights)
    while True:
        comps = [
            Polynomial(vs, {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in monos})
            for monos in (monomials_of_weighted_degree(weights, d) for d in degrees)
        ]
        try:
            return build_quotient(PolynomialMap.build(comps, grading))
        except multalg.groebner.NotZeroDimensional:
            continue


def test_socle_and_pairing_stay_exact():
    # 0.5 == Fraction(1, 2), so the value tests above would not see a float
    algebras = reference_algebras()
    algebras.append(complete_intersection(random.Random(5), (1, 1, 1, 2), (2, 3, 4, 4)))
    paired = 0
    for q in algebras:
        soc = socle(q)
        assert all(type(c) is Fraction for s in soc for c in s.terms.values())
        if len(soc) == 1:
            rep = pairing_matrices(q)
            entries = [x for p in rep.by_degree for row in p.matrix for x in row]
            assert entries and all(type(x) is Fraction for x in entries)
            paired += 1
    assert algebras[-1].dimension == 48 and paired == 14


def test_deep_staircase_is_walked_without_recursion():
    # x^3000 is 1500 steps above the leading monomial x^1500, more than
    # Python's default recursion limit of 1000 frames
    x = ("x",)
    q = FiniteGradedAlgebra(
        groebner_basis(Ideal(x, (P("x^1500", x),), WeightedGrading.units(1))),
        WeightedGrading.units(1),
    )
    assert q.dimension == 1500
    assert walked(q, (3000,)) == {}
    assert walked(q, (1499,)) == {1499: Fraction(1)}


def test_an_algebra_walks_no_second_staircase(monkeypatch):
    walked_bases = []
    init = multalg.groebner._Staircase.__init__

    def counting_init(self, gb):
        walked_bases.append(gb)
        init(self, gb)

    monkeypatch.setattr(multalg.groebner._Staircase, "__init__", counting_init)
    grading = WeightedGrading.units(2)
    vs = ("p1", "q1")
    ideal = Ideal(vs, (P("p1 + q1", vs), P("p1*q1", vs)), grading)
    # a basis whose staircase was listed first, and a fresh one
    listed, fresh = buchberger(ideal), buchberger(ideal)
    basis = standard_monomials(listed)
    assert walked_bases == [listed]
    q = FiniteGradedAlgebra(listed, grading)
    assert walked_bases == [listed] and list(q.basis) == basis
    FiniteGradedAlgebra(fresh, grading)
    FiniteGradedAlgebra(fresh, grading)
    assert walked_bases == [listed, fresh]
    assert pairing_matrices(q).perfect


def test_long_single_variable_staircase_is_quick():
    # one basis monomial per degree: grouping the basis by degree once keeps
    # the pairing linear in the top degree (about 4 s before, on 8000)
    m = PolynomialMap.build((P("x^8000", ("x",)),), WeightedGrading((1,)))
    started = time.perf_counter()
    report = verify_structure_theorem(m)
    assert time.perf_counter() - started < 1
    assert report.all_true() and report.dimension == 8000


def test_socle_rejects_grading_the_ideal_does_not_respect():
    cases = [
        # x and y are standard, and x * x = y
        (("x^2 - y", "y^2"), (1, 1), None),
        # x is leading and NF(x) = y has degree 1, not 2; y alone is standard
        (("x - y", "y^3"), (2, 1), (1, 0)),
        # x is leading with NF(x) = z of degree 1; the standard z has z * z = y
        (("x - z", "z^2 - y", "y^2"), (1, 1, 1), (1, 0, 0)),
    ]
    for gens, weights, leading in cases:
        vs = ("x", "y", "z")[: len(weights)]
        grading = WeightedGrading(weights)
        ideal = Ideal(vs, tuple(P(g, vs) for g in gens), grading)
        q = FiniteGradedAlgebra(groebner_basis(ideal), grading)
        assert leading is None or leading in q.gb.leading
        with pytest.raises(ValueError, match="not homogeneous"):
            socle(q)


def test_structure_report_computes_each_artefact_once(monkeypatch):
    calls = {"jacobian": 0, "max_cells": 0, "normal_form": 0}
    jacobian, rref_ = multalg.multiplicity.jacobian_determinant, multalg.linalg.rref
    normal_form_ = multalg.groebner.normal_form

    def counting_jacobian(m):
        calls["jacobian"] += 1
        return jacobian(m)

    def measuring_rref(rows):
        cells = len(rows) * (len(rows[0]) if rows else 0)
        calls["max_cells"] = max(calls["max_cells"], cells)
        return rref_(rows)

    def counting_normal_form(p, gb):
        calls["normal_form"] += 1
        return normal_form_(p, gb)

    monkeypatch.setattr(multalg.multiplicity, "jacobian_determinant", counting_jacobian)
    monkeypatch.setattr(multalg.multiplicity, "normal_form", counting_normal_form)
    monkeypatch.setattr(multalg.groebner, "normal_form", counting_normal_form)
    monkeypatch.setattr(multalg.linalg, "rref", measuring_rref)
    vs = ("x", "y", "z", "w")
    components = ("x^3 + y*z*w", "y^3 - x*z^2", "z^3 + 2*x*y*w", "w^3 - x^2*y")
    m = PolynomialMap.build(tuple(P(c, vs) for c in components), WeightedGrading.units(4))
    rep = verify_structure_theorem(m)
    assert rep.dimension == 81 and rep.all_true()
    assert calls["jacobian"] == 1
    assert calls["normal_form"] == 1  # the Jacobian's; products come from neighbours
    # largest degree block: rows 4 * dim Q^4 = 76, columns dim Q^3 = 16
    assert 0 < calls["max_cells"] <= 76 * 16


def dense_jacobian_spans_socle(q):
    """The Jacobian clause as a rank test on dense coordinate rows."""
    soc = socle(q)
    if len(soc) != 1:
        return False
    nf = normal_form(jacobian_determinant(q.source_map), q.gb)
    jac = [nf.terms.get(b, Fraction(0)) for b in q.basis]
    gen = [soc[0].terms.get(b, Fraction(0)) for b in q.basis]
    return any(jac) and rank([jac, gen]) == 1


def test_jacobian_spans_socle_matches_dense_rank_reference():
    for q in reference_algebras():
        if q.source_map is not None:
            assert jacobian_spans_socle(q) == dense_jacobian_spans_socle(q)
    # the basis of (x^3) paired by hand with other maps: 2x has the wrong
    # support, 3x^2 spans the socle, 4x^3 reduces to 0
    x, grading = ("x",), WeightedGrading.units(1)
    gb = groebner_basis(Ideal(x, (P("x^3", x),), grading))
    got = []
    for power in (2, 3, 4):
        source = PolynomialMap.build((P(f"x^{power}", x),), grading)
        q = FiniteGradedAlgebra(gb, grading, source_map=source)
        assert jacobian_spans_socle(q) == dense_jacobian_spans_socle(q)
        got.append(jacobian_spans_socle(q))
    assert got == [False, True, False]


def test_jacobian_reduces_to_socle_generator():
    q = build_quotient(gr21_map())
    jac = jacobian_determinant(q.source_map)
    reduced = normal_form(jac, q.gb)
    # p1 - q1 == -2*q1 modulo the ideal
    assert reduced == P("-2*q1", ("p1", "q1"))


# ----------------------------------------------------------------- pairing


def test_pairing_gr21():
    rep = pairing_matrices(build_quotient(gr21_map()))
    assert rep.perfect
    assert rep.jacobian_normalized
    degrees = sorted(p.degree for p in rep.by_degree)
    assert degrees == [0, 1]
    for p in rep.by_degree:
        assert p.rank == len(p.matrix)


def test_pairing_normalization_sends_jacobian_to_one():
    # the degree-0 block pairs 1 with the socle monomial b_top, so its one
    # entry is ell(b_top); the Jacobian reduces to a multiple of b_top
    checked = 0
    for q in reference_algebras():
        if q.source_map is None:
            continue
        rep = pairing_matrices(q)
        assert rep.jacobian_normalized is True
        ((top, _),) = socle(q)[0].terms.items()
        jac = normal_form(jacobian_determinant(q.source_map), q.gb)
        assert rep.by_degree[0].matrix[0][0] * jac.terms[top] == 1
        checked += 1
    assert checked == 9


def sympy_qq(rows):
    shape = (len(rows), len(rows[0]) if rows else 0)
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in rows], shape, QQ)


def test_report_linear_algebra_matches_sympy():
    # products and neighbours come from normal forms reduced from scratch, and
    # ranks and kernels from sympy over QQ
    rng = random.Random(18)
    algebras = reference_algebras() + [
        complete_intersection(rng, (1, 1, 1), (2, 3, 4)),
        complete_intersection(rng, (1, 1, 1, 2), (2, 3, 4, 4)),
    ]
    paired = 0
    for q in algebras:
        n = len(q.variables)
        kernel = []
        for k in sorted(set(q.degrees)):
            cols = [j for j, d in enumerate(q.degrees) if d == k]
            block = []
            for v in range(n):
                unit = tuple(int(u == v) for u in range(n))
                images = [sparse_normal_form(q, mono_mul(q.basis[j], unit)) for j in cols]
                block.extend([im.get(i, Fraction(0)) for im in images] for i in range(q.dimension))
            for vec in sympy_qq(block).nullspace().to_list():
                full = [QQ(0)] * q.dimension
                for j, x in zip(cols, vec):
                    full[j] = x
                kernel.append(full)
        got = [[s.terms.get(b, Fraction(0)) for b in q.basis] for s in socle(q)]
        span = sympy_qq(got).to_list() + kernel
        assert len(got) == len(kernel) == DomainMatrix(span, (len(span), q.dimension), QQ).rank()
        if len(got) != 1:
            continue
        rep = pairing_matrices(q)
        ((top, c),) = socle(q)[0].terms.items()
        slot, scale = q.index[top], 1 / c
        if rep.jacobian_normalized:
            scale = 1 / normal_form(jacobian_determinant(q.source_map), q.gb).terms[top]
        for block in rep.by_degree:
            rows = [i for i, d in enumerate(q.degrees) if d == block.degree]
            cols = [j for j, d in enumerate(q.degrees) if d == block.complementary_degree]
            ell = [
                [scale * sparse_normal_form(q, mono_mul(b, q.basis[j])).get(slot, 0) for j in cols]
                for b in (q.basis[i] for i in rows)
            ]
            mirror = rep.by_degree[block.complementary_degree].matrix
            assert [list(row) for row in block.matrix] == ell
            assert block.matrix == tuple(tuple(row[c] for row in mirror) for c in range(len(rows)))
            assert block.rank == sympy_qq(block.matrix).rank()
        paired += 1
    assert paired == 15


# ------------------------------------------------------------- equivariant


def test_equivariant_can_be_a_true_series():
    s = equivariant_multiplicity((1, 1), (2,))
    assert isinstance(s, RationalSeries) and not s.is_polynomial()


def test_equivariant_validates_inputs():
    with pytest.raises(ValueError):
        equivariant_multiplicity((0, 1), (1, 2))
    with pytest.raises(ValueError):
        equivariant_multiplicity((1,), (-2,))


@pytest.mark.parametrize(
    "domain, codomain",
    [((1.5,), (3,)), ((1,), (Fraction(3, 1),)), (("2",), (2,)), ((1, 2), (3, 0.5))],
)
def test_equivariant_rejects_non_integer_weights(domain, codomain):
    # int() would truncate (1.5,) to (1,) silently, giving 1 + t + t^2
    with pytest.raises(ValueError, match="must be integers"):
        equivariant_multiplicity(domain, codomain)


def test_equivariant_cap_accepts_its_bound():
    # the largest accepted sum on either side, then one over it
    cap = MAX_EQUIVARIANT_DEGREE
    assert equivariant_multiplicity((cap,), (cap,)) == 1
    assert equivariant_multiplicity((1,), (cap - 1, 1)) == one_minus_power(cap - 1)
    for domain, codomain in [((cap + 1,), (1,)), ((1,), (cap, 1)), ((1,) * 200, (300,) * 200)]:
        with pytest.raises(ValueError, match="over the cap"):
            equivariant_multiplicity(domain, codomain)
    # a structure report reads the series of its own map, past the cap too
    heavy = PolynomialMap.build((P("x", ("x",)),), WeightedGrading((cap + 1,)))
    assert verify_structure_theorem(heavy).equivariant == 1


# ------------------------------------------------------------------ report


def test_structure_report_gr21():
    rep = verify_structure_theorem(gr21_map())
    assert rep.dimension == 2
    d = rep.to_json_dict()
    assert d["all_clauses_true"] is True
    assert d["poincare"] == "1 + t"


def test_structure_report_not_finite_shape():
    vs = ("a0", "a1")
    degenerate = PolynomialMap.build(
        (P("a0^2", vs), P("a0*a1", vs)), WeightedGrading((1, 2))
    )
    rep = verify_structure_theorem(degenerate)
    assert rep.to_json_dict() == {"finite_dimensional": False}


def test_structure_report_clause_names():
    rep = verify_structure_theorem(x2_map())
    assert set(rep.clauses) == {
        "degree_zero_dim1",
        "gorenstein_socle_dim1",
        "socle_in_top_degree",
        "socle_is_jacobian",
        "pairing_perfect",
        "palindromic",
        "monic",
        "nonnegative",
        "poincare_equals_equivariant_multiplicity",
    }


def test_structure_report_is_symmetric_under_k_to_n_minus_k():
    # Gr(k,n) and Gr(n-k,n) present isomorphic algebras; only the names of
    # the socle monomial's variables differ
    for n in range(2, 7):
        reports = {}
        for k in range(1, n):
            report = verify_structure_theorem(grassmann_presentation(n, k).as_map())
            reports[k] = report.to_json_dict()
            reports[k].pop("socle_basis", None)
        for k in range(1, n):
            assert reports[k] == reports[n - k], (n, k)


def test_structure_random_sweep():
    rng = random.Random(42)
    for _ in range(8):
        m = random_zero_dimensional_map(rng, n_vars=rng.randint(1, 3), max_degree=4)
        rep = verify_structure_theorem(m)
        assert rep.finite_dimensional
        assert rep.all_true(), {k: v for k, v in rep.clauses.items() if not v}


def test_random_map_rejects_a_variable_count_out_of_range_before_drawing():
    rng = random.Random(0)
    state = rng.getstate()
    for n_vars in (0, 5, -1):
        with pytest.raises(ValueError, match="n_vars must be between 1 and 4"):
            random_zero_dimensional_map(rng, n_vars)
    assert rng.getstate() == state


# ---------------------------------------------------------------- hitchin


def test_hitchin_base_weights():
    for n in range(1, 7):
        for g in range(2, 6):
            ws = hitchin_base_weights(n, g)
            assert ws == tuple(sorted(ws))
            assert ws.count(1) == g  # only i=1 contributes weight-one terms
            if n >= 2:
                assert ws.count(2) == 3 * (g - 1)


def test_hitchin_cap_accepts_its_bound():
    assert len(hitchin_base_weights(1, MAX_HITCHIN_WEIGHTS)) == MAX_HITCHIN_WEIGHTS
    with pytest.raises(ValueError, match="over the cap"):
        hitchin_base_weights(1, MAX_HITCHIN_WEIGHTS + 1)


def test_hitchin_rejects_small_genus():
    with pytest.raises(ValueError):
        hitchin_base_weights(2, 1)
    with pytest.raises(ValueError):
        hitchin_base_weights(0, 2)
