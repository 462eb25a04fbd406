"""Jet presentations of presented rings.

J_d parametrizes maps from the length-d thickened point: substitute

    x_i  ->  x_i^(0) + x_i^(1) z + ... + x_i^(d-1) z^(d-1)

into every relation, truncate modulo z^d, and take the d coefficient
polynomials of each relation as the new relations.  Truncation order d
means variables are indexed 0..d-1, so J_1 is the ring itself (with
variables renamed x -> x0).

Naming: index j is appended directly to the base name ("a" -> "a0"),
with an underscore separator when the base name already ends in a digit
("p1" -> "p1_0"); collisions are rejected rather than repaired.

Grading assumption: the jet variable x_i^(j) gets weight w_i + j, i.e.
the torus rescales z with weight 1 on top of the base scaling.  Every
jet relation is quasi-homogeneous for that grading, and invariant
reports carry the assumption text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import ClassVar, Mapping

from .groebner import DEFAULT_LIMITS, Ideal, ReductionLimits, hilbert_series
from .poly import NotQuasiHomogeneous, Polynomial, PolynomialError, WeightedGrading, mono_mul
from .rings import PresentedRing
from .series import RationalSeries

__all__ = [
    "GRADING_ASSUMPTION",
    "MAX_JET_VARIABLES",
    "JetPresentation",
    "jet_presentation",
    "apply_substitution",
    "JetInvariants",
    "jet_invariants",
]

GRADING_ASSUMPTION = (
    "weight(x_i^(j)) = weight(x_i) + j "
    "(z carries weight 1 on top of the base scaling)"
)

# A jet ring of more variables (n base variables times order d) is refused
# before any work.  At the cap the order-42 jets of Gr(1,3) build in 0.1 s
# and the order-128 jets of (x^2) in 0.2-0.3 s (2-vCPU host, Python 3.11).
MAX_JET_VARIABLES = 128
# The variable cap does not bound the number of terms ((x^40) at order 40
# has 177,970, and takes 5 s), so the work of a jet ring, counted before any
# polynomial is built (`_jet_work`), is capped too.  The slowest inputs found
# under it print in about 2 s or less through the CLI: the order-35 jets of
# (x^35) (48.7 M units) in 1.4-2.5 s, those of x^20*y^20 at order 20 (46.8 M)
# in 1.3-1.5 s and those of x^3*y^3*z^3 at order 16 (32.9 M) in 1.0-1.1 s
# (2-vCPU host, Python 3.11).
MAX_JET_WORK = 50_000_000


def _jet_names(variables: tuple[str, ...], d: int) -> list[list[str]]:
    out: list[list[str]] = []
    for v in variables:
        sep = "_" if v and v[-1].isdigit() else ""
        out.append([f"{v}{sep}{j}" for j in range(d)])
    flat = [name for group in out for name in group]
    if len(set(flat)) != len(flat):
        dupes = sorted({n for n in flat if flat.count(n) > 1})
        raise PolynomialError(f"jet variable names collide: {dupes}")
    return out


@dataclass(frozen=True)
class JetPresentation:
    base: PresentedRing
    order: int
    ring: PresentedRing


def jet_presentation(base: PresentedRing, d: int) -> JetPresentation:
    """The order-d jet ring of `base` (see module docstring for conventions).

    Each truncated power of a variable's image is listed term by term from
    the multinomial formula, and a product of powers makes only the terms
    below z^d, so the work follows the terms made and not the base
    exponents.  Each term of a relation is the product of its variables'
    powers, scaled once by its coefficient.

    Raises ValueError, before building any polynomial, when d < 1, when
    the jet ring's n*d variables exceed MAX_JET_VARIABLES, or when its work
    (`_jet_work`) exceeds MAX_JET_WORK.
    """
    if d < 1:
        raise ValueError("jet order must be at least 1")
    size = len(base.variables) * d
    if size > MAX_JET_VARIABLES:
        raise ValueError(f"order-{d} jets have {size} variables, over the cap of {MAX_JET_VARIABLES}")
    work = _jet_work(base, d)
    if work > MAX_JET_WORK:
        raise ValueError(f"order-{d} jets take {work} units of work, over the cap of {MAX_JET_WORK}")
    groups = _jet_names(base.variables, d)
    jet_vars = tuple(name for group in groups for name in group)
    jet_weights = tuple(
        w + j for w, group in zip(base.weights, groups) for j in range(d)
    )
    # a truncated series in z is a list of d term dicts, one per level (the
    # power of z), keyed by jet exponents.  A product pairs level i of one
    # factor only with the levels below d - i of the other, so it meets no
    # pair that truncation drops.  Only series in distinct variables are
    # multiplied, so no two pairs of terms meet in one jet monomial
    unit = (0,) * size

    def product(a: list[dict], b: list[dict]) -> list[dict]:
        out: list[dict] = [{} for _ in range(d)]
        for i, terms in enumerate(a):
            for j, other in enumerate(b[: d - i]):
                level = out[i + j]
                for ma, ca in terms.items():
                    for mb, cb in other.items():
                        level[mono_mul(ma, mb)] = ca * cb
        return out

    # truncated powers of the image x_i^(0) + x_i^(1) z + ... + x_i^(d-1) z^(d-1)
    # of base variable i, one per (i, e), shared by every relation.  The z^j
    # coefficient of the e-th has one term per partition of j into at most e
    # parts below d: with a_k parts of size k, and a_0 = e less the number of
    # parts, it is e!/prod(a_k!) * prod (x_i^(k))^(a_k).  A stack (not a
    # recursion) lists them, parts in increasing size; adding a part of size
    # k moves one factor from a_0 to a_k, scaling the coefficient by
    # a_0/(a_k + 1)
    powers: dict[tuple[int, int], list[dict]] = {}

    def power(i: int, e: int) -> list[dict]:
        if (i, e) not in powers:
            out = powers[i, e] = [{} for _ in range(d)]
            stack = [((e,) + unit[1:d], 0, 1, 1)]  # a, level, smallest next part, coefficient
            while stack:
                a, j, low, c = stack.pop()
                out[j][unit[: i * d] + a + unit[i * d + d :]] = c
                if not a[0]:
                    continue
                for k in range(low, d - j):
                    b = (a[0] - 1,) + a[1:k] + (a[k] + 1,) + a[k + 1 :]
                    stack.append((b, j + k, k, c * a[0] // (a[k] + 1)))
        return powers[i, e]

    relations: list[Polynomial] = []
    for rel in base.relations:
        # one term dict per level: the level-j slice is the z^j relation.  A
        # jet monomial's exponents in group i sum to the base exponent of
        # x_i, so distinct base terms never share a jet monomial
        levels: list[dict] = [{} for _ in range(d)]
        for exps, c in rel.terms.items():
            factors = [power(i, e) for i, e in enumerate(exps) if e] or [[{unit: 1}]]
            for level, terms in zip(levels, reduce(product, factors)):
                level.update((m, c * t) for m, t in terms.items())
        relations.extend(Polynomial(jet_vars, terms) for terms in levels)

    ring = PresentedRing(
        jet_vars,
        jet_weights,
        tuple(relations),
        provenance=f"jet({base.provenance}, {d})",
    )
    return JetPresentation(base, d, ring)


def _jet_work(base: PresentedRing, d: int) -> int:
    """The cost of `jet_presentation` at order d, from the input alone: n*d
    exponents for each term that a truncated power or a product of powers
    makes, and twenty times that for each term of the result, which is
    also made a `Polynomial` and printed.  Through the CLI an input of 10 M
    units or more takes about 25-40 ns per unit, a high power of one
    variable the most.

    The coefficient of z^j in (x^(0) + x^(1) z + ... + x^(d-1) z^(d-1))^e
    has one term per partition of j into at most e parts, so the size of
    every level of a truncated power, and of a product of powers in
    distinct variables, is a count of partitions.  Each power is made once
    per (variable, exponent), as `jet_presentation` memoises it.
    """
    # parts[k][j]: the partitions of j < d into at most k parts; k = d - 1
    # stands for every larger k too
    parts = [[1] + [0] * (d - 1)]
    for k in range(1, d):
        row = parts[-1][:]
        for j in range(k, d):
            row[j] += row[j - k]
        parts.append(row)
    made: dict[tuple[int, int], list[int]] = {}  # the powers, each made once
    work = 0
    for rel in base.relations:
        for exps in rel.terms:
            rows = [made.setdefault((i, e), parts[min(e, d - 1)]) for i, e in enumerate(exps) if e]
            levels = rows[0] if rows else [1]  # terms of each level of the product so far
            for row in rows[1:]:
                levels = [sum(levels[a] * row[j - a] for a in range(j + 1)) for j in range(d)]
                work += sum(levels)
            work += 20 * sum(levels)
    work += sum(map(sum, made.values()))
    return work * len(base.variables) * d


def apply_substitution(ideal: Ideal, assignment: Mapping[str, Polynomial]) -> Ideal:
    """Image ideal under a variable substitution, zero images pruned.

    Unassigned variables map to themselves; the target ring is the common
    variable tuple of the provided images (the source ring when the
    assignment is empty or partial within the same ring).
    """
    images = list(assignment.values())
    target = images[0].variables if images else ideal.variables
    for img in images:
        if img.variables != target:
            raise PolynomialError("substitution images live in different rings")
    full: dict[str, Polynomial] = {}
    for v in ideal.variables:
        if v in assignment:
            full[v] = assignment[v]
        else:
            if v not in target:
                raise PolynomialError(
                    f"variable {v!r} has no image and no counterpart in the target ring"
                )
            full[v] = Polynomial.variable(target, v)
    gens = []
    for g in ideal.generators:
        image = g.substitute(full)
        if not image.is_zero():
            gens.append(image)
    return Ideal(target, tuple(gens), None)


@dataclass(frozen=True)
class JetInvariants:
    """A jet ring's Hilbert series; the other invariants are read off it:
    Krull dimension is its pole order at t = 1 (Hilbert-Serre), and the
    ring is finite exactly when it is a polynomial, of dimension N(1)."""

    hilbert: RationalSeries
    series_weights: tuple[int, ...]
    grading_assumption: ClassVar[str] = GRADING_ASSUMPTION

    @property
    def krull_dimension(self) -> int:
        return self.hilbert.pole_order()

    @property
    def finite(self) -> bool:
        return self.hilbert.is_polynomial()

    @property
    def dimension(self) -> int | None:
        return self.hilbert.numerator(1) if self.finite else None

    def to_json_dict(self) -> dict:
        return {
            "krull_dimension": self.krull_dimension,
            "hilbert_series": str(self.hilbert),
            "series_weights": list(self.series_weights),
            "finite": self.finite,
            "dimension": self.dimension,
            "grading_assumption": self.grading_assumption,
        }


def jet_invariants(
    jet: JetPresentation, limits: ReductionLimits = DEFAULT_LIMITS
) -> JetInvariants:
    """Hilbert series of the jet ideal, with the invariants it determines.

    The series counts plain vector-space dimensions (unit weights)
    whenever the jet relations are homogeneous in the ordinary sense --
    every jet of a unit-graded base is.  A base with genuinely weighted
    relations has no unit grading to count by, so the series falls back
    to the level-shifted weights of the presentation itself; either way
    `series_weights` records the grading the series was computed under.

    One Groebner basis answers everything: the one under weighted grevlex
    for the series grading, which the Hilbert numerator needs.  Krull
    dimension, finiteness and vector-space dimension are read off the
    series (see `JetInvariants`), not from further passes over the basis.
    """
    ideal = jet.ring.ideal()
    grading = WeightedGrading.units(len(jet.ring.variables))
    try:
        series = hilbert_series(ideal, grading, limits)
    except NotQuasiHomogeneous:  # raised before any basis is built
        grading = jet.ring.grading()
        series = hilbert_series(ideal, grading, limits)
    return JetInvariants(series, grading.weights)
