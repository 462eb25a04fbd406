"""Gaussian binomials and presented Grassmannian cohomology rings.

Grading convention: a class of real cohomological degree 2i gets t-degree
i (Chern-class degree).  Every polynomial below is in that halved grading;
the doubling is deliberate and matches the t-binomial normalization.

The ring H*(Gr(k,n)) is presented on Chern roots of the two tautological
bundles: variables p_1..p_k (weight i for p_i) and q_1..q_{n-k} (weight j
for q_j), with relations the coefficients of x^0..x^{n-1} in

    (x^k + p_1 x^(k-1) + ... + p_k) * (x^(n-k) + q_1 x^(n-k-1) + ... + q_(n-k)) - x^n.

The relations are emitted in ascending weighted degree (degree 1 first).

`closure_vs_grassmann_dimensions` stratifies the dominance closure of a
GL_n weight and attaches these multiplicity polynomials to its strata.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import index

from .groebner import DEFAULT_LIMITS, ReductionLimits, hilbert_series
from .poly import Polynomial
from .rings import PresentedRing
from .series import RationalSeries, UniPoly, _binomial_ratio
from .weights import DominantWeight, fundamental_decomposition, lower_set

__all__ = [
    "gaussian_binomial",
    "grassmann_presentation",
    "DivisorData",
    "grassmann_multiplicity",
    "product_hilbert",
    "StratumReport",
    "ClosureReport",
    "closure_vs_grassmann_dimensions",
]

# Output-degree caps: a larger input is refused before any work.  Through
# the CLI (2-vCPU host, Python 3.11) the largest accepted multiplicity,
# `multiplicity -n 2 -m 2400`, takes 0.56-0.57 s, and the largest accepted
# Gaussian binomial, `gaussian -n 120 -k 60`, takes 0.12-0.13 s (0.01-0.02
# s of it in `gaussian_binomial`); the multiplicity's coefficients grow
# with its degree, so its cap is lower.
MAX_GAUSSIAN_DEGREE = 3600
MAX_MULTIPLICITY_DEGREE = 2400
# Presentation-size cap: n relations of at most min(k, n-k) + 1 terms, each
# an exponent n-tuple, so at most n^2 (min(k, n-k) + 1) exponent entries; a
# larger presentation is refused before any is built.  Through the CLI
# (2-vCPU host, Python 3.11) the largest accepted shapes take 1.8-2.3 s,
# `grassmann -n 2000 -k 1` (8,000,000 entries), and 0.8-1.7 s,
# `grassmann -n 250 -k 125` (7,875,000).
MAX_PRESENTATION_ENTRIES = 8_000_000


def gaussian_binomial(n: int, k: int) -> UniPoly:
    """[n k]_t = prod_{i=1}^{k} (1 - t^(n-i+1)) / (1 - t^i): the factors
    shared by both sides cancel, then one pass over the coefficients per
    binomial factor left.

    Degree k(n-k); value C(n,k) at t=1.  Raises ValueError when the
    degree exceeds MAX_GAUSSIAN_DEGREE.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    degree = k * (n - k)
    if degree > MAX_GAUSSIAN_DEGREE:
        raise ValueError(f"[{n} {k}]_t has degree {degree}, over the cap of {MAX_GAUSSIAN_DEGREE}")
    net = dict.fromkeys(range(n - k + 1, n + 1), 1)  # f -> exponent of 1 - t^f
    for f in range(1, k + 1):
        net[f] = net.get(f, 0) - 1
    return _binomial_ratio(net)


def grassmann_presentation(n: int, k: int) -> PresentedRing:
    """Presented cohomology ring of the Grassmannian of k-planes in n-space.

    Raises ValueError when its n^2 (min(k, n-k) + 1) exponent entries
    exceed MAX_PRESENTATION_ENTRIES.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got n={n}, k={k}")
    entries = n * n * (min(k, n - k) + 1)
    if entries > MAX_PRESENTATION_ENTRIES:
        raise ValueError(
            f"Gr({k},{n}) has {entries} exponent entries, over the cap of {MAX_PRESENTATION_ENTRIES}"
        )
    variables = tuple(f"p{i}" for i in range(1, k + 1)) + tuple(
        f"q{j}" for j in range(1, n - k + 1)
    )
    weights = tuple(range(1, k + 1)) + tuple(range(1, n - k + 1))
    # relation of weighted degree n - s = coefficient of x^s in P(x)Q(x) - x^n,
    # the sum of p_(k-a) * q_(n-k-b) over a + b = s, with p_0 = q_0 = 1
    relations = []
    for s in range(n - 1, -1, -1):
        terms = {}
        for a in range(max(0, s - (n - k)), min(k, s) + 1):  # 0 <= a <= k, 0 <= s - a <= n - k
            b = s - a
            exps = [0] * n
            if a < k:
                exps[k - a - 1] = 1  # p_(k-a)
            if b < n - k:
                exps[n - b - 1] = 1  # q_(n-k-b)
            terms[tuple(exps)] = 1
        relations.append(Polynomial(variables, terms))
    return PresentedRing(variables, weights, tuple(relations), provenance=f"grassmann({n},{k})")


@dataclass(frozen=True)
class DivisorData:
    """Rank n together with point multiplicities m = (m_1, ..., m_(n-1)).

    Only the multiplicities enter the algebra; the underlying points do
    not.  The product formula below additionally assumes the divisor is
    reduced -- that assumption is reported, never verified here.
    """

    n: int
    m: tuple[int, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "n", index(self.n))
            object.__setattr__(self, "m", tuple(map(index, self.m)))
        except TypeError as e:
            raise ValueError(f"rank and multiplicities must be integers: {e}") from None
        if self.n < 1:
            raise ValueError("rank must be positive")
        if len(self.m) != self.n - 1:
            raise ValueError(f"m must have length n-1 = {self.n - 1}, got {len(self.m)}")
        if any(x < 0 for x in self.m):
            raise ValueError("multiplicities must be non-negative")


def grassmann_multiplicity(d: DivisorData) -> UniPoly:
    """prod_i [n i]_t^(m_i): the multiplicity polynomial of the divisor data.

    At t=1 this is prod_i C(n,i)^(m_i), the expected point count.  It is
    one weight ratio: [n i]_t^(m_i) puts m_i on each 1 - t^f with
    n-i < f <= n and -m_i on each with f <= i, so shared factors cancel
    before any pass.  Raises ValueError when its degree exceeds
    MAX_MULTIPLICITY_DEGREE.
    """
    degree = sum(mult * i * (d.n - i) for i, mult in enumerate(d.m, start=1))
    if degree > MAX_MULTIPLICITY_DEGREE:
        raise ValueError(f"the product has degree {degree}, over the cap of {MAX_MULTIPLICITY_DEGREE}")
    net: Counter[int] = Counter()  # f -> exponent of 1 - t^f
    for i, mult in enumerate(d.m, start=1):
        if mult:
            for f in range(1, i + 1):
                net[d.n + 1 - f] += mult
                net[f] -= mult
    return _binomial_ratio(net)


def product_hilbert(
    rings: list[PresentedRing] | tuple[PresentedRing, ...],
    limits: ReductionLimits = DEFAULT_LIMITS,
) -> RationalSeries:
    """Hilbert series of the tensor product: the product of the factors'."""
    out = RationalSeries.from_polynomial(UniPoly.one())
    for ring in rings:
        out = out * hilbert_series(ring.ideal(), ring.grading(), limits)
    return out


@dataclass(frozen=True)
class StratumReport:
    weight: tuple[int, ...]
    alpha: tuple[int, ...]
    status: str  # "multiplicity" | "no_paper_formula"
    polynomial: str | None
    point_count: int | None
    note: str

    def to_json_dict(self) -> dict:
        return {
            "weight": list(self.weight),
            "alpha": list(self.alpha),
            "status": self.status,
            "polynomial": self.polynomial,
            "point_count": self.point_count,
            "note": self.note,
        }


@dataclass(frozen=True)
class ClosureReport:
    mu: tuple[int, ...]
    strata: tuple[StratumReport, ...]

    def to_json_dict(self) -> dict:
        return {"mu": list(self.mu), "strata": [s.to_json_dict() for s in self.strata]}


def closure_vs_grassmann_dimensions(mu: DominantWeight) -> ClosureReport:
    """Stratify the closure of mu and attach multiplicity polynomials.

    Multiplicity-free strata (all fundamental coefficients alpha_1..alpha_(n-1)
    in {0,1}) get the product of Gaussian binomials for their divisor data;
    other strata have no closed formula here and are annotated, including the
    jet-ring pointer when exactly one coefficient exceeds 1.  Raises
    ValueError when the closure has over MAX_STRATA strata
    (`weights.lower_set`).
    """
    n = len(mu)
    strata = []
    for lam in lower_set(mu):
        alpha, _ = fundamental_decomposition(lam)
        inner = alpha[: n - 1]
        if all(a in (0, 1) for a in inner):
            poly = grassmann_multiplicity(DivisorData(n, inner))
            note = "central" if not any(inner) else ""
            strata.append(
                StratumReport(
                    lam.entries, alpha, "multiplicity", str(poly), poly(1), note
                )
            )
        else:
            nonzero = [(i + 1, a) for i, a in enumerate(inner) if a]
            if len(nonzero) == 1:
                k, a = nonzero[0]
                note = f"jet case: order-{a - 1} jets of the Gr({k},{n}) ring"
            else:
                note = ""
            strata.append(StratumReport(lam.entries, alpha, "no_paper_formula", None, None, note))
    return ClosureReport(mu.entries, tuple(strata))
