"""Buchberger engine over Q with exact arithmetic, plus ideal queries.

Monomials are packed integers.  Inside the kernel (`buchberger`,
`normal_form`, `certify`, `s_polynomial`) and the staircase queries
(`is_zero_dimensional`, `standard_monomials`, the Hilbert numerator behind
`hilbert_series` and `krull_dimension`) an exponent vector is one Python
`int`, laid out so that `int` comparison is the monomial order,
multiplication is `+` and division is `-`.  Exponent tuples are made only
at the edge: a `Polynomial` is packed on the way in, and result
polynomials, `GroebnerBasis.leading` and standard monomials are unpacked
on the way out.

Layout.  An order is cut into blocks of consecutive variables:
`WeightedGrevlex` is one graded block, `Lex` one lex block, and an
`EliminationOrder` the blocks of its `first` order followed by those of
its `rest`, the first block most significant.  Every field is `bits` wide
and its top bit is a guard bit, so a field holds values below
2^(bits-1).
- A lex block has one field per variable, first variable most
  significant, holding e_i.
- A graded block with weights w packs w_i*e_i into field i, last variable
  most significant (its `rest`, S bits), and its weighted degree into a
  field above those; the block is (wdeg << S) - rest.  Higher degree
  wins, and at equal degree the smaller last exponent wins: reverse
  lexicographic order.
Packing is linear, so a lone `WeightedGrevlex` is the int (wdeg << S) - rest
and pack(a) + pack(b) == pack(a*b) for every order.

Divisibility works on the image u = (m + V) ^ V of a monomial, V being the
value bits of the graded blocks' exponent fields.  In the image every field
is nonnegative and grows with the exponents (w_i*e_i, e_i or a block
degree), so lm divides m iff u(m) - u(lm) borrows in no field, that is iff
(u(m) - u(lm)) & guards == 0: the short exponent vectors of Bachmann and
Schoenemann (ISSAC 1998) on the packed monomials of Monagan and Pearce
(CASC 2007).  The field-wise minimum and maximum of two images come from
the same guard-bit subtraction.  The image of lcm(a, b) is the field-wise
maximum with the degree field of each graded block summed again by one
multiplication; `_Packing.lcms` makes those of one monomial with a list
of others in one pass and checks them once.

The Hilbert numerator is Bigatti's pivot recursion (JPAA 1997) on the
images of the leading monomials, over lists of integer coefficients with
no trailing zero.  A leaf is an ideal whose minimal generators have
pairwise disjoint supports: its quotient is a tensor product and N =
prod(1 - t^deg u).  Adding L, which holds 2^(bits-1) - 1 in every exponent
field, sets the guard bit of each field u is nonzero in, so (u + L) &
guards is the support of u, and one OR per generator tests disjointness.
Under the packing's own weights (the criterion's count and
`hilbert_series`) deg u is the degree field, u >> S; under any others
(`krull_dimension`'s unit weights, or a lex or elimination packing) it is
the weighted sum of the exponents, each a field over its packing weight.
Elsewhere N(I) = N(I + (p)) + t^deg(p) N(I : p) for the pivot p = x_v^e,
x_v the variable in most minimal generators and e the lower median of its
positive exponents there.  No generator divides p (a pure power of x_v
among them has the one largest exponent), so both sides shrink the
exponent sum of the generators, and the median halves the steps a long
staircase in x_v would take one at a time.  It rests on two facts.  A
proper divisor has the smaller image, so one pass over the sorted images
keeps the minimal generators.  And u(a*b) = u(a) + u(b), so I + (p)
appends e*u(x_v) and I : p subtracts min(e, e_v)*u(x_v) from each image.

The staircase of a zero-dimensional basis (`_Staircase`) is walked once,
by the first `standard_monomials`, and kept on the basis.  It also gives
the coordinates of any monomial m in the sorted standard monomials b_0 <
b_1 < ..., built from those of smaller monomials, as in the
multiplication-table step of FGLM, so no monomial is reduced from scratch:
  - a standard monomial b_i is the unit vector e_i;
  - a leading monomial lm(g) is -tail(g), since the basis is reduced and
    monic, so the tail of g is already standard;
  - any other m is x_v * m' with x_v dividing m / lm for the first leading
    monomial lm dividing m, and NF(m) = sum_j c_j NF(x_v b_j) where c =
    NF(m').
Every monomial on the right is smaller than m in the basis's order, so
this terminates under any monomial order; it is walked with an explicit
stack.  Coordinates are integer numerators over one denominator,
({index: numerator}, den) with den > 0 and no factor common to den and
every numerator, each new vector combined over the lcm of its parts'
denominators and reduced by one gcd.  They are cached on the staircase,
keyed by the packed monomial, and x_v is the lowest nonzero field of u(m)
- u(lm).  The staircase keeps the packing it was walked at, wide enough
for a product of two standard monomials, whatever width `normal_form`
later moves the basis's divisors to.

The same walk, on a second cache, gives the residues of the coordinates
mod the prime p of `linalg` (read at each call): the image of the exact
walk under Z_(p) -> F_p, whose rank certificates `multiplicity` reads.
Its seeds are those of the exact cache mod p, each tail times the
inverse of its leading coefficient, and a combination sums its parts and
reduces once.  Every denominator of the walk is a product of leading
coefficients, so when p divides none the residues are those of the
exact coordinates; when p divides one, the staircase has no residue
image and callers take the exact path.

Width and overflow.  The field width is derived from the input: the
smallest with 2^(bits-1) above twice the largest field value of any input
monomial, and at least 8 bits.  Every path detects a field that outgrows
it.  Under a lone `WeightedGrevlex` no term of an S-polynomial or of its
reduction has a higher weighted degree than the pair's lcm (in
`normal_form`, than a term of the input), and no field exceeds the degree,
so the degree field is checked once, when a pair's lcm is made.  Under
`Lex` and elimination orders reduction can raise exponents, so products
are checked: each divisor keeps its `reach`, the field-wise maximum of its
terms' images less the image of its leading monomial, and the products a
reduction step on the term m makes have images at most u(m) + reach
(u(lcm) + reach for an S-polynomial), which must leave every guard bit
clear.  On overflow the call runs again at double width, so results are
those of unbounded exponents.

The coefficients are integers.  Inside `buchberger` every element is a
primitive integer term dict with a positive leading coefficient, and the
S-polynomial of f and g, with leading coefficients a and b, is
(b/d)*x^alpha*f - (a/d)*x^beta*g for d = gcd(a, b).  Division is
fraction-free: a term c*m meets its first divisor g, with leading
coefficient a, by scaling the work and the remainder by a/gcd(a, c) and
subtracting (c/gcd(a, c))*(m/lm)*g.  Every intermediate is then a positive
multiple of the one that division over Q gives, so leading monomials,
divisor choices and processed pairs are those of a `Fraction` kernel; each
remainder is made primitive once (`linalg.primitive`).  `Fraction`s are
made only at the API edge: when the reduced basis is made monic, on the
first read of `GroebnerBasis.basis`, and when `normal_form` divides its
integer remainder by the product of its scale factors.

The construction uses the two classical pair-discarding criteria (coprime
leading monomials, and the chain criterion in its order-safe form: a pair
(i, j) is dropped only when some k has lm_k dividing lcm(lm_i, lm_j) and
*both* pairs (i, k) and (j, k) have already left the queue).  Pair
selection is the normal strategy: smallest lcm in the monomial order.
Pairs wait on a heap of (packed lcm, i, j), which pops in the order a
`min` over the pending pairs by that key would give; a set of the pending
(i, j) answers the chain criterion's membership tests, and a pair leaves
both when it is popped.

A third criterion is Traverso's Hilbert-driven one (J. Symbolic Comput. 22,
1996).  It runs when the order is a lone `WeightedGrevlex` and the input is
n forms in n variables whose degrees d and the weights w make H =
prod(1 - t^d) / prod(1 - t^w) a polynomial with nonnegative coefficients:
the Hilbert series of R/I if the forms are a complete intersection, which
is the equivariant multiplicity that
`multiplicity.equivariant_multiplicity` computes.  Homogeneous pairs pop in
order of degree, and since G lies in I, R/<LT(G)> has at least HF(R/I, d)
monomials of each degree d.  The loop keeps the Hilbert numerator of the
leading monomials (above) less prod(1 - t^d), the numerator of H, and
updates it for each new leading monomial u by N(J + (u)) = N(J) - t^deg(u)
N(J : u), the colon ideal being generated by the quotients lcm(lm_k, u)/u
that the new pairs' lcms give.  Both series have the denominator
prod(1 - t^w), whose expansion starts at 1, so they agree below d iff the
numerators do, and then the Hilbert functions differ at d by the
numerators' coefficient there.  A pair whose degree has no standard
monomial more than H allows is deferred: were I a complete intersection,
<LT(G)>_d would already be in(I)_d and the pair would reduce to zero.  A
deferred pair stays pending, so the chain criterion never counts on it.
Exactness rests on two checks.  When a pair of a higher degree comes up,
every lower degree is finished, and under the hypothesis it matches H; one
that differs disproves it, the criterion turns off and the deferred pairs
go back on the heap.  And the loop stops as soon as the Hilbert series of
R/<LT(G)> is H, a polynomial: the staircase is finite, of size H(1) =
prod d / prod w.  R/I is then Artinian, so the n forms are a regular
sequence, dim R/I = H(1), and the staircase of in(I), inside that of
<LT(G)> and of the same size, equals it: in(I) = <LT(G)> and G is a
Groebner basis, whatever pairs are still queued or deferred.  The count
is checked after each new leading monomial, the only step that changes
it.  A complete count leaves every degree full, so no pair left would be
reduced: stopping changes neither the processed pairs nor the basis.  A
count already complete on the input needs no check: R/<LT(G)> is then
finite, so the n leading monomials are pure powers of the n distinct
variables, pairwise coprime, and every pair falls to the coprime
criterion before any is deferred.  So when only deferred pairs are left
the count is incomplete, which disproves the hypothesis: the deferred
pairs go back and the loop goes on without the criterion.  Reduced bases
are unique, so every result is the one the loop gives without it.  The
count costs one Hilbert numerator of a colon ideal per leading monomial,
so it grows with the basis, not with H(1).  The colon's generators are
the images of the new pairs' lcms, which the loop makes anyway, less u.
Once minimalized they usually have disjoint supports (in all 297 counts
that `multalg analyze` makes on Gr(k, n) for n <= 7 and on Gr(4, 8)), so
the numerator is one leaf: a sort, a divisibility pass, one OR per
generator and a product of binomials.

Every run is bounded by an explicit cap on processed S-pair reductions;
exceeding it raises ResourceLimitExceeded rather than returning anything.
`certify` recomputes every S-polynomial of a finished basis with no
criteria applied, as an independent correctness pass.

Reduced bases are unique for a fixed monomial order, so ideal equality is
literal equality of reduced bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from heapq import heapify, heappop, heappush
from itertools import zip_longest
from math import gcd, lcm
from operator import mul, or_
from typing import Callable, Iterable, Mapping, Sequence

from . import linalg
from .linalg import primitive
from .orders import EliminationOrder, Lex, MonomialOrder, WeightedGrevlex
from .poly import (
    Exponents,
    NotQuasiHomogeneous,
    Polynomial,
    PolynomialError,
    WeightedGrading,
    quasi_homogeneity_witness,
)
from .series import RationalSeries, UniPoly, _binomial_product, weight_denominator

IntTerms = dict[int, int]
Coords = tuple[IntTerms, int]  # ({index: numerator}, den) on a staircase

__all__ = [
    "GroebnerError",
    "ResourceLimitExceeded",
    "CertificationError",
    "NotZeroDimensional",
    "ReductionLimits",
    "DEFAULT_LIMITS",
    "Ideal",
    "GroebnerBasis",
    "leading_exponents",
    "s_polynomial",
    "buchberger",
    "groebner_basis",
    "normal_form",
    "certify",
    "is_zero_dimensional",
    "standard_monomials",
    "hilbert_series",
    "krull_dimension",
    "ideal_intersection",
    "ideal_product",
    "ideal_equal",
    "clear_cache",
]


class GroebnerError(Exception):
    pass


class ResourceLimitExceeded(GroebnerError):
    """The pair-reduction cap was hit; no basis is returned."""

    def __init__(self, cap: int, context: str = "buchberger"):
        self.cap = cap
        self.context = context
        super().__init__(f"{context}: exceeded the cap of {cap} pair reductions")


class CertificationError(GroebnerError):
    """An S-polynomial of a claimed basis failed to reduce to zero."""

    def __init__(self, detail: str, witness: Polynomial):
        self.witness = witness
        super().__init__(detail)


class NotZeroDimensional(GroebnerError):
    """Raised by staircase queries on a positive-dimensional ideal."""

    def __init__(self, basis: "GroebnerBasis"):
        self.basis = basis
        super().__init__("ideal is not zero-dimensional; offending basis attached")


@dataclass(frozen=True)
class ReductionLimits:
    """Explicit resource cap: processed S-pair reductions per run."""

    max_pair_reductions: int = 500_000


DEFAULT_LIMITS = ReductionLimits()


# ---------------------------------------------------------------------------
# packed monomials


class _Overflow(Exception):
    """A field outgrew the packing of `bits`; the caller runs again at double width."""

    def __init__(self, bits: int):
        self.bits = bits


def _blocks(order: MonomialOrder, start: int, stop: int):
    """(weights, or None for lex, start, stop) of each block, most significant first."""
    if isinstance(order, WeightedGrevlex):
        if len(order.weights) != stop - start:
            raise PolynomialError(f"{order} does not weight {stop - start} variables")
        if stop > start:
            yield order.weights, start, stop
    elif isinstance(order, Lex):
        if stop > start:
            yield None, start, stop
    elif isinstance(order, EliminationOrder):
        cut = min(start + order.block, stop)
        yield from _blocks(order.first, start, cut)
        yield from _blocks(order.rest, cut, stop)
    else:
        raise TypeError(f"no packed form for the monomial order {order!r}")


@lru_cache(maxsize=64)
def _layout(order: MonomialOrder, n: int) -> tuple:
    return tuple(_blocks(order, 0, n))


def _width(order: MonomialOrder, n: int, monomials: Iterable[Exponents]) -> int:
    """The field width these exponent tuples start at (see the module docstring)."""
    blocks = _layout(order, n)
    need = 0
    for e in monomials:
        for weights, start, stop in blocks:
            part = e[start:stop]
            v = sum(map(mul, part, weights)) if weights else max(part)
            if v > need:
                need = v
    return max(8, (2 * need).bit_length() + 1)


class _Packing:
    """One order's packed monomials on n variables at one field width."""

    def __init__(self, blocks: tuple, n: int, bits: int):
        half = 1 << (bits - 1)
        self.bits = bits
        self.graded = len(blocks) == 1 and blocks[0][0] is not None
        self.units = [0] * n  # packed x_i
        self.cells: list[tuple[int, int]] = [(0, 1)] * n  # (bit position, weight) of x_i
        self.offset = 0  # V: value bits of the graded exponent fields
        self.lows = 0  # half - 1 in every exponent field (see `_monomial_numerator`)
        self.guards = 0
        self.mask = (1 << bits) - 1
        self.degrees: list[tuple[int, int, int, int]] = []
        at = 0
        for weights, start, stop in reversed(blocks):
            size = stop - start
            if weights is None:
                for j in range(size):
                    pos = at + bits * (size - 1 - j)
                    self.units[start + j] = 1 << pos
                    self.cells[start + j] = (pos, 1)
                    self.lows |= (half - 1) << pos
                    self.guards |= half << pos
            else:
                top = at + bits * size
                for j, w in enumerate(weights):
                    pos = at + bits * j
                    self.units[start + j] = (w << top) - (w << pos)
                    self.cells[start + j] = (pos, w)
                    self.offset |= (half - 1) << pos
                    self.lows |= (half - 1) << pos
                    self.guards |= half << pos
                self.guards |= half << top
                ones = sum(1 << (bits * j) for j in range(size))
                # (exponent-field mask, its row of ones, shift to the sum, degree field)
                self.degrees.append(((1 << top) - (1 << at), ones, top - bits, top))
                size += 1
            at += bits * size

    def pack(self, e: Exponents) -> int:
        return sum(map(mul, e, self.units))

    def image(self, m: int) -> int:
        """Every field nonnegative and growing with the exponents (see the module docstring)."""
        return (m + self.offset) ^ self.offset

    def unpack(self, m: int) -> Exponents:
        u = self.image(m)
        mask = self.mask
        return tuple([((u >> pos) & mask) // w for pos, w in self.cells])

    def fieldmin(self, x: int, y: int) -> int:
        """Field-wise minimum of two images."""
        guards = self.guards
        ge = ((x | guards) - y) & guards  # guard bits of the fields where x >= y
        mask = ge - (ge >> (self.bits - 1))
        return (y & mask) | (x & ~mask)

    def lcms(self, xs: Iterable[int], y: int) -> list[int]:
        """The images of the lcms of the monomial with image y and each one
        with an image in xs, all in one call; checks their degree fields."""
        guards, mask, high = self.guards, self.mask, self.bits - 1
        out = []
        for x in xs:
            ge = ((x | guards) - y) & guards  # guard bits of the fields where x >= y
            ge -= ge >> high
            out.append((x & ge) | (y & ~ge))  # the field-wise maximum
        # a block's degree field is the sum of its exponent fields
        for fields, ones, shift, top in self.degrees:
            clear = ~(mask << top)
            out = [(u & clear) | ((u & fields) * ones >> shift & mask) << top for u in out]
        if reduce(or_, out, 0) & guards:
            raise _Overflow(self.bits)
        return out

    def lcm(self, x: int, y: int) -> int:
        """Packed lcm of the monomials with images x and y; checks its degree fields."""
        return (self.lcms((x,), y)[0] ^ self.offset) - self.offset

    def reach(self, terms: Iterable[int], lm_image: int) -> int:
        """Field-wise maximum of the terms' images, less the leading one's.

        Graded orders check degrees at lcm time instead and keep 0.
        """
        if self.graded:
            return 0
        top = 0
        for e in terms:
            u = self.image(e)
            top += u - self.fieldmin(top, u)
        return top - lm_image


@lru_cache(maxsize=64)
def _packing(order: MonomialOrder, n: int, bits: int) -> _Packing:
    return _Packing(_layout(order, n), n, bits)


def _widening(bits: int, attempt: Callable[[int], object]):
    """attempt(bits), run again at twice the width it used after each overflow."""
    while True:
        try:
            return attempt(bits)
        except _Overflow as full:
            bits = 2 * full.bits


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    """Finite generator list over a fixed variable tuple.

    Zero generators are rejected; the empty list is the zero ideal.
    An optional grading travels with the ideal so graded queries
    (Hilbert series, canonical orders) know the intended weights.
    """

    variables: tuple[str, ...]
    generators: tuple[Polynomial, ...]
    grading: WeightedGrading | None = None

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if not isinstance(g, Polynomial):
                raise PolynomialError(f"ideal generator {g!r} is not a Polynomial")
            if g.variables != self.variables:
                raise PolynomialError(
                    f"generator over {g.variables} in ideal over {self.variables}"
                )
            if g.is_zero():
                raise PolynomialError("zero polynomial cannot be an ideal generator")
        if self.grading is not None and len(self.grading.weights) != len(self.variables):
            raise PolynomialError("grading length does not match the variable count")

    def is_zero(self) -> bool:
        return not self.generators

    def default_order(self) -> MonomialOrder:
        if self.grading is not None:
            return WeightedGrevlex(self.grading.weights)
        return WeightedGrevlex.units(len(self.variables))


class GroebnerBasis:
    """Reduced basis: monic, mutually irreducible, sorted by leading monomial.

    The packed divisors (`_packed`: packing, leading monomials, their
    images, primitive integer elements, reaches) are made once, on first
    use or by `buchberger`, and the staircase (`_stairs`) by the first
    `standard_monomials`; neither takes part in equality or hashing.  A
    basis from `buchberger` starts with the packed elements only: `basis`
    divides each primitive element by its leading coefficient on first
    read, so callers that only reduce, walk the staircase or count never
    make its `Fraction`s.
    """

    __slots__ = ("variables", "order", "_basis", "leading", "source", "_packed", "_stairs")

    def __init__(
        self,
        variables: tuple[str, ...],
        order: MonomialOrder,
        basis: tuple[Polynomial, ...],
        source: tuple[Polynomial, ...] | None = None,
    ):
        if any(p.variables != variables for p in (*basis, *(source or ()))):
            raise PolynomialError(f"basis or source polynomial not over {variables}")
        leading = tuple(leading_exponents(g, order) for g in basis)
        self._set(variables, order, basis, leading, source, None)

    def _set(self, variables, order, basis, leading, source, packed) -> None:
        for name, value in zip(
            self.__slots__, (variables, order, basis, leading, source, packed, None)
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GroebnerBasis is immutable")

    @property
    def basis(self) -> tuple[Polynomial, ...]:
        """The monic elements, made from the packed primitive ones on first read."""
        got = self._basis
        if got is None:
            pk, lms, _, polys, _ = self._packed
            got = tuple(_from_int(pk, self.variables, g, g[lm]) for lm, g in zip(lms, polys))
            object.__setattr__(self, "_basis", got)
        return got

    def __len__(self) -> int:
        return len(self.leading)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroebnerBasis)
            and self.variables == other.variables
            and self.order == other.order
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.order, self.basis))

    def __repr__(self) -> str:
        return f"GroebnerBasis({len(self.leading)} elements over {self.variables})"


def leading_exponents(p: Polynomial, order: MonomialOrder) -> Exponents:
    if p.is_zero():
        raise PolynomialError("the zero polynomial has no leading monomial")
    return max(p.terms, key=order.key)


def _int_terms(terms: Mapping[int, Fraction | int], lm: int) -> IntTerms:
    """The primitive integer multiple of `terms` whose coefficient at `lm` is positive."""
    coeffs = primitive(list(terms.values()))
    if terms[lm] < 0:
        coeffs = [-c for c in coeffs]
    return dict(zip(terms, coeffs))


def _pack_terms(pk: _Packing, p: Polynomial) -> dict[int, Fraction]:
    pack = pk.pack
    return {pack(e): c for e, c in p.terms.items()}


def _from_int(
    pk: _Packing, variables: tuple[str, ...], terms: IntTerms, denominator: int
) -> Polynomial:
    unpack = pk.unpack
    return Polynomial(variables, {unpack(e): Fraction(c, denominator) for e, c in terms.items()})


def _elements(pk: _Packing, polys: Iterable[Polynomial]) -> tuple[list, list, list, list]:
    """Leading monomials, their images, primitive integer elements and reaches."""
    lms, images, elements, reach = [], [], [], []
    for p in polys:
        terms = _pack_terms(pk, p)
        lm = max(terms)
        u = pk.image(lm)
        lms.append(lm)
        images.append(u)
        elements.append(_int_terms(terms, lm))
        reach.append(pk.reach(terms, u))
    return lms, images, elements, reach


def _divisors(gb: GroebnerBasis, bits: int) -> tuple:
    """The basis packed at `bits` or wider: (packing, lms, images, elements, reaches)."""
    got = gb._packed
    if got is None or got[0].bits < bits:
        n = len(gb.variables)
        bits = max(bits, _width(gb.order, n, (e for g in gb.basis for e in g.terms)))
        pk = _packing(gb.order, n, bits)
        got = (pk, *_elements(pk, gb.basis))
        object.__setattr__(gb, "_packed", got)
    return got


def _s_terms(
    pk: _Packing, f: IntTerms, lmf: int, reachf: int, g: IntTerms, lmg: int, reachg: int, big: int
) -> IntTerms:
    """lcm(a, b) times the S-polynomial of f and g, a and b their leading
    coefficients; `big` is the packed lcm of their leading monomials."""
    u = pk.image(big)
    if not pk.graded and ((reachf + u) | (reachg + u)) & pk.guards:
        raise _Overflow(pk.bits)
    a, b = f[lmf], g[lmg]
    d = gcd(a, b)
    sf, sg = b // d, a // d
    shift = big - lmf
    out = {e + shift: c * sf for e, c in f.items()}
    shift = big - lmg
    for e, c in g.items():
        e += shift
        s = out.get(e, 0) - c * sg
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    if f.is_zero() or g.is_zero():
        raise PolynomialError("the zero polynomial has no leading monomial")
    n = len(f.variables)

    def attempt(bits: int) -> Polynomial:
        pk = _packing(order, n, bits)
        (lmf, lmg), (uf, ug), (fi, gi), (rf, rg) = _elements(pk, (f, g))
        s = _s_terms(pk, fi, lmf, rf, gi, lmg, rg, pk.lcm(uf, ug))
        return _from_int(pk, f.variables, s, lcm(fi[lmf], gi[lmg]))

    return _widening(_width(order, n, [*f.terms, *g.terms]), attempt)


def _nf_terms(
    work: IntTerms,
    lms: Sequence[int],
    images: Sequence[int],
    polys: Sequence[IntTerms],
    reach: Sequence[int],
    pk: _Packing,
) -> tuple[IntTerms, int]:
    """Fraction-free full remainder of division by packed divisors; divisor = first match.

    Every divisor has a positive leading coefficient.  `work` is consumed.
    Returns (rem, scale): rem is scale times the remainder that division
    over Q gives, and scale > 0 is the product of the step factors.  The
    terms of rem come in descending order, so its first key is its leading
    monomial.
    """
    rem: IntTerms = {}
    scale = 1
    offset, guards = pk.offset, pk.guards
    check = 0 if pk.graded else guards
    while work:
        m = max(work)
        c = work.pop(m)
        t = (m + offset) ^ offset
        for u in images:
            if not (t - u) & guards:
                break
        else:
            rem[m] = c
            continue
        k = images.index(u)  # the first divisor with this image divides m
        if (reach[k] + t) & check:
            raise _Overflow(pk.bits)
        g, lm = polys[k], lms[k]
        # a*work - c*(m/lm)*g over Q becomes (a/d)*work - (c/d)*(m/lm)*g
        a = g[lm]
        d = gcd(a, c)
        if d != a:
            step = a // d
            scale *= step
            work = {e: v * step for e, v in work.items()}
            rem = {e: v * step for e, v in rem.items()}
        q = c // d
        shift = m - lm
        for e, cg in g.items():
            if e == lm:
                continue
            e += shift
            s = work.get(e, 0) - q * cg
            if s:
                work[e] = s
            else:
                work.pop(e, None)
    return rem, scale


def _reduce(p: Polynomial, pk: _Packing, lms, images, polys, reach) -> Polynomial:
    """The exact remainder over Q of p by packed integer divisors."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    work = {e: c.numerator * (den // c.denominator) for e, c in _pack_terms(pk, p).items()}
    rem, scale = _nf_terms(work, lms, images, polys, reach, pk)
    return _from_int(pk, p.variables, rem, den * scale)


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo the (reduced) basis."""
    if p.variables != gb.variables:
        raise PolynomialError("polynomial and basis live over different variables")
    width = _width(gb.order, len(p.variables), p.terms)
    return _widening(width, lambda bits: _reduce(p, *_divisors(gb, bits)))


# ---------------------------------------------------------------------------


def buchberger(
    ideal: Ideal,
    order: MonomialOrder | None = None,
    limits: ReductionLimits = DEFAULT_LIMITS,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order."""
    if order is None:
        order = ideal.default_order()
    n = len(ideal.variables)
    width = _width(order, n, (e for g in ideal.generators for e in g.terms))
    return _widening(
        width, lambda bits: _buchberger(ideal, _packing(order, n, bits), order, limits)
    )


class _HilbertCount:
    """The count behind the Hilbert-driven criterion (see the module
    docstring): the Hilbert numerator of the leading monomials found so far,
    less that of the complete intersection a square system of forms would
    be, kept up to date one leading monomial at a time."""

    def __init__(self, pk: _Packing, target: tuple[int, ...], images: Sequence[int]):
        self.pk = pk
        self.shift = pk.degrees[0][3]  # u >> shift is the degree of the image u
        got = _monomial_numerator(pk, images)
        self.diff = [a - b for a, b in zip_longest(got, target, fillvalue=0)]
        self.degree = -1  # the degree under way

    def start(self, d: int) -> bool:
        """Take up degree d; whether every degree below it agrees with H."""
        self.degree = d
        return not any(self.diff[:d])

    def full(self) -> bool:
        """Whether the degree under way is down to H's count, so that no pair
        of it can give a new leading monomial were I a complete intersection."""
        d = self.degree
        return d >= len(self.diff) or not self.diff[d]

    def add(self, u: int, lcms: Sequence[int]) -> None:
        """A new leading monomial u, given the images of its lcms with the
        ones before it: N(J + (u)) = N(J) - t^deg(u) N(J : u), the colon
        ideal generated by the quotients lcm / u."""
        d = u >> self.shift
        colon = _monomial_numerator(self.pk, [m - u for m in lcms])
        diff = self.diff
        diff.extend([0] * (d + len(colon) - len(diff)))
        for k, c in enumerate(colon, d):
            diff[k] -= c

    def complete(self) -> bool:
        """Whether the Hilbert series of R/<LT(G)> is H itself."""
        return not any(self.diff)


@lru_cache(maxsize=64)
def _weight_ratio(degrees: tuple[int, ...], weights: tuple[int, ...]) -> tuple[int, ...] | None:
    """The coefficients of prod(1 - t^d) when prod(1 - t^d) / prod(1 - t^w),
    the Hilbert series of a complete intersection of forms of these degrees,
    is a polynomial with nonnegative coefficients; otherwise None."""
    h = RationalSeries.from_weight_ratio(degrees, weights)
    if h.is_polynomial() and h.numerator.nonnegative():
        return tuple(_binomial_product(degrees))
    return None


def _hilbert_count(
    pk: _Packing, order: MonomialOrder, elements: Sequence[IntTerms], images: Sequence[int]
) -> _HilbertCount | None:
    """The count of the Hilbert-driven criterion, or None where it does not
    apply: it needs a lone `WeightedGrevlex`, as many generators as
    variables (two or more, so that there are pairs), each homogeneous of
    positive degree under its weights, and a weight ratio that is a
    polynomial with nonnegative coefficients."""
    if not isinstance(order, WeightedGrevlex) or not 2 <= len(elements) == len(order.weights):
        return None
    offset, shift = pk.offset, pk.degrees[0][3]
    degrees = []
    for terms in elements:
        found = {((m + offset) ^ offset) >> shift for m in terms}
        if len(found) != 1 or 0 in found:
            return None
        degrees.append(found.pop())
    target = _weight_ratio(tuple(degrees), order.weights)
    return None if target is None else _HilbertCount(pk, target, images)


def _buchberger(
    ideal: Ideal, pk: _Packing, order: MonomialOrder, limits: ReductionLimits
) -> GroebnerBasis:
    offset, guards = pk.offset, pk.guards
    lms, images, work, reach = _elements(pk, ideal.generators)

    queue = [
        ((v ^ offset) - offset, i, j)
        for j, u in enumerate(images)
        for i, v in enumerate(pk.lcms(images[:j], u))
    ]
    pending = {(i, j) for _, i, j in queue}
    heapify(queue)

    count = _hilbert_count(pk, order, work, images)
    held: list[tuple[int, int, int]] = []  # deferred pairs; they stay pending
    processed = 0
    while queue or held:
        if not queue:  # only deferred pairs are left, so the count is incomplete
            # and the complete intersection is disproved: the deferred pairs go back
            count, queue, held = None, held, []
            heapify(queue)
        big, i, j = heappop(queue)
        # coprime criterion
        if big == lms[i] + lms[j]:
            pending.remove((i, j))
            continue
        ub = (big + offset) ^ offset
        # Hilbert-driven criterion
        if count is not None:
            d = ub >> count.shift
            if d != count.degree and not count.start(d):
                # a finished degree disproves the complete intersection
                count, queue, held = None, queue + held, []
                heapify(queue)
            elif count.full():
                held.append((big, i, j))  # deferred: it stays pending
                continue
        pending.remove((i, j))
        # chain criterion (order-safe form)
        skip = False
        for k, u in enumerate(images):
            if (ub - u) & guards or k == i or k == j:
                continue
            if (min(i, k), max(i, k)) in pending:
                continue
            if (min(j, k), max(j, k)) in pending:
                continue
            skip = True
            break
        if skip:
            continue
        processed += 1
        if processed > limits.max_pair_reductions:
            raise ResourceLimitExceeded(limits.max_pair_reductions)
        s = _s_terms(pk, work[i], lms[i], reach[i], work[j], lms[j], reach[j], big)
        r, _ = _nf_terms(s, lms, images, work, reach, pk)
        if not r:
            continue
        lm = next(iter(r))
        u = pk.image(lm)
        lcms = pk.lcms(images, u)  # with every earlier element
        t = len(work)
        work.append(_int_terms(r, lm))
        lms.append(lm)
        images.append(u)
        reach.append(pk.reach(r, u))
        if count is not None:
            count.add(u, lcms)
            if count.complete():
                break  # the basis is complete, whatever is still queued
        for i2, v in enumerate(lcms):
            pending.add((i2, t))
            heappush(queue, ((v ^ offset) - offset, i2, t))

    return _reduce_basis(work, lms, images, reach, pk, ideal, order)


def _reduce_basis(
    work: list[IntTerms],
    lms: list[int],
    images: list[int],
    reach: list[int],
    pk: _Packing,
    ideal: Ideal,
    order: MonomialOrder,
) -> GroebnerBasis:
    """Minimal and tail-reduced, sorted by leading monomial; `basis` makes it monic."""
    guards = pk.guards
    kept: list[int] = []
    for i in sorted(range(len(work)), key=lms.__getitem__):
        if any(not (images[i] - images[k]) & guards for k in kept):
            continue
        kept.append(i)
    lms = [lms[i] for i in kept]
    images = [images[i] for i in kept]
    polys = [work[i] for i in kept]
    reach = [reach[i] for i in kept]
    # tail-reduce each element against the others; a kept leading monomial
    # divides no other, so it stays leading.  The loop reduced each element
    # it made by every divisor made before it, so such an element changes
    # only where a later one divides one of its terms, which needs an image
    # no larger than the term's
    inputs, offset = len(ideal.generators), pk.offset
    for i, lm in enumerate(lms):
        if kept[i] >= inputs:
            terms = [(m + offset) ^ offset for m in polys[i]]
            top = max(terms)
            later = [u for u, k in zip(images, kept) if k > kept[i] and u <= top]
            if all((t - u) & guards for u in later for t in terms):
                continue
        others = [seq[:i] + seq[i + 1 :] for seq in (lms, images, polys, reach)]
        r, _ = _nf_terms(dict(polys[i]), *others, pk)
        polys[i] = _int_terms(r, lm)
        reach[i] = pk.reach(r, images[i])
    gb = GroebnerBasis.__new__(GroebnerBasis)
    leading = tuple(pk.unpack(lm) for lm in lms)
    packed = (pk, lms, images, polys, reach)
    gb._set(ideal.variables, order, None, leading, ideal.generators, packed)  # monic on first read
    return gb


@lru_cache(maxsize=256)
def _cached_basis(
    variables: tuple[str, ...], generators: tuple[Polynomial, ...], order: MonomialOrder, limits: ReductionLimits
) -> GroebnerBasis:
    # keyed without the grading, which `buchberger` reads only to pick a
    # default order, so ideals that differ only there share one basis
    return buchberger(Ideal(variables, generators), order, limits)


def groebner_basis(
    ideal: Ideal,
    order: MonomialOrder | None = None,
    limits: ReductionLimits = DEFAULT_LIMITS,
) -> GroebnerBasis:
    """Cached front end to `buchberger` (ideals and orders are value types)."""
    if order is None:
        order = ideal.default_order()
    return _cached_basis(ideal.variables, ideal.generators, order, limits)


def clear_cache() -> None:
    _cached_basis.cache_clear()


def certify(gb: GroebnerBasis, limits: ReductionLimits = DEFAULT_LIMITS) -> bool:
    """Independent pass: reduce every S-polynomial, no pair criteria.

    Also re-reduces the source generators when the basis remembers them.
    Returns True or raises CertificationError with the nonzero witness.
    """
    sources = gb.source or ()
    n = len(gb.variables)
    width = _width(gb.order, n, (e for g in sources for e in g.terms))
    return _widening(width, lambda bits: _certify(gb, sources, limits, *_divisors(gb, bits)))


def _certify(gb, sources, limits, pk, lms, images, polys, reach) -> bool:
    budget = limits.max_pair_reductions
    count = 0
    for j in range(len(polys)):
        for i in range(j):
            count += 1
            if count > budget:
                raise ResourceLimitExceeded(budget, context="certify")
            big = pk.lcm(images[i], images[j])
            s = _s_terms(pk, polys[i], lms[i], reach[i], polys[j], lms[j], reach[j], big)
            r, scale = _nf_terms(s, lms, images, polys, reach, pk)
            if r:
                scale *= lcm(polys[i][lms[i]], polys[j][lms[j]])
                raise CertificationError(
                    f"S-polynomial of basis elements {i} and {j} does not reduce to zero",
                    witness=_from_int(pk, gb.variables, r, scale),
                )
    for g in sources:
        r = _reduce(g, pk, lms, images, polys, reach)
        if not r.is_zero():
            raise CertificationError(
                "an original generator does not reduce to zero", witness=r
            )
    return True


# ---------------------------------------------------------------------------
# staircase queries


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True iff the staircase is finite: every variable has a pure-power
    leading monomial (the constant monomial counts for every variable)."""
    pk, _, images, _, _ = _divisors(gb, 0)
    fields = [pk.mask << pos for pos, _ in pk.cells]
    exponents = sum(fields)  # the degree fields of graded blocks left out
    return all(any(not u & (exponents - f) for u in images) for f in fields)


def standard_monomials(gb: GroebnerBasis) -> list[Exponents]:
    """All monomials outside the leading-term ideal, sorted by the order.

    The staircase is walked once per basis and kept on it (see `_Staircase`).
    Raises NotZeroDimensional when the staircase is infinite.
    """
    if not is_zero_dimensional(gb):
        raise NotZeroDimensional(gb)
    stairs = gb._stairs or _Staircase(gb)
    return list(map(stairs.pk.unpack, stairs.basis))


class _Staircase:
    """The sorted packed standard monomials b_0 < b_1 < ... of a
    zero-dimensional basis, walked once and kept on the basis, with the
    coordinate walk over them (see the module docstring).  Coordinates are
    ({index: numerator}, den), cached and shared: callers must not modify
    them.  Their residues mod `linalg._PRIME` come from the same walk on a
    second cache, as ({index: residue}, 1)."""

    __slots__ = ("pk", "basis", "lms", "cache", "images", "units", "residues")

    def __init__(self, gb: GroebnerBasis):
        # the leading monomials include a pure power of each variable, so each
        # standard monomial and its neighbours divide their field-wise max, the
        # corner; the walk stays in that box whatever the zero-dimensional check said
        corner = [tuple(map(max, zip(*gb.leading)))]
        pk, lms, images, elements, _ = _divisors(gb, _width(gb.order, len(gb.variables), corner))
        guards = pk.guards
        box = pk.image(pk.pack(corner[0]))
        # every variable of a standard monomial is standard, so the walk steps
        # only by the variables that no leading monomial divides
        units = [x for x in pk.units if all((pk.image(x) - u) & guards for u in images)]
        seen = {0}
        queue = [0]
        found: list[int] = []
        while queue:
            m = queue.pop()
            t = pk.image(m)
            if any(not (t - u) & guards for u in images):
                continue
            found.append(m)
            for unit in units:
                nxt = m + unit
                if nxt not in seen and not (box - pk.image(nxt)) & guards:
                    seen.add(nxt)
                    queue.append(nxt)
        found.sort()
        where = {m: i for i, m in enumerate(found)}
        cache = {m: ({i: 1}, 1) for m, i in where.items()}
        for lm, g in zip(lms, elements):  # g is primitive with g[lm] > 0
            cache[lm] = ({where[e]: -c for e, c in g.items() if e != lm}, g[lm])
        self.pk, self.basis, self.lms, self.cache, self.images = pk, found, lms, cache, images
        # the packed variable of each field
        self.units = {pos // pk.bits: unit for (pos, _), unit in zip(pk.cells, pk.units)}
        self.residues: tuple[int, dict | None] | None = None  # (p, residue cache) once asked
        object.__setattr__(gb, "_stairs", self)

    def products(self, i: int, cols: Iterable[int]) -> list[Coords]:
        """The coordinates of b_i * b_j for each j in cols."""
        return self._row(self.basis[i], cols, self.cache, _combine)

    def times(self, v: int, cols: Iterable[int]) -> list[Coords]:
        """The coordinates of x_v * b_j for each j in cols."""
        return self._row(self.pk.units[v], cols, self.cache, _combine)

    def residue_products(self, i: int, cols: Iterable[int]) -> list[Coords] | None:
        """The residues of `products`, or None when the staircase has no residue image."""
        return self._residue_row(self.basis[i], cols)

    def residue_times(self, v: int, cols: Iterable[int]) -> list[Coords] | None:
        """The residues of `times`, or None when the staircase has no residue image."""
        return self._residue_row(self.pk.units[v], cols)

    def tails(self) -> list[tuple[Exponents, Iterable[int]]]:
        """Each reduced element's leading monomial, with the indices of the
        standard monomials in its tail."""
        return [(self.pk.unpack(lm), self.cache[lm][0].keys()) for lm in self.lms]

    def coords(self, target: int) -> Coords:
        """The coordinates of a monomial packed on `pk`."""
        return self._walk(target, self.cache, _combine)

    def _residue_row(self, m: int, cols: Iterable[int]) -> list[Coords] | None:
        # the prime is read at each call, and the cache seeded again when it moved
        p = linalg._PRIME
        if self.residues is None or self.residues[0] != p:
            self.residues = (p, self._residue_seeds(p))
        cache = self.residues[1]
        return None if cache is None else self._row(m, cols, cache, partial(_residue_combine, p))

    def _residue_seeds(self, p: int) -> dict | None:
        """The exact seeds mod p: unit vectors, and each tail times the inverse
        of its leading coefficient; None when p divides a leading coefficient."""
        cache = {}
        for m in (*self.basis, *self.lms):
            num, den = self.cache[m]
            if not den % p:
                return None
            inv = pow(den, -1, p)
            cache[m] = ({i: r for i, c in num.items() if (r := c * inv % p)}, 1)
        return cache

    def _row(self, m: int, cols: Iterable[int], cache: dict, combine: Callable) -> list:
        basis, get = self.basis, cache.get
        return [get(basis[j] + m) or self._walk(basis[j] + m, cache, combine) for j in cols]

    def _walk(self, target: int, cache: dict, combine: Callable) -> Coords:
        """The entry of a monomial in `cache`, made by the walk: `combine`
        sums the entries of the x_v * b_j with the coefficients of m / x_v."""
        basis, images, units = self.basis, self.images, self.units
        offset, guards, bits = self.pk.offset, self.pk.guards, self.pk.bits
        stack = [target]
        while stack:
            m = stack[-1]
            if m in cache:  # known, or pushed more than once
                stack.pop()
                continue
            # m is neither standard nor leading, so some lm divides it properly
            t = (m + offset) ^ offset
            diff = next(t - u for u in images if not (t - u) & guards)
            unit = units[((diff & -diff).bit_length() - 1) // bits]
            smaller = cache.get(m - unit)
            if smaller is None:
                stack.append(m - unit)
                continue
            steps = [basis[j] + unit for j in smaller[0]]
            missing = [s for s in steps if s not in cache]
            if missing:
                stack.extend(missing)
                continue
            cache[stack.pop()] = combine(smaller, [cache[s] for s in steps])
        return cache[target]


def _combine(smaller: Coords, parts: list[Coords]) -> Coords:
    """Exact coordinates: the parts over the lcm of their denominators, reduced by one gcd."""
    coeffs, den = smaller
    scale = lcm(*(d for _, d in parts))
    out: dict[int, int] = {}
    for c, (vec, d) in zip(coeffs.values(), parts):
        c *= scale // d
        for i, x in vec.items():
            out[i] = out.get(i, 0) + c * x
    den *= scale
    g = gcd(den, *out.values())
    return ({i: x // g for i, x in out.items() if x}, den // g)


def _residue_combine(p: int, smaller: Coords, parts: list[Coords]) -> Coords:
    """Residues mod p, reduced once at the end."""
    out: dict[int, int] = {}
    for c, (vec, _) in zip(smaller[0].values(), parts):
        for i, x in vec.items():
            out[i] = out.get(i, 0) + c * x
    return ({i: r for i, x in out.items() if (r := x % p)}, 1)


def _minimal(pk: _Packing, images: Iterable[int]) -> list[int]:
    """The sorted images of the minimal generators of the monomial ideal of
    these images: one pass over them keeps each that no kept one divides
    (see the module docstring).  The kept pure powers lie in distinct
    fields (the smaller of two in one field divides the larger), so one
    subtraction tests them all: with S their exponent fields summed, (u |
    guards) - S = u + (guards - S) borrows and carries across no field, and
    keeps the guard bit of field v set iff u's field v is at least S's,
    that is iff the pure power there divides u.  `preset` is guards - S,
    and `fields` the guard bits of the kept pure powers.
    """
    guards, lows, high = pk.guards, pk.lows, pk.bits - 1
    gens: list[int] = []
    mixed: list[int] = []  # the kept images with no or several exponent fields
    preset, fields = guards, 0
    for u in sorted(set(images)):
        if (u + preset) & fields:
            continue
        for h in mixed:
            if not (u - h) & guards:
                break
        else:
            gens.append(u)
            support = (u + lows) & guards  # a guard bit per exponent field of u
            if support and not support & (support - 1):
                preset -= u & ((support << 1) - (support >> high))  # that field alone
                fields |= support
            else:
                mixed.append(u)
    return gens


def _monomial_numerator(
    pk: _Packing, images: Iterable[int], weights: tuple[int, ...] | None = None
) -> list[int]:
    """The coefficients, trimmed, of the numerator N with Hilb(R/I) = N /
    prod(1 - t^w) for the monomial ideal I of these images, by Bigatti's
    pivot recursion (see the module docstring).  No weights stand for the
    packing's own, those of a lone graded block, whose degree is the
    image's degree field."""
    guards, lows, mask, cells = pk.guards, pk.lows, pk.mask, pk.cells
    gens = _minimal(pk, images)
    seen = 0
    for u in gens:
        support = (u + lows) & guards  # a guard bit per exponent field of u
        if support & seen:
            break
        seen |= support
    else:
        # pairwise disjoint supports (no generator or one included): the
        # quotient is a tensor product, prod(1 - t^deg u); the unit ideal,
        # generated by 1 of degree 0, has the zero numerator
        if gens == [0]:
            return []
        if weights is None:  # the degree field of a lone graded block
            return _binomial_product([u >> pk.degrees[0][3] for u in gens])
        return _binomial_product(
            [sum(s * ((u >> pos) & mask) // w for s, (pos, w) in zip(weights, cells)) for u in gens]
        )
    # split along the pivot x_v^e, e a median exponent of x_v among the
    # generators:  N(I) = N(I + (x_v^e)) + t^(e w_v) N(I : x_v^e)
    fields = [mask << pos for pos, _ in cells]
    counts = [sum(1 for u in gens if u & f) for f in fields]
    top = max(counts)
    v = counts.index(top)
    (pos, w), unit = cells[v], pk.image(pk.units[v])
    exponents = sorted((u >> pos) & mask for u in gens if u & fields[v])
    e = exponents[(top - 1) // 2] // w
    out = _monomial_numerator(pk, [*gens, e * unit], weights)
    colon = [u - min((u >> pos) & mask, e * w) // w * unit for u in gens]
    right = _monomial_numerator(pk, colon, weights)
    d = e * (w if weights is None else weights[v])
    out.extend([0] * (d + len(right) - len(out)))
    for k, c in enumerate(right, d):
        out[k] += c
    while out and not out[-1]:
        out.pop()
    return out


def _staircase_series(gb: GroebnerBasis, weights: tuple[int, ...] | None = None) -> RationalSeries:
    """Hilbert series of R/in(I) under these weights, read off the basis's
    images; no weights stand for those of its order, a `WeightedGrevlex`."""
    pk, _, images, _, _ = _divisors(gb, 0)
    numerator = UniPoly(_monomial_numerator(pk, images, weights))
    if weights is None:
        weights = gb.order.weights
    return RationalSeries(numerator, weight_denominator(weights))


def hilbert_series(
    ideal: Ideal,
    grading: WeightedGrading | None = None,
    limits: ReductionLimits = DEFAULT_LIMITS,
) -> RationalSeries:
    """Graded dimension series of R/I for quasi-homogeneous I, fully reduced.

    Inhomogeneous generators are reported with a pair of witness monomials.
    """
    if grading is None:
        grading = ideal.grading or WeightedGrading.units(len(ideal.variables))
    for g in ideal.generators:
        witness = quasi_homogeneity_witness(g, grading)
        if witness is not None:
            raise NotQuasiHomogeneous(*witness)
    gb = groebner_basis(ideal, WeightedGrevlex(grading.weights), limits)
    return _staircase_series(gb)


def krull_dimension(ideal_or_gb: Ideal | GroebnerBasis, limits: ReductionLimits = DEFAULT_LIMITS) -> int:
    """Dimension of R/I: the pole order at t = 1 of the Hilbert series of
    R/in(I), which has the dimension of R/I under any monomial order
    (Hilbert-Serre).  The unit ideal has the zero series and returns 0,
    the convention chosen here for the empty scheme."""
    if isinstance(ideal_or_gb, Ideal):
        gb = groebner_basis(ideal_or_gb, limits=limits)
    else:
        gb = ideal_or_gb
    return _staircase_series(gb, (1,) * len(gb.variables)).pole_order()


# ---------------------------------------------------------------------------
# ideal-level operations


def _fresh_name(taken: Sequence[str]) -> str:
    for base in ("t", "s", "u"):
        if base not in taken:
            return base
    i = 0
    while f"t{i}" in taken:
        i += 1
    return f"t{i}"


def ideal_intersection(left: Ideal, right: Ideal, limits: ReductionLimits = DEFAULT_LIMITS) -> Ideal:
    """I ∩ J via the tag-variable trick: eliminate t from t·I + (1-t)·J."""
    if left.variables != right.variables:
        raise PolynomialError("intersection needs a common variable tuple")
    variables = left.variables
    grading = left.grading if left.grading == right.grading else None
    tag = _fresh_name(variables)
    new_vars = (tag,) + variables
    t = Polynomial.variable(new_vars, tag)

    def lift(p: Polynomial) -> Polynomial:
        return Polynomial(new_vars, {(0,) + e: c for e, c in p.terms.items()})

    gens = [t * lift(f) for f in left.generators]
    gens += [lift(g) - t * lift(g) for g in right.generators]
    inner_weights = grading.weights if grading is not None else (1,) * len(variables)
    order = EliminationOrder(
        block=1, first=WeightedGrevlex((1,)), rest=WeightedGrevlex(inner_weights)
    )
    gb = buchberger(Ideal(new_vars, tuple(gens)), order, limits)
    kept: list[Polynomial] = []
    for p, lm in zip(gb.basis, gb.leading):
        if lm[0] == 0:
            # elimination order: a t-free leading monomial forces a t-free element
            kept.append(Polynomial(variables, {e[1:]: c for e, c in p.terms.items()}))
    return Ideal(variables, tuple(kept), grading)


def ideal_product(left: Ideal, right: Ideal) -> Ideal:
    if left.variables != right.variables:
        raise PolynomialError("product needs a common variable tuple")
    grading = left.grading if left.grading == right.grading else None
    gens = tuple(f * g for f in left.generators for g in right.generators)
    return Ideal(left.variables, gens, grading)


def ideal_equal(
    left: Ideal,
    right: Ideal,
    order: MonomialOrder | None = None,
    limits: ReductionLimits = DEFAULT_LIMITS,
) -> bool:
    """Equality of ideals = equality of reduced bases under one fixed order."""
    if left.variables != right.variables:
        raise PolynomialError("equality needs a common variable tuple")
    if order is None:
        order = WeightedGrevlex.units(len(left.variables))
    gb_left = groebner_basis(left, order, limits)
    gb_right = groebner_basis(right, order, limits)
    return gb_left.basis == gb_right.basis
