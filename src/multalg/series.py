"""Univariate polynomials in t over Z and reduced rational series.

UniPoly stores coefficients as a tuple indexed by degree with no trailing
zeros, so equality of values is equality of tuples.  RationalSeries is a
fully reduced ratio of two integer polynomials, normalized so that the
lowest-degree nonzero coefficient of the denominator is positive -- the
power-series convention, under which products of (1 - t^w) stay printed
as such instead of being flipped to (t^w - 1).

Everything here stays in Z.  Exact division is integer long division,
and the gcd that reduces a general series is a primitive pseudo-remainder
sequence; by Gauss's lemma the quotients by a primitive gcd are integral.
A weight ratio prod(1 - t^d) / prod(1 - t^w) needs no gcd: its reduced
form is read off by counting cyclotomic factors, and each side is built
by multiplying and dividing by binomials 1 - t^f, one pass over the
coefficients per factor.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from math import isqrt
from operator import index, sub
from typing import Iterable, Sequence

from .linalg import primitive

__all__ = ["UniPoly", "RationalSeries", "one_minus_power", "weight_denominator"]


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class UniPoly:
    """Dense univariate polynomial over Z (display variable: t)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        try:
            cs = list(map(index, coeffs))
        except TypeError as e:
            raise ValueError(f"coefficients must be integers: {e}") from None
        object.__setattr__(self, "coeffs", _trim(cs))

    @classmethod
    def term(cls, coeff: int, degree: int) -> "UniPoly":
        return cls([0] * degree + [coeff])

    @classmethod
    def one(cls) -> "UniPoly":
        return cls([1])

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial is assigned -1."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = UniPoly([other])
        if not isinstance(other, UniPoly):
            return NotImplemented  # a RationalSeries answers the reflected comparison
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # a constant equals, so hashes as, its int
        return hash(self.coeffs) if len(self.coeffs) > 1 else hash(self.coefficient(0))

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPoly([other * c for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __call__(self, value):
        """Evaluate by Horner's rule; exact for int/Fraction arguments."""
        acc = value * 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def divide_exact(self, other: "UniPoly") -> "UniPoly":
        """Quotient self/other by integer long division.

        Raises ValueError unless other divides self with an integer
        quotient; the message says whether other fails to divide over Q or
        divides with a non-integer quotient.
        """
        a, b = list(self.coeffs), other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        n, lead = len(b), b[-1]
        q = [0] * max(0, len(a) - n + 1)
        for shift in range(len(a) - n, -1, -1):
            c = a[shift + n - 1]
            if not c:
                continue
            f, rem = divmod(c, lead)
            if rem:
                if any(_pseudo_remainder(self.coeffs, b)):
                    raise ValueError("inexact polynomial division")
                raise ValueError("inexact polynomial division (non-integer quotient)")
            q[shift] = f
            for i, x in enumerate(b):
                a[shift + i] -= f * x
        if any(a):
            raise ValueError("inexact polynomial division")
        return UniPoly(q)

    def is_palindromic(self) -> bool:
        """coefficients read the same in both directions (zero: vacuously)."""
        return self.coeffs == tuple(reversed(self.coeffs))

    def is_monic_top(self) -> bool:
        """Leading (top-degree) coefficient equals 1."""
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mono = "t" if k == 1 else f"t^{k}"
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"


def one_minus_power(d: int) -> UniPoly:
    """1 - t^d."""
    return weight_denominator((d,))


def weight_denominator(weights: Iterable[int]) -> UniPoly:
    """Product of (1 - t^w) over a weight multiset."""
    return UniPoly(_binomial_product(weights))


def _binomial_product(weights: Iterable[int]) -> list[int]:
    """Coefficients of prod(1 - t^w): each factor is one pass that
    subtracts the coefficients shifted up by w."""
    weights = tuple(weights)
    if any(w <= 0 for w in weights):
        raise ValueError("power must be positive")
    out = [1] + [0] * sum(weights)
    top = 0
    for w in weights:
        top += w
        out[w : top + 1] = map(sub, out[w : top + 1], out)
    return out


def _divide_binomials(coeffs: list[int], weights: Iterable[int]) -> list[int]:
    """coeffs / prod(1 - t^w), in place: dividing by 1 - t^w is a running
    sum of stride w, q[i] = p[i] + q[i - w], and it is exact when the top
    w sums vanish.  Raises ValueError when a division is not exact."""
    for w in weights:
        for r in range(w):
            coeffs[r::w] = accumulate(coeffs[r::w])
        cut = max(len(coeffs) - w, 0)
        if any(coeffs[cut:]):
            raise ValueError("inexact polynomial division")
        del coeffs[cut:]
    return coeffs


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small if d * d != n]


def _mobius_terms(e: int) -> list[tuple[int, int]]:
    """(e // s, mu(s)) for every squarefree divisor s of e."""
    out, m, p = [(e, 1)], e, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out += [(f // p, -mu) for f, mu in out]
        p += 1
    if m > 1:
        out += [(f // m, -mu) for f, mu in out]
    return out


def _binomial_ratio(exponents: dict[int, int]) -> UniPoly:
    """prod (1 - t^f)^x over f -> x, a polynomial.

    Each factor with x > 0 is taken together with the largest pending
    factor 1 - t^g with x < 0 and g | f, if there is one: the ratio
    (1 - t^f) / (1 - t^g) is a polynomial, and multiplying by it is one
    pass, a running sum of stride g over the product with 1 - t^f cut at
    the new length, so the coefficient list never outgrows the product of
    the ratios taken so far.  The pending factors left are divided out at
    the end, exactly, since the whole ratio is a polynomial.
    """
    pending = {g: -x for g, x in exponents.items() if x < 0}
    out = [1]
    for f, x in exponents.items():
        for _ in range(x):
            g = max((g for g, left in pending.items() if left and not f % g), default=0)
            if not g:
                out += [0] * f
                out[f:] = map(sub, out[f:], out)
                continue
            pending[g] -= 1
            out += [0] * (f - g)
            step = out[:f] + list(map(sub, out[f:], out))
            for r in range(g):
                out[r::g] = accumulate(step[r::g])
    return UniPoly(_divide_binomials(out, [g for g, left in pending.items() for _ in range(left)]))


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Remainder of lc(b)^k * a by b over Z, for some k >= 0; b nonzero.

    It is zero exactly when b divides a over Q.
    """
    r = list(a)
    n, lead = len(b), b[-1]
    for shift in range(len(r) - n, -1, -1):
        c = r[shift + n - 1]
        if c:
            f, rem = divmod(c, lead)
            if rem:  # scale only where lc(b) does not divide, as never for a monic b
                r = [lead * x for x in r]
                f = c
            for i, x in enumerate(b):
                r[shift + i] -= f * x
    return _trim(r)


def _gcd(a: Sequence[int], b: Sequence[int]) -> UniPoly:
    """Primitive gcd of two nonzero integer polynomials (sign not fixed)."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, primitive(_pseudo_remainder(a, b))
    return UniPoly(a)


class RationalSeries:
    """Reduced ratio numerator/denominator of integer polynomials in t.

    Canonical form: gcd(numerator, denominator) = 1 over Q, joint
    integer content 1, and the lowest-degree nonzero coefficient
    of the denominator positive.  Two equal series therefore compare
    equal componentwise.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: UniPoly, denominator: UniPoly):
        if denominator.is_zero():
            raise ZeroDivisionError("series denominator is zero")
        num, den = _reduce(numerator, denominator)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalSeries is immutable")

    @classmethod
    def from_polynomial(cls, p: UniPoly) -> "RationalSeries":
        return cls(p, UniPoly.one())

    @classmethod
    def from_weight_ratio(
        cls, codomain_degrees: Iterable[int], domain_weights: Iterable[int]
    ) -> "RationalSeries":
        """prod(1 - t^d) over codomain degrees / prod(1 - t^w) over weights.

        Reduced without a gcd.  Write Psi_1 = 1 - t and Psi_e = Phi_e, the
        e-th cyclotomic polynomial, for e > 1; then 1 - t^n is the product
        of Psi_e over e | n.  The Psi_e are distinct irreducibles, so with
        c_e = #{d : e | d} - #{w : e | w} the reduced ratio is the product
        of Psi_e^c_e over c_e > 0 divided by that of Psi_e^-c_e over
        c_e < 0.  By Mobius inversion Psi_e is the product of
        (1 - t^f)^mu(e/f) over f | e, which builds the numerator from
        binomials; the denominator is the numerator over the unreduced
        ratio.  Both have constant term 1, so they are in the canonical
        form: content 1 (Gauss's lemma) and a positive lowest denominator
        coefficient.
        """
        net = Counter(codomain_degrees)  # n -> exponent of 1 - t^n, unreduced
        net.subtract(domain_weights)
        if any(n <= 0 for n in net):
            raise ValueError("power must be positive")
        count: Counter[int] = Counter()  # e -> c_e
        for n, m in net.items():
            if m:
                for e in _divisors(n):
                    count[e] += m
        numerator: Counter[int] = Counter()  # f -> exponent of 1 - t^f
        for e, c in count.items():
            if c > 0:
                for f, mu in _mobius_terms(e):
                    numerator[f] += c * mu
        denominator = numerator.copy()
        denominator.subtract(net)
        out = object.__new__(cls)
        object.__setattr__(out, "numerator", _binomial_ratio(numerator))
        object.__setattr__(out, "denominator", _binomial_ratio(denominator))
        return out

    def is_polynomial(self) -> bool:
        return self.denominator == UniPoly.one()

    def pole_order(self) -> int:
        """How many times (1 - t) divides the reduced denominator (zero
        series: 0); on Hilb(R/I) it is the Krull dimension of R/I."""
        den, k = self.denominator, 0
        while den(1) == 0:
            den, k = den.divide_exact(one_minus_power(1)), k + 1
        return k

    def as_polynomial(self) -> UniPoly:
        if not self.is_polynomial():
            raise ValueError(f"series {self} is not a polynomial")
        return self.numerator

    def __eq__(self, other) -> bool:
        if isinstance(other, (UniPoly, int)):
            return self.is_polynomial() and self.numerator == other
        return (
            isinstance(other, RationalSeries)
            and self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __hash__(self) -> int:
        # a polynomial series equals, so hashes as, its numerator
        if self.is_polynomial():
            return hash(self.numerator)
        return hash((self.numerator, self.denominator))

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            other = RationalSeries.from_polynomial(other)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return RationalSeries(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    def __add__(self, other):
        if isinstance(other, UniPoly):
            other = RationalSeries.from_polynomial(other)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return RationalSeries(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.numerator)
        return f"({self.numerator})/({self.denominator})"

    def __repr__(self) -> str:
        return f"RationalSeries({self.numerator!r}, {self.denominator!r})"


def _reduce(num: UniPoly, den: UniPoly) -> tuple[UniPoly, UniPoly]:
    g = _gcd(num.coeffs, den.coeffs)
    n = num.divide_exact(g).coeffs
    both = primitive(n + den.divide_exact(g).coeffs)
    # sign: make the lowest-degree nonzero denominator coefficient positive
    if next(c for c in both[len(n):] if c) < 0:
        both = [-c for c in both]
    return UniPoly(both[: len(n)]), UniPoly(both[len(n):])
