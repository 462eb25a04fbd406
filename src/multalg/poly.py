"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a mapping from exponent tuples to nonzero rational
coefficients, together with the ordered tuple of ambient variable names:

    {(2, 0, 1): Fraction(3)}  over  ("x", "y", "z")   is   3*x^2*z

Variable identity is positional.  Operations combine two polynomials only
when their variable tuples agree exactly; anything else raises
VariableMismatch rather than silently unifying rings.

Coefficients are `fractions.Fraction` throughout -- there is no floating
point anywhere in this package, and the constructor rejects any coefficient
that is not an `int` or a `Fraction`.  The zero polynomial is the one with no
terms; it has no degree.

Gradings assign a positive integer weight to each variable.  A polynomial
is quasi-homogeneous when every term has the same weighted degree; the
weighted-degree functions below either return that common value or raise
with a pair of witness monomials of distinct degrees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import index
from typing import Iterable, Mapping

from .orders import WeightedGrevlex

Exponents = tuple[int, ...]

__all__ = [
    "Exponents",
    "PolynomialError",
    "VariableMismatch",
    "ParseError",
    "UnknownVariable",
    "ZeroDegreeUndefined",
    "NotQuasiHomogeneous",
    "Polynomial",
    "WeightedGrading",
    "PolynomialMap",
    "mono_mul",
    "monomials_of_weighted_degree",
    "monomial_to_text",
    "parse_polynomial",
    "polynomial_to_text",
    "weighted_degree",
    "quasi_homogeneity_witness",
    "jacobian_matrix",
    "jacobian_determinant",
]


class PolynomialError(ValueError):
    """Base class for arithmetic and parsing failures in this module."""


class VariableMismatch(PolynomialError):
    """Two polynomials over different variable tuples were combined."""


class ParseError(PolynomialError):
    """Syntax error in polynomial text; carries a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ParseError):
    """A name in polynomial text is not among the declared variables."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown variable {name!r}", position)
        self.name = name


class ZeroDegreeUndefined(PolynomialError):
    """The zero polynomial has no weighted degree."""


class NotQuasiHomogeneous(PolynomialError):
    """Carries two witness monomials of different weighted degrees."""

    def __init__(self, witnesses: tuple[Exponents, Exponents], degrees: tuple[int, int]):
        self.witnesses = witnesses
        self.degrees = degrees
        super().__init__(
            f"monomials {witnesses[0]} and {witnesses[1]} have weighted degrees "
            f"{degrees[0]} != {degrees[1]}"
        )


# ---------------------------------------------------------------------------
# exponent-tuple helpers


def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


def monomials_of_weighted_degree(weights: tuple[int, ...], degree: int) -> list[Exponents]:
    """All exponent tuples of the given weighted degree, lexicographic order."""
    n = len(weights)
    out: list[Exponents] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == n - 1:
            if remaining % weights[i] == 0:
                out.append(prefix + (remaining // weights[i],))
            return
        for e in range(remaining // weights[i], -1, -1):
            rec(i + 1, remaining - e * weights[i], prefix + (e,))

    if degree < 0:
        return []
    rec(0, degree, ())
    return out


def monomial_to_text(exps: Exponents, variables: tuple[str, ...]) -> str:
    parts = []
    for name, e in zip(variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------


class Polynomial:
    """Immutable sparse polynomial over Q in a fixed variable tuple."""

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Fraction | int]):
        vs = tuple(variables)
        n = len(vs)
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != n:
                raise PolynomialError(f"exponent tuple {exps} has wrong length for {vs}")
            if any(e < 0 for e in exps):
                raise PolynomialError(f"negative exponent in {exps}")
            if isinstance(coeff, Fraction):
                c = coeff
            elif isinstance(coeff, int):
                c = Fraction(coeff)
            else:
                raise PolynomialError(f"coefficient {coeff!r} is not an int or a Fraction")
            if c:
                clean[exps] = c
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    # construction helpers ---------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Iterable[str], value: Fraction | int) -> "Polynomial":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): value})

    @classmethod
    def variable(cls, variables: Iterable[str], name: str) -> "Polynomial":
        vs = tuple(variables)
        idx = vs.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(vs)))
        return cls(vs, {exps: Fraction(1)})

    # predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise VariableMismatch(
                f"cannot combine polynomials over {self.variables} and {other.variables}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, Fraction(0)) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Polynomial(self.variables, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial(self.variables, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Fraction | int) -> "Polynomial":
        return Polynomial(self.variables, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise PolynomialError("negative power")
        result = Polynomial.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # calculus / substitution -------------------------------------------

    def partial(self, name: str) -> "Polynomial":
        """Partial derivative with respect to the named variable."""
        idx = self.variables.index(name)
        out: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[idx]
            if e:
                shifted = exps[:idx] + (e - 1,) + exps[idx + 1 :]
                out[shifted] = out.get(shifted, Fraction(0)) + c * e
        return Polynomial(self.variables, out)

    def substitute(self, assignment: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Apply a total substitution; images live in a common target ring.

        Every ambient variable must appear in `assignment`, and every image
        must share one variable tuple (the target ring of the result).
        """
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise PolynomialError(f"substitution misses variables {missing}")
        images = [assignment[v] for v in self.variables]
        target = images[0].variables if images else ()
        for img in images:
            if img.variables != target:
                raise VariableMismatch("substitution images live in different rings")
        result = Polynomial.zero(target)
        # cache powers of each image as they are needed
        powers: list[dict[int, Polynomial]] = [dict() for _ in images]
        for exps, c in self.terms.items():
            term = Polynomial.constant(target, c)
            for i, e in enumerate(exps):
                if not e:
                    continue
                cache = powers[i]
                if e not in cache:
                    cache[e] = images[i] ** e
                term = term * cache[e]
            result = result + term
        return result

    # representation -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.variables, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __str__(self) -> str:
        return polynomial_to_text(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.variables!r}, {str(self)!r})"


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedGrading:
    """Positive integer weight per ambient variable, in variable order."""

    weights: tuple[int, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "weights", tuple(map(index, self.weights)))
        except TypeError as e:
            raise PolynomialError(f"weights must be integers: {e}") from None
        if not self.weights:
            raise PolynomialError("grading needs at least one weight")
        if any(w <= 0 for w in self.weights):
            raise PolynomialError(f"weights must be positive integers: {self.weights}")

    @classmethod
    def units(cls, n: int) -> "WeightedGrading":
        return cls((1,) * n)

    def degree(self, exps: Exponents) -> int:
        return sum(w * e for w, e in zip(self.weights, exps))


def quasi_homogeneity_witness(
    p: Polynomial, grading: WeightedGrading
) -> tuple[tuple[Exponents, Exponents], tuple[int, int]] | None:
    """None when every term of `p` has one weighted degree, else witnesses.

    The zero polynomial is vacuously quasi-homogeneous.
    """
    seen: dict[int, Exponents] = {}
    for exps in p.terms:
        d = grading.degree(exps)
        for d0, e0 in seen.items():
            if d0 != d:
                return (e0, exps), (d0, d)
        seen.setdefault(d, exps)
    return None


def weighted_degree(p: Polynomial, grading: WeightedGrading) -> int:
    """Common weighted degree of all terms of a quasi-homogeneous polynomial.

    Raises ZeroDegreeUndefined on the zero polynomial and
    NotQuasiHomogeneous (with two witness monomials) otherwise.
    """
    if p.is_zero():
        raise ZeroDegreeUndefined("the zero polynomial has no weighted degree")
    witness = quasi_homogeneity_witness(p, grading)
    if witness is not None:
        raise NotQuasiHomogeneous(*witness)
    return grading.degree(next(iter(p.terms)))


# ---------------------------------------------------------------------------
# text form
#
#   expr   := ['+'|'-'] term (('+'|'-') term)*
#   term   := (coeff | factor) ('*' factor)*
#   coeff  := integer ['/' positive-integer]
#   factor := name ['^' positive-integer]
#   name   := [A-Za-z][A-Za-z0-9_]*
#
# Integers are ASCII digits [0-9]+.  Whitespace is insignificant.  '*' is
# mandatory between factors.

_TOKEN = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    return tokens


def parse_polynomial(text: str, variables: Iterable[str]) -> Polynomial:
    """Parse the textual form above into a Polynomial over `variables`.

    One pass over the tokens: each coefficient or factor goes into the
    current term's coefficient and exponent vector, each finished term is
    added into one term dict, and a single Polynomial is built at the end.
    """
    vs = tuple(variables)
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text", 0)
    tokens.append((None, None, len(text)))  # end of input
    terms: dict[Exponents, Fraction] = {}
    # num/den and exps hold the current term; `start` marks its first item,
    # the one place a coefficient may stand
    kind, val, _ = tokens[0]
    i = int(kind == "op" and val in "+-")
    num, den, exps, start = -1 if i and val == "-" else 1, 1, [0] * len(vs), True
    while True:
        kind, val, pos = tokens[i]
        if kind == "name":
            if val not in vs:
                raise UnknownVariable(val, pos)
            exp = 1
            if tokens[i + 1][:2] == ("op", "^"):
                i += 2
                kind, digits, pos = tokens[i]
                if kind != "int":
                    raise ParseError("expected an integer exponent", pos)
                exp = int(digits)
                if exp <= 0:
                    raise ParseError("exponent must be positive", pos)
            exps[vs.index(val)] += exp
        elif kind == "int" and start:
            num *= int(val)
            if tokens[i + 1][:2] == ("op", "/"):
                i += 2
                kind, digits, pos = tokens[i]
                if kind != "int":
                    raise ParseError("expected an integer denominator", pos)
                den = int(digits)
                if den == 0:
                    raise ParseError("zero denominator", pos)
        elif start:
            raise ParseError(f"expected a term, found {val!r}" if kind else "expected a term", pos)
        else:
            raise ParseError(f"expected a variable name, found {val!r}", pos)
        kind, val, pos = tokens[i + 1]
        i += 2
        if (kind, val) == ("op", "*"):
            start = False
            continue
        # the term is complete; a sum that cancels leaves the dict, so the
        # terms keep the order a sum of Polynomials would give them
        key = tuple(exps)
        total = terms.get(key, 0) + Fraction(num, den)
        if total:
            terms[key] = total
        else:
            terms.pop(key, None)
        if kind is None:
            return Polynomial(vs, terms)
        if kind != "op" or val not in "+-":
            raise ParseError(f"expected '+' or '-', found {val!r}", pos)
        num, den, exps, start = -1 if val == "-" else 1, 1, [0] * len(vs), True


def polynomial_to_text(p: Polynomial, grading: WeightedGrading | None = None) -> str:
    """Deterministic text form, terms in descending graded-reverse-lex order.

    Round-trips through parse_polynomial for any grading choice; the grading
    only fixes the display order of terms.
    """
    if p.is_zero():
        return "0"
    weights = grading.weights if grading is not None else (1,) * len(p.variables)
    pieces: list[str] = []
    for exps in sorted(p.terms, key=WeightedGrevlex(weights).key, reverse=True):
        coeff = p.terms[exps]
        mono = monomial_to_text(exps, p.variables)
        mag = abs(coeff)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(pieces)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolynomialMap:
    """Square quasi-homogeneous map: N components in N graded variables.

    `degrees[i]` is the weighted degree of component i, derived at build
    time and kept alongside the data because every downstream invariant
    (equivariant multiplicity, Jacobian degree, socle degree) is phrased
    in terms of them.
    """

    variables: tuple[str, ...]
    grading: WeightedGrading
    components: tuple[Polynomial, ...]
    degrees: tuple[int, ...]

    @classmethod
    def build(
        cls, components: Iterable[Polynomial], grading: WeightedGrading
    ) -> "PolynomialMap":
        comps = tuple(components)
        if not comps:
            raise PolynomialError("a polynomial map needs at least one component")
        variables = comps[0].variables
        for c in comps:
            if c.variables != variables:
                raise VariableMismatch("map components live in different rings")
        if len(comps) != len(variables):
            raise PolynomialError(
                f"map must be square: {len(comps)} components over {len(variables)} variables"
            )
        if len(grading.weights) != len(variables):
            raise PolynomialError("grading length does not match variable count")
        degs = []
        for c in comps:
            d = weighted_degree(c, grading)  # raises on zero / inhomogeneous input
            if d <= 0:
                raise PolynomialError("component of weighted degree 0 (constant)")
            degs.append(d)
        return cls(variables, grading, comps, tuple(degs))


def jacobian_matrix(m: PolynomialMap) -> list[list[Polynomial]]:
    return [[c.partial(v) for v in m.variables] for c in m.components]


def jacobian_determinant(m: PolynomialMap) -> Polynomial:
    """Determinant of the Jacobian matrix of the map.

    Expansion by rows over column subsets (exact, no pivoting); for a
    quasi-homogeneous map the result is quasi-homogeneous of degree
    sum(component degrees) - sum(variable weights) whenever nonzero.
    The expansion runs on integer rows: row r is the Jacobian row of
    component r times the lcm L_r of that component's denominators, and
    the result is divided by the product of the L_r once at the end.
    Monomials are packed ints, exponent i in the field at bits*i: a product
    of n entries has no exponent above n times the largest input exponent,
    which fits a field, so `+` multiplies.
    """
    variables = m.variables
    n = len(variables)
    top = max((e for comp in m.components for exps in comp.terms for e in exps), default=0)
    bits = max(1, (n * top).bit_length())
    shifts = [bits * i for i in range(n)]
    rows: list[list[dict[int, int]]] = []
    denominator = 1
    for comp in m.components:
        scale = lcm(*(c.denominator for c in comp.terms.values()))
        denominator *= scale
        row: list[dict[int, int]] = [{} for _ in range(n)]
        for exps, coeff in comp.terms.items():
            coeff = coeff.numerator * (scale // coeff.denominator)
            packed = sum(e << s for e, s in zip(exps, shifts))
            for i, e in enumerate(exps):
                if e:
                    row[i][packed - (1 << shifts[i])] = coeff * e
        rows.append(row)
    # minors[S] = determinant of rows 0..r-1 against column set S
    minors: dict[frozenset[int], dict[int, int]] = {frozenset(): {0: 1}}
    for r in range(n):
        nxt: dict[frozenset[int], dict[int, int]] = {}
        for cols, minor in minors.items():
            # expanding along row r: cofactor sign is (-1)^(r + column position)
            sign = 1 if r % 2 == 0 else -1
            for c in range(n):
                if c in cols:
                    sign = -sign
                    continue
                entry = rows[r][c]
                if not entry:
                    continue
                acc = nxt.setdefault(cols | {c}, {})
                for e1, c1 in minor.items():
                    c1 *= sign
                    for e2, c2 in entry.items():
                        e = e1 + e2
                        acc[e] = acc.get(e, 0) + c1 * c2
        minors = {}
        for cols, acc in nxt.items():
            acc = {e: c for e, c in acc.items() if c}
            if acc:
                minors[cols] = acc
        if not minors:
            return Polynomial.zero(variables)
    (det,) = minors.values()  # the one column set left is all n columns
    mask = (1 << bits) - 1
    terms = {tuple([(e >> s) & mask for s in shifts]): c for e, c in det.items()}
    return Polynomial(variables, {e: Fraction(c, denominator) for e, c in terms.items()})
