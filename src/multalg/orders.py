"""Monomial orders on exponent tuples.

Every order exposes `key(exponents)`, a sortable tuple such that
m1 < m2 in the order iff key(m1) < key(m2).  All three families below
are well-orders refining divisibility with 1 as the minimal monomial.

The package-wide canonical order is weighted graded reverse
lexicographic: compare weighted degree first, then reverse-lex
(the monomial with the *smaller* exponent on the last differing
variable is larger).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MonomialOrder", "WeightedGrevlex", "Lex", "EliminationOrder"]


class MonomialOrder:
    def key(self, exps: tuple[int, ...]):  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class WeightedGrevlex(MonomialOrder):
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if any(w <= 0 for w in self.weights):
            raise ValueError("grevlex weights must be positive")

    @classmethod
    def units(cls, n: int) -> "WeightedGrevlex":
        return cls((1,) * n)

    def key(self, exps: tuple[int, ...]):
        wdeg = sum(w * e for w, e in zip(self.weights, exps))
        return (wdeg, tuple(-e for e in reversed(exps)))


@dataclass(frozen=True)
class Lex(MonomialOrder):
    """Pure lexicographic order: earlier variables dominate."""

    def key(self, exps: tuple[int, ...]):
        return exps


@dataclass(frozen=True)
class EliminationOrder(MonomialOrder):
    """Block order: the first `block` variables are eliminated.

    Any monomial containing an eliminated variable beats any monomial
    that does not, so a Groebner basis element whose leading monomial
    avoids the first block lies entirely in the remaining variables.
    """

    block: int
    first: MonomialOrder = field(default_factory=Lex)
    rest: MonomialOrder = field(default_factory=Lex)

    def __post_init__(self):
        if self.block <= 0:
            raise ValueError("elimination block must contain at least one variable")

    def key(self, exps: tuple[int, ...]):
        head, tail = exps[: self.block], exps[self.block :]
        return (self.first.key(head), self.rest.key(tail))
