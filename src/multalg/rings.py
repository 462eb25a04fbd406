"""Presented graded rings and the JSON fixture format.

One schema serves every file-based interface in the package:

    {
      "variables":  ["p1", "q1"],
      "weights":    [1, 1],
      "generators": ["p1*q1", "p1 + q1"],
      "provenance": "grassmann(2,1)"        # optional, default "custom"
    }

Polynomial text uses the grammar documented in `poly`.  `weights` is
optional for plain ideal fixtures (defaults to all 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import index
from typing import Any

from .groebner import Ideal
from .poly import (
    Polynomial,
    PolynomialError,
    PolynomialMap,
    WeightedGrading,
    parse_polynomial,
    polynomial_to_text,
    quasi_homogeneity_witness,
    NotQuasiHomogeneous,
)

__all__ = ["PresentedRing", "FixtureError", "ideal_from_json", "ideal_to_json"]


class FixtureError(ValueError):
    """A JSON fixture does not match the schema."""


@dataclass(frozen=True)
class PresentedRing:
    """Graded polynomial ring modulo a finite relation list.

    Relations must be quasi-homogeneous for the declared weights (the
    zero polynomial is allowed and vacuously homogeneous; it can appear
    as a degenerate jet coefficient and is pruned when building ideals).
    """

    variables: tuple[str, ...]
    weights: tuple[int, ...]
    relations: tuple[Polynomial, ...]
    provenance: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        try:
            object.__setattr__(self, "weights", tuple(map(index, self.weights)))
        except TypeError as e:
            raise PolynomialError(f"weights must be integers: {e}") from None
        object.__setattr__(self, "relations", tuple(self.relations))
        if len(self.weights) != len(self.variables):
            raise PolynomialError("one weight per variable required")
        grading = self.grading()
        for r in self.relations:
            if r.variables != self.variables:
                raise PolynomialError("relation over a different variable tuple")
            witness = quasi_homogeneity_witness(r, grading)
            if witness is not None:
                raise NotQuasiHomogeneous(*witness)

    def grading(self) -> WeightedGrading:
        return WeightedGrading(self.weights)

    def ideal(self) -> Ideal:
        """Relation ideal with zero relations pruned."""
        return Ideal(
            self.variables,
            tuple(r for r in self.relations if not r.is_zero()),
            self.grading(),
        )

    def as_map(self) -> PolynomialMap:
        """The relations as a square quasi-homogeneous map (when square)."""
        gens = self.ideal().generators
        if len(gens) != len(self.variables):
            raise PolynomialError(
                f"{len(gens)} nonzero relations over {len(self.variables)} variables: not square"
            )
        return PolynomialMap.build(gens, self.grading())

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "variables": list(self.variables),
            "weights": list(self.weights),
            "generators": [polynomial_to_text(r, self.grading()) for r in self.relations],
            "provenance": self.provenance,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "PresentedRing":
        variables, weights, gens = _parse_fixture_core(data)
        provenance = data.get("provenance", "custom")
        if not isinstance(provenance, str):
            raise FixtureError("'provenance' must be a string")
        return cls(variables, weights, gens, provenance)

    @classmethod
    def loads(cls, text: str) -> "PresentedRing":
        return cls.from_json_dict(_load_json_object(text))


def _load_json_object(text: str) -> dict[str, Any]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise FixtureError(f"not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise FixtureError("fixture must be a JSON object")
    return data


def _parse_fixture_core(
    data: dict[str, Any],
) -> tuple[tuple[str, ...], tuple[int, ...], tuple[Polynomial, ...]]:
    try:
        variables = tuple(data["variables"])
    except KeyError:
        raise FixtureError("fixture is missing 'variables'") from None
    if not variables or not all(isinstance(v, str) for v in variables):
        raise FixtureError("'variables' must be a nonempty list of names")
    if len(set(variables)) != len(variables):
        raise FixtureError("duplicate variable names")
    weights_raw = data.get("weights", [1] * len(variables))
    if not isinstance(weights_raw, list) or not all(
        type(w) is int and w > 0 for w in weights_raw
    ):
        raise FixtureError("'weights' must be a list of positive integers")
    weights = tuple(weights_raw)
    if len(weights) != len(variables):
        raise FixtureError("'weights' length must match 'variables'")
    gens_raw = data.get("generators")
    if not isinstance(gens_raw, list) or not all(isinstance(g, str) for g in gens_raw):
        raise FixtureError("'generators' must be a list of polynomial strings")
    gens = []
    for g in gens_raw:
        try:
            gens.append(parse_polynomial(g, variables))
        except PolynomialError as e:
            raise FixtureError(f"bad generator {g!r}: {e}") from e
    return variables, weights, tuple(gens)


def ideal_from_json(text: str) -> Ideal:
    """Ideal fixture: same schema, 'provenance' ignored, zero gens rejected."""
    data = _load_json_object(text)
    variables, weights, gens = _parse_fixture_core(data)
    try:
        return Ideal(variables, gens, WeightedGrading(weights))
    except PolynomialError as e:
        raise FixtureError(str(e)) from e


def ideal_to_json(ideal: Ideal) -> dict[str, Any]:
    grading = ideal.grading or WeightedGrading.units(len(ideal.variables))
    return {
        "variables": list(ideal.variables),
        "weights": list(grading.weights),
        "generators": [polynomial_to_text(g, grading) for g in ideal.generators],
    }
