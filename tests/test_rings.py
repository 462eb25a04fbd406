import json
from fractions import Fraction

import pytest

from multalg.poly import (
    NotQuasiHomogeneous,
    Polynomial,
    PolynomialError,
    parse_polynomial,
)
from multalg.rings import (
    FixtureError,
    PresentedRing,
    ideal_from_json,
    ideal_to_json,
)


def P(text, vs):
    return parse_polynomial(text, vs)


VS = ("x", "y")


def sample_ring():
    return PresentedRing(VS, (1, 2), (P("y - x^2", VS), P("y^2", VS)))


# ------------------------------------------------------------- validation


def test_ring_validation():
    with pytest.raises(PolynomialError):
        PresentedRing(VS, (1,), ())
    with pytest.raises(PolynomialError):
        PresentedRing(VS, (1, 2), (P("x", ("x",)),))
    with pytest.raises(NotQuasiHomogeneous):
        PresentedRing(VS, (1, 1), (P("y - x^2", VS),))
    ring = sample_ring()
    assert ring.provenance == "custom"


@pytest.mark.parametrize("weights", [(1.7, 2), (1, Fraction(5, 2)), ("1", 2)])
def test_ring_rejects_non_integer_weights(weights):
    # int() would truncate (1.7, 2) to (1, 2) silently
    with pytest.raises(PolynomialError, match="must be integers"):
        PresentedRing(VS, weights, ())


def test_zero_relation_allowed_but_pruned_from_ideal():
    ring = PresentedRing(VS, (1, 1), (Polynomial.zero(VS), P("x*y", VS)))
    assert len(ring.relations) == 2
    assert ring.ideal().generators == (P("x*y", VS),)


def test_as_map_requires_square():
    m = sample_ring().as_map()
    assert m.degrees == (2, 4)
    with pytest.raises(PolynomialError):
        PresentedRing(VS, (1, 2), (P("y^2", VS),)).as_map()
    # zero relations do not count toward squareness
    ring = PresentedRing(VS, (1, 2), (Polynomial.zero(VS), P("y^2", VS)))
    with pytest.raises(PolynomialError):
        ring.as_map()


def test_grading_and_ideal_carry_weights():
    ring = sample_ring()
    assert ring.grading().weights == (1, 2)
    assert ring.ideal().grading.weights == (1, 2)


# ------------------------------------------------------------------- json


def test_round_trip():
    ring = sample_ring()
    again = PresentedRing.loads(ring.dumps())
    assert again == ring


def test_dumps_is_deterministic_and_sorted():
    ring = sample_ring()
    assert ring.dumps() == ring.dumps()
    data = json.loads(ring.dumps())
    assert list(data) == sorted(data)
    assert data["variables"] == ["x", "y"]
    assert data["weights"] == [1, 2]


def test_provenance_round_trip():
    ring = PresentedRing(VS, (1, 1), (P("x*y", VS),), provenance="tensor(a,b)")
    assert PresentedRing.loads(ring.dumps()).provenance == "tensor(a,b)"


def test_weights_default_to_units():
    ring = PresentedRing.loads('{"variables": ["x"], "generators": ["x^3"]}')
    assert ring.weights == (1,)


def test_fixture_errors():
    bad = [
        "not json at all",
        "[1, 2]",
        '{"generators": []}',
        '{"variables": [], "generators": []}',
        '{"variables": ["x", "x"], "generators": []}',
        '{"variables": ["x"], "weights": [0], "generators": []}',
        '{"variables": ["x"], "weights": [true], "generators": []}',
        '{"variables": ["x"], "weights": [1, 2], "generators": []}',
        '{"variables": ["x"], "generators": "x^2"}',
        '{"variables": ["x"], "generators": ["x +"]}',
        '{"variables": ["x"], "generators": [], "provenance": 7}',
    ]
    for text in bad:
        with pytest.raises(FixtureError):
            PresentedRing.loads(text)


def test_fixture_error_is_a_value_error():
    assert issubclass(FixtureError, ValueError)


# ------------------------------------------------------------ ideal forms


def test_ideal_from_json():
    ideal = ideal_from_json(
        '{"variables": ["x", "y"], "weights": [1, 2], "generators": ["y - x^2"]}'
    )
    assert ideal.variables == ("x", "y")
    assert ideal.generators == (P("y - x^2", VS),)
    assert ideal.grading.weights == (1, 2)


def test_ideal_from_json_rejects_zero_generator():
    with pytest.raises(FixtureError):
        ideal_from_json('{"variables": ["x"], "generators": ["0"]}')


def test_ideal_to_json_round_trip():
    ideal = ideal_from_json(
        '{"variables": ["x", "y"], "weights": [1, 2], "generators": ["y - x^2", "y^2"]}'
    )
    data = ideal_to_json(ideal)
    again = ideal_from_json(json.dumps(data))
    assert again.generators == ideal.generators
    assert again.grading.weights == ideal.grading.weights
