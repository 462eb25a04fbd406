"""Exact structure checks for local multiplicity algebras of
quasi-homogeneous maps, with the Groebner machinery they need."""

from .poly import (
    Polynomial,
    PolynomialMap,
    WeightedGrading,
    parse_polynomial,
    polynomial_to_text,
    weighted_degree,
    jacobian_determinant,
)
from .orders import EliminationOrder, Lex, WeightedGrevlex
from .series import RationalSeries, UniPoly
from .groebner import (
    Ideal,
    GroebnerBasis,
    ReductionLimits,
    ResourceLimitExceeded,
    buchberger,
    groebner_basis,
    normal_form,
    certify,
    is_zero_dimensional,
    standard_monomials,
    hilbert_series,
    krull_dimension,
    ideal_intersection,
    ideal_product,
    ideal_equal,
)
from .multiplicity import (
    NotFinite,
    FiniteGradedAlgebra,
    build_quotient,
    poincare_polynomial,
    equivariant_multiplicity,
    socle,
    jacobian_spans_socle,
    pairing_matrices,
    StructureReport,
    verify_structure_theorem,
    hitchin_base_weights,
)
from .rings import FixtureError, PresentedRing, ideal_from_json, ideal_to_json
from .grassmann import (
    DivisorData,
    closure_vs_grassmann_dimensions,
    gaussian_binomial,
    grassmann_multiplicity,
    grassmann_presentation,
    product_hilbert,
)
from .jets import (
    JetInvariants,
    JetPresentation,
    apply_substitution,
    jet_invariants,
    jet_presentation,
)
from .weights import (
    DominantWeight,
    dominance_leq,
    fundamental_decomposition,
    fundamental_weight,
    is_minuscule,
    lower_set,
    weyl_orbit_size,
)

__version__ = "0.1.0"

# Only `multalg verify` needs the catalogue module, so its names are resolved
# on first use and `import multalg` does not load it.
_FROM_VERIFICATION = frozenset(
    {"CheckCase", "RunSummary", "catalogue", "embedded_point_check", "run_all"}
)


def __getattr__(name: str):
    if name in _FROM_VERIFICATION:
        from . import verification

        return getattr(verification, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
