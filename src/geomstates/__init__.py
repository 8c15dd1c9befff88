"""Geometric tensor calculus for finite-level quantum state spaces.

The package models the observables of an ``n``-level system as a
Lie-Jordan algebra, coordinatizes density states by their expected
values along a traceless orthogonal basis, and realizes both products
as contravariant tensor fields (an antisymmetric Poisson tensor and a
symmetric correlation tensor) on the state body.  Markovian dynamics
act on those tensor fields by Lie transport; the asymptotic behaviour
of the transported fields is computed spectrally and, when a limit
exists, yields a contracted Lie-Jordan algebra.

Subpackage guide
----------------

``algebra``
    Traceless operator bases, structure constants, the Lie and Jordan
    products, and axiom verification.
``states``
    Coordinate representation of density matrices, expectations,
    purity, and stratification by rank.
``poly``
    Degree-two polynomial coefficient arithmetic used to represent
    every field in closed form.
``tensors``
    The Poisson and symmetric tensor fields, Hamiltonian and gradient
    vector fields, brackets, and the pointwise complex structure.
``dynamics``
    Kossakowski-Lindblad generators, their exact vector-field
    decomposition, model builders, flows, and stationary sets.
``contraction``
    Lie transport of tensor fields, spectral asymptotics, contracted
    product tables, and limit-set algebras.
``cli``
    The ``geomstates`` command-line runner.
"""

from .errors import (
    BasisMismatchError,
    ContractionMismatchError,
    DegeneratePointError,
    DegreeOverflowError,
    DimensionError,
    GeomstatesError,
    IntegrationDivergedError,
    InvariantViolationError,
    LimitExistsError,
    NonHermitianError,
    NotAStateError,
)
from .poly import Poly, PolyTensorField, PolyVectorField
from .algebra import (
    AxiomReport,
    Observable,
    ObservableBasis,
    associative_product,
    axiom_residuals,
    build_basis,
    jordan_product,
    jordan_product_coeffs,
    lie_product,
    lie_product_coeffs,
    verify_lie_jordan_axioms,
)
from .states import (
    StateCoordinates,
    StratumTag,
    covariance,
    expectation,
    max_bloch_radius,
    purity,
    state_from_json,
    state_from_matrix,
    state_to_json,
    state_to_matrix,
    stratum,
    variance,
)
from .tensors import (
    complex_structure_at,
    expectation_poly,
    field_csv_rows,
    gradient_vf,
    hamiltonian_vf,
    jordan_bracket,
    poisson_bracket,
    poisson_field,
    symmetric_field,
)
from .dynamics import (
    LindbladModel,
    StationaryResult,
    Trajectory,
    affine_flow_map,
    integrate,
    kraus_vf,
    lindblad_parts,
    lindblad_vf,
    linear_map_matrix,
    model_bloch_field,
    model_double_bracket,
    model_gisin,
    model_kaufman_morrison,
    model_massive_decoherence,
    model_phase_damping,
    model_pure_decoherence,
    model_qubit_dissipation,
    model_three_level_decay,
    pure_decoherence_kraus,
    state_from_coords,
    stationary_points,
    vf_from_linear_map,
)
from .contraction import (
    ContractedTables,
    ContractionReport,
    DivergentMode,
    LimitAnalysis,
    LimitSetAlgebra,
    TensorFlowFamily,
    analyze_contraction,
    asymptotic_limit,
    contract_3level_decoherence,
    extract_contracted_products,
    flatten_field,
    flow_family,
    flow_tensor,
    format_product_table,
    lie_algebra_dimensions,
    lie_derivative,
    limit_set_algebra,
    matches_level_algebra,
    pushforward_affine,
    slot_label,
    tensor_pairs,
    unflatten_field,
    verify_contracted_axioms,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BasisMismatchError",
    "ContractedTables",
    "ContractionMismatchError",
    "ContractionReport",
    "DegeneratePointError",
    "DegreeOverflowError",
    "DimensionError",
    "DivergentMode",
    "GeomstatesError",
    "IntegrationDivergedError",
    "InvariantViolationError",
    "LimitAnalysis",
    "LimitExistsError",
    "LimitSetAlgebra",
    "LindbladModel",
    "NonHermitianError",
    "NotAStateError",
    "Observable",
    "ObservableBasis",
    "Poly",
    "PolyTensorField",
    "PolyVectorField",
    "StateCoordinates",
    "StationaryResult",
    "StratumTag",
    "TensorFlowFamily",
    "Trajectory",
    "affine_flow_map",
    "analyze_contraction",
    "associative_product",
    "asymptotic_limit",
    "axiom_residuals",
    "build_basis",
    "complex_structure_at",
    "contract_3level_decoherence",
    "covariance",
    "expectation",
    "expectation_poly",
    "extract_contracted_products",
    "field_csv_rows",
    "flatten_field",
    "flow_family",
    "flow_tensor",
    "format_product_table",
    "gradient_vf",
    "hamiltonian_vf",
    "integrate",
    "jordan_bracket",
    "jordan_product",
    "jordan_product_coeffs",
    "kraus_vf",
    "lie_algebra_dimensions",
    "lie_derivative",
    "lie_product",
    "lie_product_coeffs",
    "limit_set_algebra",
    "lindblad_parts",
    "lindblad_vf",
    "linear_map_matrix",
    "matches_level_algebra",
    "max_bloch_radius",
    "model_bloch_field",
    "model_double_bracket",
    "model_gisin",
    "model_kaufman_morrison",
    "model_massive_decoherence",
    "model_phase_damping",
    "model_pure_decoherence",
    "model_qubit_dissipation",
    "model_three_level_decay",
    "poisson_bracket",
    "poisson_field",
    "purity",
    "pure_decoherence_kraus",
    "pushforward_affine",
    "slot_label",
    "state_from_coords",
    "state_from_json",
    "state_from_matrix",
    "state_to_json",
    "state_to_matrix",
    "stationary_points",
    "stratum",
    "symmetric_field",
    "tensor_pairs",
    "unflatten_field",
    "variance",
    "verify_contracted_axioms",
    "verify_lie_jordan_axioms",
    "vf_from_linear_map",
    "__version__",
]
