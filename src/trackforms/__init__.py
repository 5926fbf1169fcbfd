"""Train-track weight lattices, their skew intersection form, and
root-of-unity torus representations attached to ideal triangulations of
punctured surfaces."""

from .triangulation import (
    IdealTriangulation,
    TriangulationError,
    sigma_matrix,
    standard_triangulation,
    validate,
)
from .traintrack import (
    IntegralityViolation,
    ParityViolation,
    TrackError,
    TrainTrack,
    TriangulationTrack,
    from_switch_sums,
    from_triangulation,
    puncture_weight,
    puncture_weights,
    regions,
    switch_sums,
    theta,
)
from .lattice import (
    NormalForm,
    StructureReport,
    hermite_normal_form,
    lattice_equal,
    skew_normal_form,
    theta_matrix,
    verify_structure,
    weight_lattice_basis,
)

__all__ = [
    "IdealTriangulation",
    "IntegralityViolation",
    "NormalForm",
    "ParityViolation",
    "StructureReport",
    "TrackError",
    "TrainTrack",
    "TriangulationError",
    "TriangulationTrack",
    "from_switch_sums",
    "from_triangulation",
    "hermite_normal_form",
    "lattice_equal",
    "puncture_weight",
    "puncture_weights",
    "regions",
    "sigma_matrix",
    "skew_normal_form",
    "standard_triangulation",
    "switch_sums",
    "theta",
    "theta_matrix",
    "validate",
    "verify_structure",
    "weight_lattice_basis",
]
