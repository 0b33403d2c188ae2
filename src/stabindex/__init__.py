"""Stability-index distributions of random linear dynamical systems.

Four families of linear systems with i.i.d. standard-normal parameters are
sampled, the stability index (dimension of the stable manifold of the
origin) is counted per sample by exact sign-scan criteria or an eigenvalue
oracle, and the observed frequencies are refined by least squares under
the affine relations the true probabilities satisfy.  Exact values are
provided where closed forms exist.
"""

from .constraints import (
    ConstraintSystem,
    InconsistentConstraints,
    build_constraints,
    even_parity_sum,
    exact_probabilities,
    half_plane_sign_prob,
    relation_strings,
)
from .models import (
    DEFAULT_TOL,
    FAMILY_KINDS,
    METHODS,
    ModelFamily,
    RootCount,
    batch_indices,
    char_poly,
    companion_matrix,
    eigen_region_count,
    index_from_params,
    jury_count,
    mobius_star,
    resolve_method,
    routh_hurwitz_count,
    sample_index,
)
from .montecarlo import (
    DEFAULT_SEED,
    ConvergenceResult,
    EstimationAbort,
    EstimationConfig,
    IndexHistogram,
    ProbabilityVector,
    convergence_study,
    frequencies,
    merge,
    run_estimation,
    run_shard,
    run_shards,
    shard_stream,
)
from .refine import RepairFailed, least_squares_refine, nonneg_repair

__version__ = "0.1.0"

__all__ = [
    "ConstraintSystem",
    "ConvergenceResult",
    "DEFAULT_SEED",
    "DEFAULT_TOL",
    "EstimationAbort",
    "EstimationConfig",
    "FAMILY_KINDS",
    "IndexHistogram",
    "InconsistentConstraints",
    "METHODS",
    "ModelFamily",
    "ProbabilityVector",
    "RepairFailed",
    "RootCount",
    "batch_indices",
    "build_constraints",
    "char_poly",
    "companion_matrix",
    "convergence_study",
    "eigen_region_count",
    "even_parity_sum",
    "exact_probabilities",
    "frequencies",
    "half_plane_sign_prob",
    "index_from_params",
    "jury_count",
    "least_squares_refine",
    "merge",
    "mobius_star",
    "nonneg_repair",
    "relation_strings",
    "resolve_method",
    "routh_hurwitz_count",
    "run_estimation",
    "run_shard",
    "run_shards",
    "sample_index",
    "shard_stream",
    "__version__",
]
