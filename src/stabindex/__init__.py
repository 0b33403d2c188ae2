"""Stability-index distributions of random linear dynamical systems.

Four families of linear systems with i.i.d. standard-normal parameters are
sampled, the stability index (dimension of the stable manifold of the
origin) is counted per sample by exact sign-scan criteria or an eigenvalue
oracle, and the observed frequencies are refined by least squares under
the affine relations the true probabilities satisfy.  Exact values are
provided where closed forms exist.
"""

import types as _types

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

# every public name the imports above bind (submodules excepted), so a new
# export needs only its import
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
) + ["__version__"]
