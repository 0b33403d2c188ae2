"""The four random model families and the stability index of one sample.

Every family draws its parameters as i.i.d. standard normals.  The
stability index of a sample is the number of eigenvalues in the stable
region: real part < 0 for the continuous families, modulus < 1 (or < |b|
for the matrix pencil b x_{k+1} = A x_k) for the discrete ones.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import mobius_weights
from .polyroot import DEFAULT_TOL, RootCount, validate_tol

FAMILY_KINDS = ("cont-sys", "cont-eq", "disc-sys", "disc-eq")
METHODS = ("rh", "eigen", "auto")

# "auto" computes the index from the characteristic polynomial for small n
# and switches to direct eigenvalues from this order on, where the trace
# recurrence's coefficients grow ill-conditioned.  The switch is for
# conditioning, not speed: the batch sign-scan kernels outrun batched
# eigenvalues at every n from 2 to 8, for all four families.
AUTO_EIGEN_MIN_N = 5


@dataclass(frozen=True)
class ModelFamily:
    """One of the four sampled families at a fixed dimension/order n.

    cont-sys  x' = A x with A an n x n normal matrix (n^2 parameters)
    cont-eq   order-n scalar ODE, n+1 normal coefficients
    disc-sys  b x_{k+1} = A x_k, scalar b plus n x n matrix (n^2 + 1)
    disc-eq   order-n scalar difference equation, n+1 normal coefficients
    """

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def param_count(self) -> int:
        if self.kind == "cont-sys":
            return self.n * self.n
        if self.kind == "disc-sys":
            return self.n * self.n + 1
        return self.n + 1

    @property
    def symmetric(self) -> bool:
        """Whether the index distribution satisfies p_k = p_{n-k}.

        Only disc-sys is not, and it admits no relation beyond total mass,
        so this also decides whether refinement has anything to do.
        """
        return self.kind != "disc-sys"

    def __str__(self) -> str:
        return f"{self.kind}(n={self.n})"


def resolve_method(family: ModelFamily, method: str) -> str:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method != "auto":
        return method
    return "rh" if family.n < AUTO_EIGEN_MIN_N else "eigen"


def char_poly(m) -> np.ndarray:
    """Monic characteristic polynomial det(xI - m), ascending coefficients.

    Trace-recurrence evaluation; exactness degrades for large n, which is
    why "auto" sampling abandons this route beyond small dimensions.
    """
    a = np.ascontiguousarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError("matrix must be square and non-empty")
    return kernels.char_poly(a)


def batch_indices(
    family: ModelFamily, params, method: str = "auto", tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Index codes for a (count, param_count) block of drawn parameters.

    Row layout: cont-sys is A row-major; disc-sys is (b, A row-major); the
    equation families are coefficients highest degree first.  Returns int64
    codes (count k >= 0, or a negative indeterminate code from .kernels).
    """
    params = np.ascontiguousarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != family.param_count:
        raise ValueError(
            f"params must have shape (count, {family.param_count}) for {family}"
        )
    validate_tol(tol)
    how = resolve_method(family, method)
    n = family.n
    if family.kind == "cont-eq":
        if how == "rh":
            return kernels.batch_poly_halfplane(params, tol)
        return kernels.companion_region_codes(params, "left-half-plane", tol)
    if family.kind == "disc-eq":
        if how == "rh":
            return kernels.batch_poly_disk(params, mobius_weights(n), tol)
        return kernels.companion_region_codes(params, "disk", tol)
    if family.kind == "cont-sys":
        mats = params.reshape(-1, n, n)
        if how == "rh":
            return kernels.batch_matrix_halfplane(mats, tol)
        return kernels.eig_halfplane_codes(mats, tol)
    # disc-sys
    if how == "rh":
        return kernels.batch_pencil_disk(params, n, mobius_weights(n), tol)
    radii = np.abs(params[:, 0])
    mats = params[:, 1:].reshape(-1, n, n)
    return kernels.eig_disk_codes(mats, radii, tol)


def index_from_params(
    family: ModelFamily, params, method: str = "auto", tol: float = DEFAULT_TOL
) -> RootCount:
    """Stability index of a single sample given its drawn parameters."""
    params = np.asarray(params, dtype=float)
    if params.ndim != 1:
        raise ValueError("params must be a 1-D parameter vector")
    codes = batch_indices(family, params[None, :], method, tol)
    return RootCount.from_code(codes[0])


def sample_index(
    family: ModelFamily,
    rng: np.random.Generator,
    method: str = "auto",
    tol: float = DEFAULT_TOL,
) -> RootCount:
    """Draw one sample from ``family`` and return its stability index.

    Consumes exactly ``family.param_count`` standard-normal variates from
    ``rng`` regardless of the outcome, so parallel substreams stay aligned.
    """
    params = rng.standard_normal(family.param_count)
    return index_from_params(family, params, method, tol)
