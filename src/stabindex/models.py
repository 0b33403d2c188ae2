"""The four random model families and the stability index of one sample.

Every family draws its parameters as i.i.d. standard normals.  The
stability index of a sample is the number of eigenvalues in the stable
region: real part < 0 for the continuous families, modulus < 1 (or < |b|
for the matrix pencil b x_{k+1} = A x_k) for the discrete ones.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import kernels
from .polyroot import DEFAULT_TOL, RootCount, validate_tol

FAMILY_KINDS = ("cont-sys", "cont-eq", "disc-sys", "disc-eq")
METHODS = ("rh", "eigen", "auto")

# "auto" takes the sign-scan route (characteristic polynomial + Routh scan)
# below this order and batched eigenvalues from it on.  Through n = 10, the
# orders verify's oracle checks for the matrix families, the scan agrees
# with eigenvalues on every row both certify.  Speed no longer argues for
# the switch: with the O(n^3) characteristic polynomial the scan is ahead of
# LAPACK for the matrix families at every order measured, 4.9x at cont-sys
# n = 12 and 2.4x at n = 20 (32768 samples, one thread).  Certification
# still does: at high order the scan calls rows indeterminate rather than
# miscounting them, and for cont-sys at n = 22 that already exceeds the
# estimation's 1e-3 budget (28 of 5000 rows).  Moving the switch changes
# the reports at every order it passes, so it stays here until each
# family's certification limit is measured.
AUTO_EIGEN_MIN_N = 11


def validate_integer(name: str, value) -> None:
    """Raise ValueError unless value is an integer; numpy integers count,
    bool does not."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
        validate_integer("n", self.n)
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

    Householder reduction to Hessenberg form, then La Budde's recurrence:
    O(n^3) flops, several times faster than batched eigenvalues at n = 12.
    At high n the coefficients lose enough accuracy that the sign scan
    stops certifying rows; that, not speed, is why "auto" leaves this route
    from AUTO_EIGEN_MIN_N on.
    """
    a = np.ascontiguousarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError("matrix must be square and non-empty")
    return kernels.char_poly(a)


def batch_indices(
    family: ModelFamily, params, method: str = "auto", tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Index codes for a (count, param_count) block of drawn parameters.

    Only this function knows the row layout: cont-sys is A row-major;
    disc-sys is (b, A row-major), counted within radius |b|; the equation
    families are coefficients highest degree first.  Each block is unpacked
    once into what both routes of its family take: ascending coefficient
    columns, a (count, n, n) matrix stack, or that stack and the radii |b|.
    Returns int64 codes (count k >= 0, or a negative indeterminate code from
    .kernels).  Raises ValueError for a NaN or infinite parameter, which the
    routes would otherwise classify differently or not at all.
    """
    params = np.ascontiguousarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != family.param_count:
        raise ValueError(
            f"params must have shape (count, {family.param_count}) for {family}"
        )
    if not np.isfinite(params).all():
        raise ValueError("params must be finite")
    validate_tol(tol)
    how = resolve_method(family, method)
    n = family.n
    if family.kind == "cont-eq":
        coeffs = params.T[::-1]
        if how == "rh":
            return kernels.routh_codes(coeffs, tol)
        return kernels.companion_region_codes(coeffs, "left-half-plane", tol)
    if family.kind == "disc-eq":
        coeffs = params.T[::-1]
        if how == "rh":
            return kernels.jury_codes(coeffs, tol)
        return kernels.companion_region_codes(coeffs, "disk", tol)
    if family.kind == "cont-sys":
        mats = params.reshape(-1, n, n)
        if how == "rh":
            return kernels.batch_matrix_halfplane(mats, tol)
        return kernels.eig_halfplane_codes(mats, tol)
    # disc-sys
    radii = np.abs(params[:, 0])
    mats = params[:, 1:].reshape(-1, n, n)
    if how == "rh":
        return kernels.batch_pencil_disk(mats, radii, tol)
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
