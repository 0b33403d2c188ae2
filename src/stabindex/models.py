"""The stability index of one sample: root counts by region, and the four
random model families.

Every family draws its parameters as i.i.d. standard normals.  The
stability index of a sample is the number of eigenvalues in the stable
region: real part < 0 for the continuous families, modulus < 1 (or < |b|
for the matrix pencil b x_{k+1} = A x_k) for the discrete ones.

Counts come back as :class:`RootCount`: a definite ``Count(k)``, or an
indeterminate verdict naming its reason, which the Monte Carlo layer counts
rather than resolving silently.  Polynomials follow the coefficient
convention of .kernels.  Each entry point checks its input through the one
helper for its kind, and a NaN or infinite entry is a ValueError.
"""

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import kernels

DEFAULT_TOL = 1e-12

_CODE_REASONS = {
    kernels.ZERO_PIVOT: "zero-pivot",
    kernels.BOUNDARY_ROOT: "boundary-root",
    kernels.ZERO_LEADING: "zero-leading-coefficient",
}

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


@dataclass(frozen=True)
class RootCount:
    """Definite root count, or an indeterminate verdict with a reason."""

    count: int | None = None
    reason: str | None = None

    def __post_init__(self):
        if (self.count is None) == (self.reason is None):
            raise ValueError("exactly one of count/reason must be set")

    @property
    def determinate(self) -> bool:
        return self.count is not None

    @classmethod
    def from_code(cls, code: int) -> "RootCount":
        code = int(code)
        if code >= 0:
            return cls(count=code)
        return cls(reason=_CODE_REASONS[code])

    def __str__(self) -> str:
        if self.determinate:
            return f"Count({self.count})"
        return f"Indeterminate({self.reason})"


def validate_integer(name: str, value) -> None:
    """Raise ValueError unless value is an integer; numpy integers count,
    bool does not."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def validate_tol(tol: float) -> None:
    """Reject a tolerance that is not a finite positive number.

    NaN and inf slip past a plain ``tol <= 0`` test and then turn every
    sample indeterminate.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol}")


def _as_coeffs(p) -> np.ndarray:
    c = np.ascontiguousarray(p, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("polynomial must be a non-empty 1-D coefficient array")
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    return c


def _as_square(m) -> np.ndarray:
    a = np.ascontiguousarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError("matrix must be square and non-empty")
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    return a


def routh_hurwitz_count(p, tol: float = DEFAULT_TOL) -> RootCount:
    """Count the roots of ``p`` with negative real part, with multiplicity.

    The count is read off the sign changes in the first column of the Routh
    array.  All-zero rows (even divisors with roots in +/- pairs) are
    repaired exactly via the divisor derivative when the divisor has no
    imaginary-axis roots; any other ~0 pivot comes back indeterminate.
    Tolerances are relative to the largest coefficient.
    """
    validate_tol(tol)
    return RootCount.from_code(kernels.routh_scan(_as_coeffs(p), tol))


def mobius_star(p) -> np.ndarray:
    """Transform ``p`` through x = (z+1)/(z-1): sum_j p[j] (z+1)^j (z-1)^(n-j).

    Roots of ``p`` inside the unit disk map to roots of the result with
    negative real part.  The returned array always has length deg(p) + 1;
    the leading entry is zero exactly when p(1) = 0 (degree drop).
    Coefficients are accumulated against exact integer binomial weights,
    by the batch kernel on one column.
    """
    return kernels._mobius_block(_as_coeffs(p)[:, None])[:, 0]


def jury_count(p, tol: float = DEFAULT_TOL) -> RootCount:
    """Count the roots of ``p`` with modulus < 1, with multiplicity.

    Computed as the half-plane count of ``mobius_star(p)``.  A degree drop
    in the transformed polynomial means p(1) ~ 0, a boundary root.
    """
    validate_tol(tol)
    return RootCount.from_code(kernels.jury_codes(_as_coeffs(p)[:, None], tol)[0])


def companion_matrix(p, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Companion matrix whose characteristic polynomial is ``p`` made monic.

    Raises ValueError for degree 0 or a leading coefficient within tolerance
    of zero.
    """
    validate_tol(tol)
    c = _as_coeffs(p)
    n = c.size - 1
    if n < 1:
        raise ValueError("companion matrix needs degree >= 1")
    scale = np.abs(c).max()
    if scale == 0.0 or abs(c[n]) <= tol * scale:
        raise ValueError("zero leading coefficient")
    comp = np.zeros((n, n))
    comp[np.arange(n - 1), np.arange(1, n)] = 1.0
    comp[n - 1, :] = -c[:n] / c[n]
    return comp


def eigen_region_count(
    m, region: str = "left-half-plane", radius: float = 1.0, tol: float = DEFAULT_TOL
) -> RootCount:
    """Count eigenvalues of ``m`` strictly inside a region.

    region is "left-half-plane" or "disk" (centred at 0 with ``radius``).
    Eigenvalues within a relative tolerance of the region boundary make the
    result indeterminate.  A LinAlgError from the eigenvalue iteration is a
    distinct failure and propagates.
    """
    validate_tol(tol)
    a = _as_square(m)
    if region == "left-half-plane":
        codes = kernels.eig_halfplane_codes(a[None, :, :], tol)
    elif region == "disk":
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"disk radius must be a finite positive number, got {radius}")
        codes = kernels.eig_disk_codes(a[None, :, :], np.array([radius]), tol)
    else:
        raise ValueError(f"unknown region {region!r}")
    return RootCount.from_code(codes[0])


def char_poly(m) -> np.ndarray:
    """Monic characteristic polynomial det(xI - m), ascending coefficients.

    Householder reduction to Hessenberg form, then La Budde's recurrence:
    O(n^3) flops, run by the batch kernel on a one-matrix stack.  At high
    n the coefficients lose enough accuracy that the sign scan stops
    certifying rows; that, not speed, is why "auto" leaves this route from
    AUTO_EIGEN_MIN_N on.
    """
    return kernels._char_poly_block(_as_square(m)[None])[:, 0]


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


def block_rows(family: ModelFamily, method: str, cap: int) -> int:
    """Rows per drawn block of ``family`` on the route ``method`` resolves
    to, at most ``cap``: one char-poly block (kernels._char_poly_width) for
    the sign scan of the matrix families, a (rows, n, n) stack within
    kernels._BLOCK_BYTES (kernels._eigen_width) for both eigenvalue routes,
    the equation families' companion stacks included, and ``cap`` itself
    for the equation families' scans, which block their own working arrays.
    """
    how = resolve_method(family, method)
    if how == "eigen":
        rows = kernels._eigen_width(family.n)
    elif family.kind in ("cont-sys", "disc-sys"):
        rows = kernels._char_poly_width(family.n)
    else:
        rows = cap
    return min(cap, rows)


def batch_indices(
    family: ModelFamily,
    params,
    method: str = "auto",
    tol: float = DEFAULT_TOL,
    workspace=None,
) -> np.ndarray:
    """Index codes for a (count, param_count) block of drawn parameters.

    Only this function knows the row layout: cont-sys is A row-major;
    disc-sys is (b, A row-major), counted within radius |b|; the equation
    families are coefficients highest degree first.  Each block is unpacked
    once into what both routes of its family take: ascending coefficient
    columns, a (count, n, n) matrix stack, or that stack and the radii |b|.
    Returns int64 codes (count k >= 0, or a negative indeterminate code from
    .kernels).  Raises ValueError for a NaN or infinite parameter, which the
    routes would otherwise classify differently or not at all.  The sign
    scan of the matrix families takes its working arrays from
    ``workspace``, a kernels.Workspace, when one is given (the Monte Carlo
    layer passes each shard's); the codes never depend on it.
    """
    params = np.ascontiguousarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != family.param_count:
        raise ValueError(
            f"params must have shape (count, {family.param_count}) for {family}"
        )
    # a NaN reaches both extremes and an infinity one, with no temporary
    if not (np.isfinite(params.min(initial=0.0)) and np.isfinite(params.max(initial=0.0))):
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
            return kernels.batch_matrix_halfplane(mats, tol, workspace)
        return kernels.eig_halfplane_codes(mats, tol)
    # disc-sys
    radii = np.abs(params[:, 0])
    mats = params[:, 1:].reshape(-1, n, n)
    if how == "rh":
        return kernels.batch_pencil_disk(mats, radii, tol, workspace)
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
