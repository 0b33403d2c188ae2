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
from .kernels import lend

DEFAULT_TOL = 1e-12

_CODE_REASONS = {
    kernels.ZERO_PIVOT: "zero-pivot",
    kernels.BOUNDARY_ROOT: "boundary-root",
    kernels.ZERO_LEADING: "zero-leading-coefficient",
}

FAMILY_KINDS = ("cont-sys", "cont-eq", "disc-sys", "disc-eq")
METHODS = ("rh", "eigen", "auto")


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
    by the batch kernel on one column, on a lent workspace.
    """
    c = _as_coeffs(p)
    with lend() as ws:
        return kernels._mobius_block(c[:, None], ws)[:, 0].copy()


def jury_count(p, tol: float = DEFAULT_TOL) -> RootCount:
    """Count the roots of ``p`` with modulus < 1, with multiplicity.

    Computed as the half-plane count of ``mobius_star(p)``.  A degree drop
    in the transformed polynomial means p(1) ~ 0, a boundary root.
    """
    validate_tol(tol)
    c = _as_coeffs(p)
    with lend() as ws:
        code = kernels.jury_codes(c[:, None], tol, ws, np.empty(1, np.int64))[0]
    return RootCount.from_code(code)


def companion_matrix(p, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Companion matrix whose characteristic polynomial is ``p`` made monic.

    Raises ValueError for degree 0 or a leading coefficient within tolerance
    of zero (the batch rule, kernels._small_leads).  Built by the batch
    kernel on one column, on a lent workspace.
    """
    validate_tol(tol)
    c = _as_coeffs(p)[:, None]
    if c.shape[0] < 2:
        raise ValueError("companion matrix needs degree >= 1")
    with lend() as ws:
        keep = ~kernels._small_leads(c, tol, ws)
        if not keep[0]:
            raise ValueError("zero leading coefficient")
        return kernels._companion_block(c, keep, ws)[0].copy()


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
    codes = np.empty(1, np.int64)
    if region == "left-half-plane":
        kernels.eig_halfplane_codes(a[None, :, :], tol, codes)
    elif region == "disk":
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"disk radius must be a finite positive number, got {radius}")
        kernels.eig_disk_codes(a[None, :, :], np.array([radius]), tol, codes)
    else:
        raise ValueError(f"unknown region {region!r}")
    return RootCount.from_code(codes[0])


def char_poly(m) -> np.ndarray:
    """Monic characteristic polynomial det(xI - m), ascending coefficients.

    Householder reduction to Hessenberg form, then La Budde's recurrence:
    O(n^3) flops, run by the batch kernel on a one-matrix stack on a lent
    workspace.  At high n the coefficients lose enough accuracy that the
    sign scan leaves more rows indeterminate; "auto" hands those rows to
    eigenvalues.
    """
    a = _as_square(m)
    with lend() as ws:
        return kernels._char_poly_block(a[None], ws)[:, 0].copy()


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
    """The route ``method`` starts ``family`` on: "rh" (the sign scan) or
    "eigen".  "auto" is the sign scan at every order; batch_indices hands
    the rows it leaves indeterminate to the eigenvalue route."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return "rh" if method == "auto" else method


def block_rows(family: ModelFamily, method: str) -> int:
    """Rows per block of ``family`` on the route ``method`` resolves to:
    the width of one block of the route's kernel, whose working arrays fit
    kernels._BLOCK_BYTES.  batch_indices cuts its rows into such blocks,
    and the Monte Carlo layer draws blocks of this width, capped there at
    its CHUNK.  That is a char-poly block (kernels._char_poly_width,
    whose kernel and scan fit the budget, and one and a half budgets with
    a drawn block of as many rows beside them) for the sign scan of the
    matrix families, a Routh or Jury scan block (kernels._scan_width) for
    that of the equation families, and a (rows, n, n) stack
    (kernels._eigen_width) for both eigenvalue routes, the equation
    families' companion stacks included.
    """
    if resolve_method(family, method) == "eigen":
        return kernels._eigen_width(family.n)
    if family.kind in ("cont-sys", "disc-sys"):
        return kernels._char_poly_width(family.n)
    return kernels._scan_width(family.n)


def batch_indices(
    family: ModelFamily,
    params,
    method: str = "auto",
    tol: float = DEFAULT_TOL,
    workspace=None,
) -> np.ndarray:
    """Index codes for a (count, param_count) array of drawn parameters.

    Only this function knows the row layout: cont-sys is A row-major;
    disc-sys is (b, A row-major), counted within radius |b|; the equation
    families are coefficients highest degree first.  It is the one place
    that cuts rows into kernel blocks: blocks of block_rows(family, route)
    rows (the last one shorter), each unpacked into what its family's
    routes take (ascending coefficient columns, a (count, n, n) matrix
    stack, or that stack and the radii |b|) and classified in one scope of ``workspace``,
    a kernels.Workspace (the Monte Carlo layer passes each shard's), or of
    one that kernels.lend lends when it is None.  Under "auto" every row
    takes the sign scan, and the rows it leaves indeterminate take the
    eigenvalue route, cut the same way; such a row stays indeterminate only
    when eigenvalues fail as well, and then carries their code.  Returns int64
    codes (count k >= 0, or a negative indeterminate code from .kernels);
    they never depend on the blocks or the workspace.  Raises ValueError
    for a NaN or infinite parameter, which the routes would otherwise
    classify differently or not at all.
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
    n = family.n

    def codes_of(block, route, out):
        if family.kind in ("cont-eq", "disc-eq"):
            coeffs = block.T[::-1]
            if route == "eigen":
                region = "left-half-plane" if family.kind == "cont-eq" else "disk"
                return kernels.companion_region_codes(coeffs, region, tol, ws, out)
            if family.kind == "cont-eq":
                return kernels.routh_codes(coeffs, tol, ws, out)
            return kernels.jury_codes(coeffs, tol, ws, out)
        mats = block[:, -n * n :].reshape(-1, n, n)  # a disc-sys row has b first
        if family.kind == "cont-sys":
            if route == "rh":
                return kernels.batch_matrix_halfplane(mats, tol, ws, out)
            return kernels.eig_halfplane_codes(mats, tol, out)
        radii = np.abs(block[:, 0])
        if route == "rh":
            return kernels.batch_pencil_disk(mats, radii, tol, ws, out)
        return kernels.eig_disk_codes(mats, radii, tol, out)

    def classify(rows, route):
        """The codes of ``rows`` on ``route``, one block at a time."""
        out = np.empty(rows.shape[0], dtype=np.int64)
        step = block_rows(family, route)
        for start in range(0, rows.shape[0], step):
            part = slice(start, start + step)
            with ws:
                codes_of(rows[part], route, out[part])
        return out

    with lend() if workspace is None else workspace as ws:
        codes = classify(params, resolve_method(family, method))
        if method == "auto" and codes.min(initial=0) < 0:
            left = np.flatnonzero(codes < 0)
            codes[left] = classify(params[left], "eigen")
    return codes


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
