"""Root counting by region for real polynomials.

A polynomial is represented by a plain 1-D array of coefficients in
ascending order: ``coeffs[j]`` multiplies ``x**j`` and the array length is
degree + 1.  A polynomial is admissible for counting when its leading
coefficient is nonzero relative to the largest coefficient.

Counts come back as :class:`RootCount`, which is either a definite
``Count(k)`` or an indeterminate verdict naming the reason (``zero-pivot``,
``boundary-root`` or ``zero-leading-coefficient``).  Indeterminate samples
are rare under the sampled coefficient distributions but must be detected
rather than silently resolved; the Monte Carlo layer counts them
separately.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import BOUNDARY_ROOT, ZERO_LEADING, ZERO_PIVOT

DEFAULT_TOL = 1e-12

REASON_ZERO_PIVOT = "zero-pivot"
REASON_BOUNDARY_ROOT = "boundary-root"
REASON_ZERO_LEADING = "zero-leading-coefficient"

_CODE_REASONS = {
    ZERO_PIVOT: REASON_ZERO_PIVOT,
    BOUNDARY_ROOT: REASON_BOUNDARY_ROOT,
    ZERO_LEADING: REASON_ZERO_LEADING,
}


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
    return c


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
    Coefficients are accumulated against exact integer binomial weights.
    """
    return kernels.mobius_apply(_as_coeffs(p))


def jury_count(p, tol: float = DEFAULT_TOL) -> RootCount:
    """Count the roots of ``p`` with modulus < 1, with multiplicity.

    Computed as the half-plane count of ``mobius_star(p)``.  A degree drop
    in the transformed polynomial means p(1) ~ 0, a boundary root.
    """
    validate_tol(tol)
    return RootCount.from_code(kernels.jury_scan(_as_coeffs(p), tol))


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
    a = np.ascontiguousarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError("matrix must be square and non-empty")
    if region == "left-half-plane":
        codes = kernels.eig_halfplane_codes(a[None, :, :], tol)
    elif region == "disk":
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"disk radius must be a finite positive number, got {radius}")
        codes = kernels.eig_disk_codes(a[None, :, :], np.array([radius]), tol)
    else:
        raise ValueError(f"unknown region {region!r}")
    return RootCount.from_code(codes[0])
