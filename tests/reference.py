"""The scalar reference for the batch kernels' char-poly, Moebius and Jury
recurrences.

Plain Python over one polynomial or matrix: their sums and matrix products
are explicit loops, written in the floating-point order the batch kernels
replay column by column, so tests/test_kernels.py compares the two bit for
bit.  They live beside the tests because nothing in the package calls them.
"""

from math import copysign, sqrt

import numpy as np

from stabindex.kernels import BOUNDARY_ROOT, ZERO_LEADING, _scale, mobius_weights, routh_scan


def mobius_apply(coeffs):
    """Expand sum_j coeffs[j] (z+1)^j (z-1)^(n-j) against mobius_weights(n)."""
    n = coeffs.shape[0] - 1
    weights = mobius_weights(n)
    star = np.zeros(n + 1)
    for j in range(n + 1):
        for t in range(n + 1):
            star[t] += coeffs[j] * weights[j, t]
    return star


def jury_scan(coeffs, tol):
    """Number of roots with |x| < 1: conformal map to a half-plane + Routh scan.

    A ~0 leading coefficient is ZERO_LEADING.  routh_scan's ZERO_LEADING for
    the mapped polynomial is a degree drop: the input vanishes at x = 1, on
    the disk boundary, so it becomes BOUNDARY_ROOT.
    """
    n = coeffs.shape[0] - 1
    scale = _scale(coeffs, n + 1)
    if scale == 0.0 or abs(coeffs[n]) <= tol * scale:
        return ZERO_LEADING
    code = routh_scan(mobius_apply(coeffs), tol)
    return BOUNDARY_ROOT if code == ZERO_LEADING else code


def char_poly(a):
    """Monic characteristic polynomial det(xI - a), ascending coefficients.

    O(n^3): Householder reduction to upper Hessenberg form H, then La
    Budde's recurrence over the characteristic polynomials p_i of H's
    leading i x i blocks (R. Rehman and I. C. F. Ipsen, "La Budde's method
    for computing characteristic polynomials", 2011).  For column k the
    reflector I - tau v v^T, with alpha = |x| over x = H[k+1:, k],
    s = copysign(alpha, x[0]), v = x + s e_0 and
    tau = 1 / (alpha (alpha + |x[0]|)), maps x to -s e_0; tau = 0 where
    that denominator is 0, so a zero subcolumn is left as it is.  Every
    sum runs in ascending index order from its first term, and
    _char_poly_block replays these float operations column by column.
    """
    n = a.shape[0]
    h = a.tolist()
    for k in range(n - 2):
        m = n - k - 1
        x0 = h[k + 1][k]
        ss = x0 * x0
        for i in range(k + 2, n):
            ss += h[i][k] * h[i][k]
        alpha = sqrt(ss)
        s = copysign(alpha, x0)
        denom = alpha * (alpha + abs(x0))
        tau = 1.0 / denom if denom != 0.0 else 0.0
        v = [x0 + s] + [h[i][k] for i in range(k + 2, n)]
        vt = [vi * tau for vi in v]
        h[k + 1][k] = -s
        for i in range(k + 2, n):
            h[i][k] = 0.0
        # left update of rows and columns k+1..: H -= (tau v) (v^T H)
        for j in range(k + 1, n):
            w = h[k + 1][j] * v[0]
            for i in range(1, m):
                w += h[k + 1 + i][j] * v[i]
            for i in range(m):
                h[k + 1 + i][j] -= vt[i] * w
        # right update of all rows, columns k+1..: H -= (H v) (tau v)^T
        for row in h:
            u = row[k + 1] * v[0]
            for j in range(1, m):
                u += row[k + 1 + j] * v[j]
            for j in range(m):
                row[k + 1 + j] -= u * vt[j]
    # p_{i+1} = (x - H[i, i]) p_i - sum_m H[i-m, i] H[i, i-1] ... H[i-m+1, i-m] p_{i-m}
    polys = [[1.0]]
    for i in range(n):
        old = polys[i]
        d = h[i][i]
        new = [-(d * old[0])] + [old[j - 1] - d * old[j] for j in range(1, i + 1)] + [1.0]
        prod = 1.0
        for m in range(1, i + 1):
            prod *= h[i - m + 1][i - m]
            coef = h[i - m][i] * prod
            low = polys[i - m]
            for j in range(i - m + 1):
                new[j] -= coef * low[j]
        polys.append(new)
    return np.array(polys[n])
