"""The scalar reference for the batch kernels' char-poly, Moebius, Jury
and companion constructions, and an exact referee for the root counts of
all four families.

Plain Python over one polynomial or matrix: their sums and matrix products
are explicit loops, written in the floating-point order the batch kernels
replay column by column, so tests/test_kernels.py compares the two bit for
bit.  They live beside the tests because nothing in the package calls them.
The referee counts in exact rational arithmetic instead: every float64 is
a dyadic rational, so Fraction(x) is exact, and the count it gives is the
drawn polynomial's or matrix's own, independent of both float routes.
HighWaterWorkspace measures how much of a workspace the blocks use.
"""

from fractions import Fraction
from functools import lru_cache
from math import copysign, isqrt, sqrt

import numpy as np

from stabindex.kernels import (
    BOUNDARY_ROOT,
    ZERO_LEADING,
    Workspace,
    _scale,
    mobius_weights,
    routh_scan,
)


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


def companion(coeffs):
    """Companion matrix of ascending coefficients with c[n] != 0: np.zeros,
    ones on the superdiagonal, and (-c[:n]) / c[n] as the last row."""
    n = coeffs.shape[0] - 1
    comp = np.zeros((n, n))
    comp[np.arange(n - 1), np.arange(1, n)] = 1.0
    comp[n - 1] = (-coeffs[:n]) / coeffs[n]
    return comp


def exact_routh_count(coeffs):
    """The exact number of roots with Re < 0 of ascending coefficients, by
    the Routh array over Fraction, or None where the array cannot count: an
    exact zero leading coefficient, or an exact zero pivot (an all-zero row
    starts with one).  With every pivot nonzero no root lies on the
    imaginary axis, and the sign changes of the pivots count the roots
    with Re > 0."""
    c = [Fraction(x) for x in coeffs]
    n = len(c) - 1
    if c[n] == 0:
        return None
    w = n // 2 + 1
    zeros = [Fraction(0)] * w
    prev = (c[n::-2] + zeros)[:w]
    cur = (c[n - 1 :: -2] + zeros)[:w]  # never read at n = 0
    changes = 0
    for _ in range(n):  # cur holds the next row of the array
        if cur[0] == 0:
            return None
        changes += (cur[0] > 0) != (prev[0] > 0)
        q = prev[0] / cur[0]
        prev, cur = cur, [prev[j + 1] - q * cur[j + 1] for j in range(w - 1)] + [Fraction(0)]
    return n - changes


@lru_cache(maxsize=None)
def exact_mobius_weights(n):
    """Rows j = 0..n of W[j][t] = [z^t] (z+1)^j (z-1)^(n-j) in Python
    integers, by exact convolution: row 0 is (z-1) times order n-1's row 0,
    row j its row j - 1 times (z+1)."""
    if n == 0:
        return ((1,),)

    def times(poly, c):  # poly * (z + c)
        return tuple(c * a + b for a, b in zip(poly + (0,), (0,) + poly))

    last = exact_mobius_weights(n - 1)
    return (times(last[0], -1),) + tuple(times(row, 1) for row in last)


def exact_mobius(coeffs):
    """sum_j c[j] (z+1)^j (z-1)^(n-j) over Fraction, ascending."""
    n = len(coeffs) - 1
    star = [Fraction(0)] * (n + 1)
    for c, row in zip(coeffs, exact_mobius_weights(n)):
        c = Fraction(c)
        for t, weight in enumerate(row):
            star[t] += c * weight
    return star


def berkowitz(a):
    """det(xI - a) of a square matrix of Python integers, ascending, by
    Berkowitz's division-free recurrence: with a's leading k x k block A,
    the rest of its row k R and column k C, p_{k+1} is the Toeplitz
    matrix of (1, -a[k][k], -R C, -R A C, ..., -R A^(k-1) C) times p_k."""
    poly = [1]  # descending
    for k in range(len(a)):
        col = [a[i][k] for i in range(k)]
        t = [1, -a[k][k]]
        for _ in range(k):
            t.append(-sum(a[k][j] * col[j] for j in range(k)))
            col = [sum(a[i][j] * col[j] for j in range(k)) for i in range(k)]
        poly = [sum(t[i - j] * poly[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    return poly[::-1]


def exact_index(kind, row):
    """The exact stability index of one drawn row, laid out as
    models.batch_indices reads it, or None where exact_routh_count stops.

    Equation families: the roots with Re < 0 of the coefficients (highest
    degree first), for disc-eq those with |x| < 1 (the Moebius image's
    roots with Re < 0).  Matrix families: the row is scaled by the least
    power of two D that makes every entry an integer, which scales the
    eigenvalues and the radius |b| alike.  cont-sys counts the roots of
    det(xI - DA) (berkowitz) with Re < 0; disc-sys counts the roots with
    |y| < 1 of q(y) = det(r y I - DA), r = D|b|, whose coefficient k is
    r^k times that of det(xI - DA), and gives None at b = 0."""
    if kind in ("cont-eq", "disc-eq"):
        coeffs = list(row[::-1])
        if kind == "cont-eq":
            return exact_routh_count(coeffs)
    else:
        scale = max(Fraction(x).denominator for x in row)
        entries = [int(Fraction(x) * scale) for x in row]
        n = isqrt(len(row))
        a = [entries[-n * n :][i * n : (i + 1) * n] for i in range(n)]
        poly = berkowitz(a)
        if kind == "cont-sys":
            return exact_routh_count(poly)
        r = abs(entries[0])
        coeffs = [c * r**k for k, c in enumerate(poly)]
    if coeffs[-1] == 0:
        return None
    return exact_routh_count(exact_mobius(coeffs))


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


class HighWaterWorkspace(Workspace):
    """A Workspace that records in .high the most bytes it has had taken
    at once, the part of its slab that blocks have used."""

    high = 0

    def take(self, shape, dtype=np.float64):
        out = super().take(shape, dtype)
        self.high = max(self.high, self._top)
        return out
