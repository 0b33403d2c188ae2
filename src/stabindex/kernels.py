"""Hot numeric kernels for per-sample index computation.

Coefficient convention: a polynomial is a 1-D float64 array with
``coeffs[j]`` multiplying ``x**j``, so ``coeffs[-1]`` is the leading
coefficient.

Root-count results are integer codes: ``k >= 0`` is a definite count, and
the negative constants below are the indeterminate verdicts.  The scalar
kernels are plain Python over numpy arrays, called once per sample by the
batch loops.  Their sums and matrix products are explicit loops: that
floating-point order fixes every histogram bit for bit, so a faster
version must reproduce it exactly.
"""

from functools import lru_cache

import numpy as np

ZERO_PIVOT = -1
BOUNDARY_ROOT = -2
ZERO_LEADING = -3


def has_nonneg_real_root(d):
    """Whether the real polynomial ``d`` (ascending coeffs) has a root s >= 0.

    Sturm-chain sign variations at 0 and +inf.  Only ever called on the tiny
    auxiliary polynomials arising from all-zero rows in the Routh scheme;
    degenerate chains (shared factors, repeated roots) report True, which the
    caller treats as a boundary case.
    """
    m = d.shape[0]
    scale = 0.0
    for j in range(m):
        v = abs(d[j])
        if v > scale:
            scale = v
    if scale == 0.0:
        return True
    eps = 1e-12 * scale
    deg = m - 1
    while deg > 0 and abs(d[deg]) <= eps:
        deg -= 1
    if deg == 0:
        return abs(d[0]) <= eps
    if abs(d[0]) <= eps:
        return True  # root at s = 0

    a = np.zeros(deg + 1)
    b = np.zeros(deg + 1)
    for j in range(deg + 1):
        a[j] = d[j]
    da = deg
    for j in range(deg):
        b[j] = (j + 1) * d[j + 1]
    db = deg - 1

    vals0 = np.zeros(deg + 2)
    leads = np.zeros(deg + 2)
    vals0[0] = a[0]
    leads[0] = a[da]
    length = 1
    while True:
        vals0[length] = b[0]
        leads[length] = b[db]
        length += 1
        if db == 0:
            break
        # a <- remainder of a by b, then negate (next chain element)
        for k in range(da, db - 1, -1):
            q = a[k] / b[db]
            if q != 0.0:
                shift = k - db
                for j in range(db):
                    a[shift + j] -= q * b[j]
            a[k] = 0.0
        ra = db - 1
        rscale = 0.0
        for j in range(ra + 1):
            v = abs(a[j])
            if v > rscale:
                rscale = v
        if rscale == 0.0 or rscale <= eps:
            return True  # nontrivial gcd: treat as boundary-suspicious
        while ra > 0 and abs(a[ra]) <= 1e-12 * rscale:
            ra -= 1
        for j in range(ra + 1):
            a[j] = -a[j]
        tmp = a
        a = b
        b = tmp
        da = db
        db = ra

    v0 = 0
    last = 0
    for i in range(length):
        v = vals0[i]
        if abs(v) <= eps:
            continue
        s = 1 if v > 0.0 else -1
        if last != 0 and s != last:
            v0 += 1
        last = s
    vinf = 0
    last = 0
    for i in range(length):
        v = leads[i]
        if abs(v) <= eps:
            continue
        s = 1 if v > 0.0 else -1
        if last != 0 and s != last:
            vinf += 1
        last = s
    return (v0 - vinf) > 0


def routh_scan(coeffs, tol):
    """Number of roots with Re < 0, or a negative indeterminate code.

    Sign changes in the first column of the Routh array count the roots with
    positive real part; the result is degree minus that.  Pivot and zero-row
    tests are relative to the largest input coefficient.  An all-zero row
    signals an even divisor with roots in +/- pairs; it is repaired exactly
    with the divisor's derivative once the divisor is certified free of
    imaginary-axis roots.  An isolated ~0 pivot cannot be resolved without
    perturbing the array, so it is reported as ZERO_PIVOT.
    """
    n = coeffs.shape[0] - 1
    scale = 0.0
    for j in range(n + 1):
        v = abs(coeffs[j])
        if v > scale:
            scale = v
    if scale == 0.0:
        return ZERO_LEADING
    thr = tol * scale
    if abs(coeffs[n]) <= thr:
        return ZERO_LEADING
    if n == 0:
        return 0

    w = n // 2 + 1
    prev = np.zeros(w)
    cur = np.zeros(w)
    for j in range(w):
        prev[j] = coeffs[n - 2 * j]
    for j in range(w):
        idx = n - 1 - 2 * j
        if idx >= 0:
            cur[j] = coeffs[idx]

    changes = 0
    last = 1 if prev[0] > 0.0 else -1
    deg = n - 1  # degree labelling the `cur` row
    while True:
        allzero = True
        for j in range(w):
            if abs(cur[j]) > thr:
                allzero = False
                break
        if allzero:
            m = deg + 1  # degree of the even divisor held in `prev`
            if m % 2 == 1:
                return BOUNDARY_ROOT  # divisor vanishes at 0
            half = m // 2
            d = np.zeros(half + 1)
            for j in range(half + 1):
                # divisor sum_j prev[j] x^(m-2j); its imaginary-axis roots
                # correspond to roots s >= 0 of sum_j (-1)^j prev[j] s^(half-j)
                if j % 2 == 0:
                    d[half - j] = prev[j]
                else:
                    d[half - j] = -prev[j]
            if has_nonneg_real_root(d):
                return BOUNDARY_ROOT
            for j in range(w):
                cur[j] = (m - 2 * j) * prev[j]
        if abs(cur[0]) <= thr:
            return ZERO_PIVOT
        s = 1 if cur[0] > 0.0 else -1
        if s != last:
            changes += 1
        last = s
        if deg == 0:
            break
        nxt = np.zeros(w)
        piv = cur[0]
        top = prev[0]
        for j in range(w - 1):
            nxt[j] = (piv * prev[j + 1] - top * cur[j + 1]) / piv
        prev = cur
        cur = nxt
        deg -= 1
    return n - changes


def mobius_apply(coeffs, weights):
    """Expand sum_j coeffs[j] (z+1)^j (z-1)^(n-j) using precomputed weights."""
    n = coeffs.shape[0] - 1
    star = np.zeros(n + 1)
    for j in range(n + 1):
        c = coeffs[j]
        if c != 0.0:
            for t in range(n + 1):
                star[t] += c * weights[j, t]
    return star


def jury_scan(coeffs, weights, tol):
    """Number of roots with |x| < 1: conformal map to a half-plane + Routh scan.

    A degree drop in the transformed polynomial means the input vanishes at
    x = 1, i.e. on the disk boundary.
    """
    n = coeffs.shape[0] - 1
    scale = 0.0
    for j in range(n + 1):
        v = abs(coeffs[j])
        if v > scale:
            scale = v
    if scale == 0.0:
        return ZERO_LEADING
    if abs(coeffs[n]) <= tol * scale:
        return ZERO_LEADING
    star = mobius_apply(coeffs, weights)
    sscale = 0.0
    for j in range(n + 1):
        v = abs(star[j])
        if v > sscale:
            sscale = v
    if sscale == 0.0 or abs(star[n]) <= tol * sscale:
        return BOUNDARY_ROOT
    return routh_scan(star, tol)


def char_poly(a):
    """Monic characteristic polynomial det(xI - a), ascending coefficients.

    Trace recurrence: M_1 = A, c_k = -tr(A M_{k-1} + c_{k-1} A)/k accumulated
    iteratively.
    """
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    m = np.eye(n)
    am = np.zeros((n, n))
    for k in range(1, n + 1):
        for i in range(n):
            for j in range(n):
                s = 0.0
                for l in range(n):
                    s += a[i, l] * m[l, j]
                am[i, j] = s
        tr = 0.0
        for i in range(n):
            tr += am[i, i]
        c = -tr / k
        coeffs[n - k] = c
        for i in range(n):
            for j in range(n):
                m[i, j] = am[i, j]
            m[i, i] += c
    return coeffs


# ---------------------------------------------------------------------------
# Batch loops over sample chunks (the Monte Carlo hot path).


def batch_poly_halfplane(params, tol):
    """Half-plane counts for polynomials given highest-degree-first rows."""
    count = params.shape[0]
    n = params.shape[1] - 1
    codes = np.empty(count, dtype=np.int64)
    coeffs = np.empty(n + 1)
    for i in range(count):
        for j in range(n + 1):
            coeffs[j] = params[i, n - j]
        codes[i] = routh_scan(coeffs, tol)
    return codes


def batch_poly_disk(params, weights, tol):
    """Unit-disk counts for polynomials given highest-degree-first rows."""
    count = params.shape[0]
    n = params.shape[1] - 1
    codes = np.empty(count, dtype=np.int64)
    coeffs = np.empty(n + 1)
    for i in range(count):
        for j in range(n + 1):
            coeffs[j] = params[i, n - j]
        codes[i] = jury_scan(coeffs, weights, tol)
    return codes


def batch_matrix_halfplane(mats, tol):
    """Eigenvalues with Re < 0 per matrix, via char_poly + routh_scan."""
    count = mats.shape[0]
    codes = np.empty(count, dtype=np.int64)
    for i in range(count):
        codes[i] = routh_scan(char_poly(mats[i]), tol)
    return codes


def batch_pencil_disk(params, n, weights, tol):
    """Counts of eigenvalues of A with |x| < |b|, rows packed as (b, A).

    Counted through the complement: the polynomial sum_t c_{n-t} b^{n-t} y^t
    has its roots at y = b/x, so its unit-disk count is the number of
    eigenvalues outside radius |b|.  This keeps the leading coefficient at
    det-scale instead of b^n, so small |b| draws stay well conditioned, and
    b is never divided by.
    """
    count = params.shape[0]
    codes = np.empty(count, dtype=np.int64)
    a = np.empty((n, n))
    scaled = np.empty(n + 1)
    for i in range(count):
        b = abs(params[i, 0])
        for r in range(n):
            for c in range(n):
                a[r, c] = params[i, 1 + r * n + c]
        coeffs = char_poly(a)
        f = 1.0
        for t in range(n, -1, -1):
            scaled[t] = coeffs[n - t] * f
            f *= b
        outside = jury_scan(scaled, weights, tol)
        codes[i] = outside if outside < 0 else n - outside
    return codes


# ---------------------------------------------------------------------------
# Eigenvalue batch paths: one stacked LAPACK call per chunk.


def eig_halfplane_codes(mats, tol):
    """Counts of eigenvalues with Re < 0 for a (count, n, n) stack."""
    lam = np.linalg.eigvals(mats)
    mod = np.abs(lam)
    thr = tol * mod.max(axis=1)
    boundary = (np.abs(lam.real) <= thr[:, None]).any(axis=1)
    counts = (lam.real < 0.0).sum(axis=1).astype(np.int64)
    return np.where(boundary, np.int64(BOUNDARY_ROOT), counts)


def eig_disk_codes(mats, radius, tol):
    """Counts of eigenvalues with |x| < radius (scalar or per-sample array)."""
    lam = np.linalg.eigvals(mats)
    mod = np.abs(lam)
    r = np.asarray(radius, dtype=float)
    if r.ndim == 0:
        r = np.full(mats.shape[0], float(r))
    thr = tol * np.maximum(mod.max(axis=1), r)
    boundary = (np.abs(mod - r[:, None]) <= thr[:, None]).any(axis=1)
    counts = (mod < r[:, None]).sum(axis=1).astype(np.int64)
    return np.where(boundary, np.int64(BOUNDARY_ROOT), counts)


def companion_region_codes(params, region, tol):
    """Region counts for polynomial rows (highest degree first) via companion
    matrix eigenvalues.  region is "left-half-plane" or "disk" (radius 1)."""
    count, width = params.shape
    n = width - 1
    coeffs = params[:, ::-1]
    scale = np.abs(coeffs).max(axis=1)
    lead = coeffs[:, n]
    codes = np.full(count, np.int64(ZERO_LEADING))
    ok = (scale > 0.0) & (np.abs(lead) > tol * scale)
    if ok.any():
        good = np.ascontiguousarray(coeffs[ok])
        comp = np.zeros((good.shape[0], n, n))
        idx = np.arange(n - 1)
        comp[:, idx, idx + 1] = 1.0
        comp[:, n - 1, :] = -good[:, :n] / good[:, n : n + 1]
        if region == "left-half-plane":
            codes[ok] = eig_halfplane_codes(comp, tol)
        else:
            codes[ok] = eig_disk_codes(comp, 1.0, tol)
    return codes


@lru_cache(maxsize=None)
def mobius_weights(n: int) -> np.ndarray:
    """Weight matrix W with W[j, t] = [z^t] (z+1)^j (z-1)^(n-j).

    Binomial coefficients are computed as exact Python integers and cast to
    float64, which is lossless for the supported degrees.
    """
    binom = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        binom[i][0] = 1
        for j in range(1, i + 1):
            binom[i][j] = binom[i - 1][j - 1] + binom[i - 1][j]
    w = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        for t in range(n + 1):
            acc = 0
            for u in range(max(0, t - (n - j)), min(j, t) + 1):
                term = binom[j][u] * binom[n - j][t - u]
                if ((n - j) - (t - u)) % 2 == 1:
                    acc -= term
                else:
                    acc += term
            w[j, t] = float(acc)
    w.flags.writeable = False
    return w
