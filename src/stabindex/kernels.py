"""Hot numeric kernels for per-sample index computation.

Coefficient convention: a polynomial is a 1-D float64 array with
``coeffs[j]`` multiplying ``x**j``, so ``coeffs[-1]`` is the leading
coefficient.

Root-count results are integer codes: ``k >= 0`` is a definite count, and
the negative constants below are the indeterminate verdicts.  The scalar
kernels (routh_scan, jury_scan, char_poly) are plain Python over one
polynomial or matrix; they are the reference implementation and the public
API behind polyroot.  Their sums and matrix products are explicit loops,
and that floating-point order fixes every histogram bit for bit.  The batch
kernels that the Monte Carlo layer calls run the same recurrences over a
whole chunk of samples at once, column by column, in the same order.
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
# Batch kernels over sample chunks (the Monte Carlo hot path).  Each runs its
# scalar counterpart's recurrence over a whole chunk at once: every sample
# sees the same float operations in the same order, so the codes match the
# scalar kernels bit for bit.  Inside, coefficient arrays are (n+1, count)
# and matrix stacks (n, n, count): one column per sample, so each numpy
# operation runs along the sample axis.


def _abs_max(cols):
    """Per-column max |x|, skipping NaN as the scalar kernels' scans do."""
    return np.fmax.reduce(np.abs(cols), axis=0, initial=0.0)


def _routh_columns(coeffs, tol):
    """routh_scan of each column of an (n+1, count) ascending-coefficient array.

    All columns step through the Routh array in lockstep.  A column leaves
    the working set when its pivot is ~0: as ZERO_PIVOT or, when the whole
    row is ~0, through routh_scan itself, which repairs the even divisor.
    """
    n = coeffs.shape[0] - 1
    codes = np.full(coeffs.shape[1], np.int64(ZERO_LEADING))
    scale = _abs_max(coeffs)
    thr = tol * scale
    idx = np.flatnonzero((scale != 0.0) & ~(np.abs(coeffs[n]) <= thr))
    if n == 0:
        codes[idx] = 0
        return codes

    thr = thr[idx]
    prev = coeffs[n::-2, idx]
    cur = np.zeros_like(prev)
    cur[: (n + 1) // 2] = coeffs[n - 1 :: -2, idx]
    changes = np.zeros(idx.size, dtype=np.int64)
    last = prev[0] > 0.0
    for deg in range(n - 1, -1, -1):
        allzero = ~(np.abs(cur) > thr).any(axis=0)
        dead = allzero | (np.abs(cur[0]) <= thr)
        if dead.any():
            for col in idx[allzero]:
                codes[col] = routh_scan(coeffs[:, col], tol)
            codes[idx[dead & ~allzero]] = ZERO_PIVOT
            keep = ~dead
            idx, thr, changes, last = idx[keep], thr[keep], changes[keep], last[keep]
            prev, cur = prev[:, keep], cur[:, keep]
        s = cur[0] > 0.0
        changes += s != last
        last = s
        if deg == 0:
            break
        piv = cur[0]
        top = prev[0]
        nxt = np.zeros_like(cur)
        nxt[:-1] = (piv * prev[1:] - top * cur[1:]) / piv
        prev = cur
        cur = nxt
    codes[idx] = n - changes
    return codes


def _jury_columns(coeffs, weights, tol):
    """jury_scan of each column of an (n+1, count) ascending-coefficient array.

    The Moebius sum adds every term, where mobius_apply skips zero
    coefficients: a +-0 product added to a sum that starts at +0.0 never
    changes it.
    """
    n = coeffs.shape[0] - 1
    scale = _abs_max(coeffs)
    zero_lead = (scale == 0.0) | (np.abs(coeffs[n]) <= tol * scale)
    star = np.zeros_like(coeffs)
    for j in range(n + 1):
        star += coeffs[j] * weights[j][:, None]
    sscale = _abs_max(star)
    boundary = ~zero_lead & ((sscale == 0.0) | (np.abs(star[n]) <= tol * sscale))
    codes = np.full(coeffs.shape[1], np.int64(ZERO_LEADING))
    codes[boundary] = BOUNDARY_ROOT
    scan = ~(zero_lead | boundary)
    codes[scan] = _routh_columns(star[:, scan], tol)
    return codes


def _char_poly_columns(mats):
    """char_poly of each matrix in a (count, n, n) stack, as (n+1, count).

    Products accumulate over l in ascending order and traces over the
    diagonal in ascending order, both from zero, as in char_poly; matmul,
    einsum and trace would reorder or fuse those additions.  The last
    product feeds only the trace, so only its diagonal is formed.
    """
    count, n, _ = mats.shape
    a = np.ascontiguousarray(mats.transpose(1, 2, 0))
    coeffs = np.zeros((n + 1, count))
    coeffs[n] = 1.0
    m = np.zeros_like(a)
    for i in range(n):
        m[i, i] = 1.0
    am = np.empty_like(a)
    term = np.empty_like(a)
    for k in range(1, n):
        am.fill(0.0)
        for l in range(n):
            np.multiply(a[:, l, None], m[None, l], out=term)
            am += term
        c = -_ascending_sum(am[i, i] for i in range(n)) / k
        coeffs[n - k] = c
        m, am = am, m
        for i in range(n):
            m[i, i] += c
    diag = np.zeros((n, count))
    for l in range(n):
        diag += a[:, l] * m[l]
    coeffs[0] = -_ascending_sum(diag) / n
    return coeffs


def _ascending_sum(terms):
    """terms[0] + terms[1] + ..., added in order starting from +0.0."""
    total = 0.0
    for t in terms:
        total = total + t
    return total


def batch_poly_halfplane(params, tol):
    """Half-plane counts for polynomials given highest-degree-first rows."""
    return _routh_columns(params.T[::-1], tol)


def batch_poly_disk(params, weights, tol):
    """Unit-disk counts for polynomials given highest-degree-first rows."""
    return _jury_columns(params.T[::-1], weights, tol)


def batch_matrix_halfplane(mats, tol):
    """Eigenvalues with Re < 0 per matrix, via char_poly + routh_scan."""
    return _routh_columns(_char_poly_columns(mats), tol)


def batch_pencil_disk(params, n, weights, tol):
    """Counts of eigenvalues of A with |x| < |b|, rows packed as (b, A).

    Counted through the complement: the polynomial sum_t c_{n-t} b^{n-t} y^t
    has its roots at y = b/x, so its unit-disk count is the number of
    eigenvalues outside radius |b|.  This keeps the leading coefficient at
    det-scale instead of b^n, so small |b| draws stay well conditioned, and
    b is never divided by.
    """
    b = np.abs(params[:, 0])
    coeffs = _char_poly_columns(params[:, 1:].reshape(-1, n, n))
    scaled = np.empty_like(coeffs)
    f = np.ones_like(b)
    for t in range(n, -1, -1):
        scaled[t] = coeffs[n - t] * f
        f = f * b
    outside = _jury_columns(scaled, weights, tol)
    return np.where(outside < 0, outside, n - outside)


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
