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
char_poly takes O(n^3) flops: Householder reduction to Hessenberg form,
then La Budde's recurrence.
"""

from functools import lru_cache
from math import comb, copysign, sqrt

import numpy as np

ZERO_PIVOT = -1
BOUNDARY_ROOT = -2
ZERO_LEADING = -3


def _scale(c, m):
    """max |c[j]| over j < m, from 0.0; NaN entries never win the comparison."""
    scale = 0.0
    for j in range(m):
        v = abs(c[j])
        if v > scale:
            scale = v
    return scale


def _sign_variations(vals, length, eps):
    """Sign changes along vals[:length], skipping entries with |v| <= eps."""
    count = 0
    last = 0
    for i in range(length):
        v = vals[i]
        if abs(v) <= eps:
            continue
        s = 1 if v > 0.0 else -1
        if last != 0 and s != last:
            count += 1
        last = s
    return count


def has_nonneg_real_root(d):
    """Whether the real polynomial ``d`` (ascending coeffs) has a root s >= 0.

    Sturm-chain sign variations at 0 and +inf.  Only ever called on the tiny
    auxiliary polynomials arising from all-zero rows in the Routh scheme;
    degenerate chains (shared factors, repeated roots) report True, which the
    caller treats as a boundary case.
    """
    m = d.shape[0]
    scale = _scale(d, m)
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
        rscale = _scale(a, ra + 1)
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

    return _sign_variations(vals0, length, eps) - _sign_variations(leads, length, eps) > 0


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
    scale = _scale(coeffs, n + 1)
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


# ---------------------------------------------------------------------------
# Batch kernels over sample chunks (the Monte Carlo hot path).  Each runs its
# scalar counterpart's recurrence over a whole chunk at once: every sample
# sees the same float operations in the same order, so the codes match the
# scalar kernels bit for bit.  They never see a drawn row, only what
# models.batch_indices unpacks from it: ascending coefficients as (n+1, count)
# columns, (count, n, n) matrix stacks and length-count radii.  Inside, matrix
# stacks become (n, n, count): one column per sample, so each numpy operation
# runs along the sample axis.
#
# Every working array is C-contiguous, so that axis is the contiguous one.
# Coefficient columns arrive as transposed views: the scans gather their
# Routh rows from them in C order, and select columns with np.take /
# np.compress on axis 1, because advanced or boolean indexing on axis 1
# returns Fortran order, on which each lockstep step strides across the
# samples at several times the cost.
#
# Every kernel runs over column blocks of its chunk (_column_blocks), which
# only split the sample axis, so no sample's float operations change.  The
# Routh and Jury scans take blocks whose (n+1, block) arrays stay under
# _SCAN_BYTES, below glibc's default 128 KiB mmap threshold: malloc serves
# them from its heap and hands the same pages to the next block.  A
# chunk-wide array is mapped fresh on every call instead, and faults its
# pages in one by one: the unblocked scans took 476 minor faults per
# 10k-row cont-eq n=4 call and 658 for disc-eq, and the blocked ones take
# none.  _SCAN_COLUMNS caps the width at n <= 2, where the per-column
# vectors (thresholds, indices, pivot signs) would otherwise outgrow what
# malloc keeps between blocks.  The char-poly kernel reduces an
# (n, n, block) copy of each block in place and forms each Householder
# update's products in one (n, n-1, block) temporary, so a few large numpy
# calls do each step and the two-thread shards overlap in them.  With
# La Budde's store it holds at most 2n^2 + 3n + 3 float rows, which
# _char_poly_width keeps within _CHAR_POLY_BYTES (2818 rows at n = 6, 8738
# at n = 3); numpy's iterator buffers, under 128 KiB whatever the width,
# come on top.  At 2 MiB the blocks hold about what the trace recurrence's
# four 512 KiB arrays did, so a sharded run's peak RSS stays where it was.
# 3 MiB blocks made the kernel alone faster, but not the sharded benchmark
# reliably, and grew the peak RSS by about 1.3 MB per shard.
# Each block's coefficients are scanned as soon as they are made, so no
# coefficient array spans the chunk.

_SCAN_BYTES = 120 << 10
_SCAN_COLUMNS = 4096
_CHAR_POLY_BYTES = 2 << 20


def _column_blocks(count, width):
    """Consecutive slices of range(count), width columns each; the last may
    be narrower."""
    return [slice(start, min(start + width, count)) for start in range(0, count, width)]


def _scan_width(n):
    """Columns per block of the degree-n Routh and Jury scans."""
    return max(1, min(_SCAN_COLUMNS, _SCAN_BYTES // (8 * (n + 1))))


def _char_poly_width(n):
    """Columns per block of the degree-n char-poly kernel: the stack and
    the larger of its two phases' working arrays take at most 2n^2 + 3n + 3
    float rows (_hessenberg_block, _la_budde_block), which stay within
    _CHAR_POLY_BYTES."""
    return max(1, _CHAR_POLY_BYTES // (8 * (2 * n * n + 3 * n + 3)))


def _abs_max(cols):
    """Per-column max |x|, skipping NaN as the scalar kernels' scans do.
    |x| is formed in C order: on a transposed view the reduction would
    otherwise run across the contiguous axis, many times slower."""
    return np.fmax.reduce(np.abs(cols, order="C"), axis=0, initial=0.0)


def _lead_scale(coeffs, tol):
    """Per column of (n+1, count) coefficients: the threshold tol * max |c|
    and whether the leading coefficient is ~0 (at or below it, or all ~0)."""
    thr = _abs_max(coeffs)
    small = thr == 0.0
    thr *= tol
    small |= np.abs(coeffs[-1]) <= thr
    return thr, small


def routh_codes(coeffs, tol):
    """routh_scan of each column of an (n+1, count) ascending-coefficient array."""
    codes = np.empty(coeffs.shape[1], dtype=np.int64)
    for cols in _column_blocks(coeffs.shape[1], _scan_width(coeffs.shape[0] - 1)):
        _routh_block(coeffs[:, cols], tol, codes[cols])
    return codes


def _routh_block(coeffs, tol, codes):
    """Write routh_codes of an (n+1, count) block into codes.

    All columns step through the Routh array in lockstep.  A column leaves
    the working set when its pivot is ~0: as ZERO_PIVOT or, when the whole
    row is ~0, through routh_scan itself, which repairs the even divisor.
    Three buffers rotate through the roles prev, cur and nxt.
    """
    n = coeffs.shape[0] - 1
    thr, small = _lead_scale(coeffs, tol)
    codes.fill(ZERO_LEADING)
    idx = np.flatnonzero(~small)
    if n == 0:
        codes[idx] = 0
        return
    rows = coeffs
    if idx.size < small.size:
        rows, thr = coeffs.take(idx, axis=1), thr[idx]
    prev = np.array(rows[n::-2], order="C")
    cur = np.zeros_like(prev)
    cur[: (n + 1) // 2] = rows[n - 1 :: -2]
    nxt = np.empty_like(prev)
    signs = np.empty((n + 1, idx.size), dtype=bool)  # pivot signs, row by row
    np.greater(prev[0], 0.0, out=signs[0])
    for step in range(1, n + 1):  # cur holds the row of degree n - step
        # nxt holds |cur| until the step's arithmetic overwrites it
        if not (np.abs(cur[0], out=nxt[0]) > thr).all():
            np.abs(cur[1:], out=nxt[1:])
            allzero = ~(nxt > thr).any(axis=0)
            dead = allzero | (nxt[0] <= thr)
            for col in idx[allzero]:
                codes[col] = routh_scan(coeffs[:, col], tol)
            codes[idx[dead & ~allzero]] = ZERO_PIVOT
            keep = ~dead
            idx, thr = idx[keep], thr[keep]
            prev, cur = prev.compress(keep, axis=1), cur.compress(keep, axis=1)
            signs = signs.compress(keep, axis=1)
            nxt = np.empty_like(prev)
        np.greater(cur[0], 0.0, out=signs[step])
        if step == n:
            break
        # nxt[:-1] = (piv * prev[1:] - top * cur[1:]) / piv; prev[1:] holds
        # top * cur[1:] once piv * prev[1:] is taken
        piv = cur[0]
        np.multiply(piv, prev[1:], out=nxt[:-1])
        np.multiply(prev[0], cur[1:], out=prev[1:])
        np.subtract(nxt[:-1], prev[1:], out=nxt[:-1])
        np.divide(nxt[:-1], piv, out=nxt[:-1])
        nxt[-1] = 0.0
        prev, cur, nxt = cur, nxt, prev
    del prev, cur, nxt  # free the Routh rows before counting sign changes
    codes[idx] = n - np.count_nonzero(signs[1:] != signs[:-1], axis=0)


def jury_codes(coeffs, tol):
    """jury_scan of each column of an (n+1, count) ascending-coefficient array.

    Every column's Moebius image goes through _routh_block, whose
    ZERO_LEADING (a degree drop: the input vanishes at x = 1) becomes
    BOUNDARY_ROOT.  Columns whose own leading coefficient is ~0 are then
    overwritten with ZERO_LEADING, as jury_scan tests that first.
    """
    codes = np.empty(coeffs.shape[1], dtype=np.int64)
    for cols in _column_blocks(coeffs.shape[1], _scan_width(coeffs.shape[0] - 1)):
        _jury_block(coeffs[:, cols], tol, codes[cols])
    return codes


def _jury_block(coeffs, tol, codes):
    """Write jury_codes of an (n+1, count) block into codes."""
    small_lead = _lead_scale(coeffs, tol)[1]
    _routh_block(_mobius_block(coeffs), tol, codes)
    codes[codes == ZERO_LEADING] = BOUNDARY_ROOT
    codes[small_lead] = ZERO_LEADING


def _mobius_block(coeffs):
    """mobius_apply of each column of an (n+1, count) block."""
    weights = mobius_weights(coeffs.shape[0] - 1)
    star = np.zeros(coeffs.shape)
    term = np.empty_like(star)
    for j, row in enumerate(coeffs):
        np.multiply(weights[j][:, None], row, out=term)
        star += term
    return star


def _char_poly_blocks(mats):
    """(cols, coeffs) for each column block of a (count, n, n) stack, where
    coeffs is the (n+1, block) char_poly of mats[cols]."""
    count, n, _ = mats.shape
    for cols in _column_blocks(count, _char_poly_width(n)):
        yield cols, _char_poly_block(mats[cols])


def _char_poly_block(mats):
    """char_poly of each matrix in a (count, n, n) stack, as (n+1, count).

    Sums run in the same ascending order, from their first term, as in
    char_poly; matmul, einsum and .sum would reorder or fuse those
    additions.  The stack is copied to (n, n, count), so the reduction
    runs in place without touching mats.
    """
    count, n, _ = mats.shape
    h = np.array(mats.transpose(1, 2, 0), order="C")
    _hessenberg_block(h)
    return _la_budde_block(h)


def _hessenberg_block(h):
    """Reduce an (n, n, count) stack in place to upper Hessenberg form.

    Each step forms the products of a whole update in one (rows, m, count)
    temporary and sums them row by row.  It holds n^2 + n + 2 rows besides
    the stack: n(n-1) of products, n of sums, n - 1 of tau v and three
    per-column vectors.
    """
    n, _, count = h.shape
    prods = np.empty((n, n - 1, count))
    sums = np.empty((n, count))
    scaled = np.empty((n - 1, count))
    alpha, s, tau = np.empty((3, count))
    for k in range(n - 2):
        m = n - k - 1
        v = h[k + 1 :, k]  # x, then the reflector's v, then H's column k
        sq = sums[:m]
        np.multiply(v, v, out=sq)
        np.copyto(alpha, sq[0])
        for i in range(1, m):
            np.add(alpha, sq[i], out=alpha)
        np.sqrt(alpha, out=alpha)
        np.copysign(alpha, v[0], out=s)
        denom = sums[0]
        np.abs(v[0], out=denom)
        np.add(alpha, denom, out=denom)
        np.multiply(alpha, denom, out=denom)
        tau.fill(0.0)
        np.divide(1.0, denom, out=tau, where=denom != 0.0)
        np.add(v[0], s, out=v[0])
        vt = scaled[:m]
        np.multiply(v, tau, out=vt)
        # left update of rows and columns k+1..: H -= (tau v) (v^T H)
        rows = h[k + 1 :, k + 1 :]
        t, w = prods[:m, :m], sums[:m]
        np.multiply(rows, v[:, None], out=t)
        np.copyto(w, t[0])
        for i in range(1, m):
            np.add(w, t[i], out=w)
        np.multiply(vt[:, None], w, out=t)
        np.subtract(rows, t, out=rows)
        # right update of all rows, columns k+1..: H -= (H v) (tau v)^T
        cols = h[:, k + 1 :]
        t, u = prods[:, :m], sums
        np.multiply(cols, v, out=t)
        np.copyto(u, t[:, 0])
        for j in range(1, m):
            np.add(u, t[:, j], out=u)
        np.multiply(u[:, None], vt, out=t)
        np.subtract(cols, t, out=cols)
        np.negative(s, out=v[0])
        v[1:] = 0.0


def _la_budde_block(h):
    """The (n+1, count) characteristic polynomials of an upper Hessenberg
    (n, n, count) stack, by La Budde's recurrence; h's strict upper
    triangle is overwritten with the recurrence's coefficients.

    p_0..p_{n-1} go into a triangular store of (i+1, count) arrays, p_n
    into the result.  It holds n(n+1)/2 + 3n rows besides the stack: the
    store, n + 1 of result, n of products and n - 1 of subdiagonal
    products.
    """
    n, _, count = h.shape
    flat = h.reshape(n * n, count)
    sub = flat[n :: n + 1]  # sub[i - 1] = h[i, i - 1]
    # beta[i - 1] = h[i, i-1] h[i-1, i-2] ... h[i-m+1, i-m] after step m,
    # and the m-th superdiagonal h[i-m, i] becomes h[i-m, i] beta[i - 1]
    beta = np.array(sub)
    for m in range(1, n):
        if m > 1:
            np.multiply(beta[m - 1 :], sub[: n - m], out=beta[m - 1 :])
        sup = flat[m :: n + 1][: n - m]
        np.multiply(sup, beta[m - 1 :], out=sup)
    del beta
    store = np.empty((n * (n + 1) // 2, count))
    polys = [store[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] for i in range(n)]
    polys.append(np.empty((n + 1, count)))
    polys[0][0] = 1.0
    term = np.empty((n, count))
    for i in range(n):
        # p_{i+1} = (x - h[i, i]) p_i - sum_m coef[i-m, i] p_{i-m}, m = 1..i
        old, new = polys[i], polys[i + 1]
        np.multiply(h[i, i], old, out=new[: i + 1])
        np.subtract(old[:i], new[1 : i + 1], out=new[1 : i + 1])
        np.negative(new[0], out=new[0])
        new[i + 1] = 1.0
        for m in range(1, i + 1):
            low, t = polys[i - m], term[: i - m + 1]
            np.multiply(h[i - m, i], low, out=t)
            np.subtract(new[: i - m + 1], t, out=new[: i - m + 1])
    return polys[n]


def batch_matrix_halfplane(mats, tol):
    """Eigenvalues with Re < 0 per matrix, via char_poly + routh_scan."""
    codes = np.empty(mats.shape[0], dtype=np.int64)
    for cols, coeffs in _char_poly_blocks(mats):
        _routh_block(coeffs, tol, codes[cols])
    return codes


def batch_pencil_disk(mats, radii, tol):
    """eig_disk_codes(mats, radii, tol) via char_poly + jury_scan.

    Counted through the complement: with r = radii[i], the polynomial
    sum_t c_{n-t} r^{n-t} y^t has its roots at y = r/x, so its unit-disk
    count is the number of eigenvalues outside radius r.  This keeps the
    leading coefficient at det-scale instead of r^n, so small radii stay well
    conditioned, and r is never divided by.
    """
    n = mats.shape[1]
    codes = np.empty(mats.shape[0], dtype=np.int64)
    for cols, coeffs in _char_poly_blocks(mats):
        r = radii[cols]
        scaled = np.empty_like(coeffs)
        f = np.ones_like(r)
        for t in range(n, -1, -1):
            scaled[t] = coeffs[n - t] * f
            f = f * r
        outside = codes[cols]
        _jury_block(scaled, tol, outside)
        np.subtract(n, outside, out=outside, where=outside >= 0)
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


def eig_disk_codes(mats, radii, tol):
    """Counts of eigenvalues with |x| < radii[i] for each matrix mats[i] of a
    (count, n, n) stack; radii is a length-count array."""
    lam = np.linalg.eigvals(mats)
    mod = np.abs(lam)
    thr = tol * np.maximum(mod.max(axis=1), radii)
    boundary = (np.abs(mod - radii[:, None]) <= thr[:, None]).any(axis=1)
    counts = (mod < radii[:, None]).sum(axis=1).astype(np.int64)
    return np.where(boundary, np.int64(BOUNDARY_ROOT), counts)


def companion_region_codes(coeffs, region, tol):
    """Region counts of finite (n+1, count) ascending-coefficient columns via
    companion eigenvalues; region is "left-half-plane" or "disk" (radius 1)."""
    n = coeffs.shape[0] - 1
    scale = _abs_max(coeffs)
    codes = np.full(coeffs.shape[1], np.int64(ZERO_LEADING))
    ok = (scale > 0.0) & (np.abs(coeffs[n]) > tol * scale)
    good = coeffs.compress(ok, axis=1)
    comp = np.zeros((good.shape[1], n, n))
    idx = np.arange(n - 1)
    comp[:, idx, idx + 1] = 1.0
    comp[:, n - 1, :] = (-good[:n] / good[n]).T
    if region == "left-half-plane":
        codes[ok] = eig_halfplane_codes(comp, tol)
    else:
        codes[ok] = eig_disk_codes(comp, np.ones(comp.shape[0]), tol)
    return codes


@lru_cache(maxsize=None)
def mobius_weights(n: int) -> np.ndarray:
    """Weight matrix W with W[j, t] = [z^t] (z+1)^j (z-1)^(n-j).

    Each entry is an exact Python-integer sum of binomial products, cast to
    float64, which is lossless for the supported degrees.
    """
    w = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        for t in range(n + 1):
            acc = 0
            for u in range(max(0, t - (n - j)), min(j, t) + 1):
                acc += (-1) ** (n - j - t + u) * comb(j, u) * comb(n - j, t - u)
            w[j, t] = float(acc)
    w.flags.writeable = False
    return w
