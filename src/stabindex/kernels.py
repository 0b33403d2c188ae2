"""Hot numeric kernels for per-sample index computation.

Coefficient convention: a polynomial is a 1-D float64 array with
``coeffs[j]`` multiplying ``x**j``, so ``coeffs[-1]`` is the leading
coefficient.

Root-count results are integer codes: ``k >= 0`` is a definite count, and
the negative constants below are the indeterminate verdicts.  The batch
kernels are the implementation: each runs its recurrence over one block of
samples at once, column by column, and the per-sample API in models calls
them on one column.  Their sums run in a fixed order, and that
floating-point order fixes every histogram bit for bit; the tests check it
against a scalar Python reference.  The one scalar recurrence here is
routh_scan, on lists of Python floats, which the batch Routh scan hands its
~0-pivot columns.
The characteristic polynomial takes O(n^3) flops: Householder reduction to
Hessenberg form, then La Budde's recurrence.
"""

import mmap
from contextlib import contextmanager
from functools import lru_cache
from math import comb, prod

import numpy as np

ZERO_PIVOT = -1
BOUNDARY_ROOT = -2
ZERO_LEADING = -3


def _scale(c, m):
    """max |c[j]| over j < m, from 0.0; NaN entries never win the comparison."""
    return max([0.0, *map(abs, c[:m])])


def _sign_variations(vals, eps):
    """Sign changes along vals, skipping entries with |v| <= eps (not NaN)."""
    signs = [v > 0.0 for v in vals if not abs(v) <= eps]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def has_nonneg_real_root(d):
    """Whether the real polynomial ``d`` (ascending coeffs) has a root s >= 0.

    Sturm-chain sign variations at 0 and +inf.  Only ever called on the tiny
    auxiliary polynomials arising from all-zero rows in the Routh scheme;
    degenerate chains (shared factors, repeated roots) report True, which the
    caller treats as a boundary case.  The chain's polynomials are lists of
    floats, ascending, that lose their top entry as their degree drops.
    """
    a = list(map(float, d))
    scale = _scale(a, len(a))
    if scale == 0.0:
        return True
    eps = 1e-12 * scale
    while len(a) > 1 and abs(a[-1]) <= eps:
        a.pop()
    if len(a) == 1:
        return abs(a[0]) <= eps
    if abs(a[0]) <= eps:
        return True  # root at s = 0

    b = [j * v for j, v in enumerate(a[1:], 1)]
    vals0 = [a[0]]
    leads = [a[-1]]
    while True:
        vals0.append(b[0])
        leads.append(b[-1])
        if len(b) == 1:
            break
        # a <- remainder of a by b, then negate (next chain element)
        db = len(b) - 1
        while len(a) > db:
            q = a.pop() / b[-1]
            if q != 0.0:
                shift = len(a) - db
                a[shift:] = [x - q * y for x, y in zip(a[shift:], b)]
        rscale = _scale(a, db)
        if rscale <= eps:  # eps >= 0, so this includes rscale == 0.0
            return True  # nontrivial gcd: treat as boundary-suspicious
        while len(a) > 1 and abs(a[-1]) <= 1e-12 * rscale:
            a.pop()
        a, b = b, [-v for v in a]

    return _sign_variations(vals0, eps) - _sign_variations(leads, eps) > 0


def routh_scan(coeffs, tol):
    """Number of roots with Re < 0, or a negative indeterminate code.

    Sign changes in the first column of the Routh array count the roots with
    positive real part; the result is degree minus that.  Pivot and zero-row
    tests are relative to the largest input coefficient.  An all-zero row
    signals an even divisor with roots in +/- pairs; it is repaired exactly
    with the divisor's derivative once the divisor is certified free of
    imaginary-axis roots.  An isolated ~0 pivot cannot be resolved without
    perturbing the array, so it is reported as ZERO_PIVOT.  The rows are
    lists of n // 2 + 1 floats, zero-padded at the end.
    """
    c = coeffs.tolist()
    n = len(c) - 1
    scale = _scale(c, n + 1)
    if scale == 0.0:
        return ZERO_LEADING
    thr = tol * scale
    if abs(c[n]) <= thr:
        return ZERO_LEADING
    if n == 0:
        return 0

    prev = c[::-2]
    cur = c[-2::-2]
    cur += [0.0] * (len(prev) - len(cur))
    changes = 0
    last = prev[0] > 0.0
    for deg in range(n - 1, -1, -1):  # cur holds the row of degree deg
        if not any(abs(v) > thr for v in cur):  # a NaN entry counts as zero
            m = deg + 1  # degree of the even divisor held in `prev`
            if m % 2 == 1:
                return BOUNDARY_ROOT  # divisor vanishes at 0
            # divisor sum_j prev[j] x^(m-2j); its imaginary-axis roots
            # correspond to roots s >= 0 of sum_j (-1)^j prev[j] s^(m/2-j)
            d = [-v if j % 2 else v for j, v in enumerate(prev[: m // 2 + 1])]
            if has_nonneg_real_root(d[::-1]):
                return BOUNDARY_ROOT
            cur = [(m - 2 * j) * v for j, v in enumerate(prev)]
        piv = cur[0]
        if abs(piv) <= thr:
            return ZERO_PIVOT
        s = piv > 0.0
        if s != last:
            changes += 1
        last = s
        if deg == 0:
            break
        top = prev[0]
        prev, cur = cur, [(piv * p - top * q) / piv for p, q in zip(prev[1:], cur[1:])]
        cur.append(0.0)
    return n - changes


# ---------------------------------------------------------------------------
# Batch kernels over one block of samples (the Monte Carlo hot path).  Each
# classifies exactly one block, on a Workspace its caller passes: every
# sample sees the same float operations in the same order, whatever the
# block or its layout, so a code depends on its own sample alone.  They
# never see a drawn row, only what models.batch_indices unpacks from it:
# ascending coefficients as (n+1, count) columns, (count, n, n) matrix
# stacks and length-count radii.  Inside, matrix stacks become
# (n, n, count): one column per sample, so each numpy operation runs along
# the sample axis.
#
# Every working array is C-contiguous, so that axis is the contiguous one.
# Coefficient columns arrive as transposed views: the scans gather their
# Routh rows from them in C order and run every column to the last row, so
# no working array is ever indexed by column.  Advanced or boolean indexing
# on axis 1 would return Fortran order, on which each lockstep step strides
# across the samples at several times the cost.
#
# One rule sizes blocks and supplies their memory, and models.batch_indices
# is its one owner: it cuts any input into blocks of models.block_rows rows,
# each within one byte budget, _BLOCK_BYTES, and runs each block in one
# scope of the workspace it was passed, or of one lent from this module's
# pool (lend).  Every kernel it calls writes its codes into the int64 array
# its caller passes (out) and returns it, and takes every working array
# from that workspace (the eigenvalue kernels need none: LAPACK allocates
# eigvals' output); the block's scope gives them back.  A kernel classifies
# every column of its block and then overwrites the columns it settles
# apart with their fixed code, so no column is gathered out of a block.
# The Monte Carlo layer draws blocks of the same width, capped at its
# CHUNK, into one buffer it takes from the same workspace for a whole
# pass, so each drawn block is one kernel call.
#
# The equation families' scans (routh_codes, jury_codes) are sized by what
# the Jury scan holds at once (_scan_width): 3n + 4 float rows while it maps
# its block, then 3(n//2 + 1) + n + 4 float rows and n + 2 bool rows while
# it scans the image.  The chunk (montecarlo.CHUNK, 16384 rows) caps that
# width up to n = 9; at n = 40 it is 4206 columns.  The char-poly kernel
# reduces an (n, n, block) copy of each block in place and forms each
# Householder update's products a row or a column at a time in one
# (n, block) temporary.  Its coefficients, the stack and the larger of its
# two phases (La Budde's recurrence from n = 3 on) take
# n^2 + n + 1 + max(3n + 2, n(n+1)/2 + 2n - 1) float rows; below n = 3 the
# Jury scan of the coefficients takes more.  _char_poly_width keeps the
# larger within _BLOCK_BYTES, and the drawn block beside it within one and
# a half (6988 rows at n = 6, 2749 at n = 10); the Routh or Jury scan of
# the coefficients reuses the stack's rows once it is dead.  That width is
# set by the interpreter lock, not by memory: a block makes over 250
# numpy calls at n = 6 whatever its width, and each call releases and
# retakes the lock, so two thread shards overlap only while the calls are
# long.  On a 2-core VM two threads ran the kernel 1.15-1.19x as fast as
# one at 6988 columns; the wider blocks, not the overlap, are what made
# two shards faster than at 5637.  The same budget sizes the eigenvalue
# routes' (block, n, n) stacks (_eigen_width), those of "auto"'s
# eigenvalue fallback included, so no route's block outgrows it.

_BLOCK_BYTES = 4 << 20
_ALIGN = 64  # bytes: a cache line; at malloc's 16 the eq-scan benchmark ran 8% slower


class Workspace:
    """Scratch memory that one caller reuses block after block.

    take(shape, dtype) carves a C-contiguous array off the top of one fixed
    slab, room for a drawn block and the working arrays of one block of
    any route, each within _BLOCK_BYTES; a scope (``with ws:``) gives back,
    when it exits, everything taken inside it, so a block's arrays, and
    each phase's within it, stack up and fall away in order.  Small arrays
    come from the slab too, so a kernel's own working arrays do not depend
    on what malloc's heap went through before (whether glibc has raised
    its trim threshold).  What still comes from the heap: eigvals' output
    and the comparisons on it, the masks that pick out columns for a fixed
    code, and the index array of the Routh scan's fallback columns.  The
    slab is a private anonymous mapping: a forked child writes to copies of
    its pages, never to its parent's.  It is not advised to use huge pages
    as numpy's large arrays are, so only the pages a block touches become
    resident.  An array the slab has no room left for is a fresh np.empty
    instead.  Arrays taken inside a scope must not be used after it exits.
    Callers get one from lend.
    """

    def __init__(self):
        slab = mmap.mmap(-1, 2 * _BLOCK_BYTES, access=mmap.ACCESS_COPY)
        self._slab = np.frombuffer(slab, dtype=np.uint8)
        self._top = 0
        self._marks = []

    def take(self, shape, dtype=np.float64):
        nbytes = np.dtype(dtype).itemsize * prod(shape)
        start = self._top
        top = start + -(-nbytes // _ALIGN) * _ALIGN
        if top > self._slab.size:
            return np.empty(shape, dtype)
        self._top = top
        return np.ndarray(shape, dtype, self._slab, start)

    def __enter__(self):
        self._marks.append(self._top)
        return self

    def __exit__(self, *exc):
        self._top = self._marks.pop()


_idle = []  # workspaces no caller holds, the latest last


@contextmanager
def lend():
    """A scope of a workspace that no other caller holds: the one handed
    back last, or a new one, handed back when the scope exits.  Workspaces
    outlive their callers and threads, so warm blocks map no fresh pages;
    no two callers that hold one at once share it."""
    try:
        ws = _idle.pop()
    except IndexError:
        ws = Workspace()
    try:
        with ws:
            yield ws
    finally:
        _idle.append(ws)


def _scan_bytes(n):
    """Bytes per column that the degree-n Jury scan holds at once
    (jury_codes): its codes and Moebius image, n + 2 float rows, and a
    bool row, then the larger of the Moebius map's two working arrays,
    2n + 2 float rows, and the Routh scan of the image, 3(n//2 + 1) + 2
    float rows and n + 1 bool rows.  The Routh scan alone takes fewer."""
    held = 8 * (n + 2) + 1
    scan = max(16 * (n + 1), 8 * (3 * (n // 2 + 1) + 2) + n + 1)
    return held + scan


def _scan_width(n):
    """Columns per block of the degree-n Routh and Jury scans: _scan_bytes
    per column fit _BLOCK_BYTES, besides the (n+1, n+1) Moebius weights
    and 4 KiB for the iterators and views of numpy's calls."""
    return max(1, (_BLOCK_BYTES - 8 * (n + 1) ** 2 - 4096) // _scan_bytes(n))


def _char_poly_width(n):
    """Columns per block of the degree-n char-poly kernel and its scan.

    A column takes n + 1 float rows of coefficients, n^2 of stack and the
    larger of the kernel's phases: 3n + 2 rows of Householder updates or
    n(n+1)/2 + 2n - 1 of La Budde's recurrence (_char_poly_block).  From
    n = 3 on that outweighs batch_pencil_disk's Jury scan, which holds the
    coefficients, their scaled copy and the radius powers, 2n + 3 float
    rows, beside _scan_bytes.  The larger fits _BLOCK_BYTES, and with the
    pass's drawn block beside it, n^2 + 1 float rows at most, one and a
    half budgets: the Monte Carlo layer takes both from one workspace.
    Each bound sets aside 16 * _ALIGN bytes, for what aligning each array
    the block or pass holds (16 at most) adds to it.
    """
    kernel = 8 * (n + 1 + n * n + max(3 * n + 2, n * (n + 1) // 2 + 2 * n - 1))
    column = max(kernel, 8 * (2 * n + 3) + _scan_bytes(n))
    drawn = 8 * (n * n + 1)
    pad = 16 * _ALIGN
    alone = (_BLOCK_BYTES - pad) // column
    return max(1, min(alone, (3 * _BLOCK_BYTES // 2 - pad) // (column + drawn)))


def _eigen_width(n):
    """Matrices per block of the eigenvalue routes: a (block, n, n) float
    stack within _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * n * n))


def _abs_max(cols, ws):
    """Per-column max |x|, skipping NaN as routh_scan's _scale does, in an
    array taken from ws.  |x| is formed in a C-order temporary, given back
    on return: on a transposed view the reduction would otherwise run
    across the contiguous axis, many times slower."""
    out = ws.take(cols.shape[1:])
    with ws:
        absolute = np.abs(cols, out=ws.take(cols.shape))
        np.fmax.reduce(absolute, axis=0, initial=0.0, out=out)
    return out


def routh_codes(coeffs, tol, ws, out):
    """Write routh_scan of each column of one (n+1, count) block of
    ascending coefficients into the int64 array out, and return it.

    Every column steps through the Routh array to its last row in lockstep,
    keeping its pivot signs and the least |pivot| it meets, leading
    coefficient included; a NaN pivot makes that minimum NaN.  A column
    whose minimum is not above tol * max |c| met a ~0 leading coefficient,
    a ~0 pivot or an all-zero row, so its later rows, divided by that
    pivot, mean nothing (inf or NaN where it is 0): its code is
    routh_scan's own.  Every other column saw routh_scan's float operations
    in routh_scan's order.  Three buffers rotate through the roles prev,
    cur and nxt.  Every working array is taken from ws: 3(n//2 + 1) + 2
    float rows and 2n + 1 bool rows at most, the Routh rows given back
    before the sign changes are counted.
    """
    n, count = coeffs.shape[0] - 1, coeffs.shape[1]
    thr = _abs_max(coeffs, ws)
    thr *= tol
    least = ws.take((count,))
    signs = ws.take((n + 1, count), bool)  # pivot signs, row by row
    with ws:
        prev, cur, nxt = ws.take((3, n // 2 + 1, count))
        np.copyto(prev, coeffs[::-2])
        cur[(n + 1) // 2 :] = 0.0
        cur[: (n + 1) // 2] = coeffs[-2::-2]
        np.abs(prev[0], out=least)
        np.greater(prev[0], 0.0, out=signs[0])
        with np.errstate(all="ignore"):
            for step in range(1, n + 1):  # cur holds the row of degree n - step
                np.greater(cur[0], 0.0, out=signs[step])
                np.minimum(least, np.abs(cur[0], out=nxt[0]), out=least)
                if step == n:
                    break
                # nxt[:-1] = (piv * prev[1:] - top * cur[1:]) / piv, with
                # piv = cur[0] and top = prev[0]; prev[1:] holds
                # top * cur[1:] once piv * prev[1:] is taken
                np.multiply(cur[0], prev[1:], out=nxt[:-1])
                np.multiply(prev[0], cur[1:], out=prev[1:])
                np.subtract(nxt[:-1], prev[1:], out=nxt[:-1])
                np.divide(nxt[:-1], cur[0], out=nxt[:-1])
                nxt[-1] = 0.0
                prev, cur, nxt = cur, nxt, prev
        del prev, cur, nxt  # Routh rows the slab could not hold are freed here
    flips = np.not_equal(signs[1:], signs[:-1], out=ws.take((n, count), bool))
    np.add.reduce(flips, axis=0, dtype=np.int64, out=out)
    np.subtract(n, out, out=out)
    for col in np.flatnonzero(~(least > thr)):
        out[col] = routh_scan(coeffs[:, col], tol)
    return out


def jury_codes(coeffs, tol, ws, out):
    """Write the number of roots with |x| < 1 of each column of one
    (n+1, count) block of ascending coefficients into out, and return it:
    the conformal map to a half-plane, then the Routh scan.

    Every column's Moebius image goes through routh_codes, so an image that
    meets a ~0 or NaN pivot takes routh_scan's code.  Its ZERO_LEADING (a
    degree drop: the input vanishes at x = 1, on the disk boundary) becomes
    BOUNDARY_ROOT.  Columns whose own leading coefficient is ~0 are then
    overwritten with ZERO_LEADING, whatever their image gave.  It takes the
    flags of a ~0 leading coefficient, then the Moebius image
    (_mobius_block), then the Routh scan's arrays, as _scan_width counts.
    """
    small_lead = _small_leads(coeffs, tol, ws)
    routh_codes(_mobius_block(coeffs, ws), tol, ws, out)
    out[out == ZERO_LEADING] = BOUNDARY_ROOT
    out[small_lead] = ZERO_LEADING
    return out


def _small_leads(coeffs, tol, ws):
    """Whether each column's leading coefficient is ~0: at most tol times
    the column's largest |c|, or the column all zero.  The flags are taken
    from ws, and the scale above them, given back on return."""
    small = ws.take(coeffs.shape[1:], bool)
    with ws:
        scale = _abs_max(coeffs, ws)
        np.equal(scale, 0.0, out=small)
        scale *= tol
        small |= np.abs(coeffs[-1], out=ws.take(scale.shape)) <= scale
    return small


def _mobius_block(coeffs, ws):
    """Each column of an (n+1, count) block c mapped through
    x = (z+1)/(z-1): sum_j c[j] (z+1)^j (z-1)^(n-j), accumulated term by
    term, j ascending, against mobius_weights(n).  The image is taken from
    ws, and above it a C-order copy of the block and the term array, given
    back on return: a transposed view's rows would be read strided n + 1
    times each."""
    weights = mobius_weights(coeffs.shape[0] - 1)
    star = ws.take(coeffs.shape)
    star.fill(0.0)
    with ws:
        rows = ws.take(coeffs.shape)
        np.copyto(rows, coeffs)
        term = ws.take(coeffs.shape)
        for j, row in enumerate(rows):
            np.multiply(weights[j][:, None], row, out=term)
            star += term
    return star


def _char_poly_block(mats, ws):
    """Monic characteristic polynomial det(xI - a) of each matrix a in a
    (count, n, n) stack, as (n+1, count) ascending coefficients.

    O(n^3): Householder reduction to upper Hessenberg form H, then La
    Budde's recurrence over the characteristic polynomials p_i of H's
    leading i x i blocks (R. Rehman and I. C. F. Ipsen, "La Budde's method
    for computing characteristic polynomials", 2011).  For column k the
    reflector I - tau v v^T, with alpha = |x| over x = H[k+1:, k],
    s = copysign(alpha, x[0]), v = x + s e_0 and
    tau = 1 / (alpha (alpha + |x[0]|)), maps x to -s e_0; tau = 0 where
    that denominator is 0, so a zero subcolumn is left as it is.  Every
    sum runs in ascending index order from its first term; matmul, einsum
    and .sum would reorder or fuse those additions.  The stack is copied
    to (n, n, count), so the reduction runs in place without touching mats.

    The coefficients are taken from ws, and the stack and both phases'
    working arrays above them, given back on return: n + 1 rows, then n^2
    of stack and the larger phase, 3n + 2 rows of _hessenberg_block or
    n(n+1)/2 + 2n - 1 of _la_budde_block (the larger from n = 3 on).
    """
    count, n, _ = mats.shape
    coeffs = ws.take((n + 1, count))
    with ws:
        h = ws.take((n, n, count))
        np.copyto(h, mats.transpose(1, 2, 0))
        with ws:
            _hessenberg_block(h, ws)
        with ws:
            _la_budde_block(h, coeffs, ws)
    return coeffs


def _hessenberg_block(h, ws):
    """Reduce an (n, n, count) stack in place to upper Hessenberg form.

    Entries below the subdiagonal are left as they are: step k leaves the
    reflector's tail under H[k+1, k], and neither a later step nor
    _la_budde_block reads column k below the subdiagonal.  Each update
    forms its products one row (left update) or one column (right update)
    at a time in one (n, count) temporary, and adds them into its sums in
    ascending order.  It takes 3n + 2 rows from ws besides the stack: n of
    products, n of sums, n - 1 of tau v and three per-column vectors.
    """
    n, _, count = h.shape
    term = ws.take((n, count))
    sums = ws.take((n, count))
    scaled = ws.take((n - 1, count))
    alpha, s, tau = ws.take((3, count))
    for k in range(n - 2):
        m = n - k - 1
        v = h[k + 1 :, k]  # x, then the reflector's v, then -s over v's tail
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
        t, w = term[:m], sums[:m]
        np.multiply(rows[0], v[0], out=w)
        for i in range(1, m):
            np.multiply(rows[i], v[i], out=t)
            np.add(w, t, out=w)
        for i in range(m):
            np.multiply(vt[i], w, out=t)
            np.subtract(rows[i], t, out=rows[i])
        # right update of all rows, columns k+1..: H -= (H v) (tau v)^T
        cols = h[:, k + 1 :]
        t, u = term, sums
        np.multiply(cols[:, 0], v[0], out=u)
        for j in range(1, m):
            np.multiply(cols[:, j], v[j], out=t)
            np.add(u, t, out=u)
        for j in range(m):
            np.multiply(u, vt[j], out=t)
            np.subtract(cols[:, j], t, out=cols[:, j])
        np.negative(s, out=v[0])


def _la_budde_block(h, out, ws):
    """Write the (n+1, count) characteristic polynomials of an upper
    Hessenberg (n, n, count) stack into out, by La Budde's recurrence; h's
    strict upper triangle is overwritten with the recurrence's coefficients.

    p_0..p_{n-1} go into a triangular store of (i+1, count) arrays, p_n
    into out.  It takes n(n+1)/2 + 2n - 1 rows from ws: the store, n of
    products and n - 1 of subdiagonal products.
    """
    n, _, count = h.shape
    flat = h.reshape(n * n, count)
    sub = flat[n :: n + 1]  # sub[i - 1] = h[i, i - 1]
    # beta[i - 1] = h[i, i-1] h[i-1, i-2] ... h[i-m+1, i-m] after step m,
    # and the m-th superdiagonal h[i-m, i] becomes h[i-m, i] beta[i - 1]
    beta = ws.take(sub.shape)
    np.copyto(beta, sub)
    for m in range(1, n):
        if m > 1:
            np.multiply(beta[m - 1 :], sub[: n - m], out=beta[m - 1 :])
        sup = flat[m :: n + 1][: n - m]
        np.multiply(sup, beta[m - 1 :], out=sup)
    del beta
    store = ws.take((n * (n + 1) // 2, count))
    polys = [store[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] for i in range(n)]
    polys.append(out)
    polys[0][0] = 1.0
    term = ws.take((n, count))
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


def batch_matrix_halfplane(mats, tol, ws, out):
    """Write the number of eigenvalues with Re < 0 of each matrix of one
    (count, n, n) block into out, and return it: the characteristic
    polynomial, then the Routh scan."""
    return routh_codes(_char_poly_block(mats, ws), tol, ws, out)


def batch_pencil_disk(mats, radii, tol, ws, out):
    """Write the codes eig_disk_codes gives one block into out, and
    return it: the characteristic polynomial, then the Jury scan (the
    Moebius map, then the Routh scan).

    Counted through the complement: with r = radii[i], the polynomial
    sum_t c_{n-t} r^{n-t} y^t has its roots at y = r/x, so its unit-disk
    count is the number of eigenvalues outside radius r.  This keeps the
    leading coefficient at det-scale instead of r^n, so small radii stay well
    conditioned, and r is never divided by.  At r = 0 that polynomial is
    c_0 y^n alone, whose own scale passes any rounding residue of det A, so
    c_0 leads the reversed, unscaled coefficients in _small_leads instead
    (their x^n keeps the scale at 1 or more): a ~0 det A makes the pencil
    0 x - A singular, with no count (ZERO_LEADING).
    """
    coeffs = _char_poly_block(mats, ws)
    n = coeffs.shape[0] - 1
    scaled = ws.take(coeffs.shape)
    f = ws.take(radii.shape)
    f.fill(1.0)
    for t in range(n, -1, -1):
        np.multiply(coeffs[n - t], f, out=scaled[t])
        np.multiply(f, radii, out=f)
    jury_codes(scaled, tol, ws, out)  # eigenvalues outside radius r
    np.subtract(n, out, out=out, where=out >= 0)
    if not radii.all():
        out[(radii == 0.0) & _small_leads(coeffs[::-1], tol, ws)] = ZERO_LEADING
    return out


# ---------------------------------------------------------------------------
# Eigenvalue batch paths: one stacked LAPACK call per block (_eigen_width).


def eig_halfplane_codes(mats, tol, out):
    """Write the counts of eigenvalues with Re < 0 of each matrix of a
    (count, n, n) stack into the int64 array out, and return it."""
    lam = np.linalg.eigvals(mats)
    thr = tol * np.abs(lam).max(axis=1)
    boundary = (np.abs(lam.real) <= thr[:, None]).any(axis=1)
    np.sum(lam.real < 0.0, axis=1, out=out)
    out[boundary] = BOUNDARY_ROOT
    return out


def eig_disk_codes(mats, radii, tol, out):
    """Write the counts of eigenvalues with |x| < radii[i] of each matrix
    mats[i] of a (count, n, n) stack into the int64 array out, and return
    it; radii is a length-count array."""
    mod = np.abs(np.linalg.eigvals(mats))
    thr = tol * np.maximum(mod.max(axis=1), radii)
    boundary = (np.abs(mod - radii[:, None]) <= thr[:, None]).any(axis=1)
    np.sum(mod < radii[:, None], axis=1, out=out)
    out[boundary] = BOUNDARY_ROOT
    return out


def _companion_block(coeffs, keep, ws):
    """The (count, n, n) companion matrices of an (n+1, count) block of
    ascending coefficients, taken from ws: ones on the superdiagonal and
    -c[:n] / c[n] as the last row of each column that ``keep`` flags.  The
    quotient is divided straight into that row and negated in place;
    negation is exact, so these are the IEEE values of (-c[:n]) / c[n].
    Any other column is never divided by, and its last row stays zero."""
    n, count = coeffs.shape[0] - 1, coeffs.shape[1]
    comp = ws.take((count, n, n))
    np.copyto(comp, np.eye(n, k=1))
    last = comp[:, n - 1]
    np.divide(coeffs[:n].T, coeffs[n][:, None], out=last, where=keep[:, None])
    np.negative(last, out=last)
    return comp


def companion_region_codes(coeffs, region, tol, ws, out):
    """Write the region counts of one block of finite (n+1, count)
    ascending-coefficient columns into out, and return it, via companion
    eigenvalues; region is "left-half-plane" or "disk" (radius 1).  Every
    column's stack is built and classified; those with a ~0 leading
    coefficient (_small_leads), whose stack is the nilpotent shift, are
    then overwritten with ZERO_LEADING, as jury_codes does."""
    small = _small_leads(coeffs, tol, ws)
    keep = np.logical_not(small, out=ws.take(small.shape, bool))
    comp = _companion_block(coeffs, keep, ws)
    if region == "left-half-plane":
        eig_halfplane_codes(comp, tol, out)
    else:
        eig_disk_codes(comp, np.ones(comp.shape[0]), tol, out)
    out[small] = ZERO_LEADING
    return out


@lru_cache(maxsize=None)
def mobius_weights(n: int) -> np.ndarray:
    """Weight matrix W with W[j, t] = [z^t] (z+1)^j (z-1)^(n-j).

    Each entry is an exact Python-integer sum of binomial products, cast to
    float64.  The cast is exact through n = 56; from n = 57 the largest
    entries pass 2**53 and are rounded.
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
