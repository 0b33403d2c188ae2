"""The batch kernels against a per-row loop over the scalar reference.

The batch kernels run their recurrences column-wise over a chunk and must
reproduce the scalar Python ones row by row, bit for bit: every code, and
every characteristic-polynomial coefficient, equals what the scalar
reference gives for that row alone.  The reference is routh_scan from the
package, whose code the batch Routh scan itself hands its ~0-pivot columns,
and char_poly, mobius_apply and jury_scan from tests/reference.py.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from stabindex import kernels, models
from stabindex.kernels import BOUNDARY_ROOT, ZERO_LEADING, ZERO_PIVOT
from stabindex.models import FAMILY_KINDS, ModelFamily
from stabindex.montecarlo import CHUNK

from reference import HighWaterWorkspace, char_poly, jury_scan, mobius_apply

TOL = 1e-12
# The matrix families run to n = 12, past AUTO_EIGEN_MIN_N, because
# `--method rh` reaches those orders.
DEGREES = {"cont-eq": range(1, 9), "disc-eq": range(1, 9),
           "cont-sys": range(1, 13), "disc-sys": range(1, 13)}
# Normal rows per degree.  The scalar char_poly reference costs ~0.2 ms a
# row at n = 8 and ~0.5 ms at n = 12.
NORMAL_ROWS = 500
INTEGER_ROWS = 150


def _pencil(row, coeffs):
    n = coeffs.shape[0] - 1
    b = abs(row[0])
    if b == 0.0 and abs(coeffs[0]) <= TOL * kernels._scale(coeffs, n + 1):
        return ZERO_LEADING  # det A ~ 0: the pencil 0 x - A is singular
    f = 1.0
    scaled = np.empty(n + 1)
    for t in range(n, -1, -1):
        scaled[t] = coeffs[n - t] * f
        f *= b
    outside = jury_scan(scaled, TOL)
    return outside if outside < 0 else n - outside


def _matrices(kind, n, params):
    return (params if kind == "cont-sys" else params[:, 1:]).reshape(-1, n, n)


def _scalar_codes(kind, n, params):
    """The codes the scalar kernels give row by row."""
    if kind == "cont-eq":
        codes = [kernels.routh_scan(np.ascontiguousarray(row[::-1]), TOL) for row in params]
    elif kind == "disc-eq":
        codes = [jury_scan(np.ascontiguousarray(row[::-1]), TOL) for row in params]
    else:
        polys = [char_poly(m) for m in _matrices(kind, n, params)]
        # the batch char_poly must match the scalar one bit for bit
        np.testing.assert_array_equal(
            kernels._char_poly_block(_matrices(kind, n, params)).T.view(np.int64),
            np.array(polys).reshape(-1, n + 1).view(np.int64),
        )
        if kind == "cont-sys":
            codes = [kernels.routh_scan(p, TOL) for p in polys]
        else:
            codes = [_pencil(row, p) for row, p in zip(params, polys)]
    return np.array(codes, dtype=np.int64)


def _batch_codes(kind, n, params):
    if kind == "cont-eq":
        return kernels.routh_codes(params.T[::-1], TOL)
    if kind == "disc-eq":
        return kernels.jury_codes(params.T[::-1], TOL)
    if kind == "cont-sys":
        return kernels.batch_matrix_halfplane(_matrices(kind, n, params), TOL)
    return kernels.batch_pencil_disk(_matrices(kind, n, params), np.abs(params[:, 0]), TOL)


def _draws(kind, n, rows, integer):
    rng = np.random.default_rng([n, FAMILY_KINDS.index(kind), int(integer)])
    shape = (rows, ModelFamily(kind, n).param_count)
    if integer:
        return rng.integers(-2, 3, size=shape).astype(float)
    return rng.standard_normal(shape)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_normal_draws_match_scalar(kind):
    for n in DEGREES[kind]:
        params = _draws(kind, n, NORMAL_ROWS, integer=False)
        batch = _batch_codes(kind, n, params)
        assert batch.dtype == np.int64
        np.testing.assert_array_equal(batch, _scalar_codes(kind, n, params), err_msg=f"n={n}")


@pytest.fixture
def counted(monkeypatch):
    """counted(kernel, *args) calls a batch kernel and records in
    counted.fallbacks each column it hands to the scalar routh_scan."""
    scalar_scan = kernels.routh_scan

    def counting_scan(coeffs, tol):
        call.fallbacks.append(coeffs)
        return scalar_scan(coeffs, tol)

    def call(kernel, *args):
        monkeypatch.setattr(kernels, "routh_scan", counting_scan)
        try:
            return kernel(*args)
        finally:
            monkeypatch.setattr(kernels, "routh_scan", scalar_scan)

    call.fallbacks = []
    return call


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_normal_draws_stay_vectorised(kind, counted):
    """A CHUNK of normal draws at each n = 1..10 meets no ~0 pivot, so the
    batch scan hands none of its columns to routh_scan: a threshold that
    sent healthy columns there would keep every code and lose the speed."""
    for n in range(1, 11):
        counted(_batch_codes, kind, n, _draws(kind, n, CHUNK, integer=False))
        assert not counted.fallbacks, f"n={n}: {len(counted.fallbacks)} columns"


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_degenerate_draws_match_scalar(kind, counted):
    """Integer draws in {-2..2} hit every indeterminate code and the ~0
    pivots and all-zero Routh rows that the batch kernel hands to
    routh_scan.  Those columns carry inf and NaN through the rest of their
    block, which must not raise for a caller that made numpy raise."""
    seen = set()
    for n in DEGREES[kind]:
        params = _draws(kind, n, INTEGER_ROWS, integer=True)
        with np.errstate(all="raise"):
            batch = counted(_batch_codes, kind, n, params)
        np.testing.assert_array_equal(batch, _scalar_codes(kind, n, params), err_msg=f"n={n}")
        seen.update(batch.tolist())
    # a characteristic polynomial is monic, so cont-sys never has a ~0 lead
    expected = {ZERO_PIVOT, BOUNDARY_ROOT} | ({ZERO_LEADING} if kind != "cont-sys" else set())
    assert expected <= seen
    assert counted.fallbacks, "no row reached the routh_scan fallback"


def _layouts(a):
    """``a`` in C order, in Fortran order, and as a view with negative strides."""
    reversed_view = np.flip(np.flip(a).copy())
    assert not reversed_view.flags.c_contiguous and not reversed_view.flags.f_contiguous
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "reversed": reversed_view}


def _layout_cases(kind, n, params):
    """(name, kernel, input) for the sign-scan kernel of this family, on the
    coefficient columns or matrix stack batch_indices unpacks from the rows."""
    if kind == "cont-eq":
        return [("routh_codes", lambda a: kernels.routh_codes(a, TOL), params.T[::-1])]
    if kind == "disc-eq":
        return [("jury_codes", lambda a: kernels.jury_codes(a, TOL), params.T[::-1])]
    mats = _matrices(kind, n, params)
    if kind == "cont-sys":
        return [("batch_matrix_halfplane", lambda a: kernels.batch_matrix_halfplane(a, TOL), mats)]
    radii = np.abs(params[:, 0])
    return [("batch_pencil_disk", lambda a: kernels.batch_pencil_disk(a, radii, TOL), mats)]


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_codes_do_not_depend_on_input_layout(kind, counted):
    """C-ordered, Fortran-ordered and negatively strided inputs give the
    scalar codes; integer rows send their ~0-pivot and all-zero-row columns
    to routh_scan from every layout."""
    seen = set()
    for n in DEGREES[kind]:
        for integer in (False, True):
            params = _draws(kind, n, INTEGER_ROWS, integer)
            expected = _scalar_codes(kind, n, params)
            seen.update(expected.tolist())
            for name, kernel, rows in _layout_cases(kind, n, params):
                for layout, arr in _layouts(rows).items():
                    np.testing.assert_array_equal(
                        counted(kernel, arr), expected, err_msg=f"{name} {layout} n={n}"
                    )
            if kind in ("cont-sys", "disc-sys"):
                mats = _matrices(kind, n, params)
                polys = kernels._char_poly_block(mats).view(np.int64)
                for layout, arr in _layouts(mats).items():
                    np.testing.assert_array_equal(
                        kernels._char_poly_block(arr).view(np.int64), polys,
                        err_msg=f"_char_poly_block {layout} n={n}",
                    )
    assert {ZERO_PIVOT, BOUNDARY_ROOT} <= seen
    assert counted.fallbacks, "no row reached the routh_scan fallback"


@pytest.mark.parametrize("n", [3, 6])
def test_char_poly_blocks_match_slices(n, monkeypatch):
    """A stack of two char-poly blocks plus a remainder gives, bit for bit,
    what the kernels give on slices that each fit in one block, and the
    scalar char_poly on the rows either side of every block edge."""
    made = []
    block_kernel = kernels._char_poly_block

    def recording_block(mats, *workspace):
        coeffs = block_kernel(mats, *workspace)
        made.append(coeffs)
        return coeffs

    monkeypatch.setattr(kernels, "_char_poly_block", recording_block)
    block = kernels._char_poly_width(n)
    rows = 2 * block + 37
    params = _draws("disc-sys", n, rows, integer=False)
    mats = _matrices("disc-sys", n, params)
    edges = np.array([block, 2 * block])
    cuts = np.arange(0, rows, 1 + block // 3)[1:]
    assert not set(cuts) & set(edges)
    sliced = [block_kernel(m) for m in np.split(mats, cuts)]

    def halfplane(p):
        return kernels.batch_matrix_halfplane(_matrices("disc-sys", n, p), TOL)

    def pencil(p):
        return kernels.batch_pencil_disk(_matrices("disc-sys", n, p), np.abs(p[:, 0]), TOL)

    for codes in (halfplane, pencil):
        made.clear()
        whole = codes(params)
        assert [c.shape[1] for c in made] == [block, block, 37], codes.__name__
        polys = np.concatenate(made, axis=1)
        np.testing.assert_array_equal(
            polys.view(np.int64), np.concatenate(sliced, axis=1).view(np.int64)
        )
        for row in np.concatenate([edges - 1, edges]):
            np.testing.assert_array_equal(
                polys[:, row].view(np.int64), char_poly(mats[row]).view(np.int64)
            )
        by_slice = np.concatenate([codes(p) for p in np.split(params, cuts)])
        np.testing.assert_array_equal(whole, by_slice, err_msg=codes.__name__)


def _structured_stacks(n, rows, rng):
    """Matrix stacks on which the Householder reduction meets a zero
    subcolumn, and so a reflector with tau = 0, or has nothing to reduce."""
    normal = rng.standard_normal((rows, n, n))
    integer = rng.integers(-2, 3, size=(rows, n, n)).astype(float)
    k = n // 2  # subcolumn k is zero after the reflectors before it
    blocked = normal.copy()
    blocked[:, k + 1 :, : k + 1] = 0.0
    negzero = integer.copy()
    negzero[negzero == 0.0] = -0.0
    lower = np.tril_indices(n, -1)
    triangular_negzero = np.triu(normal)
    triangular_negzero[:, lower[0], lower[1]] = -0.0
    return {
        "hessenberg": np.triu(normal, -1),
        "hessenberg-integer": np.triu(integer, -1),
        "triangular": np.triu(normal),
        "triangular-integer": np.triu(integer),
        "zero": np.zeros((rows, n, n)),
        f"zero-subcolumn-{k}": blocked,
        "negative-zero-integer": negzero,
        "negative-zero-triangular": triangular_negzero,
    }


@pytest.mark.parametrize("kind", ["cont-sys", "disc-sys"])
def test_structured_stacks_match_scalar_and_eigenvalues(kind):
    """Hessenberg, triangular, zero, block-triangular and -0.0 stacks: the
    batch char_poly and codes equal the scalar ones bit for bit, the codes
    equal the eigenvalue route's wherever both are determinate, a
    triangular matrix's count is read off its diagonal, and the zero matrix
    is never certified."""
    rng = np.random.default_rng(FAMILY_KINDS.index(kind))
    for n in DEGREES[kind]:
        for name, mats in _structured_stacks(n, 40, rng).items():
            radii = np.abs(rng.standard_normal(mats.shape[0]))
            params = mats.reshape(mats.shape[0], n * n)
            if kind == "disc-sys":
                params = np.column_stack([radii, params])
                eigen = kernels.eig_disk_codes(mats, radii, TOL)
            else:
                eigen = kernels.eig_halfplane_codes(mats, TOL)
            codes = _batch_codes(kind, n, params)
            np.testing.assert_array_equal(
                codes, _scalar_codes(kind, n, params), err_msg=f"{name} n={n}"
            )
            both = (codes >= 0) & (eigen >= 0)
            np.testing.assert_array_equal(codes[both], eigen[both], err_msg=f"{name} n={n}")
            if name == "triangular":
                diag = np.diagonal(mats, axis1=1, axis2=2)
                inside = diag < 0.0 if kind == "cont-sys" else np.abs(diag) < radii[:, None]
                np.testing.assert_array_equal(
                    codes, np.count_nonzero(inside, axis=1), err_msg=f"n={n}"
                )
            if name == "zero":  # x^n: every root on the axis, or at y = r/x = inf
                expected = BOUNDARY_ROOT if kind == "cont-sys" else ZERO_LEADING
                assert (codes == expected).all(), f"n={n}"


def test_zero_radius_pencils_need_a_regular_matrix():
    """b = 0 leaves the pencil 0 x - A.  With a singular A it is singular
    and has no count, although La Budde's recurrence leaves det A as a
    rounding residue, not an exact 0; with a regular A no eigenvalue lies
    inside radius 0.  Integer A in {-2..2} give both kinds."""
    seen = set()
    for n in DEGREES["disc-sys"]:
        params = _draws("disc-sys", n, INTEGER_ROWS, integer=True)
        params[:, 0] = 0.0
        codes = _batch_codes("disc-sys", n, params)
        np.testing.assert_array_equal(codes, _scalar_codes("disc-sys", n, params))
        singular = np.round(np.linalg.det(_matrices("disc-sys", n, params))) == 0.0
        expected = np.where(singular, ZERO_LEADING, 0)
        np.testing.assert_array_equal(codes, expected, err_msg=f"n={n}")
        seen.update(singular.tolist())
    assert seen == {False, True}


def test_char_poly_width_bounds_the_block_peak():
    """One n = 6 block of _char_poly_width(6) rows allocates no more than
    _BLOCK_BYTES, the budget the width is derived from, and a workspace
    that serves the block and its Routh or Jury scan uses no more of its
    slab.  Once the workspace has served a block, the next allocates under
    a tenth of the budget: only arrays below glibc's 128 KiB mmap
    threshold, which malloc serves from its heap."""
    n = 6
    for kind in ("cont-sys", "disc-sys"):
        params = _draws(kind, n, kernels._char_poly_width(n), integer=False)
        mats, radii = _matrices(kind, n, params), np.abs(params[:, 0])
        ws = HighWaterWorkspace()

        def codes():
            if kind == "cont-sys":
                return kernels.batch_matrix_halfplane(mats, TOL, ws)
            return kernels.batch_pencil_disk(mats, radii, TOL, ws)

        peaks = []
        for run in (lambda: kernels._char_poly_block(mats), codes, codes):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= kernels._BLOCK_BYTES, f"{kind}: fresh peak {peaks[0]} bytes"
        assert ws.high <= kernels._BLOCK_BYTES, f"{kind}: workspace used {ws.high} bytes"
        assert peaks[2] < kernels._BLOCK_BYTES // 10, f"{kind}: warm peak {peaks[2]} bytes"


@pytest.mark.parametrize("kind", ["cont-sys", "disc-sys"])
def test_char_poly_chunk_takes_few_blocks(kind, monkeypatch):
    """A CHUNK-row n = 6 call makes at most 3 char-poly blocks.  Each block
    makes over 200 numpy calls whatever its width, and each call releases
    and retakes the interpreter lock; narrower blocks shorten the calls
    until two thread shards spend their time trading the lock instead of
    overlapping (2818-column blocks ran two threads no faster than one)."""
    blocks = []
    block_kernel = kernels._char_poly_block

    def counting_block(mats, *workspace):
        blocks.append(mats.shape[0])
        return block_kernel(mats, *workspace)

    monkeypatch.setattr(kernels, "_char_poly_block", counting_block)
    _batch_codes(kind, 6, _draws(kind, 6, CHUNK, integer=False))
    assert sum(blocks) == CHUNK
    assert len(blocks) <= 3, f"{len(blocks)} blocks of {blocks[0]} columns"


# Integer columns placed on each side of every scan-block edge.
EDGE_COLUMNS = 32


@pytest.mark.parametrize("kind", ["cont-eq", "disc-eq"])
def test_scan_blocks_match_scalar_and_slices(kind, monkeypatch, counted):
    """Two scan blocks plus a remainder give, bit for bit, the scalar scan on
    the columns either side of every block edge and what the kernel gives on
    slices that each fit in one block.  The columns at the edges are integer
    draws in {-2..2}, so ZERO_PIVOT, ZERO_LEADING and all-zero rows, each
    handed to routh_scan, all fall there."""
    sizes = []
    block_kernel = kernels._routh_block

    def recording_block(coeffs, tol, codes, *workspace):
        sizes.append(coeffs.shape[1])
        block_kernel(coeffs, tol, codes, *workspace)

    monkeypatch.setattr(kernels, "_routh_block", recording_block)
    kernel = kernels.routh_codes if kind == "cont-eq" else kernels.jury_codes
    scalar = kernels.routh_scan if kind == "cont-eq" else jury_scan
    seen = set()
    for n in range(1, 11):
        block = kernels._scan_width(n)
        rows = 2 * block + 37
        edges = np.array([block, 2 * block])
        near = np.concatenate([np.arange(e - EDGE_COLUMNS, e + EDGE_COLUMNS) for e in edges])
        params = _draws(kind, n, rows, integer=False)
        params[near] = _draws(kind, n, near.size, integer=True)
        coeffs = params.T[::-1]

        sizes.clear()
        codes = counted(kernel, coeffs, TOL)
        assert sizes == [block, block, 37], f"n={n}"
        expected = [scalar(np.ascontiguousarray(coeffs[:, col]), TOL) for col in near]
        np.testing.assert_array_equal(codes[near], expected, err_msg=f"n={n}")
        seen.update(codes[near].tolist())

        cuts = np.arange(0, rows, 1 + block // 3)[1:]
        assert not set(cuts) & set(edges)
        by_slice = np.concatenate([kernel(c, TOL) for c in np.split(coeffs, cuts, axis=1)])
        np.testing.assert_array_equal(codes, by_slice, err_msg=f"n={n}")
    assert {ZERO_PIVOT, ZERO_LEADING, BOUNDARY_ROOT} <= seen
    assert counted.fallbacks, "no edge column reached the routh_scan fallback"


@pytest.mark.parametrize("kind", ["cont-eq", "disc-eq"])
def test_scan_working_set_is_blocked(kind):
    """A whole n = 4 chunk allocates less than its input's bytes: no working
    array of the Routh or Jury scan spans the chunk."""
    params = _draws(kind, 4, CHUNK, integer=False)
    tracemalloc.start()
    try:
        _batch_codes(kind, 4, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.nbytes, f"peak {peak} bytes for a {params.nbytes}-byte input"


@pytest.mark.parametrize("kind", ["cont-sys", "disc-sys"])
def test_char_poly_working_set_is_blocked(kind):
    """A whole n = 6 chunk allocates less than its input's bytes: the
    char-poly kernel's (n, n, count) arrays never span the chunk."""
    n = 6
    params = _draws(kind, n, CHUNK, integer=False)
    tracemalloc.start()
    try:
        _batch_codes(kind, n, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.nbytes, f"peak {peak} bytes for a {params.nbytes}-byte input"


def test_known_all_zero_rows():
    # (x^2-1)(x^2-4) repairs to 2 roots; (x^2+1)(x^2+4) has boundary roots
    params = np.array([[1.0, 0.0, -5.0, 0.0, 4.0], [1.0, 0.0, 5.0, 0.0, 4.0]])
    codes = kernels.routh_codes(params.T[::-1], TOL)
    assert codes.tolist() == [2, BOUNDARY_ROOT]


# Real roots of the squarefree test products, and quadratics with none.
REAL_ROOTS = (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)
COMPLEX_PAIRS = ([1.0, 0.0, 1.0], [2.0, 2.0, 1.0], [2.0, -2.0, 1.0])  # s^2+1, s^2+-2s+2


def test_has_nonneg_real_root_on_known_roots():
    """Every product of distinct factors (s - r) and complex-pair quadratics,
    in both signs, has a root s >= 0 exactly when some r > 0."""
    checked = 0
    for k in range(len(REAL_ROOTS) + 1):
        for roots in itertools.combinations(REAL_ROOTS, k):
            for q in range(len(COMPLEX_PAIRS) + 1):
                for pairs in itertools.combinations(COMPLEX_PAIRS, q):
                    if not roots and not pairs:
                        continue
                    d = np.ones(1)
                    for factor in [[-r, 1.0] for r in roots] + list(pairs):
                        d = np.convolve(d, factor)
                    for sign in (1.0, -1.0):
                        got = kernels.has_nonneg_real_root(sign * d)
                        assert got == any(r > 0 for r in roots), (sign, roots, pairs)
                    checked += 1
    assert checked == 2 ** (len(REAL_ROOTS) + len(COMPLEX_PAIRS)) - 1


@pytest.mark.parametrize(
    "d",
    [[0.0, 1.0, 1.0], [0.0, -2.0], [1.0, 2.0, 1.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]],
    ids=["root-at-0", "linear-at-0", "double-negative", "double-positive", "zero"],
)
def test_has_nonneg_real_root_degenerate_is_true(d):
    """A root at 0, a repeated root and the zero polynomial all report True."""
    assert kernels.has_nonneg_real_root(np.array(d))


def _mixed_columns(n, rng):
    """Ascending coefficient columns of degree n: four ordinary normal draws,
    then columns with a ~0 leading coefficient, an isolated ~0 pivot
    (n >= 3) and an all-zero Routh row, both repairable and on the axis."""
    def ascending(*factors):
        poly = np.ones(1)
        for f in factors:
            poly = np.convolve(poly, f)
        return poly[::-1]  # the factors are written highest degree first

    cols = list(rng.standard_normal((4, n + 1)))
    lead = rng.standard_normal(n + 1)
    lead[n] = 0.0
    cols += [lead, np.zeros(n + 1)]
    if n >= 3:  # x^n + x^(n-2) + ... + 1: the row of degree n - 1 starts with 0
        cols.append(np.r_[np.ones(n - 1), 0.0, 1.0])
    # the even divisors x^2 - 4 (repaired to a count), x^2 + 1 and x (on the axis)
    rest = [[1.0, 1.0]] * (n - 2)
    if n >= 2:
        cols += [ascending([1.0, 0.0, -4.0], *rest), ascending([1.0, 0.0, 1.0], *rest)]
    cols.append(ascending([1.0, 0.0], *[[1.0, 2.0]] * (n - 1)))
    return np.array(cols).T


def test_constructed_blocks_match_scalar():
    """routh_codes and jury_codes equal routh_scan and jury_scan column by
    column on NaN and infinite coefficients at n = 3, on a degree-0 block
    of 0.0, -0.0, NaN, -inf and ordinary constants, and on one block per
    degree 1..8 whose ordinary columns run beside ZERO_LEADING, ZERO_PIVOT
    and all-zero-row ones."""
    non_finite = np.array([
        [1.0, np.nan, 2.0, 3.0],
        [np.nan, 1.0, 2.0, 3.0],
        [np.nan, np.nan, np.nan, np.nan],
        [1.0, np.inf, 2.0, 3.0],
        [1.0, 2.0, 3.0, 4.0],
    ]).T[::-1]
    constants = np.array([[0.0, -0.0, np.nan, 1.0, -2.5, 1e-300, -np.inf]])
    rng = np.random.default_rng(8)
    blocks = [(3, non_finite), (0, constants)] + [(n, _mixed_columns(n, rng)) for n in range(1, 9)]
    seen = set()
    for n, coeffs in blocks:
        cols = [np.ascontiguousarray(c) for c in coeffs.T]
        for kernel, scalar in ((kernels.routh_codes, kernels.routh_scan),
                               (kernels.jury_codes, jury_scan)):
            expected = [scalar(c, TOL) for c in cols]
            np.testing.assert_array_equal(
                kernel(coeffs, TOL), expected, err_msg=f"{kernel.__name__} n={n}"
            )
        codes = kernels.routh_codes(coeffs, TOL)
        if coeffs is constants:
            assert codes.tolist() == [ZERO_LEADING] * 3 + [0] * 3 + [ZERO_LEADING]
        elif coeffs is not non_finite:
            assert min(codes[:4]) >= 0 and (ZERO_PIVOT in codes) == (n >= 3), f"n={n}"
            seen.update(codes.tolist())
    # x^2 - 4 times (x + 1)^(n-2) is repaired to n - 1 roots with Re < 0
    assert {ZERO_PIVOT, ZERO_LEADING, BOUNDARY_ROOT, 1, 7} <= seen


# Rows per order and row kind for the per-sample wrappers.
WRAPPER_ROWS = 100


def test_per_sample_wrappers_match_reference():
    """models.char_poly, mobius_star and jury_count, which run the batch
    kernels on one column, equal the scalar reference bit for bit on normal
    and integer rows: char_poly at n = 1, 2, 3, 4, 6, 10 and 16, the others
    at degree 0..12."""
    seen = set()
    for integer in (False, True):
        rng = np.random.default_rng([16, int(integer)])

        def rows(*shape):
            if integer:
                return rng.integers(-2, 3, size=(WRAPPER_ROWS,) + shape).astype(float)
            return rng.standard_normal((WRAPPER_ROWS,) + shape)

        for n in (1, 2, 3, 4, 6, 10, 16):
            for m in rows(n, n):
                np.testing.assert_array_equal(
                    models.char_poly(m).view(np.int64), char_poly(m).view(np.int64),
                    err_msg=f"char_poly n={n}",
                )
        for n in range(13):
            for p in rows(n + 1):
                np.testing.assert_array_equal(
                    models.mobius_star(p).view(np.int64), mobius_apply(p).view(np.int64),
                    err_msg=f"mobius_star n={n}",
                )
                code = jury_scan(p, TOL)
                assert models.jury_count(p, TOL) == models.RootCount.from_code(code), f"n={n}"
                seen.add(code)
    assert {ZERO_PIVOT, BOUNDARY_ROOT, ZERO_LEADING} <= seen


def test_empty_chunk():
    coeffs = np.empty((4, 0))
    assert kernels.routh_codes(coeffs, TOL).shape == (0,)
    assert kernels.jury_codes(coeffs, TOL).shape == (0,)


def test_mobius_weights_are_binomial_products():
    """Row j of mobius_weights(n) is (z+1)^j (z-1)^(n-j), expanded exactly
    by integer convolution."""
    for n in range(31):
        for j in range(n + 1):
            poly = np.ones(1, dtype=np.int64)
            for factor in [[1, 1]] * j + [[-1, 1]] * (n - j):
                poly = np.convolve(poly, factor)
            np.testing.assert_array_equal(
                kernels.mobius_weights(n)[j].view(np.int64),
                poly.astype(float).view(np.int64),
                err_msg=f"n={n} j={j}",
            )
