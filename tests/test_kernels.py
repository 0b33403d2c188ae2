"""The batch kernels against a per-row loop over the scalar reference.

The batch kernels run their recurrences column-wise over a chunk and must
reproduce the scalar Python ones row by row, bit for bit: every code, and
every characteristic-polynomial coefficient, equals what the scalar
reference gives for that row alone.  The reference is routh_scan from the
package, whose code the batch Routh scan itself hands its ~0-pivot columns,
and char_poly, mobius_apply and jury_scan from tests/reference.py.  A
kernel classifies one block on a workspace; models.batch_indices cuts rows
into blocks, so the tests that cut rows, or bound a block's memory, go
through it.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from stabindex import kernels, models
from stabindex.kernels import BOUNDARY_ROOT, ZERO_LEADING, ZERO_PIVOT
from stabindex.models import FAMILY_KINDS, ModelFamily
from stabindex.montecarlo import CHUNK

from reference import (
    HighWaterWorkspace,
    char_poly,
    exact_mobius_weights,
    jury_scan,
    mobius_apply,
)

TOL = 1e-12
# The matrix families run to n = 12, past verify's oracle orders (1..10),
# because the sign scan reaches those orders.
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


def _lent(kernel, *args):
    """kernel(*args, ws) on a workspace from kernels.lend, with what it
    returns copied out before the workspace is handed back."""
    with kernels.lend() as ws:
        return kernel(*args, ws).copy()


def _codes(kernel, count, *args):
    """The codes kernel(*args, ws, out) writes for a block of count
    samples, on a workspace from kernels.lend."""
    with kernels.lend() as ws:
        return kernel(*args, ws, np.empty(count, np.int64))


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
            _lent(kernels._char_poly_block, _matrices(kind, n, params)).T.view(np.int64),
            np.array(polys).reshape(-1, n + 1).view(np.int64),
        )
        if kind == "cont-sys":
            codes = [kernels.routh_scan(p, TOL) for p in polys]
        else:
            codes = [_pencil(row, p) for row, p in zip(params, polys)]
    return np.array(codes, dtype=np.int64)


def _batch_codes(kind, n, params, ws=None):
    """The sign-scan codes of drawn rows, in kernel blocks."""
    return models.batch_indices(ModelFamily(kind, n), params, "rh", TOL, ws)


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
        return [("routh_codes", lambda a: _codes(kernels.routh_codes, len(params), a, TOL),
                 params.T[::-1])]
    if kind == "disc-eq":
        return [("jury_codes", lambda a: _codes(kernels.jury_codes, len(params), a, TOL),
                 params.T[::-1])]
    mats = _matrices(kind, n, params)
    if kind == "cont-sys":
        return [("batch_matrix_halfplane",
                 lambda a: _codes(kernels.batch_matrix_halfplane, len(mats), a, TOL), mats)]
    radii = np.abs(params[:, 0])
    return [("batch_pencil_disk",
             lambda a: _codes(kernels.batch_pencil_disk, len(mats), a, radii, TOL), mats)]


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
                polys = _lent(kernels._char_poly_block, mats).view(np.int64)
                for layout, arr in _layouts(mats).items():
                    np.testing.assert_array_equal(
                        _lent(kernels._char_poly_block, arr).view(np.int64), polys,
                        err_msg=f"_char_poly_block {layout} n={n}",
                    )
    assert {ZERO_PIVOT, BOUNDARY_ROOT} <= seen
    assert counted.fallbacks, "no row reached the routh_scan fallback"


@pytest.mark.parametrize("n", [3, 6])
def test_char_poly_blocks_match_slices(n, monkeypatch):
    """batch_indices cuts a stack into two char-poly blocks plus a
    remainder, which give, bit for bit, what the kernel gives on slices that
    each fit in one block, and the scalar char_poly on the rows either side
    of every block edge; the codes equal those of the slices, and a new
    workspace gives the same codes as a reused one."""
    made = []
    block_kernel = kernels._char_poly_block

    def recording_block(mats, ws):
        coeffs = block_kernel(mats, ws)
        made.append(coeffs.copy())
        return coeffs

    monkeypatch.setattr(kernels, "_char_poly_block", recording_block)
    block = kernels._char_poly_width(n)
    rows = 2 * block + 37
    params = _draws("disc-sys", n, rows, integer=False)
    mats = _matrices("disc-sys", n, params)
    edges = np.array([block, 2 * block])
    cuts = np.arange(0, rows, 1 + block // 3)[1:]
    assert not set(cuts) & set(edges)
    sliced = [_lent(block_kernel, m) for m in np.split(mats, cuts)]

    def halfplane(p, ws=None):
        return _batch_codes("cont-sys", n, p[:, 1:], ws)

    def pencil(p, ws=None):
        return _batch_codes("disc-sys", n, p, ws)

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
        np.testing.assert_array_equal(
            codes(params, kernels.Workspace()), whole, err_msg=codes.__name__
        )


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
                eigen = kernels.eig_disk_codes(mats, radii, TOL, np.empty(len(mats), np.int64))
            else:
                eigen = kernels.eig_halfplane_codes(mats, TOL, np.empty(len(mats), np.int64))
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


@pytest.mark.parametrize("kind", ["cont-sys", "disc-sys"])
def test_eigen_codes_on_triangular_integer_stacks(kind):
    """On upper-triangular integer stacks, whose eigenvalues LAPACK returns
    exactly (the diagonal), each eigenvalue kernel counts the diagonal and
    flags exactly the rows on its region's boundary: eig_halfplane_codes
    counts d < 0 and flags a row with a 0 on the diagonal; eig_disk_codes,
    with radii in {0, 1, 2}, counts |d| < r and flags a row with some
    |d| = r."""
    rng = np.random.default_rng([FAMILY_KINDS.index(kind), 32])
    seen = set()
    for n in DEGREES[kind]:
        mats = np.triu(rng.integers(-2, 3, size=(INTEGER_ROWS, n, n)).astype(float))
        diag = np.diagonal(mats, axis1=1, axis2=2)
        out = np.empty(len(mats), np.int64)
        if kind == "cont-sys":
            codes = kernels.eig_halfplane_codes(mats, TOL, out)
            inside, edge = diag < 0.0, diag == 0.0
        else:
            radii = rng.integers(0, 3, size=len(mats)).astype(float)
            codes = kernels.eig_disk_codes(mats, radii, TOL, out)
            inside, edge = np.abs(diag) < radii[:, None], np.abs(diag) == radii[:, None]
        expected = np.where(edge.any(axis=1), BOUNDARY_ROOT, np.count_nonzero(inside, axis=1))
        np.testing.assert_array_equal(codes, expected, err_msg=f"n={n}")
        seen.update(codes.tolist())
    assert {BOUNDARY_ROOT, 0, 1} <= seen


def test_zero_radius_pencils_need_a_regular_matrix():
    """b = 0 leaves the pencil 0 x - A.  With a singular A it is singular
    and has no count, although La Budde's recurrence leaves det A as a
    rounding residue, not an exact 0; with a regular A no eigenvalue lies
    inside radius 0.  Integer A in {-2..2} give both kinds.  In blocks
    where only every other b is 0, the rows with a small nonzero b keep
    the codes the scalar reference gives them, singular A included."""
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
        # small radii, 2^-20 |z|: a singular det A's rounding residue is ~0
        # beside the unscaled coefficients but not beside the r^k-scaled
        # ones, so these rows show whether the zero-radius rule stays at b = 0
        radii = _draws("disc-sys", n, INTEGER_ROWS // 2, integer=False)[:, 0]
        params[1::2, 0] = 2.0**-20 * radii
        mixed = _batch_codes("disc-sys", n, params)
        np.testing.assert_array_equal(mixed, _scalar_codes("disc-sys", n, params))
        np.testing.assert_array_equal(mixed[::2], expected[::2], err_msg=f"mixed n={n}")
    assert seen == {False, True}


def _traced_peak(run):
    """The most bytes tracemalloc saw allocated at once while run() ran:
    numpy's own buffers, not a workspace's slab, which is mapped outside
    its view."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_char_poly_width_bounds_the_block_peak():
    """One block of _char_poly_width(n) rows, with its Routh or Jury scan,
    uses no more of a workspace's slab than _BLOCK_BYTES, the budget the
    width is derived from, at low n, where the Jury scan outweighs the
    kernel, and at high n.  Besides the slab it allocates under a tenth
    of the budget, on a new workspace and on a warm one: only numpy's own
    temporaries and the codes.  A pass's drawn block (capped at CHUNK
    rows) and its classification take at most one and a half budgets of
    one workspace, and the Householder phase alone 3n + 2 float rows."""
    for n, kind in itertools.product((2, 3, 6, 10, 12, 20, 24), ("cont-sys", "disc-sys")):
        width = kernels._char_poly_width(n)
        params = _draws(kind, n, width, integer=False)
        mats, radii = _matrices(kind, n, params), np.abs(params[:, 0])
        ws = HighWaterWorkspace()

        def codes():
            out = np.empty(len(mats), np.int64)
            with ws:
                if kind == "cont-sys":
                    return kernels.batch_matrix_halfplane(mats, TOL, ws, out)
                return kernels.batch_pencil_disk(mats, radii, TOL, ws, out)

        peaks = [_traced_peak(codes) for _ in range(2)]
        where = f"{kind} n={n}"
        assert ws.high <= kernels._BLOCK_BYTES, f"{where}: workspace used {ws.high} bytes"
        assert max(peaks) < kernels._BLOCK_BYTES // 10, f"{where}: peaks {peaks} bytes"

        ws = HighWaterWorkspace()
        rows = min(CHUNK, width)
        with ws:
            drawn = ws.take((rows, params.shape[1]))
            drawn[...] = params[:rows]
            models.batch_indices(ModelFamily(kind, n), drawn, "rh", TOL, ws)
        assert ws.high <= 1.5 * kernels._BLOCK_BYTES, f"{where}: pass used {ws.high} bytes"

        ws = HighWaterWorkspace()
        count = 8 * (rows // 8)  # whole cache lines per row: no alignment padding
        with ws:
            h = ws.take((n, n, count))
            np.copyto(h, mats[:count].transpose(1, 2, 0))
            stack = ws.high
            kernels._hessenberg_block(h, ws)
        used = ws.high - stack
        assert used <= (3 * n + 2) * count * 8, f"{where}: Householder phase used {used} bytes"


def test_companion_block_peak_is_an_eigen_block_peak():
    """One cont-eq n = 6 companion_region_codes block of _eigen_width(6)
    rows, on a warm lent workspace, allocates at its peak no more than one
    cont-sys n = 6 eig_halfplane_codes block of as many rows: its flags and
    stack are built on the slab for every column, so eigvals' output sets
    the peak.  The allowance is the Python objects of the three slab arrays
    the companion block holds across eigvals (its flags, their negation and
    the stack), which tracemalloc counts too.  When the stack was built
    from heap temporaries, the companion block read 3.3 MB against 2.5 MB."""
    n = 6
    rows = kernels._eigen_width(n)
    coeffs = _draws("cont-eq", n, rows, integer=False).T[::-1]
    mats = _matrices("cont-sys", n, _draws("cont-sys", n, rows, integer=False))
    out = np.empty(rows, np.int64)
    with kernels.lend() as ws:

        def companion():
            with ws:
                kernels.companion_region_codes(coeffs, "left-half-plane", TOL, ws, out)

        def eigen():
            kernels.eig_halfplane_codes(mats, TOL, out)

        companion()
        eigen()
        peak, reference_peak = _traced_peak(companion), _traced_peak(eigen)
    assert peak <= reference_peak + 1024, (peak, reference_peak)


@pytest.mark.parametrize("kind", ["cont-eq", "disc-eq"])
def test_companion_route_overwrites_flagged_columns(kind):
    """The companion route classifies whole blocks in which integer rows
    in {-2..2} with c[n] = 0 are mixed among normal rows: each code is
    ZERO_LEADING where _small_leads flags its column, and otherwise the
    per-sample eigen_region_count of its companion_matrix."""
    region = "left-half-plane" if kind == "cont-eq" else "disk"
    for n in DEGREES[kind]:
        params = _draws(kind, n, 3 * INTEGER_ROWS, integer=False)
        flat = _draws(kind, n, INTEGER_ROWS, integer=True)
        flat[:, 0] = 0.0  # rows run highest degree first
        params[::3] = flat
        codes = models.batch_indices(ModelFamily(kind, n), params, "eigen", TOL)
        coeffs = params.T[::-1]
        with kernels.lend() as ws:
            flagged = kernels._small_leads(coeffs, TOL, ws).copy()
        assert flagged[::3].all() and not flagged[1::3].any(), f"n={n}"
        zero_leading = models.RootCount.from_code(ZERO_LEADING)
        expected = [
            zero_leading if small
            else models.eigen_region_count(models.companion_matrix(c, TOL), region, tol=TOL)
            for c, small in zip(coeffs.T, flagged)
        ]
        got = [models.RootCount.from_code(code) for code in codes]
        assert got == expected, f"n={n}"


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
    """batch_indices cuts its rows into two scan blocks plus a remainder,
    which give, bit for bit, the scalar scan on the columns either side of
    every block edge and what it gives on slices that each fit in one
    block.  The columns at the edges are integer draws in {-2..2}, so
    ZERO_PIVOT, ZERO_LEADING and all-zero rows, each handed to routh_scan,
    all fall there.  A workspace whose slab holds what the blocks before
    left there gives the same codes as a new one, on these rows and on
    integer rows at n = 1..8."""
    ws = kernels.Workspace()
    sizes = []
    scan_kernel = kernels.routh_codes  # the Jury scan runs it on the image

    def recording_scan(coeffs, *rest):
        sizes.append(coeffs.shape[1])
        return scan_kernel(coeffs, *rest)

    monkeypatch.setattr(kernels, "routh_codes", recording_scan)
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
        codes = counted(_batch_codes, kind, n, params, ws)
        assert sizes == [block, block, 37], f"n={n}"
        expected = [scalar(np.ascontiguousarray(coeffs[:, col]), TOL) for col in near]
        np.testing.assert_array_equal(codes[near], expected, err_msg=f"n={n}")
        seen.update(codes[near].tolist())

        cuts = np.arange(0, rows, 1 + block // 3)[1:]
        assert not set(cuts) & set(edges)
        by_slice = np.concatenate([_batch_codes(kind, n, p) for p in np.split(params, cuts)])
        np.testing.assert_array_equal(codes, by_slice, err_msg=f"n={n}")

        new = _batch_codes(kind, n, params, kernels.Workspace())
        np.testing.assert_array_equal(new, codes, err_msg=f"n={n}")
        if n <= 8:
            integer = _draws(kind, n, block + 37, integer=True)
            np.testing.assert_array_equal(
                _batch_codes(kind, n, integer, ws),
                _batch_codes(kind, n, integer, kernels.Workspace()),
                err_msg=f"integer n={n}",
            )
    assert {ZERO_PIVOT, ZERO_LEADING, BOUNDARY_ROOT} <= seen
    assert counted.fallbacks, "no edge column reached the routh_scan fallback"


@pytest.mark.parametrize("kind", ["cont-eq", "disc-eq"])
def test_scan_working_set_is_blocked(kind):
    """A drawn block (models.block_rows: the whole CHUNK at n = 4, a
    quarter of it at n = 40) uses no more than _BLOCK_BYTES of slab for its
    Routh or Jury scan, above the draw that the workspace holds.  Besides
    the slab it allocates under a tenth of the budget: only numpy's own
    temporaries and the codes.  That holds on the new workspace, and at
    n = 4 on the warm one too.
    (At n = 40 the Jury scan hands 6% of its columns to the scalar
    routh_scan, which runs some 30 times slower traced, so the warm block
    is traced at n = 4 alone.)"""
    for n in (4, 40):
        family = ModelFamily(kind, n)
        rows = min(CHUNK, models.block_rows(family, "rh"))
        ws = HighWaterWorkspace()
        params = ws.take((rows, family.param_count))
        params[...] = _draws(kind, n, rows, integer=False)
        draw = ws.high

        def codes():
            return models.batch_indices(family, params, "rh", TOL, ws)

        new = _traced_peak(codes)
        used = ws.high - draw
        assert used <= kernels._BLOCK_BYTES, f"n={n}: workspace used {used} bytes"
        assert new < kernels._BLOCK_BYTES // 10, f"n={n}: peak {new} bytes off the slab"
        if n == 4:
            assert rows == CHUNK
            warm = _traced_peak(codes)
            assert warm < kernels._BLOCK_BYTES // 10, f"n={n}: warm peak {warm} bytes"


@pytest.mark.parametrize("kind", ["cont-sys", "disc-sys"])
def test_char_poly_working_set_is_blocked(kind):
    """A whole n = 6 chunk takes less than its input's bytes, slab and
    numpy's own buffers together: batch_indices never lets the char-poly
    kernel's (n, n, count) arrays span the chunk."""
    n = 6
    params = _draws(kind, n, CHUNK, integer=False)
    ws = HighWaterWorkspace()
    peak = _traced_peak(lambda: _batch_codes(kind, n, params, ws))
    used = peak + ws.high
    assert used < params.nbytes, f"{used} bytes for a {params.nbytes}-byte input"


def test_known_all_zero_rows():
    # (x^2-1)(x^2-4) repairs to 2 roots; (x^2+1)(x^2+4) has boundary roots
    params = np.array([[1.0, 0.0, -5.0, 0.0, 4.0], [1.0, 0.0, 5.0, 0.0, 4.0]])
    codes = _codes(kernels.routh_codes, 2, params.T[::-1], TOL)
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


# The scalar exit's codes on non-finite and degenerate rows, recorded from
# the numpy-array implementation of routh_scan and has_nonneg_real_root
# that the list-of-floats one replaced: rows at n = 2..12 holding NaN,
# +-inf, +-0.0, +-1e300, 1e-300 or 5e-13, and integer rows whose Routh
# array meets an all-zero row.  Both functions compare with NaN in one
# fixed way: a row is all-zero when no |x| > thr, so a NaN entry counts as
# zero there, while a NaN sign is kept (only |v| <= eps is skipped).
# (tol, ascending coefficients, routh_scan's code)
SCALAR_EXIT_CODES = [
    (1e-14, "0 -inf -inf", -3),
    (1e-14, "0.0 0.0 -2", -2),
    (1e-14, "1 0 -2", 1),
    (1e-14, "-1 -2 1 2", 2),
    (1e-14, "-2 2 2 -2", 1),
    (1e-14, "2 1 -2 -1", 2),
    (1e-14, "-2.25 -1 1e300 1e300 -2", -3),
    (1e-14, "2 -2 0 0 1 -1", -1),
    (1e-14, "nan 2 -2 0 0 nan", -1),
    (1e-14, "-0.25 1.5 -0.0 -0.0 1.5 1.25 0.75", 3),
    (1e-14, "-2 -1e300 -2 -1e300 0 -2 -2", -3),
    (1e-14, "-1.5 -1.5 -2 2.25 -0.75 0.0 1.75 -1", 3),
    (1e-14, "-2 1 -1 -2 2 -1 2 nan", 3),
    (1e-14, "0 0 1 -1 2 0 -2 1", -2),
    (1e-14, "1 -1 1 -2 0 -1 1 -2 -1", -1),
    (1e-14, "5e-13 1.5 -0.75 -0.75 -2 1 -1 1.75 -0.25", 5),
    (1e-14, "nan 1.5 -2.25 1 0 nan 0 -1 0.5", -2),
    (1e-14, "-0.5 -0.5 -2 0.25 -1 nan -1.5 nan 2 -0.5", -2),
    (1e-14, "-1 -2 -2 1e-300 -1 0 -1 -1 1e-300 -1", -1),
    (1e-14, "-1 1 2 -2 1 -1 -2 2 -2 2", 4),
    (1e-14, "-2 -1 -2 -2 1 2 1 2 2 -1", 3),
    (1e-14, "2 nan -1 1 nan 1 2 -2 2 1", -2),
    (1e-14, "-1 1 -2 -2 -0.0 1 0 1 -1 1 -1", -1),
    (1e-14, "0 0 1 -1 0 -2 2 -1 -2 -2 2", -2),
    (1e-14, "1 0 5e-13 0 1 2 2 -2 2 0 5e-13", -1),
    (1e-14, "-1 2 -1.25 0 -2.25 -1 -0.5 1e-300 0.75 1e-300 -1.75 0.75", 4),
    (1e-14, "1 2 -1 -2 0 1 0 -2 1 -1 -1 2", 5),
    (1e-14, "inf -1 0 -1 -1 2 -2 -2 -2 2 1 2", -3),
    (1e-12, "nan -1 0", -3),
    (1e-12, "-1 nan 1 2", 2),
    (1e-12, "0 0 2 1", -2),
    (1e-12, "-0.75 -2.25 1e-300 1 -0.75", 2),
    (1e-12, "1e-300 2 -2 -1 1e-300", -3),
    (1e-12, "5e-13 5e-13 -1 -1 -1", -2),
    (1e-12, "-1 -1 -1 0 2 1", 4),
    (1e-12, "-1 5e-13 -2 2 2 2", 4),
    (1e-12, "-1.75 1.5 1.75 0.5 0.75 -0.0 -0.25", -1),
    (1e-12, "-2 0 0 0 -2 0 1", 3),
    (1e-12, "1 0 2 0 0 0 -2", -1),
    (1e-12, "-0.5 0.75 -2 -1.5 1 -1e300 -1e300 -0.5", -3),
    (1e-12, "-1.5 -1.75 0.75 -0.75 0.25 0.75 -0.5 1.75 1", 5),
    (1e-12, "2 -1 0 0 -2 -1 -2 2 2", 4),
    (1e-12, "-1.5 -0.5 nan -2.25 -2 1.25 2 nan -2 -1.75", -2),
    (1e-12, "-2 2 -0.0 2 -2 2 1 0 1 2", 4),
    (1e-12, "1 2 -1 -2 1 0 0 2 1 -2 -2", 5),
    (1e-12, "2 1 1 2 0 -2 0 1e300 -1 1 -1", -3),
    (1e-12, "1 1 0 0 0 2 -1 -1 -1 0 1 -2", 6),
    (1e-12, "-0.25 -2 1.25 1.5 0.0 2.25 1.25 1.5 1 -1 1.75 1 0.75", 7),
    (1e-12, "-1 2 0.75 -1.5 1.25 -1.5 -inf 0 1 -inf 1 -1.75 -0.5", -3),
    (1e-12, "0.0 1 2 2 -1 1 0 0 0 0 2 0.0 -2", -1),
    (1e-12, "0.5 0.25 1.25 1.5 -1.25 -2 -1 -1 1.75 2 inf 0 1.5", -3),
    (0.001, "0.25 0 -0.5", 1),
    (0.001, "-1.25 -0.0 0.75 -1.25", 1),
    (0.001, "1 nan -1 nan", 2),
    (0.001, "2 -1 1e-300 1e-300", -3),
    (0.001, "5e-13 2 1.5 -0.5", -2),
    (0.001, "-1 2 -0.0 0 0", -3),
    (0.001, "1.75 0.0 -2.25 0.0 0.75", 2),
    (0.001, "-1 2 1 -2 -1 2", 2),
    (0.001, "-0.25 -2 1e-300 1 -2 1.25 0.25", 3),
    (0.001, "nan 0.5 2.25 -0.5 -1.25 -1.75 0", -3),
    (0.001, "-1 -1 -2 nan 1 nan -2 -2", -2),
    (0.001, "-1.25 1.5 5e-13 5e-13 0.25 0.5 -2.25 1.75", 2),
    (0.001, "1 -2 1 2 -1 -2 -1 2", 3),
    (0.001, "0.25 0.75 2.25 -1.75 0.25 -0.25 -0.75 -1.25 0.0", -3),
    (0.001, "1 -1 -1e300 1 1 0 1 -1e300 -1", -3),
    (0.001, "nan 2 -2 0 -2 2 1 0 -1", -1),
    (0.001, "1.5 -0.75 2.25 -0.25 -1.25 inf -1.5 1.75 0.5 inf -2.25", -3),
    (0.001, "nan -2 2 -2 -1 1 -1 2 0 -1 0", -3),
    (0.001, "0 -1 2 2 -2 0 -inf -inf 1 1 -2 1", -3),
    (0.001, "1 1 0 -2 -2 2 -1 1 1 0 1 -2", 6),
    (0.001, "1 2 nan -2 2 0 0 -1 -1 1 -1 nan", -2),
    (0.001, "1 1 1 -2 -2 -1 2 -1 -2 1 -2 2 2", 6),
    (0.001, "1.25 1.5 -1.5 -1.5 -1.75 -2.25 -0.75 1.5 1.25 1e300 0 1.25 1e300", -1),
]
# (ascending coefficients, has_nonneg_real_root's verdict)
SCALAR_EXIT_VERDICTS = [
    ("-1 nan 0", False),
    ("0 -inf -inf", True),
    ("0.0 0.0 -2", True),
    ("1e300 1e300 0", False),
    ("2 1 5e-13", False),
    ("2 1e-300 1e-300", False),
    ("2 nan 0", True),
    ("inf inf 2", True),
    ("nan nan 2", True),
    ("1 nan -1 nan", True),
    ("1 nan 0 0", True),
    ("2.25 -0.5 -0.0 2", False),
    ("-1 2 -0.0 0 0", True),
    ("-2.25 -1 1e300 1e300 -2", True),
    ("5e-13 5e-13 -1 -1 -1", True),
    ("-1 2 0 0 0 0", True),
    ("-1e300 1 2 -2 0 -1", False),
    ("-2.25 -2 -2 -1.5 nan -2", True),
    ("-0.25 -2 1e-300 1 -2 1.25 0.25", True),
    ("-0.5 -2 -2 -1.25 -0.25 -1.5 0", False),
    ("-1 0.5 -1e300 0.25 1.5 0.75 1.25", True),
    ("-2 0.0 0.0 -1 -1 1 -1", False),
    ("nan 0 2 -1 1 2 nan", True),
    ("nan 0.5 2.25 -0.5 -1.25 -1.75 0", True),
]


@pytest.mark.parametrize("tol, row, code", SCALAR_EXIT_CODES)
def test_routh_scan_golden_codes(tol, row, code):
    coeffs = np.array([float(x) for x in row.split()])
    assert kernels.routh_scan(coeffs, tol) == code


@pytest.mark.parametrize("row, verdict", SCALAR_EXIT_VERDICTS)
def test_has_nonneg_real_root_golden_verdicts(row, verdict):
    d = np.array([float(x) for x in row.split()])
    assert kernels.has_nonneg_real_root(d) == verdict


@pytest.mark.parametrize(
    "d, verdict",
    [([2.0, -3.0, 1.0, 1e-13], True), ([2.0, 3.0, 1.0, 1e-13], False),
     ([3.0, 1e-13], False), ([-3.0, 1e-13, -1e-14], False)],
    ids=["trimmed-roots-1-2", "trimmed-roots-minus-1-2", "constant", "constant-neg"],
)
def test_has_nonneg_real_root_trims_negligible_leads(d, verdict):
    """A leading coefficient under 1e-12 of the largest is dropped before the
    chain is built.  (s - 1)(s - 2) + 1e-13 s^3 keeps its roots 1 and 2, and
    (s + 1)(s + 2) + 1e-13 s^3 has none >= 0; the third root of each is near
    -1e13.  3 + 1e-13 s (one root, near -3e13) and -3 + 1e-13 s - 1e-14 s^2
    (a complex pair) trim to nonzero constants, which have no root."""
    assert kernels.has_nonneg_real_root(np.array(d)) == verdict


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
                _codes(kernel, len(cols), coeffs, TOL), expected,
                err_msg=f"{kernel.__name__} n={n}",
            )
        codes = _codes(kernels.routh_codes, len(cols), coeffs, TOL)
        if coeffs is constants:
            assert codes.tolist() == [ZERO_LEADING] * 3 + [0] * 3 + [ZERO_LEADING]
        elif coeffs is not non_finite:
            assert min(codes[:4]) >= 0 and (ZERO_PIVOT in codes) == (n >= 3), f"n={n}"
            seen.update(codes.tolist())
    # x^2 - 4 times (x + 1)^(n-2) is repaired to n - 1 roots with Re < 0
    assert {ZERO_PIVOT, ZERO_LEADING, BOUNDARY_ROOT, 1, 7} <= seen


# Matrices per order and row kind past DEGREES: the scalar char_poly costs
# 0.7-2.1 ms a matrix at n = 16-24.
HIGH_ORDER_ROWS = 30


@pytest.mark.parametrize("n", [16, 20, 24])
def test_char_poly_block_matches_reference_at_high_order(n):
    """_char_poly_block equals the scalar char_poly bit for bit past
    DEGREES, on normal and integer {-2..2} stacks: on the whole stack and
    on one-matrix blocks, whose one-column sums numpy's reductions would
    add pairwise."""
    for integer in (False, True):
        mats = _matrices("cont-sys", n, _draws("cont-sys", n, HIGH_ORDER_ROWS, integer))
        expected = np.array([char_poly(m) for m in mats]).view(np.int64)
        np.testing.assert_array_equal(
            _lent(kernels._char_poly_block, mats).T.view(np.int64), expected,
            err_msg=f"stack n={n}",
        )
        for m, polys in zip(mats, expected):
            np.testing.assert_array_equal(
                _lent(kernels._char_poly_block, m[None])[:, 0].view(np.int64), polys,
                err_msg=f"one matrix n={n}",
            )


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
    """Every batch kernel, and batch_indices on every route, gives an empty
    code array for an empty block.  Every kernel batch_indices calls writes
    its codes into the out array it is passed and returns that array, on an
    empty block and on a 5-row block of normal draws."""
    for count in (0, 5):
        rng = np.random.default_rng(count)
        coeffs = rng.standard_normal((4, count))
        mats = rng.standard_normal((count, 3, 3))
        radii = np.abs(rng.standard_normal(count))
        with kernels.lend() as ws:
            calls = [
                (kernels.routh_codes, coeffs, TOL, ws),
                (kernels.jury_codes, coeffs, TOL, ws),
                (kernels.companion_region_codes, coeffs, "left-half-plane", TOL, ws),
                (kernels.companion_region_codes, coeffs, "disk", TOL, ws),
                (kernels.batch_matrix_halfplane, mats, TOL, ws),
                (kernels.batch_pencil_disk, mats, radii, TOL, ws),
                (kernels.eig_halfplane_codes, mats, TOL),
                (kernels.eig_disk_codes, mats, radii, TOL),
            ]
            for kernel, *args in calls:
                out = np.empty(count, np.int64)
                with ws:
                    assert kernel(*args, out) is out, (kernel.__name__, count)
    for kind in FAMILY_KINDS:
        family = ModelFamily(kind, 3)
        for method in models.METHODS:
            codes = models.batch_indices(family, np.empty((0, family.param_count)), method)
            assert codes.shape == (0,) and codes.dtype == np.int64, (kind, method)


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


def test_mobius_weights_are_exact_through_order_56():
    """mobius_weights(n) equals the exact integer weights through n = 56,
    as its docstring states, and n = 57 is the first order whose entries
    pass 2**53 and are rounded.  Python compares an int with a float
    exactly."""
    for n in range(58):
        rows = [list(row) for row in exact_mobius_weights(n)]
        exact = kernels.mobius_weights(n).tolist() == rows
        assert exact == (n <= 56), f"n={n}"
