"""The batch kernels against a per-row loop over the scalar kernels.

The batch kernels run the scalar recurrences column-wise over a chunk and
must reproduce them bit for bit: every code, and every char_poly
coefficient, equals what the scalar kernel gives for that row alone.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from stabindex import kernels
from stabindex.kernels import BOUNDARY_ROOT, ZERO_LEADING, ZERO_PIVOT
from stabindex.models import FAMILY_KINDS, ModelFamily
from stabindex.montecarlo import CHUNK

TOL = 1e-12
DEGREES = range(1, 9)
# Normal rows per degree.  The scalar char_poly reference costs ~2 ms a row
# at n = 8, so the matrix families get fewer rows to keep the file fast.
NORMAL_ROWS = {"cont-eq": 500, "disc-eq": 500, "cont-sys": 250, "disc-sys": 250}
INTEGER_ROWS = 150


def _pencil(row, coeffs):
    n = coeffs.shape[0] - 1
    b = abs(row[0])
    f = 1.0
    scaled = np.empty(n + 1)
    for t in range(n, -1, -1):
        scaled[t] = coeffs[n - t] * f
        f *= b
    outside = kernels.jury_scan(scaled, TOL)
    return outside if outside < 0 else n - outside


def _matrices(kind, n, params):
    return (params if kind == "cont-sys" else params[:, 1:]).reshape(-1, n, n)


def _scalar_codes(kind, n, params):
    """The codes the scalar kernels give row by row."""
    if kind == "cont-eq":
        codes = [kernels.routh_scan(np.ascontiguousarray(row[::-1]), TOL) for row in params]
    elif kind == "disc-eq":
        codes = [kernels.jury_scan(np.ascontiguousarray(row[::-1]), TOL) for row in params]
    else:
        polys = [kernels.char_poly(m) for m in _matrices(kind, n, params)]
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
    for n in DEGREES:
        params = _draws(kind, n, NORMAL_ROWS[kind], integer=False)
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
def test_degenerate_draws_match_scalar(kind, counted):
    """Integer draws in {-2..2} hit every indeterminate code and the
    all-zero Routh rows that the batch kernel hands to routh_scan."""
    seen = set()
    for n in DEGREES:
        params = _draws(kind, n, INTEGER_ROWS, integer=True)
        batch = counted(_batch_codes, kind, n, params)
        np.testing.assert_array_equal(batch, _scalar_codes(kind, n, params), err_msg=f"n={n}")
        seen.update(batch.tolist())
    # a characteristic polynomial is monic, so cont-sys never has a ~0 lead
    expected = {ZERO_PIVOT, BOUNDARY_ROOT} | ({ZERO_LEADING} if kind != "cont-sys" else set())
    assert expected <= seen
    assert counted.fallbacks, "no row reached the all-zero-row fallback"


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
    scalar codes; integer rows take the ZERO_PIVOT compaction and the
    all-zero-row fallback from every layout."""
    seen = set()
    for n in DEGREES:
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
    assert counted.fallbacks, "no row reached the all-zero-row fallback"


@pytest.mark.parametrize("n", [3, 6])
def test_char_poly_blocks_match_slices(n, monkeypatch):
    """A stack of two char-poly blocks plus a remainder gives, bit for bit,
    what the kernels give on slices that each fit in one block, and the
    scalar char_poly on the rows either side of every block edge."""
    made = []
    block_kernel = kernels._char_poly_block

    def recording_block(mats):
        coeffs = block_kernel(mats)
        made.append(coeffs)
        return coeffs

    monkeypatch.setattr(kernels, "_char_poly_block", recording_block)
    block = kernels._BLOCK_BYTES // (8 * n * n)
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
                polys[:, row].view(np.int64), kernels.char_poly(mats[row]).view(np.int64)
            )
        by_slice = np.concatenate([codes(p) for p in np.split(params, cuts)])
        np.testing.assert_array_equal(whole, by_slice, err_msg=codes.__name__)


# Integer columns placed on each side of every scan-block edge.
EDGE_COLUMNS = 32


@pytest.mark.parametrize("kind", ["cont-eq", "disc-eq"])
def test_scan_blocks_match_scalar_and_slices(kind, monkeypatch, counted):
    """Two scan blocks plus a remainder give, bit for bit, the scalar scan on
    the columns either side of every block edge and what the kernel gives on
    slices that each fit in one block.  The columns at the edges are integer
    draws in {-2..2}, so ZERO_PIVOT, ZERO_LEADING and the all-zero-row
    fallback to routh_scan all fall there."""
    sizes = []
    block_kernel = kernels._routh_block

    def recording_block(coeffs, tol, codes):
        sizes.append(coeffs.shape[1])
        block_kernel(coeffs, tol, codes)

    monkeypatch.setattr(kernels, "_routh_block", recording_block)
    kernel = kernels.routh_codes if kind == "cont-eq" else kernels.jury_codes
    scalar = kernels.routh_scan if kind == "cont-eq" else kernels.jury_scan
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
    assert counted.fallbacks, "no edge column reached the all-zero-row fallback"


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
    """A whole n = 6 chunk allocates at most twice its input's bytes: the
    char-poly recurrence's (n, n, count) arrays never span the chunk."""
    n = 6
    params = _draws(kind, n, CHUNK, integer=False)
    tracemalloc.start()
    try:
        _batch_codes(kind, n, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * params.nbytes, f"peak {peak} bytes for a {params.nbytes}-byte input"


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


def test_non_finite_rows_match_scalar():
    params = np.array([
        [1.0, np.nan, 2.0, 3.0],
        [np.nan, 1.0, 2.0, 3.0],
        [np.nan, np.nan, np.nan, np.nan],
        [1.0, np.inf, 2.0, 3.0],
        [1.0, 2.0, 3.0, 4.0],
    ])
    for kind in ("cont-eq", "disc-eq"):
        np.testing.assert_array_equal(
            _batch_codes(kind, 3, params), _scalar_codes(kind, 3, params)
        )


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
