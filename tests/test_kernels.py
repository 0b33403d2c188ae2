"""The batch kernels against a per-row loop over the scalar kernels.

The batch kernels run the scalar recurrences column-wise over a chunk and
must reproduce them bit for bit: every code, and every char_poly
coefficient, equals what the scalar kernel gives for that row alone.
"""

import numpy as np
import pytest

from stabindex import kernels
from stabindex.kernels import BOUNDARY_ROOT, ZERO_LEADING, ZERO_PIVOT, mobius_weights
from stabindex.models import FAMILY_KINDS, ModelFamily

TOL = 1e-12
DEGREES = range(1, 9)
# Normal rows per degree.  The scalar char_poly reference costs ~2 ms a row
# at n = 8, so the matrix families get fewer rows to keep the file fast.
NORMAL_ROWS = {"cont-eq": 500, "disc-eq": 500, "cont-sys": 250, "disc-sys": 250}
INTEGER_ROWS = 150


def _pencil(row, coeffs, weights):
    n = coeffs.shape[0] - 1
    b = abs(row[0])
    f = 1.0
    scaled = np.empty(n + 1)
    for t in range(n, -1, -1):
        scaled[t] = coeffs[n - t] * f
        f *= b
    outside = kernels.jury_scan(scaled, weights, TOL)
    return outside if outside < 0 else n - outside


def _matrices(kind, n, params):
    return (params if kind == "cont-sys" else params[:, 1:]).reshape(-1, n, n)


def _scalar_codes(kind, n, params):
    """The codes the scalar kernels give row by row."""
    weights = mobius_weights(n)
    if kind == "cont-eq":
        codes = [kernels.routh_scan(np.ascontiguousarray(row[::-1]), TOL) for row in params]
    elif kind == "disc-eq":
        codes = [kernels.jury_scan(np.ascontiguousarray(row[::-1]), weights, TOL) for row in params]
    else:
        polys = [kernels.char_poly(m) for m in _matrices(kind, n, params)]
        # the batch char_poly must match the scalar one bit for bit
        np.testing.assert_array_equal(
            kernels._char_poly_columns(_matrices(kind, n, params)).T.view(np.int64),
            np.array(polys).reshape(-1, n + 1).view(np.int64),
        )
        if kind == "cont-sys":
            codes = [kernels.routh_scan(p, TOL) for p in polys]
        else:
            codes = [_pencil(row, p, weights) for row, p in zip(params, polys)]
    return np.array(codes, dtype=np.int64)


def _batch_codes(kind, n, params):
    weights = mobius_weights(n)
    if kind == "cont-eq":
        return kernels.batch_poly_halfplane(params, TOL)
    if kind == "disc-eq":
        return kernels.batch_poly_disk(params, weights, TOL)
    if kind == "cont-sys":
        return kernels.batch_matrix_halfplane(_matrices(kind, n, params), TOL)
    return kernels.batch_pencil_disk(params, n, weights, TOL)


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


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_degenerate_draws_match_scalar(kind, monkeypatch):
    """Integer draws in {-2..2} hit every indeterminate code and the
    all-zero Routh rows that the batch kernel hands to routh_scan."""
    fallbacks = []
    scalar_scan = kernels.routh_scan

    def counting_scan(coeffs, tol):
        fallbacks.append(coeffs)
        return scalar_scan(coeffs, tol)

    seen = set()
    for n in DEGREES:
        params = _draws(kind, n, INTEGER_ROWS, integer=True)
        monkeypatch.setattr(kernels, "routh_scan", counting_scan)
        batch = _batch_codes(kind, n, params)
        monkeypatch.setattr(kernels, "routh_scan", scalar_scan)
        np.testing.assert_array_equal(batch, _scalar_codes(kind, n, params), err_msg=f"n={n}")
        seen.update(batch.tolist())
    # a characteristic polynomial is monic, so cont-sys never has a ~0 lead
    expected = {ZERO_PIVOT, BOUNDARY_ROOT} | ({ZERO_LEADING} if kind != "cont-sys" else set())
    assert expected <= seen
    assert fallbacks, "no row reached the all-zero-row fallback"


def test_known_all_zero_rows():
    # (x^2-1)(x^2-4) repairs to 2 roots; (x^2+1)(x^2+4) has boundary roots
    params = np.array([[1.0, 0.0, -5.0, 0.0, 4.0], [1.0, 0.0, 5.0, 0.0, 4.0]])
    codes = kernels.batch_poly_halfplane(params, TOL)
    assert codes.tolist() == [2, BOUNDARY_ROOT]


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
    params = np.empty((0, 4))
    assert kernels.batch_poly_halfplane(params, TOL).shape == (0,)
    assert kernels.batch_poly_disk(params, mobius_weights(3), TOL).shape == (0,)
