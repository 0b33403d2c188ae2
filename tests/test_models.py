"""Model families: characteristic polynomial, per-sample indices, and the
symmetries the index inherits from the coefficient distribution."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from stabindex import kernels
from stabindex.kernels import ZERO_PIVOT
from stabindex.models import (
    FAMILY_KINDS,
    METHODS,
    ModelFamily,
    RootCount,
    batch_indices,
    char_poly,
    index_from_params,
    resolve_method,
    sample_index,
)

from reference import exact_index

def _charpoly_cofactor(a):
    """det(xI - a) by cofactor expansion over polynomial entries."""

    def det(entries):
        if len(entries) == 1:
            return entries[0][0]
        total = np.zeros(1)
        for j, entry in enumerate(entries[0]):
            minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
            term = P.polymul(entry, det(minor))
            if j % 2 == 1:
                term = -term
            total = P.polyadd(total, term)
        return total

    n = a.shape[0]
    entries = [
        [
            np.array([-a[i, j], 1.0]) if i == j else np.array([-a[i, j]])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return det(entries)


class TestModelFamily:
    def test_param_counts(self):
        assert ModelFamily("cont-sys", 3).param_count == 9
        assert ModelFamily("cont-eq", 3).param_count == 4
        assert ModelFamily("disc-sys", 3).param_count == 10
        assert ModelFamily("disc-eq", 3).param_count == 4

    def test_symmetry_flags(self):
        assert ModelFamily("cont-sys", 2).symmetric
        assert not ModelFamily("disc-sys", 2).symmetric

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelFamily("cont", 2)
        with pytest.raises(ValueError):
            ModelFamily("cont-sys", 0)
        for n in (2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match="integer"):
                ModelFamily("cont-sys", n)
        assert ModelFamily("cont-sys", np.int64(3)).param_count == 9

    def test_auto_method_switch(self):
        # "auto" starts every order on the sign scan; batch_indices hands
        # the rows the scan leaves indeterminate to eigenvalues
        # (TestAutoFallback)
        for kind in FAMILY_KINDS:
            for n in (*range(1, 12), 24):
                assert resolve_method(ModelFamily(kind, n), "auto") == "rh", (kind, n)
            assert resolve_method(ModelFamily(kind, 24), "rh") == "rh"
            assert resolve_method(ModelFamily(kind, 3), "eigen") == "eigen"


class TestCharPoly:
    def test_swap_matrix(self):
        assert np.array_equal(char_poly([[0, 1], [1, 0]]), [-1.0, 0.0, 1.0])

    def test_identity_cubed(self):
        assert np.allclose(char_poly(np.eye(3)), [-1, 3, -3, 1], atol=1e-14)

    def test_against_cofactor_expansion(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 4))
        got = char_poly(a)
        want = _charpoly_cofactor(a)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_against_eigenvalues(self):
        """On normal draws at n = 1..16 the coefficients match np.poly of the
        LAPACK eigenvalues to 1e-12 of max |c|.  Both routes round at about
        2e-14 of max |c| at n = 16."""
        rng = np.random.default_rng(16)
        for n in range(1, 17):
            for a in rng.standard_normal((20, n, n)):
                got = char_poly(a)
                want = np.poly(np.linalg.eigvals(a))[::-1].real
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), n

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            char_poly(np.zeros((2, 3)))


class TestForcedSamples:
    def test_cont_eq_order_one(self):
        fam = ModelFamily("cont-eq", 1)
        assert index_from_params(fam, [1.0, 1.0]) == RootCount(count=1)

    def test_disc_sys_dim_one(self):
        fam = ModelFamily("disc-sys", 1)
        assert index_from_params(fam, [2.0, 1.0]) == RootCount(count=1)

    def test_disc_eq_order_two(self):
        fam = ModelFamily("disc-eq", 2)
        assert index_from_params(fam, [1.0, 0.0, -0.25]) == RootCount(count=2)

    def test_param_length_checked(self):
        with pytest.raises(ValueError):
            index_from_params(ModelFamily("cont-eq", 2), [1.0, 2.0])
        with pytest.raises(ValueError, match="1-D parameter vector"):
            index_from_params(ModelFamily("cont-eq", 2), np.ones((1, 3)))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
    def test_bad_tol_rejected(self, tol):
        fam = ModelFamily("cont-eq", 1)
        with pytest.raises(ValueError, match="finite positive"):
            index_from_params(fam, [1.0, 1.0], tol=tol)
        with pytest.raises(ValueError, match="finite positive"):
            batch_indices(fam, np.ones((3, 2)), "eigen", tol=tol)

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_non_finite_params_rejected(self, kind):
        # rh and eigen would classify such a row differently, or fail the chunk
        fam = ModelFamily(kind, 2)
        for bad in (np.nan, np.inf):
            params = np.ones((3, fam.param_count))
            params[1, 1] = bad
            for method in METHODS:
                with pytest.raises(ValueError, match="params must be finite"):
                    batch_indices(fam, params, method)
                with pytest.raises(ValueError, match="params must be finite"):
                    index_from_params(fam, params[1], method)


class TestSampleProperties:
    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for kind in ("cont-sys", "cont-eq", "disc-sys", "disc-eq"):
            fam = ModelFamily(kind, 3)
            for _ in range(50):
                params = rng.standard_normal(fam.param_count)
                c = float(rng.uniform(0.1, 10.0))
                assert index_from_params(fam, params) == index_from_params(fam, c * params)

    def test_negation_symmetry_cont_sys(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 4):
            fam = ModelFamily("cont-sys", n)
            for _ in range(100):
                a = rng.standard_normal(fam.param_count)
                one = index_from_params(fam, a)
                other = index_from_params(fam, -a)
                if one.determinate and other.determinate:
                    assert one.count + other.count == n

    def test_reciprocal_symmetry_disc_eq(self):
        rng = np.random.default_rng(9)
        fam = ModelFamily("disc-eq", 4)
        for _ in range(200):
            coeffs = rng.standard_normal(5)
            one = index_from_params(fam, coeffs)
            other = index_from_params(fam, coeffs[::-1].copy())
            if one.determinate and other.determinate:
                assert one.count + other.count == 4

    def test_determinant_parity_cont_sys(self):
        rng = np.random.default_rng(10)
        fam = ModelFamily("cont-sys", 3)
        for _ in range(200):
            params = rng.standard_normal(9)
            got = index_from_params(fam, params)
            if got.determinate:
                det = np.linalg.det(params.reshape(3, 3))
                assert (got.count % 2 == 0) == (det > 0)

    def test_methods_agree(self):
        rng = np.random.default_rng(12)
        for kind in ("cont-sys", "cont-eq", "disc-sys", "disc-eq"):
            fam = ModelFamily(kind, 3)
            params = rng.standard_normal((500, fam.param_count))
            rh = batch_indices(fam, params, "rh")
            eig = batch_indices(fam, params, "eigen")
            both = (rh >= 0) & (eig >= 0)
            assert both.sum() > 450
            assert np.array_equal(rh[both], eig[both])


class TestVariateBudget:
    def test_exact_consumption(self):
        # the sampler must advance the stream by exactly param_count draws
        for kind in ("cont-sys", "cont-eq", "disc-sys", "disc-eq"):
            fam = ModelFamily(kind, 3)
            used = np.random.default_rng(314)
            ref = np.random.default_rng(314)
            sample_index(fam, used)
            ref.standard_normal(fam.param_count)
            assert used.standard_normal() == ref.standard_normal()

    def test_outcome_type(self):
        got = sample_index(ModelFamily("cont-eq", 2), np.random.default_rng(1))
        assert isinstance(got, RootCount)
        assert got.determinate and 0 <= got.count <= 2


def _cont_sys_24(rows=300):
    fam = ModelFamily("cont-sys", 24)
    return fam, np.random.default_rng(24).standard_normal((rows, fam.param_count))


class TestAutoFallback:
    """Under "auto" the sign scan classifies every row, and only the rows it
    leaves indeterminate take the eigenvalue route."""

    def test_zero_pivot_row_is_settled_by_eigenvalues(self):
        # x^4 + x^3 + x^2 + x + 1 has the primitive fifth roots of unity as
        # roots, two with Re < 0; its Routh array meets a zero pivot
        fam = ModelFamily("cont-eq", 4)
        row = np.ones((1, 5))
        assert batch_indices(fam, row, "rh")[0] == ZERO_PIVOT
        assert batch_indices(fam, row, "eigen")[0] == 2
        assert batch_indices(fam, row, "auto")[0] == 2
        assert index_from_params(fam, row[0]) == RootCount(count=2)

    @pytest.mark.parametrize(
        "kind, n",
        [(kind, n) for kind in FAMILY_KINDS for n in (12, 16, 24)]
        + [(kind, n) for kind in ("cont-eq", "disc-eq") for n in (32, 40)],
    )
    def test_high_orders_agree_with_eigenvalues(self, kind, n):
        fam = ModelFamily(kind, n)
        params = np.random.default_rng(n).standard_normal((300, fam.param_count))
        auto = batch_indices(fam, params, "auto")
        eig = batch_indices(fam, params, "eigen")
        both = (auto >= 0) & (eig >= 0)
        assert both.sum() >= 297
        assert np.array_equal(auto[both], eig[both])
        # a row stays indeterminate only where eigenvalues fail as well
        assert np.array_equal(auto[auto < 0], eig[auto < 0])

    def test_scan_runs_first(self, monkeypatch):
        fam, params = _cont_sys_24()
        left = int((batch_indices(fam, params, "rh") < 0).sum())
        assert left > 0  # n = 24 is past the scan's certification limit
        calls = []
        for name in ("batch_matrix_halfplane", "eig_halfplane_codes"):
            real = getattr(kernels, name)

            def recording(mats, *rest, name=name, real=real):
                calls.append((name, mats.shape[0]))
                return real(mats, *rest)

            monkeypatch.setattr(kernels, name, recording)
        batch_indices(fam, params, "auto")
        assert calls == [("batch_matrix_halfplane", 300), ("eig_halfplane_codes", left)]

    def test_fallback_runs_in_eigen_blocks(self, monkeypatch):
        fam, params = _cont_sys_24()
        whole = batch_indices(fam, params, "auto")
        left = int((batch_indices(fam, params, "rh") < 0).sum())
        widths = []
        real = kernels.eig_halfplane_codes

        def recording(mats, tol, out):
            widths.append(mats.shape[0])
            return real(mats, tol, out)

        monkeypatch.setattr(kernels, "_eigen_width", lambda n: 7)
        monkeypatch.setattr(kernels, "eig_halfplane_codes", recording)
        assert np.array_equal(batch_indices(fam, params, "auto"), whole)
        assert max(widths) == 7 and sum(widths) == left

    @pytest.mark.parametrize(
        "kind, name", [("cont-sys", "eig_halfplane_codes"), ("disc-eq", "companion_region_codes")]
    )
    def test_eigen_route_runs_in_eigen_blocks(self, monkeypatch, kind, name):
        """--method eigen, which verify's oracle also runs, is cut into the
        same blocks: with the eigen width at 7 its codes equal those of one
        unsliced kernel call, and no block is wider."""
        fam = ModelFamily(kind, 6)
        params = np.random.default_rng(6).standard_normal((100, fam.param_count))
        if kind == "cont-sys":
            whole = kernels.eig_halfplane_codes(
                params.reshape(-1, 6, 6), 1e-12, np.empty(100, np.int64)
            )
        else:
            with kernels.lend() as ws:
                whole = kernels.companion_region_codes(
                    params.T[::-1], "disk", 1e-12, ws, np.empty(100, np.int64)
                )
        widths = []
        real = getattr(kernels, name)

        def recording(block, *rest):
            widths.append(block.shape[0] if kind == "cont-sys" else block.shape[1])
            return real(block, *rest)

        monkeypatch.setattr(kernels, "_eigen_width", lambda n: 7)
        monkeypatch.setattr(kernels, name, recording)
        assert np.array_equal(batch_indices(fam, params, "eigen", 1e-12), whole)
        assert widths == [7] * 14 + [2]


class TestExactReferee:
    """Every family's codes against the exact count of each drawn row
    (tests/reference.py), a route that shares no float with the sign scan
    or the eigenvalue routes.  Normal draws never sit on a region boundary,
    so the referee counts every row."""

    @staticmethod
    def _exact(kind, params):
        exact = [exact_index(kind, row) for row in params.tolist()]
        assert None not in exact
        return np.array(exact)

    @pytest.mark.parametrize(
        "kind, n, rows",
        [("cont-eq", 12, 300), ("cont-eq", 40, 30), ("disc-eq", 12, 100), ("disc-eq", 30, 10),
         ("cont-sys", 6, 200), ("cont-sys", 12, 50), ("cont-sys", 24, 8),
         ("disc-sys", 6, 200), ("disc-sys", 12, 40), ("disc-sys", 24, 2)],
    )
    def test_auto_and_certified_scan_codes_are_exact(self, kind, n, rows):
        fam = ModelFamily(kind, n)
        params = np.random.default_rng(n).standard_normal((rows, fam.param_count))
        exact = self._exact(kind, params)
        assert np.array_equal(batch_indices(fam, params, "auto"), exact)
        rh = batch_indices(fam, params, "rh")
        certified = rh >= 0
        assert np.array_equal(rh[certified], exact[certified])

    def test_companion_fallback_codes_are_exact(self):
        """The disc-eq n = 36 rows the Jury scan leaves indeterminate, which
        "auto" settles by companion eigenvalues."""
        fam = ModelFamily("disc-eq", 36)
        params = np.random.default_rng(36).standard_normal((2000, fam.param_count))
        left = np.flatnonzero(batch_indices(fam, params, "rh") < 0)
        assert left.size > 0
        auto = batch_indices(fam, params[left], "auto")
        assert np.array_equal(auto, self._exact("disc-eq", params[left]))

    def test_scalar_exit_certifies_under_auto(self, monkeypatch):
        """Rows 1833 and 1871 of 2,000 disc-sys n = 20 draws meet a ~0
        pivot in the batch Routh scan, and its scalar exit,
        kernels.routh_scan, certifies both under "auto" before any
        eigenvalue is taken; the exact referee agrees.  Normal draws reach
        rows the exit decides, so it stays."""
        fam = ModelFamily("disc-sys", 20)
        params = np.random.default_rng(20).standard_normal((2000, fam.param_count))
        params = params[[1833, 1871]]
        scan, exits = kernels.routh_scan, []

        def recording_scan(coeffs, tol):
            exits.append(scan(coeffs, tol))
            return exits[-1]

        monkeypatch.setattr(kernels, "routh_scan", recording_scan)
        auto = batch_indices(fam, params, "auto")
        assert len(exits) == 2 and min(exits) >= 0
        assert np.array_equal(auto, self._exact("disc-sys", params))

    def test_matrix_fallback_codes_are_exact(self):
        """Up to 8 of the cont-sys n = 24 rows the char-poly scan leaves
        indeterminate, which "auto" settles by the matrices' eigenvalues."""
        fam, params = _cont_sys_24()
        left = np.flatnonzero(batch_indices(fam, params, "rh") < 0)[:8]
        assert left.size > 0
        auto = batch_indices(fam, params[left], "auto")
        assert np.array_equal(auto, self._exact("cont-sys", params[left]))
