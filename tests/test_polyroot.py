"""Root counting: worked examples, indeterminate verdicts, agreement with
the eigenvalue oracle, and the input checks of the per-sample API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabindex import kernels
from stabindex.models import (
    RootCount,
    char_poly,
    companion_matrix,
    eigen_region_count,
    jury_count,
    mobius_star,
    routh_hurwitz_count,
)

from reference import companion


def _disk_oracle(coeffs, radius=1.0):
    """Independent modulus count from companion-matrix eigenvalues."""
    mods = np.abs(np.linalg.eigvals(companion_matrix(coeffs)))
    assert np.abs(mods - radius).min() > 1e-9, "oracle too close to boundary"
    return int((mods < radius).sum())


def _halfplane_oracle(coeffs):
    real = np.linalg.eigvals(companion_matrix(coeffs)).real
    assert np.abs(real).min() > 1e-9, "oracle too close to boundary"
    return int((real < 0).sum())


class TestRouthHurwitz:
    def test_linear(self):
        assert routh_hurwitz_count([1, 1]) == RootCount(count=1)

    def test_symmetric_pair(self):
        # roots +/-1: an all-zero Routh row repaired by the divisor derivative
        assert routh_hurwitz_count([-1, 0, 1]) == RootCount(count=1)

    def test_cubic_all_stable(self):
        # positive coefficients with a1*a2 - a0*a3 = 2 > 0
        coeffs = [4.0, 3.0, 2.0, 1.0]
        assert routh_hurwitz_count(coeffs) == RootCount(count=3)
        assert _halfplane_oracle(coeffs) == 3

    def test_degree_zero(self):
        assert routh_hurwitz_count([5.0]) == RootCount(count=0)

    def test_imaginary_pair_is_boundary(self):
        assert routh_hurwitz_count([1, 0, 1]).reason == "boundary-root"

    def test_root_at_origin_is_boundary(self):
        assert routh_hurwitz_count([0.0, 1.0, 1.0]).reason == "boundary-root"

    def test_two_symmetric_pairs(self):
        # (x^2-1)(x^2-4): zero row of width > 1, no imaginary-axis roots
        assert routh_hurwitz_count([4, 0, -5, 0, 1]) == RootCount(count=2)

    def test_two_imaginary_pairs(self):
        # (x^2+1)(x^2+4)
        assert routh_hurwitz_count([4, 0, 5, 0, 1]).reason == "boundary-root"

    def test_isolated_zero_pivot(self):
        # first column hits ~0 while the rest of the row does not
        assert routh_hurwitz_count([3, 2, 2, 1, 1]).reason == "zero-pivot"

    def test_zero_leading_coefficient(self):
        assert routh_hurwitz_count([1.0, 1.0, 1e-18]).reason == "zero-leading-coefficient"

    def test_zero_polynomial(self):
        assert routh_hurwitz_count([0.0, 0.0]).reason == "zero-leading-coefficient"

    @given(st.floats(min_value=1e-6, max_value=1e6), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, magnitude, negate):
        c = -magnitude if negate else magnitude
        coeffs = np.array([4.0, 3.0, 2.0, 1.0])
        assert routh_hurwitz_count(c * coeffs) == routh_hurwitz_count(coeffs)

    def test_scale_invariance_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            coeffs = rng.standard_normal(rng.integers(2, 8))
            c = rng.standard_normal() or 1.0
            assert routh_hurwitz_count(c * coeffs) == routh_hurwitz_count(coeffs)

    def test_reflection(self):
        # counts of p(x) and p(-x) partition the degree when no roots lie on
        # the imaginary axis
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(300):
            coeffs = rng.standard_normal(rng.integers(2, 8))
            n = coeffs.size - 1
            flipped = coeffs * (-1.0) ** np.arange(n + 1)
            a, b = routh_hurwitz_count(coeffs), routh_hurwitz_count(flipped)
            if a.determinate and b.determinate:
                assert a.count + b.count == n
                checked += 1
        assert checked > 250


class TestMobiusStar:
    def test_monomial(self):
        assert np.array_equal(mobius_star([0, 1]), [1.0, 1.0])

    def test_constant(self):
        assert np.array_equal(mobius_star([1.0]), [1.0])

    def test_hand_expansion(self):
        # (z+1)^2 + (z-1)^2 = 2z^2 + 2
        assert np.array_equal(mobius_star([1, 0, 1]), [2.0, 0.0, 2.0])

    def test_degree_drop_iff_coeff_sum_vanishes(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            coeffs = rng.standard_normal(rng.integers(2, 8))
            star = mobius_star(coeffs)
            lead = star[-1]
            total = coeffs.sum()
            assert lead == pytest.approx(total, abs=1e-9 * np.abs(coeffs).max())

    def test_unit_root_drops_degree(self):
        star = mobius_star([1, -2, 1])  # (x-1)^2
        assert abs(star[-1]) < 1e-12 and abs(star[-2]) < 1e-12

    def test_disk_roots_map_to_half_plane(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            coeffs = rng.standard_normal(6)
            inside = _disk_oracle(coeffs)
            star_count = routh_hurwitz_count(mobius_star(coeffs))
            if star_count.determinate:
                assert star_count.count == inside


class TestJury:
    def test_root_half(self):
        assert jury_count([-1, 2]) == RootCount(count=1)

    def test_root_two(self):
        assert jury_count([-2, 1]) == RootCount(count=0)

    def test_pair_inside(self):
        coeffs = [-0.25, 0.0, 1.0]
        assert jury_count(coeffs) == RootCount(count=2)
        assert _disk_oracle(coeffs) == 2

    def test_unit_circle_root_is_boundary(self):
        assert jury_count([1, 0, 1]).reason == "boundary-root"

    def test_root_at_one_is_boundary(self):
        assert jury_count([1, -2, 1]).reason == "boundary-root"

    def test_root_at_minus_one_is_boundary(self):
        assert jury_count([1, 2, 1]).reason == "boundary-root"


class TestCompanion:
    def test_symmetric_pair(self):
        assert np.array_equal(companion_matrix([-1, 0, 1]), [[0, 1], [1, 0]])

    def test_degree_one(self):
        assert np.array_equal(companion_matrix([5, 1]), [[-5.0]])

    def test_cubic_last_row(self):
        comp = companion_matrix([4, 3, 2, 1])
        assert np.array_equal(comp[-1], [-4.0, -3.0, -2.0])
        assert np.array_equal(comp[:-1, 1:], np.eye(2))

    def test_normalizes_to_monic(self):
        comp = companion_matrix([8, 6, 4, 2])
        assert np.array_equal(comp[-1], [-4.0, -3.0, -2.0])

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            companion_matrix([1.0])

    def test_rejects_zero_leading(self):
        with pytest.raises(ValueError):
            companion_matrix([1.0, 1.0, 0.0])

    def test_raises_where_the_batch_rule_flags(self):
        """companion_matrix raises exactly where kernels._small_leads flags
        its column: all zero, |c[n]| equal to tol * max|c|, but not one
        ulp above that."""
        tol = 1e-12
        edge = tol * 3.0
        columns = [[0.0, 0.0, 0.0], [-3.0, 1.5, edge], [-3.0, 1.5, np.nextafter(edge, 1.0)]]
        flags = []
        for c in columns:
            with kernels.lend() as ws:
                flags.append(bool(kernels._small_leads(np.array(c)[:, None], tol, ws)[0]))
            if flags[-1]:
                with pytest.raises(ValueError, match="zero leading"):
                    companion_matrix(c, tol)
            else:
                companion_matrix(c, tol)
        assert flags == [True, True, False]

    def test_matches_reference_bit_for_bit(self):
        """On normal and integer {-2..2} columns at n = 1..8 the matrix
        equals reference.companion's, built on np.zeros with the last row
        (-c[:n]) / c[n], bit for bit; columns with a zero leading
        coefficient raise."""
        rng = np.random.default_rng(8)
        for n in range(1, 9):
            cols = [rng.standard_normal(n + 1) for _ in range(50)]
            cols += [rng.integers(-2, 3, size=n + 1).astype(float) for _ in range(50)]
            for c in cols:
                if c[n] == 0.0:
                    with pytest.raises(ValueError, match="zero leading"):
                        companion_matrix(c)
                    continue
                np.testing.assert_array_equal(
                    companion_matrix(c).view(np.int64),
                    companion(c).view(np.int64),
                    err_msg=f"n={n} c={c}",
                )


class TestEigenRegionCount:
    def test_half_plane(self):
        assert eigen_region_count([[-1, 0], [0, 2]]) == RootCount(count=1)

    def test_disk_radius_two(self):
        got = eigen_region_count([[0, 1], [1, 0]], "disk", radius=2.0)
        assert got == RootCount(count=2)

    def test_agrees_with_routh_on_cubic(self):
        comp = companion_matrix([4, 3, 2, 1])
        assert eigen_region_count(comp) == RootCount(count=3)

    def test_boundary_eigenvalue(self):
        assert eigen_region_count([[0, 1], [-1, 0]]).reason == "boundary-root"
        got = eigen_region_count([[0, 1], [1, 0]], "disk", radius=1.0)
        assert got.reason == "boundary-root"

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_radius(self, radius):
        # unchecked, NaN would count no eigenvalue inside and inf would call
        # every one a boundary root
        with pytest.raises(ValueError, match="finite positive"):
            eigen_region_count(0.5 * np.eye(2), "disk", radius=radius)

    def test_rejects_bad_region(self):
        with pytest.raises(ValueError):
            eigen_region_count(np.eye(2), "upper-half-plane")

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eigen_region_count(np.zeros((2, 3)))


class TestOracleEquivalence:
    """Protocol: random normal coefficients, all mutually determinate pairs
    must agree (the full 10^4-per-degree run lives in the acceptance
    suite)."""

    def test_half_plane(self):
        rng = np.random.default_rng(101)
        for n in range(1, 7):
            coeffs = rng.standard_normal((1000, n + 1))
            for row in coeffs:
                rh = routh_hurwitz_count(row)
                if not rh.determinate:
                    continue
                eig = eigen_region_count(companion_matrix(row), "left-half-plane")
                if eig.determinate:
                    assert rh.count == eig.count

    def test_disk(self):
        rng = np.random.default_rng(202)
        for n in range(1, 7):
            coeffs = rng.standard_normal((1000, n + 1))
            for row in coeffs:
                jy = jury_count(row)
                if not jy.determinate:
                    continue
                eig = eigen_region_count(companion_matrix(row), "disk", radius=1.0)
                if eig.determinate:
                    assert jy.count == eig.count


class TestRootCount:
    def test_exactly_one_field(self):
        with pytest.raises(ValueError):
            RootCount()
        with pytest.raises(ValueError):
            RootCount(count=1, reason="zero-pivot")

    def test_from_code(self):
        assert RootCount.from_code(3).count == 3
        assert RootCount.from_code(-1).reason == "zero-pivot"
        assert RootCount.from_code(-2).reason == "boundary-root"
        assert RootCount.from_code(-3).reason == "zero-leading-coefficient"

    def test_str(self):
        assert str(routh_hurwitz_count([4.0, 3.0, 2.0, 1.0])) == "Count(3)"
        assert str(RootCount.from_code(-2)) == "Indeterminate(boundary-root)"


class TestToleranceValidation:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), 0.0, -1e-12])
    def test_counts_reject_bad_tol(self, tol):
        with pytest.raises(ValueError, match="finite positive"):
            routh_hurwitz_count([1, 1], tol=tol)
        with pytest.raises(ValueError, match="finite positive"):
            jury_count([0.5, 1], tol=tol)
        with pytest.raises(ValueError, match="finite positive"):
            eigen_region_count(np.eye(2), tol=tol)
        with pytest.raises(ValueError, match="finite positive"):
            companion_matrix([1, 1], tol=tol)


class TestNonFiniteInput:
    """NaN or inf anywhere in a coefficient vector or matrix is a ValueError,
    as it is for batch_indices; unchecked, the counts called such input
    indeterminate, the constructors returned NaN arrays and the eigenvalue
    route raised LinAlgError.  An empty coefficient vector is one too."""

    ENTRY_POINTS = {
        "routh_hurwitz_count": (routh_hurwitz_count, [1.0, 2.0, 1.0]),
        "jury_count": (jury_count, [0.25, 0.5, 1.0]),
        "mobius_star": (mobius_star, [0.25, 0.5, 1.0]),
        "companion_matrix": (companion_matrix, [1.0, 2.0, 1.0]),
        "eigen_region_count": (eigen_region_count, [[-1.0, 0.5], [0.25, -2.0]]),
        "char_poly": (char_poly, [[-1.0, 0.5], [0.25, -2.0]]),
    }

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_is_a_value_error(self, name, bad):
        func, good = self.ENTRY_POINTS[name]
        func(good)
        for index in np.ndindex(np.shape(good)):
            arg = np.array(good)
            arg[index] = bad
            with pytest.raises(ValueError, match="must be finite"):
                func(arg)

    @pytest.mark.parametrize(
        "name", ["companion_matrix", "jury_count", "mobius_star", "routh_hurwitz_count"]
    )
    def test_empty_coefficient_array_is_a_value_error(self, name):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            self.ENTRY_POINTS[name][0]([])
