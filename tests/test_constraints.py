"""Constraint systems: the generated parametrizations against hand-worked
systems, closure, and the exact-value catalog."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabindex import constraints
from stabindex.constraints import (
    ConstraintSystem,
    InconsistentConstraints,
    build_constraints,
    even_parity_sum,
    exact_probabilities,
    half_plane_sign_prob,
    relation_strings,
)
from stabindex.models import FAMILY_KINDS, ModelFamily
from stabindex.refine import least_squares_refine


class TestWorkedSystems:
    def test_cont_sys_seven(self):
        cs = build_constraints(ModelFamily("cont-sys", 7))
        assert cs.free == (0, 1, 2)
        want = np.array(
            [
                [1, 0, 0],
                [0, 1, 0],
                [0, 0, 1],
                [-1, -1, -1],
                [-1, -1, -1],
                [0, 0, 1],
                [0, 1, 0],
                [1, 0, 0],
            ],
            dtype=float,
        )
        assert np.array_equal(cs.design, want)
        assert np.array_equal(cs.offset, [0, 0, 0, 0.5, 0.5, 0, 0, 0])

    def test_cont_sys_two_fully_determined(self):
        cs = build_constraints(ModelFamily("cont-sys", 2))
        assert cs.free == ()
        assert np.array_equal(cs.offset, [0.25, 0.5, 0.25])

    def test_cont_eq_eight(self):
        cs = build_constraints(ModelFamily("cont-eq", 8))
        assert cs.free == (0, 1, 2)
        want = np.array(
            [
                [1, 0, 0],
                [0, 1, 0],
                [0, 0, 1],
                [0, -1, 0],
                [-2, 0, -2],
                [0, -1, 0],
                [0, 0, 1],
                [0, 1, 0],
                [1, 0, 0],
            ],
            dtype=float,
        )
        assert np.array_equal(cs.design, want)
        assert np.array_equal(cs.offset, [0, 0, 0, 0.25, 0.5, 0.25, 0, 0, 0])

    def test_disc_eq_four(self):
        cs = build_constraints(ModelFamily("disc-eq", 4))
        assert cs.free == (0,)
        assert np.array_equal(cs.design.ravel(), [1, 0, -2, 0, 1])
        side = math.atan(math.sqrt(2.0 / 3.0)) / math.pi
        evensum = 2.0 / math.pi * math.atan(math.sqrt(1.5))
        assert cs.offset == pytest.approx([0, side, evensum, side, 0], abs=1e-15)

    def test_disc_sys_trivial_system(self):
        cs = build_constraints(ModelFamily("disc-sys", 3))
        assert not cs.family.symmetric
        assert cs.free == (0, 1, 2)
        # only total mass: p3 = 1 - p0 - p1 - p2
        assert np.array_equal(cs.design[3], [-1, -1, -1])
        assert cs.offset[3] == 1.0

    def test_relation_strings(self):
        cs = build_constraints(ModelFamily("cont-sys", 7))
        rendered = relation_strings(cs)
        assert rendered[0] == "p0"
        assert rendered[3] == "p3 = 0.5 - p0 - p1 - p2"
        assert rendered[7] == "p7 = p0"


class TestClosureAndRank:
    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    @pytest.mark.parametrize("n", range(1, 11))
    def test_mass_closure(self, kind, n):
        cs = build_constraints(ModelFamily(kind, n))
        ones = np.ones(n + 1)
        if cs.design.size:
            assert np.abs(ones @ cs.design).max() < 1e-12
        assert abs(ones @ cs.offset - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    @pytest.mark.parametrize("n", range(1, 11))
    def test_full_column_rank(self, kind, n):
        cs = build_constraints(ModelFamily(kind, n))
        k = cs.design.shape[1]
        assert k <= n + 1
        if k:
            assert np.linalg.matrix_rank(cs.design) == k

    @pytest.mark.parametrize("kind", ("cont-sys", "cont-eq", "disc-eq"))
    @pytest.mark.parametrize("n", range(1, 11))
    def test_reconstructs_symmetry(self, kind, n):
        # any free vector must produce a mirror-symmetric p
        cs = build_constraints(ModelFamily(kind, n))
        rng = np.random.default_rng(n)
        q = rng.uniform(0.0, 0.2, size=cs.design.shape[1])
        p = cs.design @ q + cs.offset
        assert np.allclose(p, p[::-1], atol=1e-12)

    def test_parity_relation_disc_eq(self):
        for n in (2, 4, 6, 8, 10):
            fam = ModelFamily("disc-eq", n)
            cs = build_constraints(fam)
            rng = np.random.default_rng(n)
            q = rng.uniform(0.0, 0.1, size=cs.design.shape[1])
            p = cs.design @ q + cs.offset
            assert p[0::2].sum() == pytest.approx(even_parity_sum(fam), abs=1e-12)


class TestPinning:
    def test_pinned_entries_are_zero_rows(self):
        cs = build_constraints(ModelFamily("cont-eq", 8), pinned=(0, 8))
        assert cs.free == (1, 2)
        assert not cs.design[0].any() and cs.offset[0] == 0.0
        assert not cs.design[8].any() and cs.offset[8] == 0.0

    def test_pinning_a_fixed_positive_entry_is_inconsistent(self):
        # disc-eq(4) fixes p1 to a positive constant; pinning it to 0 must fail
        with pytest.raises(InconsistentConstraints):
            build_constraints(ModelFamily("disc-eq", 4), pinned=(1,))

    def test_pinned_out_of_range(self):
        with pytest.raises(ValueError):
            build_constraints(ModelFamily("cont-eq", 4), pinned=(9,))

    @pytest.mark.parametrize("pin", [-0.5, 1.5, "3", True])
    def test_non_integer_pin_is_rejected(self, pin):
        # int() would truncate these to a pin the caller never passed
        with pytest.raises(ValueError, match="pinned index must be an integer"):
            build_constraints(ModelFamily("cont-eq", 4), pinned=[pin])


class TestSharing:
    """build_constraints hands out one shared, read-only system per
    (family, pinned set); everything it refuses it refuses on every call."""

    def test_equal_keys_share_one_system(self):
        family = ModelFamily("cont-eq", 8)
        shared = build_constraints(family, pinned=(0, 8))
        for pins in ([8, 0], {0, 8}, (8, 0, 8), np.array([0, 8]), (j for j in (8, 0))):
            assert build_constraints(family, pinned=pins) is shared
        assert build_constraints(ModelFamily("cont-eq", 8), pinned=(0, 8)) is shared
        assert build_constraints(family) is build_constraints(family, pinned=[])
        assert build_constraints(family) is not shared

    def test_systems_compare_by_identity(self):
        family = ModelFamily("cont-eq", 4)
        shared = build_constraints(family)
        assert shared == build_constraints(family)
        assert hash(shared) == hash(build_constraints(family))
        uncached = constraints._build_system.__wrapped__(family, ())
        assert (shared == uncached) is False
        assert np.array_equal(shared.design, uncached.design)

    def test_arrays_stay_read_only(self):
        cs = build_constraints(ModelFamily("cont-sys", 7))
        least_squares_refine(cs, np.full(8, 1 / 8))
        for arr in (cs.design, cs.offset, cs.gram, cs.hat_squared):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert build_constraints(ModelFamily("cont-sys", 7)).design[3, 0] == -1.0

    def test_relation_strings_is_a_fresh_list(self):
        cs = build_constraints(ModelFamily("cont-sys", 7))
        first = relation_strings(cs)
        want = list(first)
        second = relation_strings(cs)
        assert first == second and first is not second
        first[3] = "mutated"
        first.append("extra")
        assert relation_strings(cs) == want
        assert relation_strings(build_constraints(ModelFamily("cont-sys", 7))) == want

    def test_bad_pins_raise_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="out of range"):
                build_constraints(ModelFamily("cont-eq", 4), pinned=(9,))
            with pytest.raises(InconsistentConstraints):
                build_constraints(ModelFamily("disc-eq", 4), pinned=(1,))

    def test_rank_deficient_system_raises_on_every_refine(self):
        design = np.array([[1.0, 1.0], [1.0, 1.0], [-2.0, -2.0]])
        design.flags.writeable = False
        cs = ConstraintSystem(
            ModelFamily("cont-eq", 2), (0, 1), design, np.array([0.0, 0.0, 1.0])
        )
        for _ in range(3):
            with pytest.raises(ValueError, match="rank deficient"):
                least_squares_refine(cs, np.array([0.25, 0.5, 0.25]))


class TestExactCatalog:
    def test_cont_eq_three(self):
        vals = exact_probabilities(ModelFamily("cont-eq", 3)).values
        assert np.array_equal(vals, [1 / 16, 7 / 16, 7 / 16, 1 / 16])

    def test_cont_sys_low_dims(self):
        assert np.array_equal(
            exact_probabilities(ModelFamily("cont-sys", 1)).values, [0.5, 0.5]
        )
        assert np.array_equal(
            exact_probabilities(ModelFamily("cont-sys", 2)).values, [0.25, 0.5, 0.25]
        )

    def test_disc_eq_two(self):
        vals = exact_probabilities(ModelFamily("disc-eq", 2)).values
        assert vals[0] == pytest.approx(0.304087, abs=1e-6)
        assert vals[2] == vals[0]
        assert vals.sum() == pytest.approx(1.0, abs=1e-12)

    def test_disc_eq_three_unknown(self):
        vals = exact_probabilities(ModelFamily("disc-eq", 3)).values
        assert not np.isfinite(vals).any()

    def test_disc_eq_four_partial(self):
        pv = exact_probabilities(ModelFamily("disc-eq", 4))
        side = math.atan(math.sqrt(2.0 / 3.0)) / math.pi
        assert np.array_equal(pv.known, [False, True, False, True, False])
        assert pv.values[1] == pytest.approx(side, abs=1e-15)

    def test_catalog_satisfies_relations(self):
        for kind in FAMILY_KINDS:
            for n in range(1, 11):
                fam = ModelFamily(kind, n)
                pv = exact_probabilities(fam)
                if not pv.known.all():
                    continue
                cs = build_constraints(fam)
                q = pv.values[list(cs.free)]
                assert np.abs(cs.design @ q + cs.offset - pv.values).max() < 1e-12


class TestScalarFormulas:
    def test_sign_prob_symmetric(self):
        assert half_plane_sign_prob(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_sign_prob_root_two(self):
        got = half_plane_sign_prob(math.sqrt(2.0), 1.0)
        assert got == pytest.approx(0.608173, abs=1e-6)

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.05, max_value=20.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_sign_prob_complement(self, sigma, rho):
        total = half_plane_sign_prob(sigma, rho) + half_plane_sign_prob(rho, sigma)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_sign_prob_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            half_plane_sign_prob(0.0, 1.0)

    def test_parity_sum_values(self):
        assert even_parity_sum(ModelFamily("cont-eq", 4)) == 0.5
        assert even_parity_sum(ModelFamily("cont-eq", 3)) is None
        assert even_parity_sum(ModelFamily("disc-sys", 4)) is None
        got = even_parity_sum(ModelFamily("disc-eq", 2))
        assert got == pytest.approx(2 * math.atan(math.sqrt(2.0)) / math.pi, abs=1e-15)
