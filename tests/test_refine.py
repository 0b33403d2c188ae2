"""Least-squares refinement and the non-negativity repair, checked against
exactly known projections (frozen as rational constants)."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from stabindex import constraints, refine
from stabindex.constraints import (
    InconsistentConstraints,
    build_constraints,
)
from stabindex.models import FAMILY_KINDS, ModelFamily
from stabindex.montecarlo import (
    EstimationConfig,
    ProbabilityVector,
    frequencies,
    run_estimation,
)
from stabindex.refine import RepairFailed, least_squares_refine, nonneg_repair


def _floats(fractions):
    return np.array([float(Fraction(num, den)) for num, den in fractions])


# Observed frequencies from a large reference run at n=7 (cont-sys) and the
# exact least-squares projection they produce under the n=7 relations.
CONT_SYS_7_OBSERVED = _floats(
    [
        (31643, 50_000_000),
        (261137, 12_500_000),
        (7124967, 50_000_000),
        (1344047, 4_000_000),
        (33597117, 100_000_000),
        (14248187, 100_000_000),
        (1043913, 50_000_000),
        (63379, 100_000_000),
    ]
)
CONT_SYS_7_REFINED = _floats(
    [
        (25333, 40_000_000),
        (2088461, 100_000_000),
        (28498121, 200_000_000),
        (16799573, 50_000_000),
        (16799573, 50_000_000),
        (28498121, 200_000_000),
        (2088461, 100_000_000),
        (25333, 40_000_000),
    ]
)

# Reference frequencies for order 8 (cont-eq) whose plain projection dips
# negative at the ends, plus the exact repaired solution.
CONT_EQ_8_OBSERVED = _floats(
    [
        (1, 50_000_000),
        (6599, 50_000_000),
        (1159359, 50_000_000),
        (4996163, 20_000_000),
        (45377377, 100_000_000),
        (4995607, 20_000_000),
        (2318357, 100_000_000),
        (13497, 100_000_000),
        (1, 100_000_000),
    ]
)
CONT_EQ_8_FIRST_PASS_P0 = float(Fraction(-5779, 200_000_000))
CONT_EQ_8_REPAIRED = _floats(
    [
        (0, 1),
        (13569, 80_000_000),
        (13882321, 600_000_000),
        (19986431, 80_000_000),
        (136117679, 300_000_000),
        (19986431, 80_000_000),
        (13882321, 600_000_000),
        (13569, 80_000_000),
        (0, 1),
    ]
)

# Reference frequencies of the even entries for order-4 difference equations
# (the odd entries are fixed by the relations and do not enter the fit).
DISC_EQ_4_OBSERVED = np.array(
    [
        float(Fraction(2056203, 20_000_000)),
        0.21792,
        float(Fraction(7169499, 20_000_000)),
        0.21794,
        float(Fraction(10285619, 100_000_000)),
    ]
)

# Needs two pinning rounds: the first pass drives the far tails negative,
# the re-solve then drives the next ring negative as well.
TWO_ROUND_VECTOR = np.array(
    [
        0.00128065,
        0.00322315,
        0.00314054,
        0.01407056,
        0.21366924,
        0.53132402,
        0.21219616,
        0.01459228,
        0.00246535,
        0.00292778,
        0.00111027,
    ]
)
TWO_ROUND_VECTOR /= TWO_ROUND_VECTOR.sum()


class TestLeastSquares:
    def test_reproduces_exact_projection_n7(self):
        cs = build_constraints(ModelFamily("cont-sys", 7))
        got = least_squares_refine(cs, CONT_SYS_7_OBSERVED)
        assert np.abs(got.values - CONT_SYS_7_REFINED).max() < 1e-12
        assert got.source == "refined"

    def test_projection_fixed_point(self):
        cs = build_constraints(ModelFamily("cont-eq", 5))
        q = np.array([0.01, 0.12])
        p = cs.design @ q + cs.offset
        got = least_squares_refine(cs, p)
        assert np.abs(got.values - p).max() < 1e-12

    def test_idempotent(self):
        cs = build_constraints(ModelFamily("cont-sys", 7))
        once = least_squares_refine(cs, CONT_SYS_7_OBSERVED)
        twice = least_squares_refine(cs, once.values)
        assert np.abs(once.values - twice.values).max() < 1e-12

    def test_residual_optimality(self):
        cs = build_constraints(ModelFamily("cont-sys", 7))
        target = CONT_SYS_7_OBSERVED - cs.offset
        qhat = np.linalg.lstsq(cs.design, target, rcond=None)[0]
        best = np.linalg.norm(cs.design @ qhat - target)
        rng = np.random.default_rng(77)
        for _ in range(100):
            probe = qhat + rng.standard_normal(qhat.size) * 0.01
            assert np.linalg.norm(cs.design @ probe - target) >= best - 1e-15

    def test_relations_hold_exactly(self):
        cs = build_constraints(ModelFamily("cont-eq", 8))
        got = least_squares_refine(cs, CONT_EQ_8_OBSERVED)
        p = got.values
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.abs(p - p[::-1]).max() < 1e-12
        assert abs(p[0::2].sum() - 0.5) < 1e-12  # even-order parity relation
        assert abs(p[3] - (0.25 - p[1])) < 1e-12

    def test_disc_eq_4_closed_form(self):
        cs = build_constraints(ModelFamily("disc-eq", 4))
        got = least_squares_refine(cs, DISC_EQ_4_OBSERVED)
        pt = DISC_EQ_4_OBSERVED
        closed = (pt[0] - 2 * pt[2] + pt[4]) / 6 + 2 / (3 * math.pi) * math.atan(
            math.sqrt(1.5)
        )
        assert abs(got.values[0] - closed) < 1e-12
        assert abs(got.values[4] - closed) < 1e-12
        side = math.atan(math.sqrt(2.0 / 3.0)) / math.pi
        assert abs(got.values[1] - side) < 1e-12

    def test_fully_determined_system(self):
        cs = build_constraints(ModelFamily("cont-sys", 2))
        got = least_squares_refine(cs, np.array([0.3, 0.45, 0.25]))
        assert np.array_equal(got.values, [0.25, 0.5, 0.25])
        # no free parameter: the offset comes back bit for bit, with no error
        observed = ProbabilityVector(np.array([0.3, 0.45, 0.25]), np.array([0.01, 0.02, 0.01]))
        got = least_squares_refine(cs, observed)
        assert got.values.tobytes() == cs.offset.tobytes()
        assert got.stderr.tobytes() == np.zeros(3).tobytes()

    def test_length_checked(self):
        cs = build_constraints(ModelFamily("cont-sys", 2))
        with pytest.raises(ValueError):
            least_squares_refine(cs, np.array([0.5, 0.5]))

    def test_nan_input_not_marked_refined(self):
        # a NaN frequency would otherwise come back as an all-NaN "refined" vector
        cs = build_constraints(ModelFamily("cont-eq", 4))
        with pytest.raises(ValueError, match="finite"):
            least_squares_refine(cs, [math.nan, 0.25, 0.5, 0.25, 0.0])


def _inline_refine(cs, observed):
    """The refinement with the Gram and hat matrices formed in place from
    the design: the shared system's kept operands must match it bit for
    bit."""
    d = cs.design
    gram = d.T @ d
    qhat = np.linalg.solve(gram, d.T @ (observed.values - cs.offset))
    hat = d @ np.linalg.solve(gram, d.T)
    return d @ qhat + cs.offset, np.sqrt(hat**2 @ observed.stderr**2)


def _observed(values, samples=1_000_000):
    values = np.asarray(values, dtype=float)
    return ProbabilityVector(values, np.sqrt(values * (1.0 - values) / samples))


class TestSharedSystem:
    @pytest.mark.parametrize(
        "kind, n, pinned, values",
        [
            ("cont-sys", 7, (), CONT_SYS_7_OBSERVED),
            ("cont-eq", 8, (), CONT_EQ_8_OBSERVED),
            ("cont-eq", 8, (0, 8), CONT_EQ_8_OBSERVED),
            ("disc-eq", 4, (), DISC_EQ_4_OBSERVED / DISC_EQ_4_OBSERVED.sum()),
            ("cont-sys", 2, (), [0.3, 0.45, 0.25]),
        ],
    )
    def test_bit_identical_to_an_uncached_build(self, kind, n, pinned, values):
        family = ModelFamily(kind, n)
        observed = _observed(values)
        shared = build_constraints(family, pinned=pinned)
        fresh = constraints._build_system.__wrapped__(family, tuple(pinned))
        assert fresh is not shared
        want = least_squares_refine(fresh, observed)
        for _ in range(2):  # cold, then warm cached operands
            got = least_squares_refine(shared, observed)
            assert got.values.tobytes() == want.values.tobytes()
            assert got.stderr.tobytes() == want.stderr.tobytes()
        if fresh.free:
            values, stderr = _inline_refine(fresh, observed)
            assert want.values.tobytes() == values.tobytes()
            assert want.stderr.tobytes() == stderr.tobytes()

    def test_rank_check_runs_once_per_system(self, monkeypatch):
        calls = []
        rank = np.linalg.matrix_rank

        def counting_rank(*args, **kwargs):
            calls.append(None)
            return rank(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", counting_rank)
        family = ModelFamily("cont-sys", 7)
        fresh = constraints._build_system.__wrapped__(family, ())
        least_squares_refine(fresh, CONT_SYS_7_OBSERVED)
        least_squares_refine(fresh, _observed(CONT_SYS_7_OBSERVED))
        assert len(calls) == 1
        constraints._build_system.cache_clear()
        for _ in range(2):
            least_squares_refine(build_constraints(family), CONT_SYS_7_OBSERVED)
        assert len(calls) == 2


class TestNonnegRepair:
    def test_reproduces_exact_repair_n8(self):
        cs = build_constraints(ModelFamily("cont-eq", 8))
        first = least_squares_refine(cs, CONT_EQ_8_OBSERVED)
        assert abs(first.values[0] - CONT_EQ_8_FIRST_PASS_P0) < 1e-12
        star = nonneg_repair(cs, CONT_EQ_8_OBSERVED)
        assert np.abs(star.values - CONT_EQ_8_REPAIRED).max() < 1e-12
        assert star.values[0] == 0.0 and star.values[8] == 0.0

    def test_noop_when_already_nonnegative(self):
        cs = build_constraints(ModelFamily("cont-sys", 7))
        plain = least_squares_refine(cs, CONT_SYS_7_OBSERVED)
        repaired = nonneg_repair(cs, CONT_SYS_7_OBSERVED)
        assert np.array_equal(plain.values, repaired.values)

    def test_symmetric_pinning_on_sampled_frequencies(self):
        # at this sample size the order-10 tails are far below the noise
        # floor, so the plain projection dips negative; repair pins the
        # negative entries, and the relations zero their mirrors
        family = ModelFamily("cont-eq", 10)
        cfg = EstimationConfig(family, 100_000, 3)
        freq = frequencies(run_estimation(cfg))
        cs = build_constraints(family)
        first = least_squares_refine(cs, freq)
        assert (first.values < 0).any()
        star = nonneg_repair(cs, freq)
        assert (star.values >= 0).all()
        for j in np.flatnonzero(star.values == 0.0):
            assert star.values[family.n - j] == 0.0
        assert abs(star.values.sum() - 1.0) < 1e-9

    def test_two_rounds_then_success(self):
        cs = build_constraints(ModelFamily("cont-eq", 10))
        star = nonneg_repair(cs, TWO_ROUND_VECTOR)
        assert (star.values >= 0).all()

    def test_exhausted_rounds_carries_last_iterate(self, monkeypatch):
        # a rebuild that ignores the pins leaves the same negatives standing,
        # so the second round has nothing new to pin
        monkeypatch.setattr(
            refine, "build_constraints", lambda family, pinned=(): build_constraints(family)
        )
        cs = build_constraints(ModelFamily("cont-eq", 10))
        with pytest.raises(RepairFailed) as err:
            nonneg_repair(cs, TWO_ROUND_VECTOR)
        assert (err.value.last.values < 0).any()

    def test_inconsistent_pinning_reported(self):
        # disc-eq(4) fixes p1 at a positive constant; a repair that tries to
        # pin it must surface the contradiction instead of guessing
        with pytest.raises(InconsistentConstraints):
            build_constraints(ModelFamily("disc-eq", 4), pinned=(1,))


SYMMETRIC_KINDS = [kind for kind in FAMILY_KINDS if ModelFamily(kind, 2).symmetric]


def _system_or_none(family, pinned):
    try:
        return constraints._build_system.__wrapped__(family, tuple(sorted(pinned)))
    except InconsistentConstraints:
        return None


def _mirrored_repair(cs, ptilde):
    """A repair that pins every negative index and its mirror each round,
    the reference for nonneg_repair's one-sided pins."""
    pinned = set(cs.pinned)
    phat = least_squares_refine(cs, ptilde)
    while (negative := np.flatnonzero(phat.values < 0.0)).size:
        grown = pinned | set(negative.tolist()) | {cs.family.n - j for j in negative.tolist()}
        if grown == pinned:
            raise RepairFailed(phat)
        pinned = grown
        cs = build_constraints(cs.family, pinned=pinned)
        phat = least_squares_refine(cs, ptilde)
    return phat


class TestMirrorPins:
    """In a symmetric family the relation p_k - p_{n-k} = 0 zeroes a pinned
    entry's mirror, so nonneg_repair pins only the negative entries."""

    @pytest.mark.parametrize("kind", SYMMETRIC_KINDS)
    def test_one_sided_pins_build_the_mirrored_system(self, kind):
        checked = 0
        for n in range(1, 11):
            family = ModelFamily(kind, n)
            for size in (1, 2):
                for pins in itertools.combinations(range(n + 1), size):
                    one = _system_or_none(family, pins)
                    both = _system_or_none(family, set(pins) | {n - j for j in pins})
                    assert (one is None) == (both is None), (n, pins)
                    if one is not None:
                        checked += 1
                        assert one.free == both.free, (n, pins)
                        assert one.design.tobytes() == both.design.tobytes(), (n, pins)
                        assert one.offset.tobytes() == both.offset.tobytes(), (n, pins)
        assert checked > 200

    @pytest.mark.parametrize("kind", SYMMETRIC_KINDS)
    def test_repair_equals_mirrored_repair(self, kind):
        """Multinomial frequencies with thin tails, of which the plain
        projection takes some below zero: the repair's values, stderr and
        exceptions are those of a repair that also pins mirrors."""
        rng = np.random.default_rng(11)
        repaired = 0
        for n in (4, 6, 7, 10):
            cs = build_constraints(ModelFamily(kind, n))
            weights = np.exp(-np.abs(np.arange(n + 1) - n / 2))
            for _ in range(25):
                samples = int(rng.integers(100, 20_000))
                counts = rng.multinomial(samples, weights / weights.sum())
                observed = _observed(counts / samples, samples)
                repaired += bool((least_squares_refine(cs, observed).values < 0).any())
                outcomes = []
                for repair in (nonneg_repair, _mirrored_repair):
                    try:
                        got = repair(cs, observed)
                        outcomes.append((got.values.tobytes(), got.stderr.tobytes()))
                    except (RepairFailed, InconsistentConstraints) as err:
                        outcomes.append(type(err))
                assert outcomes[0] == outcomes[1], (n, samples)
        assert repaired > 0
