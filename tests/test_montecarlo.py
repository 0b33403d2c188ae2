"""Estimation runs: determinism, sharding, frequency math, serialization,
and the indeterminate-fraction abort."""

import math

import numpy as np
import pytest

from stabindex.models import ModelFamily
from stabindex.montecarlo import (
    EstimationAbort,
    EstimationConfig,
    IndexHistogram,
    ProbabilityVector,
    convergence_study,
    frequencies,
    merge,
    run_estimation,
    run_shard,
)

DISC_EQ_2_P2 = math.atan(math.sqrt(2.0)) / math.pi  # ~0.304087


class TestFrequencies:
    def test_even_split(self):
        hist = IndexHistogram(ModelFamily("cont-eq", 1), [5, 5], 0, 10, 0)
        freq = frequencies(hist)
        assert np.array_equal(freq.values, [0.5, 0.5])
        assert np.allclose(freq.stderr, math.sqrt(0.25 / 10))

    def test_degenerate_split(self):
        hist = IndexHistogram(ModelFamily("cont-eq", 1), [0, 10], 0, 10, 0)
        freq = frequencies(hist)
        assert np.array_equal(freq.values, [0.0, 1.0])
        assert np.array_equal(freq.stderr, [0.0, 0.0])

    def test_normalizes_over_determinate(self):
        hist = IndexHistogram(ModelFamily("cont-eq", 1), [4, 4], 2, 10, 0)
        assert np.array_equal(frequencies(hist).values, [0.5, 0.5])

    def test_all_indeterminate_rejected(self):
        hist = IndexHistogram(ModelFamily("cont-eq", 1), [0, 0], 5, 5, 0)
        with pytest.raises(ValueError):
            frequencies(hist)


class TestHistogram:
    def test_counts_must_reconcile(self):
        with pytest.raises(ValueError):
            IndexHistogram(ModelFamily("cont-eq", 1), [3, 3], 0, 10, 0)

    def test_json_round_trip(self):
        hist = IndexHistogram(ModelFamily("disc-eq", 2), [3, 4, 5], 1, 13, 99)
        back = IndexHistogram.from_json(hist.to_json())
        assert back.family == hist.family
        assert np.array_equal(back.counts, hist.counts)
        assert back.indeterminate == 1 and back.samples == 13 and back.seed == 99

    def test_probability_vector_round_trip(self):
        pv = ProbabilityVector([0.25, math.nan, 0.25], [0.0, math.nan, 0.0], "exact")
        back = ProbabilityVector.from_json(pv.to_json())
        assert back.source == "exact"
        assert np.array_equal(back.known, [True, False, True])
        assert back.values[0] == 0.25

    def test_probability_vector_mass_check(self):
        with pytest.raises(ValueError):
            ProbabilityVector([0.5, 0.6], [0.0, 0.0], "raw")


class TestMerge:
    def test_zero_identity(self):
        fam = ModelFamily("cont-eq", 2)
        hist = IndexHistogram(fam, [1, 2, 3], 0, 6, 5)
        out = merge(hist, IndexHistogram.zero(fam, seed=5))
        assert np.array_equal(out.counts, hist.counts)
        assert out.samples == 6 and out.seed == 5

    def test_commutative(self):
        fam = ModelFamily("cont-eq", 2)
        a = IndexHistogram(fam, [1, 2, 3], 1, 7, 5)
        b = IndexHistogram(fam, [4, 0, 1], 0, 5, 5)
        ab, ba = merge(a, b), merge(b, a)
        assert np.array_equal(ab.counts, ba.counts)
        assert ab.indeterminate == ba.indeterminate == 1
        assert ab.samples == ba.samples == 12

    def test_dimension_mismatch(self):
        a = IndexHistogram(ModelFamily("cont-eq", 2), [1, 2, 3], 0, 6, 5)
        b = IndexHistogram(ModelFamily("cont-eq", 3), [1, 2, 3, 0], 0, 6, 5)
        with pytest.raises(ValueError):
            merge(a, b)


class TestDeterminism:
    def test_identical_histograms(self):
        cfg = EstimationConfig(ModelFamily("disc-eq", 3), 20_000, 4242, shards=3)
        a, b = run_estimation(cfg), run_estimation(cfg)
        assert np.array_equal(a.counts, b.counts)
        assert a.indeterminate == b.indeterminate

    def test_sharded_equals_reassembled_shards(self):
        # a sharded run is exactly the shard-ordered merge of its substreams
        cfg = EstimationConfig(ModelFamily("cont-sys", 2), 10_000, 31, shards=4)
        whole = run_estimation(cfg)
        parts = [run_shard(cfg, s) for s in range(cfg.shards)]
        acc = parts[0]
        for part in parts[1:]:
            acc = merge(acc, part)
        assert np.array_equal(acc.counts, whole.counts)
        assert acc.samples == whole.samples == 10_000

    def test_worker_count_is_irrelevant(self):
        cfg = EstimationConfig(ModelFamily("cont-eq", 3), 8_000, 17, shards=4)
        serial = run_estimation(cfg, max_workers=1)
        parallel = run_estimation(cfg, max_workers=4)
        assert np.array_equal(serial.counts, parallel.counts)


class TestAgainstKnownValues:
    def test_cont_eq_order_one_even_split(self):
        cfg = EstimationConfig(ModelFamily("cont-eq", 1), 1_000_000, 20231)
        hist = run_estimation(cfg)
        assert abs(hist.counts[0] / hist.samples - 0.5) < 2e-3
        assert abs(hist.counts[1] / hist.samples - 0.5) < 2e-3

    def test_disc_eq_order_two_small_run(self):
        cfg = EstimationConfig(ModelFamily("disc-eq", 2), 10_000, 20231)
        freq = frequencies(run_estimation(cfg))
        assert abs(freq.values[2] - DISC_EQ_2_P2) < 0.02

    def test_abort_on_sloppy_tolerance(self):
        cfg = EstimationConfig(ModelFamily("disc-eq", 3), 10_000, 20231, tol=1e-2)
        with pytest.raises(EstimationAbort) as err:
            run_estimation(cfg)
        assert err.value.fraction > 1e-3

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_config_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="finite positive"):
            EstimationConfig(ModelFamily("cont-eq", 2), 100, 1, tol=tol)


class TestConvergence:
    def test_errors_decay_inside_envelope(self):
        res = convergence_study(
            ModelFamily("disc-eq", 2),
            2,
            DISC_EQ_2_P2,
            [100, 1_000, 10_000],
            seed=20231,
        )
        assert len(res.rows) == 3
        for m, _, err in res.rows:
            if m >= 10_000:
                assert err < 0.1
        assert res.slope is not None and res.r_squared is not None

    def test_single_point_slope_absent(self):
        res = convergence_study(
            ModelFamily("disc-eq", 2), 2, DISC_EQ_2_P2, [1_000], seed=20231
        )
        assert res.slope is None and res.r_squared is None

    def test_requires_finite_exact(self):
        with pytest.raises(ValueError):
            convergence_study(
                ModelFamily("disc-eq", 2), 2, math.nan, [100], seed=20231
            )


class TestConfigValidation:
    def test_bad_shards(self):
        with pytest.raises(ValueError):
            EstimationConfig(ModelFamily("cont-eq", 1), 10, 0, shards=11)

    def test_bad_samples(self):
        with pytest.raises(ValueError):
            EstimationConfig(ModelFamily("cont-eq", 1), 0, 0)

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            EstimationConfig(ModelFamily("cont-eq", 1), 10, -4)
