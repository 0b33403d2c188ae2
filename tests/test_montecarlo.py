"""Estimation runs: determinism, sharding, frequency math and the
indeterminate-fraction abort."""

import concurrent.futures
import math

import numpy as np
import pytest

from stabindex import montecarlo
from stabindex.models import DEFAULT_TOL, ModelFamily
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

    def test_probability_vector_mass_check(self):
        with pytest.raises(ValueError):
            ProbabilityVector([0.5, 0.6], [0.0, 0.0], "raw")

    @pytest.mark.parametrize("source", ["raw", "refined"])
    @pytest.mark.parametrize(
        "values", [[math.nan, 1.0], [math.inf, -math.inf]], ids=["nan", "inf-inf"]
    )
    def test_probability_vector_rejects_non_finite(self, source, values):
        # a NaN total passes `abs(total - 1) > tol`; inf - inf would warn
        with pytest.raises(ValueError, match="finite"):
            ProbabilityVector(values, [0.0, 0.0], source)


class TestMerge:
    def test_zero_identity(self):
        fam = ModelFamily("cont-eq", 2)
        hist = IndexHistogram(fam, [1, 2, 3], 0, 6, 5)
        out = merge(hist, IndexHistogram(fam, [0, 0, 0], 0, 0, 5))
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

    @pytest.mark.parametrize("cores", [3, 16])
    def test_pool_is_no_wider_than_the_cores(self, monkeypatch, cores):
        """Threads beyond the cores only trade the interpreter lock, so
        the pool is min(shards, cores) wide; the histogram is still the
        shard-ordered merge of all eight substreams."""
        widths = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None):
                widths.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)
        cfg = EstimationConfig(ModelFamily("cont-sys", 3), 8_000, 17, shards=8)
        whole = run_estimation(cfg)
        assert widths == [min(8, cores)]
        acc = run_shard(cfg, 0)
        for s in range(1, cfg.shards):
            acc = merge(acc, run_shard(cfg, s))
        assert np.array_equal(acc.counts, whole.counts)
        assert acc.indeterminate == whole.indeterminate
        assert acc.samples == whole.samples == 8_000


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

    def test_repeated_size_slope_absent(self):
        # two nonzero errors at one sample size: no fit from one point
        res = convergence_study(
            ModelFamily("disc-eq", 2), 2, DISC_EQ_2_P2, [100, 100], seed=20231
        )
        assert [err > 0.0 for _, _, err in res.rows] == [True, True]
        assert res.slope is None and res.r_squared is None

    def test_numpy_exact_gives_python_floats(self):
        res = convergence_study(
            ModelFamily("disc-eq", 2), 2, np.float64(DISC_EQ_2_P2), [100], seed=20231
        )
        assert type(res.exact) is float
        assert all(type(v) is float for _, est, err in res.rows for v in (est, err))

    @staticmethod
    def _per_point(family, k, exact, grid, tol):
        # the reference: a separate run_estimation from sample 0 per point
        rows = []
        for m in grid:
            cfg = EstimationConfig(family, m, 20231, tol=tol)
            est = float(frequencies(run_estimation(cfg)).values[k])
            rows.append((m, est, abs(est - exact)))
        return rows

    def test_one_pass_draws_max_grid(self, monkeypatch):
        # grid points never split a chunk: max(grid) rows in whole chunks
        drawn = []
        real = montecarlo.batch_indices

        def counting(family, params, method, tol):
            drawn.append(params.shape[0])
            return real(family, params, method, tol)

        monkeypatch.setattr(montecarlo, "batch_indices", counting)
        chunk = montecarlo.CHUNK
        crossing = [100, 1_000, chunk - 1, chunk, chunk + 1, 40_000]
        for grid in ([100, 1_000, 10_000], crossing):
            drawn.clear()
            convergence_study(
                ModelFamily("disc-eq", 2), 2, DISC_EQ_2_P2, grid, seed=20231
            )
            assert sum(drawn) == max(grid)
            assert len(drawn) == math.ceil(max(grid) / chunk)

    @staticmethod
    def _fresh_histogram(cfg, size):
        # one fresh draw of the whole prefix, counted without the chunk loop
        params = montecarlo.shard_stream(cfg.seed, 0).standard_normal(
            (size, cfg.family.param_count)
        )
        codes = montecarlo.batch_indices(cfg.family, params, cfg.method, cfg.tol)
        counts = np.bincount(codes[codes >= 0], minlength=cfg.family.n + 1)
        return counts.tolist(), int((codes < 0).sum())

    def test_interleaved_runs_on_one_thread(self):
        """Two runs that alternate on one thread share its draw buffer; each
        yields the histograms of its own run.  The wider run draws first, so
        the narrower one redraws the same buffer before the wider run yields
        its sizes inside that chunk: a histogram read from the buffer after
        its chunk's codes exist would differ."""
        chunk = montecarlo.CHUNK
        wide = EstimationConfig(ModelFamily("cont-sys", 3), 16_385, 7)
        narrow = EstimationConfig(ModelFamily("disc-eq", 2), 20_000, 20231)
        runs = [
            (wide, [3, 7_000, chunk, chunk + 1]),
            (narrow, [100, 5_000, chunk, 20_000]),
        ]
        gens = [montecarlo._prefix_histograms(cfg, 0, sizes) for cfg, sizes in runs]
        got = [[], []]
        for step in range(8):
            got[step % 2].append(next(gens[step % 2]))
        for (cfg, sizes), hists in zip(runs, got):
            assert [h.samples for h in hists] == sizes
            for hist in hists:
                want = self._fresh_histogram(cfg, hist.samples)
                assert (hist.counts.tolist(), hist.indeterminate) == want

    def test_buffered_draws_equal_fresh_draws(self):
        """Draws through the per-thread buffer equal a fresh draw bit for bit
        while the buffer grows and shrinks, later blocks reuse its memory,
        and another thread draws into its own buffer."""
        blocks = []
        for shard, (rows, width) in enumerate([(16_384, 36), (100, 3), (9_000, 5)]):
            got = montecarlo._draw(montecarlo.shard_stream(20231, shard), rows, width)
            want = montecarlo.shard_stream(20231, shard).standard_normal((rows, width))
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            blocks.append(got)
        assert np.shares_memory(blocks[0], blocks[1])
        assert np.shares_memory(blocks[0], blocks[2])
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            other = pool.submit(
                montecarlo._draw, montecarlo.shard_stream(20231, 9), 100, 3
            ).result()
        assert not np.shares_memory(other, blocks[0])

    @pytest.mark.parametrize("kind, n, k", [("disc-eq", 2, 2), ("cont-sys", 3, 0)])
    def test_rows_equal_separate_runs(self, kind, n, k):
        # unsorted, repeated and chunk-crossing sizes (20000 > CHUNK)
        family = ModelFamily(kind, n)
        grid = [5_000, 100, 100, 20_000, 3]
        res = convergence_study(family, k, 0.25, grid, seed=20231)
        assert res.rows == self._per_point(family, k, 0.25, grid, DEFAULT_TOL)

    def test_abort_at_same_grid_point(self):
        # 1000 is over budget too, but 5000 comes first in grid order
        family = ModelFamily("disc-eq", 2)
        grid = [300, 3, 5_000, 1_000]
        with pytest.raises(EstimationAbort) as ref:
            self._per_point(family, 2, DISC_EQ_2_P2, grid, 1e-3)
        with pytest.raises(EstimationAbort) as got:
            convergence_study(family, 2, DISC_EQ_2_P2, grid, seed=20231, tol=1e-3)
        assert got.value.histogram.samples == ref.value.histogram.samples == 5_000
        assert got.value.fraction == ref.value.fraction
        assert np.array_equal(got.value.histogram.counts, ref.value.histogram.counts)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            convergence_study(
                ModelFamily("disc-eq", 2), 2, DISC_EQ_2_P2, [100, 0], seed=20231
            )
        with pytest.raises(ValueError, match="grid is empty"):
            convergence_study(ModelFamily("disc-eq", 2), 2, DISC_EQ_2_P2, [], seed=20231)

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

    @pytest.mark.parametrize("field", ["samples", "shards", "seed"])
    @pytest.mark.parametrize("value", [True, 100.5, 2.0, "3", None])
    def test_non_integer_is_rejected(self, field, value):
        args = {"samples": 10, "seed": 0, "shards": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            EstimationConfig(ModelFamily("cont-eq", 1), **args)

    def test_numpy_integers_are_accepted(self):
        cfg = EstimationConfig(
            ModelFamily("cont-eq", 1), np.int64(10), np.uint32(5), shards=np.int8(2)
        )
        assert run_estimation(cfg).samples == 10

    def test_unknown_method_is_rejected(self):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            EstimationConfig(ModelFamily("cont-eq", 1), 10, 0, method="bogus")
