"""Estimation runs: determinism, sharding, frequency math and the
indeterminate-fraction abort."""

import concurrent.futures
import math
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from stabindex import kernels, montecarlo
from stabindex.models import DEFAULT_TOL, ModelFamily, batch_indices
from reference import HighWaterWorkspace
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

    @pytest.mark.parametrize(
        "counts, indeterminate, message",
        [([3, 3, 4], 0, "length n \\+ 1"), ([-1, 11], 0, "negative"), ([5, 6], -1, "negative")],
    )
    def test_rejects_malformed_counts(self, counts, indeterminate, message):
        with pytest.raises(ValueError, match=message):
            IndexHistogram(ModelFamily("cont-eq", 1), counts, indeterminate, 10, 0)

    @pytest.mark.parametrize(
        "values, stderr, source, message",
        [([0.5, 0.5], [0.1], "raw", "equal length"),
         ([[0.5, 0.5]], [[0.1, 0.1]], "raw", "1-D"),
         ([0.5, 0.5], [0.1, 0.1], "smoothed", "unknown source")],
    )
    def test_probability_vector_rejects_bad_shape_or_source(self, values, stderr, source, message):
        with pytest.raises(ValueError, match=message):
            ProbabilityVector(values, stderr, source)

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
        the one shard pool is as wide as the cores and at most
        min(shards, cores) shards of a run go at once, none on the calling
        thread.  The pool is made once and kept for the next run.  The
        histogram is still the shard-ordered merge of all eight substreams."""
        widths, threads, running = [], [], [0, 0]  # running: now, most
        lock = threading.Lock()

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None):
                widths.append(max_workers)
                super().__init__(max_workers)

        shard_run = montecarlo.run_shard

        def recording_shard(cfg, shard):
            with lock:
                threads.append(threading.get_ident())
                running[0] += 1
                running[1] = max(running)
            try:
                return shard_run(cfg, shard)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)
        monkeypatch.setattr(montecarlo, "_pool", None)
        monkeypatch.setattr(montecarlo, "run_shard", recording_shard)
        cfg = EstimationConfig(ModelFamily("cont-sys", 3), 8_000, 17, shards=8)
        whole = run_estimation(cfg)
        pool = montecarlo._pool
        assert run_estimation(cfg).counts.tolist() == whole.counts.tolist()
        assert widths == [cores] and montecarlo._pool is pool
        assert len(threads) == 16 and threading.get_ident() not in threads
        assert running[1] <= min(8, cores)
        acc = shard_run(cfg, 0)
        for s in range(1, cfg.shards):
            acc = merge(acc, shard_run(cfg, s))
        assert np.array_equal(acc.counts, whole.counts)
        assert acc.indeterminate == whole.indeterminate
        assert acc.samples == whole.samples == 8_000


    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_makes_its_own_pool(self):
        """A child forked after a sharded run has none of the parent's pool
        threads; its own sharded run makes a pool and gives the same
        histogram instead of waiting on threads that do not exist."""
        cfg = EstimationConfig(ModelFamily("cont-sys", 3), 4_000, 3, shards=2)
        want = run_estimation(cfg).counts.tolist()
        pid = os.fork()
        if pid == 0:  # the child reports through its exit status only
            status = 1
            try:
                status = 0 if run_estimation(cfg).counts.tolist() == want else 2
            finally:
                os._exit(status)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's sharded run did not finish in 30 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_and_parent_run_at_once(self):
        """A child forked after a run inherits its parent's idle
        workspaces.  While parent and child each run the same estimation
        three times at the same moment, both get the histogram of that run
        made alone: a slab mapped shared would let each write into the
        other's blocks."""
        cfg = EstimationConfig(ModelFamily("cont-sys", 6), 20_000, 5)
        want = run_estimation(cfg).counts.tolist()
        start_read, start_write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child reports through its exit status only
            status = 1
            try:
                os.close(start_write)
                os.read(start_read, 1)
                got = [run_estimation(cfg).counts.tolist() for _ in range(3)]
                status = 0 if got == [want] * 3 else 2
            finally:
                os._exit(status)
        os.close(start_read)
        os.write(start_write, b"!")
        os.close(start_write)
        try:
            got = [run_estimation(cfg).counts.tolist() for _ in range(3)]
        finally:
            deadline = time.monotonic() + 60
            while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            if done[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        assert done[0] != 0, "the forked child's runs did not finish in 60 s"
        assert got == [want] * 3, "the parent's runs"
        assert os.waitstatus_to_exitcode(done[1]) == 0, "the child's runs"


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

        def counting(family, params, method, tol, *workspace):
            drawn.append(params.shape[0])
            return real(family, params, method, tol, *workspace)

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
        """Draws into a shard's workspace equal a fresh draw bit for bit
        while the block grows and shrinks, and later blocks reuse its
        memory, a block far under glibc's 128 KiB mmap threshold too, and
        every block starts on a cache line.  A shard that runs while another
        holds a workspace, on this thread or another, draws into a workspace
        of its own."""
        blocks = []
        with kernels.lend() as ws:
            shapes = [(16_384, 36), (6_000, 3), (9_000, 5), (16_384, 36), (100, 3)]
            for shard, shape in enumerate(shapes):
                with ws:
                    got = ws.take(shape)
                    montecarlo.shard_stream(20231, shard).standard_normal(out=got)
                want = montecarlo.shard_stream(20231, shard).standard_normal(shape)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                blocks.append(got)
            assert all(np.shares_memory(blocks[0], b) for b in blocks[1:])
            assert all(b.ctypes.data % 64 == 0 for b in blocks)
            assert self._held_workspace() is not ws
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                assert pool.submit(self._held_workspace).result() is not ws
        assert self._held_workspace() is ws  # handed back, and taken again first

    @staticmethod
    def _held_workspace():
        """Borrow a workspace as a shard does, hand it back, and return it."""
        with kernels.lend() as ws:
            return ws

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

    @pytest.mark.parametrize("k", [1.5, True, 2.0, "2", None])
    def test_non_integer_k_is_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            convergence_study(ModelFamily("disc-eq", 2), k, DISC_EQ_2_P2, [100], seed=20231)

    @pytest.mark.parametrize("k", [-1, 3])
    def test_out_of_range_k_is_rejected(self, k):
        with pytest.raises(ValueError, match="index k out of range"):
            convergence_study(ModelFamily("disc-eq", 2), k, DISC_EQ_2_P2, [100], seed=20231)

    @pytest.mark.parametrize("entry", [100.7, 100.0, True, "100", None])
    def test_non_integer_grid_entry_is_rejected(self, entry):
        # int() would make 100.7 a 100-sample row
        with pytest.raises(ValueError, match="grid sample size must be an integer"):
            convergence_study(
                ModelFamily("disc-eq", 2), 2, DISC_EQ_2_P2, [entry, 1_000], seed=20231
            )

    def test_numpy_integer_grid_and_k_are_accepted(self):
        res = convergence_study(
            ModelFamily("disc-eq", 2), np.int64(2), DISC_EQ_2_P2,
            np.array([100, 1_000]), seed=20231,
        )
        plain = convergence_study(
            ModelFamily("disc-eq", 2), 2, DISC_EQ_2_P2, [100, 1_000], seed=20231
        )
        assert res.rows == plain.rows
        assert all(type(m) is int for m, _, _ in res.rows)

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

    @pytest.mark.parametrize("method", ["rh", "auto"])
    @pytest.mark.parametrize("family", ["cont-eq", ("cont-eq", 10), None])
    def test_family_must_be_a_model_family(self, family, method):
        # a kind string is not a family: it fails here, not inside run_estimation
        with pytest.raises(ValueError, match="family must be a ModelFamily"):
            EstimationConfig(family, 10, 1, method=method)


class TestWorkingSet:
    """Each shard draws and classifies blocks sized by one byte budget,
    kernels._BLOCK_BYTES, on a workspace no other running shard holds."""

    @pytest.mark.parametrize("chunk", [montecarlo.CHUNK, 1 << 20])
    @pytest.mark.parametrize(
        "kind, n, samples, method, shards",
        [
            ("cont-sys", 6, 60_000, "rh", 1),
            ("cont-sys", 20, 6_000, "eigen", 2),  # the eigen route
            ("cont-sys", 20, 6_000, "rh", 2),
            ("cont-eq", 24, 3_000, "eigen", 1),  # companion stacks
            ("disc-eq", 48, 1_000, "auto", 1),  # the eigen fallback takes most rows
            ("cont-eq", 4, montecarlo.CHUNK, "auto", 1),  # Routh scan blocks
            ("disc-eq", 4, montecarlo.CHUNK, "auto", 1),  # Jury scan blocks
        ],
    )
    def test_peak_is_a_multiple_of_the_budget(
        self, monkeypatch, chunk, kind, n, samples, method, shards
    ):
        """A run's traced peak, plus the most any of its workspaces used,
        stays under three budgets whatever CHUNK is, and each workspace uses
        at most one and a half (the slab is mapped outside tracemalloc's
        view).  Drawing whole CHUNK-row blocks took 2.1 to 6.7 budgets of
        traced peak on these runs; at disc-eq n = 48 the scan leaves nearly
        every row to the eigen fallback, whose unsliced companion stack
        would take 18 MB."""
        monkeypatch.setattr(montecarlo, "CHUNK", chunk)
        monkeypatch.setattr(kernels, "_idle", [])
        monkeypatch.setattr(kernels, "Workspace", HighWaterWorkspace)
        cfg = EstimationConfig(ModelFamily(kind, n), samples, 5, method=method, shards=shards)
        tracemalloc.start()
        try:
            run_estimation(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = kernels._BLOCK_BYTES
        used = [ws.high / budget for ws in kernels._idle]
        assert 1 <= len(used) <= shards
        assert peak / budget + max(used) < 3, f"peak {peak / budget:.2f} budgets, used {used}"
        assert max(used) <= 1.5, f"workspaces used {used} budgets"

    @pytest.mark.parametrize("kind", ["cont-sys", "disc-sys"])
    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_each_block_is_one_char_poly_call(self, monkeypatch, kind, n):
        """The sign scan's drawn blocks are char-poly blocks, so no block
        leaves a sliver: every block of a run but the last is one full
        char-poly call."""
        drawn, made = [], []
        real_indices, real_block = montecarlo.batch_indices, kernels._char_poly_block

        def recording_indices(family, params, *rest):
            drawn.append(params.shape[0])
            return real_indices(family, params, *rest)

        def recording_block(mats, *workspace):
            made.append(mats.shape[0])
            return real_block(mats, *workspace)

        monkeypatch.setattr(montecarlo, "batch_indices", recording_indices)
        monkeypatch.setattr(kernels, "_char_poly_block", recording_block)
        rows = min(montecarlo.CHUNK, kernels._char_poly_width(n))
        samples = 2 * rows + rows // 2
        run_estimation(EstimationConfig(ModelFamily(kind, n), samples, 3, method="rh"))
        assert drawn == made == [rows, rows, samples - 2 * rows]

    @pytest.mark.parametrize("kind", ["cont-eq", "disc-eq"])
    @pytest.mark.parametrize("n", [4, 40])
    def test_each_block_is_one_scan_call(self, monkeypatch, kind, n):
        """The equation families' drawn blocks are Routh or Jury scan
        blocks, so every block of a run but the last is one full scan call.
        "auto" hands the rows the scan leaves indeterminate (a few percent
        at disc-eq n = 40) to eigenvalues, which run no scan block."""
        drawn, made = [], []
        name = "routh_codes" if kind == "cont-eq" else "jury_codes"
        real_indices, real_block = montecarlo.batch_indices, getattr(kernels, name)

        def recording_indices(family, params, *rest):
            drawn.append(params.shape[0])
            return real_indices(family, params, *rest)

        def recording_block(coeffs, *rest):
            made.append(coeffs.shape[1])
            return real_block(coeffs, *rest)

        monkeypatch.setattr(montecarlo, "batch_indices", recording_indices)
        monkeypatch.setattr(kernels, name, recording_block)
        rows = min(montecarlo.CHUNK, kernels._scan_width(n))
        samples = 2 * rows + rows // 2
        run_estimation(EstimationConfig(ModelFamily(kind, n), samples, 3))
        assert drawn == made == [rows, rows, samples - 2 * rows]

    def test_concurrent_runs_take_their_own_workspaces(self):
        """Four threads, more than the cores, run 1- and 2-shard
        estimations of different families at once, with the interpreter
        switching threads often, and get the histograms of the same runs
        made one at a time: no running shard shares a workspace."""
        configs = [
            EstimationConfig(ModelFamily("cont-sys", 6), 24_000, 11, shards=2),
            EstimationConfig(ModelFamily("disc-sys", 5), 24_000, 12, shards=2),
            EstimationConfig(ModelFamily("cont-sys", 4), 20_000, 13),
            EstimationConfig(ModelFamily("disc-eq", 3), 40_000, 14),
        ]
        serial = [run_estimation(cfg).counts.tolist() for cfg in configs]
        start = threading.Barrier(len(configs))

        def runs(cfg):
            start.wait()
            return [run_estimation(cfg).counts.tolist() for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=len(configs)) as pool:
                futures = [pool.submit(runs, cfg) for cfg in configs]
                together = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert together == [[counts] * 3 for counts in serial]

    @pytest.mark.parametrize(
        "kind, n", [("cont-eq", 4), ("disc-eq", 6), ("cont-sys", 6), ("disc-sys", 5)]
    )
    def test_full_slab_hands_out_fresh_arrays(self, monkeypatch, kind, n):
        """An array the slab has no room left for is a fresh np.empty, as a
        1-row char-poly block's are from n of about 500.  On a workspace
        built with a 4 KiB budget (an 8 KiB slab), which most of every
        block's arrays overflow, batch_indices gives the codes it gives on
        a lent workspace, and a run lent only that workspace gives the
        usual histogram; each leaves the slab's top at 0."""

        class Counting(kernels.Workspace):
            fresh = 0

            def take(self, shape, dtype=np.float64):
                out = super().take(shape, dtype)
                self.fresh += out.base is None  # not a view of the slab
                return out

        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_BLOCK_BYTES", 4096)
            ws = Counting()
        family = ModelFamily(kind, n)
        params = np.random.default_rng(n).standard_normal((3000, family.param_count))
        codes = batch_indices(family, params, "rh", workspace=ws)
        np.testing.assert_array_equal(codes, batch_indices(family, params, "rh"))
        assert ws._top == 0 and ws.fresh > 0
        cfg = EstimationConfig(family, 20_000, 7)
        usual = run_estimation(cfg)
        ws.fresh = 0
        monkeypatch.setattr(kernels, "_idle", [ws])
        hist = run_estimation(cfg)
        assert kernels._idle == [ws] and ws._top == 0 and ws.fresh > 0
        assert hist.counts.tolist() == usual.counts.tolist()
        assert hist.indeterminate == usual.indeterminate
