"""Deterministic, shardable Monte Carlo estimation of index distributions.

Each shard owns the substream ``SeedSequence(seed, spawn_key=(shard,))`` and
draws its samples in whole chunks of CHUNK rows through one loop, so the
histogram depends only on (seed, shards, config), never on worker count,
execution order or chunk size, and a shorter run is a prefix of a longer one.
A convergence grid point that falls inside a chunk is counted from that
chunk's leading codes; it never splits the chunk.  Each thread that samples
draws its chunks into one reused float64 buffer of CHUNK x param_count x 8
bytes (0.4 MB at disc-eq n = 2, 4.7 MB at cont-sys n = 6), which it keeps
while it lives: the calling thread across runs, a shard-pool thread for
its run.  So warm chunks map no fresh pages for their draws.
"""

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .kernels import ZERO_LEADING
from .models import DEFAULT_TOL, METHODS, ModelFamily, batch_indices
from .models import validate_integer, validate_tol

# Fixed documented default so that command-line examples reproduce exactly.
DEFAULT_SEED = 20231

# Samples drawn per kernel invocation; bounds peak memory and the per-thread
# draw buffer, does not affect results (normal variates are consumed
# row-major across chunk boundaries).
CHUNK = 16384

# A larger indeterminate share than this signals a tolerance misconfiguration
# rather than bad luck: boundary hits have probability zero in exact
# arithmetic.
MAX_INDETERMINATE_FRACTION = 1e-3


class EstimationAbort(RuntimeError):
    """Raised when the indeterminate fraction exceeds the configured budget."""

    def __init__(self, histogram, fraction):
        super().__init__(
            f"indeterminate fraction {fraction:.2e} exceeds "
            f"{MAX_INDETERMINATE_FRACTION:.0e}; check the tolerance"
        )
        self.histogram = histogram
        self.fraction = fraction


@dataclass(frozen=True)
class EstimationConfig:
    family: ModelFamily
    samples: int
    seed: int
    method: str = "auto"
    shards: int = 1
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        for name in ("samples", "shards", "seed"):
            validate_integer(name, getattr(self, name))
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 1 <= self.shards <= self.samples:
            raise ValueError("need 1 <= shards <= samples")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        validate_tol(self.tol)


@dataclass
class IndexHistogram:
    """Counts of observed indices 0..n plus indeterminate samples."""

    family: ModelFamily
    counts: np.ndarray
    indeterminate: int = 0
    samples: int = 0
    seed: int | None = None

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (self.family.n + 1,):
            raise ValueError("counts must have length n + 1")
        if (self.counts < 0).any() or self.indeterminate < 0:
            raise ValueError("negative counts")
        if int(self.counts.sum()) + self.indeterminate != self.samples:
            raise ValueError("counts + indeterminate must equal samples")


@dataclass
class ProbabilityVector:
    """Index probabilities with per-entry standard errors.

    source is "raw" (observed frequencies), "refined" (least-squares
    projection) or "exact" (analytic values, NaN where unknown).
    """

    values: np.ndarray
    stderr: np.ndarray
    source: str = "raw"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if self.values.shape != self.stderr.shape or self.values.ndim != 1:
            raise ValueError("values and stderr must be 1-D and equal length")
        if self.source not in ("raw", "refined", "exact"):
            raise ValueError(f"unknown source {self.source!r}")
        if self.source != "exact":
            if not np.isfinite(self.values).all():
                raise ValueError(f"{self.source} probabilities must be finite")
            total = float(self.values.sum())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"probabilities sum to {total}, expected 1")

    @property
    def known(self) -> np.ndarray:
        return np.isfinite(self.values)


def shard_stream(seed: int, shard: int) -> np.random.Generator:
    """Generator for one shard; streams are disjoint across spawn keys."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(shard,)))


_draw_buffer = threading.local()


def _draw(rng: np.random.Generator, rows: int, width: int) -> np.ndarray:
    """rows x width standard normals from ``rng``, drawn row-major into this
    thread's draw buffer, which grows to the largest block the thread has
    drawn.  The block is overwritten by the thread's next draw."""
    need = rows * width
    buf = getattr(_draw_buffer, "array", None)
    if buf is None or buf.size < need:
        buf = _draw_buffer.array = np.empty(need)
    block = buf[:need].reshape(rows, width)
    rng.standard_normal(out=block)
    return block


def _prefix_histograms(cfg: EstimationConfig, shard: int, sizes):
    """Yield one shard's histogram after its first ``size`` samples for each
    size in the ascending ``sizes``, in one pass over max(sizes) samples.

    The pass draws whole chunks of CHUNK rows (the last one shorter) into the
    calling thread's draw buffer, which keeps CHUNK x param_count x 8 bytes
    (0.4 MB at disc-eq n = 2, 4.7 MB at cont-sys n = 6) for the thread's
    later chunks and runs.  A chunk's codes are counted with one shifted
    bincount, and a size inside the chunk from the chunk's leading codes, so
    grid points never split a chunk.  Normal variates are drawn row-major
    whatever the chunk split, and a row's code depends only on that row, so
    each histogram is bit-identical to a separate run of that size.  The
    buffer is not read once a chunk's codes exist, so runs may interleave on
    one thread.
    """
    family = cfg.family
    rng = shard_stream(cfg.seed, shard)
    shift = -ZERO_LEADING  # indeterminate codes land in bins 0..shift-1
    width = family.n + 1 + shift
    total = np.zeros(width, dtype=np.int64)
    done = 0
    pending = iter(sizes)
    size = next(pending, None)
    while size is not None:
        take = min(CHUNK, sizes[-1] - done)
        params = _draw(rng, take, family.param_count)
        codes = batch_indices(family, params, cfg.method, cfg.tol) + shift
        tally = np.bincount(codes, minlength=width)
        while size is not None and size <= done + take:
            head = tally if size == done + take else np.bincount(
                codes[: size - done], minlength=width
            )
            seen = total + head
            indet = int(seen[:shift].sum())
            yield IndexHistogram(family, seen[shift:], indet, size, cfg.seed)
            size = next(pending, None)
        total += tally
        done += take


def run_shard(cfg: EstimationConfig, shard: int) -> IndexHistogram:
    """Histogram of one shard's substream (used by run_estimation and by
    tests that reassemble sharded runs by hand).  It draws whole chunks into
    the calling thread's draw buffer of CHUNK x param_count x 8 bytes, as
    _prefix_histograms describes; a shard-pool thread ends with its run,
    and its buffer with it."""
    base, rem = divmod(cfg.samples, cfg.shards)
    return next(_prefix_histograms(cfg, shard, [base + (1 if shard < rem else 0)]))


def merge(a: IndexHistogram, b: IndexHistogram) -> IndexHistogram:
    """Componentwise sum; associative and commutative."""
    if a.family != b.family:
        raise ValueError(f"cannot merge histograms for {a.family} and {b.family}")
    seed = a.seed if a.seed == b.seed else None
    return IndexHistogram(
        a.family,
        a.counts + b.counts,
        a.indeterminate + b.indeterminate,
        a.samples + b.samples,
        seed,
    )


def run_estimation(cfg: EstimationConfig) -> IndexHistogram:
    """Draw cfg.samples samples and histogram their stability indices.

    Shards run concurrently but are merged in shard order, so the result is
    a pure function of the config.  Raises EstimationAbort if more than
    MAX_INDETERMINATE_FRACTION of the samples could not be certified at the
    working tolerance.
    """
    if cfg.shards == 1:
        total = run_shard(cfg, 0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        # more threads than cores only trade the interpreter lock
        with ThreadPoolExecutor(max_workers=min(cfg.shards, _usable_cores())) as pool:
            parts = list(pool.map(lambda s: run_shard(cfg, s), range(cfg.shards)))
        total = parts[0]
        for part in parts[1:]:
            total = merge(total, part)
    return _within_budget(total)


def _usable_cores() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _within_budget(hist: IndexHistogram) -> IndexHistogram:
    fraction = hist.indeterminate / hist.samples
    if fraction > MAX_INDETERMINATE_FRACTION:
        raise EstimationAbort(hist, fraction)
    return hist


def frequencies(hist: IndexHistogram) -> ProbabilityVector:
    """Observed frequencies over the determinate samples, with the binomial
    standard error sqrt(p(1-p)/N) per entry."""
    determinate = hist.samples - hist.indeterminate
    if determinate <= 0:
        raise ValueError("no determinate samples to normalize over")
    values = hist.counts / determinate
    stderr = np.sqrt(values * (1.0 - values) / determinate)
    return ProbabilityVector(values, stderr, "raw")


@dataclass
class ConvergenceResult:
    """Error-decay table for one index probability over a sample-size grid."""

    family: ModelFamily
    k: int
    exact: float
    rows: list = field(default_factory=list)  # (samples, estimate, abs error)
    slope: float | None = None
    r_squared: float | None = None


def convergence_study(
    family: ModelFamily,
    k: int,
    exact: float,
    m_grid,
    seed: int,
    method: str = "auto",
    tol: float = DEFAULT_TOL,
) -> ConvergenceResult:
    """Estimate p_k at each grid size and tabulate the absolute error.

    Grid points are prefixes of one pass of max(m_grid) samples in whole
    chunks, each held to the indeterminate budget in grid order.  A log-log
    regression of error against sample size gives the decay slope (absent
    unless the nonzero errors span at least two distinct sample sizes).
    ``exact`` is stored as a Python float, so the estimates and errors are
    plain floats too.  An empty grid is a ValueError.
    """
    exact = float(exact)
    if not math.isfinite(exact):
        raise ValueError("an exact value is required for a convergence study")
    if not 0 <= k <= family.n:
        raise ValueError("index k out of range")
    grid = [int(m) for m in m_grid]
    if not grid:
        raise ValueError("the sample-size grid is empty")
    if min(grid) < 1:
        raise ValueError("samples must be >= 1")
    cfg = EstimationConfig(
        family=family, samples=max(grid), seed=seed, method=method, tol=tol
    )
    sizes = sorted(set(grid))
    hists = dict(zip(sizes, _prefix_histograms(cfg, 0, sizes)))
    result = ConvergenceResult(family, k, exact)
    for m in grid:
        est = float(frequencies(_within_budget(hists[m])).values[k])
        result.rows.append((m, est, abs(est - exact)))
    pts = [(m, e) for m, _, e in result.rows if e > 0.0]
    if len({m for m, _ in pts}) >= 2:
        x = np.log10([m for m, _ in pts])
        y = np.log10([e for _, e in pts])
        slope, intercept = np.polyfit(x, y, 1)
        fit = slope * x + intercept
        ss_res = float(((y - fit) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        result.slope = float(slope)
        result.r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return result
