"""Deterministic, shardable Monte Carlo estimation of index distributions.

Each shard owns the substream ``SeedSequence(seed, spawn_key=(shard,))`` and
draws its samples in blocks through one loop, so the histogram depends only
on (seed, shards, config), never on worker count, execution order or block
size, and a shorter run is a prefix of a longer one.  A block holds as many
rows as its route classifies at once (models.block_rows, capped here at
CHUNK), so each block is drawn and classified whole, and a convergence grid
point that falls inside a block is counted from that block's leading codes.

A pass takes one draw buffer from a workspace that kernels.lend lends it
for the whole pass, draws each block into the head of that buffer, and
batch_indices classifies the block on the same workspace.  Workspaces
outlive the shards and threads that use them, so warm blocks map no fresh
pages, and no two running shards share one.  Each maps one fixed slab, of
which a block makes resident only the pages it touches: a 3,000-row job's
block touches a fraction of a budget.
"""

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .kernels import ZERO_LEADING, lend
from .models import DEFAULT_TOL, ModelFamily, batch_indices, block_rows, resolve_method
from .models import validate_integer, validate_tol

# Fixed documented default so that command-line examples reproduce exactly.
DEFAULT_SEED = 20231

# The most rows a shard draws and classifies at once, the cap on
# models.block_rows (which picks fewer where a route's working set would
# outgrow its byte budget); does not affect results (normal variates are
# consumed row-major across block boundaries).
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
        if not isinstance(self.family, ModelFamily):
            raise ValueError(f"family must be a ModelFamily, got {self.family!r}")
        for name in ("samples", "shards", "seed"):
            validate_integer(name, getattr(self, name))
        resolve_method(self.family, self.method)
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


def _prefix_histograms(cfg: EstimationConfig, shard: int, sizes):
    """Yield one shard's histogram after its first ``size`` samples for each
    size in the ascending ``sizes``, in one pass over max(sizes) samples.

    The pass draws blocks of models.block_rows rows, capped here at CHUNK
    (the last one shorter), on a workspace that kernels.lend lends it until
    it ends.  When it starts it takes one draw buffer of as many rows as
    its widest block from that workspace, draws each block into the head
    of that buffer, and classifies the block whole on the same workspace,
    above the buffer.  A block's codes are counted with one shifted
    bincount, and a size inside the block from the block's leading codes,
    so grid points never split a block.  Normal variates are drawn
    row-major whatever the block split, and a row's code depends only on
    that row, so each histogram is bit-identical to a separate run of that
    size.  Passes may interleave on one thread: each
    holds its own workspace.
    """
    family = cfg.family
    rows = min(CHUNK, block_rows(family, cfg.method))
    rng = shard_stream(cfg.seed, shard)
    shift = -ZERO_LEADING  # indeterminate codes land in bins 0..shift-1
    width = family.n + 1 + shift
    total = np.zeros(width, dtype=np.int64)
    done = 0
    pending = iter(sizes)
    size = next(pending, None)
    with lend() as ws:
        drawn = ws.take((min(rows, sizes[-1]), family.param_count))
        while size is not None:
            take = min(rows, sizes[-1] - done)
            params = drawn[:take]
            rng.standard_normal(out=params)
            codes = batch_indices(family, params, cfg.method, cfg.tol, ws)
            codes += shift
            tally = np.bincount(codes, minlength=width)
            while size is not None and size <= done + take:
                head = tally if size == done + take else np.bincount(
                    codes[: size - done], minlength=width
                )
                seen = total + head
                indet = int(seen[:shift].sum())
                yield IndexHistogram(family, seen[shift:], indet, size, cfg.seed)
                size = next(pending, None)
            del codes  # freed before the next block's codes are made
            total += tally
            done += take


def run_shard(cfg: EstimationConfig, shard: int) -> IndexHistogram:
    """Histogram of one shard's substream (used by run_estimation and by
    tests that reassemble sharded runs by hand).  It draws and classifies
    blocks on a workspace lent to it while it runs, as _prefix_histograms
    describes."""
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
        parts = list(_shard_pool().map(lambda s: run_shard(cfg, s), range(cfg.shards)))
        total = parts[0]
        for part in parts[1:]:
            total = merge(total, part)
    return _within_budget(total)


_pool = None
_pool_lock = threading.Lock()


def _shard_pool():
    """The thread pool that runs every sharded estimation, made on first
    use and kept, so its threads outlive each run.  It is as wide as the
    usable cores, so a run has at most min(shards, cores) shards running:
    more threads than cores only trade the interpreter lock.  A forked
    child starts without it."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=_usable_cores())
        return _pool


def _forget_shard_pool():
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_shard_pool)


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
    blocks, each held to the indeterminate budget in grid order.  A log-log
    regression of error against sample size gives the decay slope (absent
    unless the nonzero errors span at least two distinct sample sizes).
    ``exact`` is stored as a Python float, so the estimates and errors are
    plain floats too.  An empty grid, or a k or grid entry that is not an
    integer (numpy integers count, bool does not), is a ValueError.
    """
    exact = float(exact)
    if not math.isfinite(exact):
        raise ValueError("an exact value is required for a convergence study")
    validate_integer("k", k)
    if not 0 <= k <= family.n:
        raise ValueError("index k out of range")
    grid = list(m_grid)
    for m in grid:
        validate_integer("grid sample size", m)
    grid = [int(m) for m in grid]
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
