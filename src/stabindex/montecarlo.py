"""Deterministic, shardable Monte Carlo estimation of index distributions.

Each shard owns the substream ``SeedSequence(seed, spawn_key=(shard,))`` and
draws its samples in fixed-size chunks, so the resulting histogram depends
only on (seed, shards, config) and never on worker count, execution order
or chunk size.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .models import ModelFamily, batch_indices
from .polyroot import DEFAULT_TOL, validate_tol

# Fixed documented default so that command-line examples reproduce exactly.
DEFAULT_SEED = 20231

# Samples drawn per kernel invocation; bounds peak memory, does not affect
# results (normal variates are consumed row-major across chunk boundaries).
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

    @classmethod
    def zero(cls, family: ModelFamily, seed: int | None = None) -> "IndexHistogram":
        return cls(family, np.zeros(family.n + 1, dtype=np.int64), 0, 0, seed)

    def to_json(self) -> str:
        return json.dumps(
            {
                "family": self.family.kind,
                "n": self.family.n,
                "M": self.samples,
                "seed": self.seed,
                "counts": [int(c) for c in self.counts],
                "indeterminate": int(self.indeterminate),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "IndexHistogram":
        obj = json.loads(text)
        return cls(
            family=ModelFamily(obj["family"], obj["n"]),
            counts=np.asarray(obj["counts"], dtype=np.int64),
            indeterminate=int(obj["indeterminate"]),
            samples=int(obj["M"]),
            seed=obj["seed"],
        )


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
            total = float(self.values.sum())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"probabilities sum to {total}, expected 1")

    @property
    def known(self) -> np.ndarray:
        return np.isfinite(self.values)

    def to_json(self) -> str:
        def _clean(x):
            return float(x) if math.isfinite(x) else None

        return json.dumps(
            {
                "source": self.source,
                "values": [_clean(v) for v in self.values],
                "stderr": [_clean(s) for s in self.stderr],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ProbabilityVector":
        obj = json.loads(text)
        vals = [math.nan if v is None else float(v) for v in obj["values"]]
        errs = [math.nan if s is None else float(s) for s in obj["stderr"]]
        return cls(np.asarray(vals), np.asarray(errs), obj["source"])


def shard_stream(seed: int, shard: int) -> np.random.Generator:
    """Generator for one shard; streams are disjoint across spawn keys."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(shard,)))


def _shard_samples(total: int, shards: int, shard: int) -> int:
    base, rem = divmod(total, shards)
    return base + (1 if shard < rem else 0)


def run_shard(cfg: EstimationConfig, shard: int) -> IndexHistogram:
    """Histogram of one shard's substream (used by run_estimation and by
    tests that reassemble sharded runs by hand)."""
    family = cfg.family
    rng = shard_stream(cfg.seed, shard)
    todo = _shard_samples(cfg.samples, cfg.shards, shard)
    width = family.param_count
    counts = np.zeros(family.n + 1, dtype=np.int64)
    indet = 0
    done = 0
    while done < todo:
        take = min(CHUNK, todo - done)
        params = rng.standard_normal((take, width))
        codes = batch_indices(family, params, cfg.method, cfg.tol)
        counts += np.bincount(codes[codes >= 0], minlength=family.n + 1)
        indet += int((codes < 0).sum())
        done += take
    return IndexHistogram(family, counts, indet, todo, cfg.seed)


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


def run_estimation(cfg: EstimationConfig, max_workers: int | None = None) -> IndexHistogram:
    """Draw cfg.samples samples and histogram their stability indices.

    Shards run concurrently but are merged in shard order, so the result is
    a pure function of the config.  Raises EstimationAbort if more than
    MAX_INDETERMINATE_FRACTION of the samples could not be certified at the
    working tolerance.
    """
    if cfg.shards == 1:
        total = run_shard(cfg, 0)
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            parts = list(pool.map(lambda s: run_shard(cfg, s), range(cfg.shards)))
        total = parts[0]
        for part in parts[1:]:
            total = merge(total, part)
    fraction = total.indeterminate / total.samples
    if fraction > MAX_INDETERMINATE_FRACTION:
        raise EstimationAbort(total, fraction)
    return total


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

    Grid points reuse the same seed, so the runs are nested prefixes of one
    stream.  A log-log regression of error against sample size gives the
    decay slope (absent when fewer than two errors are nonzero).
    """
    if not math.isfinite(exact):
        raise ValueError("an exact value is required for a convergence study")
    if not 0 <= k <= family.n:
        raise ValueError("index k out of range")
    result = ConvergenceResult(family, k, exact)
    for m in m_grid:
        cfg = EstimationConfig(
            family=family, samples=int(m), seed=seed, method=method, tol=tol
        )
        est = float(frequencies(run_estimation(cfg)).values[k])
        result.rows.append((int(m), est, abs(est - exact)))
    pts = [(m, e) for m, _, e in result.rows if e > 0.0]
    if len(pts) >= 2:
        x = np.log10([m for m, _ in pts])
        y = np.log10([e for _, e in pts])
        slope, intercept = np.polyfit(x, y, 1)
        fit = slope * x + intercept
        ss_res = float(((y - fit) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        result.slope = float(slope)
        result.r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return result
