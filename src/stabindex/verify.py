"""Cross-checking property suite.

Independent routes to the same quantities: sign-scan root counts against
eigenvalue counts, constraint closure, the arctan quadrature identity, a
direct Monte Carlo check of the 1/32 orthant-determinant probability, and
distribution-level invariants (mean index n/2, indeterminate budget,
determinism).  The CLI ``verify`` subcommand runs everything here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constraints import build_constraints, exact_probabilities
from .models import DEFAULT_TOL, FAMILY_KINDS, ModelFamily
from .models import batch_indices
from .montecarlo import DEFAULT_SEED, MAX_INDETERMINATE_FRACTION, EstimationAbort
from .montecarlo import EstimationConfig, frequencies
from .montecarlo import run_estimation, shard_stream

# Highest order each sweep covers; _MAX_N is shared by the oracle,
# constraint closure, catalog and indeterminate-budget checks.
_MEAN_MAX_N = 6
_MAX_N = 10


# The mean-index check's 4-sigma bound must be under this share of n/2, or
# a mean that far off target would still pass.
_MEAN_POWER_SHARE = 0.25


@dataclass
class CheckResult:
    """One check's verdict.  A skipped check had too few samples to fail; it
    is neither a pass (passed is False) nor a failure."""

    name: str
    passed: bool
    detail: str
    skipped: bool = False

    def __str__(self) -> str:
        verdict = "SKIP" if self.skipped else "PASS" if self.passed else "FAIL"
        return f"[{verdict}] {self.name}: {self.detail}"


def _too_few(name: str, samples: int, bound: str, floor: int) -> CheckResult:
    return CheckResult(
        name, False, f"{samples} samples: {bound}; needs >= {floor}", skipped=True
    )


def _require_samples(samples: int) -> None:
    """Reject a sample count under 1 as EstimationConfig does, before a
    bound divides by it."""
    if samples < 1:
        raise ValueError("samples must be >= 1")


def _power_floor(bad_rate: float) -> int:
    """Fewest trials at which a check that fails on a single bad trial
    catches a true rate of bad_rate with probability >= 95%, that is the
    least N with (1 - bad_rate)**N <= 0.05."""
    return math.ceil(math.log(0.05) / math.log1p(-bad_rate))


# Oracle family -> (RNG substream offset, what its index counts).  Each
# family is compared at orders 1.._MAX_N.
_ORACLE_CASES = {
    "cont-eq": (0, "half-plane count"),
    "disc-eq": (1, "disk count"),
    "cont-sys": (2, "cont-sys half-plane count"),
    "disc-sys": (3, "disc-sys pencil disk count"),
}

# Substream keys: each oracle family draws from _ORACLE_KEY plus its offset
# and the orthant check from the key after the last of them, so no two
# checks share a stream.  All are disjoint from the shard keys of verify's
# own 1- and 2-shard estimation runs.
_ORACLE_KEY = 1001
_QUADRANT_KEY = _ORACLE_KEY + len(_ORACLE_CASES)


def check_oracle(
    kind: str, per_degree: int, seed: int = DEFAULT_SEED, tol: float = DEFAULT_TOL
) -> CheckResult:
    """Sign-scan count vs eigenvalue count on random draws of family
    ``kind``, per_degree draws at each order: the Routh scan, the conformal
    map + Routh scan, or the char-poly route against eigenvalues of the
    companion matrix or of A itself.  Every mutually determinate pair must
    agree, so any mismatch fails.  A pass needs the power to see a 1e-3
    mismatch rate at any one order 95% of the time: with fewer than
    _power_floor(1e-3) = 2995 compared pairs at some order the check is
    skipped."""
    offset, label = _ORACLE_CASES[kind]
    name = f"{label} vs eigenvalue oracle"
    rng = shard_stream(seed, _ORACLE_KEY + offset)
    mismatched = 0
    compared = []
    for n in range(1, _MAX_N + 1):
        family = ModelFamily(kind, n)
        params = rng.standard_normal((per_degree, family.param_count))
        scan = batch_indices(family, params, "rh", tol)
        eig = batch_indices(family, params, "eigen", tol)
        both = (scan >= 0) & (eig >= 0)
        compared.append(int(both.sum()))
        mismatched += int((scan[both] != eig[both]).sum())
    bad_rate = 1e-3
    floor = _power_floor(bad_rate)
    fewest = min(compared)
    if mismatched == 0 and fewest < floor:
        bound = (
            f"fewest compared at one order, where a {bad_rate:.0e} mismatch "
            f"rate passes {(1 - bad_rate) ** fewest:.0%} of the time"
        )
        return _too_few(name, fewest, bound, floor)
    return CheckResult(
        name,
        mismatched == 0,
        f"{mismatched} mismatches over {sum(compared)} mutually determinate samples",
    )


def check_constraint_closure() -> CheckResult:
    """Any free vector q yields sum(p) = 1: the all-ones row must annihilate
    the design matrix and send the offset to 1."""
    worst = 0.0
    for kind in FAMILY_KINDS:
        for n in range(1, _MAX_N + 1):
            cs = build_constraints(ModelFamily(kind, n))
            ones = np.ones(n + 1)
            col = float(np.abs(ones @ cs.design).max()) if cs.design.size else 0.0
            off = abs(float(ones @ cs.offset) - 1.0)
            worst = max(worst, col, off)
    return CheckResult(
        "constraint closure (sum p = 1 for all q)",
        worst < 1e-12,
        f"max residual {worst:.2e} over families up to n={_MAX_N}",
    )


def check_exact_catalog() -> CheckResult:
    """Every cataloged value must satisfy its family's relations, with the
    symmetric entries consistent."""
    worst = 0.0
    for kind in FAMILY_KINDS:
        for n in range(1, _MAX_N + 1):
            family = ModelFamily(kind, n)
            exact = exact_probabilities(family)
            known = exact.known
            if not known.any():
                continue
            values = exact.values
            cs = build_constraints(family)
            if known.all():
                q = values[list(cs.free)]
                resid = np.abs(cs.design @ q + cs.offset - values).max()
                worst = max(worst, float(resid))
            else:
                for k in np.flatnonzero(known):
                    if not cs.design[k].any():  # entry fixed by the relations
                        worst = max(worst, abs(values[k] - cs.offset[k]))
            if family.symmetric:
                for k in np.flatnonzero(known):
                    if known[n - k]:
                        worst = max(worst, abs(values[k] - values[n - k]))
    return CheckResult(
        "exact catalog consistency",
        worst < 1e-12,
        f"max residual {worst:.2e}",
    )


def _arctan_closed_form(alpha: float, beta: float) -> float:
    return math.atan(beta / alpha) / (alpha * math.sqrt(math.pi))


def check_quadrature(closed_form=_arctan_closed_form) -> CheckResult:
    """64-node Gauss-Legendre quadrature of int_0^inf exp(-a^2 x^2) erf(b x) dx
    on [0, 12/a], past which the integrand is below exp(-144), against the
    closed form arctan(b/a)/(a sqrt(pi)).  32 nodes miss the 1e-8 bound.

    closed_form is injectable so the check itself can be validated with a
    deliberately wrong constant.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    worst = 0.0
    for alpha in (1.0, 2.0):
        half = 6.0 / alpha  # the nodes map from [-1, 1] onto [0, 2 * half]
        xs = half * (nodes + 1.0)
        for beta in (-1.0, 1.0, 3.0):
            f = [math.exp(-(alpha**2) * x * x) * math.erf(beta * x) for x in xs]
            numeric = half * float(weights @ f)
            worst = max(worst, abs(numeric - closed_form(alpha, beta)))
    return CheckResult(
        "arctan quadrature identity",
        worst < 1e-8,
        f"max |quadrature - closed form| = {worst:.2e}",
    )


def check_orthant_determinant(samples: int, seed: int = DEFAULT_SEED) -> CheckResult:
    """P(U,V,S,T > 0 and UT - SV > 0) = 1/32 for independent standard
    normals, checked by direct Monte Carlo within 4 sigma.  Skipped unless
    the bound is below 1/32 itself (497 samples or more): an estimate of 0
    would pass otherwise."""
    _require_samples(samples)
    name = "orthant determinant probability 1/32"
    target = 1.0 / 32.0
    bound = 4.0 * math.sqrt(target * (1 - target) / samples)
    if bound >= target:
        floor = math.floor(16.0 * (1 - target) / target) + 1
        return _too_few(name, samples, f"4-sigma bound {bound:.1e} is not below 1/32", floor)
    rng = shard_stream(seed, _QUADRANT_KEY)
    u, v, s, t = rng.standard_normal((4, samples))
    hits = (u > 0) & (v > 0) & (s > 0) & (t > 0) & (u * t - s * v > 0)
    est = float(hits.mean())
    return CheckResult(
        name,
        abs(est - target) <= bound,
        f"estimate {est:.6f} vs 1/32 = {target:.6f} (4-sigma bound {bound:.1e})",
    )


def check_mean_index(
    samples: int, seed: int = DEFAULT_SEED, tol: float = DEFAULT_TOL
) -> CheckResult:
    """Mean index n/2 for the three symmetric families, within
    4 sqrt(var/N): var is the variance of the index in the histogram under
    test and N its determinate samples.  Not asserted for disc-sys, whose
    distribution is not symmetric.  Skipped unless the bound is under
    _MEAN_POWER_SHARE of n/2 whatever the histogram: an index in 0..n has
    var <= n^2/4, so the bound is at most 2n/sqrt(N), and that is under a
    quarter of n/2 from 257 samples on."""
    _require_samples(samples)
    name = "mean index n/2 (symmetric families)"
    widest = 4.0 / math.sqrt(samples)  # 2n/sqrt(N) as a share of n/2
    if widest >= _MEAN_POWER_SHARE:
        floor = math.floor((4.0 / _MEAN_POWER_SHARE) ** 2) + 1
        detail = f"4-sigma bound up to {widest:.2f} of n/2 is not under {_MEAN_POWER_SHARE}"
        return _too_few(name, samples, detail, floor)
    worst_ratio = 0.0
    detail = ""
    ok = True
    try:
        for kind in FAMILY_KINDS:
            for n in range(1, _MEAN_MAX_N + 1):
                family = ModelFamily(kind, n)
                if not family.symmetric:
                    continue
                hist = run_estimation(EstimationConfig(family, samples, seed, tol=tol))
                mean, ratio = _mean_deviation(hist)
                if ratio > worst_ratio:
                    worst_ratio = ratio
                    detail = f"worst {kind} n={n}: mean {mean:.5f} vs {n/2} (|dev|/bound {ratio:.2f})"
                ok = ok and ratio <= 1.0
    except EstimationAbort as abort:
        ok, detail = False, f"aborted: {abort}"
    return CheckResult(name, ok, detail)


def _mean_deviation(hist) -> tuple:
    """The mean index of hist's determinate samples, and its distance from
    n/2 over the 4-sigma bound 4 sqrt(var/N), var the index's variance in
    hist and N its determinate samples (inf where var is 0)."""
    n = hist.family.n
    k = np.arange(n + 1)
    p = frequencies(hist).values
    mean = float(k @ p)
    var = float((k - mean) ** 2 @ p)
    bound = 4.0 * math.sqrt(var / (hist.samples - hist.indeterminate))
    deviation = abs(mean - n / 2)
    return mean, deviation / bound if bound > 0.0 else math.inf


def check_determinism(samples: int = 10_000, seed: int = DEFAULT_SEED) -> CheckResult:
    """Equal seeds give bit-identical histograms for every family at n=3."""
    ok = True
    for kind in FAMILY_KINDS:
        cfg = EstimationConfig(ModelFamily(kind, 3), samples, seed, shards=2)
        a = run_estimation(cfg)
        b = run_estimation(cfg)
        ok = ok and np.array_equal(a.counts, b.counts) and a.indeterminate == b.indeterminate
    return CheckResult(
        "determinism (seed fixes the histogram)",
        ok,
        f"two runs per family at n=3, {samples} samples",
    )


def check_indeterminate_fraction(
    samples: int, seed: int = DEFAULT_SEED, tol: float = DEFAULT_TOL
) -> CheckResult:
    """The indeterminate share stays within the estimation abort threshold
    for every family and order; run_estimation raises EstimationAbort above
    it, so the abort is the verdict.  Skipped unless a rate of 10x the
    budget would abort 95% of the time at each family and order:
    _power_floor(1e-2) = 299 samples, where one indeterminate sample is
    already over budget."""
    _require_samples(samples)
    name = "indeterminate fraction budget"
    bad_rate = 10 * MAX_INDETERMINATE_FRACTION
    floor = _power_floor(bad_rate)
    if samples < floor:
        bound = (
            f"a {bad_rate:.0e} indeterminate rate passes "
            f"{(1 - bad_rate) ** samples:.0%} of the time"
        )
        return _too_few(name, samples, bound, floor)
    worst = 0.0
    where = ""
    try:
        for kind in FAMILY_KINDS:
            for n in range(1, _MAX_N + 1):
                cfg = EstimationConfig(ModelFamily(kind, n), samples, seed, tol=tol)
                hist = run_estimation(cfg)
                frac = hist.indeterminate / hist.samples
                if frac > worst:
                    worst = frac
                    where = f"{kind} n={n}"
    except EstimationAbort as abort:
        return CheckResult(name, False, f"aborted: {abort}")
    detail = f"max fraction {worst:.2e}" + (f" at {where}" if where else "")
    return CheckResult(name, True, detail)


def run_all(
    samples: int, oracle_polys: int, seed: int = DEFAULT_SEED, tol: float = DEFAULT_TOL
) -> list:
    """Run every check; statistical bounds adapt to the sample count."""
    _require_samples(samples)
    return [
        *(check_oracle(kind, oracle_polys, seed=seed, tol=tol) for kind in _ORACLE_CASES),
        check_constraint_closure(),
        check_exact_catalog(),
        check_quadrature(),
        check_orthant_determinant(samples, seed),
        check_mean_index(samples, seed, tol=tol),
        check_determinism(min(samples, 10_000), seed),
        check_indeterminate_fraction(min(samples, 10_000), seed, tol=tol),
    ]
