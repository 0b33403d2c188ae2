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
from scipy import integrate, special

from . import kernels
from .constraints import build_constraints, exact_probabilities
from .models import FAMILY_KINDS, ModelFamily
from .montecarlo import DEFAULT_SEED, EstimationAbort, EstimationConfig, frequencies, run_estimation
from .polyroot import DEFAULT_TOL

# Disjoint from shard spawn keys used in estimation runs.
_ORACLE_KEY = 1001
_QUADRANT_KEY = 1002


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _oracle_rng(seed, offset):
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_ORACLE_KEY + offset,))
    )


# Oracle region -> (RNG substream offset, name used in the check's title).
_ORACLE_REGIONS = {"left-half-plane": (0, "half-plane"), "disk": (1, "disk")}


def check_oracle(
    region: str,
    per_degree: int = 10_000,
    max_degree: int = 6,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
) -> CheckResult:
    """Sign-scan count vs companion-matrix eigenvalue count on random
    polynomials, for region "left-half-plane" (Routh scan) or "disk"
    (conformal map + Routh scan); every mutually determinate pair must
    agree."""
    offset, label = _ORACLE_REGIONS[region]
    rng = _oracle_rng(seed, offset)
    mismatched = 0
    compared = 0
    for n in range(1, max_degree + 1):
        params = rng.standard_normal((per_degree, n + 1))
        if region == "disk":
            scan = kernels.batch_poly_disk(params, kernels.mobius_weights(n), tol)
        else:
            scan = kernels.batch_poly_halfplane(params, tol)
        eig = kernels.companion_region_codes(params, region, tol)
        both = (scan >= 0) & (eig >= 0)
        compared += int(both.sum())
        mismatched += int((scan[both] != eig[both]).sum())
    return CheckResult(
        f"{label} count vs eigenvalue oracle",
        mismatched == 0,
        f"{mismatched} mismatches over {compared} mutually determinate samples",
    )


def check_constraint_closure(max_n: int = 10) -> CheckResult:
    """Any free vector q yields sum(p) = 1: the all-ones row must annihilate
    the design matrix and send the offset to 1."""
    worst = 0.0
    for kind in FAMILY_KINDS:
        for n in range(1, max_n + 1):
            cs = build_constraints(ModelFamily(kind, n))
            ones = np.ones(n + 1)
            col = float(np.abs(ones @ cs.design).max()) if cs.design.size else 0.0
            off = abs(float(ones @ cs.offset) - 1.0)
            worst = max(worst, col, off)
    return CheckResult(
        "constraint closure (sum p = 1 for all q)",
        worst < 1e-12,
        f"max residual {worst:.2e} over families up to n={max_n}",
    )


def check_exact_catalog() -> CheckResult:
    """Every cataloged value must satisfy its family's relations, with the
    symmetric entries consistent."""
    worst = 0.0
    for kind in FAMILY_KINDS:
        for n in range(1, 11):
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
    """Numerical quadrature of int_0^inf exp(-a^2 x^2) erf(b x) dx against
    the closed form arctan(b/a)/(a sqrt(pi)).

    closed_form is injectable so the check itself can be validated with a
    deliberately wrong constant.
    """
    worst = 0.0
    for alpha in (1.0, 2.0):
        for beta in (-1.0, 1.0, 3.0):
            numeric, _ = integrate.quad(
                lambda x: math.exp(-(alpha**2) * x * x) * special.erf(beta * x),
                0.0,
                np.inf,
            )
            worst = max(worst, abs(numeric - closed_form(alpha, beta)))
    return CheckResult(
        "arctan quadrature identity",
        worst < 1e-8,
        f"max |quadrature - closed form| = {worst:.2e}",
    )


def check_orthant_determinant(
    samples: int = 1_000_000, seed: int = DEFAULT_SEED
) -> CheckResult:
    """P(U,V,S,T > 0 and UT - SV > 0) = 1/32 for independent standard
    normals, checked by direct Monte Carlo within 4 sigma."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_QUADRANT_KEY,))
    )
    u, v, s, t = rng.standard_normal((4, samples))
    hits = (u > 0) & (v > 0) & (s > 0) & (t > 0) & (u * t - s * v > 0)
    est = float(hits.mean())
    target = 1.0 / 32.0
    bound = 4.0 * math.sqrt(target * (1 - target) / samples)
    return CheckResult(
        "orthant determinant probability 1/32",
        abs(est - target) <= bound,
        f"estimate {est:.6f} vs 1/32 = {target:.6f} (4-sigma bound {bound:.1e})",
    )


def check_mean_index(
    samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
    max_n: int = 6,
    tol: float = DEFAULT_TOL,
) -> CheckResult:
    """Mean index n/2 for the three symmetric families, within
    4 sqrt(n/samples).  Not asserted for disc-sys, whose distribution is
    not symmetric."""
    worst_ratio = 0.0
    detail = ""
    ok = True
    for kind in FAMILY_KINDS:
        for n in range(1, max_n + 1):
            family = ModelFamily(kind, n)
            if not family.symmetric:
                continue
            cfg = EstimationConfig(family, samples, seed, tol=tol)
            freq = frequencies(run_estimation(cfg))
            mean = float(np.arange(n + 1) @ freq.values)
            bound = 4.0 * math.sqrt(n / samples)
            ratio = abs(mean - n / 2) / bound
            if ratio > worst_ratio:
                worst_ratio = ratio
                detail = f"worst {kind} n={n}: mean {mean:.5f} vs {n/2} (|dev|/bound {ratio:.2f})"
            ok = ok and ratio <= 1.0
    return CheckResult("mean index n/2 (symmetric families)", ok, detail)


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
    samples: int = 10_000,
    seed: int = DEFAULT_SEED,
    max_n: int = 10,
    tol: float = DEFAULT_TOL,
) -> CheckResult:
    """At the working tolerance the indeterminate share stays below the
    estimation abort threshold for every family and order."""
    worst = 0.0
    where = ""
    try:
        for kind in FAMILY_KINDS:
            for n in range(1, max_n + 1):
                cfg = EstimationConfig(ModelFamily(kind, n), samples, seed, tol=tol)
                hist = run_estimation(cfg)
                frac = hist.indeterminate / hist.samples
                if frac > worst:
                    worst = frac
                    where = f"{kind} n={n}"
    except EstimationAbort as abort:
        return CheckResult(
            "indeterminate fraction budget", False, f"aborted: {abort}"
        )
    detail = f"max fraction {worst:.2e}" + (f" at {where}" if where else "")
    return CheckResult("indeterminate fraction budget", worst < 1e-3, detail)


def run_all(
    samples: int = 100_000,
    seed: int = DEFAULT_SEED,
    oracle_polys: int = 10_000,
    tol: float = DEFAULT_TOL,
) -> list:
    """Run every check; statistical bounds adapt to the sample count."""
    return [
        check_oracle("left-half-plane", oracle_polys, seed=seed, tol=tol),
        check_oracle("disk", oracle_polys, seed=seed, tol=tol),
        check_constraint_closure(),
        check_exact_catalog(),
        check_quadrature(),
        check_orthant_determinant(samples, seed),
        check_mean_index(samples, seed, tol=tol),
        check_determinism(min(samples, 10_000), seed),
        check_indeterminate_fraction(min(samples, 10_000), seed, tol=tol),
    ]
