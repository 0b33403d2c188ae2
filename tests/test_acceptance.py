"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Statistical criteria run at one million samples with tolerances
sized for that scale (reference values come from hundred-million-sample
runs, so their own error is negligible here).
"""

import math
import time
from fractions import Fraction

import numpy as np

from stabindex.constraints import build_constraints
from stabindex.models import ModelFamily
from stabindex.montecarlo import (
    DEFAULT_SEED,
    EstimationConfig,
    convergence_study,
    frequencies,
    run_estimation,
)
from stabindex.refine import least_squares_refine, nonneg_repair
from stabindex import verify

M = 1_000_000
SEED = DEFAULT_SEED


def _criterion(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _freqs(kind: str, n: int, samples: int = M):
    cfg = EstimationConfig(ModelFamily(kind, n), samples, SEED)
    return frequencies(run_estimation(cfg))


def _fractions(pairs):
    return np.array([float(Fraction(a, b)) for a, b in pairs])


def test_criterion_1_continuous_system_low_dims():
    start = time.monotonic()
    one = _freqs("cont-sys", 1)
    two = _freqs("cont-sys", 2)
    elapsed = time.monotonic() - start
    devs = [abs(one.values[0] - 0.5)]
    devs += [abs(two.values[k] - v) for k, v in enumerate((0.25, 0.5, 0.25))]
    ok = (
        devs[0] < 2e-3
        and all(d < 2.5e-3 for d in devs[1:])
        and elapsed < 60.0
    )
    _criterion(
        "criterion 1 (cont-sys n=1,2 frequencies)",
        ok,
        f"max dev {max(devs):.1e}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_continuous_equation():
    three = _freqs("cont-eq", 3)
    dev0 = abs(three.values[0] - 1 / 16)
    dev1 = abs(three.values[1] - 7 / 16)

    family = ModelFamily("cont-eq", 4)
    refined = nonneg_repair(build_constraints(family), _freqs("cont-eq", 4))
    p0 = float(refined.values[0])
    ok = dev0 < 2e-3 and dev1 < 2.5e-3 and abs(p0 - 0.00925) < 2e-3 and p0 < 1 / 32
    _criterion(
        "criterion 2 (cont-eq n=3 exact sixteenths, n=4 refined attractor prob)",
        ok,
        f"n=3 devs ({dev0:.1e}, {dev1:.1e}), refined p0 {p0:.5f} < 1/32",
    )


def test_criterion_3_discrete_equation():
    target = math.atan(math.sqrt(2.0)) / math.pi
    two = _freqs("disc-eq", 2)
    dev0 = abs(two.values[0] - target)
    dev2 = abs(two.values[2] - target)

    four = _freqs("disc-eq", 4)
    even_target = 2.0 / math.pi * math.atan(math.sqrt(1.5))
    dev_even = abs(four.values[0::2].sum() - even_target)
    ok = dev0 < 2e-3 and dev2 < 2e-3 and dev_even < 2e-3
    _criterion(
        "criterion 3 (disc-eq n=2 arctan values, n=4 parity sum)",
        ok,
        f"devs p0 {dev0:.1e}, p2 {dev2:.1e}, even sum {dev_even:.1e}",
    )


def test_criterion_4_discrete_system_regression():
    reference = (0.46348, 0.27705, 0.25947)  # from a 10^8-sample run
    two = _freqs("disc-sys", 2)
    devs = [abs(two.values[k] - v) for k, v in enumerate(reference)]
    ok = all(d < 3e-3 for d in devs)
    _criterion(
        "criterion 4 (disc-sys n=2 against large-sample reference)",
        ok,
        f"max dev {max(devs):.1e}",
    )


def test_criterion_5_oracle_equivalence():
    half = verify.check_oracle("cont-eq", per_degree=10_000, seed=SEED)
    disk = verify.check_oracle("disc-eq", per_degree=10_000, seed=SEED)
    ok = half.passed and disk.passed
    _criterion(
        "criterion 5 (count vs eigenvalue oracle, 10^4 polys per degree 1..10)",
        ok,
        f"{half.detail}; {disk.detail}",
    )


def test_criterion_6_refinement_exactness():
    observed7 = _fractions(
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
    refined7 = least_squares_refine(
        build_constraints(ModelFamily("cont-sys", 7)), observed7
    )
    dev7 = abs(refined7.values[0] - float(Fraction(25333, 40_000_000)))

    observed8 = _fractions(
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
    repaired8 = nonneg_repair(
        build_constraints(ModelFamily("cont-eq", 8)), observed8
    )
    expected8 = _fractions(
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
    dev8 = float(np.abs(repaired8.values - expected8).max())

    observed4 = np.array(
        [
            float(Fraction(2056203, 20_000_000)),
            0.21792,
            float(Fraction(7169499, 20_000_000)),
            0.21794,
            float(Fraction(10285619, 100_000_000)),
        ]
    )
    refined4 = least_squares_refine(
        build_constraints(ModelFamily("disc-eq", 4)), observed4
    )
    closed4 = (observed4[0] - 2 * observed4[2] + observed4[4]) / 6 + (
        2.0 / (3.0 * math.pi)
    ) * math.atan(math.sqrt(1.5))
    dev4 = abs(refined4.values[0] - closed4)

    ok = dev7 < 1e-12 and dev8 < 1e-12 and dev4 < 1e-12
    _criterion(
        "criterion 6 (refinement reproduces exact projections)",
        ok,
        f"devs n=7 {dev7:.1e}, n=8 repair {dev8:.1e}, order-4 closed form {dev4:.1e}",
    )


def test_criterion_7_convergence_slope():
    exact = math.atan(math.sqrt(2.0)) / math.pi
    res = convergence_study(
        ModelFamily("disc-eq", 2),
        2,
        exact,
        [100, 1_000, 10_000, 100_000, 1_000_000],
        seed=SEED,
    )
    ok = res.slope is not None and -0.75 <= res.slope <= -0.25
    _criterion(
        "criterion 7 (log-log error slope near -1/2)",
        ok,
        f"slope {res.slope:.3f}, R^2 {res.r_squared:.3f}",
    )


def test_criterion_8_property_suite():
    checks = [
        verify.check_mean_index(M, SEED),
        verify.check_orthant_determinant(M, SEED),
        verify.check_quadrature(),
        verify.check_constraint_closure(),
        verify.check_exact_catalog(),
        verify.check_determinism(seed=SEED),
    ]
    failed = [c for c in checks if not c.passed]
    detail = "; ".join(c.detail for c in checks if not c.passed) or (
        f"all {len(checks)} property checks passed"
    )
    _criterion("criterion 8 (property suite)", not failed, detail)
