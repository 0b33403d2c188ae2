"""Workloads, passes and the correctness gate of the stabindex benchmark.

A workload is a fixed list of CLI invocations (jobs); one pass runs all of
them in this process through ``stabindex.cli.main`` and is one batch job of
a user.  Only the seed varies between runs.  Every report a pass prints is
checked before it counts.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from stabindex import cli, models, montecarlo
from stabindex.constraints import build_constraints, exact_probabilities

from calibrate import at_reference_speed, calibration_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS_PATH = os.path.join(HERE, "refs.json")

# Reports at this seed must equal, byte for byte, the references in
# refs.json captured from the commit that introduced the benchmark.
DEFAULT_SEED = 20231

# Rows of shard 0's first parameter block that are classified a second time
# by the eigenvalue route and compared with the workload's own codes.
ORACLE_ROWS = 4096

# Fresh interpreters timed for setup_s after one untimed warm-up.
SETUP_REPEATS = 7

# Passes below which a run keeps measuring past its time budget, so that a
# median and quartiles exist.
MIN_PASSES = 3


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  For convergence, samples is max(grid)."""

    command: str
    family: str
    n: int
    samples: int
    shards: int = 1
    grid: tuple = ()
    k: int = 0

    @property
    def model(self) -> models.ModelFamily:
        return models.ModelFamily(self.family, self.n)

    def argv(self, seed: int) -> list:
        common = ["--family", self.family, "--n", str(self.n), "--seed", str(seed)]
        if self.command == "convergence":
            grid = ",".join(map(str, self.grid))
            return ["convergence", *common, "--k", str(self.k), "--grid", grid,
                    "--format", "json"]
        return ["estimate", *common, "--samples", str(self.samples),
                "--shards", str(self.shards), "--format", "json"]

    def probe_argv(self, seed: int) -> list:
        """A 1-sample estimate of this job's family."""
        return ["estimate", "--family", self.family, "--n", str(self.n),
                "--samples", "1", "--seed", str(seed)]

    def config(self, seed: int, shards: int | None = None) -> montecarlo.EstimationConfig:
        """The estimation behind this job (for convergence, its largest
        grid point, of which every other point is a prefix)."""
        return montecarlo.EstimationConfig(
            family=self.model, samples=self.samples, seed=seed,
            shards=self.shards if shards is None else shards,
        )


# A pass takes a quarter to half a second on a 2-core x86 VM in numpy mode:
# short enough that the calibrations bracketing it see the speed the pass ran
# at (see calibrate.py), long enough that the CLI's fixed cost stays under 2%
# of eq-scan and sys-charpoly.  Why each workload exists is recorded in
# BENCHMARK.json.
WORKLOADS = {
    "eq-scan": (
        Job("estimate", "cont-eq", 4, 10_000),
        Job("estimate", "disc-eq", 4, 10_000),
    ),
    "sys-charpoly": (
        Job("estimate", "cont-sys", 3, 3_000),
        Job("estimate", "disc-sys", 3, 3_000),
    ),
    "eig-sharded": (Job("estimate", "cont-sys", 6, 40_000, shards=2),),
    "convergence": (
        Job("convergence", "disc-eq", 2, 10_000, grid=(100, 1_000, 10_000), k=2),
    ),
}


def useful_samples(jobs) -> int:
    return sum(job.samples for job in jobs)


def invoke(argv) -> tuple:
    """Run the CLI once in this process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_pass(jobs, seed: int, call=None) -> tuple:
    """One pass over jobs.  Returns (wall seconds, [(rc, text)]); an
    invocation that raises is reported with rc None and its traceback on
    stderr.  call(argv) replaces invoke, for the traced run."""
    call = call or invoke
    results = []
    t0 = time.perf_counter()
    for job in jobs:
        try:
            results.append(call(job.argv(seed)))
        except Exception:
            traceback.print_exc()
            results.append((None, ""))
    return time.perf_counter() - t0, results


def load_refs(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(REFS_PATH) as fh:
        return json.load(fh)[workload]


def oracle_check(job, seed: int) -> tuple:
    """(mismatches, pairs compared) between the job's codes and the
    eigenvalue route on the first ORACLE_ROWS rows it draws, counting only
    rows both routes call determinate.  (0, 0) when the job already runs on
    eigenvalues."""
    family = job.model
    if models.resolve_method(family, "auto") != "rh":
        return 0, 0
    rows = min(ORACLE_ROWS, job.samples // job.shards)
    params = montecarlo.shard_stream(seed, 0).standard_normal((rows, family.param_count))
    own = models.batch_indices(family, params, "auto")
    eig = models.batch_indices(family, params, "eigen")
    both = (own >= 0) & (eig >= 0)
    return int((own[both] != eig[both]).sum()), int(both.sum())


def _relations_hold(family, refined) -> bool:
    cs = build_constraints(family)
    p = np.asarray(refined["values"], dtype=float)
    q = p[list(cs.free)]
    return bool(np.abs(cs.design @ q + cs.offset - p).max() <= 1e-12 and (p >= 0).all())


def check_report(job, seed: int, rc, text: str, ref) -> list:
    """Violations of the gate for one invocation; empty when it passes."""
    if rc != 0:
        return [f"exit code {rc}"]
    if ref is not None and text != ref:
        return ["report bytes differ from the reference"]
    try:
        rep = json.loads(text)
    except ValueError:
        return ["report is not JSON"]
    family = job.model
    errors = []
    if job.command == "convergence":
        exact = float(exact_probabilities(family).values[job.k])
        if [r["samples"] for r in rep["rows"]] != list(job.grid):
            errors.append("grid rows differ from the requested grid")
        if rep["exact"] != exact:
            errors.append("exact value differs from the catalog")
        for r in rep["rows"]:
            if not 0.0 <= r["estimate"] <= 1.0 or r["error"] != abs(r["estimate"] - exact):
                errors.append(f"row {r['samples']} is inconsistent")
        return errors
    hist = rep["histogram"]
    counts = hist["counts"]
    if (hist["family"], hist["n"], hist["seed"]) != (job.family, job.n, seed):
        errors.append("histogram labels differ from the request")
    if len(counts) != job.n + 1 or min(counts) < 0:
        errors.append("histogram has the wrong shape")
    if sum(counts) + hist["indeterminate"] != hist["M"] or hist["M"] != job.samples:
        errors.append("counts + indeterminate != samples")
    refined = rep["refined"]
    if (refined is None) != (job.family == "disc-sys"):
        errors.append("refinement ran where it should not, or did not run")
    elif refined is not None and not _relations_hold(family, refined):
        errors.append("refined vector breaks the relations")
    return errors


def indeterminate_counts(job, seed: int, text: str) -> tuple:
    """(indeterminate, drawn, errors) for one job's report.  Convergence
    reports carry no histogram, so its largest grid point is estimated once
    more here, and the reported estimate must equal that run's."""
    if job.command == "estimate":
        hist = json.loads(text)["histogram"]
        return hist["indeterminate"], hist["M"], []
    hist = montecarlo.run_estimation(job.config(seed))
    last = json.loads(text)["rows"][-1]["estimate"]
    if last != float(montecarlo.frequencies(hist).values[job.k]):
        return hist.indeterminate, hist.samples, ["estimate differs from a direct run"]
    return hist.indeterminate, hist.samples, []


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


_SETUP_CHILD = """
import time
t0 = time.perf_counter()
import contextlib, io, json, sys
from stabindex import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
seconds = time.perf_counter() - t0
from calibrate import at_reference_speed, calibration_s
cal = calibration_s()
print(json.dumps({"rc": rc, "seconds": at_reference_speed(seconds, cal, cal)}))
"""


def setup_seconds(job, seed: int, repeats: int = SETUP_REPEATS) -> list:
    """Times, each in a fresh interpreter, to import stabindex.cli and run a
    1-sample estimate of job's family.  One untimed warm-up comes first."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for i in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, *job.probe_argv(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        out = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
        if out is None or out["rc"] != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-500:]}")
        if i:
            times.append(out["seconds"])
    return times


def warm_up(jobs, seed: int):
    """One 1-sample invocation per job fills lazy caches before timing."""
    for job in jobs:
        invoke(job.probe_argv(seed))


def gate(jobs, seed: int, results, refs, oracle, plain=None) -> int:
    """Check one pass's results; returns how many invocations failed.  plain,
    when given, holds the untraced pass whose reports results must equal."""
    failed = 0
    for i, (job, (rc, text)) in enumerate(zip(jobs, results)):
        errors = check_report(job, seed, rc, text, refs[i] if refs else None)
        if plain is not None and text != plain[i][1]:
            errors.append("traced report differs from the untraced one")
        if oracle[i][0]:
            errors.append(f"{oracle[i][0]} oracle mismatches")
        if errors:
            failed += 1
            print(f"FAILED {' '.join(job.argv(seed))}: {'; '.join(errors)}", file=sys.stderr)
    return failed


def calibrated_pass(jobs, seed: int, cal_before: float, call=None) -> tuple:
    """run_pass followed by a calibration.  Returns (wall at reference
    speed, raw wall, results, calibration after)."""
    wall, results = run_pass(jobs, seed, call)
    cal_after = calibration_s()
    return at_reference_speed(wall, cal_before, cal_after), wall, results, cal_after


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: passes for `seconds`, then the set-up timing."""
    jobs = WORKLOADS[workload]
    refs = load_refs(workload, seed)
    oracle = [oracle_check(job, seed) for job in jobs]
    warm_up(jobs, seed)

    scaled, raw, attempted, failed = [], [], 0, 0
    first = None
    cal = calibration_s()
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(scaled) < MIN_PASSES:
        wall, wall_raw, results, cal = calibrated_pass(jobs, seed, cal)
        scaled.append(wall)
        raw.append(wall_raw)
        attempted += len(jobs)
        failed += gate(jobs, seed, results, refs, oracle)
        first = first or results
    rss = peak_rss_mb()

    indet, drawn = 0, 0
    for job, (rc, text) in zip(jobs, first):
        if rc != 0:
            continue
        i, d, errors = indeterminate_counts(job, seed, text)
        indet, drawn = indet + i, drawn + d
        if errors:
            failed += 1
            print(f"FAILED {' '.join(job.argv(seed))}: {'; '.join(errors)}", file=sys.stderr)
    setups = setup_seconds(jobs[0], seed)

    useful = useful_samples(jobs)
    q1, med, q3 = quartiles(scaled)
    r1, rmed, r3 = quartiles(raw)
    s1, smed, s3 = quartiles(setups)
    print(f"passes: {len(scaled)}, useful samples per pass: {useful}")
    print(f"samples_per_s: median {useful / med:.1f}, q1 {useful / q3:.1f}, "
          f"q3 {useful / q1:.1f} over {len(scaled)} passes at reference speed")
    print(f"samples_per_s (raw wall clock): median {useful / rmed:.1f}, "
          f"q1 {useful / r3:.1f}, q3 {useful / r1:.1f}")
    print(f"setup_s: median {smed:.4f}, q1 {s1:.4f}, q3 {s3:.4f} "
          f"over {len(setups)} interpreters at reference speed")
    print(f"indeterminate_fraction: {indet}/{drawn}, failed_fraction: {failed}/{attempted}")
    metrics = {
        "samples_per_s": useful / med,
        "setup_s": smed,
        "peak_rss_mb": rss,
        "determinate_fraction": 1.0 - indet / drawn if drawn else 0.0,
        "ok_fraction": 1.0 - failed / attempted,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}
