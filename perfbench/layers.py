"""Traced run: per-layer metrics of one workload.

Spans are recorded only around the public names each stabindex module calls
across a layer boundary (see BOUNDARIES); the program's source is untouched
and every wrapped attribute is restored when a traced pass ends.  Traced and
untraced passes alternate, so trace.overhead_frac compares like with like.
"""

import statistics
import time

import numpy as np

from stabindex import cli, kernels, models, montecarlo, refine

import harness
from calibrate import calibration_s
from tracing import Tracer, self_times

LAYERS = ("cli", "montecarlo", "models", "kernels", "constraints", "refine")

# Indeterminate verdicts as batch_indices returns them.
CODES = {
    "zero_pivot": getattr(kernels, "ZERO_PIVOT", -1),
    "boundary_root": getattr(kernels, "BOUNDARY_ROOT", -2),
    "zero_leading": getattr(kernels, "ZERO_LEADING", -3),
}

# Parameter rows per cell of the kernel crossover table, and the least time
# a cell is timed for (fast cells repeat the block).
RATE_ROWS = 512
RATE_MIN_S = 0.02
RATE_NS = range(2, 9)
RATE_METHODS = ("rh", "eigen")


def _batch_meta(args, kwargs, codes):
    codes = np.asarray(codes)
    meta = {"rows": int(codes.shape[0])}
    for name, code in CODES.items():
        meta[name] = int(np.count_nonzero(codes == code))
    return meta


def _shard_meta(args, kwargs, hist):
    cfg = args[0] if args else kwargs["cfg"]
    shard = args[1] if len(args) > 1 else kwargs["shard"]
    return {"cfg": cfg, "shard": shard}


def _kernel_names():
    """The batch-level kernels batch_indices dispatches to.  The per-sample
    scalar kernels they loop over are left alone: a span per sample would
    cost more than the sample."""
    return sorted(
        name for name in dir(kernels)
        if name.startswith("batch_") or name.endswith("_codes")
    )


# (module, attribute, span name): each call one module makes into another
# layer.  The span name's prefix is the layer that does the work.
BOUNDARIES = [
    (cli, "run_estimation", "montecarlo.run_estimation"),
    (cli, "convergence_study", "montecarlo.convergence_study"),
    (cli, "frequencies", "montecarlo.frequencies"),
    (cli, "build_constraints", "constraints.build_constraints"),
    (cli, "exact_probabilities", "constraints.exact_probabilities"),
    (cli, "relation_strings", "constraints.relation_strings"),
    (cli, "nonneg_repair", "refine.nonneg_repair"),
    (montecarlo, "run_estimation", "montecarlo.run_estimation"),
    (montecarlo, "frequencies", "montecarlo.frequencies"),
    (montecarlo, "run_shard", "montecarlo.run_shard"),
    (montecarlo, "batch_indices", "models.batch_indices"),
    (refine, "least_squares_refine", "refine.least_squares_refine"),
    (refine, "build_constraints", "constraints.build_constraints"),
] + [(kernels, name, f"kernels.{name}") for name in _kernel_names()]

_META = {
    "models.batch_indices": _batch_meta,
    "montecarlo.run_shard": _shard_meta,
}


def install(tracer: Tracer, boundaries=BOUNDARIES):
    for owner, attr, name in boundaries:
        tracer.wrap(owner, attr, name, _META.get(name))


def traced_invoke(tracer: Tracer, argv) -> tuple:
    """harness.invoke under a root span named cli.main."""
    return tracer.call("cli.main", harness.invoke, (argv,))


def pass_metrics(spans, wall: float) -> dict:
    """Per-layer numbers of one traced pass of `wall` seconds."""
    own = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + own[id(span)]

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.duration for s in named(name))

    batches = named("models.batch_indices")
    rows = sum(s.meta["rows"] for s in batches)
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update({
        "models.batch_indices_s": busy("models.batch_indices"),
        "models.batch_indices_calls": len(batches),
        "models.kernel_samples_per_s": rows / busy("models.batch_indices") if rows else 0.0,
        "models.kernel_share": (layer_self["models"] + layer_self["kernels"]) / wall,
        "montecarlo.run_estimation_s": busy("montecarlo.run_estimation"),
        "montecarlo.shard_self_s": sum(own[id(s)] for s in named("montecarlo.run_shard")),
        "montecarlo.samples_drawn": rows,
        "constraints.build_s": busy("constraints.build_constraints"),
        "constraints.exact_s": busy("constraints.exact_probabilities"),
        "refine.nonneg_repair_s": busy("refine.nonneg_repair"),
        "refine.lsq_calls": len(named("refine.least_squares_refine")),
        "trace.wall_s": wall,
        "trace.attributed_frac": sum(own.values()) / wall,
    })
    for name in CODES:
        out[f"kernels.codes.{name}"] = sum(s.meta[name] for s in batches)
    return out


def replay_blocks(cfg, shard: int):
    """The parameter blocks run_shard(cfg, shard) draws, in order: the same
    substream read in the same CHUNK-sized blocks."""
    rng = montecarlo.shard_stream(cfg.seed, shard)
    base, rem = divmod(cfg.samples, cfg.shards)
    todo = base + (1 if shard < rem else 0)
    width = cfg.family.param_count
    done = 0
    while done < todo:
        take = min(montecarlo.CHUNK, todo - done)
        yield rng.standard_normal((take, width))
        done += take


def draw_seconds(spans) -> float:
    """Time to replay the normal draws of every run_shard span."""
    t0 = time.perf_counter()
    for span in spans:
        if span.name == "montecarlo.run_shard":
            for _ in replay_blocks(span.meta["cfg"], span.meta["shard"]):
                pass
    return time.perf_counter() - t0


def shard_scaling(tracer: Tracer, jobs, seed: int, reps: int = 5) -> tuple:
    """(speedup, imbalance) of run_estimation with 2 shards over 1 shard on
    the jobs' configs, alternating; imbalance is the slowest 2-shard shard
    over the mean shard, summed over configs."""
    times = {1: [], 2: []}
    slowest = mean = 0.0
    for _ in range(reps):
        for shards in (1, 2):
            tracer.reset()
            t0 = time.perf_counter()
            for job in jobs:
                montecarlo.run_estimation(job.config(seed, shards=shards))
            times[shards].append(time.perf_counter() - t0)
            if shards == 2:
                durations = [s.duration for s in tracer.spans if s.name == "montecarlo.run_shard"]
                slowest += max(durations)
                mean += statistics.fmean(durations)
    speedup = statistics.median(times[1]) / statistics.median(times[2])
    return speedup, slowest / mean


def crossover_rates(seed: int) -> dict:
    """batch_indices throughput per (family, n, method) on one parameter
    block per (family, n), shared by both methods."""
    rng = np.random.default_rng([seed, 1])
    rates = {}
    for kind in models.FAMILY_KINDS:
        for n in RATE_NS:
            family = models.ModelFamily(kind, n)
            block = rng.standard_normal((RATE_ROWS, family.param_count))
            for method in RATE_METHODS:
                reps, t0 = 0, time.perf_counter()
                while True:
                    models.batch_indices(family, block, method)
                    reps += 1
                    elapsed = time.perf_counter() - t0
                    if elapsed >= RATE_MIN_S:
                        break
                rates[f"kernels.rate.{kind}.n{n}.{method}"] = RATE_ROWS * reps / elapsed
    return rates


def traced(workload: str, seed: int, seconds: float) -> dict:
    """Traced run: untraced and traced passes alternate for `seconds`, then
    the draw replay, the shard comparison and the crossover table."""
    jobs = harness.WORKLOADS[workload]
    refs = harness.load_refs(workload, seed)
    oracle = [harness.oracle_check(job, seed) for job in jobs]
    harness.warm_up(jobs, seed)

    plain_scaled, traced_scaled, per_pass = [], [], []
    attempted = failed = 0
    cal = calibration_s()
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(per_pass) < harness.MIN_PASSES:
        wall, _, plain, cal = harness.calibrated_pass(jobs, seed, cal)
        plain_scaled.append(wall)
        with Tracer() as tracer:
            install(tracer)
            wall, raw, results, cal = harness.calibrated_pass(
                jobs, seed, cal, lambda argv: traced_invoke(tracer, argv))
        traced_scaled.append(wall)
        per_pass.append(pass_metrics(tracer.spans, raw))
        attempted += 2 * len(jobs)
        failed += harness.gate(jobs, seed, plain, refs, oracle)
        failed += harness.gate(jobs, seed, results, refs, oracle, plain=plain)
    if tracer.missing:
        print(f"not wrapped (absent): {', '.join(tracer.missing)}")

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    overhead = statistics.median(traced_scaled) / statistics.median(plain_scaled) - 1.0
    metrics["trace.overhead_frac"] = overhead
    metrics["montecarlo.draw_s"] = draw_seconds(tracer.spans)
    metrics["montecarlo.reuse_ratio"] = (
        harness.useful_samples(jobs) / metrics["montecarlo.samples_drawn"])
    metrics["kernels.oracle_mismatch"] = sum(m for m, _ in oracle)
    metrics["kernels.oracle_pairs"] = sum(p for _, p in oracle)
    with Tracer() as tracer:
        install(tracer, [b for b in BOUNDARIES if b[2] == "montecarlo.run_shard"])
        speedup, imbalance = shard_scaling(tracer, jobs, seed)
    metrics["montecarlo.shard_speedup"] = speedup
    metrics["montecarlo.shard_imbalance"] = imbalance
    metrics.update(crossover_rates(seed))

    print(f"pass pairs: {len(per_pass)}, trace overhead {overhead:+.4f} at reference speed")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}
