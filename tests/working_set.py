"""Measure the working set of one estimation: page faults and peak RSS.

Runs one ``estimate`` configuration through ``run_estimation`` several
times in this process and prints the median minor page faults per warm run
(every run after the first), their median wall time, and the growth of
peak resident memory over the whole invocation.  ``--first-shards`` runs
the same configuration twice at another shard count first, so a 1-shard
run can be measured after 2-shard runs have shaped the heap, or the other
way round.  Each invocation is a fresh process, so its heap history is
only what the flags make it::

    PYTHONPATH=src python tests/working_set.py --family cont-sys --n 6 --samples 40000
    PYTHONPATH=src python tests/working_set.py --family cont-sys --n 6 \\
        --samples 40000 --shards 1 --first-shards 2

Faults come from ``resource.getrusage`` (``ru_minflt``), peak RSS from its
``ru_maxrss``, so the script runs where the ``resource`` module exists.
Not collected by pytest.
"""

import argparse
import resource
import statistics
import time

from stabindex.models import FAMILY_KINDS, METHODS, ModelFamily
from stabindex.montecarlo import DEFAULT_SEED, EstimationConfig, run_estimation


def _usage():
    return resource.getrusage(resource.RUSAGE_SELF)


def measure(cfg, runs, first=None, first_runs=2) -> dict:
    """Run ``first`` (if given) first_runs times, then ``cfg`` runs times.
    Returns the minor faults and wall seconds of each run of cfg and the
    peak-RSS growth in MB since before the first run."""
    start = _usage().ru_maxrss
    for _ in range(first_runs if first is not None else 0):
        run_estimation(first)
    faults, seconds = [], []
    for _ in range(runs):
        before = _usage().ru_minflt
        t0 = time.perf_counter()
        run_estimation(cfg)
        seconds.append(time.perf_counter() - t0)
        faults.append(_usage().ru_minflt - before)
    return {"faults": faults, "seconds": seconds,
            "rss_growth_mb": (_usage().ru_maxrss - start) / 1024.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=FAMILY_KINDS, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--method", choices=METHODS, default="auto")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--runs", type=int, default=7,
                        help="runs of the configuration; the first is cold")
    parser.add_argument("--first-shards", type=int, default=None,
                        help="run the configuration at this shard count first")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2: the first run is cold")

    def config(shards):
        return EstimationConfig(ModelFamily(args.family, args.n), args.samples,
                                args.seed, method=args.method, shards=shards)

    first = None if args.first_shards is None else config(args.first_shards)
    out = measure(config(args.shards), args.runs, first)
    warm = out["faults"][1:]
    prior = "" if first is None else f", after 2 runs at {args.first_shards} shards"
    print(f"{args.family} n={args.n}, {args.samples} samples, {args.shards} shards, "
          f"method {args.method}{prior}")
    print(f"minor faults per warm run: median {statistics.median(warm):g} "
          f"(min {min(warm)}, max {max(warm)}, cold {out['faults'][0]}) "
          f"over {len(warm)} runs")
    print(f"wall per warm run: median {statistics.median(out['seconds'][1:]) * 1e3:.1f} ms")
    print(f"peak RSS growth: {out['rss_growth_mb']:.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
