#!/usr/bin/env python3
"""Layered benchmark of stabindex, run from the root of a source checkout.

    python3 perfbench/run.py --workload eq-scan --seed 20231 --seconds 15 --trace 0
    python3 perfbench/run.py --workload eq-scan --trace 1
    python3 perfbench/run.py --tier1

--trace 0 times whole passes of the workload's CLI invocations and prints
the end-to-end metrics; --trace 1 alternates untraced and traced passes and
prints the per-layer metrics.  Metric names, units and workloads are declared
in BENCHMARK.json.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  --tier1 instead runs the repository's tier-1 test command once
with --durations=20 and prints its wall time and slowest tests.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("eq-scan", "sys-charpoly", "eig-sharded", "convergence")

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=20"]


def use_checkout_source() -> None:
    """Import stabindex from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "stabindex", "__init__.py")):
        raise SystemExit(f"error: no stabindex sources under {SRC}")
    sys.path.insert(0, SRC)
    import stabindex

    if not os.path.abspath(stabindex.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: stabindex imported from {stabindex.__file__}")


def _git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    import stabindex
    from stabindex import montecarlo

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "accel_mode": getattr(stabindex, "ACCEL_MODE", "absent"),
        "usable_cores": len(os.sched_getaffinity(0)),
        "chunk": getattr(montecarlo, "CHUNK", None),
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def tier1() -> int:
    """Run the tier-1 command once and report wall time and slowest tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    slowest = [
        {"seconds": float(m.group(1)), "phase": m.group(2), "test": m.group(3)}
        for m in (re.match(r"^\s*([\d.]+)s (\w+)\s+(\S+)", line) for line in lines)
        if m
    ]
    summary = next((l for l in reversed(lines) if re.search(r"\d+ (passed|failed)", l)), "")
    print(json.dumps({
        "tier1_wall_s": wall,
        "exit_code": proc.returncode,
        "summary": summary.strip("= "),
        "slowest": slowest,
        "environment": environment(),
    }))
    return proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOAD_NAMES)
    mode.add_argument("--tier1", action="store_true",
                      help="time the tier-1 test suite once (not a workload)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the stabindex default, 20231)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")

    use_checkout_source()
    if args.tier1:
        return tier1()
    import harness

    seed = harness.DEFAULT_SEED if args.seed is None else args.seed

    env = environment()
    env["loadavg_start"] = os.getloadavg()
    if args.trace:
        import layers

        result = layers.traced(args.workload, seed, args.seconds)
    else:
        result = harness.end_to_end(args.workload, seed, args.seconds)
    env["loadavg_end"] = os.getloadavg()
    print("environment: " + json.dumps(env))

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(result["metrics"]) != set(units):
        raise SystemExit(
            "error: emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(units))}"
        )
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


def declared_units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


if __name__ == "__main__":
    sys.exit(main())
