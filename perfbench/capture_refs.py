#!/usr/bin/env python3
"""Write refs.json: every workload's reports at the default seed.

    python3 perfbench/capture_refs.py

The references pin the byte-identity invariant, so they are captured once,
from the commit that introduced the benchmark, and then left alone.
"""

import json
import sys

import run

run.use_checkout_source()

import harness  # noqa: E402  (needs the checkout's stabindex on sys.path)


def main() -> int:
    refs = {}
    for name, jobs in harness.WORKLOADS.items():
        _, results = harness.run_pass(jobs, harness.DEFAULT_SEED)
        if any(rc != 0 for rc, _ in results):
            print(f"error: {name} did not run cleanly", file=sys.stderr)
            return 1
        refs[name] = [text for _, text in results]
    with open(harness.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
