"""Write the CLI's regression report set into a directory.

Runs 162 ``stabindex`` invocations through ``cli.main`` in one process and
writes each one's stdout, stderr and exit code to ``<name>.out``,
``<name>.err`` and ``<name>.code``.  Two trees are compared by writing the
set against each tree's package and diffing the directories::

    PYTHONPATH=src python tests/report_set.py /tmp/reports-a
    PYTHONPATH=../other/src python tests/report_set.py /tmp/reports-b
    diff -r /tmp/reports-a /tmp/reports-b

The set: ``estimate --format json --samples 40000`` for every family at
n = 1..10 under each method and at n = 11, 12 under ``auto``, ``--method
rh`` for the two matrix families at n = 11, 12 and on 2 shards at n = 20,
``auto`` at disc-eq n = 36 and cont-eq n = 40, 40,001 samples on 3 and 5
shards for every family at n = 4, two more sharded runs, ``convergence``
in every format, ``verify`` at three sizes, n = 8 in every format for
three families, and one 100k-sample run.  It takes about a minute on a
2-core x86 VM.
"""

import contextlib
import io
import sys
from pathlib import Path

from stabindex import cli
from stabindex.models import FAMILY_KINDS, METHODS

FORMATS = ("json", "csv", "table")


def _estimate(kind, n, *extra):
    return ("estimate", "--family", kind, "--n", str(n), *extra)


def reports() -> dict:
    """Report name -> argv, in the order they run."""
    out = {}
    for kind in FAMILY_KINDS:
        for n in range(1, 13):
            for method in METHODS if n <= 10 else ("auto",):
                out[f"est-{kind}-n{n}-{method}"] = _estimate(
                    kind, n, "--method", method, "--format", "json", "--samples", "40000"
                )
    for kind in ("cont-sys", "disc-sys"):
        for n in (11, 12):
            out[f"est-{kind}-n{n}-rh"] = _estimate(
                kind, n, "--method", "rh", "--format", "json", "--samples", "40000"
            )
    # several char-poly blocks per shard at n = 20 (734 rows each)
    for kind in ("cont-sys", "disc-sys"):
        out[f"est-{kind}-n20-rh-shards2"] = _estimate(
            kind, 20, "--method", "rh", "--format", "json", "--samples", "40000",
            "--shards", "2",
        )
    # past the sign scan's reach: at disc-eq n = 36 the Jury scan leaves 187
    # of the 40000 rows indeterminate, and companion eigenvalues settle
    # them; at cont-eq n = 40 the Routh scan certifies every row
    for kind, n in (("disc-eq", 36), ("cont-eq", 40)):
        out[f"est-{kind}-n{n}-auto"] = _estimate(
            kind, n, "--method", "auto", "--format", "json", "--samples", "40000"
        )
    # uneven splits (40001 = 13334 + 13334 + 13333 and 8001 + 4 x 8000),
    # and more shards than a 2-core machine runs at once
    for kind in FAMILY_KINDS:
        for shards in (3, 5):
            out[f"est-{kind}-n4-40001-shards{shards}"] = _estimate(
                kind, 4, "--format", "json", "--samples", "40001", "--shards", str(shards)
            )
    out["est-cont-sys-n6-shards3-table"] = _estimate(
        "cont-sys", 6, "--shards", "3", "--format", "table", "--samples", "40000"
    )
    out["est-disc-sys-n5-shards2-csv"] = _estimate(
        "disc-sys", 5, "--shards", "2", "--format", "csv", "--samples", "40000"
    )
    for fmt in FORMATS:
        out[f"conv-disc-eq-n2-k1-{fmt}"] = (
            "convergence", "--family", "disc-eq", "--n", "2", "--k", "1",
            "--grid", "100,1000,10000,100000", "--format", fmt,
        )
    out["verify-default"] = ("verify",)
    out["verify-2000-50-tol"] = (
        "verify", "--samples", "2000", "--oracle-polys", "50", "--tol", "1e-3"
    )
    out["verify-5000-500"] = ("verify", "--samples", "5000", "--oracle-polys", "500")
    for kind in ("cont-eq", "cont-sys", "disc-eq"):
        for fmt in FORMATS:
            out[f"est-{kind}-n8-{fmt}"] = _estimate(
                kind, 8, "--format", fmt, "--samples", "20000"
            )
    out["est-cont-eq-n10-100k-seed3"] = _estimate(
        "cont-eq", 10, "--format", "json", "--samples", "100000", "--seed", "3"
    )
    return out


def write(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, argv in reports().items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
        (directory / f"{name}.out").write_text(stdout.getvalue())
        (directory / f"{name}.err").write_text(stderr.getvalue())
        (directory / f"{name}.code").write_text(f"{code}\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: report_set.py OUTPUT_DIR")
    write(Path(sys.argv[1]))
