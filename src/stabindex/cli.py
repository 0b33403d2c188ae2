"""Command-line front end.

Subcommands: ``estimate`` (Monte Carlo frequencies with least-squares
refinement and exact values where known), ``convergence`` (error decay of
one index probability over a sample-size grid) and ``verify`` (the
cross-checking property suite).

Exit codes: 0 success, 1 usage error, 2 estimation abort, 3 verification
failure.  Output is byte-identical for identical arguments.
"""

import argparse
import functools
import json
import math
import sys

from .constraints import build_constraints, exact_probabilities, relation_strings
from .models import DEFAULT_TOL, FAMILY_KINDS, METHODS, ModelFamily, validate_tol
from .montecarlo import (
    DEFAULT_SEED,
    EstimationAbort,
    EstimationConfig,
    convergence_study,
    frequencies,
    run_estimation,
)
from .refine import nonneg_repair

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ABORT = 2
EXIT_VERIFY = 3


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage errors to 1
        raise CliError(message)


def _fmt(x) -> str:
    return f"{x:.5f}"


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write --out file: {exc}") from None
    else:
        sys.stdout.write(text)


@functools.cache
def _parser() -> _Parser:
    """The parser, built on first use and kept: the test suite and the
    benchmark call main many times in one process."""
    parser = _Parser(prog="stabindex", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # the flags estimate and convergence share
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family", required=True, choices=FAMILY_KINDS)
    common.add_argument("--n", required=True, type=int)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--method", choices=METHODS, default="auto")
    common.add_argument("--tol", type=float, default=DEFAULT_TOL)
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")
    common.add_argument("--out", metavar="FILE", default=None)

    est = sub.add_parser("estimate", parents=[common], help="estimate an index distribution")
    est.add_argument("--samples", type=int, default=1_000_000)
    est.add_argument("--shards", type=int, default=1)

    conv = sub.add_parser("convergence", parents=[common], help="error decay over a sample grid")
    conv.add_argument("--k", required=True, type=int, help="index probability to track")
    conv.add_argument(
        "--grid",
        default="100,1000,10000,100000,1000000",
        help="comma-separated sample sizes",
    )

    ver = sub.add_parser("verify", help="run the cross-checking property suite")
    ver.add_argument("--samples", type=int, default=100_000)
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ver.add_argument("--oracle-polys", type=int, default=10_000)
    ver.add_argument("--tol", type=float, default=DEFAULT_TOL)
    return parser


def _vector_json(vec) -> dict:
    return {
        "source": vec.source,
        "values": [float(v) if math.isfinite(v) else None for v in vec.values],
        "stderr": [float(s) if math.isfinite(s) else None for s in vec.stderr],
    }


def _render_estimate(args, cfg, hist, freq, refined, exact, relations) -> str:
    n = cfg.family.n
    if args.format == "json":
        payload = {
            "config": {
                "family": cfg.family.kind,
                "n": n,
                "samples": cfg.samples,
                "seed": cfg.seed,
                "shards": cfg.shards,
                "method": cfg.method,
                "tol": cfg.tol,
            },
            "histogram": {
                "family": hist.family.kind,
                "n": hist.family.n,
                "M": hist.samples,
                "seed": hist.seed,
                "counts": [int(c) for c in hist.counts],
                "indeterminate": hist.indeterminate,
            },
            "frequencies": _vector_json(freq),
            "refined": _vector_json(refined) if refined is not None else None,
            "exact": _vector_json(exact),
            "relations": relations,
        }
        return json.dumps(payload, indent=2) + "\n"

    if args.format == "csv":
        lines = ["k,observed,stderr,refined,exact,relation"]
        for k in range(n + 1):
            obs = repr(float(freq.values[k]))
            err = repr(float(freq.stderr[k]))
            ref = repr(float(refined.values[k])) if refined is not None else ""
            exv = exact.values[k]
            exs = repr(float(exv)) if math.isfinite(exv) else ""
            lines.append(f"{k},{obs},{err},{ref},{exs},{relations[k]}")
        return "\n".join(lines) + "\n"

    head = [
        f"family        : {cfg.family.kind}",
        f"n             : {n}",
        f"samples       : {cfg.samples}",
        f"seed          : {cfg.seed}",
        f"shards        : {cfg.shards}",
        f"method        : {cfg.method}",
        f"tol           : {cfg.tol:g}",
        f"indeterminate : {hist.indeterminate}",
        "",
    ]
    if refined is not None:
        head.append("  k  observed   refined    exact-or-relation")
        rows = [
            f"  {k}  {_fmt(freq.values[k])}    {_fmt(refined.values[k])}    "
            + (_fmt(exact.values[k]) if math.isfinite(exact.values[k]) else relations[k])
            for k in range(n + 1)
        ]
    else:
        head.append("  k  observed")
        rows = [f"  {k}  {_fmt(freq.values[k])}" for k in range(n + 1)]
    return "\n".join(head + rows) + "\n"


def _cmd_estimate(args) -> int:
    family = ModelFamily(args.family, args.n)
    cfg = EstimationConfig(
        family=family,
        samples=args.samples,
        seed=args.seed,
        method=args.method,
        shards=args.shards,
        tol=args.tol,
    )
    hist = run_estimation(cfg)
    freq = frequencies(hist)
    cs = build_constraints(family)
    refined = nonneg_repair(cs, freq) if family.symmetric else None
    exact = exact_probabilities(family)
    text = _render_estimate(args, cfg, hist, freq, refined, exact, relation_strings(cs))
    _emit(text, args.out)
    return EXIT_OK


def _cmd_convergence(args) -> int:
    family = ModelFamily(args.family, args.n)
    if not 0 <= args.k <= family.n:
        raise CliError(f"k must be in 0..{family.n}")
    exact = exact_probabilities(family).values[args.k]
    if not math.isfinite(exact):
        raise CliError(f"no exact value for {family} index {args.k}")
    try:
        grid = [int(v) for v in args.grid.split(",") if v.strip()]
    except ValueError as exc:
        raise CliError(f"bad grid: {exc}") from None
    if not grid or min(grid) < 1:
        raise CliError("grid must list positive sample sizes")
    res = convergence_study(
        family, args.k, exact, grid, args.seed, args.method, args.tol
    )

    if args.format == "json":
        payload = {
            "family": family.kind,
            "n": family.n,
            "k": args.k,
            "exact": exact,
            "seed": args.seed,
            "rows": [
                {"samples": m, "estimate": est, "error": err}
                for m, est, err in res.rows
            ],
            "slope": res.slope,
            "r_squared": res.r_squared,
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        lines = ["samples,estimate,error"]
        lines += [f"{m},{est!r},{err!r}" for m, est, err in res.rows]
        text = "\n".join(lines) + "\n"
    else:
        lines = [
            f"family {family.kind} n={family.n}, p_{args.k} exact = {exact:.6f}, seed {args.seed}",
            "",
            "  samples    estimate   |error|",
        ]
        lines += [f"  {m:<9d}  {est:.5f}    {err:.6f}" for m, est, err in res.rows]
        lines.append("")
        if res.slope is None:
            lines.append("slope: undefined (nonzero errors at fewer than two sample sizes)")
        else:
            lines.append(f"log-log slope: {res.slope:.3f}   R^2: {res.r_squared:.3f}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.samples < 2:  # the determinism check splits them over two shards
        raise CliError("--samples must be >= 2")
    if args.oracle_polys < 1:
        raise CliError("--oracle-polys must be >= 1")
    if args.seed < 0:
        raise CliError("--seed must be >= 0")
    validate_tol(args.tol)
    from . import verify as verify_suite  # only this subcommand needs it

    results = verify_suite.run_all(
        samples=args.samples,
        seed=args.seed,
        oracle_polys=args.oracle_polys,
        tol=args.tol,
    )
    for result in results:
        print(result)
    passed = sum(r.passed for r in results)
    skipped = sum(r.skipped for r in results)
    summary = f"{passed}/{len(results)} checks passed"
    print(summary + (f", {skipped} skipped" if skipped else ""))
    return EXIT_OK if passed + skipped == len(results) else EXIT_VERIFY


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "convergence":
            return _cmd_convergence(args)
        return _cmd_verify(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EstimationAbort as exc:
        print(f"estimation aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
