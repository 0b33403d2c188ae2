"""Command-line surface: outputs, formats, determinism, exit codes."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stabindex import cli, constraints, verify
from stabindex.verify import CheckResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_exact_column_for_cont_eq_3(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate", "--family", "cont-eq", "--n", "3",
            "--samples", "20000", "--seed", "7",
        )
        assert code == 0
        assert "0.06250" in out and "0.43750" in out
        assert "indeterminate : 0" in out

    def test_table_header(self, capsys):
        # tol is printed with :g, not str: 1.23457e-07, not 1.23456789e-07
        code, out, _ = run_cli(
            capsys,
            "estimate", "--family", "cont-eq", "--n", "4",
            "--samples", "20000", "--tol", "1.23456789e-7",
        )
        assert code == 0
        assert out.splitlines()[:9] == [
            "family        : cont-eq",
            "n             : 4",
            "samples       : 20000",
            "seed          : 20231",
            "shards        : 1",
            "method        : auto",
            "tol           : 1.23457e-07",
            "indeterminate : 0",
            "",
        ]

    def test_disc_sys_has_no_refined_column(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate", "--family", "disc-sys", "--n", "1",
            "--samples", "20000",
        )
        assert code == 0
        assert "refined" not in out
        values = [float(line.split()[1]) for line in out.splitlines()[-2:]]
        assert abs(values[0] - 0.5) < 0.02 and abs(values[1] - 0.5) < 0.02

    def test_byte_identical_runs(self, capsys):
        args = (
            "estimate", "--family", "disc-eq", "--n", "2",
            "--samples", "10000", "--seed", "5", "--shards", "2",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_shared_systems_keep_report_bytes(self, capsys):
        # cont-eq n = 8 at this size repairs its tails, so pinned systems are
        # built and then shared too
        for fmt in ("json", "csv", "table"):
            args = (
                "estimate", "--family", "cont-eq", "--n", "8",
                "--samples", "20000", "--format", fmt,
            )
            constraints._build_system.cache_clear()
            first = run_cli(capsys, *args)
            assert constraints._build_system.cache_info().currsize > 1
            repeated = run_cli(capsys, *args)
            constraints._build_system.cache_clear()
            cleared = run_cli(capsys, *args)
            assert first[0] == 0
            assert first == repeated == cleared

    def test_high_order_takes_eigen_route(self, capsys):
        # the sign scan leaves too many cont-sys rows indeterminate at n = 24
        # for the abort budget; "auto" must settle them by eigenvalues
        code, _, err = run_cli(
            capsys,
            "estimate", "--family", "cont-sys", "--n", "24", "--samples", "2000",
        )
        assert code == 0, err
        code, _, _ = run_cli(
            capsys,
            "estimate", "--family", "cont-sys", "--n", "24", "--samples", "2000",
            "--method", "rh",
        )
        assert code == 2

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate", "--family", "cont-eq", "--n", "4",
            "--samples", "5000", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        hist = payload["histogram"]
        assert hist["M"] == 5000
        assert sum(hist["counts"]) + hist["indeterminate"] == 5000
        assert abs(sum(payload["frequencies"]["values"]) - 1.0) < 1e-9
        assert payload["refined"]["source"] == "refined"
        assert payload["exact"]["source"] == "exact"
        assert payload["exact"]["values"][0] is None  # no closed form at order 4

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate", "--family", "cont-sys", "--n", "2",
            "--samples", "5000", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,observed,stderr,refined,exact,relation"
        assert len(lines) == 4

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run_cli(
            capsys,
            "estimate", "--family", "cont-eq", "--n", "2",
            "--samples", "2000", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert "exact-or-relation" in target.read_text()

    def test_unwritable_out_file_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "report.txt"
        code, out, err = run_cli(
            capsys,
            "estimate", "--family", "cont-eq", "--n", "2",
            "--samples", "2000", "--out", str(target),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "missing-dir" in err

    def test_usage_error_bad_family(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--family", "bogus", "--n", "2")
        assert code == 1 and "error" in err

    def test_usage_error_bad_n(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--family", "cont-eq", "--n", "0"
        )
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_is_usage_error(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "estimate", "--family", "cont-eq", "--n", "2", "--tol", tol
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "tol" in err

    def test_abort_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            "estimate", "--family", "disc-eq", "--n", "3",
            "--samples", "20000", "--tol", "1e-2",
        )
        assert code == 2
        assert "aborted" in err


class TestConvergence:
    def test_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "convergence", "--family", "disc-eq", "--n", "2", "--k", "2",
            "--grid", "100,1000,10000",
        )
        assert code == 0
        assert "log-log slope" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "convergence", "--family", "disc-eq", "--n", "2", "--k", "2",
            "--grid", "100,1000", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 2
        assert payload["exact"] == pytest.approx(0.304087, abs=1e-6)

    def test_no_exact_value_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "convergence", "--family", "disc-eq", "--n", "3", "--k", "0"
        )
        assert code == 1 and "no exact value" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--k", "3", "k must be in 0..2"), ("--k", "-1", "k must be in 0..2"),
         ("--grid", "100,0", "positive sample sizes"), ("--grid", "-5", "positive sample sizes")],
    )
    def test_out_of_range_k_or_grid_is_usage_error(self, capsys, flag, value, message):
        options = {"--k": "2", "--grid": "100,1000", flag: value}
        argv = [part for option in options.items() for part in option]
        code, out, err = run_cli(capsys, "convergence", "--family", "disc-eq", "--n", "2", *argv)
        assert code == 1 and out == "" and message in err

    def test_table_without_slope_says_so(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "convergence", "--family", "cont-eq", "--n", "3", "--k", "0", "--grid", "100,100",
        )
        assert code == 0
        assert out.endswith("slope: undefined (nonzero errors at fewer than two sample sizes)\n")

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(
            capsys,
            "convergence", "--family", "disc-eq", "--n", "2", "--k", "2",
            "--grid", "10,abc",
        )
        assert code == 1

    def test_csv_fields_are_plain_numbers(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "convergence", "--family", "cont-eq", "--n", "3", "--k", "0",
            "--grid", "100,1000", "--format", "csv",
        )
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "samples,estimate,error" and len(rows) == 2
        for row in rows:
            _, estimate, error = (float(field) for field in row.split(","))
            assert error == abs(estimate - 1 / 16)  # p_0 of cont-eq n=3

    def test_repeated_grid_size_has_no_slope(self, capsys):
        # two errors at one sample size are no decay: no fit, no warning
        code, out, err = run_cli(
            capsys,
            "convergence", "--family", "cont-eq", "--n", "3", "--k", "0",
            "--grid", "100,100", "--format", "json",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert [row["error"] > 0 for row in payload["rows"]] == [True, True]
        assert payload["slope"] is None and payload["r_squared"] is None


class TestVerify:
    def test_passing_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--samples", "5000", "--oracle-polys", "3000"
        )
        assert code == 0
        assert out.count("[PASS]") == 11
        assert "11/11 checks passed" in out

    @pytest.mark.parametrize("flag", ["--samples", "--oracle-polys"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_size_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "verify", flag, value)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and flag in err

    def test_single_sample_is_usage_error(self, capsys):
        # the determinism check splits --samples over two shards
        code, out, err = run_cli(capsys, "verify", "--samples", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "--samples" in err

    def test_single_oracle_poly_is_valid(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--samples", "2", "--oracle-polys", "1"
        )
        assert code == 0 and "error:" not in err

    def test_too_few_samples_skip_statistical_checks(self, capsys):
        # at 2 samples and 1 oracle draw per order no statistical check has
        # the power to fail: SKIP, not PASS
        code, out, err = run_cli(
            capsys, "verify", "--samples", "2", "--oracle-polys", "1"
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith("[SKIP]")] == [
            "[SKIP] half-plane count vs eigenvalue oracle",
            "[SKIP] disk count vs eigenvalue oracle",
            "[SKIP] cont-sys half-plane count vs eigenvalue oracle",
            "[SKIP] disc-sys pencil disk count vs eigenvalue oracle",
            "[SKIP] orthant determinant probability 1/32",
            "[SKIP] mean index n/2 (symmetric families)",
            "[SKIP] indeterminate fraction budget",
        ]
        assert "[FAIL]" not in out
        assert lines[-1] == "4/11 checks passed, 7 skipped"

    def test_power_floors(self):
        from stabindex.verify import check_mean_index, check_orthant_determinant

        # 4 sqrt(p(1-p)/N) < p = 1/32 from N = 497
        assert check_orthant_determinant(496).skipped
        assert not check_orthant_determinant(497).skipped
        # 4 sqrt(var/N) <= 2n/sqrt(N) under a quarter of n/2 from N = 257
        assert check_mean_index(256).skipped
        assert not check_mean_index(257).skipped
        # a 1e-3 mismatch rate at one order survives 2994 pairs with p > 0.05
        assert verify.check_oracle("cont-eq", 2994).skipped
        assert verify.check_oracle("cont-eq", 2995).passed
        # a 1e-2 indeterminate rate (10x the budget) survives 298 with p > 0.05
        assert verify.check_indeterminate_fraction(298).skipped
        assert verify.check_indeterminate_fraction(299).passed

    @pytest.mark.parametrize("samples", [0, -3])
    @pytest.mark.parametrize(
        "check",
        [verify.check_orthant_determinant, verify.check_mean_index,
         verify.check_indeterminate_fraction,
         lambda samples: verify.run_all(samples=samples, oracle_polys=1)],
        ids=["orthant", "mean-index", "indeterminate", "run-all"],
    )
    def test_bad_sample_count_is_value_error(self, check, samples):
        """A sample count under 1 is EstimationConfig's ValueError, not a
        ZeroDivisionError from a bound."""
        with pytest.raises(ValueError, match="samples must be >= 1"):
            check(samples)

    def test_checks_draw_from_distinct_streams(self):
        """No two of the oracle and orthant checks share a substream, whose
        first draws they would then repeat."""
        oracle_keys = {verify._ORACLE_KEY + offset for offset, _ in verify._ORACLE_CASES.values()}
        assert len(oracle_keys) == len(verify._ORACLE_CASES)
        assert verify._QUADRANT_KEY not in oracle_keys

    @pytest.mark.parametrize(
        "last, code, summary",
        [(True, 0, "1/2 checks passed, 1 skipped"), (False, 3, "0/2 checks passed, 1 skipped")],
    )
    def test_skip_is_neither_pass_nor_failure(self, capsys, monkeypatch, last, code, summary):
        monkeypatch.setattr(
            verify,
            "run_all",
            lambda **kw: [
                CheckResult("few", False, "too few samples", skipped=True),
                CheckResult("stub", last, "forced"),
            ],
        )
        got, out, _ = run_cli(capsys, "verify")
        assert got == code
        assert out.splitlines() == [
            "[SKIP] few: too few samples",
            f"[{'PASS' if last else 'FAIL'}] stub: forced",
            summary,
        ]

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "-1")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "--seed" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_bad_tol_is_usage_error(self, capsys, tol):
        code, out, err = run_cli(capsys, "verify", "--tol", tol)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "tol" in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify,
            "run_all",
            lambda **kw: [CheckResult("stub", False, "forced failure")],
        )
        code, out, _ = run_cli(capsys, "verify")
        assert code == 3
        assert "[FAIL] stub" in out

    def test_wrong_constant_fails_quadrature(self):
        # negative control: the quadrature check must catch a wrong closed form
        from stabindex.verify import check_quadrature

        bad = check_quadrature(lambda a, b: 0.5 / a * np.arctan(b / a))
        assert not bad.passed
        # a closed form off by one part in 10^6 (7e-7 error) must fail the 1e-8 bound too
        near = check_quadrature(
            lambda a, b: (1 + 1e-6) * np.arctan(b / a) / (a * np.sqrt(np.pi))
        )
        assert not near.passed
        good = check_quadrature()
        assert good.passed

    def test_sloppy_tolerance_fails_indeterminate_check(self):
        # negative control: a fat tolerance inflates boundary rejections
        from stabindex.verify import check_indeterminate_fraction

        bad = check_indeterminate_fraction(samples=5_000, tol=1e-2)
        assert not bad.passed

    def test_budget_abort_fails_checks_not_the_run(self, capsys):
        # at tol 1e-3 the mean-index runs abort: that is a failed check
        # (exit 3) and every other check still reports
        code, out, err = run_cli(
            capsys, "verify", "--samples", "2000", "--oracle-polys", "50", "--tol", "1e-3"
        )
        assert code == 3 and err == ""
        lines = out.splitlines()
        # the oracle checks compare too few pairs at 50 draws per order
        assert len(lines) == 12 and lines[-1] == "5/11 checks passed, 4 skipped"
        mean = [line for line in lines if "mean index" in line]
        assert mean and mean[0].startswith("[FAIL]")
        assert "aborted: indeterminate fraction" in mean[0]

    def test_budget_check_passes_at_the_abort_limit(self, monkeypatch):
        # exactly MAX_INDETERMINATE_FRACTION indeterminate: estimate accepts
        # such a run, so the budget check must pass it too
        from stabindex import verify
        from stabindex.montecarlo import MAX_INDETERMINATE_FRACTION, IndexHistogram

        def at_limit(cfg):
            indet = round(MAX_INDETERMINATE_FRACTION * cfg.samples)
            counts = np.zeros(cfg.family.n + 1, dtype=np.int64)
            counts[0] = cfg.samples - indet
            return IndexHistogram(cfg.family, counts, indet, cfg.samples, cfg.seed)

        monkeypatch.setattr(verify, "run_estimation", at_limit)
        result = verify.check_indeterminate_fraction(samples=10_000)
        assert result.passed, result
        assert result.detail.startswith("max fraction 1.00e-03")

    def test_shifted_scan_fails_oracle(self, monkeypatch):
        # negative control: the oracle check must catch a sign scan that
        # miscounts some rows
        from stabindex import verify

        real = verify.batch_indices

        def shifted(family, params, method, tol):
            codes = real(family, params, method, tol)
            if method == "rh":
                codes[::7] += codes[::7] >= 0  # every 7th determinate count off by one
            return codes

        monkeypatch.setattr(verify, "batch_indices", shifted)
        for kind in ("cont-eq", "disc-eq", "cont-sys", "disc-sys"):
            bad = verify.check_oracle(kind, per_degree=200)
            assert not bad.passed, kind
            assert int(bad.detail.split()[0]) > 0

    def test_shifted_histogram_fails_mean_index(self, monkeypatch):
        # negative control: 2% of each cont-eq n=4 index's samples moved up
        # one index shift the mean by 0.02, 1% of n/2, which leaves it 1.8
        # bounds off at 100k samples (index variance about 0.6); the bound
        # 4 sqrt(n/N) = 0.025, which assumed a variance of n, passed it
        from stabindex import verify
        from stabindex.models import ModelFamily
        from stabindex.montecarlo import IndexHistogram

        real = verify.run_estimation

        def shifted(cfg):
            hist = real(cfg)
            if cfg.family != ModelFamily("cont-eq", 4):
                return hist
            moved = hist.counts // 50
            moved[-1] = 0
            counts = hist.counts - moved
            counts[1:] += moved[:-1]
            return IndexHistogram(cfg.family, counts, hist.indeterminate, cfg.samples, cfg.seed)

        assert verify.check_mean_index(100_000).passed
        monkeypatch.setattr(verify, "run_estimation", shifted)
        bad = verify.check_mean_index(100_000)
        assert not bad.passed, bad
        assert bad.detail.startswith("worst cont-eq n=4:"), bad


def test_python_m_stabindex_runs_the_cli(capsys):
    """``python -m stabindex`` from a checkout prints what cli.main prints."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "stabindex", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    argv = ("convergence", "--family", "disc-eq", "--n", "2", "--k", "2", "--grid", "100,1000")
    proc = run_module(*argv)
    code, out, _ = run_cli(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out
    bad = run_module("estimate", "--family", "cont-eq", "--n", "0")
    assert bad.returncode == 1 and bad.stderr.startswith("error: ")


def test_parser_is_built_once_and_parses_as_a_fresh_one(capsys, monkeypatch):
    """main builds its parser on the first call only, and a usage error, an
    estimate and a convergence run through it print the same bytes and exit
    codes as through a parser built for each call."""
    calls = [
        ("estimate", "--family", "bogus", "--n", "3"),
        ("estimate", "--family", "cont-sys", "--n", "3", "--samples", "2000", "--format", "json"),
        ("convergence", "--family", "disc-eq", "--n", "2", "--k", "2", "--grid", "100,1000"),
    ]
    builds = []
    build = cli._parser.__wrapped__

    def counting_build():
        builds.append(None)
        return build()

    monkeypatch.setattr(cli, "_parser", functools.cache(counting_build))
    kept = [run_cli(capsys, *argv) for argv in calls]
    assert len(builds) == 1
    monkeypatch.setattr(cli, "_parser", build)
    fresh = [run_cli(capsys, *argv) for argv in calls]
    assert kept == fresh
    assert [code for code, _, _ in kept] == [cli.EXIT_USAGE, cli.EXIT_OK, cli.EXIT_OK]
    assert kept[0][2].startswith("error: argument --family")
