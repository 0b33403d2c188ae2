"""Command-line surface: outputs, formats, determinism, exit codes."""

import json

import numpy as np
import pytest

from stabindex import cli
from stabindex.montecarlo import IndexHistogram, ProbabilityVector
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

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate", "--family", "cont-eq", "--n", "4",
            "--samples", "5000", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        hist = IndexHistogram.from_json(json.dumps(payload["histogram"]))
        assert hist.samples == 5000
        freq = ProbabilityVector.from_json(json.dumps(payload["frequencies"]))
        assert abs(freq.values.sum() - 1.0) < 1e-9
        refined = ProbabilityVector.from_json(json.dumps(payload["refined"]))
        assert refined.source == "refined"
        exact = ProbabilityVector.from_json(json.dumps(payload["exact"]))
        assert np.isnan(exact.values[0])  # no closed form at order 4

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

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(
            capsys,
            "convergence", "--family", "disc-eq", "--n", "2", "--k", "2",
            "--grid", "10,abc",
        )
        assert code == 1


class TestVerify:
    def test_passing_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--samples", "5000", "--oracle-polys", "500"
        )
        assert code == 0
        assert out.count("[PASS]") == 9
        assert "9/9 checks passed" in out

    @pytest.mark.parametrize("flag", ["--samples", "--oracle-polys"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_size_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "verify", flag, value)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_bad_tol_is_usage_error(self, capsys, tol):
        code, out, err = run_cli(capsys, "verify", "--tol", tol)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "tol" in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli.verify_suite,
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
        good = check_quadrature()
        assert good.passed

    def test_sloppy_tolerance_fails_indeterminate_check(self):
        # negative control: a fat tolerance inflates boundary rejections
        from stabindex.verify import check_indeterminate_fraction

        bad = check_indeterminate_fraction(samples=5_000, tol=1e-2)
        assert not bad.passed
