"""Command-line surface: golden output schemas, exit codes, reproducibility."""

import csv
import io
import json
import math
import re
from pathlib import Path

import pytest

from ncfrac import ConstantsReport
from ncfrac.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_json_golden(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "2/3", "--n", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "expand"
        assert payload["config"] == {"x": "2/3", "n": 1, "max_terms": 10000, "format": "json"}
        (result,) = payload["results"]
        assert result["coeffs"] == [1, 2]
        assert result["terminated"] is True
        assert [(c["n"], c["A"], c["B"], c["ratio"]) for c in result["convergents"]] == [
            (1, 1, 1, "1/1"),
            (2, 2, 3, "2/3"),
        ]

    def test_zero_input(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "0/1", "--n", "4", "--format", "json")
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["coeffs"] == [] and result["terminated"] is True

    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "2/3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "A", "B", "ratio", "abs_error", "log10_abs_error"]
        assert len(rows) == 3

    def test_exact_convergent_has_null_log_error(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "2/3", "--format", "json")
        assert code == 0
        last = json.loads(out)["results"][0]["convergents"][-1]
        assert last["abs_error"] == 0.0 and last["log10_abs_error"] is None
        _, out, _ = run_cli(capsys, "expand", "2/3", "--format", "csv")
        assert out.splitlines()[-1] == "2,2,3,2/3,0.0,"

    def test_plain_output(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "2/3")
        assert code == 0
        assert "digits: 1 2" in out

    def test_malformed_fraction_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "expand", "2/0")
        assert code == 2 and "error:" in err

    def test_decimal_rejected(self, capsys):
        code, _, err = run_cli(capsys, "expand", "0.5")
        assert code == 2 and "error:" in err

    def test_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "expand", "3/2")
        assert code == 2


class TestConstants:
    def test_paper_scale_values_in_csv(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--n", "1..3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["N", "quantity", "value"]
        khinchin = {row[0]: float(row[2]) for row in rows[1:] if row[1] == "khinchin"}
        assert khinchin["1"] == pytest.approx(2.685452, abs=1e-5)
        assert khinchin["2"] == pytest.approx(5.412652, abs=1e-5)
        assert khinchin["3"] == pytest.approx(8.136460, abs=1e-5)

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--n", "2", "--r=-1,2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        (record,) = payload["results"]
        assert record["N"] == 2
        assert record["holder_mean[r=2]"] == "divergent"
        assert isinstance(record["holder_mean[r=-1]"], float)
        assert payload["config"] == {"n": "2", "r": "-1,2", "tol": 1e-12, "format": "json"}

    def test_large_index_limit(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--n", "1000000", "--format", "json")
        (record,) = json.loads(out)["results"]
        assert abs(record["khinchin"] / 1e6 - 2.718281828459045) < 1e-3

    def test_comma_list(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--n", "1,5", "--format", "json")
        assert [r["N"] for r in json.loads(out)["results"]] == [1, 5]

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--n", "0..2")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "0", "-1e-12", "inf"])
    def test_bad_tol_exits_2(self, capsys, tol):
        code, out, err = run_cli(capsys, "constants", f"--tol={tol}", "--format", "json")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("r", ["nan", "-inf", "-1,nan"])
    def test_non_finite_order_exits_2(self, capsys, r):
        code, out, err = run_cli(capsys, "constants", f"--r={r}", "--format", "json")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_infinite_order_is_divergent(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--r=inf", "--format", "json")
        assert code == 0
        (record,) = json.loads(out)["results"]
        assert record["holder_mean[r=inf]"] == "divergent"

    def test_plain_output_prints_plain_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--n", "2")
        assert code == 0 and "np.float64(" not in out
        record = ConstantsReport.compute(2, rs=(-1.0, 0.5, 1.0)).to_record()
        assert {type(value) for value in record.values()} == {int, float, str}

    @pytest.mark.filterwarnings("error")
    def test_index_beyond_squared_float_range(self, capsys):
        # N*N and k*(k+2) exceed the float range here, though every constant is finite
        code, out, err = run_cli(capsys, "constants", "--n", str(10**160), "--r=0.5",
                                 "--format", "json")
        assert code == 0 and err == ""
        (record,) = json.loads(out, parse_constant=_reject_constant)["results"]
        assert all(math.isfinite(value) for key, value in record.items() if key != "N")

    def test_underflowing_order_exits_2(self, capsys):
        # the series sum, about N**(r-1)/(1-r), is below the smallest normal double;
        # at 3000**-100 every digit weight k**r is zero as well
        for argv in (("--n", "3000", "--r=-100"), ("--n", str(10**200)),
                     ("--n", str(10**110), "--r=-2")):
            code, out, err = run_cli(capsys, "constants", *argv)
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1


    @pytest.mark.parametrize("r", ["1e-7", "1e-16", "-1e-20", "1e-320"])
    def test_order_too_close_to_zero_exits_2(self, capsys, r):
        # S**(1/r) would multiply the series' rounding by 1/|r|
        code, out, err = run_cli(capsys, "constants", "--n", "1,50", f"--r={r}")
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: holder_mean\[r=\S+\] at N = 1 is out of reach: "
                            r".*r = 0 is the geometric mean\n", err), err


class TestIndexBeyondFloatRange:
    BIG = str(10**400)

    @pytest.mark.parametrize("argv", [
        ("constants",),
        ("verify", "ulam", "--cells", "64"),
        ("verify", "bounds"),
        ("verify", "birkhoff", "--trials", "2"),
    ])
    def test_exits_2_without_traceback(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--n", self.BIG)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert f"index {self.BIG} " in err

    def test_exact_expansion_still_works(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "1/3", "--n", self.BIG)
        assert code == 0
        assert f"digits: {3 * 10**400}" in out


class TestIndexAtTopOfFloatRange:
    """Each command either reports finite strict JSON or names what overflowed.

    Exit 1 is a row failing its gate: no digit equal to N ~ 1e308 turns up, so
    the frequency rows read 0 against a target of about 1/N.
    """

    @pytest.mark.parametrize("N", [6 * 10**307, 10**308, 2**1024 - 2**971],
                             ids=["6e307", "1e308", "float-max"])
    @pytest.mark.parametrize("argv", [
        ("constants",),
        ("constants", "--r=0.5"),
        ("constants", "--r=-1e-300,0,2"),
        ("constants", "--r=0.999"),
        ("constants", "--r=0.999999"),
        ("verify", "birkhoff", "--trials", "3"),
        ("verify", "levy", "--trials", "3"),
        ("verify", "lyapunov", "--trials", "3"),
        ("verify", "frequencies", "--trials", "3"),
        ("verify", "bounds"),
        ("verify", "ulam", "--cells", "16"),
    ])
    def test_finite_output_or_named_overflow(self, capsys, argv, N):
        code, out, err = run_cli(capsys, *argv, "--n", str(N), "--format", "json")
        if code == 2:
            assert out == "" and err.count("\n") == 1
            assert re.fullmatch(rf"error: \S+ at N = {N} .*\n", err), err
            return
        assert err == ""
        results = json.loads(out, parse_constant=_reject_constant)["results"]
        assert code == (1 if any(row.get("pass") is False for row in results) else 0)
        for row in results:
            values = [v for v in row.values() if isinstance(v, float)]
            assert values and all(math.isfinite(v) for v in values), row


class TestVerify:
    def test_bounds_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "bounds", "--n", "1..10")
        assert code == 0
        assert "FAIL" not in out

    def test_ulam_suite_small_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ulam", "--n", "1", "--cells", "64",
                               "--format", "json")
        assert code == 0
        (row,) = json.loads(out)["results"]
        assert row["pass"] is True and row["value"] < 0.01

    def test_birkhoff_suite_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "birkhoff", "--n", "1", "--trials", "50", "--bits", "256",
            "--seed", "11", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["suite", "N", "quantity", "value", "target", "deviation",
                          "tolerance", "pass"]
        assert all(row[7] == "true" for row in rows[1:])

    def test_failed_estimate_exits_1(self, capsys):
        # 2 trials of 64-bit samples cannot hit 2%: deterministic failure fixture
        code, out, _ = run_cli(
            capsys, "verify", "birkhoff", "--n", "1", "--trials", "2", "--bits", "64",
            "--seed", "0",
        )
        assert code == 1
        assert "FAIL" in out

    def test_levy_suite_reports_floor(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "levy", "--n", "2", "--trials", "40", "--bits", "256",
            "--seed", "11", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["results"]
        quantities = {row["quantity"] for row in rows}
        assert quantities == {"denominator-growth", "denominator-growth[floor]"}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("N", [10**160, 10**300], ids=["1e160", "1e300"])
    def test_ulam_index_beyond_squared_float_range(self, capsys, N):
        # x*y in the psi tail overflows here, where the term it divides is below 1e-300
        code, out, err = run_cli(capsys, "verify", "ulam", "--n", str(N), "--cells", "16",
                                 "--format", "json")
        assert code == 0 and err == ""
        (row,) = json.loads(out, parse_constant=_reject_constant)["results"]
        assert row["pass"] is True

    def test_suite_choices(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--help"])
        assert info.value.code == 0
        assert "{birkhoff,levy,lyapunov,frequencies,bounds,ulam}" in capsys.readouterr().out

    def test_config_echo_is_every_flag_but_output(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "verify", "bounds", "--n", "1,2", "--format", "json",
                             "--output", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["config"] == {
            "suite": "bounds", "n": "1,2", "trials": 200, "bits": 512, "max_terms": 10000,
            "seed": 0, "cells": 512, "format": "json"}

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "entropy"])
        assert info.value.code == 2


def _reject_constant(token):
    raise ValueError(f"bare {token} is not JSON")


@pytest.mark.parametrize("argv", [
    ("expand", "2/3"),
    ("expand", "0/1", "--n", "4"),
    ("constants", "--n", "1..3", "--r=-1,0.5,1"),
    ("verify", "levy", "--n", "2", "--trials", "40", "--bits", "256", "--seed", "11"),
])
def test_json_output_is_strict(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    json.loads(out, parse_constant=_reject_constant)


DATA = Path(__file__).parent / "data"

# verify output at 96 bits (an odd number of 32-bit words per draw) and 512 bits,
# captured before the sampler read PCG64's raw words instead of Generator.bytes;
# the bounds and ulam entries were captured before the Monte Carlo suites became
# one table of observable requests
VERIFY_GOLDEN = json.loads((DATA / "verify_golden.json").read_text())
# exact CSV and plain text of a suite with floor rows and of the bounds suite,
# captured at the same point as the bounds and ulam JSON
VERIFY_TEXT_GOLDEN = json.loads((DATA / "verify_text_golden.json").read_text())


@pytest.mark.parametrize("command", sorted(VERIFY_GOLDEN))
def test_verify_json_golden(capsys, command):
    code, out, _ = run_cli(capsys, *command.split(), "--format", "json")
    assert code == VERIFY_GOLDEN[command]["exit"]
    assert json.loads(out) == VERIFY_GOLDEN[command]["output"]


@pytest.mark.parametrize("fmt", ["csv", "plain"])
@pytest.mark.parametrize("command", sorted(VERIFY_TEXT_GOLDEN))
def test_verify_text_golden(capsys, command, fmt):
    code, out, _ = run_cli(capsys, *command.split(), "--format", fmt)
    assert code == VERIFY_TEXT_GOLDEN[command]["exit"]
    assert out == VERIFY_TEXT_GOLDEN[command][fmt]


class TestReproducibility:
    def test_identical_runs_identical_bytes(self, capsys):
        args = ("verify", "lyapunov", "--n", "2", "--trials", "30", "--bits", "128",
                "--seed", "9", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "constants", "--n", "1", "--format", "json",
                               "--output", str(out_path))
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["command"] == "constants"

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "constants", "--n", "1", "--format", "json",
                                 "--output", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out_path.exists()

    def test_config_echo_carries_seed(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "lyapunov", "--n", "1", "--trials", "20",
                            "--bits", "128", "--seed", "123", "--format", "json")
        config = json.loads(out)["config"]
        assert config["seed"] == 123 and "threads" not in config
