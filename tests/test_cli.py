"""Command-line surface: golden output schemas, exit codes, reproducibility."""

import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncfrac import ConstantsReport, ergodic, holder_mean, ulam
from ncfrac import cli
from ncfrac.cli import MAX_INDICES, _render_json, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# fractions built as strings, so that no int is converted: at N = 7 the first
# convergent's denominator 14 * 10**4299 has 4301 digits, one past int()'s
# default limit of 4300, and the second fraction is past it in both its parts
_LONG_DENOMINATOR = "1/2" + "0" * 4299
_LONG_FRACTION = "3" * 4400 + "/1" + "0" * 4400


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
        code, out, err = run_cli(capsys, "expand", "a/b")
        assert (code, out) == (2, "")
        assert err == "error: expected an exact fraction like 2/3, got 'a/b'\n"

    def test_decimal_rejected(self, capsys):
        code, _, err = run_cli(capsys, "expand", "0.5")
        assert code == 2 and "error:" in err

    def test_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "expand", "3/2")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_convergent_past_the_int_digit_limit(self, capsys, fmt):
        code, out, err = run_cli(capsys, "expand", _LONG_DENOMINATOR, "--n", "7", "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            (result,) = json.loads(out, parse_int=str, parse_constant=_reject_constant)["results"]
            first = result["convergents"][0]["B"]
        elif fmt == "csv":
            first = next(csv.DictReader(io.StringIO(out)))["B"]
        else:
            first = next(line for line in out.splitlines() if line.split()[:1] == ["1"]).split()[2]
        assert first == "14" + "0" * 4299

    def test_fraction_past_the_int_digit_limit(self, capsys):
        code, out, err = run_cli(capsys, "expand", _LONG_FRACTION, "--n", "1", "--format", "json")
        assert (code, err) == (0, "")
        (result,) = json.loads(out, parse_int=str)["results"]
        assert result["terminated"] and result["convergents"][-1]["ratio"] == _LONG_FRACTION


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() has no digit limit before Python 3.10.7")
@pytest.mark.parametrize("argv, code", [
    (["expand", _LONG_DENOMINATOR, "--n", "7"], 0),
    (["expand", "1/0"], 2),
    (["expand", "1/2", "--n", "x"], "usage"),
], ids=["exit-0", "exit-2", "usage-error"])
def test_main_restores_the_int_digit_limit(capsys, argv, code):
    limit = sys.get_int_max_str_digits()
    if code == "usage":
        with pytest.raises(SystemExit):
            main(argv)
    else:
        assert main(argv) == code
    assert sys.get_int_max_str_digits() == limit


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
        assert payload["config"] == {"n": "2", "r": "-1,2", "format": "json"}

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

    @pytest.mark.parametrize("command", ["constants", "verify levy"])
    @pytest.mark.parametrize("n, count", [("1..100000000", 10**8),
                                          ("1.." + "9" * 308, 10**308 - 1)],
                             ids=["1e8", "308-digits"])
    def test_too_many_indices_name_the_flag_and_count(self, capsys, command, n, count):
        # refused from the ranges' ends, before a list of indices is built
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *command.split(), "--n", n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == f"error: --n names {count} indices, more than the {MAX_INDICES} allowed\n"
        assert peak < 1 << 20

    def test_index_limit_counts_every_chunk(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_INDICES", 3)
        assert run_cli(capsys, "constants", "--n", "1..2,5")[0] == 0
        assert run_cli(capsys, "constants", "--n", "1..2,3,4") == (
            2, "", "error: --n names 4 indices, more than the 3 allowed\n")

    @pytest.mark.parametrize("command", ["constants", "verify levy"])
    @pytest.mark.parametrize("n", ["0", "2..1", "2..1,3", "3,5..4", "1.5", "abc", "1..",
                                   "1,,2", "1..3,x",
                                   pytest.param("2" * 5000 + ".." + "1" * 5000,
                                                id="long-empty-range")])
    def test_bad_indices_name_the_flag(self, capsys, command, n):
        code, out, err = run_cli(capsys, *command.split(), "--n", n)
        assert (code, out) == (2, "")
        assert err == f"error: indices must be integers >= 1, got {n!r}\n"

    @pytest.mark.parametrize("command", ["constants", "verify levy"])
    @pytest.mark.parametrize("n, top", [("1" * 5000, "1" * 5000),
                                        ("1.." + "7" * 5000, "7" * 5000),
                                        ("+1.." + "7" * 5000, "7" * 5000)],
                             ids=["index", "range", "signed-range"])
    def test_index_past_the_int_digit_limit_names_the_float_range(self, capsys, command, n, top):
        # past int()'s default limit of 4300 digits the message still names the value
        code, out, err = run_cli(capsys, *command.split(), "--n", n)
        assert (code, out) == (2, "")
        assert err == f"error: index {top} is beyond the float range\n"

    @pytest.mark.parametrize("command", ["constants", "verify bounds"])
    def test_index_past_the_int_digit_limit_reads_its_value(self, capsys, command):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        assert run_cli(capsys, *command.split(), "--n", "0" * 5000 + "5") == run_cli(
            capsys, *command.split(), "--n", "5")
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit  # restored

    @pytest.mark.parametrize("r", ["abc", "1,,2", "0.5,x"])
    def test_bad_orders_name_the_flag(self, capsys, r):
        code, out, err = run_cli(capsys, "constants", f"--r={r}")
        assert (code, out) == (2, "")
        assert err == f"error: orders must be numbers, got {r!r}\n"

    @pytest.mark.parametrize("r", ["nan", "-inf", "-1,nan"])
    def test_non_finite_order_exits_2(self, capsys, r):
        code, out, err = run_cli(capsys, "constants", f"--r={r}", "--format", "json")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_orders_equal_to_six_digits_keep_their_own_keys(self, capsys):
        # f"{r:g}" prints both orders as 0.5; the second is labelled by its repr
        code, out, _ = run_cli(capsys, "constants", "--n", "2", "--r=0.5,0.5000001",
                               "--format", "json")
        assert code == 0
        (record,) = json.loads(out)["results"]
        assert record["holder_mean[r=0.5]"] == holder_mean(2, 0.5)
        assert record["holder_mean[r=0.5000001]"] == holder_mean(2, 0.5000001)
        assert record["holder_mean[r=0.5]"] != record["holder_mean[r=0.5000001]"]
        assert "holder[r=0.5]_terms" in record and "holder[r=0.5000001]_terms" in record

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
    def test_finite_output_or_named_overflow(self, capsys, monkeypatch, argv, N):
        draws = []
        sample_pairs = ergodic._sample_pairs

        def counting(cfg, trials):
            for pair in sample_pairs(cfg, trials):
                draws.append(pair)
                yield pair

        monkeypatch.setattr("ncfrac.ergodic._sample_pairs", counting)
        code, out, err = run_cli(capsys, *argv, "--n", str(N), "--format", "json")
        if code == 2:
            assert out == "" and err.count("\n") == 1
            assert re.fullmatch(rf"error: \S+ at N = {N} .*\n", err), err
            assert draws == [], "the overflowing target was reached only after sampling"
            return
        assert err == ""
        results = json.loads(out, parse_constant=_reject_constant)["results"]
        assert code == (1 if any(row.get("pass") is False for row in results) else 0)
        for row in results:
            values = [v for v in row.values() if isinstance(v, float)]
            assert values and all(math.isfinite(v) for v in values), row

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_every_check_runs_before_the_first_byte(self, capsys, tmp_path, fmt):
        # the index that overflows is the second; N = 1's record is not written
        # ahead of its check, to stdout or to --output
        N = 2**1024 - 2**971
        message = f"error: khinchin at N = {N} is beyond the float range\n"
        argv = ("constants", "--n", f"1,{N}", "--r=2", "--format", fmt)
        assert run_cli(capsys, *argv) == (2, "", message)
        out_path = tmp_path / "report"
        assert run_cli(capsys, *argv, "--output", str(out_path)) == (2, "", message)
        assert not out_path.exists()


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_constants_writes_one_record_at_a_time(fmt):
    # each record is made, rendered and written before the next, so the traced
    # peak at 3000 indices is the summed series; holding every record and the
    # joined text took 12.8 (json), 26.7 (csv) and 19.3 MiB (plain)
    argv = ["constants", "--n", "1..3000", "--r=-1,-0.5,0.5,0.9", "--format", fmt]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv[:1] + ["--format", fmt]) == 0  # one-time caches and imports
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and peak < 5 << 20, peak


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_expand_writes_one_convergent_at_a_time(fmt):
    # each convergent is made, rendered and written before the next, so the
    # traced peak of a 3000-bit fraction's 1,700 or so convergents is about one
    # row; holding every row took 3.2 MiB in each format, and the tables held
    # whole 25.3 (csv) and 12.5 MiB (plain)
    rng = random.Random(1)
    q = rng.getrandbits(3000) | 1 << 2999
    x = f"{rng.randrange(1, q)}/{q}"
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(["expand", "2/3", "--format", fmt]) == 0  # one-time imports
        tracemalloc.start()
        try:
            code = main(["expand", x, "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and peak < 1 << 20, peak


def test_verify_csv_writes_one_row_at_a_time():
    # a header piece, then one piece per check, joined as the whole table was
    rows = [cli._row("bounds", n, "bound-identity", 0.5 * n, 0.0, 1e-12, 0.5 * n)
            for n in range(1, 4)]
    pieces = list(cli._render_csv("verify", rows))
    assert len(pieces) == 1 + len(rows)
    assert "".join(pieces) == (
        "suite,N,quantity,value,target,deviation,tolerance,pass\r\n"
        + "".join(f"bounds,{n},bound-identity,{0.5 * n!r},0.0,{0.5 * n!r},1e-12,false\r\n"
                  for n in range(1, 4)))


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

    def test_ulam_row_at_its_tolerance_passes(self, capsys, monkeypatch):
        monkeypatch.setattr("ncfrac.ulam.build_model",
                            lambda n, m: ulam.UlamModel(n, m, np.full(m, 1 / m), 0.01, 1))
        code, out, _ = run_cli(capsys, "verify", "ulam", "--n", "1", "--cells", "16",
                               "--format", "json")
        (row,) = json.loads(out)["results"]
        assert (code, row["deviation"], row["tolerance"], row["pass"]) == (0, 0.01, 0.01, True)

    @pytest.mark.parametrize("rate, bound, passed", [
        (0.0, 0.01, True),
        (0.0, math.nextafter(0.01, 1.0), False),
        # bound - rate rounds above 0.01, though rate >= bound - 0.01 holds
        (0.25, 0.26, False),
    ])
    def test_floor_row_passes_within_its_tolerance(self, capsys, monkeypatch, rate, bound,
                                                    passed):
        report = ergodic.EstimateReport("denominator-growth", 1.0, 1.0, extras={
            "min_rate": rate, "denominator_bound": bound})
        monkeypatch.setattr("ncfrac.ergodic.orbit_estimates", lambda cfg, requests: [report])
        code, out, _ = run_cli(capsys, "verify", "levy", "--format", "json")
        growth, floor = json.loads(out)["results"]
        assert growth["pass"] is True
        assert (floor["quantity"], floor["deviation"]) == (
            "denominator-growth[floor]", max(0.0, bound - rate))
        assert (floor["pass"], code) == (passed, 0 if passed else 1)

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "levy", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("cells, message", [
        ("15", "need at least 16 cells, got 15"),
        ("4096", "grids beyond 2048 cells are not supported, got 4096"),
    ])
    def test_grid_size_out_of_range_exits_2(self, capsys, cells, message):
        code, out, err = run_cli(capsys, "verify", "ulam", "--n", "1", "--cells", cells)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("N", [10**160, 10**300], ids=["1e160", "1e300"])
    def test_ulam_index_beyond_squared_float_range(self, capsys, N):
        # x*y in the psi tail overflows here, where the term it divides is below 1e-300
        code, out, err = run_cli(capsys, "verify", "ulam", "--n", str(N), "--cells", "16",
                                 "--format", "json")
        assert code == 0 and err == ""
        (row,) = json.loads(out, parse_constant=_reject_constant)["results"]
        assert row["pass"] is True

    def test_ulam_index_beyond_float_range_names_the_row(self, capsys):
        N = 10**308  # N*m is beyond the float range at 2048 cells
        code, out, err = run_cli(capsys, "verify", "ulam", "--n", str(N), "--cells", "2048")
        assert code == 2 and out == ""
        assert err == f"error: density-l1[m=2048] at N = {N} is beyond the float range\n"

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


@pytest.mark.parametrize("argv, code, err", [
    # a prefix may be empty: expand owns max_terms >= 0
    (("expand", "2/3", "--max-terms", "0"), 0, ""),
    # an orbit average needs a digit: SampleConfig owns max_terms >= 1
    (("verify", "levy", "--max-terms", "0"), 2, "error: max_terms must be >= 1, got 0\n"),
])
def test_max_terms_zero_is_each_consumers_rule(capsys, argv, code, err):
    got_code, out, got_err = run_cli(capsys, *argv, "--format", "json")
    assert (got_code, got_err) == (code, err)
    if code == 0:
        (result,) = json.loads(out)["results"]
        assert result["coeffs"] == [] and result["convergents"] == []


_FLOAT_MAX = int(sys.float_info.max)
# small indices most often; then edges of the float range, and 400-digit values
_int_values = st.one_of(
    st.integers(1, 20), st.integers(1, 10**4),
    st.sampled_from([-2, -1, 0, 2**53 - 1, 2**53 + 1, 10**308, _FLOAT_MAX - 1, _FLOAT_MAX]),
    st.sampled_from([_FLOAT_MAX + 1, 10**309]) | st.integers(10**399, 10**400 - 1))


@st.composite
def _int_text(draw):
    """An integer as int() reads it (signs, an underscore, spaces, leading zeros), or not."""
    value = draw(_int_values)
    text = str(value)
    style = draw(st.sampled_from(["plain", "plain", "sign", "underscore", "spaces", "zeros",
                                  "bad"]))
    if style == "sign" and value >= 0:
        text = "+" + text
    elif style == "underscore" and len(text) > 1:
        cut = draw(st.integers(1, len(text) - 1))
        text = text[:cut] + "_" + text[cut:]
    elif style == "spaces":
        text = f" {text} "
    elif style == "zeros":
        text = text.replace("-", "-00") if value < 0 else "00" + text
    elif style == "bad":
        text = draw(st.sampled_from(["", "x", "1.5", "1e3", "_1", "1__0", "0x10", "١"]))
    return text


@st.composite
def _index_text(draw):
    """A --n value naming at most 3 indices: one range, or up to 3 indices and
    ranges of at most one index, comma-separated."""
    if draw(st.booleans()):
        lo = draw(_int_values)
        return f"{lo}..{lo + draw(st.integers(-1, 2))}"
    chunks = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            chunks.append(draw(_int_text()))
        else:
            lo = draw(_int_values)
            chunks.append(f"{lo}..{lo + draw(st.integers(-1, 0))}")
    return ",".join(chunks)


def _flag(name, valid, invalid):
    """[] or [name, value], the value three times as often valid as not."""
    values = st.sampled_from(valid) | st.sampled_from(valid) | st.sampled_from(valid)
    return st.just([]) | (values | st.sampled_from(invalid)).map(lambda v: [name, str(v)])


_orders = st.lists(st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e308", "5e-324",
                                    "0.9999999999999999", "-1", "0.5", "0", "-0", "2", "x", ""]),
                   min_size=1, max_size=3).map(",".join)
_fractions = (st.builds("{}/{}".format, _int_values | st.integers(-5, 5),
                        _int_values | st.integers(-5, 5))
              | st.sampled_from(["0.5", "1/2.0", "1//2", "", "2/3/4", "1/0", "1/-2"]))


@st.composite
def _argv(draw):
    """One command line at small work sizes: trials <= 3, bits <= 128, cells <= 64."""
    command = draw(st.sampled_from(["expand", "constants", "verify"]))
    if command == "expand":
        argv = ["expand", draw(_fractions)]
        argv += draw(st.just([]) | _int_text().map(lambda n: [f"--n={n}"]))
        argv += draw(_flag("--max-terms", [0, 1, 2, 10000], [-1, "1.5"]))
    elif command == "constants":
        argv = ["constants", f"--n={draw(_index_text())}"]
        argv += draw(st.just([]) | _orders.map(lambda r: [f"--r={r}"]))
    else:
        argv = ["verify", draw(st.sampled_from(sorted(cli.SUITES))), f"--n={draw(_index_text())}",
                "--trials", draw(st.sampled_from(["1", "2", "3", "1", "2", "3", "0", "-1"])),
                "--bits", draw(st.sampled_from(["64", "65", "96", "128"] * 2 + ["63", "0"]))]
        argv += draw(_flag("--cells", [16, 17, 64], [-1, 0, 15, 2049]))
        argv += draw(_flag("--seed", [0, 1, 2**32, 2**64 - 1, 2**64, 2**128], [-1, "x"]))
        argv += draw(_flag("--max-terms", [1, 2, 10000], [-1, 0]))
    return argv + ["--format", "json"]


@settings(max_examples=100, deadline=None)
@given(_argv())
@example(["constants", "--n=1,2", "--r=nan", "--format", "json"])
@example(["constants", "--n=3", "--r=inf,-inf,1e400", "--format", "json"])
@example(["constants", "--n=1", "--r=-1e308,5e-324,0.9999999999999999", "--format", "json"])
@example(["constants", f"--n={_FLOAT_MAX}", "--r=-1,0.5", "--format", "json"])
@example(["constants", f"--n={10**399}..{10**399 + 1}", "--format", "json"])
@example(["expand", "2/-3", "--format", "json"])
@example(["expand", _LONG_DENOMINATOR, "--n=7", "--format", "json"])
@example(["expand", _LONG_FRACTION, "--format", "json"])
@example(["expand", "2/3", "--n= +1_0 ", "--max-terms", "0", "--format", "json"])
@example(["verify", "levy", f"--n={_FLOAT_MAX}", "--trials", "3", "--bits", "64", "--format",
          "json"])
@example(["verify", "ulam", "--n=1..3", "--cells", "16", "--trials", "1", "--bits", "64",
          "--format", "json"])
def test_every_argv_exits_0_1_or_2_without_a_traceback(argv):
    # in-process: exit 2 ends stderr with an error line and writes no stdout;
    # exit 0 or 1 writes one strict JSON document
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    if code == 2:
        assert re.match(r"(ncfrac( \w+)?: )?error: ", err.getvalue().splitlines()[-1])
        assert out.getvalue() == ""
    else:  # its ints may be past int()'s digit limit, which main() lifts only for the run
        json.loads(out.getvalue(), parse_int=str, parse_constant=_reject_constant)


_json_text = st.text(st.characters() | st.sampled_from("\n\r\t\x00\x1f\x7f\u2028é€😀"),
                     max_size=6)
_json_scalars = (st.none() | st.booleans() | st.floats() | st.floats().map(np.float64)
                 | st.integers(min_value=-2**200, max_value=2**200) | _json_text)
_json_trees = st.recursive(_json_scalars, lambda children: (
    st.lists(children, max_size=4) | st.dictionaries(_json_text, children, max_size=4)
    | st.dictionaries(st.integers(min_value=-2**70, max_value=2**70), children, max_size=4)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_json_trees)
@example([0])
@example({"": {}, "a": [[], [1]], "b": None})
@example({-1: ["\n"], 10: {3: True}, 9: 0.5})
@example({True: [0], 2.5: {"a": []}, 3: 1})
@example([{False: [None]}, ({"x": (1, [2])},)])
def test_render_json_matches_the_stdlib_encoder(tree):
    # nan and +-inf, numpy floats, big ints, control and non-ASCII characters,
    # empty and nested containers, bool and float keys spelled as json spells
    # them, tuples: byte for byte what json.dumps writes
    assert "".join(_render_json(tree)) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


# a bounds row: its depth keys are ints and its Cesaro deviations a nested object
_BOUNDS_ROW = {"suite": "bounds", "N": 2, "quantity": "lyapunov-bound", "value": 1.7627471740390859,
               "cesaro_deviation_by_depth": {10: 0.0125, 100: 0.00125, 200: 0.000625},
               "pass": True}


@settings(max_examples=100, deadline=None)
@given(st.lists(_json_trees, max_size=4))
@example([])
@example([{"N": 1, "khinchin": 2.6854520010653064, "holder_mean[r=2]": "divergent"}])
@example([_BOUNDS_ROW, {"nested": [[], [1, {"a": [2]}]]}, [_BOUNDS_ROW]])
def test_render_json_streams_a_generator_byte_for_byte(results):
    # `results` read one item at a time, as constants writes its records, and
    # each item one chunk: byte for byte what json.dumps writes of the list
    doc = {"command": "constants", "config": {"format": "json", "n": "1..3"},
           "results": results}
    chunks = list(_render_json(dict(doc, results=(item for item in results))))
    assert "".join(chunks) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert len(chunks) == len(list(_render_json(dict(doc, results=[])))) + len(results)


def test_render_json_streams_a_list_item_by_item():
    # expand's one result holds every convergent: joined into one chunk, the
    # whole document was held as text, which raised the peak RSS of a 6000-bit
    # expansion's JSON from 40 to 66 MB
    doc = {"results": [{"convergents": [{"n": n, "A": [n]} for n in range(3)]}]}
    chunks = list(_render_json(doc))
    assert "".join(chunks) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert [chunk.count('"n"') for chunk in chunks].count(1) == 3


DATA = Path(__file__).parent / "data"


def _int_keys(pairs) -> dict:
    # JSON spells the bounds rows' int depth keys as strings; read back as ints,
    # they sort as they did in the document the CLI encoded
    return {int(key) if key.isdecimal() else key: value for key, value in pairs}


# verify output at 96 bits (an odd number of 32-bit words per draw) and 512 bits.
# The nine Monte Carlo entries, the truncated levy one among them (every other
# orbit there terminates, so it alone runs the rho recursion), were captured
# again once trial t read the stream of PCG64(seed).jumped(t): that moved every
# sampled value and, at five trials, the pass or fail of some rows.  The bounds
# entry was captured before the Monte Carlo suites became one table of
# observable requests, and the ulam entry once the stationary solve ran on the
# compact operator, which moved its two L1 errors in the last digits; the
# 2048-cell and 100-cell ulam entries were added before the psi tails shared
# their edge powers and cut their series per term; the 100-cell entry was
# captured again once every grid took the series at its own cell edges, which
# moved its three L1 errors in the last digits and no iteration count
VERIFY_GOLDEN = json.loads((DATA / "verify_golden.json").read_text(),
                           object_pairs_hook=_int_keys)
# exact CSV and plain text of a suite with floor rows and of the bounds suite,
# captured at the same point as the bounds and ulam JSON; the levy entry was
# captured again with the Monte Carlo JSON
VERIFY_TEXT_GOLDEN = json.loads((DATA / "verify_text_golden.json").read_text())


@pytest.mark.parametrize("command", sorted(VERIFY_GOLDEN))
def test_verify_json_golden(capsys, command):
    code, out, _ = run_cli(capsys, *command.split(), "--format", "json")
    assert code == VERIFY_GOLDEN[command]["exit"]
    assert json.loads(out, object_pairs_hook=_int_keys) == VERIFY_GOLDEN[command]["output"]
    # the bytes too: the stdlib's own indent=2 encoder is the reference
    assert out == json.dumps(VERIFY_GOLDEN[command]["output"], sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("command", sorted(VERIFY_GOLDEN))
def test_verify_golden_rows_follow_the_pass_rule(command):
    # a row passes exactly when its deviation is finite and within its tolerance,
    # and the command exits 1 exactly when a row fails
    golden = VERIFY_GOLDEN[command]
    rows = golden["output"]["results"]
    for row in rows:
        deviation = row["deviation"]
        assert row["pass"] == (math.isfinite(deviation) and deviation <= row["tolerance"]), row
    assert golden["exit"] == (0 if all(row["pass"] for row in rows) else 1)


@pytest.mark.parametrize("fmt", ["csv", "plain"])
@pytest.mark.parametrize("command", sorted(VERIFY_TEXT_GOLDEN))
def test_verify_text_golden(capsys, command, fmt):
    code, out, _ = run_cli(capsys, *command.split(), "--format", fmt)
    assert code == VERIFY_TEXT_GOLDEN[command]["exit"]
    assert out == VERIFY_TEXT_GOLDEN[command][fmt]


# constants stdout in every format, captured before the digit-mean series were
# summed in whole arrays per anchor; outputs over 64 KiB are kept as a sha256
CONSTANTS_GOLDEN = json.loads((DATA / "constants_golden.json").read_text())


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
@pytest.mark.parametrize("command", sorted(CONSTANTS_GOLDEN), ids=lambda command: re.sub(
    r"\d{16,}", lambda digits: f"<{len(digits[0])} digits>", command))
def test_constants_golden(capsys, command, fmt):
    golden = CONSTANTS_GOLDEN[command]
    code, out, err = run_cli(capsys, "constants", *command.split(), "--format", fmt)
    assert (code, err) == (golden["exit"], golden["stderr"])
    if isinstance(golden[fmt], dict):
        assert hashlib.sha256(out.encode()).hexdigest() == golden[fmt]["sha256"]
    else:
        assert out == golden[fmt]


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


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def _cli_env() -> dict:
    """The environment with the package under test first on PYTHONPATH."""
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _cli_process(argv, stdout) -> subprocess.Popen:
    """`python -m ncfrac.cli argv` on the package under test, its stderr piped."""
    return subprocess.Popen([sys.executable, "-m", "ncfrac.cli", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=_cli_env())


@pytest.mark.parametrize("argv", [["expand", "2/3", "--n", "2", "--format", "json"],
                                  ["verify", "bounds", "--n", "1..3,1000", "--format", "json"]],
                         ids=["expand", "bounds"])
def test_exact_commands_run_without_numpy(argv):
    # with sys.modules["numpy"] = None any numpy import raises ImportError, so
    # the exact commands must reach their bytes on integers and math alone
    run = "import sys, ncfrac.cli; sys.exit(ncfrac.cli.main(sys.argv[1:]))"
    plain, blocked = (subprocess.run([sys.executable, "-c", prelude + run, *argv],
                                     capture_output=True, env=_cli_env(), timeout=120)
                      for prelude in ("", "import sys; sys.modules['numpy'] = None; "))
    assert plain.returncode == 0, plain.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == plain.stdout


class TestWriteErrors:
    """A write error on stdout exits 2 with one error line, as one on --output
    does, and the interpreter's flush at exit adds nothing to stderr."""

    def test_broken_stdout_stream_exits_2(self):
        err = io.StringIO()
        with contextlib.redirect_stdout(_BrokenPipe()), contextlib.redirect_stderr(err):
            code = main(["verify", "bounds", "--n", "1", "--format", "json"])
        assert code == 2 and re.fullmatch(r"error: [^\n]*Broken pipe\n", err.getvalue())

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("argv", [["verify", "bounds", "--n", "1"],
                                      ["constants", "--n", "1..3000", "--format", "json"]],
                             ids=["small", "large"])
    def test_full_device_exits_2_with_one_line(self, argv):
        with open("/dev/full", "w") as full, _cli_process(argv, full) as process:
            _, err = process.communicate(timeout=120)
        assert process.returncode == 2 and re.fullmatch(r"error: [^\n]*\n", err.decode()), err

    def test_closed_pipe_exits_2_with_one_line(self):
        argv = ["verify", "bounds", "--n", "1..200", "--format", "json"]
        with _cli_process(argv, subprocess.PIPE) as process:
            assert len(process.stdout.read(10)) == 10
            process.stdout.close()
            _, err = process.communicate(timeout=120)
        assert process.returncode == 2 and re.fullmatch(r"error: [^\n]*\n", err.decode()), err
