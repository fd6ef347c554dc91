"""Command-line surface: `ncfrac expand|constants|verify`.

Non-interactive by design: every subcommand emits a machine-readable report
(JSON echoing every flag but --output, CSV rows, or a plain-text table) and
the exit status tells scripts what happened: 0 success / all checks passed,
1 a verification check failed its tolerance, 2 usage or input error.

Fractions are accepted only as exact "p/q" strings, never as decimals, so
the exact-arithmetic guarantee holds end to end.  Runs are reproducible:
the same flags (including --seed) produce byte-identical JSON/CSV.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from . import __version__, constants, ergodic, ulam
from .convergents import convergent_sequence
from .dynamics import DEFAULT_MAX_TERMS, expand

#: Per-suite pass tolerances (relative unless noted); fixed, not flags.
TOLERANCES = {
    "birkhoff": 0.02,
    "lyapunov": 0.02,
    "levy": 0.02,
    "frequencies": 0.02,
    "bounds": 1e-3,          # absolute, at depth 200
    "bounds-identity": 1e-12,  # absolute
    "levy-floor": 0.01,      # absolute slack on the denominator lower bound
    "ulam": 0.01,            # absolute L1 error
}

#: The observable requests of each Monte Carlo suite at index n, in row order
#: (see ergodic.orbit_estimates); bounds and ulam check exact orbits and the grid.
ORBIT_REQUESTS = {
    "birkhoff": lambda n: [("log-digit", None), ("digit-indicator", None)],
    "levy": lambda n: [("denominator-growth", None)],
    "lyapunov": lambda n: [("log-derivative", None)],
    "frequencies": lambda n: [("digit-indicator", m) for m in range(n, n + 3)],
}

SUITES = (*ORBIT_REQUESTS, "bounds", "ulam")


def _parse_fraction(text: str) -> Fraction:
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"expected an exact fraction like 2/3, got {text!r}")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"expected an exact fraction like 2/3, got {text!r}") from None
    if q <= 0:
        raise ValueError(f"denominator must be positive, got {text!r}")
    return Fraction(p, q)


def _parse_n_values(text: str) -> list[int]:
    """Accept "3", "1..5" and "1,2,5"; the constants and verify suites need float(N)."""
    out: list[int] = []
    for chunk in text.split(","):
        lo, dots, hi = chunk.strip().partition("..")
        values = range(int(lo), int(hi if dots else lo) + 1)
        if values and values[-1] > sys.float_info.max:
            raise ValueError(f"index {values[-1]} is beyond the float range")
        out.extend(values)
    if not out or any(n < 1 for n in out):
        raise ValueError(f"indices must be integers >= 1, got {text!r}")
    return out


def _fraction_log10(value: Fraction) -> Optional[float]:
    """log10 of a non-negative fraction; None (JSON null) for an exact zero."""
    if value == 0:
        return None
    return (math.log(value.numerator) - math.log(value.denominator)) / math.log(10)


# --------------------------------------------------------------------------
# subcommands: each returns (results, exit_code)


def _cmd_expand(args) -> tuple[list[dict], int]:
    x = _parse_fraction(args.x)
    expansion = expand(x, args.n, args.max_terms)
    result: dict = {
        "x": args.x,
        "N": args.n,
        "coeffs": list(expansion.coeffs),
        "terminated": expansion.terminated,
        "convergents": [],
    }
    if expansion.coeffs:
        trace = convergent_sequence(expansion.coeffs, args.n)
        for conv in trace.convergents[1:]:
            ratio = conv.ratio()
            err = abs(x - ratio)
            result["convergents"].append(
                {
                    "n": conv.n,
                    "A": conv.A,
                    "B": conv.B,
                    "ratio": f"{ratio.numerator}/{ratio.denominator}",
                    "abs_error": float(err),
                    "log10_abs_error": _fraction_log10(err),
                }
            )
    return [result], 0


def _cmd_constants(args) -> tuple[list[dict], int]:
    reports = constants.ConstantsReport.compute_many(
        _parse_n_values(args.n), [float(chunk) for chunk in args.r.split(",")], args.tol)
    return [report.to_record() for report in reports], 0


def _row(suite: str, n: int, quantity: str, value, target, tolerance: float, deviation,
         passed: bool, **extras) -> dict:
    """One verify row: the eight keys every suite reports, then its own extras."""
    return {"suite": suite, "N": n, "quantity": quantity, "value": value, "target": target,
            "tolerance": tolerance, "deviation": deviation, "pass": passed, **extras}


def _check(suite: str, n: int, report: ergodic.EstimateReport, tolerance: float,
           absolute: bool = False) -> dict:
    deviation = report.abs_deviation if absolute else report.rel_deviation
    return _row(suite, n, tolerance=tolerance, deviation=deviation,
                passed=bool(math.isfinite(deviation) and deviation <= tolerance),
                **report.to_record())


def _suite_orbits(suite: str, ns, args) -> list[dict]:
    """The suite's rows from one ergodic.orbit_estimates call per index.

    Every denominator-growth report is followed by its floor row: the
    slowest trial's rate against the worst-case denominator bound.
    """
    rows = []
    for n in ns:
        cfg = ergodic.SampleConfig(N=n, trials=args.trials, denominator_bits=args.bits,
                                   max_terms=args.max_terms, seed=args.seed)
        for report in ergodic.orbit_estimates(cfg, ORBIT_REQUESTS[suite](n)):
            rows.append(_check(suite, n, report, TOLERANCES[suite]))
            if report.quantity == "denominator-growth":
                rate, bound = report.extras["min_rate"], report.extras["denominator_bound"]
                rows.append(_row(suite, n, "denominator-growth[floor]", rate, bound,
                                 TOLERANCES["levy-floor"], max(0.0, bound - rate),
                                 rate >= bound - TOLERANCES["levy-floor"]))
    return rows


def _suite_bounds(ns) -> list[dict]:
    rows = []
    for n in ns:
        lyap_bound, denom_bound = constants.lower_bounds(n)
        identity_gap = abs(2.0 * denom_bound - math.log(n) - lyap_bound)
        rows.append(_row("bounds", n, "bound-identity", identity_gap, 0.0,
                         TOLERANCES["bounds-identity"], identity_gap,
                         identity_gap <= TOLERANCES["bounds-identity"]))
        for report in ergodic.bound_achievement(n, depth=200):
            rows.append(_check("bounds", n, report, TOLERANCES["bounds"], absolute=True))
    return rows


def _ulam_row(n: int, cells: int) -> dict:
    """One grid check; its m-by-m model is freed before the next index builds one."""
    model = ulam.build_model(n, cells)
    return _row("ulam", n, f"density-l1[m={cells}]", model.l1_error, 0.0, TOLERANCES["ulam"],
                model.l1_error, model.l1_error < TOLERANCES["ulam"], iterations=model.iterations)


def _cmd_verify(args) -> tuple[list[dict], int]:
    ns = _parse_n_values(args.n)
    if args.suite == "bounds":
        rows = _suite_bounds(ns)
    elif args.suite == "ulam":
        rows = [_ulam_row(n, args.cells) for n in ns]
    else:
        rows = _suite_orbits(args.suite, ns, args)
    return rows, 1 if any(not row["pass"] for row in rows) else 0


# --------------------------------------------------------------------------
# output rendering


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_csv(command: str, results: list[dict]) -> str:
    """A header row, then one row per convergent, (N, quantity) pair or verify check."""
    if command == "expand":
        header = ["n", "A", "B", "ratio", "abs_error", "log10_abs_error"]
        rows = [conv for result in results for conv in result["convergents"]]
    elif command == "constants":
        header = ["N", "quantity", "value"]
        rows = [{"N": record["N"], "quantity": key, "value": value}
                for record in results for key, value in record.items() if key != "N"]
    else:  # verify
        header = ["suite", "N", "quantity", "value", "target", "deviation", "tolerance", "pass"]
        rows = results
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows([_format_cell(row[key]) for key in header] for row in rows)
    return buffer.getvalue()


def _render_plain(command: str, results: list[dict]) -> str:
    lines = []
    if command == "expand":
        for result in results:
            lines.append(f"x = {result['x']}   N = {result['N']}")
            coeffs = " ".join(str(a) for a in result["coeffs"]) or "(empty)"
            lines.append(f"digits: {coeffs}")
            lines.append(f"terminated: {result['terminated']}")
            if result["convergents"]:
                lines.append(f"{'n':>4}  {'A':>24}  {'B':>24}  {'ratio':>28}  {'|x - A/B|':>12}")
                for conv in result["convergents"]:
                    lines.append(
                        f"{conv['n']:>4}  {conv['A']:>24}  {conv['B']:>24}  "
                        f"{conv['ratio']:>28}  {conv['abs_error']:>12.5e}"
                    )
    elif command == "constants":
        for record in results:
            lines.append(f"N = {record['N']}")
            for key, value in record.items():
                if key != "N":
                    lines.append(f"  {key:<28} {_format_cell(value)}")
    else:
        for row in results:
            status = "PASS" if row["pass"] else "FAIL"
            lines.append(
                f"{status}  N={row['N']:<4} {row['quantity']:<34} "
                f"value={_format_cell(row.get('value'))} target={_format_cell(row.get('target'))} "
                f"deviation={_format_cell(row.get('deviation'))} tol={row['tolerance']}"
            )
        failed = sum(1 for row in results if not row["pass"])
        lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncfrac",
        description="N-continued fractions: exact expansions, closed-form constants, "
                    "and numerical verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_flags(p):
        p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")

    p_expand = sub.add_parser("expand", help="expand an exact fraction and show its convergents")
    p_expand.add_argument("x", help='exact fraction in [0,1) as "p/q"')
    p_expand.add_argument("--n", type=int, default=1, help="map index N >= 1 (default 1)")
    p_expand.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS)
    add_io_flags(p_expand)
    p_expand.set_defaults(func=_cmd_expand)

    p_const = sub.add_parser("constants", help="closed-form constants for a range of N")
    p_const.add_argument("--n", default="1", help='indices: "3", "1..5" or "1,2,5" (default 1)')
    p_const.add_argument("--r", default="-1,0.5", help="comma list of power-mean orders")
    p_const.add_argument("--tol", type=float, default=1e-12, help="series tail tolerance")
    add_io_flags(p_const)
    p_const.set_defaults(func=_cmd_constants)

    p_verify = sub.add_parser("verify", help="run a verification suite; exit 1 on failure")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--n", default="1", help='indices: "3", "1..5" or "1,2,5" (default 1)')
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--bits", type=int, default=512)
    p_verify.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cells", type=int, default=512, help="grid size for the ulam suite")
    add_io_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        results, code = args.func(args)
    except (ValueError, TypeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        config = {key: value for key, value in vars(args).items()
                  if key not in ("command", "func", "output")}
        text = json.dumps({"command": args.command, "config": config, "results": results},
                          sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        text = _render_csv(args.command, results)
    else:
        text = _render_plain(args.command, results)

    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
