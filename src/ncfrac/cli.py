"""Command-line surface: `ncfrac expand|constants|verify`.

Non-interactive by design: every subcommand emits a machine-readable report
(JSON echoing every flag but --output, CSV rows, or a plain-text table) and
the exit status tells scripts what happened: 0 success / all checks passed,
1 a verification check failed its tolerance, 2 usage, input or write error.

Fractions are accepted only as exact "p/q" strings, never as decimals, so
the exact-arithmetic guarantee holds end to end.  Runs are reproducible:
the same flags (including --seed) produce byte-identical JSON/CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, islice, repeat
from types import GeneratorType, SimpleNamespace
from typing import Callable, Iterator

from . import __version__, constants, ergodic, ulam
from .convergents import _convergents, _log_error
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


#: The most indices one --n may name; checked on the ranges, before any list is built.
MAX_INDICES = 100_000


def _parse_n_values(text: str) -> list[int]:
    """Accept "3", "1..5" and "1,2,5", at most MAX_INDICES indices, counted from the
    ranges' ends before any list is built; the constants and verify suites need float(N)."""
    message = f"indices must be integers >= 1, got {text!r}"
    ranges: list[range] = []
    for chunk in text.split(","):
        lo, dots, hi = chunk.strip().partition("..")
        try:
            values = range(int(lo), int(hi if dots else lo) + 1)
        except ValueError:
            raise ValueError(message) from None
        if values and values[-1] > sys.float_info.max:
            raise ValueError(f"index {values[-1]} is beyond the float range")
        ranges.append(values)
    if any(not values or values[0] < 1 for values in ranges):
        raise ValueError(message)
    # len() of a range longer than sys.maxsize overflows; its ends do not
    count = sum(values.stop - values.start for values in ranges)
    if count > MAX_INDICES:
        raise ValueError(f"--n names {count} indices, more than the {MAX_INDICES} allowed")
    return [n for values in ranges for n in values]


# --------------------------------------------------------------------------
# subcommands: each returns (results, exit_code), every check already run;
# constants' records and expand's convergents are generators, each item made
# as it is written


def _convergent_rows(x: Fraction, coeffs: tuple[int, ...], N: int) -> Iterator[dict]:
    """One row per convergent 1..len(coeffs) of x's checked digits, made as it is read.

    The error |x - A/B| is the integer gap |B*p - A*q| over q*B, x = p/q: int/int
    division rounds correctly, and its log is convergents._log_error's; an exact
    zero has no logarithm (JSON null).
    """
    p, q = x.numerator, x.denominator
    for conv in islice(_convergents(coeffs, N), 1, None):
        ratio = conv.ratio()
        gap, den = abs(conv.B * p - conv.A * q), q * conv.B
        yield {
            "n": conv.n,
            "A": conv.A,
            "B": conv.B,
            "ratio": f"{ratio.numerator}/{ratio.denominator}",
            "abs_error": gap / den,
            "log10_abs_error": _log_error(gap, den) / math.log(10) if gap else None,
        }


def _cmd_expand(args) -> tuple[list[dict], int]:
    x = _parse_fraction(args.x)
    expansion = expand(x, args.n, args.max_terms)
    result = {
        "x": args.x,
        "N": args.n,
        "coeffs": list(expansion.coeffs),
        "terminated": expansion.terminated,
        "convergents": _convergent_rows(x, expansion.coeffs, args.n),
    }
    return [result], 0


def _cmd_constants(args) -> tuple[Iterator[dict], int]:
    ns = _parse_n_values(args.n)
    try:
        rs = [float(chunk) for chunk in args.r.split(",")]
    except ValueError:
        raise ValueError(f"orders must be numbers, got {args.r!r}") from None
    return constants.ConstantsReport.compute_many(ns, rs), 0


def _row(suite: str, n: int, quantity: str, value, target, tolerance: float, deviation,
         **extras) -> dict:
    """One verify row: the eight keys every suite reports, then its own extras.

    A row passes exactly when its deviation is finite and within its tolerance.
    """
    return {"suite": suite, "N": n, "quantity": quantity, "value": value, "target": target,
            "tolerance": tolerance, "deviation": deviation,
            "pass": math.isfinite(deviation) and deviation <= tolerance, **extras}


def _orbit_rows(requests: Callable[[int], list], n: int, args) -> list[dict]:
    """A Monte Carlo suite's rows at index n from one ergodic.orbit_estimates call.

    Every denominator-growth report is followed by its floor row: the
    slowest trial's rate against the worst-case denominator bound.
    """
    cfg = ergodic.SampleConfig(N=n, trials=args.trials, denominator_bits=args.bits,
                               max_terms=args.max_terms, seed=args.seed)
    rows = []
    for report in ergodic.orbit_estimates(cfg, requests(n)):
        rows.append(_row(args.suite, n, tolerance=TOLERANCES[args.suite],
                         deviation=report.rel_deviation, **report.to_record()))
        if report.quantity == "denominator-growth":
            rate, bound = report.extras["min_rate"], report.extras["denominator_bound"]
            rows.append(_row(args.suite, n, "denominator-growth[floor]", rate, bound,
                             TOLERANCES["levy-floor"], max(0.0, bound - rate)))
    return rows


def _bounds_rows(n: int, args) -> list[dict]:
    """The bound identity at index n, then both bounds on the constant-digit orbit."""
    lyap_bound, denom_bound = constants.lower_bounds(n)
    gap = abs(2.0 * denom_bound - math.log(n) - lyap_bound)
    return [_row("bounds", n, "bound-identity", gap, 0.0, TOLERANCES["bounds-identity"], gap),
            *(_row("bounds", n, tolerance=TOLERANCES["bounds"], deviation=report.abs_deviation,
                   **report.to_record()) for report in ergodic.bound_achievement(n, depth=200))]


def _ulam_rows(n: int, args) -> list[dict]:
    """The l1 error of the index's Ulam model on a grid of --cells cells."""
    model = ulam.build_model(n, args.cells)
    return [_row("ulam", n, f"density-l1[m={args.cells}]", model.l1_error, 0.0,
                 TOLERANCES["ulam"], model.l1_error, iterations=model.iterations)]


#: Each suite's rows at one index, in row order; a Monte Carlo suite names the
#: observable requests it makes at index n (see ergodic.orbit_estimates).
SUITES = {
    "birkhoff": partial(_orbit_rows, lambda n: [("log-digit", None), ("digit-indicator", None)]),
    "levy": partial(_orbit_rows, lambda n: [("denominator-growth", None)]),
    "lyapunov": partial(_orbit_rows, lambda n: [("log-derivative", None)]),
    "frequencies": partial(_orbit_rows, lambda n: [("digit-indicator", m)
                                                   for m in range(n, n + 3)]),
    "bounds": _bounds_rows,
    "ulam": _ulam_rows,
}


def _cmd_verify(args) -> tuple[list[dict], int]:
    rows = [row for n in _parse_n_values(args.n) for row in SUITES[args.suite](n, args)]
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


def _render_csv(command: str, results) -> Iterator[str]:
    """A header row, then one row per convergent, (N, quantity) pair or verify check,
    written a convergent, constants record or verify check at a time, each row's
    cells read off its record."""
    if command == "expand":
        header = ["n", "A", "B", "ratio", "abs_error", "log10_abs_error"]
        groups = ([[_format_cell(conv[key]) for key in header]]
                  for result in results for conv in result["convergents"])
    elif command == "constants":
        header = ["N", "quantity", "value"]
        groups = ([(n, key, _format_cell(value)) for key, value in record.items() if key != "N"]
                  for record in results for n in [_format_cell(record["N"])])
    else:  # verify
        header = ["suite", "N", "quantity", "value", "target", "deviation", "tolerance", "pass"]
        groups = ([[_format_cell(row[key]) for key in header]] for row in results)
    # writerow returns what its file's write returns: str() of a row's text is the text
    writer = csv.writer(SimpleNamespace(write=str))
    for rows in chain([[header]], groups):
        yield "".join(map(writer.writerow, rows))


def _render_plain(command: str, results) -> Iterator[str]:
    """A block of lines per expansion, written a line at a time, per constants
    record (one a piece) or one line per verify check and a count of those passed."""
    if command == "constants":
        for record in results:
            yield f"N = {record['N']}\n" + "".join(
                f"  {key:<28} {_format_cell(value)}\n" for key, value in record.items()
                if key != "N")
    elif command == "expand":
        for result in results:
            yield f"x = {result['x']}   N = {result['N']}\n"
            coeffs = " ".join(str(a) for a in result["coeffs"]) or "(empty)"
            yield f"digits: {coeffs}\n"
            yield f"terminated: {result['terminated']}\n"
            if result["coeffs"]:
                yield f"{'n':>4}  {'A':>24}  {'B':>24}  {'ratio':>28}  {'|x - A/B|':>12}\n"
            for conv in result["convergents"]:
                yield (f"{conv['n']:>4}  {conv['A']:>24}  {conv['B']:>24}  "
                       f"{conv['ratio']:>28}  {conv['abs_error']:>12.5e}\n")
    else:
        for row in results:
            status = "PASS" if row["pass"] else "FAIL"
            yield (f"{status}  N={row['N']:<4} {row['quantity']:<34} "
                   f"value={_format_cell(row.get('value'))} "
                   f"target={_format_cell(row.get('target'))} "
                   f"deviation={_format_cell(row.get('deviation'))} tol={row['tolerance']}\n")
        failed = sum(1 for row in results if not row["pass"])
        yield f"{len(results) - failed}/{len(results)} checks passed\n"


#: The types json writes as arrays or objects; a generator is a list written
#: as it is read.
_CONTAINERS = (dict, list, tuple, GeneratorType)


@lru_cache(maxsize=None)
def _flat_encoder(level: int) -> Callable[[object], str]:
    """json's C encoder for a container at indent level `level`, one item a line.

    Its item separator carries the newline and the indent of the items, so a
    container that holds no container comes out as json.dumps(indent=2)
    writes it, but for the newline and indent after its opening bracket and
    before its closing one.  An encoded string never holds a raw newline.
    """
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (level + 1), ": ")).encode


def _json_chunks(value, level: int) -> Iterator[str]:
    """`value` as json.dumps(sort_keys=True, indent=2) writes it at indent level `level`.

    A container that holds no container is one call of json's C encoder.  Any
    other list, tuple, generator or dict is read one item at a time, a dict's
    in sorted() order, which is the order json's C encoder sorts them in: a
    scalar item is encoded where it stands, a container item is walked, and
    each item of a generator (a record) is joined into one chunk.  A key is
    spelled as json spells it, json.dumps(key) for a non-str key, and then
    encoded as a string.
    """
    encode = _flat_encoder(level)
    if not isinstance(value, _CONTAINERS):
        yield encode(value)
        return
    outer, separator = "\n" + "  " * level, ",\n" + "  " * (level + 1)
    is_dict = isinstance(value, dict)
    if not isinstance(value, GeneratorType) and not any(
            map(isinstance, value.values() if is_dict else value, repeat(_CONTAINERS))):
        text = encode(value)
        yield text if len(text) == 2 else f"{text[0]}{outer}  {text[1:-1]}{outer}{text[-1]}"
        return
    brackets = "{}" if is_dict else "[]"
    lead = brackets[0] + separator[1:]
    for item in sorted(value.items()) if is_dict else value:
        if is_dict:
            key, item = item
            lead += encode(key if isinstance(key, str) else json.dumps(key)) + ": "
        if not isinstance(item, _CONTAINERS):
            yield lead + encode(item)
        else:
            chunks = _json_chunks(item, level + 1)
            yield lead + ("".join(chunks) if isinstance(value, GeneratorType) else next(chunks))
            yield from chunks
        lead = separator
    yield brackets if lead != separator else outer + brackets[1]


def _render_json(doc) -> Iterator[str]:
    """Exactly `json.dumps(doc, sort_keys=True, indent=2) + "\n"`, in chunks, with
    each generator in doc written as the list of what it yields."""
    yield from _json_chunks(doc, 0)
    yield "\n"


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
    add_io_flags(p_const)
    p_const.set_defaults(func=_cmd_constants)

    p_verify = sub.add_parser("verify", help="run a verification suite; exit 1 on failure")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--n", default="1", help='indices: "3", "1..5" or "1,2,5" (default 1)')
    p_verify.add_argument("--trials", type=int, default=ergodic.SampleConfig.trials)
    p_verify.add_argument("--bits", type=int, default=ergodic.SampleConfig.denominator_bits)
    p_verify.add_argument("--max-terms", type=int, default=ergodic.SampleConfig.max_terms)
    p_verify.add_argument("--seed", type=int, default=ergodic.SampleConfig.seed)
    p_verify.add_argument("--cells", type=int, default=512, help="grid size for the ulam suite")
    add_io_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one command line; every int in it is read and written at any length,
    int()'s limit of 4300 digits (from Python 3.10.7 on) lifted for the run."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        try:
            results, code = args.func(args)
        except (ValueError, TypeError, OverflowError, ImportError) as exc:
            with contextlib.suppress(OSError):  # exit 2 even if stderr is closed
                print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.format == "json":
            config = {key: value for key, value in vars(args).items()
                      if key not in ("command", "func", "output")}
            pieces = _render_json({"command": args.command, "config": config, "results": results})
        elif args.format == "csv":
            pieces = _render_csv(args.command, results)
        else:
            pieces = _render_plain(args.command, results)
        # every check has run: from here each piece is written as it is made,
        # and flushed here, so that a write error of any size exits 2
        try:
            with (open(args.output, "w") if args.output
                  else contextlib.nullcontext(sys.stdout)) as out:
                out.writelines(pieces)
                out.flush()
        except OSError as exc:
            if not args.output:  # fd 1 on os.devnull: the flush at exit cannot fail again
                with contextlib.suppress(OSError), open(os.devnull, "w") as devnull:
                    os.dup2(devnull.fileno(), sys.stdout.fileno())  # OSError: no descriptor
            with contextlib.suppress(OSError):
                print(f"error: {exc}", file=sys.stderr)
            return 2
        return code
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
