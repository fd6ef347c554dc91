"""The ncfrac benchmark: the `ncfrac` CLI driven in-process on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each workload is a closed loop with
one client: its job list (CLI calls) runs back to back in this process, and
the list is repeated until ``--seconds`` is spent (two passes at least, so the
deterministic counters can be compared between repeats of one seed).  Jobs use
the CLI defaults except for the flags listed in WORKLOADS plus ``--seed`` and
``--format json``; ``--threads`` is never passed, so the default pool is what
gets measured.

``--trace 0`` reports the end-to-end metrics:

    setup_s      fresh-interpreter ``import ncfrac.cli``: the median of
                 samples taken between passes, spread over the run
    wall_s       wall time of the job list: each job's fastest pass, summed
    cpu_s        user+sys CPU of this process and its pool workers, likewise
    peak_rss_mb  peak resident memory of this process (pool workers excluded)

Each job is timed on its own and its fastest pass is kept because co-tenant
load on a shared host slows the whole CPU in bursts (up to 1.7x, lasting
0.1-20 s); a median over passes took the burst share of the run with it.

``--trace 1`` makes the same passes with every layer call wrapped in a span
(see tracing.py) and the trial loops forced serial, and reports the per-layer
metrics: times from each job's fastest traced pass, counts from the first.
``trace.wall_s`` minus the layers' self times is ``trace.untraced_s``, the
benchmark's own work between spans.  Both modes print a human-readable table,
then one JSON result line.

A job fails when its output is not strict JSON (a bare NaN or Infinity
counts), its exit code is not the one its rows call for (0, or 1 when a row
missed the CLI's gate), a Monte Carlo estimate lies more than Z_LIMIT standard
errors from its closed form, any other verify row fails, a closed-form anchor
is off, or a deterministic counter differs from the first pass.  Rows that
miss the CLI's fixed gate are counted as ``gate_misses``: the frequency gates
miss on most seeds at the default trial count, so they are reported rather
than failed.  ``fail_frac`` (failed / attempted), ``gate_misses`` and
``digits_per_s`` (the ``terms`` of all verify rows per wall second, on
workloads that expand orbits) are printed in the table; the result line
carries the job counts as ``attempted`` / ``failed``.
Spans, per-pass records and the environment go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5  # set-up samples at least, one before the first pass
SETUP_MAX = 9      # and at most, one between passes until there are this many
MIN_PASSES = 2
Z_LIMIT = 6.0  # standard errors a Monte Carlo estimate may sit from its target

# Why each workload exists, and which layer it stresses:
#   mc_default   Monte Carlo suites at the shipped 512 bits / 200 trials.
#                Short orbits (~300-530 digits): per-step Python overhead,
#                sampling and pool start-up all weigh.
#   mc_deep      4096-bit orbits, few trials: big-integer divmod/gcd and the
#                O(n^2) convergent recursion dominate; sampling is negligible.
#   grid         Ulam transition matrix at 2048 cells: no orbits at all, the
#                bypass workload for any orbit-kernel change.
#   closed_forms Constants series for N up to 3000 plus the exact fixed-point
#                orbits of the bounds suite; no sampling, no Ulam grid.
# The Monte Carlo suites run one CLI call per (suite, N): the same work as one
# call per suite (the pool is started per estimate either way), cut into
# shorter jobs so that each job's fastest pass is less exposed to load bursts.
# grid stays one call, since it holds the previous N's matrix while building
# the next and that sets its peak memory.
WORKLOADS = {
    "mc_default": [["verify", suite, "--n", n]
                   for suite in ("birkhoff", "levy", "lyapunov", "frequencies")
                   for n in ("1", "2", "5")],
    "mc_deep": [["verify", suite, "--n", n, "--bits", "4096", "--trials", "16"]
                for suite in ("birkhoff", "levy", "lyapunov") for n in ("1", "2")],
    "grid": [["verify", "ulam", "--n", "1,2,5,10", "--cells", "2048"]],
    "closed_forms": [["constants", "--n", "1..3000", "--r=-1,-0.5,0.5,0.9"],
                     ["verify", "bounds", "--n", "1..200"]],
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "ergodic.self_s": "s", "ergodic.digits": "count", "ergodic.orbit_digits_per_s": "1/s",
    "ergodic.sample_s": "s", "ergodic.samples": "count", "ergodic.orbits": "count",
    "ergodic.passes_per_orbit": "ratio",
    "dynamics.self_s": "s", "dynamics.expand_calls": "count", "dynamics.expand_digits": "count",
    "dynamics.fixed_point_s": "s",
    "convergents.self_s": "s", "convergents.depth": "count", "convergents.final_bits": "bits",
    "constants.self_s": "s", "constants.calls": "count", "constants.series_terms": "count",
    "constants.density_calls": "count",
    "ulam.assembly_s": "s", "ulam.solve_s": "s", "ulam.score_s": "s", "ulam.cells": "count",
    "ulam.iterations": "count", "ulam.matrix_bytes_computed": "bytes",
    "ulam.solve_bytes_computed": "bytes",
    "trace.wall_s": "s", "trace.untraced_s": "s",
}

# Closed-form anchors for N = 1 checked in the constants output: the digit
# geometric mean (Khinchin's constant) and pi^2/(12 log 2).
ANCHORS = {"khinchin": 2.6854520010653064, "levy_lambda": math.pi**2 / (12 * math.log(2))}


def jobs(workload: str, seed: int) -> list[list[str]]:
    """The workload's CLI calls; the seed goes to every command that takes one."""
    out = []
    for argv in WORKLOADS[workload]:
        argv = list(argv)
        if argv[0] == "verify":
            argv += ["--seed", str(seed)]
        out.append(argv + ["--format", "json"])
    return out


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def row_problem(row: dict) -> str | None:
    """Why a verify row is wrong, or None.

    A Monte Carlo estimate (trials > 1 with a per-trial spread) is checked
    against its closed-form target in standard errors, on the scale it was
    averaged on.  The CLI's own fixed 2% gate is not used for these rows: at
    the default 200 trials its false-alarm rate is high (see gate misses).
    Every other row (exact bounds, the denominator floor, Ulam) must pass.
    """
    trials, std, scale = row.get("trials", 1), row.get("per_trial_std", 0.0), row.get("scale")
    if trials > 1 and std > 0 and scale in (None, "log"):
        if scale == "log":
            diff = row["log_value"] - math.log(row["target"])
        else:
            diff = row["value"] - row["target"]
        z = diff / (std / math.sqrt(trials))
        return None if abs(z) <= Z_LIMIT else f"{z:+.2f} standard errors off its target"
    return None if row.get("pass") is True else "check failed"


def check_output(argv: list[str], code: int, text: str) -> tuple[list[str], dict]:
    """Problems found in one job's output, and the counters it reports."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
        results = doc["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"exit code {code}; output is not strict JSON: {exc}"], {}
    problems = []
    counters = {"output_bytes": len(text.encode())}
    if argv[0] == "verify":
        misses = sum(1 for r in results if r.get("pass") is not True)
        if code != (1 if misses else 0):
            problems.append(f"exit code {code} with {misses} failed rows")
        for r in results:
            try:
                problem = row_problem(r)
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"malformed row: {exc!r}"
            if problem:
                problems.append(f"{r.get('suite')} N={r.get('N')} {r.get('quantity')}: {problem}")
        counters["gate_misses"] = misses
        counters["digits"] = sum(r.get("terms", 0) for r in results)
        counters["ulam_iterations"] = sum(r.get("iterations", 0) for r in results)
    else:
        if code != 0:
            problems.append(f"exit code {code}")
        counters["series_terms"] = sum(v for r in results for k, v in r.items()
                                       if k.endswith("_terms"))
        first = next((r for r in results if r.get("N") == 1), None)
        for key, want in ANCHORS.items():
            if first is not None and not abs(first.get(key, math.nan) - want) <= 1e-12 * want:
                problems.append(f"{key}(1) = {first.get(key)!r}, expected {want!r}")
    return problems, counters


def run_job(cli, argv: list[str], tracer, job) -> tuple[int, str]:
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.root(job, cli.main, argv)
    except SystemExit as exc:  # argparse rejects the flags
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        code = -1
    return code, buffer.getvalue()


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(cli, job_list, tracer, index: int, reference: list | None) -> list[dict]:
    """One pass over the job list; compares counters with the reference pass."""
    if tracer is not None:
        tracer.new_pass()
    records = []
    for j, argv in enumerate(job_list):
        before = tracer.counters() if tracer is not None else {}
        cpu, start = _cpu(), time.perf_counter()
        code, text = run_job(cli, argv, tracer, f"{index}:{j}")
        wall, cpu = time.perf_counter() - start, _cpu() - cpu
        problems, counters = check_output(argv, code, text)
        if tracer is not None:
            after = tracer.counters()
            counters.update({k: v - before.get(k, 0) for k, v in after.items()
                             if v != before.get(k, 0)})
        if reference is not None and counters != reference[j]["counters"]:
            problems.append(f"counters differ from the first pass: {counters} vs "
                            f"{reference[j]['counters']}")
        for problem in problems:
            print(f"FAIL pass {index} job {j} ({' '.join(argv)}): {problem}", file=sys.stderr)
        records.append({"argv": argv, "wall_s": wall, "cpu_s": cpu, "exit": code,
                        "ok": not problems, "counters": counters})
    return records


def fastest(passes: list[list[dict]]) -> list[int]:
    """For each job, the pass in which it ran fastest."""
    return [min(range(len(passes)), key=lambda p: passes[p][j]["wall_s"])
            for j in range(len(passes[0]))]


def layer_metrics(tracer, passes: list[list[dict]]) -> dict:
    """Per-layer times from each job's fastest traced pass; counts from the
    first pass (every pass has the same counts, or its jobs failed)."""
    best = fastest(passes)
    times = tracer.times()
    layers, totals = defaultdict(float), defaultdict(float)
    for j, p in enumerate(best):
        job_layers, job_totals = times[f"{p}:{j}"]
        for k, v in job_layers.items():
            layers[k] += v
        for k, v in job_totals.items():
            totals[k] += v
    wall = sum(passes[p][j]["wall_s"] for j, p in enumerate(best))
    count = defaultdict(int)
    for record in passes[0]:
        for k, v in record["counters"].items():
            count[k] += v
    solve_bytes = 0
    for record in passes[0]:
        argv = record["argv"]
        if argv[:2] == ["verify", "ulam"]:
            m = int(argv[argv.index("--cells") + 1])
            solve_bytes += 8 * m * m * record["counters"]["ulam_iterations"]
    orbit_time = layers["ergodic"] + layers["dynamics"]
    samples, orbits = count["calls:ergodic.sample_rational"], count["orbits"]
    return {
        "cli.self_s": layers["cli"],
        "cli.output_bytes": count["output_bytes"],
        "ergodic.self_s": layers["ergodic"],
        "ergodic.digits": count["digits"],
        "ergodic.orbit_digits_per_s": count["digits"] / orbit_time if orbit_time > 0 else 0.0,
        "ergodic.sample_s": totals["ergodic.sample_rational"],
        "ergodic.samples": samples,
        "ergodic.orbits": orbits,
        "ergodic.passes_per_orbit": samples / orbits if orbits else 0.0,
        "dynamics.self_s": layers["dynamics"],
        "dynamics.expand_calls": count["calls:dynamics.expand"],
        "dynamics.expand_digits": count["expand_digits"],
        "dynamics.fixed_point_s": totals["dynamics.fixed_point"],
        "convergents.self_s": layers["convergents"],
        "convergents.depth": count["convergent_depth"],
        "convergents.final_bits": count["convergent_final_bits"],
        "constants.self_s": layers["constants"],
        "constants.calls": count["entries:constants"],
        "constants.series_terms": count["series_terms"],
        "constants.density_calls": count["calls:constants.density"],
        "ulam.assembly_s": totals["ulam.transition_matrix"],
        "ulam.solve_s": totals["ulam._power_iteration"],
        "ulam.score_s": totals["ulam.density_l1_error"],
        "ulam.cells": count["cells"],
        "ulam.iterations": count["ulam_iterations"],
        "ulam.matrix_bytes_computed": count["matrix_bytes"],
        "ulam.solve_bytes_computed": solve_bytes,
        "trace.wall_s": wall,
        "trace.untraced_s": wall - sum(layers.values()),
    }


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing ncfrac.cli from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import ncfrac.cli, pathlib, sys; "
             f"sys.exit(pathlib.Path(ncfrac.__file__).resolve().parent != pathlib.Path({str(SRC / 'ncfrac')!r}))")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"import ncfrac.cli from {SRC} failed:\n{done.stderr}")
    return elapsed


def environment() -> dict:
    import numpy
    import scipy

    def getconf(name):
        try:
            value = subprocess.run(["getconf", name], capture_output=True, text=True,
                                   timeout=10).stdout.strip()
            return int(value) if value else None
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "l2_bytes_per_core": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "note": "ulam.*_bytes_computed count bytes the algorithm computes over, not memory traffic",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "ncfrac" / "cli.py").is_file():
        print(f"error: no ncfrac sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup: list[float] = []
    try:
        if not args.trace:
            setup.append(measure_setup())
        from ncfrac import cli

        tracer_cm = contextlib.nullcontext(None)
        if args.trace:
            from tracing import Tracer
            tracer_cm = Tracer()
        job_list = jobs(args.workload, args.seed)
        passes: list[list[dict]] = []
        start = time.perf_counter()
        with tracer_cm as tracer:
            while True:
                pass_start = time.perf_counter()
                passes.append(run_pass(cli, job_list, tracer, len(passes),
                                       passes[0] if passes else None))
                now = time.perf_counter()
                if len(passes) >= MIN_PASSES and now - start + now - pass_start > args.seconds:
                    break
                if not args.trace and len(setup) < SETUP_MAX:
                    setup.append(measure_setup())
        while not args.trace and len(setup) < SETUP_REPEATS:
            setup.append(measure_setup())
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if not r["ok"])
    best = fastest(passes)
    wall = sum(passes[p][j]["wall_s"] for j, p in enumerate(best))
    if args.trace:
        names = PER_LAYER
        values = layer_metrics(tracer, passes)
    else:
        names = END_TO_END
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "cpu_s": sum(min(p[j]["cpu_s"] for p in passes) for j in range(len(job_list))),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = {k: {"value": values[k], "unit": names[k]} for k in names}

    env = environment()
    digits = sum(r["counters"].get("digits", 0) for r in passes[0])
    misses = sum(r["counters"].get("gate_misses", 0) for r in passes[0])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  jobs/pass {len(job_list)}  env {json.dumps(env)}")
    for k, m in metrics.items():
        print(f"  {k:<30} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_frac':<30} {failed / attempted:>16.6g} ratio  ({failed}/{attempted} jobs)")
    print(f"  {'gate_misses':<30} {misses:>16d} count  (verify rows with pass: false, per pass)")
    if digits and not args.trace:
        print(f"  {'digits_per_s':<30} {digits / wall:>16.6g} 1/s  ({digits} digits/pass)")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_s": setup, "metrics": metrics, "passes": passes}
    if tracer is not None:
        record["spans"] = tracer.spans
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
