"""Every demo script runs to completion and writes nothing to stderr, prints and
writes what it claims, and imports only the package's public names."""

import ast
import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncfrac
from ncfrac import density

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def run_demo(tmp_path_factory):
    """run_demo(name) gives the demo's finished process and its working
    directory, a scratch one since density_recovery.py writes a CSV there;
    each demo runs once per module."""
    runs = {}

    def run(name):
        if name not in runs:
            cwd = tmp_path_factory.mktemp(Path(name).stem)
            runs[name] = cwd, subprocess.run(
                [sys.executable, str(ROOT / "demos" / name)], cwd=cwd,
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                capture_output=True, text=True, timeout=300)
        return runs[name]

    return run


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(script, run_demo):
    _, done = run_demo(script.name)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_float_shadow_parts_within_fifty_steps(run_demo):
    # a double-precision orbit loses about lyapunov/log(2) bits a step, so its
    # digits go wrong within a few dozen steps, and never beyond about 50
    _, done = run_demo("monte_carlo_checks.py")
    prefix = "first digit mismatch at step "
    steps = [int(line.partition(prefix)[2]) for line in done.stdout.splitlines()
             if prefix in line]
    assert steps
    assert all(3 <= step <= 50 for step in steps)


def test_density_profile_csv(run_demo):
    cwd, _ = run_demo("density_recovery.py")
    with open(cwd / "density_profile_n1.csv", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == ["midpoint", "empirical", "analytic"]
    assert len(rows) == 512
    mids, empirical, analytic = ([float(v) for v in column] for column in zip(*rows))
    assert mids == [(cell + 0.5) / 512 for cell in range(512)]
    assert analytic == [density(1, x) for x in mids]  # bit-identical
    assert sum(empirical) / 512 == pytest.approx(1.0, abs=1e-12)


def test_demos_import_only_public_names():
    # the package computes and the demos present, so a demo imports its names
    # with `from ncfrac import` and reaches no submodule or private name
    imported = {}
    for script in DEMOS:
        names = imported[script.name] = []
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names if alias.name.startswith("ncfrac")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ncfrac"):
                names += [alias.name if node.module == "ncfrac" else f"{node.module}.{alias.name}"
                          for alias in node.names]
    assert all(imported.values())
    assert {script: [name for name in names if name not in ncfrac.__all__]
            for script, names in imported.items()} == {script: [] for script in imported}
