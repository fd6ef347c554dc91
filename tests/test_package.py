"""The package namespace re-exports each submodule's public names exactly once,
importing the package or its command line loads neither numpy nor scipy,
every docstring example in the package runs as written, every name that the
package, its tests or its demos import is used, every internal the benchmark
tracer wraps by name exists, and the declared console script resolves and
runs."""

import ast
import doctest
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import ncfrac


def test_exports_resolve_once():
    names = ncfrac.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(ncfrac, name) is not None
    assert not any("branch_cutoff" in name for name in names)


# records which module imports numpy or scipy, then imports the package and
# its command line in turn and names any of the two that is loaded after each
_IMPORT_PROBE = """
import importlib, sys

class Witness:
    def find_spec(self, name, path=None, target=None):
        if name in ("numpy", "scipy"):
            frame = sys._getframe(1)
            while frame and not frame.f_globals.get("__name__", "").startswith("ncfrac"):
                frame = frame.f_back
            sys.exit(f"{name} imported by {frame.f_globals['__name__'] if frame else 'no ncfrac module'}")

sys.meta_path.insert(0, Witness())
for module in ("ncfrac", "ncfrac.cli"):
    importlib.import_module(module)
    loaded = sorted({name.split(".")[0] for name in sys.modules} & {"numpy", "scipy"})
    if loaded:
        sys.exit(f"{', '.join(loaded)} loaded after import {module}")
"""


def test_import_loads_no_numpy_or_scipy():
    # the exact commands (expand, verify bounds) compute without arrays, so the
    # package and its CLI import numpy only where a command first needs it
    src = str(Path(ncfrac.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_numpy_is_imported_by_one_module():
    # every other module reads numpy's names off ncfrac._np, which imports numpy
    # the first time one is read
    package = Path(ncfrac.__file__).parent
    importing = [path.name for path in sorted(package.glob("*.py"))
                 if re.search(r"^\s*(import|from) numpy\b", path.read_text(), re.M)]
    assert importing == ["_np.py"]


def test_docstring_examples_run():
    failed = attempted = 0
    for info in pkgutil.iter_modules(ncfrac.__path__):
        result = doctest.testmod(importlib.import_module(f"ncfrac.{info.name}"))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 5


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_imports(scope: ast.AST):
    """The import statements of a module or function, not of functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, and names a function imports and
    never reads in its own body, nested functions included; __all__ entries
    count as reads of the module."""
    tree = ast.parse(source)
    exported = {c.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    unused = []
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, _SCOPES))]:
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        if scope is tree:
            read |= exported
        for node in _own_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and name not in read:
                    unused.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(unused)]


def test_unused_import_check_sees_a_leftover():
    assert _unused_imports("import math\nimport operator\nx = math.pi\n") == [
        "operator (line 2)"]
    assert _unused_imports("from __future__ import annotations\nfrom os import *\n") == []


def test_unused_import_check_sees_a_function_leftover():
    # a function's import is checked against that function alone, so a read of
    # the same name elsewhere does not hide it; a nested function's read counts
    source = ("def f():\n    import numpy as np\n    return 1\n\n"
              "def g():\n    import numpy as np\n    return lambda: np.pi\n\n"
              "def h():\n    import math\n\n    def inner():\n        return math.pi\n"
              "    return inner\n")
    assert _unused_imports(source) == ["np (line 2)"]


def test_every_import_is_used():
    # the package, its tests and its demos; bench/ is left to its own harness
    root = Path(__file__).resolve().parents[1]
    paths = [*Path(ncfrac.__file__).parent.rglob("*.py"), *(root / "tests").glob("*.py"),
             *(root / "demos").glob("*.py")]
    unused = {str(path.relative_to(path.parents[1])): found for path in sorted(paths)
              if (found := _unused_imports(path.read_text()))}
    assert unused == {}


def test_tracer_targets_resolve():
    # the tracer skips a name it cannot find, so a renamed internal would only
    # read 0 in the benchmark's per-layer metrics
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, attr in tracing.EXTRA_TARGETS:
        owner, _, method = attr.partition(".")
        target = vars(importlib.import_module(f"ncfrac.{layer}")).get(owner)
        if method:
            target = vars(target).get(method) if isinstance(target, type) else None
            assert isinstance(target, classmethod), f"{layer}.{attr}"
        else:
            assert inspect.isfunction(target), f"{layer}.{attr}"


def _console_scripts() -> dict[str, str]:
    """[project.scripts] of pyproject.toml, read with the stdlib (Python 3.10 has no tomllib)."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return dict(re.findall(r'^([\w.-]+)\s*=\s*"([^"]+)"', section[1], re.M))


def _reject_constant(token: str):
    raise ValueError(f"bare {token} is not JSON")


def test_console_script_runs(capsys):
    # the first nine commands of the CI step "Installed console script", run
    # in-process; the step loads the constants, bounds, levy, lyapunov and expand
    # documents as strict JSON.  Its expand past int()'s digit limit and its run
    # on /dev/full are tests/test_cli.py's
    scripts = _console_scripts()
    assert scripts == {"ncfrac": "ncfrac.cli:main"}
    module, _, attr = scripts["ncfrac"].partition(":")
    main = getattr(importlib.import_module(module), attr)
    assert main(["constants", "--n", "1..3", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["results"]
    assert [record["N"] for record in records] == [1, 2, 3]
    assert main(["verify", "bounds", "--n", "1..3,1000", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["results"]
    assert [row["N"] for row in rows] == [1] * 3 + [2] * 3 + [3] * 3 + [1000] * 3
    assert all(row["pass"] for row in rows)
    assert main(["verify", "levy", "--n", "1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["results"]
    assert rows and all(row["pass"] for row in rows)
    # 8192-bit orbits take the kernel's batched path
    assert main(["verify", "lyapunov", "--n", "1", "--bits", "8192", "--trials", "2",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["results"]
    assert rows and all(row["pass"] for row in rows)
    assert main(["verify", "ulam", "--n", "1", "--cells", "16"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert main(["expand", "2/3", "--n", "1", "--format", "json"]) == 0
    (result,) = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["results"]
    assert result["coeffs"] == [1, 2]
    assert main(["expand", "2/3", "--n", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "n,A,B,ratio,abs_error,log10_abs_error"
    assert main(["expand", "2/3", "--n", "2", "--format", "plain"]) == 0
    assert capsys.readouterr().out.startswith("x = 2/3   N = 2\ndigits: 3\n")
    # 1,646 convergents, each written as it is made
    assert main(["expand", f"{3**1800}/{2**2900}", "--n", "1", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 1646
