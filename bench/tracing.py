"""Spans around calls into the ncfrac layers, recorded from outside the package.

A layer is one module of the package (``cli``, ``ergodic``, ``dynamics``,
``convergents``, ``constants``, ``ulam``).  :class:`Tracer` wraps the public
functions of each layer (its ``__all__``) plus a few named internals, and
rebinds every module-level reference to them inside the package, so a call
from one layer into another, or a call through a module global, opens a span.
Nothing under ``src/`` is modified: the wrappers exist only while the tracer
is installed.

A span is ``[name, start, end, parent, job]``; ``parent`` is the index of the
enclosing span (``-1`` for a job's root) and ``job`` identifies the CLI call
that caused it (``"<pass>:<job>"``).  Spans are kept in memory; the caller
writes them out at the end of the run.  A layer's self time is the sum over
its spans of the span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import concurrent.futures
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "ergodic", "dynamics", "convergents", "constants", "ulam")

# Internals timed on their own although no other layer calls them by name:
# the stationary solve behind ulam.build_model and the classmethod that
# ``ncfrac constants`` calls once per index.
EXTRA_TARGETS = (("ulam", "_power_iteration"), ("constants", "ConstantsReport.compute"))


class InlineExecutor:
    """Stand-in for ProcessPoolExecutor that runs every task in this process,
    so the traced run sees each layer call made by the trial loops."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class Tracer:
    """Install with ``with Tracer() as tracer:``; call :meth:`root` per job."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # work counts: calls per span name, calls entering each layer from
        # another, and what the hooks read off arguments and results
        self.counts: dict[str, int] = defaultdict(int)
        self.orbit_keys: set = set()

    def counters(self) -> dict[str, int]:
        """A snapshot of the work counts, with the distinct orbits seen since
        :meth:`new_pass`."""
        return dict(self.counts, orbits=len(self.orbit_keys))

    def new_pass(self) -> None:
        self.orbit_keys = set()

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        layer = name.split(".", 1)[0]
        if parent < 0 or not self.spans[parent][0].startswith(layer + "."):
            self.counts[f"entries:{layer}"] += 1
        self.counts[f"calls:{name}"] += 1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def root(self, job, fn, *args):
        """Run one job's entry call as a ``cli.main`` span."""
        self.job = job
        index = self._open("cli.main")
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def __enter__(self):
        modules = {name: sys.modules[f"ncfrac.{name}"] for name in LAYERS}
        package = [m for key, m in sys.modules.items()
                   if key == "ncfrac" or key.startswith("ncfrac.")]
        originals = {}
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    originals[fn] = f"{layer}.{attr}"
        for layer, attr in EXTRA_TARGETS:
            owner, _, method = attr.partition(".")
            obj = getattr(modules[layer], owner, None)
            if method and obj is not None and isinstance(obj.__dict__.get(method), classmethod):
                raw = obj.__dict__[method].__func__
                self._set(obj, method, classmethod(self._wrap(f"{layer}.{attr}", raw)))
            elif not method and inspect.isfunction(obj):
                originals[obj] = f"{layer}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for module in package:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(module, attr, wrappers[value])
                elif value is concurrent.futures.ProcessPoolExecutor:
                    self._set(module, attr, InlineExecutor)
        return self

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False

    # -- analysis ---------------------------------------------------------

    def times(self) -> dict:
        """Per job: self time per layer, and total time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, job) in enumerate(self.spans):
            layers, totals = out.setdefault(job, (defaultdict(float), defaultdict(float)))
            layers[name.split(".", 1)[0]] += end - start - child[i]
            totals[name] += end - start
        return out


def _on_sample(tracer: Tracer, args, kwargs, result) -> None:
    cfg = args[0] if args else kwargs["cfg"]
    tracer.orbit_keys.add((cfg.N, result))


def _on_expand(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["expand_digits"] += len(result.coeffs)


def _on_convergents(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["convergent_depth"] += result.depth
    tracer.counts["convergent_final_bits"] += result.final.B.bit_length()


def _on_transition_matrix(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["cells"] += result.shape[0]
    tracer.counts["matrix_bytes"] += result.nbytes


_HOOKS = {
    "ergodic.sample_rational": _on_sample,
    "dynamics.expand": _on_expand,
    "convergents.convergent_sequence": _on_convergents,
    "ulam.transition_matrix": _on_transition_matrix,
}
