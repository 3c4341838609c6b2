"""Outside-in tracing of the walshvie package for the benchmark child.

Nothing in the package is edited.  ``Tracer.install`` replaces every
public function attribute of every ``walshvie`` submodule with a wrapper
that records a span, so a call is seen wherever its caller looks the
name up: ``walshvie.cli.solve``, ``walshvie.experiment.solve`` and
``walshvie.solver.project_kernel`` are each wrapped where they live.
Spans are named after the module that defines the function
(``solver.solve``), so a name imported into several modules shares one
span name.  The beta/sigma/kernel/exact callables of every ProblemSpec a
wrapped function returns are wrapped too, as ``expressions.eval``.

A span is ``[name, start, end, parent, extra]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (or
-1) and ``extra`` a small dict or None.  Spans stay in memory until
``Tracer.report``.
"""

import dataclasses
import functools
import importlib
import pkgutil
import time
import tracemalloc
import types

import numpy as np

PACKAGE = "walshvie"
SOLVE = "solver.solve"
EVAL = "expressions.eval"
PROBLEM_CALLABLES = ("k1", "k2", "beta", "sigma", "exact")


def _span_name(fn):
    return f"{fn.__module__.removeprefix(PACKAGE + '.')}.{fn.__name__}"


def install(package, wrap, only=None):
    """Replace every public package function, at each module attribute
    that holds it, by ``wrap(function, span name)``; ``only`` limits
    this to one span name.  Returns the span names hooked."""
    wrappers = {}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name.startswith("_"):  # __main__ runs the CLI on import
            continue
        module = importlib.import_module(f"{PACKAGE}.{info.name}")
        for attr, fn in sorted(vars(module).items()):
            if (
                attr.startswith("_")
                or not isinstance(fn, types.FunctionType)
                or not fn.__module__.startswith(PACKAGE + ".")
                or only not in (None, _span_name(fn))
            ):
                continue
            if fn not in wrappers:
                wrappers[fn] = wrap(fn, _span_name(fn))
            setattr(module, attr, wrappers[fn])
    return {_span_name(fn) for fn in wrappers}


class Tracer:
    """Span recorder for one run of ``walshvie.cli.main``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._solve_depth = 0
        self.scalar_calls_in_solve = 0
        self.hooked = set()

    def install(self, package):
        self.hooked = install(package, self._wrap)

    def _open(self, name, extra=None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, extra])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        is_solve = name == SOLVE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            self._solve_depth += is_solve
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if is_solve:
                    self.spans[index][4] = {"error": type(exc).__name__}
                raise
            finally:
                self._solve_depth -= is_solve
                self._close(index)
            if is_solve:
                self.spans[index][4] = {"sweeps": int(result.iterations)}
            return self._wrap_problem(result)

        return wrapper

    def _wrap_problem(self, result):
        if type(result).__name__ != "ProblemSpec" or not dataclasses.is_dataclass(result):
            return result
        changes = {}
        for field in PROBLEM_CALLABLES:
            fn = getattr(result, field, None)
            if callable(fn) and not getattr(fn, "_bench_eval", False):
                changes[field] = self._wrap_eval(fn, field)
        return dataclasses.replace(result, **changes) if changes else result

    def _wrap_eval(self, fn, role):
        counts_fallback = role in ("beta", "sigma")

        def evaluate(*args):
            scalar = np.ndim(args[0]) == 0
            if counts_fallback and scalar and self._solve_depth:
                self.scalar_calls_in_solve += 1
            index = self._open(EVAL, {"points": int(np.size(args[0]))})
            try:
                return fn(*args)
            finally:
                self._close(index)

        evaluate._bench_eval = True
        return evaluate

    def report(self):
        return {
            "spans": self.spans,
            "hooked": sorted(self.hooked | {EVAL}),
            "scalar_calls_in_solve": self.scalar_calls_in_solve,
        }


class AllocProbe:
    """Peak memory allocated inside each ``solver.solve`` call.

    tracemalloc runs only while a solve runs, so the rest of the command
    pays nothing; blocks allocated before the call are not counted.
    """

    def __init__(self):
        self.peaks = []
        self.hooked = set()

    def install(self, package):
        self.hooked = install(package, self._wrap, only=SOLVE)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper

    def report(self):
        return {"hooked": sorted(self.hooked), "solve_peaks": self.peaks}
