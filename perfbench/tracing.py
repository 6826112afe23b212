"""Per-layer spans recorded from outside the solver.

The solver is left untouched.  The benchmark wraps the problem oracles of a
``DCProblem`` in timing proxies and temporarily replaces the module-level
names that ``smba.solver`` looks up on every call.  Each call becomes one
span with a name, a parent span id, a start and an end; spans are kept in
compact arrays and reduced once a pass ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from array import array
from typing import Dict

import numpy as np

import smba.diagnostics
import smba.solver

# module-level names that smba.solver resolves at call time, with span names
PATCHED = (
    (smba.solver, "solve_ball_prox", "ball_prox.solve"),
    (smba.solver, "build_ball", "ball_prox.build_ball"),
    (smba.solver, "mu_at", "schedules.mu_at"),
    (smba.solver, "bb_init", "solver.bb_init"),
    (smba.diagnostics, "kkt_residuals", "diagnostics.kkt_residuals"),
    (smba.diagnostics, "termination_metrics", "diagnostics.termination_metrics"),
)


class Tracer:
    """Span recorder; wrapped callables append to its arrays."""

    def __init__(self):
        self.names = []
        self._codes: Dict[str, int] = {}
        self.clear()

    def clear(self):
        self.code = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._current = -1

    def wrap(self, name, fn):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        code = self._codes[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            parent = self._current
            self.code.append(code)
            self.parent.append(parent)
            self.end.append(0.0)
            self._current = sid
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._current = parent

        return traced

    def proxy(self, obj, prefix):
        """Copy of ``obj`` whose public methods are traced as ``prefix.<method>``.

        The copy is an instance of a subclass, so ``isinstance`` dispatch on
        the original class still holds.
        """
        cls = type(obj)
        methods = {
            name: self.wrap(f"{prefix}.{name}", getattr(cls, name))
            for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))
        }
        traced_cls = type(f"Traced{cls.__name__}", (cls,), methods)
        copy = object.__new__(traced_cls)
        copy.__dict__.update(obj.__dict__)
        return copy

    def problem(self, prob):
        """``prob`` with every oracle behind a timing proxy."""
        return dataclasses.replace(
            prob,
            f=dataclasses.replace(
                prob.f,
                value=self.wrap("problems.f.value", prob.f.value),
                gradient=self.wrap("problems.f.gradient", prob.f.gradient),
            ),
            g=dataclasses.replace(
                prob.g,
                value=self.wrap("problems.G", prob.g.value),
                adjoint_apply=self.wrap("problems.G_adj", prob.g.adjoint_apply),
            ),
            p1=self.proxy(prob.p1, "problems.p1"),
            p2=self.proxy(prob.p2, "problems.p2"),
            cone=self.proxy(prob.cone, "cones"),
        )

    @contextlib.contextmanager
    def patched(self):
        """Trace the solver's module-level callees for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHED]
        try:
            for (mod, attr, fn), (_, _, name) in zip(saved, PATCHED):
                setattr(mod, attr, self.wrap(name, fn))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def spans(self) -> "SpanTable":
        return SpanTable(self.names, self.code, self.parent, self.start, self.end)


class SpanTable:
    """Recorded spans reduced to counts, inclusive and self time per name."""

    def __init__(self, names, code, parent, start, end):
        self.names = list(names)
        self.code = np.frombuffer(code, dtype=np.uint16).astype(np.int64)
        self.parent = np.frombuffer(parent, dtype=np.int64)
        dur = np.frombuffer(end, dtype=float) - np.frombuffer(start, dtype=float)
        if np.any(dur < 0):
            raise RuntimeError("a span was never closed")
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self.dur = dur
        k = len(self.names)
        self.count = np.bincount(self.code, minlength=k)
        self.self_total = np.bincount(self.code, weights=dur - child, minlength=k)
        self._parent_code = np.where(has_parent, self.code[np.maximum(self.parent, 0)], -1)

    def _codes(self, prefix):
        return [i for i, n in enumerate(self.names) if n == prefix or n.startswith(prefix + ".")]

    def calls(self, prefix):
        return int(sum(self.count[i] for i in self._codes(prefix)))

    def self_s(self, prefix):
        return float(sum(self.self_total[i] for i in self._codes(prefix)))

    def inclusive_s(self, prefix):
        """Time inside ``prefix`` spans, counting nested spans of the same prefix once."""
        codes = self._codes(prefix)
        own = np.isin(self.code, codes)
        outer = own & ~np.isin(self._parent_code, codes)
        return float(np.sum(self.dur[outer]))

    def entries(self, prefix):
        """Calls into ``prefix`` from outside it (nested calls within it not counted)."""
        codes = self._codes(prefix)
        return int(np.sum(np.isin(self.code, codes) & ~np.isin(self._parent_code, codes)))

    def calls_under(self, prefix, parent_prefix):
        codes, parents = self._codes(prefix), self._codes(parent_prefix)
        return int(np.sum(np.isin(self.code, codes) & np.isin(self._parent_code, parents)))


def layer_metrics(spans: SpanTable, iters: int, trials: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass with ``iters`` accepted steps and
    ``trials`` linesearch trials, both read from the pass's traces."""
    solve_s = spans.inclusive_s("solver.run")
    solves = spans.calls("ball_prox.solve")
    solver_self = spans.self_s("solver.run")
    return {
        "cones.calls_per_iter": spans.entries("cones") / iters,
        "cones.self_s": spans.self_s("cones"),
        "cones.share": spans.inclusive_s("cones") / solve_s,
        "problems.G.calls_per_iter": spans.calls("problems.G") / iters,
        "problems.G.self_s": spans.self_s("problems.G"),
        "problems.G_adj.calls_per_iter": spans.calls("problems.G_adj") / iters,
        "problems.G_adj.self_s": spans.self_s("problems.G_adj"),
        "problems.f.calls_per_iter": spans.calls("problems.f") / iters,
        "problems.f.self_s": spans.self_s("problems.f"),
        "problems.p1_prox.self_s": spans.self_s("problems.p1.prox"),
        "problems.p2.self_s": spans.self_s("problems.p2"),
        "ball_prox.solves": float(solves),
        "ball_prox.prox_evals_per_solve":
            spans.calls_under("problems.p1.prox", "ball_prox.solve") / max(solves, 1),
        "ball_prox.self_s": spans.self_s("ball_prox"),
        "ball_prox.share": spans.inclusive_s("ball_prox") / solve_s,
        "solver.trials_per_iter": trials / iters,
        "solver.accept_frac": iters / trials,
        "solver.self_s": solver_self,
        "solver.bb_init.self_s": spans.self_s("solver.bb_init"),
        "schedules.mu_at.us_per_call":
            1e6 * spans.inclusive_s("schedules.mu_at") / max(spans.calls("schedules.mu_at"), 1),
        "schedules.self_s": spans.self_s("schedules"),
        "diagnostics.calls_per_iter": spans.entries("diagnostics") / iters,
        "diagnostics.self_s": spans.self_s("diagnostics"),
        # share of the solve spent inside a layer span below the solver itself
        "trace.coverage": (solve_s - solver_self) / solve_s,
    }
