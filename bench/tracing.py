"""Span tracing installed from outside the library.

``Tracer.install()`` replaces every binding of the listed public functions
in the loaded ``oqw`` modules (aliases included, e.g. ``dirichlet``'s
``domain_boundary``) with a wrapper that records a span, and
``Tracer.uninstall()`` puts every original object back.  Spans are kept in
memory as ``[name, start, end, parent]`` rows, ``parent`` being the row index
of the enclosing span or -1.  Counters that the library does not report
itself (problem sizes, trajectory-steps) are taken from arguments and
results at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute) pairs timed as spans; "Class.method" names a method.
SPANS = (
    ("linalg", "spectral_radius"),
    ("linalg", "psd_sqrt"),
    ("linalg", "extend_basis"),
    ("hitting", "capture_series"),
    ("hitting", "CaptureSeries.matrix"),
    ("hitting", "taboo_operator"),
    ("hitting", "passage_probability"),
    ("hitting", "expected_visits"),
    ("hitting", "expected_return_time"),
    ("hitting", "domain_operator"),
    ("hitting", "harmonic_measure"),
    ("hitting", "exit_probability"),
    ("dirichlet", "solve_dirichlet_domain"),
    ("dirichlet", "harmonic_operator"),
    ("dirichlet", "diamond_inner"),
    ("dirichlet", "variational_solve"),
    ("walk", "dual_apply"),
    ("superop", "invariant_state"),
    ("structure", "is_irreducible"),
    ("structure", "enclosure_closure"),
    ("structure", "classify_recurrence"),
    ("trajectory", "estimate_hitting"),
    ("trajectory", "estimate_kac"),
    ("trajectory", "_Ensemble.__init__"),
    ("cli", "main"),
    ("cli", "load_walk"),
    ("serialize", "result_document"),
    ("serialize", "walk_digest"),
    ("fixtures", "build_fixture"),
    ("fixtures", "example_lattice_nonnormal"),
    ("fixtures", "example_half_line"),
    ("fixtures", "example_branch_return"),
    ("fixtures", "gamblers_ruin"),
    ("fixtures", "random_doubly_stochastic"),
)

COMPLEX_BYTES = 16


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []
        self.bindings = 0

    # -- recording ---------------------------------------------------------

    def top(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _observe(self, name: str, args, result) -> None:
        c = self.counts
        if name == "linalg.spectral_radius":
            c["linalg.spectral_radius.max_n"] = max(
                c["linalg.spectral_radius.max_n"], args[0].shape[0])
        elif name == "hitting.capture_series":
            c["hitting.unknowns"] += result.S.shape[0]
            c["hitting.dense_bytes"] += COMPLEX_BYTES * (
                result.S.shape[0] * result.S.shape[1]
                + result.E.shape[0] * result.E.shape[1]
                + result.C.shape[0] * result.C.shape[1])
        elif name == "hitting.taboo_operator":
            c["hitting.taboo_operator.alpha_limit"] += (
                result.diagnostics.get("method") == "alpha_limit")
        elif name == "trajectory.estimate_hitting":
            c["trajectory.renormalized_steps"] += result["renormalized_steps"]
        elif name == "trajectory.estimate_kac":
            c["trajectory.renormalized_steps"] += result.diagnostics["renormalized_steps"]

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._observe(name, args, result)
            return result

        functools.update_wrapper(traced, fn)
        traced.bench_traced = True
        return traced

    def _count_steps(self, fn):
        counts = self.counts

        def step(ens):
            live = int(ens.active.sum())
            if live:
                counts["trajectory.traj_steps"] += live
                counts["trajectory.lockstep_iters"] += 1
                counts["trajectory.capacity"] += ens.n
            return fn(ens)

        functools.update_wrapper(step, fn)
        step.bench_traced = True
        return step

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "oqw" or n.startswith("oqw."))]
        for mod_name, attr in SPANS:
            owner = sys.modules.get(f"oqw.{mod_name}")
            if owner is None:
                continue
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._set(cls, meth, self._wrap(name, vars(cls)[meth]))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        ens = getattr(sys.modules.get("oqw.trajectory"), "_Ensemble", None)
        if ens is not None and "step" in vars(ens):
            self._set(ens, "step", self._count_steps(vars(ens)["step"]))
        self.bindings = len(self._restore)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Wrappers still bound in a loaded oqw module or class (should be none)."""
        found = []
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "oqw" or name.startswith("oqw.")):
                continue
            for key, value in vars(mod).items():
                if getattr(value, "bench_traced", False):
                    found.append(f"{name}.{key}")
                if isinstance(value, type) and value.__module__ == name:
                    found += [f"{name}.{key}.{k}" for k, v in vars(value).items()
                              if getattr(v, "bench_traced", False)]
        return found

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per-name (calls, self seconds): duration minus the children's durations.

    Children of one span never overlap (the program is single-threaded), so
    the part of a span covered by its children is the sum of their lengths.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for k, (name, start, end, parent) in enumerate(spans):
        row = out[name]
        row[0] += 1
        row[1] += (end - start) - child[k]
    return {k: (v[0], v[1]) for k, v in out.items()}
