#!/usr/bin/env python3
"""Benchmark of oqw: exact solvers and the trajectory sampler.

Run from the root of a checkout:

    python3 bench/run.py --workload exact-lattice --seed 1 --seconds 18 --trace 0

Workloads (see ``workloads.py``): ``exact-lattice``, ``domain-dirichlet``,
``mc-lattice`` and ``mc-kac``.  The seed generates every input.  The run
builds the inputs, computes the reference answers, makes one warm-up pass
over the workload's fixed query list and then repeats timed passes for
``--seconds``.  Every answer of every pass is checked against its reference
and against the first pass bit for bit.

With ``--trace 0`` the end-to-end metrics are reported: ``setup_s`` (median
of several fresh processes that import ``oqw`` and build the inputs),
``wall_rel`` and ``cpu_rel`` (one pass, as the sum over queries of the median
across passes of the query's time divided by that of a calibration kernel
timed just before it) and ``peak_rss_mb``.  A report line before the result
adds the raw ``wall_s`` and ``cpu_s``, the per-operation times,
``failed_frac``, trajectory-steps per second and the environment.  With ``--trace 1`` untraced and traced passes
alternate, and the per-layer metrics come from spans recorded around the
public functions of each module (``tracing.py``); the spans of the last
traced pass are written to ``bench/out``.

BLAS and OpenMP are pinned to one thread before numpy is imported.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import numpy as np  # noqa: E402  (after the BLAS pin)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("exact-lattice", "domain-dirichlet", "mc-lattice", "mc-kac")
WAITED = "not measured: no layer of oqw has a queue or a lock"

END_TO_END = {"setup_s": "s", "wall_rel": "kernel", "cpu_rel": "kernel", "peak_rss_mb": "MB"}
# Calibration kernel: eigenvalues of a fixed complex matrix, independent of
# oqw, timed (median of 3) before every query.  On a shared 2-core virtual
# machine each core switches for seconds at a time between speeds up to 2x
# apart; the query's time over the kernel's cancels most of that switch.
KERNEL_N = 120
KERNEL_REPEATS = 3


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    from tracing import SPANS

    units = {}
    for mod, attr in SPANS:
        if mod == "fixtures" or attr.startswith("_"):
            continue
        units[f"{mod}.{attr}.calls"] = "count"
        units[f"{mod}.{attr}.self_s"] = "s"
    units.update({
        "linalg.spectral_radius.max_n": "count",
        "hitting.unknowns": "count",
        "hitting.dense_bytes": "B-computed",
        "hitting.alpha_limit_frac": "frac",
        "trajectory.traj_steps": "count",
        "trajectory.lockstep_iters": "count",
        "trajectory.live_frac": "frac",
        "trajectory.renormalized_steps": "count",
        "trajectory.ensemble_setup_s": "s",
        "fixtures.builders.calls": "count",
        "fixtures.builders.self_s": "s",
        "setup.fixtures.calls": "count",
        "setup.fixtures.self_s": "s",
        "setup.build_s": "s",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.coverage": "frac",
        "trace.spans": "count",
        "trace.bindings": "count",
    })
    return units


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_oqw():
    """Make ``src/oqw`` of this checkout importable and import the workloads."""
    if not (SRC / "oqw" / "__init__.py").is_file():
        raise SystemExit(f"error: no oqw sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import oqw
    import workloads

    if Path(oqw.__file__).resolve().parent != SRC / "oqw":
        raise SystemExit(f"error: imported oqw from {oqw.__file__}, not from {SRC}")
    return workloads


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(args) -> None:
    """Print the time to import oqw and build the inputs.

    numpy is already loaded: the runner imports it right after pinning BLAS.
    """
    t0 = time.perf_counter()
    workloads = import_oqw()
    build, _ = workloads.WORKLOADS[args.workload]
    build(args.seed)
    print(json.dumps(time.perf_counter() - t0))


def measure_setup(args) -> float:
    """Set-up time of a fresh process: import oqw and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# passes


def fingerprint(x) -> bytes:
    """Canonical bytes of an answer, for bit-for-bit comparison."""
    if isinstance(x, dict):
        return b"{" + b",".join(repr(k).encode() + b":" + fingerprint(v)
                                for k, v in sorted(x.items())) + b"}"
    if isinstance(x, (list, tuple)):
        return b"[" + b",".join(fingerprint(v) for v in x) + b"]"
    if isinstance(x, np.ndarray):
        return repr((x.dtype.str, x.shape)).encode() + x.tobytes()
    if isinstance(x, (float, np.floating)):
        return float(x).hex().encode()
    return repr(x).encode()


class Runner:
    def __init__(self, queries):
        self.queries = queries
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_prints: list[bytes | None] = [None] * len(queries)
        self.traj_steps: list[int | None] = [None] * len(queries)
        rng = np.random.default_rng(0)
        shape = (KERNEL_N, KERNEL_N)
        self.kernel = rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def kernel_time(self) -> float:
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            np.linalg.eigvals(self.kernel)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def run_pass(self, tracer=None) -> dict:
        """One pass over the query list; checks happen after the timed calls."""
        walls, cpus, kernels, answers, errors = [], [], [], [], []
        for q in self.queries:
            kernels.append(self.kernel_time())
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                if tracer is None:
                    ans = q.run()
                else:
                    with tracer.top(f"query.{q.kind}"):
                        ans = q.run()
                err = None
            except Exception as exc:  # a failing query is counted, the run goes on
                ans, err = None, f"{type(exc).__name__}: {exc}"
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            answers.append(ans)
            errors.append(err)
        for k, (q, ans, err) in enumerate(zip(self.queries, answers, errors)):
            self.attempted += 1
            if err is None:
                err = q.check(ans)
            if err is None:
                fp = fingerprint(ans)
                if self.reference_prints[k] is None:
                    self.reference_prints[k] = fp
                    if q.traj_steps is not None:
                        self.traj_steps[k] = q.traj_steps(ans)
                elif fp != self.reference_prints[k]:
                    err = "answer differs bit for bit from the first pass"
            if err is not None:
                self.failures.append(f"{q.label}: {err}")
        return {"walls": walls, "cpus": cpus, "kernels": kernels}


def per_query(passes: list[dict], key: str, relative: bool = False) -> list[float]:
    """Per-query medians across passes, of the time or of its ratio to the kernel's."""
    def value(p, k):
        return p[key][k] / p["kernels"][k] if relative else p[key][k]

    return [statistics.median(value(p, k) for p in passes) for k in range(len(passes[0][key]))]


def environment(args, queries) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN}, "blas": blas,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "queries": [{"kind": q.kind, "label": q.label, "size": q.size} for q in queries],
    }


def timed_passes(runner: Runner, seconds: float, tracer=None, between=None):
    """Warm-up pass, then passes until ``seconds`` have been measured.

    With a tracer, untraced and traced passes alternate.  ``between`` is
    called after every pass, outside the timed calls.
    """
    runner.run_pass()
    plain, traced, trace_rows = [], [], []
    start = time.perf_counter()
    while not plain or (tracer is not None and not traced) \
            or time.perf_counter() - start < seconds:
        plain.append(runner.run_pass())
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
            trace_rows.append((list(tracer.spans), dict(tracer.counts),
                               sum(traced[-1]["walls"])))
        if between is not None:
            between()
    return plain, traced, trace_rows


def end_to_end(args, queries, runner: Runner) -> tuple[dict, dict]:
    # set-up probes are spread over the run so that they see the same mix of
    # machine speeds as the passes
    setup = []
    plain, _, _ = timed_passes(runner, args.seconds,
                               between=lambda: setup.append(measure_setup(args)))
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(args))
    walls, cpus = per_query(plain, "walls"), per_query(plain, "cpus")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_rel": sum(per_query(plain, "walls", relative=True)),
        "cpu_rel": sum(per_query(plain, "cpus", relative=True)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # every metric of the workload, by name and unit, beside the gated ones
    named = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    named["wall_s"] = {"value": sum(walls), "unit": "s"}
    named["cpu_s"] = {"value": sum(cpus), "unit": "s"}
    named["kernel_s"] = {"value": statistics.median(k for p in plain for k in p["kernels"]),
                         "unit": "s"}
    named["failed_frac"] = {"value": len(runner.failures) / max(runner.attempted, 1),
                            "unit": "frac"}
    for kind in dict.fromkeys(q.kind for q in queries if q.traj_steps is None):
        named[f"{kind}_s"] = {"value": sum(w for q, w in zip(queries, walls) if q.kind == kind),
                              "unit": "s"}
    steps = [(s, w) for s, w in zip(runner.traj_steps, walls) if s is not None]
    if steps:
        total = sum(s for s, _ in steps)
        named["traj_steps"] = {"value": total, "unit": "count"}
        named["traj_steps_per_s"] = {"value": total / sum(w for _, w in steps), "unit": "1/s"}
    extra = {"metrics": named, "passes": len(plain), "setup_samples_s": setup,
             "query_walls_s": [p["walls"] for p in plain],
             "query_kernels_s": [p["kernels"] for p in plain],
             "query_wall_s": {q.label: w for q, w in zip(queries, walls)}}
    return metrics, extra


def per_layer(args, runner: Runner, setup_row) -> tuple[dict, dict]:
    from tracing import SPANS, Tracer, self_times

    tracer = Tracer()
    plain, traced, rows = timed_passes(runner, args.seconds, tracer)
    untraced_wall = sum(per_query(plain, "walls"))
    traced_wall = sum(per_query(traced, "walls"))
    per_pass = []
    for spans, counts, pass_wall in rows:
        st = self_times(spans)
        m = {}
        for mod, attr in SPANS:
            if mod == "fixtures" or attr.startswith("_"):
                continue
            calls, self_s = st.get(f"{mod}.{attr}", (0, 0.0))
            m[f"{mod}.{attr}.calls"] = calls
            m[f"{mod}.{attr}.self_s"] = self_s
        fx = [v for k, v in st.items() if k.startswith("fixtures.")]
        m["fixtures.builders.calls"] = sum(c for c, _ in fx)
        m["fixtures.builders.self_s"] = sum(s for _, s in fx)
        m["trajectory.ensemble_setup_s"] = st.get("trajectory._Ensemble.__init__", (0, 0.0))[1]
        for key in ("linalg.spectral_radius.max_n", "hitting.unknowns", "hitting.dense_bytes",
                    "trajectory.traj_steps", "trajectory.lockstep_iters",
                    "trajectory.renormalized_steps"):
            m[key] = int(counts.get(key, 0))
        ops = m["hitting.taboo_operator.calls"]
        m["hitting.alpha_limit_frac"] = \
            counts.get("hitting.taboo_operator.alpha_limit", 0) / ops if ops else 0.0
        cap = counts.get("trajectory.capacity", 0)
        m["trajectory.live_frac"] = m["trajectory.traj_steps"] / cap if cap else 0.0
        top = sum(e - s for name, s, e, parent in spans if parent < 0)
        m["trace.coverage"] = top / pass_wall
        m["trace.spans"] = len(spans)
        per_pass.append(m)
    metrics = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key.endswith("_s") or key == "trace.coverage":
            metrics[key] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                runner.failures.append(f"count {key} differs between traced passes: {values}")
            metrics[key] = values[0]
    expected_steps = sum(s for s in runner.traj_steps if s is not None)
    if metrics["trajectory.traj_steps"] != expected_steps:
        runner.failures.append(
            f"traced trajectory-steps {metrics['trajectory.traj_steps']} != "
            f"{expected_steps} derived from the estimates")
    setup_spans, setup_wall = setup_row
    fx = [v for k, v in self_times(setup_spans).items() if k.startswith("fixtures.")]
    metrics.update({
        "setup.fixtures.calls": sum(c for c, _ in fx),
        "setup.fixtures.self_s": sum(s for _, s in fx),
        "setup.build_s": setup_wall,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.bindings": tracer.bindings,
    })
    leftovers = tracer.leftover_wrappers()
    if leftovers:
        runner.failures.append(f"bindings not restored after tracing: {leftovers}")
    write_spans(args, rows[-1][0], setup_spans)
    extra = {"passes_untraced": len(plain), "passes_traced": len(traced), "waited": WAITED}
    return metrics, extra


def write_spans(args, spans, setup_spans) -> None:
    def rows(ss):
        t0 = ss[0][1] if ss else 0.0
        return [[n, round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in ss]

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "start_s", "end_s", "parent"],
                   "setup": rows(setup_spans), "pass": rows(spans)}, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    workloads = import_oqw()
    build, make_queries = workloads.WORKLOADS[args.workload]
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.top("setup"):
                inputs = build(args.seed)
            setup_row = (list(tracer.spans), time.perf_counter() - t0)
        finally:
            tracer.uninstall()
    else:
        inputs = build(args.seed)
    queries = make_queries(inputs)
    runner = Runner(queries)
    if args.trace:
        metrics, extra = per_layer(args, runner, setup_row)
        units = per_layer_units()
    else:
        metrics, extra = end_to_end(args, queries, runner)
        units = END_TO_END
    if set(metrics) != set(units):
        raise SystemExit(f"error: metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report = {"environment": environment(args, queries), **extra,
              "failures": runner.failures[:20]}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
