"""One checked pass of the benchmark's workloads.

``bench/workloads.py`` calls the public ``oqw`` API and checks every answer
against references it computes itself (closed forms, dense solves written
from the transition blocks, the Kac target of example-5.4).  One pass of the
queries of every workload here makes a library change that breaks what the
benchmark calls or reads fail in the test suite; mc-lattice's second query
runs on the class table its first one leaves on the walk.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True   # leave the benchmark's directory as it is
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def workloads():
    yield load("bench_workloads", BENCH / "workloads.py")
    del sys.modules["bench_workloads"]


@pytest.fixture(scope="module")
def tracing():
    yield load("bench_tracing", BENCH / "tracing.py")
    del sys.modules["bench_tracing"]


@pytest.mark.parametrize("name", ["exact-lattice", "domain-dirichlet", "mc-kac", "mc-lattice"])
def test_benchmark_queries_pass_their_checks(workloads, name):
    build, queries = workloads.WORKLOADS[name]
    failures = {}
    for query in queries(build(1)):
        message = query.check(query.run())
        if message is not None:
            failures[query.label] = message
    assert failures == {}


@pytest.mark.parametrize("name", ["mc-kac", "mc-lattice"])
def test_traced_trajectory_steps_match_the_estimates(workloads, tracing, name):
    # the benchmark counts trajectory-steps by wrapping the ensemble's step and
    # checks the count against the one its estimates imply: one estimate_kac
    # call (1000 trajectories, 500 returns each) and one estimate_hitting call
    # without visits (5000 trajectories, a decaying live set)
    build, queries = workloads.WORKLOADS[name]
    query = queries(build(1))[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        answer = query.run()
    finally:
        tracer.uninstall()
    assert tracing.Tracer.leftover_wrappers() == []
    assert query.check(answer) is None
    assert tracer.counts["trajectory.traj_steps"] == query.traj_steps(answer) > 0


def test_every_traced_name_resolves(tracing):
    # Tracer.install skips a (module, attribute) it cannot find without a word,
    # so a function moved to another module would drop its per-layer metric
    import importlib

    missing = []
    for module, attr in tracing.SPANS:
        owner = importlib.import_module(f"oqw.{module}")
        cls, _, name = attr.rpartition(".")
        owner = vars(getattr(owner, cls)) if cls else vars(owner)
        if not callable(owner.get(name)):
            missing.append(f"{module}.{attr}")
    assert missing == []
