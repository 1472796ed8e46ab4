"""One checked pass of the benchmark's exact workloads.

``bench/workloads.py`` calls the public ``oqw`` API and checks every answer
against references it computes itself (closed forms, dense solves written
from the transition blocks).  One pass of its exact-lattice and
domain-dirichlet queries here makes a library change that breaks what the
benchmark calls or reads fail in the test suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True   # leave the benchmark's directory as it is
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["exact-lattice", "domain-dirichlet"])
def test_benchmark_queries_pass_their_checks(workloads, name):
    build, queries = workloads.WORKLOADS[name]
    failures = {}
    for query in queries(build(1)):
        message = query.check(query.run())
        if message is not None:
            failures[query.label] = message
    assert failures == {}
