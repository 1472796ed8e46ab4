"""Entries kept in a walk's store never change an answer, and never keep the walk alive.

A walk keeps its exit laws (the four domains built last), capture series
(the four (i, j, taboo) triples built last, each with its certified solve),
invariant state, decomposition and irreducibility verdict.  A random
sequence of queries on one walk, over enough domains and series that the
oldest are dropped and built again, must give every answer, bit for bit,
that the same query gives on a freshly built walk.  No entry references its
walk, so a walk is freed with its last reference, cyclic collector or not.
"""

import gc
import weakref
from dataclasses import is_dataclass
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oqw
from oqw import fixtures, hitting
from oqw.errors import NumericalError, OQWError
from oqw.hitting import capture_series
from oqw.walk import KEPT_PER_KIND

from test_site_graph import walks


def bits(x):
    """``x`` as nested tuples of bytes, names and exact values."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return tuple((k, bits(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(map(bits, x))
    if is_dataclass(x):
        return type(x).__name__, bits(vars(x))
    return x


def answer(walk, query):
    name, args = query
    try:
        return bits(getattr(oqw, name)(walk, *args))
    except OQWError as exc:
        return type(exc).__name__, str(exc)


def fresh(walk):
    return oqw.WalkSpec(walk.sites, walk.dims, walk.transitions, walk.tolerance)


@st.composite
def query_runs(draw):
    walk = draw(walks())
    domains = [d for k in range(1, len(walk.sites)) for d in combinations(walk.sites, k)
               if oqw.boundary(walk, d)]
    assume(len(domains) >= 5)
    chosen = draw(st.lists(st.sampled_from(domains), min_size=5, max_size=8, unique=True))
    queries = []
    for domain in chosen + draw(st.lists(st.sampled_from(chosen), max_size=4)):
        i = draw(st.sampled_from(domain))
        name = draw(st.sampled_from(["harmonic_measure", "exit_probability"]))
        queries.append((name, (list(domain), i, np.eye(walk.dims[i]) / walk.dims[i])))
    sites = st.sampled_from(walk.sites)
    pairs = draw(st.lists(st.tuples(sites, sites), min_size=5, max_size=8, unique=True))
    for i, j in pairs + draw(st.lists(st.sampled_from(pairs), max_size=4)):
        name = draw(st.sampled_from(["passage_probability", "expected_visits",
                                     "expected_return_time", "conditional_state_at_hit",
                                     "taboo_operator", "classify_recurrence"]))
        args = (i, np.eye(walk.dims[i]) / walk.dims[i], j)
        if name == "taboo_operator":
            args = (i, j, draw(st.lists(sites, max_size=2)))
        elif name == "classify_recurrence":
            args = (j, False)
        queries.insert(draw(st.integers(0, len(queries))), (name, args))
    for name in ("invariant_state", "decompose", "is_irreducible"):
        queries.insert(draw(st.integers(0, len(queries))), (name, ()))
    return walk, queries


@settings(derandomize=True, max_examples=100, deadline=None)
@given(query_runs())
def test_kept_entries_never_change_an_answer(run):
    walk, queries = run
    for query in queries:
        assert answer(walk, query) == answer(fresh(walk), query), query[0]
    assert sum(key[0] == "domain" for key in walk._store) <= KEPT_PER_KIND
    assert sum(key[0] == "series" for key in walk._store) <= KEPT_PER_KIND


def test_no_kept_entry_keeps_its_walk_alive():
    # with the cyclic collector off, a walk that holds every kind of kept
    # entry is freed as soon as its last reference goes: no entry refers back
    # to the walk, so the store makes no reference cycle
    enabled = gc.isenabled()
    gc.disable()
    try:
        walk = fixtures.example_three_site_trap()   # reducible: estimate_kac restricts it
        rho = np.eye(2) / 2
        oqw.harmonic_measure(walk, ["0"], "0", rho)
        oqw.expected_visits(walk, "0", rho, "1")
        oqw.decompose(walk), oqw.is_irreducible(walk), oqw.invariant_state(walk)
        oqw.estimate_hitting(walk, "0", rho, "1", n_traj=20, horizon=10, seed=1)
        oqw.estimate_kac(walk, "0", n_traj=20, k_max=5, seed=1)
        assert {key[0] for key in walk._store} == {
            "kraus", "invariant", "decomposition", "irreducibility", "domain", "series",
            "sampler", "restricted"}
        alive = weakref.ref(walk)
        del walk
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_first_passage_queries_share_one_certified_solve(monkeypatch):
    walk = fixtures.example_lattice_nonnormal(6, "absorbing")
    systems, certify = [], hitting._certify   # the system of every certifying solve
    monkeypatch.setattr(hitting, "_certify",
                        lambda A, *rest: systems.append(A) or certify(A, *rest))
    rho = np.diag([0.3, 0.7])
    for _ in range(3):
        oqw.passage_probability(walk, "0", rho, "0")
        oqw.taboo_operator(walk, "0", "0")
        oqw.expected_return_time(walk, "0", rho, "0")
        oqw.conditional_state_at_hit(walk, "0", rho, "0")
        oqw.expected_visits(walk, "0", rho, "0")   # and a solve for its first-visit state
        oqw.alpha_operator(walk, "0", "0", alpha=0.5)   # a new weighted solve every call
    A = capture_series(walk, "0", "0").A
    assert sum(a is A for a in systems) == 1
    assert len(systems) == 1 + 3 + 3
    # visits from i != j: the (i, j) and (j, j) series certify once each, and
    # each call solves its own return series for its first-visit state
    walk = fresh(walk)
    del systems[:]
    for _ in range(3):
        oqw.expected_visits(walk, "1", rho, "0")
    kept = [capture_series(walk, "1", "0").A, capture_series(walk, "0", "0").A]
    assert [[a is b for b in kept] for a in systems] == [
        [True, False], [False, True]] + [[False, False]] * 3


def test_site_ids_are_normalised_before_the_store_is_read():
    walk = fixtures.random_doubly_stochastic(4, 2, seed=3)
    first = capture_series(walk, 0, 0, taboo=[2])
    again = capture_series(walk, "0", "0", taboo=("2",))
    assert again.A is first.A and again._solved is first._solved
    assert [key for key in walk._store if key[0] == "series"] == [
        ("series", "0", "0", frozenset({"2"}))]
    assert first.walk is again.walk is walk


def test_a_fifth_series_drops_the_oldest():
    walk = fixtures.random_doubly_stochastic(4, 2, seed=3)
    triples = [("0", "0", ()), ("0", "1", ()), ("1", "0", ()), ("0", "0", ("1",)),
               ("2", "3", ())]
    first = capture_series(walk, *triples[0]).A
    for triple in triples[1:]:
        capture_series(walk, *triple)
    assert [key[1:] for key in walk._store if key[0] == "series"] == [
        (i, j, frozenset(taboo)) for i, j, taboo in triples[1:]]
    assert KEPT_PER_KIND == 4 and capture_series(walk, *triples[0]).A is not first


@pytest.mark.parametrize("n", [6, 20], ids=["dense", "sparse"])
def test_kept_arrays_are_read_only(n):
    walk = fixtures.example_lattice_nonnormal(n, "absorbing")
    series = capture_series(walk, "0", "0")
    A = series.A
    arrays = [series.E, series.C, series.solved.x]
    arrays += [A] if isinstance(A, np.ndarray) else [A.data, A.indices, A.indptr]
    assert isinstance(A, np.ndarray) is (A.shape[0] < hitting.SPARSE_MIN_UNKNOWNS)
    blocks, law = hitting._exit_law(walk, [walk._index["0"]], hitting._boundary(
        walk, [walk._index["0"]]))
    arrays += [blocks.K_out, law.x]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0


def test_a_refused_solve_is_refused_again_and_keeps_nothing():
    walk = fixtures.example_half_line(0.75, 20)
    with pytest.raises(NumericalError) as first:
        oqw.taboo_operator(walk, "0", "cut+")
    assert capture_series(walk, "0", "cut+")._solved == []
    with pytest.raises(NumericalError) as again:
        oqw.taboo_operator(walk, "0", "cut+")
    assert (str(again.value), again.value.diagnostics) == (str(first.value),
                                                           first.value.diagnostics)
    assert capture_series(walk, "0", "cut+")._solved == []
