"""Entries kept in a walk's store never change an answer, and never keep the walk alive.

A walk keeps its exit laws (the four domains built last), capture series
(the four (target, taboo) pairs built last, each with its certified law, which
every start reads), invariant state, decomposition and irreducibility verdict.  A random
sequence of queries on one walk, over enough domains and series that the
oldest are dropped and built again, must give every answer, bit for bit,
that the same query gives on a freshly built walk.  No entry references its
walk, so a walk is freed with its last reference, cyclic collector or not.
"""

import gc
import math
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
        oqw.expected_visits(walk, "0", rho, "0")   # and its return-map solve, once
        oqw.alpha_operator(walk, "0", "0", alpha=0.5)   # a new weighted solve every call
    A = capture_series(walk, "0", "0").A
    assert sum(a is A for a in systems) == 1
    assert len(systems) == 1 + 1 + 3
    # visits from i != j: the (i, j) and (j, j) series read one law for j,
    # certified once, and the return map's solve kept with it serves every
    # first-visit state
    walk = fresh(walk)
    del systems[:]
    for _ in range(3):
        oqw.expected_visits(walk, "1", rho, "0")
    kept = [capture_series(walk, "1", "0").A, capture_series(walk, "0", "0").A]
    assert kept[0] is kept[1]
    assert [[a is b for b in kept] for a in systems] == [[True, True], [False, False]]


def test_visits_certify_twice_per_target(monkeypatch):
    # three rounds of visits from all 15 sites to "0" certify j's law and its
    # return map's solve once each; a second target adds its own two
    walk = fixtures.example_lattice_nonnormal(6)
    calls, certify = [], hitting._certify
    monkeypatch.setattr(hitting, "_certify", lambda *args: calls.append(1) or certify(*args))
    rho = np.diag([0.3, 0.7])
    for _ in range(3):
        for i in walk.sites:
            oqw.expected_visits(walk, i, rho, "0")
    assert len(walk.sites) == 15 and len(calls) == 2
    oqw.expected_visits(walk, "0", rho, "1")
    assert len(calls) == 4


def test_site_ids_are_normalised_before_the_store_is_read():
    # the fixture's irreducibility assertion keeps the return series at "0"
    walk = fixtures.random_doubly_stochastic(4, 2, seed=3)
    first = capture_series(walk, 0, 0, taboo=[2])
    again = capture_series(walk, "0", "0", taboo=("2",))
    assert again.A is first.A and again.blocks is first.blocks
    assert [key for key in walk._store if key[0] == "series"] == [
        ("series", "0", frozenset()), ("series", "0", frozenset({"2"}))]
    assert first.walk is again.walk is walk


def test_a_fifth_series_drops_the_oldest():
    # the store keeps one series per (target, taboo): a new start to a kept
    # target adds nothing, a fifth target drops the oldest
    walk = fixtures.random_doubly_stochastic(4, 2, seed=3)
    triples = [("0", "0", ()), ("0", "1", ()), ("1", "2", ()), ("0", "0", ("1",)),
               ("2", "3", ())]
    first = capture_series(walk, *triples[0]).A
    for triple in triples[1:]:
        capture_series(walk, *triple)
        capture_series(walk, "3", *triple[1:])
    assert [key[1:] for key in walk._store if key[0] == "series"] == [
        (j, frozenset(taboo)) for i, j, taboo in triples[1:]]
    assert KEPT_PER_KIND == 4 and capture_series(walk, *triples[0]).A is not first


@pytest.mark.parametrize("n", [6, 20], ids=["dense", "sparse"])
def test_kept_arrays_are_read_only(n):
    walk = fixtures.example_lattice_nonnormal(n, "absorbing")
    series = capture_series(walk, "0", "0")
    oqw.expected_visits(walk, "0", np.eye(2) / 2, "0")   # keeps the return map's solve
    A = series.A
    arrays = [series.C, *series.blocks._kept.values(), series.blocks._kept["visits"].A]
    line = fixtures.example_half_line(0.75, 10 * n)
    oqw.expected_return_time(line, "0", np.eye(2) / 2, "0")   # keeps the return-time vector
    arrays += [capture_series(line, "0", "0").blocks._kept["time"]]
    assert len(arrays) == 5
    arrays += [A] if isinstance(A, np.ndarray) else [A.data, A.indices, A.indptr]
    assert isinstance(A, np.ndarray) is (A.shape[0] < hitting.SPARSE_MIN_UNKNOWNS)
    blocks, law = hitting._exit_law(walk, [walk._index["0"]], hitting._boundary(
        walk, [walk._index["0"]]))
    arrays += [blocks.K_out, law.x]
    arrays = [a.x if isinstance(a, hitting.DomainSolve) else a for a in arrays]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0


def test_a_refused_solve_is_refused_again_and_keeps_nothing():
    walk = fixtures.example_half_line(0.75, 20)
    with pytest.raises(NumericalError) as first:
        oqw.taboo_operator(walk, "0", "cut+")
    assert capture_series(walk, "0", "cut+").blocks._kept == {}
    with pytest.raises(NumericalError) as again:
        oqw.taboo_operator(walk, "0", "cut+")
    assert (str(again.value), again.value.diagnostics) == (str(first.value),
                                                           first.value.diagnostics)
    assert capture_series(walk, "0", "cut+").blocks._kept == {}


def test_a_start_with_no_step_into_the_interior_reads_no_law(monkeypatch):
    # "cut+" steps only onto itself, so its view of the series into "cut+" is
    # the empty system: the direct block, with no law read or certified, while
    # a start that steps into the interior still meets the refused law
    walk = fixtures.example_half_line(0.75, 20)
    calls, certify = [], hitting._certify
    monkeypatch.setattr(hitting, "_certify", lambda *args: calls.append(1) or certify(*args))
    op = oqw.taboo_operator(walk, "cut+", "cut+")
    assert calls == []
    assert np.array_equal(op.matrix, walk.kraus("cut+", "cut+"))
    assert op.diagnostics == {"method": "solve", "radius_bound": 0.0,
                              "radius_source": "certificate", "residual": 0.0}
    series = capture_series(walk, "cut+", "cut+")
    assert series.interior == () and series.S.shape == (0, 0)
    assert capture_series(walk, "0", "cut+").interior != ()
    with pytest.raises(NumericalError) as refused:
        oqw.taboo_operator(walk, "0", "cut+")
    assert str(refused.value) == ("the series is not certified convergent, "
                                  "and its near-fixed part is not trapped")
    assert refused.value.diagnostics == {"radius_bound": math.inf, "trap_defect": 0.25,
                                         "trapped_sites": []}


def _with_chain(walk, target):
    """``walk`` with two new scalar sites "x" -> "y" -> ``target``, each step sure."""
    one = np.ones((1, 1))
    return oqw.WalkSpec((*walk.sites, "x", "y"), {**walk.dims, "x": 1, "y": 1},
                        {**walk.transitions, ("y", "x"): one, (target, "y"): one},
                        tolerance=walk.tolerance)


def test_a_start_reaching_part_of_a_refused_interior_solves_its_part():
    # every half-line site reaches "cut+", and that law is refused; "x" reaches
    # only "y", so its series solves on ("y",) alone and answers as before
    walk = _with_chain(fixtures.example_half_line(0.75, 20), "cut+")
    one = np.ones((1, 1))
    series = capture_series(walk, "x", "cut+")
    assert series.interior == ("y",)
    op = oqw.taboo_operator(walk, "x", "cut+")
    assert np.array_equal(op.matrix, one)
    assert op.diagnostics == {"method": "solve", "radius_bound": 0.0,
                              "radius_source": "certificate", "residual": 0.0}
    assert oqw.passage_probability(walk, "x", one, "cut+") == 1.0
    assert oqw.expected_return_time(walk, "x", one, "cut+").value == 2.0
    assert oqw.passage_probability(walk, "y", one, "cut+") == 1.0
    with pytest.raises(NumericalError, match="near-fixed part is not trapped"):
        oqw.taboo_operator(walk, "0", "cut+")
    # "0" reaches all but "y" of the kept system, and meets the refusal there
    half_line = tuple(map(str, range(21)))
    assert capture_series(walk, "0", "cut+").interior == half_line
    assert walk._store[("series", "cut+", frozenset())].inner.sites == (*half_line, "x", "y")


def test_a_start_reaching_no_trapped_site_reads_no_trap():
    # "a" keeps e1 forever and sends e2 to "j"; "x" -> "y" -> "j" never meets
    # "a", so its series is the untrapped one on ("y",), while "a"'s own is
    # compressed off its trap
    one = np.ones((1, 1), dtype=complex)
    base = oqw.WalkSpec(("j", "a"), {"j": 1, "a": 2},
                        {("j", "j"): one, ("a", "a"): np.diag([1.0, 0.0]).astype(complex),
                         ("j", "a"): np.array([[0.0, 1.0]], dtype=complex)})
    walk = _with_chain(base, "j")
    for _ in range(2):   # cold, then with the law for "j" kept
        op = oqw.taboo_operator(walk, "x", "j")
        assert capture_series(walk, "x", "j").interior == ("y",)
        assert np.array_equal(op.matrix, one)
        assert op.diagnostics["method"] == "solve"
        assert op.diagnostics["radius_bound"] == 0.0
        trapped = oqw.taboo_operator(walk, "a", "j")
        assert capture_series(walk, "a", "j").interior == ("a",)
        assert trapped.diagnostics["method"] == "compressed"
        assert abs(oqw.passage_probability(walk, "a", np.diag([0.0, 1.0]), "j") - 1.0) <= 1e-15
        assert oqw.passage_probability(walk, "a", np.diag([1.0, 0.0]), "j") <= 1e-15
    kept = walk._store[("series", "j", frozenset())]   # the one system into "j"
    assert kept.inner.sites == ("a", "x", "y") and kept.law.trapped == ("a",)


def test_domain_visits_read_the_kept_exit_law(monkeypatch):
    # a harmonic measure and then visit counts from every start to every
    # target of ruin's domain 1..9 certify one law in all; each count is the
    # Green's function 2 min(i, j) (n - max(i, j)) / n less the visit at time 0
    n, domain = 10, [str(k) for k in range(1, 10)]
    walk = fixtures.gamblers_ruin(n + 1, 0.5)
    calls, certify = [], hitting._certify
    monkeypatch.setattr(hitting, "_certify", lambda *args: calls.append(1) or certify(*args))
    one = np.ones((1, 1))
    oqw.harmonic_measure(walk, domain, "5", one)
    for i in range(1, n):
        for j in range(1, n):
            want = 2 * min(i, j) * (n - max(i, j)) / n - (i == j)
            got = oqw.expected_domain_visits(walk, domain, str(i), one, str(j))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert len(calls) == 1


def test_every_start_reads_one_law_per_target(monkeypatch):
    # passage to "200" from all 199 other starts of gambler's ruin certifies
    # one law, and a second round certifies nothing
    n = 200
    walk = fixtures.gamblers_ruin(n + 1)
    calls, certify = [], hitting._certify
    monkeypatch.setattr(hitting, "_certify", lambda *args: calls.append(1) or certify(*args))
    one = np.ones((1, 1))
    for _ in range(2):
        for k in range(1, n):
            # hitting probabilities k/n, solved with a condition number of order n^2
            p = oqw.passage_probability(walk, str(k), one, str(n))
            assert abs(p - k / n) <= 1e-15 * n * n
        assert len(calls) == 1
