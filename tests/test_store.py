"""Entries kept in a walk's store never change an answer.

A walk keeps its exit laws (the four domains built last), invariant state,
decomposition and irreducibility verdict.  A random sequence of queries on
one walk, over enough domains that the oldest laws are dropped and built
again, must give every answer, bit for bit, that the same query gives on a
freshly built walk.
"""

from dataclasses import is_dataclass
from itertools import combinations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oqw
from oqw.errors import OQWError

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
    for name in ("invariant_state", "decompose", "is_irreducible"):
        queries.insert(draw(st.integers(0, len(queries))), (name, ()))
    return walk, queries


@settings(derandomize=True, max_examples=100, deadline=None)
@given(query_runs())
def test_kept_entries_never_change_an_answer(run):
    walk, queries = run
    for query in queries:
        assert answer(walk, query) == answer(fresh(walk), query), query[0]
    assert sum(key[0] == "domain" for key in walk._store) <= 4
