"""The walk's integer site graph against the set-based searches it replaced.

Capture series find their interior, block layouts place their sites and
domains find their boundary by position over ``walk._graph``.  The
references below are the name-based code the library used before:
searches over sets of site names (successors and predecessors read from the
walk's transitions, in declared site order), a per-site loop for the block
offsets and a scan of every domain site's successors for the boundary.
Interiors, layouts and boundaries must be equal on every fixture family and
on random walks whose blocks sit at, just above and just below the walk's
tolerance.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oqw
from oqw import fixtures, hitting
from oqw.walk import BlockIndex


# ---------------------------------------------------------------------------
# set-based references


def _above(walk, to, fr) -> bool:
    L = walk.transitions.get((to, fr))
    return L is not None and float(np.abs(L).max()) > walk.tolerance


def _successors(walk, fr) -> list:
    return [to for to in walk.sites if (to, fr) in walk.transitions]


def _predecessors(walk, to) -> list:
    return [fr for fr in walk.sites if (to, fr) in walk.transitions]


def _reachable(seeds, step, allowed) -> set:
    allowed = set(allowed)
    seen, frontier = set(), [s for s in seeds if s in allowed]
    while frontier:
        s = frontier.pop()
        if s not in seen:
            seen.add(s)
            frontier += [t for t in step(s) if t in allowed and t not in seen]
    return seen


def reference_interior(walk, i, j, taboo=()) -> tuple:
    """Allowed sites reaching ``j`` through allowed sites, the last block above
    the tolerance, in walk order; none when ``i`` reaches none of them, and only
    those ``i`` reaches when the kept law into ``j`` is refused or traps mass."""
    allowed = [s for s in walk.sites if s not in set(taboo) and s != j]
    reach = _reachable(_successors(walk, i), lambda s: _successors(walk, s), allowed)
    seeds = [s for s in _predecessors(walk, j) if _above(walk, j, s)]
    coreach = _reachable(seeds, lambda s: _predecessors(walk, s), allowed)
    if not reach & coreach:
        return ()
    if not hitting._traps_nothing(walk._store[("series", j, frozenset(taboo))]):
        coreach &= reach
    return tuple(s for s in walk.sites if s in coreach)


def reference_layout(walk, sites) -> tuple:
    """``(sites, offsets, total, starts)`` of one block per site, site by site."""
    offsets, starts, off = {}, [-1] * len(walk.sites), 0
    for s in sites:
        d2 = walk.dims[s] ** 2
        offsets[s] = (off, off + d2)
        starts[walk.sites.index(s)] = off
        off += d2
    return tuple(sites), offsets, off, starts


def reference_boundary(walk, domain) -> tuple:
    D = set(domain)
    hit = {t for j in D for t in _successors(walk, j) if t not in D and _above(walk, t, j)}
    return tuple(s for s in walk.sites if s in hit)


def layout(idx: BlockIndex) -> tuple:
    """``(sites, offsets, total, starts)`` read from the layout's block sizes and offsets."""
    offsets = {s: (lo, lo + d * d)
               for s, lo, d in zip(idx.sites, idx.begins.tolist(), idx.sizes.tolist())}
    return idx.sites, offsets, idx.total, idx.starts.tolist()


def check_walk(walk, pairs, taboos, domains):
    """Interiors and their layouts for every pair and taboo set, and the
    boundary and layout of every domain, against the references."""
    for (i, j), taboo in itertools.product(pairs, taboos):
        series = hitting.capture_series(walk, i, j, taboo)
        want = reference_interior(walk, i, j, series.taboo)
        assert series.interior == want, (i, j, sorted(series.taboo))
        assert layout(series.inner) == reference_layout(walk, want)
        assert layout(series.outer) == reference_layout(walk, [j])
    for s in walk.sites:
        assert (walk.successors(s), walk.predecessors(s)) == (
            _successors(walk, s), _predecessors(walk, s))
    for domain in domains:
        assert oqw.boundary(walk, domain) == reference_boundary(walk, domain), domain
        positions = hitting._domain_sites(walk, domain)[1]
        assert layout(BlockIndex.at(walk, positions)) == reference_layout(
            walk, [s for s in walk.sites if s in set(domain)])
        backwards = [walk._index[s] for s in domain[::-1]]
        assert layout(BlockIndex.at(walk, backwards)) == reference_layout(walk, domain[::-1])


FAMILIES = {
    "trap": fixtures.example_three_site_trap,
    "branch": fixtures.example_branch_return,
    "half-line": lambda: fixtures.example_half_line(0.75, 12),
    "half-line-taboo": lambda: fixtures.example_half_line(0.25, 12, boundary="taboo"),
    "normal": lambda: fixtures.example_lattice_normal(0.3, 0.6, 4),
    "normal-taboo": lambda: fixtures.example_lattice_normal(0.3, 0.6, 4, boundary="taboo"),
    "nonnormal": lambda: fixtures.example_lattice_nonnormal(5),
    "nonnormal-taboo": lambda: fixtures.example_lattice_nonnormal(5, boundary="taboo"),
    "ruin": lambda: fixtures.gamblers_ruin(9, 0.3),
    "cycle": lambda: fixtures.cycle_dilation(6, 0.7),
    "rds": lambda: fixtures.random_doubly_stochastic(6, 2, seed=3),
}


@pytest.mark.parametrize("name", FAMILIES)
def test_interiors_layouts_and_boundaries_match_the_set_searches(name):
    walk = FAMILIES[name]()
    rng = np.random.default_rng(11)
    sites = list(walk.sites)
    taboos = [()] + [tuple(rng.choice(sites, size=k, replace=False)) for k in (1, 2, 3)]
    domains = [sites, sites[1:-1], sites[::2]] + [
        list(rng.choice(sites, size=k, replace=False)) for k in (1, 2, len(sites) // 2)]
    check_walk(walk, list(itertools.product(sites, repeat=2)), taboos, domains)


def test_interiors_on_a_large_window():
    walk = fixtures.example_lattice_nonnormal(120)
    check_walk(walk, [("0", "0"), ("0", "cut+"), ("-120", "120"), ("5", "-5")],
               [(), ("3",), ("-1", "1")], [list(walk.sites[1:-3]), list(walk.sites[100:140])])


# blocks with largest |entry| at, just above and just below the tolerance, or clearly above
TOL = 1e-9
SCALES = [TOL, np.nextafter(TOL, 1.0), np.nextafter(TOL, 0.0), 0.5 * TOL, 1e-3, 1.0]


@st.composite
def walks(draw):
    n = draw(st.integers(2, 7))
    sites = [f"s{k}" for k in range(n)]
    dims = {s: draw(st.integers(1, 3)) for s in sites}
    trans = {}
    for to, fr in draw(st.lists(st.tuples(st.sampled_from(sites), st.sampled_from(sites)),
                                max_size=3 * n, unique=True)):
        block = np.zeros((dims[to], dims[fr]))
        block.flat[draw(st.integers(0, block.size - 1))] = draw(st.sampled_from([1.0, -1.0]))
        trans[(to, fr)] = draw(st.sampled_from(SCALES)) * block
    return oqw.WalkSpec(tuple(sites), dims, trans, tolerance=TOL)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(walks(), st.data())
def test_random_walks_near_the_tolerance_match_the_set_searches(walk, data):
    sites = list(walk.sites)
    subsets = st.lists(st.sampled_from(sites), unique=True)
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(sites), st.sampled_from(sites)),
                               min_size=1, max_size=6))
    check_walk(walk, pairs, [(), data.draw(subsets)], [data.draw(subsets) for _ in range(3)])


def reference_blocks(sizes) -> tuple:
    """Offsets, total, trace vector and offsets by nonzero size of blocks of
    ``sizes``, placed block by block."""
    begins, trace, groups, off = [], [], {}, 0
    for d in sizes:
        begins.append(off)
        trace += [complex(k % (d + 1) == 0) for k in range(d * d)]   # vec(Id): the diagonal
        if d:
            groups.setdefault(d, []).append(off)
        off += d * d
    return begins, off, trace, groups


def check_blocks(idx: BlockIndex, sizes) -> None:
    begins, total, trace, groups = reference_blocks(sizes)
    assert (idx.sizes.tolist(), idx.begins.tolist(), idx.total) == (list(sizes), begins, total)
    assert idx.trace.tolist() == trace and not idx.trace.flags.writeable
    assert {d: g.tolist() for d, g in idx.groups.items()} == groups
    assert list(idx.groups) == sorted(groups) and 0 not in idx.groups


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=12), st.data())
def test_layouts_match_a_block_by_block_reference(sizes, data):
    # from sizes alone, zeros included (the compressed system off a trapped part)
    check_blocks(BlockIndex.of_sizes(sizes), sizes)
    # from walk positions, in any order and any number, none included
    dims = [d for d in sizes if d] or [1]
    names = [f"s{k}" for k in range(len(dims))]
    walk = oqw.WalkSpec(tuple(names), dict(zip(names, dims)), {})
    positions = data.draw(st.lists(st.integers(0, len(dims) - 1), unique=True))
    idx = BlockIndex.at(walk, positions)
    check_blocks(idx, [dims[p] for p in positions])
    assert layout(idx) == reference_layout(walk, [names[p] for p in positions])


def test_the_site_graph_lists_blocks_above_the_tolerance_apart():
    one = np.ones((1, 1))
    walk = oqw.WalkSpec(tuple("abc"), {"a": 1, "b": 1, "c": 1},
                        {("b", "a"): one, ("c", "a"): TOL * one, ("a", "b"): one,
                         ("c", "b"): np.nextafter(TOL, 1.0) * one}, tolerance=TOL)
    graph = walk._graph
    assert (graph.succ, graph.pred) == ([[1, 2], [0, 2], []], [[1], [0], [0, 1]])
    assert (graph.succ_above, graph.pred_above) == ([[1], [0, 2], []], [[1], [0], [1]])
    assert graph.sizes.tolist() == [1, 1, 1] and not graph.sizes.flags.writeable
    clean = fixtures.gamblers_ruin(5)   # nothing at the tolerance: the lists are shared
    assert clean._graph.succ_above is clean._graph.succ
    assert walk.successors("a") == ["b", "c"] and walk.predecessors("c") == ["a", "b"]


def test_dense_queries_never_import_scipy():
    src = Path(oqw.__file__).resolve().parents[1]
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from oqw import fixtures, hitting",
        "ruin = fixtures.gamblers_ruin(21)",
        "domain = [str(k) for k in range(1, 20)]",
        "assert hitting.boundary(ruin, domain) == ('0', '20')",
        "for start in domain:",
        "    hitting.harmonic_measure(ruin, domain, start, np.ones((1, 1)))",
        "trap = fixtures.example_three_site_trap()",
        "assert hitting.passage_probability(trap, '0', np.eye(2) / 2, '0') == 0.5",
        "hitting.expected_visits(trap, '0', np.eye(2) / 2, '1')",
        "hitting.domain_operator(trap, ['0', '1'], '0', '2')",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
