import numpy as np
import pytest

import oqw
from oqw import fixtures, linalg
from oqw.linalg import fixed_point_projection, kraus_block, positive_part, unvec, vec
from oqw.walk import BlockIndex, DiagonalObservable, DiagonalState, block_matrix

from conftest import random_density, rotate


def test_vec_convention_sandwich_identity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lhs = vec(a @ rho @ b.conj().T)
    rhs = np.kron(b.conj(), a) @ vec(rho)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_unvec_roundtrip():
    rng = np.random.default_rng(4)
    rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(unvec(vec(rho), 4), rho)


def layout_of(walk, sites):
    """The layout of the blocks of ``sites`` (ids), in that order."""
    return BlockIndex.at(walk, [walk._index[s] for s in sites])


def full_step(walk):
    idx = layout_of(walk, walk.sites)
    return idx, block_matrix(walk, idx, idx)


def test_single_site_identity_superoperator():
    walk = oqw.WalkSpec(("0",), {"0": 2}, {("0", "0"): np.eye(2)})
    _, m = full_step(walk)
    assert m.shape == (4, 4)
    assert np.allclose(m, np.eye(4))


def test_assembled_superoperator_matches_apply_step(trap_walk, ring_walk, branch_walk):
    rng = np.random.default_rng(5)
    for walk in (trap_walk, ring_walk, branch_walk):
        idx, m = full_step(walk)
        blocks = {s: random_density(rng, walk.dims[s]) / len(walk.sites)
                  for s in walk.sites}
        state = DiagonalState(blocks)
        via_matrix = idx.unpack(m @ idx.pack(state))
        direct = oqw.apply_step(walk, state)
        for s in walk.sites:
            assert np.abs(via_matrix[s] - direct.blocks[s]).max() <= 1e-12


def test_masked_assembly_picks_blocks(trap_walk):
    m = block_matrix(trap_walk, layout_of(trap_walk, ["1"]),
                     layout_of(trap_walk, ["0"]))
    assert m.shape == (4, 4)
    assert np.allclose(m, kraus_block(trap_walk.block("1", "0")))


def test_empty_mask_is_valid(trap_walk):
    empty = layout_of(trap_walk, [])
    assert block_matrix(trap_walk, empty, empty).shape == (0, 0)


def test_superoperator_preserves_positivity(ring_walk):
    rng = np.random.default_rng(6)
    idx, m = full_step(ring_walk)
    blocks = {s: random_density(rng, 2) / 3 for s in ring_walk.sites}
    out = idx.unpack(m @ idx.pack(DiagonalState(blocks)))
    for s in ring_walk.sites:
        assert np.linalg.eigvalsh(0.5 * (out[s] + out[s].conj().T)).min() >= -1e-12


def test_dual_of_superoperator_fixes_identity(ring_walk):
    idx, m = full_step(ring_walk)
    out = idx.unpack(m.conj().T @ idx.pack(oqw.identity_observable(ring_walk)))
    for s in ring_walk.sites:
        assert np.abs(out[s] - np.eye(2)).max() <= 1e-12


def test_block_index_pack_places_states_and_observables():
    walk = oqw.WalkSpec(("a", "b", "c"), {"a": 2, "b": 1, "c": 2},
                        {("b", "a"): np.ones((1, 2)) / np.sqrt(2)})
    idx = layout_of(walk, ("c", "a"))
    rho = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
    for blocks in (DiagonalState({"a": rho, "b": [[1.0]]}), DiagonalObservable({"a": rho})):
        x = idx.pack(blocks)
        assert x.shape == (8,)
        assert np.array_equal(x[:4], np.zeros(4))
        assert np.array_equal(x[4:], vec(rho))
        assert np.array_equal(idx.unpack(x)["a"], rho)


def test_fixed_space_of_a_map_equal_to_identity_up_to_rounding():
    # kron(conj L, L) of a unit phase is 1 up to rounding, so M - I is pure
    # rounding: it has a fixed space, found whatever the phase
    for phase in (0.0, 0.3, 2.0):
        loop = np.array([[np.exp(1j * phase)]])
        project, k = fixed_point_projection(kraus_block(loop))
        assert k == 1
        assert project(np.ones(1, dtype=complex)) == pytest.approx(np.ones(1))


# ---------------------------------------------------------------------------
# assembly from the walk's table against a per-transition reference


def reference_offsets(walk, idx) -> dict:
    """Offset of each site's block in ``idx``, summed site by site."""
    offsets, off = {}, 0
    for s in idx.sites:
        offsets[s], off = off, off + walk.dims[s] ** 2
    return offsets


def reference_entries(walk, rows, cols):
    """COO triples of the step matrix, one ``np.kron`` block per transition
    in declared order, exact zeros left out."""
    r, c, v = [], [], []
    row_at, col_at = reference_offsets(walk, rows), reference_offsets(walk, cols)
    for (to, fr), L in walk.transitions.items():
        if to in row_at and fr in col_at:
            K = np.kron(L.conj(), L)
            a, b = np.nonzero(K)
            r += list(row_at[to] + a)
            c += list(col_at[fr] + b)
            v += list(K[a, b])
    return np.array(r, dtype=int), np.array(c, dtype=int), np.array(v, dtype=complex)


def reference_dense(walk, rows, cols):
    r, c, v = reference_entries(walk, rows, cols)
    m = np.zeros((rows.total, cols.total), dtype=complex)
    m[r, c] = v
    return m


def reference_csc(walk, rows, cols):
    from scipy.sparse import csc_matrix
    r, c, v = reference_entries(walk, rows, cols)
    return csc_matrix((v, (r, c)), shape=(rows.total, cols.total))


def same_bits(a, b) -> bool:
    if hasattr(b, "tocsc"):
        return (type(a) is type(b) and a.shape == b.shape
                and all(same_bits(getattr(a, f), getattr(b, f))
                        for f in ("indptr", "indices", "data")))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def table_walks():
    return {
        "branch": fixtures.example_branch_return(),
        "branch rotated": rotate(fixtures.example_branch_return(), 1),
        "trap": fixtures.example_three_site_trap(),
        "window 4": fixtures.example_lattice_nonnormal(4, "absorbing"),
        "half-line": fixtures.example_half_line(0.75, 5),
        "ruin 7": fixtures.gamblers_ruin(7, 0.4),
    }


def index_pairs(walk):
    s = list(walk.sites)
    picks = [s, s[::2], s[1::2], s[::-1][:3], []]
    return [(a, b) for a in picks for b in picks]


def test_block_matrix_equals_the_per_transition_reference_bit_for_bit():
    from scipy.sparse import identity

    from oqw.walk import identity_minus

    branch = table_walks()["branch"]
    assert {L.shape for L in branch.transitions.values()} == {(2, 1), (1, 2), (2, 2)}
    checked = 0
    for name, walk in table_walks().items():
        for rs, cs in index_pairs(walk):
            rows, cols = layout_of(walk, rs), layout_of(walk, cs)
            dense = reference_dense(walk, rows, cols)
            csc = reference_csc(walk, rows, cols)
            assert same_bits(block_matrix(walk, rows, cols), dense), (name, rs, cs)
            assert same_bits(block_matrix(walk, rows, cols, sparse=True), csc), (name, rs, cs)
            checked += 1
        for rs in {tuple(rs) for rs, _ in index_pairs(walk)}:
            idx = layout_of(walk, rs)
            want = np.eye(idx.total, dtype=complex) - reference_dense(walk, idx, idx)
            assert same_bits(identity_minus(walk, idx), want), (name, rs)
            want = identity(idx.total, dtype=complex, format="csc") - reference_csc(walk, idx, idx)
            assert same_bits(identity_minus(walk, idx, sparse=True), want), (name, rs)
    assert checked == 6 * 25


@pytest.mark.parametrize("walk", [fixtures.example_lattice_nonnormal(120),
                                  fixtures.gamblers_ruin(81)], ids=["window 120", "ruin 81"])
def test_sparse_assembly_gives_scipy_canonical_arrays(walk):
    # the CSC arrays sorted by column, then row, are those of scipy's COO conversion
    from scipy.sparse import csc_matrix

    from oqw.walk import _entries, identity_minus

    idx = layout_of(walk, walk.sites[1:-1])
    r, c, v = _entries(walk, idx, idx)
    want = csc_matrix((v, (r, c)), shape=(idx.total, idx.total))
    assert same_bits(block_matrix(walk, idx, idx, sparse=True), want)
    assert same_bits(identity_minus(walk, idx, sparse=True), csc_matrix(identity_minus(walk, idx)))


def test_kraus_stack_groups_blocks_by_shape_in_declared_order():
    for name, walk in table_walks().items():
        groups = {}
        for key, L in walk.transitions.items():
            groups.setdefault(L.shape, []).append(key)
        stack = walk.kraus_stack()
        assert [keys for keys, _ in stack] == list(groups.values()), name
        for keys, K in stack:
            assert not K.flags.writeable
            want = np.array([np.kron(walk.transitions[k].conj(), walk.transitions[k])
                             for k in keys])
            assert same_bits(K, want), name
            for k, Kk in zip(keys, K):
                assert same_bits(walk.kraus(*k), Kk)


# ---------------------------------------------------------------------------
# the invariant state: the first-return route and the dense fallback


def dense_invariant(walk):
    """The Cesaro limit from the maximally mixed state by one SVD of the step
    matrix, made PSD and normalized, and the fixed dimension."""
    idx, m = full_step(walk)
    project, k = fixed_point_projection(m)
    x = project(idx.trace / walk.total_dim)
    blocks = {s: positive_part(b) for s, b in idx.unpack(x).items()}
    total = sum(np.trace(b).real for b in blocks.values())
    return {s: b / total for s, b in blocks.items()} if k and total > 1e-8 else None, k


def fresh(walk):
    """The same walk with an empty store (a ring's builder fills its structure record)."""
    return oqw.WalkSpec(walk.sites, walk.dims, dict(walk.transitions), walk.tolerance)


def fixed_space_sizes(monkeypatch):
    """The sizes of the matrices whose fixed space is taken, as they are taken."""
    calls = []
    fixed_space = linalg._fixed_space
    monkeypatch.setattr(linalg, "_fixed_space",
                        lambda m: calls.append(m.shape[0]) or fixed_space(m))
    return calls


ROUTED = {"ring 3x2": lambda: fixtures.random_doubly_stochastic(3, 2, seed=7),
          "ring 8x2": lambda: fixtures.random_doubly_stochastic(8, 2, seed=3),
          "ring 40x4": lambda: fixtures.random_doubly_stochastic(40, 4, seed=3),
          "cycle 5": lambda: fixtures.cycle_dilation(5),
          "biased cycle 8": lambda: fixtures.cycle_dilation(8, bias=0.8),
          "rotated ring": lambda: rotate(fixtures.random_doubly_stochastic(6, 3, seed=1), 4)}
DENSE = {"example-5.1": fixtures.example_three_site_trap,
         "example-5.4": fixtures.example_branch_return,
         "window 10": lambda: fixtures.example_lattice_nonnormal(10),
         "ruin 11": lambda: fixtures.gamblers_ruin(11)}


@pytest.mark.parametrize("name", [*ROUTED, *DENSE, "taboo half-line"])
def test_invariant_state_is_the_dense_cesaro_limit(name, monkeypatch):
    # irreducible walks read the d_s^2 x d_s^2 first-return map at their first
    # site; reducible ones keep the dense step matrix's answer bit for bit;
    # the taboo half-line leaks, so its return map at "0" fixes nothing
    build = {**ROUTED, **DENSE, "taboo half-line":
             lambda: fixtures.example_half_line(0.25, 12, boundary="taboo")}[name]
    walk = fresh(build())
    want, want_k = dense_invariant(walk)
    sizes = fixed_space_sizes(monkeypatch)
    tau, k = oqw.invariant_state(walk)
    assert k == want_k
    if name in DENSE:
        assert sizes[-1] == sum(d * d for d in walk.dims.values())
        assert tau.blocks.keys() == want.keys()
        assert all(np.array_equal(tau.blocks[s], want[s]) for s in want)
    else:
        assert sizes == [walk.dims[walk.sites[0]] ** 2]
        if want is None:
            assert tau is None
        else:
            assert max(np.abs(tau.blocks[s] - want[s]).max() for s in want) <= 1e-12


@pytest.mark.parametrize("name", ROUTED)
def test_kac_holds_at_every_site_of_an_irreducible_walk(name):
    # the return time to s from the conditioned invariant state is 1 / tr mu_s
    walk = ROUTED[name]()
    tau, _ = oqw.invariant_state(walk)
    for s in walk.sites[:: max(1, len(walk.sites) // 4)]:
        mass = np.trace(tau.blocks[s]).real
        got = oqw.expected_return_time(walk, s, tau.blocks[s] / mass, s).value
        assert got == pytest.approx(1.0 / mass, rel=1e-10, abs=0.0), s


def test_a_fresh_irreducible_walk_takes_no_svd_beyond_its_return_map(monkeypatch):
    # the 640-unknown ring: its invariant state, decomposition and verdict read
    # one 16 x 16 SVD of the return map at "0" and no enclosure closure; a
    # second call reads the walk's store and takes none
    walk = fresh(fixtures.random_doubly_stochastic(40, 4, seed=3))
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(np.shape(a))
                        or svd(a, *args, **kw))
    _, k = oqw.invariant_state(walk)
    deco = oqw.decompose(walk)
    assert oqw.is_irreducible(walk) == (True, None) and k == deco.fixed_dim == 1
    assert all(np.array_equal(b, np.eye(4)) for b in deco.recurrent[0].bases.values())
    assert shapes == [(16, 16)]
    shapes.clear()
    oqw.invariant_state(walk), oqw.decompose(walk), oqw.is_irreducible(walk)
    assert shapes == []
