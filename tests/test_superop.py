import numpy as np
import pytest

import oqw
from oqw.linalg import kraus_block, unvec, vec
from oqw.superop import BlockIndex, assemble_superoperator, fixed_point_projection
from oqw.walk import DiagonalObservable, DiagonalState

from conftest import random_density


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


def test_single_site_identity_superoperator():
    walk = oqw.WalkSpec(("0",), {"0": 2}, {("0", "0"): np.eye(2)})
    sup = assemble_superoperator(walk)
    assert sup.matrix.shape == (4, 4)
    assert np.allclose(sup.matrix, np.eye(4))


def test_assembled_superoperator_matches_apply_step(trap_walk, ring_walk, branch_walk):
    rng = np.random.default_rng(5)
    for walk in (trap_walk, ring_walk, branch_walk):
        sup = assemble_superoperator(walk)
        blocks = {s: random_density(rng, walk.dims[s]) / len(walk.sites)
                  for s in walk.sites}
        state = DiagonalState(blocks)
        via_matrix = sup.apply(state)
        direct = oqw.apply_step(walk, state)
        for s in walk.sites:
            assert np.abs(via_matrix.blocks[s] - direct.blocks[s]).max() <= 1e-12


def test_masked_assembly_picks_blocks(trap_walk):
    sup = assemble_superoperator(trap_walk, source_mask=["0"], target_mask=["1"])
    assert sup.matrix.shape == (4, 4)
    assert np.allclose(sup.matrix, kraus_block(trap_walk.block("1", "0")))


def test_empty_mask_is_valid(trap_walk):
    sup = assemble_superoperator(trap_walk, source_mask=[], target_mask=[])
    assert sup.matrix.shape == (0, 0)


def test_superoperator_preserves_positivity(ring_walk):
    rng = np.random.default_rng(6)
    sup = assemble_superoperator(ring_walk)
    blocks = {s: random_density(rng, 2) / 3 for s in ring_walk.sites}
    out = sup.apply(DiagonalState(blocks))
    for s in ring_walk.sites:
        assert np.linalg.eigvalsh(0.5 * (out.blocks[s] + out.blocks[s].conj().T)).min() \
            >= -1e-12


def test_dual_of_superoperator_fixes_identity(ring_walk):
    sup = assemble_superoperator(ring_walk)
    ident = oqw.identity_observable(ring_walk)
    out = sup.dual_apply(ident)
    for s in ring_walk.sites:
        assert np.abs(out.blocks[s] - np.eye(2)).max() <= 1e-12


def test_unknown_mask_site_rejected(trap_walk):
    with pytest.raises(oqw.InputError):
        assemble_superoperator(trap_walk, source_mask=["9"])


def test_block_index_pack_places_states_and_observables():
    walk = oqw.WalkSpec(("a", "b", "c"), {"a": 2, "b": 1, "c": 2},
                        {("b", "a"): np.ones((1, 2)) / np.sqrt(2)})
    idx = BlockIndex.build(walk, ("c", "a"))
    rho = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
    for blocks in (DiagonalState({"a": rho, "b": [[1.0]]}), DiagonalObservable({"a": rho})):
        x = idx.pack(blocks)
        assert x.shape == (8,)
        assert np.array_equal(x[:4], np.zeros(4))
        assert np.array_equal(x[4:], vec(rho))
        assert np.array_equal(idx.unpack(walk, x)["a"], rho)


def test_fixed_space_of_a_map_equal_to_identity_up_to_rounding():
    # kron(conj L, L) of a unit phase is 1 up to rounding, so M - I is pure
    # rounding: it has a fixed space, found whatever the phase
    for phase in (0.0, 0.3, 2.0):
        loop = np.array([[np.exp(1j * phase)]])
        proj, k = fixed_point_projection(kraus_block(loop), np.ones(1, dtype=complex))
        assert k == 1
        assert proj == pytest.approx(np.ones(1))
