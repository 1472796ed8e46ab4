"""The first-return route against the whole step matrix, on a fixed comparison set.

``superop.fixed_point_map`` reads a walk's fixed space from the first-return map
onto its return set.  Here every structure answer it feeds (fixed dimension,
warning, invariant state, minimal enclosures, irreducibility verdict, witness
and label) is compared with the same answer on a fresh copy of the walk whose
fixed spaces come from one SVD of the whole step matrix, the map's degenerate
case, on 263 fixture walks and 300 seeded random walks, each stochastic and
substochastic.
"""

import numpy as np
import pytest

import oqw
from oqw import fixtures, structure, superop
from oqw.linalg import fixed_point_projection
from oqw.walk import BlockIndex, block_matrix

from conftest import rotate
from test_certificate import random_walk
from test_superop import fresh

# walks whose near-fixed part sits at the fixed-point cut: both routes count it
# as fixed, and their invariant states agree to the cut, not to rounding
AT_THE_CUT = {"half-line 0.75 20"}


def comparison_walks() -> dict:
    """The 263 fixture walks and 300 seeded random walks, stochastic and substochastic,
    by name."""
    walks = {f"ring {n} 2 {s}": fixtures.random_doubly_stochastic(n, 2, seed=s)
             for n in range(3, 11) for s in range(25)}
    walks["ring 6 5 4"] = fixtures.random_doubly_stochastic(6, 5, seed=4)
    walks["ring 4 3 1"] = fixtures.random_doubly_stochastic(4, 3, seed=1)
    walks.update({f"half-line {p} {n}": fixtures.example_half_line(p, n)
                  for p in (0.25, 0.75) for n in (5, 10, 20, 30, 40)})
    walks.update({f"ruin {n}": fixtures.gamblers_ruin(n) for n in (3, 5, 11, 21)})
    walks.update({f"cycle {n}": fixtures.cycle_dilation(n) for n in (3, 5, 8)})
    walks.update({f"window {n}": fixtures.example_lattice_nonnormal(n) for n in (10, 25)})
    for name, build in (("example-5.1", fixtures.example_three_site_trap),
                        ("example-5.4", fixtures.example_branch_return)):
        walks[name] = build()
        walks.update({f"{name} rotated {seed}": rotate(build(), seed) for seed in range(1, 21)})
    assert len(walks) == 263
    walks.update({f"random {seed}{' substochastic' * sub}": random_walk(seed, sub)
                  for seed in range(300) for sub in (False, True)})
    return walks


def whole_step_matrix_map(walk, adjoint=False):
    """``fixed_point_map`` read from one SVD of the whole step matrix (of its adjoint)."""
    idx = BlockIndex.at(walk, range(len(walk.sites)))
    m = block_matrix(walk, idx, idx)
    return fixed_point_projection(m.conj().T if adjoint else m)


def structure_answers(walk):
    """The decomposition and the (verdict, witness, label) of a fresh copy of ``walk``."""
    walk = fresh(walk)
    return oqw.decompose(walk), structure._irreducibility(walk)


def projectors(walk, enc) -> np.ndarray:
    """The enclosure's per-site projectors, flattened in walk site order."""
    return np.concatenate([enc.projector(s, walk.dims[s]).ravel() for s in walk.sites])


def scalar_invariant_block(walk, tau) -> bool:
    """Whether some block of dimension 2 or more of the invariant state is a multiple of Id:
    there the minimal enclosures are not unique, and each route may split them its own way."""
    return any(walk.dims[s] > 1 and np.abs(b - np.trace(b) / walk.dims[s] * np.eye(
        walk.dims[s])).max() <= 1e-12 for s, b in tau.blocks.items())


@pytest.fixture(scope="module")
def routes():
    walks = comparison_walks()
    routed = {name: structure_answers(walk) for name, walk in walks.items()}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(superop, "fixed_point_map", whole_step_matrix_map)
        patch.setattr(structure, "fixed_point_map", whole_step_matrix_map)
        whole = {name: structure_answers(walk) for name, walk in walks.items()}
    return walks, routed, whole


def test_the_route_keeps_every_structure_answer(routes):
    walks, routed, whole = routes
    split_differs = []
    for name, walk in walks.items():
        (deco, (ok, witness, how)), (want, (want_ok, want_witness, want_how)) = \
            routed[name], whole[name]
        assert (deco.fixed_dim, deco.warning) == (want.fixed_dim, want.warning), name
        assert (ok, how) == (want_ok, want_how), name
        assert (deco.invariant is None) == (want.invariant is None), name
        if deco.invariant is None:
            assert witness is want_witness is None or all(
                np.array_equal(witness.bases[s], want_witness.bases[s]) for s in walk.sites)
            continue
        gap = max(np.abs(deco.invariant.blocks[s] - want.invariant.blocks[s]).max()
                  for s in walk.sites)
        assert gap <= (1e-9 if name in AT_THE_CUT else 1e-12), (name, gap)
        got = [projectors(walk, enc) for enc in deco.recurrent]
        ref = [projectors(walk, enc) for enc in want.recurrent]
        scalar = scalar_invariant_block(walk, deco.invariant)
        if not scalar:
            assert witness is want_witness is None or np.abs(
                projectors(walk, witness) - projectors(walk, want_witness)).max() <= 1e-12, name
        if len(got) == len(ref) and all(min(np.abs(p - q).max() for q in ref) <= 1e-12
                                        for p in got):
            continue
        # a scalar invariant block: the split may differ, not what it splits
        assert scalar, name
        split_differs.append(name)
        assert len(got) == len(ref), name
        assert (sorted([enc.dim(s) for s in walk.sites] for enc in deco.recurrent)
                == sorted([enc.dim(s) for s in walk.sites] for enc in want.recurrent)), name
        assert np.abs(sum(got) - sum(ref)).max() <= 1e-12, name
        assert max(enc.closure_defect(walk) for enc in deco.recurrent) <= 1e-10, name
