import re

import numpy as np
import pytest

import oqw
from oqw import fixtures
from oqw.errors import InputError, ShapeError
from oqw.walk import DiagonalObservable, DiagonalState, identity_observable

from conftest import E1, random_density, random_hermitian


def test_validate_single_site_identity():
    walk = oqw.WalkSpec(("0",), {"0": 1}, {("0", "0"): np.array([[1.0]])})
    report = oqw.validate_walk(walk)
    assert report.accepted
    assert report.max_residual == 0.0


def test_validate_trap_walk_accepted(trap_walk):
    report = oqw.validate_walk(trap_walk)
    assert report.accepted
    assert report.max_residual <= 1e-14


def test_validate_rejects_scaled_block(trap_walk):
    trans = dict(trap_walk.transitions)
    trans[("1", "0")] = 1.1 * trans[("1", "0")]
    bad = oqw.WalkSpec(trap_walk.sites, trap_walk.dims, trans)
    report = oqw.validate_walk(bad)
    assert not report.accepted
    # direct arithmetic: sum L†L at source 0 becomes diag(1.21, 1)
    assert report.residuals["0"] == pytest.approx(0.21, abs=1e-12)


def test_shape_mismatch_names_offender():
    with pytest.raises(ShapeError, match=r"\('1', '0'\)"):
        oqw.WalkSpec(("0", "1"), {"0": 2, "1": 1},
                     {("1", "0"): np.eye(2)})


def test_duplicate_sites_rejected():
    with pytest.raises(InputError):
        oqw.WalkSpec(("0", "0"), {"0": 1}, {})


def test_apply_step_identity_site():
    walk = oqw.WalkSpec(("0",), {"0": 2}, {("0", "0"): np.eye(2)})
    rho = random_density(np.random.default_rng(0), 2)
    out = oqw.apply_step(walk, oqw.site_state(walk, "0", rho))
    assert np.allclose(out.blocks["0"], rho)


def test_apply_step_trap_walk_moves_e1(trap_walk):
    out = oqw.apply_step(trap_walk, oqw.site_state(trap_walk, "0", E1))
    assert np.allclose(out.blocks["1"], E1)
    assert np.abs(out.blocks["0"]).max() == 0.0
    assert np.abs(out.blocks["2"]).max() == 0.0


def test_apply_step_matches_classical_chain():
    t = np.array([[0.3, 0.6], [0.7, 0.4]])
    walk = oqw.minimal_dilation(t)
    state = oqw.site_state(walk, "0", np.array([[1.0]]))
    out = oqw.apply_step(walk, state)
    assert out.blocks["0"][0, 0].real == pytest.approx(0.3)
    assert out.blocks["1"][0, 0].real == pytest.approx(0.7)


def test_apply_step_checks_block_shapes_and_sites():
    # a block of the wrong size is a ShapeError, as in check_state, not a
    # ValueError from the matrix product
    walk = fixtures.random_doubly_stochastic(3, 2, seed=7)
    wrong = DiagonalState({"0": np.eye(3, dtype=complex) / 3})
    with pytest.raises(ShapeError, match=re.escape("state block at '0' has wrong shape (3, 3)")):
        oqw.apply_step(walk, wrong)
    with pytest.raises(InputError, match="state block at unknown site '9'"):
        oqw.apply_step(walk, DiagonalState({"9": np.eye(2, dtype=complex) / 2}))


def test_trace_preserved_on_random_states(trap_walk, ring_walk):
    rng = np.random.default_rng(1)
    for walk in (trap_walk, ring_walk):
        blocks = {s: random_density(rng, walk.dims[s]) / len(walk.sites)
                  for s in walk.sites}
        state = DiagonalState(blocks)
        stepped = oqw.apply_step(walk, state)
        assert stepped.trace() == pytest.approx(state.trace(), abs=1e-10)


def test_dual_apply_fixes_identity(trap_walk, ring_walk, ruin_walk):
    for walk in (trap_walk, ring_walk, ruin_walk):
        out = oqw.dual_apply(walk, identity_observable(walk))
        for s in walk.sites:
            assert np.abs(out.blocks[s] - np.eye(walk.dims[s])).max() <= 1e-10


def test_dual_step_fixed_point_of_printed_return_kraus():
    # the qubit return map with Kraus pair [[0,0],[0,1]], [[0,0],[s3/2,0]]
    # fixes diag(3/4, 1) under its dual
    k1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    k2 = np.array([[0.0, 0.0], [np.sqrt(3) / 2, 0.0]], dtype=complex)
    x = np.diag([0.75, 1.0]).astype(complex)
    out = k1.conj().T @ x @ k1 + k2.conj().T @ x @ k2
    assert np.allclose(out, x, atol=1e-14)


def test_dual_apply_is_contractive(ring_walk):
    rng = np.random.default_rng(2)
    for _ in range(20):
        obs = DiagonalObservable({s: random_hermitian(rng, ring_walk.dims[s])
                                  for s in ring_walk.sites})
        out = oqw.dual_apply(ring_walk, obs)
        norm_in = max(np.abs(np.linalg.eigvalsh(b)).max() for b in obs.blocks.values())
        norm_out = max(np.abs(np.linalg.eigvalsh(b)).max() for b in out.blocks.values())
        assert norm_out <= norm_in + 1e-10


def test_minimal_dilation_validates_and_rejects():
    t = np.array([[0.0, 1.0], [1.0, 0.0]])
    walk = oqw.minimal_dilation(t)
    assert oqw.validate_walk(walk).accepted
    with pytest.raises(InputError):
        oqw.minimal_dilation(np.array([[0.5, 0.2], [0.4, 0.8]]))
    with pytest.raises(InputError):
        oqw.minimal_dilation(np.array([[-0.1, 1.0], [1.1, 0.0]]))


def test_minimal_dilation_path_graph_amplitudes():
    t = np.zeros((3, 3))
    t[1, 0] = 1.0
    t[0, 1] = t[2, 1] = 0.5
    t[1, 2] = 1.0
    walk = oqw.minimal_dilation(t)
    assert walk.block("0", "1")[0, 0] == pytest.approx(np.sqrt(0.5))


def test_invariant_state_symmetric_two_cycle():
    walk = oqw.minimal_dilation(np.array([[0.5, 0.5], [0.5, 0.5]]))
    tau, dim = oqw.invariant_state(walk)
    assert dim == 1
    assert tau.blocks["0"][0, 0].real == pytest.approx(0.5, abs=1e-10)


def test_invariant_state_unitary_single_site():
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    walk = oqw.WalkSpec(("0",), {"0": 2}, {("0", "0"): u})
    tau, _ = oqw.invariant_state(walk)
    # the deterministic extraction lands on the maximally mixed state
    assert np.allclose(tau.blocks["0"], np.eye(2) / 2, atol=1e-10)


def test_invariant_state_residual(trap_walk, ring_walk, branch_walk):
    for walk in (trap_walk, ring_walk, branch_walk):
        tau, _ = oqw.invariant_state(walk)
        stepped = oqw.apply_step(walk, tau)
        resid = sum(np.abs(np.linalg.eigvalsh(
            stepped.blocks[s] - tau.blocks[s])).sum() for s in walk.sites)
        assert resid <= 1e-8


def test_trap_walk_invariant_supported_on_trap_and_cycle(trap_walk):
    tau, dim = oqw.invariant_state(trap_walk)
    assert dim == 5
    # e2 direction at sites 0/1 carries no invariant mass
    assert abs(tau.blocks["0"][1, 1]) <= 1e-10
    assert abs(tau.blocks["1"][1, 1]) <= 1e-10
    assert np.trace(tau.blocks["2"]).real > 0.5


def test_detailed_balance_flat_state_on_ring(ring_walk):
    tau, _ = oqw.invariant_state(ring_walk)
    report = oqw.check_detailed_balance(ring_walk, tau)
    assert report.sufficient_condition_holds
    assert report.selfadjoint_within_tol


def test_detailed_balance_reversible_birth_death():
    # birth-death chains are reversible for their stationary distribution
    t = np.zeros((3, 3))
    t[1, 0] = 0.4
    t[0, 0] = 0.6
    t[0, 1], t[2, 1] = 0.3, 0.2
    t[1, 1] = 0.5
    t[1, 2] = 0.7
    t[2, 2] = 0.3
    walk = oqw.minimal_dilation(t)
    tau, _ = oqw.invariant_state(walk)
    report = oqw.check_detailed_balance(walk, tau)
    assert report.sufficient_condition_holds
    assert report.selfadjoint_within_tol


def test_detailed_balance_fails_on_asymmetric_cycle():
    walk = fixtures.cycle_dilation(3, bias=0.8)
    tau, _ = oqw.invariant_state(walk)
    report = oqw.check_detailed_balance(walk, tau)
    assert not report.selfadjoint_within_tol
    assert report.selfadjoint_residual > 0.1


def test_detailed_balance_requires_faithful_state(ring_walk):
    bad = DiagonalState({s: np.diag([1.0, 0.0]).astype(complex) / 3
                         for s in ring_walk.sites})
    with pytest.raises(InputError, match="faithful"):
        oqw.check_detailed_balance(ring_walk, bad)


def test_sufficient_condition_implies_selfadjoint(ring_walk, ruin_walk):
    for walk in (ring_walk,):
        tau, _ = oqw.invariant_state(walk)
        report = oqw.check_detailed_balance(walk, tau)
        if report.sufficient_condition_holds:
            assert report.selfadjoint_within_tol


def test_walk_arrays_are_immutable(trap_walk):
    with pytest.raises(ValueError):
        trap_walk.transitions[("1", "0")][0, 0] = 9.0


# ---------------------------------------------------------------------------
# the transition table: validation, dropped blocks, order and views


def mixed_walk_spec():
    """Sites, dims and transitions with blocks of three shapes, declared out
    of site order, one all-zero block and one that is the only block of its
    shape and all zero."""
    rng = np.random.default_rng(5)

    def block(a, b):
        return rng.normal(size=(a, b)) + 1j * rng.normal(size=(a, b))

    dims = {"a": 1, "b": 2, "c": 2, "d": 3}
    trans = {
        ("c", "b"): block(2, 2),
        ("a", "b"): block(1, 2),
        ("b", "c"): np.zeros((2, 2)),
        ("b", "a"): block(2, 1),
        ("d", "d"): np.zeros((3, 3)),
        ("a", "a"): [[0.5]],
        ("b", "b"): block(2, 2),
        ("c", "c"): block(2, 2).real,
        ("a", "c"): block(1, 2),
    }
    return ("a", "b", "c", "d"), dims, trans


def test_unknown_site_in_a_transition_raises_input_error():
    sites, dims, trans = mixed_walk_spec()
    trans[("a", "z")] = np.ones((1, 1))
    with pytest.raises(InputError, match="unknown site"):
        oqw.WalkSpec(sites, dims, trans)


def test_shape_error_names_the_first_offender_in_declared_order():
    sites, dims, trans = mixed_walk_spec()
    bad = {("b", "c"): np.ones((2, 3)), ("a", "b"): np.ones((1, 3))}
    for first, second in (list(bad), list(bad)[::-1]):
        rest = {k: L for k, L in trans.items() if k not in bad}
        trans2 = {first: bad[first], **rest, second: bad[second]}
        with pytest.raises(ShapeError, match=re.escape(repr(first))):
            oqw.WalkSpec(sites, dims, trans2)
    with pytest.raises(ShapeError, match=re.escape(repr(("a", "a")))):
        oqw.WalkSpec(sites, dims, {**trans, ("a", "a"): np.ones(1)})


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_entries_raise_value_error(value):
    sites, dims, trans = mixed_walk_spec()
    trans[("b", "b")] = np.array(trans[("b", "b")])
    trans[("b", "b")][1, 0] = value
    with pytest.raises(ValueError, match="non-finite"):
        oqw.WalkSpec(sites, dims, trans)


def test_zero_blocks_are_dropped_and_declared_order_is_kept():
    sites, dims, trans = mixed_walk_spec()
    walk = oqw.WalkSpec(sites, dims, trans)
    kept = [k for k, L in trans.items() if np.abs(np.asarray(L)).max() > 0]
    assert list(walk.transitions) == kept
    assert {k for keys, _ in walk.kraus_stack() for k in keys} == set(kept)
    assert walk._out == {"a": ["b", "a"], "b": ["c", "a", "b"], "c": ["c", "a"], "d": []}
    assert walk.successors("b") == ["a", "b", "c"]
    assert walk.predecessors("a") == ["a", "b", "c"]
    for j in sites:
        acc = -np.eye(dims[j], dtype=complex)
        for to in walk._out[j]:   # summed in declared order
            L = np.asarray(trans[(to, j)], dtype=complex)
            acc = acc + L.conj().T @ L
        assert walk.column_defect(j) == float(np.linalg.norm(acc, 2)), j


def test_transition_values_are_read_only_copies_of_the_input():
    sites, dims, trans = mixed_walk_spec()
    walk = oqw.WalkSpec(sites, dims, trans)
    for key, L in walk.transitions.items():
        want = np.asarray(trans[key], dtype=np.complex128)
        assert L.dtype == np.complex128 and L.shape == want.shape, key
        assert L.tobytes() == want.tobytes(), key
        assert not L.flags.writeable, key
        with pytest.raises(ValueError):
            L[0, 0] = 1.0
    trans[("b", "b")][0, 0] = 7.0   # the walk keeps its own copy
    assert walk.transitions[("b", "b")][0, 0] != 7.0
