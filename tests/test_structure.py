import math

import numpy as np
import pytest

import oqw
from oqw import fixtures
from oqw.errors import InputError
from oqw.linalg import extend_basis
from oqw.structure import Enclosure, enclosure_closure

from conftest import E1, E2, MIX, rotate


def unit(d, k):
    v = np.zeros(d, dtype=complex)
    v[k] = 1.0
    return v


# ---------------------------------------------------------------------------
# closures


def test_closure_identity_site_keeps_seed():
    walk = oqw.WalkSpec(("0",), {"0": 2}, {("0", "0"): np.eye(2)})
    enc = enclosure_closure(walk, [("0", unit(2, 0))])
    assert enc.dim("0") == 1
    assert np.abs(np.abs(enc.bases["0"][:, 0]) - np.array([1.0, 0.0])).max() <= 1e-12


def test_closure_trap_walk_e2_never_reenters_e1(trap_walk):
    enc = enclosure_closure(trap_walk, [("0", unit(2, 1))])
    assert enc.dim("0") == 1
    assert enc.dim("1") == 0
    assert enc.dim("2") == 1
    # the site-0 component stays along e2
    assert abs(enc.bases["0"][0, 0]) <= 1e-12
    assert enc.closure_defect(trap_walk) <= 1e-8


def test_closure_branch_walk_from_e1(branch_walk):
    # e1 at site 1 spreads to the full fibers at 0 and 1; sites 2 and 3 keep
    # only their reachable e1 lines
    enc = enclosure_closure(branch_walk, [("1", unit(2, 0))])
    assert enc.dim("0") == 1
    assert enc.dim("1") == 2
    assert enc.dim("2") == 1
    assert enc.dim("3") == 1
    assert enc.closure_defect(branch_walk) <= 1e-8


def test_closure_is_transition_closed(half_line_up_taboo, ring_walk):
    rng = np.random.default_rng(11)
    for walk in (half_line_up_taboo, ring_walk):
        s = walk.sites[0]
        v = rng.normal(size=walk.dims[s]) + 1j * rng.normal(size=walk.dims[s])
        enc = enclosure_closure(walk, [(s, v)])
        assert enc.closure_defect(walk) <= 1e-8


def test_closure_rejects_zero_seed(trap_walk):
    with pytest.raises(InputError):
        enclosure_closure(trap_walk, [("0", np.zeros(2))])


def sweep_closure(walk, seeds):
    """Closure by re-sweeping every transition until nothing grows."""
    bases = {s: np.zeros((walk.dims[s], 0), dtype=complex) for s in walk.sites}
    for s, v in seeds:
        bases[s] = extend_basis(bases[s], np.asarray(v, dtype=complex).reshape(-1, 1))
    for _ in range(walk.total_dim + 1):
        grew = False
        for (to, fr), L in walk.transitions.items():
            if bases[fr].shape[1]:
                before = bases[to].shape[1]
                bases[to] = extend_basis(bases[to], L @ bases[fr])
                grew = grew or bases[to].shape[1] > before
        if not grew:
            break
    return Enclosure(bases)


def plus_minus_walk():
    """Two sites, d=2, every block upper-triangular in the (|+>, |->) basis, so
    span{|+>} is closed at both sites while |-> leaks into it."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    t1 = np.array([[1.0 / np.sqrt(2.0), 0.5], [0.0, 0.5]])
    t2 = np.array([[1.0 / np.sqrt(2.0), -0.5], [0.0, 0.5]])
    trans = {("0", "0"): h @ t1 @ h, ("1", "0"): h @ t2 @ h,
             ("0", "1"): h @ t2 @ h, ("1", "1"): h @ t1 @ h}
    return oqw.WalkSpec(("0", "1"), {"0": 2, "1": 2}, trans), h[:, 0]


def test_worklist_closure_matches_sweep(trap_walk, branch_walk, ring_walk, half_line_up_taboo):
    rng = np.random.default_rng(13)
    walks = [trap_walk, branch_walk, ring_walk, half_line_up_taboo, plus_minus_walk()[0]]
    walks += [rotate(trap_walk, seed) for seed in (1, 2, 3)]
    walks += [rotate(branch_walk, 4)]
    for walk in walks:
        seeds = [[(s, unit(walk.dims[s], k))] for s in walk.sites[:3]
                 for k in range(walk.dims[s])]
        s = walk.sites[-1]
        seeds.append([(s, rng.normal(size=walk.dims[s]) + 1j * rng.normal(size=walk.dims[s]))])
        for seed in seeds:
            got = enclosure_closure(walk, seed)
            want = sweep_closure(walk, seed)
            for t in walk.sites:
                d = walk.dims[t]
                assert got.dim(t) == want.dim(t)
                assert np.abs(got.projector(t, d) - want.projector(t, d)).max() <= 1e-10
            assert got.closure_defect(walk) <= 1e-8


def test_extend_basis_ignores_rounding_residual():
    basis = np.array([[1.0], [0.0]], dtype=complex)
    assert extend_basis(basis, np.array([[1.0], [1e-17]], dtype=complex)).shape == (2, 1)
    assert extend_basis(basis, np.array([[1.0], [1e-6]], dtype=complex)).shape == (2, 2)
    assert extend_basis(basis, np.array([[0.0], [1e-20]], dtype=complex)).shape == (2, 2)


def test_closed_line_is_its_own_closure():
    walk, plus = plus_minus_walk()
    line = Enclosure({s: plus.reshape(2, 1).astype(complex) for s in walk.sites})
    assert line.closure_defect(walk) <= 1e-12
    enc = enclosure_closure(walk, [("0", plus)])
    assert (enc.dim("0"), enc.dim("1")) == (1, 1)
    assert np.abs(enc.projector("0", 2) - line.projector("0", 2)).max() <= 1e-12
    deco = oqw.decompose(walk)
    assert [(e.dim("0"), e.dim("1")) for e in deco.recurrent] == [(1, 1)]
    assert (deco.transient.dim("0"), deco.transient.dim("1")) == (1, 1)


# ---------------------------------------------------------------------------
# irreducibility


def test_trap_walk_reducible_with_witness(trap_walk):
    ok, witness = oqw.is_irreducible(trap_walk)
    assert not ok
    assert witness is not None
    assert not witness.is_full(trap_walk)
    assert witness.closure_defect(trap_walk) <= 1e-8


def test_half_line_taboo_truncation_irreducible():
    for n in (2, 5, 17):
        walk = fixtures.example_half_line(0.25, n, boundary="taboo")
        ok, _ = oqw.is_irreducible(walk)
        assert ok


def test_minimal_dilation_irreducibility_matches_connectivity():
    ok, _ = oqw.is_irreducible(fixtures.cycle_dilation(4, bias=0.7))
    assert ok
    ok, _ = oqw.is_irreducible(fixtures.gamblers_ruin(5, 0.5))
    assert not ok  # absorbing edges


def test_irreducibility_invariant_under_local_unitaries(ring_walk):
    rng = np.random.default_rng(12)
    us = {}
    for s in ring_walk.sites:
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(a)
        us[s] = q
    trans = {(to, fr): us[to] @ L @ us[fr].conj().T
             for (to, fr), L in ring_walk.transitions.items()}
    rotated = oqw.WalkSpec(ring_walk.sites, ring_walk.dims, trans)
    assert oqw.is_irreducible(rotated)[0] == oqw.is_irreducible(ring_walk)[0]


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_irreducible_walk_is_single_full_enclosure(ring_walk):
    deco = oqw.decompose(ring_walk)
    assert len(deco.recurrent) == 1
    assert deco.recurrent[0].is_full(ring_walk)
    assert deco.transient.total_dim() == 0
    assert deco.projector_sum_defect(ring_walk) <= 1e-8


def test_decompose_trap_walk(trap_walk):
    deco = oqw.decompose(trap_walk)
    assert deco.projector_sum_defect(trap_walk) <= 1e-8
    # e1 direction at site 0 belongs to the recurrent cycle, e2 to none
    d0 = sum(enc.dim("0") for enc in deco.recurrent)
    assert d0 == 1
    assert deco.transient.dim("0") == 1
    assert sum(enc.dim("2") for enc in deco.recurrent) == 2
    assert deco.warning  # degenerate fixed space


def test_decompose_direct_sum_recovers_components(ring_walk):
    other = fixtures.cycle_dilation(2, bias=0.5)
    sites = tuple(f"a{s}" for s in ring_walk.sites) + tuple(f"b{s}" for s in other.sites)
    dims = {f"a{s}": d for s, d in ring_walk.dims.items()}
    dims.update({f"b{s}": d for s, d in other.dims.items()})
    trans = {(f"a{t}", f"a{f}"): L for (t, f), L in ring_walk.transitions.items()}
    trans.update({(f"b{t}", f"b{f}"): L for (t, f), L in other.transitions.items()})
    walk = oqw.WalkSpec(sites, dims, trans)
    deco = oqw.decompose(walk)
    assert len(deco.recurrent) == 2
    assert deco.transient.total_dim() == 0
    supports = [{s for s in sites if enc.dim(s) > 0} for enc in deco.recurrent]
    assert {frozenset(x) for x in supports} == {
        frozenset(s for s in sites if s.startswith("a")),
        frozenset(s for s in sites if s.startswith("b"))}


def test_restrict_walk_is_stochastic_on_enclosure(trap_walk):
    deco = oqw.decompose(trap_walk)
    cycle = next(enc for enc in deco.recurrent if enc.dim("0") == 1)
    sub, _ = oqw.restrict_walk(trap_walk, cycle)
    assert oqw.validate_walk(sub).accepted


# ---------------------------------------------------------------------------
# recurrence classification


def test_classify_requires_irreducible(trap_walk):
    with pytest.raises(InputError, match="reducible"):
        oqw.classify_recurrence(trap_walk, "0")


def test_classify_recurrent_cases():
    # any finite irreducible walk with an invariant state is recurrent
    for walk in (fixtures.cycle_dilation(4, 0.7),
                 fixtures.random_doubly_stochastic(3, 2, seed=7),
                 fixtures.example_half_line(0.75, 30, boundary="taboo")):
        verdict = oqw.classify_recurrence(walk, walk.sites[0])
        assert verdict.case == "recurrent"
        assert verdict.expected_visits_finite is False


def test_classify_transient_open_chain():
    t = np.zeros((6, 6))
    for k in range(6):
        if k + 1 < 6:
            t[k + 1, k] = 0.7
        if k - 1 >= 0:
            t[k - 1, k] = 0.3
    trans = {(str(i), str(j)): np.array([[np.sqrt(t[i, j])]], dtype=complex)
             for i in range(6) for j in range(6) if t[i, j] > 0}
    walk = oqw.WalkSpec(tuple(str(k) for k in range(6)),
                        {str(k): 1 for k in range(6)}, trans)
    verdict = oqw.classify_recurrence(walk, "2")
    assert verdict.case == "transient"
    assert verdict.expected_visits_finite is True


def test_classify_mixed_half_line(half_line_up_taboo):
    verdict = oqw.classify_recurrence(half_line_up_taboo, "0")
    assert verdict.case == "mixed"
    assert np.allclose(verdict.witness_sure, E2, atol=1e-8)
    assert np.allclose(verdict.witness_deficient, MIX, atol=1e-12)
    # witnesses behave as claimed
    p_sure = oqw.passage_probability(half_line_up_taboo, "0", verdict.witness_sure, "0")
    p_def = oqw.passage_probability(half_line_up_taboo, "0",
                                    verdict.witness_deficient, "0")
    assert p_sure >= 1 - 1e-6
    assert p_def <= 1 - 1e-3


def test_classify_builds_one_return_series(half_line_up_taboo, monkeypatch):
    from oqw import hitting

    calls = []
    build = hitting.capture_series
    monkeypatch.setattr(hitting, "capture_series",
                        lambda *args, **kw: calls.append(args[1:]) or build(*args, **kw))
    oqw.classify_recurrence(half_line_up_taboo, "0")
    assert calls == [("0", "0")]


def test_classify_reports_the_series_certificate(half_line_up_taboo, monkeypatch):
    from oqw import linalg

    sizes = []
    radius = linalg.spectral_radius

    def spy(m):
        sizes.append(m.shape[0])
        return radius(m)

    monkeypatch.setattr(linalg, "spectral_radius", spy)
    verdict = oqw.classify_recurrence(half_line_up_taboo, "0")
    assert sizes == [4]   # the 2-dim site's return operator; no interior eigvals
    diag = verdict.diagnostics
    assert diag["radius_source"] == "certificate"
    assert diag["radius_bound"] < 1.0 and diag["residual"] <= 1e-12
    assert "interior_spectral_radius" not in diag


def test_classify_agrees_with_classical_recurrence():
    # minimal dilations of finite irreducible chains are always recurrent
    for bias in (0.5, 0.8):
        verdict = oqw.classify_recurrence(fixtures.cycle_dilation(5, bias), "0")
        assert verdict.case == "recurrent"


# ---------------------------------------------------------------------------
# decomposition bounds


def test_bounds_equality_inside_enclosure(trap_walk):
    deco = oqw.decompose(trap_walk)
    rep = oqw.check_decomposition_bounds(trap_walk, deco, "0", E1, "0")
    assert rep.inequalities_hold
    assert rep.supported_in_recurrent
    assert rep.equalities_hold


def test_bounds_strict_for_leaking_state(trap_walk):
    deco = oqw.decompose(trap_walk)
    rep = oqw.check_decomposition_bounds(trap_walk, deco, "0", MIX, "0")
    assert rep.inequalities_hold
    assert not rep.supported_in_recurrent
    # return time is strictly larger than the enclosure sum (inf vs finite)
    assert math.isinf(rep.return_time[0])
    assert not math.isinf(rep.return_time[1])


def test_bounds_equality_for_mixture_of_enclosures():
    a = fixtures.cycle_dilation(2, 0.5)
    sites = tuple(f"a{s}" for s in a.sites) + tuple(f"b{s}" for s in a.sites)
    dims = {s: 1 for s in sites}
    trans = {(f"a{t}", f"a{f}"): L for (t, f), L in a.transitions.items()}
    trans.update({(f"b{t}", f"b{f}"): L for (t, f), L in a.transitions.items()})
    walk = oqw.WalkSpec(sites, dims, trans)
    deco = oqw.decompose(walk)
    rep = oqw.check_decomposition_bounds(walk, deco, "a0",
                                         np.array([[1.0]], dtype=complex), "a1")
    assert rep.supported_in_recurrent
    assert rep.equalities_hold
