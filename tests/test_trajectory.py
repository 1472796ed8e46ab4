import numpy as np
import pytest
from scipy import stats

import oqw
from oqw import fixtures
from oqw.errors import InputError
from oqw.hitting import capture_series
from oqw.structure import decompose
from oqw import philox
from oqw.trajectory import trajectory_rng, word_frequencies
from oqw.walk import DiagonalObservable, identity_observable

from conftest import E1, E2, MIX, rotate


def test_deterministic_walk_single_successor():
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    walk = oqw.WalkSpec(("a", "b"), {"a": 2, "b": 2},
                        {("b", "a"): u, ("a", "b"): u})
    site, rho, renorm = oqw.sample_step(walk, "a", E1, trajectory_rng(0))
    assert site == "b"
    assert np.allclose(rho, E2)
    assert not renorm


def test_sample_step_trap_walk_from_e1(trap_walk):
    site, rho, _ = oqw.sample_step(trap_walk, "0", E1, trajectory_rng(1))
    assert site == "1"
    assert np.allclose(rho, E1)


def test_sample_step_frequencies_match_classical():
    t = np.array([[0.3, 0.6], [0.7, 0.4]])
    walk = oqw.minimal_dilation(t)
    rng = trajectory_rng(2)
    n = 100_000
    hits = sum(oqw.sample_step(walk, "0", np.array([[1.0]]), rng)[0] == "1"
               for _ in range(n))
    p_hat = hits / n
    assert abs(p_hat - 0.7) <= 3 * np.sqrt(0.7 * 0.3 / n)


def test_reproducibility_bit_identical(branch_walk):
    a = oqw.sample_trajectory(branch_walk, "1", MIX, 60, rng=trajectory_rng(5, 9))
    b = oqw.sample_trajectory(branch_walk, "1", MIX, 60, rng=trajectory_rng(5, 9))
    assert a.sites == b.sites
    assert a.stop_reason == b.stop_reason
    assert all(np.array_equal(x, y) for x, y in zip(a.states, b.states))


def test_states_stay_normalized_and_psd(half_line_down):
    rec = oqw.sample_trajectory(half_line_down, "0", MIX, 200, rng=trajectory_rng(6))
    for rho in rec.states:
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() >= -1e-10


def test_trajectory_positions_follow_nonzero_blocks(branch_walk):
    rec = oqw.sample_trajectory(branch_walk, "1", MIX, 40, rng=trajectory_rng(7))
    for fr, to in zip(rec.sites, rec.sites[1:]):
        assert branch_walk.block(to, fr) is not None


def test_stop_predicates(trap_walk, ring_walk):
    rec = oqw.sample_trajectory(trap_walk, "0", E1, 10, stop={"hit": "0"},
                                rng=trajectory_rng(8))
    assert rec.stop_reason == "hit_target"
    assert rec.stopping_index == 2
    rec = oqw.sample_trajectory(ring_walk, "0", MIX, 500, stop={"exit": ["0", "1"]},
                                rng=trajectory_rng(9))
    assert rec.stop_reason == "exited_domain"
    assert rec.sites[-1] == "2"
    rec = oqw.sample_trajectory(trap_walk, "0", E2, 5, stop={"hit": "0"},
                                rng=trajectory_rng(10))
    assert rec.stop_reason == "horizon"


def test_horizon_one_is_single_step(trap_walk):
    rec = oqw.sample_trajectory(trap_walk, "0", E1, 1, rng=trajectory_rng(11))
    assert len(rec.sites) == 2


def test_cylinder_word_probability(trap_walk):
    # empirical frequency of the two-step word (1, 0) from (0, rho) equals
    # Tr L01 L10 rho L10† L01†
    rho = np.diag([0.6, 0.4]).astype(complex)
    l10 = trap_walk.block("1", "0")
    l01 = trap_walk.block("0", "1")
    exact = np.trace(l01 @ l10 @ rho @ l10.conj().T @ l01.conj().T).real
    n = 40_000
    counts = word_frequencies(trap_walk, "0", rho, 2, n, seed=12)
    p_hat = counts.get(("1", "0"), 0) / n
    assert abs(p_hat - exact) <= 3 * np.sqrt(exact * (1 - exact) / n)


def test_word_frequencies_chi_square_matches_classical_chain():
    t = np.array([[0.2, 0.5, 0.1],
                  [0.5, 0.2, 0.4],
                  [0.3, 0.3, 0.5]])
    walk = oqw.minimal_dilation(t)
    n = 100_000
    counts = word_frequencies(walk, "0", np.array([[1.0]]), 3, n, seed=13)
    labels, expected = [], []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                p = t[a, 0] * t[b, a] * t[c, b]
                if p > 0:
                    labels.append((str(a), str(b), str(c)))
                    expected.append(p * n)
    observed = [counts.get(w, 0) for w in labels]
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 0.01


def test_estimate_hitting_trap_walk(trap_walk):
    est = oqw.estimate_hitting(trap_walk, "0", np.diag([0.7, 0.3]).astype(complex),
                               "0", n_traj=20_000, horizon=10, seed=14)
    p = est["p_hit_by_horizon"]
    assert abs(p.estimate - 0.7) <= 3 * p.standard_error


def test_estimate_hitting_deterministic_cycle():
    walk = fixtures.cycle_dilation(3, bias=1.0)
    est = oqw.estimate_hitting(walk, "0", np.array([[1.0]]), "0",
                               n_traj=50, horizon=10, seed=15)
    assert est["p_hit_by_horizon"].estimate == 1.0
    assert est["censored_expected_time"].estimate == 3.0
    assert est["censored_expected_time"].standard_error == 0.0


def test_estimate_hitting_censored_time(half_line_down):
    est = oqw.estimate_hitting(half_line_down, "0", E1, "0",
                               n_traj=4000, horizon=200, seed=16)
    t = est["censored_expected_time"]
    assert abs(t.estimate - 3.0) <= 3 * t.standard_error + 1e-6


def test_monte_carlo_matches_exact_finite_horizon(branch_walk):
    # compare against the exact finite-horizon law from the series terms
    horizon = 24
    terms = capture_series(branch_walk, "1", "0").length_terms(horizon)
    from oqw.linalg import unvec, vec
    exact = sum(np.trace(unvec(m @ vec(MIX), 1)).real for m in terms)
    est = oqw.estimate_hitting(branch_walk, "1", MIX, "0",
                               n_traj=20_000, horizon=horizon, seed=17,
                               track_visits=False)
    p = est["p_hit_by_horizon"]
    assert abs(p.estimate - exact) <= 3 * p.standard_error


def test_kac_deterministic_cycle():
    walk = fixtures.cycle_dilation(3, bias=1.0)
    rep = oqw.estimate_kac(walk, "0", n_traj=20, k_max=50, seed=18)
    assert rep.empirical.estimate == pytest.approx(3.0, abs=1e-12)
    assert rep.analytic_target == pytest.approx(3.0, abs=1e-9)
    assert rep.within_three_sigma


def test_kac_symmetric_five_cycle():
    walk = fixtures.cycle_dilation(5, bias=0.5)
    rep = oqw.estimate_kac(walk, "2", n_traj=400, k_max=400, seed=19)
    assert rep.analytic_target == pytest.approx(5.0, abs=1e-9)
    assert rep.within_three_sigma


def test_kac_restricts_reducible_walk_to_component(branch_walk):
    rep = oqw.estimate_kac(branch_walk, "1", n_traj=100, k_max=200, seed=20)
    assert rep.restricted_to_enclosure
    assert rep.analytic_target == pytest.approx(2.0, abs=1e-9)
    assert rep.empirical.estimate == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kac_target_does_not_depend_on_local_bases(branch_walk, seed):
    rep = oqw.estimate_kac(rotate(branch_walk, seed), "1", n_traj=20, k_max=20, seed=20)
    assert rep.restricted_to_enclosure
    assert rep.analytic_target == pytest.approx(2.0, abs=1e-12)


def test_kac_rejects_site_outside_every_enclosure():
    # the chain leaks into "cut+" below the fixed-point tolerance, so the
    # invariant state has mass at "1", but no closed part carries it
    walk = fixtures.example_half_line(0.75, 20)
    with pytest.raises(InputError, match="ergodic component"):
        oqw.estimate_kac(walk, "1", n_traj=10, k_max=10, seed=21)


def test_kac_requires_invariant_state():
    walk, _ = _open_chain()
    with pytest.raises(InputError, match="invariant"):
        oqw.estimate_kac(walk, "0", n_traj=10, k_max=10, seed=21)


def _open_chain():
    t = np.zeros((4, 4))
    for k in range(4):
        if k + 1 < 4:
            t[k + 1, k] = 0.7
        if k - 1 >= 0:
            t[k - 1, k] = 0.3
    trans = {(str(i), str(j)): np.array([[np.sqrt(t[i, j])]], dtype=complex)
             for i in range(4) for j in range(4) if t[i, j] > 0}
    return oqw.WalkSpec(tuple(str(k) for k in range(4)),
                        {str(k): 1 for k in range(4)}, trans), t


def test_sampler_entries_check_sites_and_start_state(branch_walk):
    # every entry names an unknown start, target or stop-domain site, and
    # rejects a start state that is not a density matrix at the start site,
    # as an input error
    walk, ident = branch_walk, identity_observable(branch_walk)
    entries = {
        "estimate_hitting": lambda i, rho, j: oqw.estimate_hitting(
            walk, i, rho, j, n_traj=5, horizon=3),
        "hitting_paths": lambda i, rho, j: list(oqw.trajectory._hitting_paths(
            walk, i, rho, j, 5, 3, 0)),
        "martingale": lambda i, rho, j: oqw.martingale_diagnostic(
            walk, ident, i, rho, 5, 3, stop_domain=[i, j]),
        "words": lambda i, rho, j: word_frequencies(walk, i, rho, 3, 5),
        "trajectory": lambda i, rho, j: oqw.sample_trajectory(
            walk, i, rho, 3, stop={"hit": j}),
        "trajectory_exit": lambda i, rho, j: oqw.sample_trajectory(
            walk, i, rho, 3, stop={"exit": [i, j]}),
        "step": lambda i, rho, j: oqw.sample_step(walk, i, rho, trajectory_rng(0)),
    }
    for name, run in entries.items():
        run("1", MIX, "2")
        bad = [("9", MIX, "2")] + [("1", MIX, "9")] * (name not in ("words", "step"))
        for i, rho, j in bad:
            with pytest.raises(InputError, match="unknown sites"):
                run(i, rho, j)
        for rho in [np.diag([2.0, -1.0]), np.eye(3) / 3, np.array([[np.nan, 0.0], [0.0, 1.0]])]:
            with pytest.raises(InputError):
                run("1", rho, "2")


def test_martingale_identity_observable(ring_walk):
    rep = oqw.martingale_diagnostic(ring_walk, identity_observable(ring_walk),
                                    "0", MIX, n_traj=200, horizon=30, seed=22)
    assert rep.max_drift <= 1e-10


def test_martingale_requires_harmonic(ring_walk):
    rng = np.random.default_rng(23)
    bad = DiagonalObservable({s: np.diag(rng.normal(size=2)).astype(complex)
                              for s in ring_walk.sites})
    with pytest.raises(InputError, match="harmonic"):
        oqw.martingale_diagnostic(ring_walk, bad, "0", MIX, 10, 5, seed=24)


def test_martingale_harmonic_measure_operator(branch_walk):
    # the harmonic-measure operator of a domain, stopped at exit
    domain = ["1", "2"]
    op = oqw.harmonic_operator(branch_walk, domain, "0")
    rep = oqw.martingale_diagnostic(branch_walk, op, "1", MIX,
                                    n_traj=3000, horizon=60, seed=25,
                                    stop_domain=domain)
    assert rep.max_drift_sigmas <= 3.0


def test_martingale_classical_harmonic_vector(ruin_walk):
    # h(i) = i/10 is harmonic for the symmetric ruin chain
    obs = DiagonalObservable({str(k): np.array([[k / 10]], dtype=complex)
                              for k in range(11)})
    rep = oqw.martingale_diagnostic(ruin_walk, obs, "5", np.array([[1.0]]),
                                    n_traj=3000, horizon=80, seed=26)
    assert rep.max_drift_sigmas <= 3.0


def test_ensemble_merge_independent_of_batching(branch_walk):
    # statistics over per-trajectory streams do not depend on how the
    # ensemble is split into batches
    from oqw.trajectory import _run_hitting

    hit_a1, _, _, _ = _run_hitting(branch_walk, "1", MIX, "0", 40, 50, seed=27,
                                   track_visits=False)
    hit_b1, _, _, _ = _run_hitting(branch_walk, "1", MIX, "0", 25, 50, seed=27,
                                   track_visits=False)
    hit_b2, _, _, _ = _run_hitting(branch_walk, "1", MIX, "0", 15, 50, seed=27,
                                   track_visits=False, index_offset=25)
    merged = np.concatenate([hit_b1, hit_b2])
    assert np.array_equal(np.nan_to_num(hit_a1, posinf=-1),
                          np.nan_to_num(merged, posinf=-1))


# ---------------------------------------------------------------------------
# vectorized streams and the gathered ensemble step


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
def test_philox_matches_numpy_streams(seed, monkeypatch):
    indices = [0, 1, 7, 12345678901234, 2**63, 2**64 - 1]
    windows = [(0, 1), (0, 4), (3, 2), (4, 4), (5, 17), (1021, 7)]
    refs = {k: np.random.Generator(np.random.Philox(
        key=np.array([seed, k], dtype=np.uint64))).random(1028) for k in indices}
    for chunk in (3, philox.CHUNK):   # a tiny chunk crosses chunk edges
        monkeypatch.setattr(philox, "CHUNK", chunk)
        for start, length in windows:
            got = philox.uniforms(seed, indices, start, length)
            assert got.shape == (len(indices), length)
            for row, k in zip(got, indices):
                assert np.array_equal(row, refs[k][start:start + length])


def conditioned_invariant_state(walk, site):
    block = decompose(walk).invariant.blocks[site]
    return block / np.trace(block).real


def leaky_walk():
    """Substochastic three-site walk: from "0" a trajectory reaches "1", which
    has no outgoing block, or turns through "2" back to "0"."""
    turn = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
    return oqw.WalkSpec(("0", "1", "2"), {"0": 2, "1": 2, "2": 2},
                        {("1", "0"): np.sqrt(0.15) * np.eye(2), ("2", "0"): np.sqrt(0.85) * turn,
                         ("0", "2"): np.eye(2)})


@pytest.mark.parametrize("walk, start, rho, target, horizon, all_stop", [
    (fixtures.example_branch_return(), "1", None, "0", 80, False),   # fibre dims 1 and 2
    (fixtures.example_lattice_nonnormal(5), "0", None, "0", 80, False),
    (fixtures.random_doubly_stochastic(6, 5, seed=4), "0", None, "3", 12, False),  # D > 4
    # the Kac shape: every move forced, so every trajectory returns at step 2
    (fixtures.example_branch_return(), "1",
     conditioned_invariant_state(fixtures.example_branch_return(), "1"), "1", 10, True),
    (leaky_walk(), "0", None, "1", 40, False),   # the target's class is a dead end
    (fixtures.random_doubly_stochastic(8, 2, seed=3), "0", None, "5", 30, False),
], ids=["walk0-1-0-80", "walk1-0-0-80", "walk2-0-3-12", "kac-shape", "leaky", "random-8-2"])
def test_ensemble_follows_single_trajectory_paths(walk, start, rho, target, horizon, all_stop):
    # trajectory k of the ensemble walks the same sites as the single
    # sampler on stream (seed, offset + k), also once others have stopped
    from oqw.trajectory import _Ensemble

    n, seed, offset = 60, 31, 5
    if rho is None:
        rho = np.eye(walk.dims[start], dtype=complex) / walk.dims[start]
    ens = _Ensemble(walk, start, rho, n, seed, index_offset=offset)
    j = ens.site_index[target]
    paths = [[start] for _ in range(n)]
    for _ in range(horizon):
        moving = np.flatnonzero(ens.active)
        ens.step()
        for k in moving:
            paths[k].append(walk.sites[ens.positions[k]])
        ens.active[ens.positions == j] = False
    assert ens.active.sum() == 0 if all_stop else 0 < ens.active.sum() < n
    for k in range(n):
        rec = oqw.sample_trajectory(walk, start, rho, horizon, stop={"hit": target},
                                    rng=trajectory_rng(seed, offset + k),
                                    record_states=False)
        assert paths[k] == rec.sites


def test_hitting_paths_match_single_trajectories_across_chunks(branch_walk):
    # the dump records: chunks of 7 on streams (seed, k) give the single
    # sampler's record for every k, hits at the horizon included
    from oqw.trajectory import _hitting_paths

    n, horizon, seed = 30, 6, 12
    got = list(_hitting_paths(branch_walk, "1", MIX, "0", n, horizon, seed, chunk=7))
    assert len(got) == n
    reasons = set()
    for k, (sites, reason, index) in enumerate(got):
        rec = oqw.sample_trajectory(branch_walk, "1", MIX, horizon, stop={"hit": "0"},
                                    rng=trajectory_rng(seed, k), record_states=False)
        assert (sites, reason, index) == (rec.sites, rec.stop_reason, rec.stopping_index)
        reasons.add((reason, index == horizon))
    assert {("hit_target", False), ("horizon", True)} <= reasons


# Outputs of the per-site sampler with one numpy Generator per trajectory;
# the gathered step and vectorized streams must reproduce them exactly.
PINNED_HITTING = [
    ("branch", dict(walk=fixtures.example_branch_return(), i="1", j="0",
                    n_traj=400, horizon=40, seed=7),
     [0.7425, 0.021862853770722612, 11.9175, 0.8335924816351191, 0,
      14.4125, 0.42766880983099015]),
    ("lattice", dict(walk=fixtures.example_lattice_nonnormal(10), i="0", j="0",
                     n_traj=2000, horizon=300, seed=11, track_visits=False),
     [0.913, 0.006302023484564302, 33.617, 1.8674810302113107, 0]),
    ("lattice visits", dict(walk=fixtures.example_lattice_nonnormal(6), i="0", j="2",
                            n_traj=500, horizon=80, seed=2**64 - 1),
     [0.786, 0.01834142851579451, 24.996, 1.3764058100385277, 0,
      4.472, 0.2099012841747196]),
    ("taboo half-line", dict(walk=fixtures.example_half_line(0.25, 40, boundary="taboo"),
                             i="0", j="0", n_traj=1000, horizon=150, seed=16),
     [0.649, 0.015093011627902497, 53.604, 2.2430962227832905, 24564,
      1.21, 0.04597840812831621]),
]


@pytest.mark.parametrize("case, kwargs, expected", PINNED_HITTING,
                         ids=[c[0] for c in PINNED_HITTING])
def test_estimate_hitting_pinned(case, kwargs, expected):
    kwargs = dict(kwargs)
    walk, i, j = kwargs.pop("walk"), kwargs.pop("i"), kwargs.pop("j")
    est = oqw.estimate_hitting(walk, i, MIX, j, **kwargs)
    got = [est["p_hit_by_horizon"].estimate, est["p_hit_by_horizon"].standard_error,
           est["censored_expected_time"].estimate,
           est["censored_expected_time"].standard_error, est["renormalized_steps"]]
    if "censored_expected_visits" in est:
        got += [est["censored_expected_visits"].estimate,
                est["censored_expected_visits"].standard_error]
    assert got == expected


@pytest.mark.parametrize("walk, site, n_traj, k_max, seed, expected", [
    (fixtures.cycle_dilation(5, bias=0.5), "2", 100, 60, 19,
     [4.921166666666666, 0.05750608956189194, 100, 0, 0, 2400]),
    (fixtures.random_doubly_stochastic(3, 2, seed=7), "0", 200, 50, 2**63 + 5,
     [2.9758000000000004, 0.09246882837532618, 200, 0, 0, 1200]),
])
def test_estimate_kac_pinned(walk, site, n_traj, k_max, seed, expected):
    rep = oqw.estimate_kac(walk, site, n_traj=n_traj, k_max=k_max, seed=seed)
    assert [rep.empirical.estimate, rep.empirical.standard_error,
            rep.empirical.n_samples, rep.n_censored,
            rep.diagnostics["renormalized_steps"], rep.diagnostics["max_steps"]] == expected


def test_word_frequencies_pinned(branch_walk, trap_walk):
    got = word_frequencies(branch_walk, "1", MIX, 5, 300, seed=3)
    assert got == {("0", "1", "0", "1", "0"): 129, ("2", "1", "0", "1", "0"): 46,
                   ("2", "1", "2", "1", "0"): 20, ("2", "1", "2", "1", "2"): 40,
                   ("2", "1", "2", "3", "3"): 21, ("2", "3", "3", "3", "3"): 44}
    got = word_frequencies(trap_walk, "0", np.diag([0.6, 0.4]).astype(complex), 3, 500,
                           seed=12)
    assert got == {("1", "0", "1"): 307, ("2", "2", "2"): 193}


def test_forced_moves_draw_no_uniforms(monkeypatch):
    # from the conditioned invariant state at "1" every move of example 5.4
    # is forced, so the sampler never asks the streams for a draw
    def draw(*args):
        raise AssertionError("a forced move drew a uniform")

    monkeypatch.setattr(philox, "uniforms", draw)
    rep = oqw.estimate_kac(fixtures.example_branch_return(), "1", n_traj=300, k_max=40, seed=9)
    assert (rep.empirical.estimate, rep.n_censored) == (2.0, 0)


# sha256 of the hit, visit and position bytes of _run_hitting, computed with
# the per-trajectory step that the class table replaced
PINNED_RUN_DIGESTS = [
    ("branch", dict(walk=fixtures.example_branch_return(), i="1", rho=MIX, j="0",
                    n_traj=400, horizon=40, seed=7, track_visits=True),
     "642a2e7960c0e7deadfb03f742ff38f53b09e422d70411768418110730afe278"),
    ("lattice", dict(walk=fixtures.example_lattice_nonnormal(10), i="0", rho=MIX, j="0",
                     n_traj=2000, horizon=300, seed=11, track_visits=False),
     "7fe017f71a66c79dbc71d80d72d6a6ab2e3942f0b3db53558e8da43ad9c63a8d"),
    ("random D=2", dict(walk=fixtures.random_doubly_stochastic(8, 2, seed=3), i="0", rho=MIX,
                        j="5", n_traj=500, horizon=100, seed=3, track_visits=True),
     "e0930ea98e9face9a08172f43dec9742c332d77f23d5ba6ce6bef2f66502052c"),
]


@pytest.mark.parametrize("one_slot", [False, True], ids=["hashed", "one slot"])
@pytest.mark.parametrize("case, kwargs, digest", PINNED_RUN_DIGESTS,
                         ids=[c[0] for c in PINNED_RUN_DIGESTS])
def test_run_hitting_pinned_digests(case, kwargs, digest, one_slot, monkeypatch):
    # one_slot hashes every class to one slot: classes merge only when their
    # bytes match, so fewer are shared and nothing else changes
    import hashlib

    from oqw.trajectory import _Ensemble, _run_hitting

    init = _Ensemble.__init__

    def hash_to_one_slot(self, *args, **kw):
        init(self, *args, **kw)
        self.mult[:] = 0

    if one_slot:
        monkeypatch.setattr(_Ensemble, "__init__", hash_to_one_slot)
    hit, visits, _, ens = _run_hitting(**kwargs)
    got = hashlib.sha256(hit.tobytes() + visits.tobytes() + ens.positions.tobytes())
    assert got.hexdigest() == digest
