import numpy as np
import pytest
from scipy import stats

import oqw
from oqw import fixtures
from oqw._oracles import path_terms
from oqw.errors import InputError, NumericalError
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
    terms = path_terms(capture_series(branch_walk, "1", "0"), horizon)
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


def test_kac_rejects_a_site_without_invariant_mass():
    # gambler's ruin keeps its invariant mass on the absorbing ends
    with pytest.raises(InputError, match="invariant state carries no mass at site '1'"):
        oqw.estimate_kac(fixtures.gamblers_ruin(7), "1", n_traj=10, k_max=2, seed=3)


def test_kac_names_an_unknown_site():
    with pytest.raises(InputError, match=r"unknown sites \['zzz'\]"):
        oqw.estimate_kac(fixtures.example_branch_return(), "zzz", n_traj=10, k_max=3)


def test_kac_decomposes_once_per_walk(monkeypatch):
    from oqw import structure

    calls = []
    build = structure._decompose
    monkeypatch.setattr(structure, "_decompose", lambda walk: calls.append(1) or build(walk))
    walk = fixtures.example_branch_return()
    first, second = (oqw.estimate_kac(walk, "1", n_traj=10, k_max=5, seed=s) for s in (3, 4))
    assert calls == [1]
    assert first.analytic_target == second.analytic_target


def test_kac_factors_the_restricted_walk_once(monkeypatch):
    # the first call factors the 12 x 12 step matrix, the splits' sub-walks
    # and the one-site walk restricted to the carrying enclosures: its 4 x 4
    # return map, whose fixed dimension 4 sends it on to its 4 x 4 step
    # matrix; later calls read the restricted walk's invariant state from the
    # walk's store
    from oqw import linalg

    calls = []
    factor = linalg._fixed_space
    monkeypatch.setattr(linalg, "_fixed_space", lambda m: calls.append(m.shape[0]) or factor(m))
    walk = fixtures.example_three_site_trap()
    logs, reports = [], []
    for seed in (3, 4, 3):
        calls.clear()
        reports.append(oqw.estimate_kac(walk, "2", n_traj=50, k_max=5, seed=seed))
        logs.append(list(calls))
    assert logs == [[12, 6, 2, 1, 1, 4, 4], [], []]
    assert all(rep.restricted_to_enclosure for rep in reports)
    assert reports[0] == reports[2]
    assert reports[0] == oqw.estimate_kac(fixtures.example_three_site_trap(), "2",
                                          n_traj=50, k_max=5, seed=3)


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


# a sampler run with no trajectory, no step or no return to count, or one
# stopped before its first step
EMPTY_RUNS = {
    "estimate_hitting-n_traj": (lambda w: oqw.estimate_hitting(w, "1", MIX, "2", 0, 3),
                                "n_traj must be >= 1"),
    "estimate_hitting-horizon": (lambda w: oqw.estimate_hitting(w, "1", MIX, "2", 5, 0),
                                 "horizon must be >= 1"),
    "estimate_kac-n_traj": (lambda w: oqw.estimate_kac(w, "1", n_traj=0, k_max=3),
                            "n_traj must be >= 1"),
    "estimate_kac-k_max": (lambda w: oqw.estimate_kac(w, "1", n_traj=5, k_max=0),
                           "k_max must be >= 1"),
    "martingale-n_traj": (lambda w: oqw.martingale_diagnostic(
        w, identity_observable(w), "1", MIX, 0, 3), "n_traj must be >= 1"),
    "martingale-horizon": (lambda w: oqw.martingale_diagnostic(
        w, identity_observable(w), "1", MIX, 5, 0), "horizon must be >= 1"),
    "martingale-start-outside": (lambda w: oqw.martingale_diagnostic(
        w, identity_observable(w), "1", MIX, 5, 3, stop_domain=[]),
        "start site lies outside the stopping domain"),
    "trajectory-horizon": (lambda w: oqw.sample_trajectory(w, "1", MIX, 0, rng=3),
                           "horizon must be >= 1"),
    "words-n_traj": (lambda w: word_frequencies(w, "1", MIX, 3, 0), "n_traj must be >= 1"),
    "words-length": (lambda w: word_frequencies(w, "1", MIX, 0, 5), "length must be >= 1"),
}


@pytest.mark.parametrize("run, message", EMPTY_RUNS.values(), ids=EMPTY_RUNS.keys())
def test_sampler_entries_reject_empty_runs(branch_walk, run, message):
    # an input error, not an empty estimate or a run that ends in "no
    # trajectory reached the requested return count"
    with pytest.raises(InputError, match=message):
        run(branch_walk)


def test_sample_trajectory_rejects_an_unknown_stop_key(branch_walk):
    # a misspelt key would otherwise turn stopping off and run to the horizon
    with pytest.raises(InputError, match=r"unknown stop keys \['hti'\]"):
        oqw.sample_trajectory(branch_walk, "1", MIX, 50, stop={"hti": "0"}, rng=3)
    with pytest.raises(InputError, match=r"unknown stop keys \['domain'\]"):
        oqw.sample_trajectory(branch_walk, "1", MIX, 50, stop={"hit": "0", "domain": ["1"]})
    # "1" has no self-loop, so its one-site domain is left at the first step
    run = oqw.sample_trajectory(branch_walk, "1", MIX, 50, stop={"exit": ["1"]}, rng=3)
    assert (run.stop_reason, run.stopping_index) == ("exited_domain", 1)


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
        # counters at and above 2**32 (a nonzero high half in round 0's product),
        # against numpy's Philox started at counter c, whose first draw is 4c
        for start, length in [(4 * 2**32, 5), (4 * 2**32 - 3, 9), (4 * (2**62 + 5) + 2, 17)]:
            c, off = divmod(start, 4)
            got = philox.uniforms(seed, indices, start, length)
            for row, k in zip(got, indices):
                bits = np.random.Philox(key=np.array([seed, k], dtype=np.uint64),
                                        counter=np.array([c, 0, 0, 0], dtype=np.uint64))
                assert np.array_equal(row, np.random.Generator(bits).random(off + length)[off:])


def test_a_stop_leaves_the_block_of_uniforms_in_place():
    # a stop compacts the held trajectories' rows, not the drawn block: within
    # a block the ensemble keeps one array, and each held trajectory still
    # reads draw n of its own stream (seed, offset + k) at step n + 1
    from oqw.trajectory import _Ensemble

    walk, n, seed, offset = fixtures.example_lattice_nonnormal(10), 40, 8, 3
    refs = [trajectory_rng(seed, offset + k).random(40) for k in range(n)]
    ens = _Ensemble(walk, "0", MIX, n, seed, index_offset=offset)
    pick = np.random.default_rng(1)
    ens.step()   # draws the first block
    in_place = 0
    for _ in range(30):
        block, shape = ens.uniforms, ens.uniforms.shape
        ens.stop(pick.random(ens.held.size) < 0.05)
        assert ens.uniforms is block and ens.uniforms.shape == shape
        if ens.draws - ens.u_start < shape[1]:   # the next draw is in this block
            in_place += 1
            assert np.array_equal(ens._next_uniforms(), [refs[k][ens.draws] for k in ens.held])
        ens.step()
    assert in_place > 20 and 0 < ens.held.size < n
    ens.release()


def test_no_block_of_uniforms_reaches_past_the_horizon(ruin_walk, monkeypatch):
    # every window the sampler asks the streams for ends at the run's horizon
    # (the word length) or before it
    draw, windows = philox.uniforms, []

    def spy(seed, indices, start, length):
        windows.append(start + length)
        return draw(seed, indices, start, length)

    def last_draw(run):
        windows.clear()
        run()
        assert windows
        return max(windows)

    monkeypatch.setattr(philox, "uniforms", spy)
    walk = fixtures.example_lattice_nonnormal(10)
    for h, visits in [(3, False), (10, True), (21, False), (70, True)]:
        assert last_draw(lambda: oqw.estimate_hitting(walk, "0", MIX, "3", n_traj=200, horizon=h,
                                                      seed=5, track_visits=visits)) <= h
    obs = DiagonalObservable({str(k): np.array([[k / 10]], dtype=complex) for k in range(11)})
    inner = [str(k) for k in range(1, 10)]
    for h in (6, 21):
        assert last_draw(lambda: oqw.martingale_diagnostic(
            ruin_walk, obs, "5", np.array([[1.0]]), n_traj=200, horizon=h, seed=6,
            stop_domain=inner)) <= h
    for length in (1, 3, 13):
        assert last_draw(lambda: word_frequencies(walk, "0", MIX, length, 100, seed=7)) <= length


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


@pytest.mark.parametrize("walk, start", [
    (leaky_walk(), "0"),   # reached by a draw
    (oqw.WalkSpec(("0", "1"), {"0": 1, "1": 1}, {("1", "0"): np.eye(1)}), "0"),   # by force
], ids=["drawn", "forced"])
def test_ensemble_raises_at_a_dead_end(walk, start):
    # a held trajectory at a site with no block of positive weight cannot step
    rho = np.eye(walk.dims[start]) / walk.dims[start]
    with pytest.raises(NumericalError, match="dead end at site '1' during sampling"):
        word_frequencies(walk, start, rho, 20, 50, seed=3)


@pytest.mark.parametrize("walk, start, rho, target, horizon, all_stop, compact", [
    (fixtures.example_branch_return(), "1", None, "0", 80, False, False),   # fibre dims 1 and 2
    (fixtures.example_lattice_nonnormal(5), "0", None, "0", 80, False, False),
    (fixtures.random_doubly_stochastic(6, 5, seed=4), "0", None, "3", 12, False, False),  # D > 4
    # the Kac shape: every move forced, so every trajectory returns at step 2
    (fixtures.example_branch_return(), "1",
     conditioned_invariant_state(fixtures.example_branch_return(), "1"), "1", 10, True, False),
    (leaky_walk(), "0", None, "1", 40, False, False),   # the target's class is a dead end
    (fixtures.random_doubly_stochastic(8, 2, seed=3), "0", None, "5", 30, False, False),
    # room made after every step: the held classes, or every class a pointer reaches
    # while they are no more than the held, are kept with the moves known among them
    (fixtures.example_branch_return(), "1", None, "0", 80, False, True),
    (fixtures.example_lattice_nonnormal(5), "0", None, "0", 80, False, True),
    (leaky_walk(), "0", None, "1", 40, False, True),
    (fixtures.random_doubly_stochastic(8, 2, seed=3), "0", None, "5", 30, False, True),
], ids=["walk0-1-0-80", "walk1-0-0-80", "walk2-0-3-12", "kac-shape", "leaky", "random-8-2",
        "walk0-1-0-80-room", "walk1-0-0-80-room", "leaky-room", "random-8-2-room"])
def test_ensemble_follows_single_trajectory_paths(walk, start, rho, target, horizon, all_stop,
                                                  compact):
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
        ens.stop(ens.pos == j)
        if compact:
            ens._make_room(0)
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


@pytest.mark.parametrize("make", [lambda: fixtures.example_lattice_nonnormal(10),
                                  lambda: fixtures.random_doubly_stochastic(6, 5, seed=4)],
                         ids=["lattice", "D>4"])
def test_sampler_tables_are_built_once_per_walk(make, monkeypatch):
    # the padded blocks, Gram rows, superoperators and rank flags depend only
    # on the walk: built by its first sampler call, kept read-only, and the
    # seeded outputs of later calls are those of a fresh walk, bit for bit
    from oqw import trajectory

    calls = []
    build = trajectory._trace_table
    monkeypatch.setattr(trajectory, "_trace_table", lambda m: calls.append(1) or build(m))
    walk = make()
    rho = np.eye(walk.dims["0"], dtype=complex) / walk.dims["0"]
    runs = [oqw.estimate_hitting(walk, "0", rho, "3", n_traj=300, horizon=40, seed=seed)
            for seed in (4, 5, 4)]
    words = word_frequencies(walk, "0", rho, 6, 200, seed=4)
    assert len(calls) == 1
    assert runs[0] == runs[2] != runs[1]
    assert runs[0] == oqw.estimate_hitting(make(), "0", rho, "3", n_traj=300, horizon=40, seed=4)
    assert words == word_frequencies(make(), "0", rho, 6, 200, seed=4)
    tables = [t for t in walk._store[("sampler",)] if isinstance(t, np.ndarray)]
    assert len(tables) >= 4 and not any(t.flags.writeable for t in tables)


# sha256 of the hit, visit and position bytes of _run_hitting, computed with
# the per-trajectory step that the class table replaced; each case builds its
# walk, so a run can start from an empty class table
PINNED_RUN_DIGESTS = [
    ("branch", fixtures.example_branch_return,
     dict(i="1", rho=MIX, j="0", n_traj=400, horizon=40, seed=7, track_visits=True),
     "642a2e7960c0e7deadfb03f742ff38f53b09e422d70411768418110730afe278"),
    ("lattice", lambda: fixtures.example_lattice_nonnormal(10),
     dict(i="0", rho=MIX, j="0", n_traj=2000, horizon=300, seed=11, track_visits=False),
     "7fe017f71a66c79dbc71d80d72d6a6ab2e3942f0b3db53558e8da43ad9c63a8d"),
    ("random D=2", lambda: fixtures.random_doubly_stochastic(8, 2, seed=3),
     dict(i="0", rho=MIX, j="5", n_traj=500, horizon=100, seed=3, track_visits=True),
     "e0930ea98e9face9a08172f43dec9742c332d77f23d5ba6ce6bef2f66502052c"),
    # k-th return runs, whose digests also cover the k-th return times: the
    # Kac shape, where every trajectory returns at every second step, and a
    # held set that decays as trajectories reach their third return
    ("kac shape", fixtures.example_branch_return,
     dict(i="1", rho=conditioned_invariant_state(fixtures.example_branch_return(), "1"),
          j="1", n_traj=300, horizon=100, seed=9, track_visits=True, kth_return=40),
     "7e7bea91bb1e992d57132c2a8c3851f62aa6037af90fb75301c01e1f2547b4b0"),
    ("random third return", lambda: fixtures.random_doubly_stochastic(8, 2, seed=3),
     dict(i="0", rho=MIX, j="0", n_traj=500, horizon=60, seed=5, track_visits=True,
          kth_return=3),
     "bb9e7c385753ebb8eeeac55cfd7b1db0a7d3eb2039351d7ab6b561b0a215f1a9"),
    # draw steps, a table rebuilt, then steps in which every held trajectory,
    # absorbed at 0 or 6, moves by force
    ("ruin", lambda: fixtures.gamblers_ruin(7),
     dict(i="3", rho=[[1.0]], j="6", n_traj=2000, horizon=200, seed=5, track_visits=True),
     "64e2fd11dc82076729457167590a4d7a120bef27575d07d34b35b498ffdfd17e"),
]


def run_digest(walk, kwargs) -> str:
    import hashlib

    from oqw.trajectory import _run_hitting

    hit, visits, kth, ens = _run_hitting(walk, **kwargs)
    return hashlib.sha256(hit.tobytes() + visits.tobytes() + ens.positions.tobytes()
                          + (kth.tobytes() if "kth_return" in kwargs else b"")).hexdigest()


@pytest.mark.parametrize("case, make, kwargs, digest", PINNED_RUN_DIGESTS,
                         ids=[c[0] for c in PINNED_RUN_DIGESTS])
def test_run_hitting_pinned_digests(case, make, kwargs, digest):
    # on a fresh walk, so the run builds its class table
    assert run_digest(make(), kwargs) == digest


@pytest.mark.parametrize("case, make, kwargs, digest", PINNED_RUN_DIGESTS,
                         ids=[c[0] for c in PINNED_RUN_DIGESTS])
def test_run_hitting_pinned_digests_on_a_kept_class_table(case, make, kwargs, digest):
    # a run on a walk that keeps the class table of earlier runs (where classes
    # merge) gives the digest of a fresh walk: after the same run, and after a
    # run from another start with another seed
    walk = make()
    got = [run_digest(walk, kwargs), run_digest(walk, kwargs)]
    other = next(s for s in walk.sites if s != kwargs["i"])
    d = walk.dims[other]
    run_digest(walk, dict(kwargs, i=other, rho=np.eye(d) / d, seed=kwargs["seed"] + 1))
    assert got + [run_digest(walk, kwargs)] == [digest] * 3

@pytest.mark.parametrize("walk, start, rho, target, kth", [
    (fixtures.example_branch_return(), "1", MIX, "0", None),
    (fixtures.example_branch_return(), "1",
     conditioned_invariant_state(fixtures.example_branch_return(), "1"), "1", 40),
    (fixtures.gamblers_ruin(7), "3", [[1.0]], "6", None),
], ids=["branch", "kac shape", "ruin"])
def test_forced_moves_are_kept_by_class(walk, start, rho, target, kth):
    # after a run, a class with one successor of positive weight holds the
    # class that move leads to, or UNSEEN until a step without a draw takes
    # it; every other class holds DRAW, or DEAD when no weight is positive
    from oqw.trajectory import DEAD, DRAW, PROB_FLOOR, UNSEEN, _run_hitting

    *_, ens = _run_hitting(walk, start, rho, target, n_traj=2000, horizon=200, seed=5,
                           track_visits=True, kth_return=kth)
    cum, nxt = ens.cum[:, :ens.n_cls], ens.next[:ens.n_cls]
    positive = np.diff(cum, axis=0, prepend=0.0) > 0.0
    forced = positive.sum(axis=0) == 1
    led = ens.child[np.flatnonzero(forced), positive[:, forced].argmax(axis=0)]
    assert np.all((nxt[forced] == led) | (nxt[forced] == UNSEEN))
    assert np.array_equal(nxt[~forced], np.where(cum[-1, ~forced] <= PROB_FLOOR, DEAD, DRAW))
    assert (nxt[forced] >= 0).any()


# sha256 of the sorted word counts of word_frequencies
PINNED_WORD_DIGESTS = [
    ("random D=2", (lambda: fixtures.random_doubly_stochastic(8, 2, seed=3), "0", 6, 2000, 4),
     "b1222e0704c0d9afac2bc32de6f5eb60be3c0bd0103da4b44ee1c9194868a254"),
    ("lattice", (lambda: fixtures.example_lattice_nonnormal(10), "0", 8, 1500, 6),
     "0506c6b6820e6ac8281e65585f9f7a0905acfd502348560802a06abf700195b7"),
]


@pytest.mark.parametrize("case, args, digest", PINNED_WORD_DIGESTS,
                         ids=[c[0] for c in PINNED_WORD_DIGESTS])
def test_word_frequencies_pinned_digests(case, args, digest):
    # on a fresh walk, again on that walk, and after a run on it from another
    # start with another seed
    import hashlib

    make, i, length, n_traj, seed = args
    walk = make()

    def run(i=i, seed=seed):
        got = word_frequencies(walk, i, MIX, length, n_traj, seed=seed)
        return hashlib.sha256(repr(sorted(got.items())).encode()).hexdigest()

    got = [run(), run()]
    run(walk.sites[1], seed + 1)
    assert got + [run()] == [digest] * 3


def test_stopped_martingale_pinned_digests():
    # sha256 of the means and standard errors of two martingales stopped on
    # leaving a domain: trajectories leave the held set at different steps;
    # each on a fresh walk, again on that walk, and after a run on it from
    # another start in the domain with another seed
    import hashlib

    branch, ruin = fixtures.example_branch_return(), fixtures.gamblers_ruin(11, 0.5)
    domain, inner = ["1", "2"], [str(k) for k in range(1, 10)]
    op = oqw.harmonic_operator(branch, domain, "0")
    obs = DiagonalObservable({str(k): np.array([[k / 10]], dtype=complex) for k in range(11)})
    cases = [
        ((branch, op, "1", MIX, 3000, 60, 25, domain), "2",
         "77f21d0e10145637917877d7d8492821330bacc180c9477bac580cbedbf4879f"),
        ((ruin, obs, "5", np.array([[1.0]]), 2000, 80, 26, inner), "4",
         "2fbad08a0dc6734b66392bfb855b14f7f6e1c7652d3b0d84c49b419427df44ac"),
    ]
    for (walk, a, i, rho, n_traj, horizon, seed, stop), other, digest in cases:
        def run(i=i, rho=rho, seed=seed):
            rep = oqw.martingale_diagnostic(walk, a, i, rho, n_traj=n_traj, horizon=horizon,
                                            seed=seed, stop_domain=stop)
            return hashlib.sha256(rep.means.tobytes() + rep.standard_errors.tobytes()).hexdigest()

        got = [run(), run()]
        d = walk.dims[other]
        run(other, np.eye(d) / d, seed + 1)
        assert got + [run()] == [digest] * 3


# ---------------------------------------------------------------------------
# the class table a walk keeps between sampler runs


def test_ensembles_live_on_one_walk_at_once_match_their_solo_runs():
    # the first ensemble takes the class table the walk kept, the second finds
    # none and builds its own; stepped in alternation, each walks the sites it
    # walks alone on a fresh walk, and a later run matches one on a fresh walk
    from oqw.trajectory import _Ensemble

    def paths(walk, starts, horizon=60):
        ensembles = [_Ensemble(walk, i, MIX, 500, seed) for i, seed in starts]
        classes = [ens.n_cls for ens in ensembles]   # at the start
        rows = [[ens.positions] for ens in ensembles]
        for _ in range(horizon):
            for ens, row in zip(ensembles, rows):
                ens.step()
                row.append(ens.positions)
        for ens in ensembles:
            ens.release()
        return classes, [np.array(row) for row in rows]

    def make():
        return fixtures.example_lattice_nonnormal(10)

    kwargs = dict(i="0", rho=MIX, j="3", n_traj=500, horizon=60, seed=4, track_visits=True)
    walk, starts = make(), [("0", 11), ("2", 12)]
    run_digest(walk, kwargs)
    classes, together = paths(walk, starts)
    assert classes[0] > 1 == classes[1]
    for start, got in zip(starts, together):
        assert np.array_equal(got, paths(make(), [start])[1][0])
    assert run_digest(walk, kwargs) == run_digest(make(), kwargs)


def test_a_run_that_raises_puts_no_class_table_back():
    # a run that meets a dead end part-way keeps the table it took; the next
    # run on the walk starts its own and matches a run on a fresh walk
    walk, rho = leaky_walk(), np.eye(2) / 2
    kwargs = dict(i="0", rho=rho, j="1", n_traj=300, horizon=40, seed=3, track_visits=False)
    run_digest(walk, kwargs)
    kept = walk._store[("sampler",)][-1]
    assert "table" in kept
    with pytest.raises(NumericalError, match="dead end at site '1' during sampling"):
        word_frequencies(walk, "0", rho, 20, 50, seed=3)
    assert "table" not in kept
    assert run_digest(walk, kwargs) == run_digest(leaky_walk(), kwargs)


@pytest.mark.parametrize("case", ["ruin", "lattice"])
def test_a_class_table_holds_each_state_once(case):
    # every block of these walks is looked up, so the kept table holds each
    # (site, state bytes) in one row, and after room is made every known entry
    # leads to a kept row with exactly its bytes
    from oqw.trajectory import _Ensemble

    _, make, kwargs, _ = next(c for c in PINNED_RUN_DIGESTS if c[0] == case)
    walk = make()
    run_digest(walk, kwargs)
    table = walk._store[("sampler",)][-1]["table"]
    n = table["n_cls"]
    rows = list(zip(table["site"][:n].tolist(), (v.tobytes() for v in table["vec"][:n])))
    assert len(set(rows)) == n > 1
    ens = _Ensemble(walk, kwargs["i"], kwargs["rho"], 500, kwargs["seed"] + 1)
    for _ in range(20):
        ens.step()
    ens._make_room(0)
    assert ens.known and all(
        0 <= c < ens.n_cls and (ens.site[c], ens.vec[c].tobytes()) == key
        for key, c in ens.known.items())


def test_a_walk_keeps_no_class_table_over_its_row_budget():
    # a run whose table outgrows KEPT_TABLE_ROWS leaves none on the walk; a later
    # small run then keeps its own small one and answers as on a fresh walk
    from oqw.trajectory import KEPT_TABLE_ROWS, _run_hitting

    def make():   # states merge only at the absorbing ends, so classes are many
        return fixtures.example_lattice_normal(0.3, 0.6, 20)

    big = dict(i="0", rho=MIX, j="0", n_traj=2000, horizon=100, seed=3, track_visits=False)
    small = dict(big, n_traj=100, seed=4)
    walk = make()
    assert _run_hitting(walk, **big)[3].site.size > KEPT_TABLE_ROWS
    kept = walk._store[("sampler",)][-1]
    assert "table" not in kept
    assert run_digest(walk, small) == run_digest(make(), small)
    assert kept["table"]["site"].size <= KEPT_TABLE_ROWS


def test_kept_class_table_stays_bounded():
    # repeating mc-lattice's call adds no class after the second call; a walk
    # whose classes never merge keeps no class table
    walk = fixtures.example_lattice_nonnormal(50)
    rows = []
    for _ in range(5):
        oqw.estimate_hitting(walk, "0", MIX, "0", n_traj=5000, horizon=300, seed=7,
                             track_visits=False)
        rows.append(walk._store[("sampler",)][-1]["table"]["n_cls"])
    assert rows[1] == rows[4]
    walk = fixtures.random_doubly_stochastic(8, 2, seed=3)
    oqw.estimate_hitting(walk, "0", MIX, "5", n_traj=500, horizon=100, seed=3)
    assert walk._store[("sampler",)][-1] == {}
