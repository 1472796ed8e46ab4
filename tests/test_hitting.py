import math

import numpy as np
import pytest

import oqw
from oqw import fixtures
from oqw.errors import InputError
from oqw.hitting import capture_series, shanks_limit
from oqw.linalg import unvec, vec

from conftest import E1, E2, MIX, random_density


# ---------------------------------------------------------------------------
# taboo operators


def test_trap_walk_return_operator_is_projection_sandwich(trap_walk):
    op = oqw.taboo_operator(trap_walk, "0", "0")
    e = np.diag([1.0, 0.0])
    assert np.abs(op.matrix - np.kron(e, e)).max() <= 1e-12


def test_single_site_identity_walk_returns_surely():
    walk = oqw.WalkSpec(("0",), {"0": 2}, {("0", "0"): np.eye(2)})
    op = oqw.taboo_operator(walk, "0", "0")
    assert np.allclose(op.matrix, np.eye(4))
    assert oqw.expected_return_time(walk, "0", MIX, "0").value == pytest.approx(1.0)


def test_branch_walk_return_operator(branch_walk):
    op = oqw.taboo_operator(branch_walk, "1", "1")
    # exactly two return routes: through the root and through site 2
    m1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    m2 = np.array([[2 ** -0.5, 0.0], [0.5, 0.0]], dtype=complex)
    expected = np.kron(m1.conj(), m1) + np.kron(m2.conj(), m2)
    assert np.abs(op.matrix - expected).max() <= 1e-12
    assert np.allclose(op.dual_identity(), np.diag([0.75, 1.0]), atol=1e-12)


def test_taboo_operator_is_cp_contraction(trap_walk, branch_walk, ruin_walk):
    pairs = [(trap_walk, "0", "0"), (branch_walk, "1", "0"), (ruin_walk, "3", "0")]
    for walk, i, j in pairs:
        op = oqw.taboo_operator(walk, i, j)
        assert op.is_completely_positive(1e-8)
        assert op.is_contraction(1e-8)


def test_dual_identity_eigenvalues_in_unit_interval(branch_walk, half_line_down):
    for walk, i, j in [(branch_walk, "1", "0"), (half_line_down, "0", "0")]:
        w = np.linalg.eigvalsh(oqw.taboo_operator(walk, i, j).dual_identity())
        assert w.min() >= -1e-10
        assert w.max() <= 1.0 + 1e-10


# ---------------------------------------------------------------------------
# alpha-weighted operators


def test_alpha_requires_open_interval(trap_walk):
    with pytest.raises(InputError):
        oqw.alpha_operator(trap_walk, "0", "0", alpha=1.0)


def test_alpha_small_alpha_keeps_only_short_paths(trap_walk):
    op = oqw.alpha_operator(trap_walk, "0", "1", alpha=1e-4)
    direct = trap_walk.block("1", "0")
    first_order = 1e-4 * np.kron(direct.conj(), direct)
    assert np.abs(op.matrix - first_order).max() <= 1e-7


def test_alpha_two_step_loop_mass(trap_walk):
    for a in (0.2, 0.5, 0.9):
        op = oqw.alpha_operator(trap_walk, "0", "0", alpha=a)
        assert np.trace(op.apply(E1)).real == pytest.approx(a * a, abs=1e-12)


def test_alpha_trace_monotone(branch_walk, half_line_down):
    rng = np.random.default_rng(7)
    for walk, i, j in [(branch_walk, "1", "0"), (half_line_down, "0", "0")]:
        rho = random_density(rng, walk.dims[i])
        prev = -1.0
        for a in np.linspace(0.05, 0.99, 12):
            tr = np.trace(oqw.alpha_operator(walk, i, j, alpha=a).apply(rho)).real
            assert tr >= prev - 1e-12
            prev = tr


# ---------------------------------------------------------------------------
# passage probabilities


@pytest.mark.parametrize("r,expected", [(0.0, 1.0), (0.3, 0.7), (1.0, 0.0)])
def test_trap_walk_passage(trap_walk, r, expected):
    rho = np.diag([1 - r, r]).astype(complex)
    assert oqw.passage_probability(trap_walk, "0", rho, "0") == \
        pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_branch_walk_passage(branch_walk, r):
    rho = np.diag([1 - r, r]).astype(complex)
    assert oqw.passage_probability(branch_walk, "1", rho, "0") == \
        pytest.approx((1 + r) / 2, abs=1e-12)


def test_ruin_passage_matches_classical():
    walk = fixtures.gamblers_ruin(11, 0.3)  # up with probability 0.3
    p, q = 0.3, 0.7
    rho = np.array([[1.0]], dtype=complex)
    # classical: P_i(hit 10 before 0) = (1 - (q/p)^i) / (1 - (q/p)^10)
    for i in (2, 5, 8):
        win = (1 - (q / p) ** i) / (1 - (q / p) ** 10)
        assert oqw.passage_probability(walk, str(i), rho, "10") == \
            pytest.approx(win, abs=1e-10)
        assert oqw.passage_probability(walk, str(i), rho, "0") == \
            pytest.approx(1 - win, abs=1e-10)


def test_cor35_block_structure_when_passage_is_sure(branch_walk, half_line_up_taboo):
    # whenever the passage probability is 1, the dual identity restricted to
    # the range of rho is the identity with vanishing off-diagonal blocks
    cases = [(branch_walk, "1", E2, "0"), (half_line_up_taboo, "0", E2, "0")]
    for walk, i, rho, j in cases:
        assert oqw.passage_probability(walk, i, rho, j) >= 1 - 1e-8
        pstar = oqw.taboo_operator(walk, i, j).dual_identity()
        w, v = np.linalg.eigh(rho)
        ran = v[:, w > 1e-12]
        ortho = v[:, w <= 1e-12]
        assert np.abs(ran.conj().T @ pstar @ ran - np.eye(ran.shape[1])).max() <= 1e-6
        assert np.abs(ortho.conj().T @ pstar @ ran).max() <= 1e-6


# ---------------------------------------------------------------------------
# expected visits


def test_trap_walk_visits(trap_walk):
    assert oqw.expected_visits(trap_walk, "0", E2, "0").value == 0.0
    assert math.isinf(oqw.expected_visits(trap_walk, "0", E1, "0").value)


def test_branch_walk_visits_always_infinite(branch_walk):
    for rho in (E1, E2, MIX, np.diag([0.3, 0.7]).astype(complex)):
        assert math.isinf(oqw.expected_visits(branch_walk, "1", rho, "0").value)


def test_branch_walk_visits_off_the_trapped_part(branch_walk):
    # the series behind these counts run through a part of the walk that
    # traps mass; the solve off that part is exact
    for i, want in (("1", 1.0), ("2", 0.5)):
        d = branch_walk.dims[i]
        res = oqw.expected_visits(branch_walk, i, np.eye(d) / d, "2")
        assert res.value == pytest.approx(want, abs=1e-12)


def test_visits_match_classical_fundamental_matrix():
    # open (substochastic) biased chain: visits = fundamental-matrix entries
    t = np.zeros((5, 5))
    for k in range(5):
        if k + 1 < 5:
            t[k + 1, k] = 0.7
        if k - 1 >= 0:
            t[k - 1, k] = 0.3
    trans = {(str(i), str(j)): np.array([[np.sqrt(t[i, j])]], dtype=complex)
             for i in range(5) for j in range(5) if t[i, j] > 0}
    walk = oqw.WalkSpec(tuple(str(k) for k in range(5)), {str(k): 1 for k in range(5)},
                        trans)
    green = np.linalg.inv(np.eye(5) - t) - np.eye(5)
    one = np.array([[1.0]], dtype=complex)
    for i in range(5):
        got = oqw.expected_visits(walk, str(i), one, "2").value
        assert got == pytest.approx(green[2, i], abs=1e-10)


def test_visits_infinite_for_recurrent_faithful(half_line_down):
    # return probability 1 from a faithful state forces infinite visits for all
    assert oqw.passage_probability(half_line_down, "0", MIX, "0") >= 1 - 1e-9
    for rho in (E1, E2, MIX):
        assert math.isinf(oqw.expected_visits(half_line_down, "0", rho, "0").value)


# ---------------------------------------------------------------------------
# expected return times


def test_trap_walk_return_time(trap_walk):
    res = oqw.expected_return_time(trap_walk, "0", E1, "0")
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert math.isinf(oqw.expected_return_time(trap_walk, "0", E2, "0").value)


def return_time_fd(series, rho, p_at_one):
    """Richardson finite-difference estimate of d/dalpha of the weighted
    passage mass at alpha = 1^-, an independent check of the solved return time."""
    def mass(a):
        m = series.matrix(a)
        return float(np.trace(unvec(m @ vec(rho), series.walk.dims[series.target])).real)

    h = 1e-4
    d1 = (p_at_one - mass(1.0 - h)) / h
    d2 = (p_at_one - mass(1.0 - h / 2)) / (h / 2)
    return 2 * d2 - d1


def test_half_line_return_times(half_line_down):
    # drift-toward-origin chain: E(t0) = r + 3(1-r) by the classical reduction
    for r in (0.0, 0.5, 1.0):
        rho = np.diag([1 - r, r]).astype(complex)
        res = oqw.expected_return_time(half_line_down, "0", rho, "0")
        assert res.value == pytest.approx(r + 3.0 * (1 - r), abs=1e-9)
        series = capture_series(half_line_down, "0", "0")
        fd = return_time_fd(series, rho, res.diagnostics["passage_probability"])
        assert fd == pytest.approx(res.value, abs=1e-3)


def test_return_time_infinite_when_passage_deficient(half_line_up_taboo):
    res = oqw.expected_return_time(half_line_up_taboo, "0", MIX, "0")
    assert math.isinf(res.value)
    assert res.diagnostics["method"] == "passage_deficit"


def test_return_time_one_with_instant_flip(half_line_up_taboo):
    res = oqw.expected_return_time(half_line_up_taboo, "0", E2, "0")
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_gamblers_ruin_mean_absorption_time():
    walk = fixtures.gamblers_ruin(11, 0.5)
    # classical mean absorption time from i is i(10 - i); absorption =
    # hitting of either edge, so check hitting of the joined edge site by
    # summing the time-weighted masses through a two-edge domain instead
    one = np.array([[1.0]], dtype=complex)
    # E(t_0) is infinite (can be absorbed at 10 instead)
    assert math.isinf(oqw.expected_return_time(walk, "3", one, "0").value)


# ---------------------------------------------------------------------------
# conditional states


def test_conditional_state_single_path(trap_walk):
    out = oqw.conditional_state_at_hit(trap_walk, "0", E1, "1")
    assert np.allclose(out, E1, atol=1e-12)


def test_conditional_state_scalar_target(branch_walk):
    rng = np.random.default_rng(8)
    for _ in range(3):
        rho = random_density(rng, 2)
        out = oqw.conditional_state_at_hit(branch_walk, "1", rho, "0")
        assert out.shape == (1, 1)
        assert out[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_conditional_state_unit_trace(half_line_down):
    out = oqw.conditional_state_at_hit(half_line_down, "0", MIX, "0")
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)


def test_conditional_state_undefined_at_zero_mass(trap_walk):
    with pytest.raises(InputError):
        oqw.conditional_state_at_hit(trap_walk, "0", E2, "0")


# ---------------------------------------------------------------------------
# boundaries and domains


def test_boundary_of_everything_is_empty(trap_walk):
    assert oqw.boundary(trap_walk, list(trap_walk.sites)) == ()


def test_boundary_of_line_segment():
    walk = fixtures.gamblers_ruin(11, 0.5)
    assert oqw.boundary(walk, [str(k) for k in range(1, 10)]) == ("0", "10")


def test_boundary_of_branch_interior(branch_walk):
    assert oqw.boundary(branch_walk, ["1", "2", "3"]) == ("0",)


def test_exit_probability_trap_cases(trap_walk):
    # from (0, e2) the walk leaves {0,1} in one step; from (0, e1) never
    assert oqw.exit_probability(trap_walk, ["0", "1"], "0", E2) == \
        pytest.approx(1.0, abs=1e-12)
    assert oqw.exit_probability(trap_walk, ["0", "1"], "0", E1) == \
        pytest.approx(0.0, abs=1e-12)


def test_exit_probability_needs_boundary(trap_walk):
    with pytest.raises(InputError):
        oqw.exit_probability(trap_walk, list(trap_walk.sites), "0", MIX)


def test_exit_probability_one_on_irreducible(half_line_up_taboo, ring_walk):
    # irreducible walks leave every finite domain surely
    assert oqw.exit_probability(ring_walk, ["0", "1"], "0", MIX) == \
        pytest.approx(1.0, abs=1e-8)
    assert oqw.exit_probability(half_line_up_taboo, ["0", "1", "2"], "0", MIX) == \
        pytest.approx(1.0, abs=1e-8)


def test_harmonic_measure_classical_ruin(ruin_walk):
    one = np.array([[1.0]], dtype=complex)
    domain = [str(k) for k in range(1, 10)]
    for i in (1, 3, 7):
        hm = oqw.harmonic_measure(ruin_walk, domain, str(i), one)
        assert hm.mass("10") == pytest.approx(i / 10, abs=1e-10)
        assert hm.mass("0") == pytest.approx(1 - i / 10, abs=1e-10)
        assert hm.total_mass == pytest.approx(1.0, abs=1e-10)


def test_harmonic_measure_singleton_boundary(ring_walk):
    hm = oqw.harmonic_measure(ring_walk, ["0", "1"], "0", MIX)
    assert set(hm.masses) == {"2"}
    assert hm.mass("2") == pytest.approx(1.0, abs=1e-8)
    cond = hm.conditional_states["2"]
    assert np.trace(cond).real == pytest.approx(1.0, abs=1e-10)


def test_harmonic_measure_branch_matches_exit(branch_walk):
    hm = oqw.harmonic_measure(branch_walk, ["1", "2", "3"], "1", MIX)
    assert set(hm.masses) == {"0"}
    assert hm.mass("0") == pytest.approx(0.75, abs=1e-12)  # (1 + 1/2)/2


def test_domain_visits_self_loop_series():
    # singleton domain with a self loop: geometric series of the loop mass
    half = np.sqrt(0.5)
    walk = oqw.WalkSpec(("a", "b"), {"a": 1, "b": 1},
                        {("a", "a"): np.array([[half]]),
                         ("b", "a"): np.array([[half]]),
                         ("a", "b"): np.array([[1.0]])})
    one = np.array([[1.0]], dtype=complex)
    got = oqw.expected_domain_visits(walk, ["a"], "a", one, "a")
    assert got == pytest.approx(0.5 / (1 - 0.5), abs=1e-12)


def test_domain_visits_match_classical_fundamental(ruin_walk):
    one = np.array([[1.0]], dtype=complex)
    domain = [str(k) for k in range(1, 10)]
    q = np.zeros((9, 9))
    for k in range(9):
        if k + 1 < 9:
            q[k + 1, k] = 0.5
        if k - 1 >= 0:
            q[k - 1, k] = 0.5
    fundamental = np.linalg.inv(np.eye(9) - q)
    for i, j in [(3, 3), (3, 6), (8, 2)]:
        got = oqw.expected_domain_visits(ruin_walk, domain, str(i), one, str(j))
        # fundamental counts the visit at time 0; ours counts n >= 1
        expected = fundamental[j - 1, i - 1] - (1.0 if i == j else 0.0)
        assert got == pytest.approx(expected, abs=1e-10)


def test_domain_visits_finite_on_branch(branch_walk):
    got = oqw.expected_domain_visits(branch_walk, ["1", "2", "3"], "1", E2, "1")
    assert got == pytest.approx(0.0, abs=1e-12)
    # first in-domain return mass 3/4, then geometric with ratio 1/2
    got = oqw.expected_domain_visits(branch_walk, ["1", "2", "3"], "1", E1, "1")
    assert got == pytest.approx(1.5, abs=1e-12)


def test_domain_visits_diverge_outside_irreducible(trap_walk):
    with pytest.raises(oqw.NumericalError):
        oqw.expected_domain_visits(trap_walk, ["0", "1"], "0", E1, "0")


# ---------------------------------------------------------------------------
# brute-force oracle


def test_brute_force_single_length(trap_walk):
    res = oqw.brute_force_path_sum(trap_walk, "0", np.diag([0.4, 0.6]), "0", max_len=4)
    assert res.masses[0] == pytest.approx(0.0)
    assert res.masses[1] == pytest.approx(0.4)     # the single loop 0 -> 1 -> 0
    assert sum(res.masses[2:]) == pytest.approx(0.0)


def test_brute_force_length_one_is_direct_block(branch_walk):
    rng = np.random.default_rng(9)
    rho = random_density(rng, 2)
    res = oqw.brute_force_path_sum(branch_walk, "1", rho, "0", max_len=1)
    direct = branch_walk.block("0", "1")
    assert res.masses[0] == pytest.approx(
        np.trace(direct @ rho @ direct.conj().T).real, abs=1e-12)


def test_brute_force_matches_operator_terms(branch_walk, trap_walk):
    rng = np.random.default_rng(10)
    for walk, i, j in [(branch_walk, "1", "0"), (trap_walk, "0", "0")]:
        rho = random_density(rng, walk.dims[i])
        res = oqw.brute_force_path_sum(walk, i, rho, j, max_len=12)
        terms = capture_series(walk, i, j).length_terms(12)
        for bf_op, series_op in zip(res.operators, terms):
            assert np.abs(bf_op - series_op).max() <= 1e-12


def test_brute_force_node_budget_guard(half_line_down):
    with pytest.raises(oqw.NumericalError, match="budget"):
        oqw.brute_force_path_sum(half_line_down, "0", MIX, "0",
                                 max_len=40, node_budget=500)


def test_shanks_limit_geometric_tail():
    s_inf, ratio = 2.0, 0.6
    partials = [s_inf - ratio ** k for k in range(1, 12)]
    assert shanks_limit(partials) == pytest.approx(s_inf, abs=1e-12)


def test_shanks_limit_keeps_a_sum_that_only_drifts_by_rounding():
    # 400 terms of about 1.8e-17: the kept increments are rounding drift,
    # which Wynn's epsilon would extrapolate far from the sum of 7e-15
    rng = np.random.default_rng(5)
    for terms in (np.full(400, 1.8e-17), 1.8e-17 + 1e-19 * rng.normal(size=400)):
        partials = np.cumsum(terms)
        assert shanks_limit(partials) == partials[-1]


def test_operator_matches_extrapolated_enumeration(branch_walk):
    rho = MIX
    exact = oqw.passage_probability(branch_walk, "1", rho, "0")
    res = oqw.brute_force_path_sum(branch_walk, "1", rho, "0", max_len=18)
    assert shanks_limit(res.partial_sums) == pytest.approx(exact, abs=1e-9)


def test_backward_reachable_ignores_blocks_below_tolerance():
    from oqw.hitting import _backward_reachable, _nonzero

    one = np.array([[1.0]])
    walk = oqw.WalkSpec(("a", "b", "c"), {"a": 1, "b": 1, "c": 1},
                        {("b", "a"): one, ("b", "b"): one, ("c", "b"): 1e-12 * one,
                         ("a", "c"): one, ("c", "c"): one})
    assert _backward_reachable(walk, ["c"], ("a", "b")) == set()
    assert _backward_reachable(walk, ["b"], ("a", "b")) == {"a", "b"}

    def reference(walk, targets, allowed):
        # every allowed site with a block above tolerance into a target,
        # closed under allowed predecessors
        seen = {s for s in allowed if any(_nonzero(walk, t, s) for t in targets)}
        grown = True
        while grown:
            new = {p for s in seen for p in walk.predecessors(s) if p in allowed}
            grown = not new <= seen
            seen |= new
        return seen

    for w in (fixtures.example_branch_return(), fixtures.gamblers_ruin(9, 0.3),
              fixtures.example_half_line(0.25, 12, boundary="taboo"), walk):
        for j in w.sites:
            allowed = tuple(s for s in w.sites if s != j)
            assert _backward_reachable(w, [j], allowed) == reference(w, [j], allowed)
