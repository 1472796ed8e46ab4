import numpy as np
import pytest

import oqw
from oqw import fixtures, hitting
from oqw.dirichlet import dirichlet_energy, flat_state, gradient_form
from oqw.errors import InputError, NumericalError, ShapeError
from oqw.linalg import herm, unvec, vec
from oqw.walk import DiagonalObservable, identity_observable

from conftest import random_density, random_hermitian

ONE = np.array([[1.0]], dtype=complex)


def ruin_domain():
    return [str(k) for k in range(1, 10)]


def random_problem(walk, domain, seed):
    rng = np.random.default_rng(seed)
    bnd = oqw.boundary(walk, domain)
    a = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in domain})
    b = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in bnd})
    return oqw.DirichletProblem.build(walk, domain, a, b)


# ---------------------------------------------------------------------------
# domain solver


def test_constants_are_harmonic(ring_walk):
    domain = ["0", "1"]
    bnd = oqw.boundary(ring_walk, domain)
    problem = oqw.DirichletProblem.build(
        ring_walk, domain, None, identity_observable(ring_walk, bnd))
    sol = oqw.solve_dirichlet_domain(ring_walk, problem)
    for s in list(domain) + list(bnd):
        assert np.abs(sol.solution.blocks[s] - np.eye(2)).max() <= 1e-8
    assert sol.max_residual <= 1e-10


def test_classical_path_interpolation(ruin_walk):
    problem = oqw.DirichletProblem.build(
        ruin_walk, ruin_domain(), None, DiagonalObservable({"10": ONE}))
    sol = oqw.solve_dirichlet_domain(ruin_walk, problem)
    for i in range(1, 10):
        assert sol.solution.blocks[str(i)][0, 0].real == \
            pytest.approx(i / 10, abs=1e-10)
    assert sol.max_residual <= 1e-10


def test_domain_solution_counts_visits(branch_walk):
    # A = Id on D, B = 0: tracing the solution against rho gives the expected
    # number of domain steps before exit, = sum_j E(n_j^D) + 1 (time zero);
    # the domain must exclude the trapping site so exit is certain
    domain = ["1", "2"]
    problem = oqw.DirichletProblem.build(
        branch_walk, domain, identity_observable(branch_walk, domain), None)
    sol = oqw.solve_dirichlet_domain(branch_walk, problem)
    rng = np.random.default_rng(13)
    for _ in range(3):
        rho = random_density(rng, 2)
        lhs = np.trace(rho @ sol.solution.blocks["1"]).real
        visits = sum(oqw.expected_domain_visits(branch_walk, domain, "1", rho, j)
                     for j in domain)
        assert lhs == pytest.approx(visits + 1.0, abs=1e-8)


def test_domain_solver_rejects_trapped_domain(trap_walk):
    problem = oqw.DirichletProblem.build(
        trap_walk, ["0", "1"], identity_observable(trap_walk, ["0", "1"]), None)
    with pytest.raises(NumericalError, match="visit operator diverges"):
        oqw.solve_dirichlet_domain(trap_walk, problem)


def test_problem_data_support_validated(ring_walk):
    with pytest.raises(InputError):
        oqw.DirichletProblem.build(ring_walk, ["0"],
                                   DiagonalObservable({"2": np.eye(2)}), None)


def test_problem_data_blocks_are_shape_checked():
    # after the support checks, each block must be d x d at a site of the walk
    walk = fixtures.random_doubly_stochastic(4, 2, seed=3)
    with pytest.raises(ShapeError, match=r"problem data 'A' block at '0' has wrong shape \(3, 3\)"):
        oqw.DirichletProblem.build(walk, ["0", "1"], DiagonalObservable({"0": np.eye(3)}))
    bnd = oqw.boundary(walk, ["0", "1"])[0]
    with pytest.raises(ShapeError, match=f"problem data 'B' block at '{bnd}' has wrong shape"):
        oqw.DirichletProblem.build(walk, ["0", "1"], None, DiagonalObservable({bnd: np.eye(1)}))
    with pytest.raises(InputError, match="interior data supported outside the domain"):
        oqw.DirichletProblem.build(walk, ["0", "1"], DiagonalObservable({"zz": np.eye(3)}))


# ---------------------------------------------------------------------------
# global solver


def open_biased_chain(n=6, up=0.7):
    t = np.zeros((n, n))
    for k in range(n):
        if k + 1 < n:
            t[k + 1, k] = up
        if k - 1 >= 0:
            t[k - 1, k] = 1 - up
    trans = {(str(i), str(j)): np.array([[np.sqrt(t[i, j])]], dtype=complex)
             for i in range(n) for j in range(n) if t[i, j] > 0}
    return oqw.WalkSpec(tuple(str(k) for k in range(n)),
                        {str(k): 1 for k in range(n)}, trans), t


def test_global_zero_data_gives_zero():
    walk, _ = open_biased_chain()
    sol = oqw.solve_dirichlet_global(walk, DiagonalObservable({}))
    assert sol.max_residual <= 1e-12
    assert all(np.abs(b).max() <= 1e-12 for b in sol.solution.blocks.values())


def test_global_matches_green_function_column():
    walk, t = open_biased_chain()
    sol = oqw.solve_dirichlet_global(walk, DiagonalObservable({"2": ONE}))
    green = np.linalg.inv(np.eye(6) - t) - np.eye(6)
    for i in range(6):
        expected = (1.0 if i == 2 else 0.0) + green[2, i]
        assert sol.solution.blocks[str(i)][0, 0].real == \
            pytest.approx(expected, abs=1e-10)
    assert sol.max_residual <= 1e-8


def test_global_gauge_follows_the_walk_tolerance():
    # a stochasticity defect of 2.5e-8 is accepted at tolerance 1e-6, so the
    # identity counts as harmonic and the traceless representative is taken
    ruin = fixtures.gamblers_ruin(5, tolerance=1e-6)
    blocks = dict(ruin.transitions)
    blocks[("2", "1")] = blocks[("2", "1")] * (1 + 2.5e-8)
    walk = oqw.WalkSpec(ruin.sites, ruin.dims, blocks, tolerance=1e-6)
    assert oqw.validate_walk(walk).accepted
    sol = oqw.solve_dirichlet_global(walk, DiagonalObservable({"2": ONE}))
    assert sol.uniqueness_note.startswith("unique up to a multiple of the identity")
    assert sum(float(np.trace(b).real) for b in sol.solution.blocks.values()) == \
        pytest.approx(0.0, abs=1e-12)


def test_global_data_is_checked_before_the_solve():
    walk = fixtures.gamblers_ruin(7)
    with pytest.raises(InputError, match="problem data 'A' block at unknown site 'zz'"):
        oqw.solve_dirichlet_global(walk, DiagonalObservable({"3": ONE, "zz": ONE}))
    with pytest.raises(ShapeError, match=r"problem data 'A' block at '3' has wrong shape \(2, 2\)"):
        oqw.solve_dirichlet_global(walk, DiagonalObservable({"3": np.eye(2)}))


def test_global_rejected_on_recurrent_walk(ring_walk):
    with pytest.raises(NumericalError, match="recurrent"):
        oqw.solve_dirichlet_global(ring_walk, DiagonalObservable({"0": np.eye(2)}))


def test_global_problem_reads_the_kept_law(monkeypatch):
    # the whole-space problem is the all-sites domain with no boundary: its
    # law is kept with the walk, so a repeated problem certifies once
    calls = []
    certify = hitting._certify
    monkeypatch.setattr(hitting, "_certify", lambda *args: calls.append(1) or certify(*args))
    walk, _ = open_biased_chain()
    first = oqw.solve_dirichlet_global(walk, DiagonalObservable({"2": ONE}))
    again = oqw.solve_dirichlet_global(walk, DiagonalObservable({"3": ONE}))
    assert len(calls) == 1
    assert ("domain", tuple(range(6)), ()) in walk._store
    fresh = oqw.solve_dirichlet_global(open_biased_chain()[0], DiagonalObservable({"3": ONE}))
    assert all(np.array_equal(again.solution.blocks[s], fresh.solution.blocks[s])
               for s in walk.sites)
    assert first.method == again.method == "block_solve"


def global_per_pair(walk, a):
    """``Z_i = A_i + sum_j N*[j,i](A_j)`` with the visit operators
    ``N[j,i] = (Id - P[j,j])^{-1} P[j,i]`` from one taboo operator per pair."""
    blocks = {i: a.block(i, walk.dims[i]).copy() for i in walk.sites}
    for j, aj in a.blocks.items():
        ret = oqw.taboo_operator(walk, j, j).matrix
        for i in walk.sites:
            n = np.linalg.solve(np.eye(ret.shape[0]) - ret, oqw.taboo_operator(walk, i, j).matrix)
            blocks[i] += herm(unvec(n.conj().T @ vec(aj), walk.dims[i]))
    return blocks


@pytest.mark.parametrize("walk", [open_biased_chain()[0], open_biased_chain(7, 0.75)[0],
                                  fixtures.example_half_line(0.25, 10, boundary="taboo"),
                                  fixtures.example_half_line(0.25, 20, boundary="taboo")],
                         ids=["chain6", "chain7", "half-line10", "half-line20"])
def test_global_matches_per_pair_visits(walk):
    rng = np.random.default_rng(15)
    a = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in walk.sites})
    sol = oqw.solve_dirichlet_global(walk, a)
    want = global_per_pair(walk, a)
    scale = max(float(np.abs(b).max()) for b in want.values())
    assert max(float(np.abs(sol.solution.blocks[s] - want[s]).max()) for s in walk.sites) \
        <= 1e-12 * scale
    assert sol.method == "block_solve"
    assert sol.uniqueness_note.startswith("substochastic family")
    assert "relative residual" in sol.uniqueness_note
    assert sol.max_residual <= 1e-12 * scale


def test_global_compresses_trapped_part(branch_walk):
    # the branch walk keeps e2 shuttling between "0" and "1" and traps "3";
    # "2" is transient, so data there has finite visits
    rng = np.random.default_rng(16)
    a = DiagonalObservable({"2": random_hermitian(rng, 2)})
    sol = oqw.solve_dirichlet_global(branch_walk, a)
    assert sol.method == "compressed"
    assert sol.max_residual <= 1e-12
    assert "traceless" in sol.uniqueness_note
    assert sum(np.trace(b).real for b in sol.solution.blocks.values()) == \
        pytest.approx(0.0, abs=1e-12)
    for site in ("0", "1", "3"):
        with pytest.raises(NumericalError, match=f"recurrent at site '{site}'"):
            oqw.solve_dirichlet_global(
                branch_walk, DiagonalObservable({site: np.eye(branch_walk.dims[site])}))


def test_global_residual_on_random_transient_fixtures():
    rng = np.random.default_rng(14)
    walk, _ = open_biased_chain(7, 0.75)
    for _ in range(3):
        a = DiagonalObservable({str(k): np.array([[rng.normal()]], dtype=complex)
                                for k in range(7)})
        sol = oqw.solve_dirichlet_global(walk, a)
        assert sol.max_residual <= 1e-8


# ---------------------------------------------------------------------------
# harmonic operators


def test_harmonic_operator_singleton_boundary(ring_walk):
    domain = ["0", "1"]
    op = oqw.harmonic_operator(ring_walk, domain, "2")
    for s in ("0", "1", "2"):
        assert np.abs(op.blocks[s] - np.eye(2)).max() <= 1e-8


def test_harmonic_operator_classical_exit_probabilities(ruin_walk):
    op = oqw.harmonic_operator(ruin_walk, ruin_domain(), "10")
    for i in range(1, 10):
        assert op.blocks[str(i)][0, 0].real == pytest.approx(i / 10, abs=1e-10)


def test_harmonic_operator_partition_and_harmonicity(branch_walk, ruin_walk):
    # domains from which exit is certain (the branch walk must exclude the trap)
    for walk, domain in ((ruin_walk, ruin_domain()), (branch_walk, ["1", "2"])):
        bnd = oqw.boundary(walk, domain)
        total = {s: np.zeros((walk.dims[s],) * 2, dtype=complex)
                 for s in list(domain) + list(bnd)}
        for j in bnd:
            op = oqw.harmonic_operator(walk, domain, j)
            stepped = oqw.dual_apply(walk, op)
            for s in domain:
                assert np.abs(op.blocks[s] - stepped.blocks[s]).max() <= 1e-8
            for s in total:
                if s in op.blocks:
                    total[s] = total[s] + op.blocks[s]
        for s in total:
            assert np.abs(total[s] - np.eye(walk.dims[s])).max() <= 1e-8


def test_harmonic_operator_traces_measure(branch_walk):
    rng = np.random.default_rng(15)
    domain = ["1", "2", "3"]
    op = oqw.harmonic_operator(branch_walk, domain, "0")
    for _ in range(3):
        rho = random_density(rng, 2)
        hm = oqw.harmonic_measure(branch_walk, domain, "1", rho)
        assert np.trace(op.blocks["1"] @ rho).real == \
            pytest.approx(hm.mass("0"), abs=1e-10)


# ---------------------------------------------------------------------------
# weighted inner product and forms


def test_diamond_inner_identity_normalization(ring_walk):
    flat = flat_state(ring_walk)
    ident = identity_observable(ring_walk)
    assert oqw.diamond_inner(flat, ident, ident) == pytest.approx(1.0, abs=1e-12)


def test_diamond_inner_flat_reduces_to_frobenius(ring_walk):
    rng = np.random.default_rng(16)
    flat = flat_state(ring_walk)
    x = DiagonalObservable({s: random_hermitian(rng, 2) for s in ring_walk.sites})
    y = DiagonalObservable({s: random_hermitian(rng, 2) for s in ring_walk.sites})
    expected = sum(np.trace(x.blocks[s].conj().T @ y.blocks[s])
                   for s in ring_walk.sites) / ring_walk.total_dim
    assert oqw.diamond_inner(flat, x, y) == pytest.approx(expected, abs=1e-12)


def test_diamond_inner_positive_definite(ring_walk):
    rng = np.random.default_rng(17)
    flat = flat_state(ring_walk)
    for _ in range(10):
        x = DiagonalObservable({s: random_hermitian(rng, 2) for s in ring_walk.sites})
        value = oqw.diamond_inner(flat, x, x)
        assert value.real > 0
        assert abs(value.imag) <= 1e-12


def test_diamond_inner_rejects_unfaithful(ring_walk):
    from oqw.walk import DiagonalState
    bad = DiagonalState({s: np.diag([1.0, 0.0]).astype(complex) / 3
                         for s in ring_walk.sites})
    ident = identity_observable(ring_walk)
    with pytest.raises(InputError):
        oqw.diamond_inner(bad, ident, ident)


def test_reference_state_blocks_are_shape_checked(ring_walk):
    tau = oqw.DiagonalState({s: np.eye(3 if s == "1" else 2) / 7 for s in ring_walk.sites})
    problem = random_problem(ring_walk, ["0"], seed=3)
    for call in (lambda: oqw.check_detailed_balance(ring_walk, tau),
                 lambda: oqw.variational_solve(ring_walk, tau, problem)):
        with pytest.raises(ShapeError, match=r"reference state block at '1' has wrong shape "
                                             r"\(3, 3\)"):
            call()


def test_energy_of_identity_vanishes(ring_walk):
    flat = flat_state(ring_walk)
    assert dirichlet_energy(ring_walk, flat, identity_observable(ring_walk)) == \
        pytest.approx(0.0, abs=1e-12)


def test_energy_matches_classical_dirichlet_form():
    # reversible chain: E(x) = (1/2) sum_ij pi_j t[i,j] (x_i - x_j)^2
    t = np.array([[0.4, 0.3, 0.0], [0.6, 0.2, 0.8], [0.0, 0.5, 0.2]])
    walk = oqw.minimal_dilation(t)
    tau, _ = oqw.invariant_state(walk)
    assert oqw.check_detailed_balance(walk, tau).selfadjoint_within_tol
    pi = np.array([tau.blocks[str(k)][0, 0].real for k in range(3)])
    rng = np.random.default_rng(18)
    for _ in range(5):
        x = rng.normal(size=3)
        obs = DiagonalObservable({str(k): np.array([[x[k]]], dtype=complex)
                                  for k in range(3)})
        classical = 0.5 * sum(pi[j] * t[i, j] * (x[i] - x[j]) ** 2
                              for i in range(3) for j in range(3))
        assert dirichlet_energy(walk, tau, obs) == pytest.approx(classical, abs=1e-10)


def test_energy_positive_for_nonconstant(ring_walk):
    rng = np.random.default_rng(19)
    flat = flat_state(ring_walk)
    for _ in range(5):
        x = DiagonalObservable({s: random_hermitian(rng, 2) for s in ring_walk.sites})
        assert dirichlet_energy(ring_walk, flat, x) >= -1e-10


def test_zero_energy_forces_constant_on_irreducible(ring_walk):
    # argument-level restatement: minimize the energy over traceless
    # observables; the minimum is strictly positive, so E(X)=0 only at
    # multiples of the identity
    rng = np.random.default_rng(20)
    flat = flat_state(ring_walk)
    for _ in range(10):
        x = DiagonalObservable({s: random_hermitian(rng, 2) for s in ring_walk.sites})
        tr = sum(np.trace(b).real for b in x.blocks.values())
        centered = DiagonalObservable(
            {s: x.blocks[s] - (tr / ring_walk.total_dim) * np.eye(2)
             for s in ring_walk.sites})
        norm2 = oqw.diamond_inner(flat, centered, centered).real
        if norm2 < 1e-12:
            continue
        assert dirichlet_energy(ring_walk, flat, centered) > 1e-6 * norm2


# ---------------------------------------------------------------------------
# variational solver


def test_variational_constant_solution(ring_walk):
    tau, _ = oqw.invariant_state(ring_walk)
    domain = ["0", "1"]
    bnd = oqw.boundary(ring_walk, domain)
    problem = oqw.DirichletProblem.build(
        ring_walk, domain, None, identity_observable(ring_walk, bnd))
    sol = oqw.variational_solve(ring_walk, tau, problem)
    for s in ("0", "1", "2"):
        assert np.abs(sol.solution.blocks[s] - np.eye(2)).max() <= 1e-8
    # at the constant solution the energy functional equals -E(B; domain part)
    assert sol.coercivity > 0


def test_variational_matches_closed_form(ring_walk):
    tau, _ = oqw.invariant_state(ring_walk)
    problem = random_problem(ring_walk, ["0", "1"], seed=21)
    closed = oqw.solve_dirichlet_domain(ring_walk, problem)
    var = oqw.variational_solve(ring_walk, tau, problem)
    for s in closed.solution.blocks:
        assert np.abs(closed.solution.blocks[s] - var.solution.blocks[s]).max() <= 1e-7
    assert max(var.residuals.values()) <= 1e-8


def test_a_repeated_domain_site_counts_once():
    # the problem keeps each site's first occurrence, so the variational Gram
    # matrix has no repeated columns and both solvers answer the same problem
    walk = fixtures.random_doubly_stochastic(6, 2, seed=3)
    tau, _ = oqw.invariant_state(walk)
    a = DiagonalObservable({"1": np.diag([1.0, -1.0])})
    problem = oqw.DirichletProblem.build(walk, ["1", "2", "2", "3", "1"], a)
    assert problem.domain == ("1", "2", "3")
    closed = oqw.solve_dirichlet_domain(walk, problem)
    var = oqw.variational_solve(walk, tau, problem)
    assert var.diagnostics["unknowns"] == 3 * 4
    assert set(var.solution.blocks) == set(closed.solution.blocks)
    for s in closed.solution.blocks:
        assert np.abs(closed.solution.blocks[s] - var.solution.blocks[s]).max() <= 1e-7


def test_variational_matches_classical_path_problem():
    # the symmetric walk on 1..5 exiting at 0 or 6: on the 7-cycle, unlike
    # the gambler's ruin with absorbing ends, the flat state satisfies
    # detailed balance, so the variational method applies as checked
    walk = fixtures.cycle_dilation(7, 0.5)
    sub = [str(k) for k in range(1, 6)]
    tau = flat_state(walk)
    problem = oqw.DirichletProblem.build(
        walk, sub, None, DiagonalObservable({"6": ONE}))
    assert oqw.boundary(walk, sub) == ("0", "6")
    var = oqw.variational_solve(walk, tau, problem)
    for i in range(1, 6):
        assert var.solution.blocks[str(i)][0, 0].real == \
            pytest.approx(i / 6, abs=1e-7)


def test_variational_refuses_unbalanced_walk():
    walk = fixtures.cycle_dilation(3, bias=0.8)
    tau, _ = oqw.invariant_state(walk)
    problem = oqw.DirichletProblem.build(
        walk, ["0"], None, DiagonalObservable({"1": ONE, "2": ONE}))
    with pytest.raises(InputError, match="detailed balance"):
        oqw.variational_solve(walk, tau, problem)


def test_variational_rejects_a_form_that_is_not_coercive():
    # two closed blocks: the domain holds all of the first, whose constants
    # have zero energy, and one site of the second
    walk = oqw.minimal_dilation(np.kron(np.eye(2), np.full((2, 2), 0.5)))
    problem = oqw.DirichletProblem.build(walk, ["0", "1", "2"])
    with pytest.raises(NumericalError, match="energy form is not coercive on the domain") as err:
        oqw.variational_solve(walk, oqw.flat_state(walk), problem)
    assert err.value.diagnostics["smallest_eigenvalue"] <= 1e-12


def test_variational_energy_is_the_energy_functional_at_the_minimizer(ring_walk):
    # the reported energy against 1/2 form(X0, X0) + form(X0, B) - <A, X0>
    # from the public form and inner product
    cases = [(ring_walk, ["0", "1"]),
             (fixtures.random_doubly_stochastic(6, 2, seed=4), ["5", "1", "2"]),
             (fixtures.cycle_dilation(7, 0.5), ["1", "2", "3"])]
    for k, (walk, domain) in enumerate(cases):
        tau, _ = oqw.invariant_state(walk)
        problem = random_problem(walk, domain, seed=40 + k)
        var = oqw.variational_solve(walk, tau, problem)
        x0, a, b = var.minimizer, problem.interior_data, problem.boundary_data
        want = (0.5 * oqw.dirichlet_form(walk, tau, x0, x0).real
                + oqw.dirichlet_form(walk, tau, x0, b).real
                - oqw.diamond_inner(tau, a, x0, sites=domain).real)
        assert var.energy == pytest.approx(want, rel=1e-12)


def test_variational_solve_takes_each_root_once(monkeypatch):
    from oqw import dirichlet

    walk = fixtures.random_doubly_stochastic(10, 2, seed=1)
    tau, _ = oqw.invariant_state(walk)
    problem = random_problem(walk, [str(k) for k in range(8)], seed=44)
    calls = []
    root = dirichlet.psd_sqrt
    monkeypatch.setattr(dirichlet, "psd_sqrt", lambda m: calls.append(m) or root(m))
    oqw.variational_solve(walk, tau, problem)
    assert len(calls) == len(walk.sites)


# ---------------------------------------------------------------------------
# gradients on doubly stochastic walks


def test_gradient_vanishes_on_identity(ring_walk):
    for lam in (1.0, -2.5):
        obs = DiagonalObservable({s: lam * np.eye(2, dtype=complex)
                                  for s in ring_walk.sites})
        grad = gradient_form(ring_walk, obs)
        assert grad.energy == pytest.approx(0.0, abs=1e-12)
        assert not grad.blocks


def test_gradient_energy_equals_dirichlet_energy(ring_walk):
    rng = np.random.default_rng(22)
    flat = flat_state(ring_walk)
    for _ in range(20):
        x = DiagonalObservable({s: random_hermitian(rng, 2) for s in ring_walk.sites})
        assert gradient_form(ring_walk, x).energy == \
            pytest.approx(dirichlet_energy(ring_walk, flat, x), abs=1e-10)


def test_gradient_rejects_generic_walk(trap_walk):
    with pytest.raises(InputError, match="doubly stochastic"):
        gradient_form(trap_walk, identity_observable(trap_walk))


@pytest.mark.parametrize("walk,domain", [
    (fixtures.gamblers_ruin(21), [str(k) for k in range(1, 20)]),
    (fixtures.random_doubly_stochastic(10, 2, seed=3), [str(k) for k in range(8)]),
    (fixtures.example_branch_return(), ["0", "2"]),   # fibre dims 1 and 2
], ids=["ruin21", "rds10", "branch"])
def test_residuals_match_the_per_site_norms_bit_for_bit(walk, domain):
    # one batched SVD per block dimension gives the per-site spectral norms
    from oqw.dirichlet import _residuals
    from oqw.walk import dual_apply

    rng = np.random.default_rng(8)
    a = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in domain})
    b = DiagonalObservable({s: random_hermitian(rng, walk.dims[s])
                            for s in oqw.boundary(walk, domain)})
    z = oqw.solve_dirichlet_domain(walk, oqw.DirichletProblem.build(walk, domain, a, b)).solution
    stepped = dual_apply(walk, z)
    want = {s: float(np.linalg.norm(z.block(s, walk.dims[s]) - stepped.block(s, walk.dims[s])
                                    - a.block(s, walk.dims[s]), 2)) for s in domain}
    got = _residuals(walk, z, a, domain)
    assert list(got) == list(want)
    assert all(got[s] == want[s] for s in want)
