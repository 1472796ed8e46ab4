"""The block algebra of the domain layer against its per-pair oracles.

Dirichlet problems, exit states and harmonic operators come from one
certified block solve per call; the per-pair closed forms built from
``domain_operator`` stay as the fallback for domains that fail the
certificate and serve here as the oracle.  The weighted Gram product of the
variational solver and the selfadjointness residual of
``check_detailed_balance`` are checked against the pairwise inner products
they replace.
"""

import numpy as np
import pytest

import oqw
from oqw import dirichlet, fixtures, hitting
from oqw.errors import NumericalError
from oqw.linalg import hermitian_basis, psd_sqrt
from oqw.walk import DiagonalObservable, identity_observable

from conftest import random_density, random_hermitian

# (walk, domain) pairs whose one-step map inside the domain is certified
# convergent; the walks are the ring, gambler's ruin, the branch walk and a
# random doubly stochastic N=6, d=2 walk
CERTIFIED = [
    ("ring", ("0", "1")),
    ("ring", ("1",)),
    ("ruin", tuple(str(k) for k in range(1, 10))),
    ("ruin", ("3", "4", "5", "6")),
    ("branch", ("1", "2")),
    ("rds6", ("0", "1", "2", "3")),
    ("rds6", ("0", "2", "4")),
    ("rds6", ("5",)),
]
# domains with a trapped direction: the certificate fails
UNCERTIFIED = [("trap", ("0", "1")), ("trap", ("1", "2")), ("branch", ("1", "2", "3"))]


@pytest.fixture(scope="module")
def walks(ring_walk, ruin_walk, branch_walk, trap_walk):
    return {"ring": ring_walk, "ruin": ruin_walk, "branch": branch_walk,
            "trap": trap_walk, "rds6": fixtures.random_doubly_stochastic(6, 2, seed=4)}


def random_problem(walk, domain, rng):
    bnd = oqw.boundary(walk, domain)
    a = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in domain})
    b = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in bnd})
    return oqw.DirichletProblem.build(walk, domain, a, b)


def max_block_gap(x: dict, y: dict) -> float:
    assert list(x) == list(y)
    return max(float(np.abs(x[s] - y[s]).max()) for s in x)


# ---------------------------------------------------------------------------
# Dirichlet problems


@pytest.mark.parametrize("name,domain", CERTIFIED)
def test_block_solve_matches_closed_form(walks, name, domain):
    walk = walks[name]
    rng = np.random.default_rng(31)
    for _ in range(3):
        problem = random_problem(walk, domain, rng)
        block = oqw.solve_dirichlet_domain(walk, problem)
        closed = dirichlet._closed_form(walk, problem)
        assert block.method == "block_solve"
        assert closed.method == "closed_form"
        scale = max(1.0, max(float(np.abs(b).max()) for b in closed.solution.blocks.values()))
        assert max_block_gap(block.solution.blocks, closed.solution.blocks) <= 1e-10 * scale
        assert block.boundary_sites == closed.boundary_sites
        assert block.max_residual <= 1e-10 * scale


@pytest.mark.parametrize("name,domain", UNCERTIFIED)
def test_trapped_domain_takes_closed_form(walks, name, domain):
    walk = walks[name]
    rng = np.random.default_rng(32)
    bnd = oqw.boundary(walk, domain)
    b = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in bnd})
    problem = oqw.DirichletProblem.build(walk, domain, None, b)
    sol = oqw.solve_dirichlet_domain(walk, problem)
    closed = dirichlet._closed_form(walk, problem)
    assert sol.method == "closed_form"
    assert max_block_gap(sol.solution.blocks, closed.solution.blocks) == 0.0
    # interior data on the trapped part: the divergent visit operator is reported
    problem = oqw.DirichletProblem.build(walk, domain, identity_observable(walk, domain), b)
    with pytest.raises(NumericalError, match="visit operator diverges"):
        oqw.solve_dirichlet_domain(walk, problem)


# ---------------------------------------------------------------------------
# exit states, harmonic measure and harmonic operators


def exit_states_by_pair(walk, domain, i, rho):
    bnd = oqw.boundary(walk, domain)
    return {j: oqw.domain_operator(walk, domain, i, j).apply(rho) for j in bnd}


@pytest.mark.parametrize("name,domain", CERTIFIED + UNCERTIFIED)
def test_harmonic_measure_matches_per_pair(walks, name, domain):
    walk = walks[name]
    rng = np.random.default_rng(33)
    for i in domain:
        rho = random_density(rng, walk.dims[i])
        states = exit_states_by_pair(walk, domain, i, rho)
        hm = oqw.harmonic_measure(walk, domain, i, rho)
        assert list(hm.masses) == list(states)
        for j, out in states.items():
            t = float(np.trace(out).real)
            assert hm.masses[j] == pytest.approx(max(0.0, t), abs=1e-12)
            if t > 1e-12:
                assert np.abs(hm.conditional_states[j] - 0.5 * (out + out.conj().T) / t).max() \
                    <= 1e-10
            else:
                assert j not in hm.conditional_states
        total = sum(float(np.trace(out).real) for out in states.values())
        assert oqw.exit_probability(walk, domain, i, rho) == \
            pytest.approx(min(1.0, max(0.0, total)), abs=1e-12)


@pytest.mark.parametrize("name,domain", CERTIFIED + UNCERTIFIED)
def test_harmonic_operator_matches_per_pair(walks, name, domain):
    walk = walks[name]
    for j in oqw.boundary(walk, domain):
        op = oqw.harmonic_operator(walk, domain, j)
        want = {j: np.eye(walk.dims[j])}
        want.update({i: oqw.domain_operator(walk, domain, i, j).dual_identity()
                     for i in domain})
        assert max_block_gap(op.blocks, want) <= 1e-12


def test_exit_path_selected_by_certificate(walks, monkeypatch):
    calls = []
    per_pair = hitting._exit_states_by_pair

    def spy(*args):
        calls.append(args[1])
        return per_pair(*args)

    monkeypatch.setattr(hitting, "_exit_states_by_pair", spy)
    rho = np.eye(2, dtype=complex) / 2
    oqw.harmonic_measure(walks["ring"], ["0", "1"], "0", rho)
    oqw.exit_probability(walks["branch"], ["1", "2"], "1", rho)
    assert calls == []
    oqw.harmonic_measure(walks["trap"], ["0", "1"], "0", rho)
    oqw.exit_probability(walks["branch"], ["1", "2", "3"], "1", rho)
    assert calls == [["0", "1"], ["1", "2", "3"]]


def test_exit_start_outside_domain_rejected(ring_walk):
    with pytest.raises(oqw.InputError, match="not in the domain"):
        oqw.harmonic_measure(ring_walk, ["0", "1"], "2", np.eye(2) / 2)


# ---------------------------------------------------------------------------
# weighted Gram product and selfadjointness residual


def pairwise_stationarity(walk, tau, domain, target):
    """The form matrix and right-hand side from one inner product per pair."""
    basis = [DiagonalObservable({s: e}) for s in domain for e in hermitian_basis(walk.dims[s])]
    images = [oqw.dual_apply(walk, t) for t in basis]
    diffs = [DiagonalObservable({s: y.block(s, walk.dims[s]) - im.block(s, walk.dims[s])
                                 for s in walk.sites}) for y, im in zip(basis, images)]
    gram = np.array([[oqw.diamond_inner(tau, t, d, sites=walk.sites).real for d in diffs]
                     for t in basis])
    rhs = np.array([oqw.diamond_inner(tau, t, target, sites=domain).real for t in basis])
    return gram, rhs


@pytest.mark.parametrize("name,domain", [("ring", ("0", "1")), ("rds6", ("0", "1", "2", "3")),
                                         ("rds6", ("5", "1"))])
def test_gram_product_matches_pairwise_inner_products(walks, name, domain):
    walk = walks[name]
    rng = np.random.default_rng(34)
    tau = oqw.DiagonalState({s: random_density(rng, walk.dims[s]) / len(walk.sites)
                             for s in walk.sites})
    target = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in domain})
    idx, basis, gram, rhs = dirichlet._stationarity_system(walk, tau, domain, target)
    want_gram, want_rhs = pairwise_stationarity(walk, tau, domain, target)
    assert idx.sites == domain
    assert np.abs(gram - want_gram).max() <= 1e-12
    assert np.abs(rhs - want_rhs).max() <= 1e-12


def pairwise_selfadjoint_residual(walk, tau):
    roots = {s: psd_sqrt(tau.blocks[s]) for s in walk.sites}

    def inner(x, y):
        return sum(np.trace(roots[s] @ x.blocks[s].conj().T @ roots[s] @ y.blocks[s])
                   for s in walk.sites if s in x.blocks and s in y.blocks)

    basis = [DiagonalObservable({s: e}) for s in walk.sites
             for e in hermitian_basis(walk.dims[s])]
    images = [oqw.dual_apply(walk, x) for x in basis]
    return max(abs(inner(x, images[n]) - inner(images[m], y))
               for m, x in enumerate(basis) for n, y in enumerate(basis))


def test_selfadjoint_residual_matches_pairwise(walks):
    rng = np.random.default_rng(35)
    reversible = oqw.minimal_dilation(
        np.array([[0.4, 0.3, 0.0], [0.6, 0.2, 0.8], [0.0, 0.5, 0.2]]))
    cases = [walks["ring"], walks["rds6"], reversible, fixtures.cycle_dilation(3, bias=0.8)]
    for walk in cases:
        for tau in (oqw.invariant_state(walk)[0],
                    oqw.DiagonalState({s: random_density(rng, walk.dims[s]) / len(walk.sites)
                                       for s in walk.sites})):
            rep = oqw.check_detailed_balance(walk, tau)
            assert rep.selfadjoint_residual == \
                pytest.approx(pairwise_selfadjoint_residual(walk, tau), abs=1e-12)
