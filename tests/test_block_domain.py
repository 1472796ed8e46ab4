"""The block algebra of the domain layer against its per-pair oracles.

Dirichlet problems, exit states, harmonic operators and visits before exit
come from one certified block solve per call; a domain that fails the
certificate traps mass, and the solve runs on the compression to the
complement of the trapped part.  The oracles are per-pair: the closed form
built from one taboo-path operator per (site, site) pair, with the operators
taken from ``domain_operator`` on certified domains and from brute-force
path enumeration plus entrywise Shanks extrapolation on trapped ones, where
``domain_operator`` would run the same compression as the solver under test.
The weighted Gram product of
the variational solver and the selfadjointness residual of
``check_detailed_balance`` are checked against the pairwise inner products
they replace.
"""

import numpy as np
import pytest

import oqw
from oqw import dirichlet, fixtures, hitting
from oqw.errors import NumericalError
from oqw.hitting import brute_force_path_sum, shanks_limit
from oqw.linalg import COMPLEX, herm, hermitian_basis, psd_sqrt, spectral_radius, unvec, vec
from oqw.walk import DiagonalObservable, identity_observable

from conftest import E1, E2, random_density, random_hermitian, rotate, rotation

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
# the trapped domains again, in random local bases (seed 0: unrotated)
TRAPPED = [(name, domain, seed) for name, domain in UNCERTIFIED for seed in range(6)]


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
# per-pair oracles


def enumerated_operator(walk, domain, i, j, max_len=60):
    """Vec-matrix of the paths i -> j whose intermediates stay in the domain
    (and avoid j): brute-force enumeration, then Shanks extrapolation of every
    entry's partial sums."""
    taboo = [s for s in walk.sites if s not in domain]
    ops = brute_force_path_sum(walk, i, np.eye(walk.dims[i]), j, taboo, max_len).operators
    partial = np.cumsum(np.array(ops), axis=0)
    out = np.zeros(partial.shape[1:], dtype=COMPLEX)
    for k in np.ndindex(out.shape):
        seq = partial[(slice(None), *k)]
        out[k] = shanks_limit(seq.real) + 1j * shanks_limit(seq.imag)
    return out


def pair_operators(walk, domain, trapped):
    """``(i, j) -> vec-matrix`` of the domain's taboo-path operators, cached."""
    cache = {}

    def op(i, j):
        if (i, j) not in cache:
            cache[(i, j)] = (enumerated_operator(walk, domain, i, j) if trapped
                             else oqw.domain_operator(walk, domain, i, j).matrix)
        return cache[(i, j)]
    return op


def dual_identity(m, d_source, d_target):
    return herm(unvec(m.conj().T @ vec(np.eye(d_target, dtype=COMPLEX)), d_source))


def closed_form(walk, problem, op):
    """Closed-form Dirichlet solution from per-pair operators ``op(i, j)``.

    ``Z_i = A_i + sum_{j in D} N*[j,i](A_j) + sum_{j in bnd} P*[j,i](B_j)``
    for interior i, with the boundary condition imposed exactly; the visit
    operators are ``N[j,i] = (Id - P[j,j])^{-1} P[j,i]``, and a return
    operator of spectral radius 1 under nonzero data raises the divergent
    visit operator.
    """
    D = problem.domain
    bnd = oqw.boundary(walk, D)
    a, b = problem.interior_data, problem.boundary_data
    blocks = {j: b.block(j, walk.dims[j]).copy() for j in bnd}
    visit_ops = {}
    for j in D:
        if np.abs(a.block(j, walk.dims[j])).max(initial=0.0) == 0.0:
            continue
        ret = op(j, j)
        radius = spectral_radius(ret)
        if radius >= 1.0 - 1e-7:
            raise NumericalError("domain visit operator diverges", {"site": j})
        for i in D:
            visit_ops[(j, i)] = np.linalg.solve(np.eye(ret.shape[0]) - ret, op(i, j))
    for i in D:
        d = walk.dims[i]
        z = a.block(i, d).copy()
        for j in D:
            if (j, i) in visit_ops:
                z += herm(unvec(visit_ops[(j, i)].conj().T @ vec(a.block(j, walk.dims[j])), d))
        for j in bnd:
            z += herm(unvec(op(i, j).conj().T @ vec(b.block(j, walk.dims[j])), d))
        blocks[i] = z
    return blocks


def enumerated_visits(walk, domain, i, rho, j, op):
    """Visits to j before exit: ``sum_m tr P[j,j]^m P[j,i] rho`` over 400
    terms (they decay geometrically on these fixtures), or inf when they do
    not decay."""
    sigma = op(i, j) @ vec(rho)
    terms = []
    for _ in range(400):
        terms.append(float(np.trace(unvec(sigma, walk.dims[j])).real))
        sigma = op(j, j) @ sigma
    if sum(terms[200:]) > 1e-6:
        return np.inf
    return sum(terms)


# ---------------------------------------------------------------------------
# Dirichlet problems


@pytest.mark.parametrize("name,domain", CERTIFIED)
def test_block_solve_matches_closed_form(walks, name, domain):
    walk = walks[name]
    op = pair_operators(walk, domain, trapped=False)
    rng = np.random.default_rng(31)
    for _ in range(3):
        problem = random_problem(walk, domain, rng)
        block = oqw.solve_dirichlet_domain(walk, problem)
        closed = closed_form(walk, problem, op)
        assert block.method == "block_solve"
        scale = max(1.0, max(float(np.abs(b).max()) for b in closed.values()))
        assert max_block_gap(block.solution.blocks, closed) <= 1e-10 * scale
        assert block.boundary_sites == oqw.boundary(walk, domain)
        assert block.max_residual <= 1e-10 * scale


@pytest.mark.parametrize("name,domain", UNCERTIFIED)
def test_trapped_domain_takes_compressed_solve(walks, name, domain):
    walk = walks[name]
    op = pair_operators(walk, domain, trapped=True)
    rng = np.random.default_rng(32)
    bnd = oqw.boundary(walk, domain)
    b = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in bnd})
    problem = oqw.DirichletProblem.build(walk, domain, None, b)
    sol = oqw.solve_dirichlet_domain(walk, problem)
    assert sol.method == "compressed"
    assert max_block_gap(sol.solution.blocks, closed_form(walk, problem, op)) <= 1e-10
    assert sol.max_residual <= 1e-10
    # interior data on the trapped part: the divergent visit operator is reported
    problem = oqw.DirichletProblem.build(walk, domain, identity_observable(walk, domain), b)
    with pytest.raises(NumericalError, match="visit operator diverges"):
        oqw.solve_dirichlet_domain(walk, problem)


@pytest.mark.parametrize("name,domain,seed", TRAPPED)
def test_trapped_dirichlet_matches_enumeration(walks, name, domain, seed):
    """Interior data on one site at a time: the solve raises exactly where the
    enumerated return operator has spectral radius 1, and matches otherwise."""
    walk = rotate(walks[name], seed) if seed else walks[name]
    op = pair_operators(walk, domain, trapped=True)
    rng = np.random.default_rng(36 + seed)
    bnd = oqw.boundary(walk, domain)
    b = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in bnd})
    for j in (None, *domain):
        a = DiagonalObservable({} if j is None else {j: random_hermitian(rng, walk.dims[j])})
        problem = oqw.DirichletProblem.build(walk, domain, a, b)
        try:
            want = closed_form(walk, problem, op)
        except NumericalError:
            with pytest.raises(NumericalError, match="visit operator diverges"):
                oqw.solve_dirichlet_domain(walk, problem)
            continue
        sol = oqw.solve_dirichlet_domain(walk, problem)
        assert sol.method == "compressed"
        scale = max(1.0, max(float(np.abs(x).max()) for x in want.values()))
        assert max_block_gap(sol.solution.blocks, want) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# exit states, harmonic measure, harmonic operators and visits


def check_exit_states(walk, domain, i, rho, op):
    bnd = oqw.boundary(walk, domain)
    states = {j: unvec(op(i, j) @ vec(rho), walk.dims[j]) for j in bnd}
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


def check_harmonic_operators(walk, domain, op, tol):
    for j in oqw.boundary(walk, domain):
        got = oqw.harmonic_operator(walk, domain, j)
        want = {j: np.eye(walk.dims[j])}
        want.update({i: dual_identity(op(i, j), walk.dims[i], walk.dims[j]) for i in domain})
        assert max_block_gap(got.blocks, want) <= tol


@pytest.mark.parametrize("name,domain", CERTIFIED + UNCERTIFIED)
def test_harmonic_measure_matches_per_pair(walks, name, domain):
    walk = walks[name]
    op = pair_operators(walk, domain, trapped=(name, domain) in UNCERTIFIED)
    rng = np.random.default_rng(33)
    for i in domain:
        check_exit_states(walk, domain, i, random_density(rng, walk.dims[i]), op)


@pytest.mark.parametrize("name,domain", CERTIFIED + UNCERTIFIED)
def test_harmonic_operator_matches_per_pair(walks, name, domain):
    walk = walks[name]
    trapped = (name, domain) in UNCERTIFIED
    check_harmonic_operators(walk, domain, pair_operators(walk, domain, trapped),
                             1e-10 if trapped else 1e-12)


@pytest.mark.parametrize("name,domain,seed", TRAPPED)
def test_trapped_exits_and_visits_match_enumeration(walks, name, domain, seed):
    base = walks[name]
    walk = rotate(base, seed) if seed else base
    us = rotation(base, seed) if seed else {s: np.eye(base.dims[s]) for s in base.sites}
    op = pair_operators(walk, domain, trapped=True)
    check_harmonic_operators(walk, domain, op, 1e-10)
    rng = np.random.default_rng(37 + seed)
    for i in domain:
        d = walk.dims[i]
        states = [random_density(rng, d)]
        if d == 2:   # the fixtures' basis states, which separate trapped from free mass
            states += [us[i] @ e @ us[i].conj().T for e in (E1, E2)]
        for rho in states:
            check_exit_states(walk, domain, i, rho, op)
            for j in domain:
                want = enumerated_visits(walk, domain, i, rho, j, op)
                if np.isinf(want):
                    with pytest.raises(NumericalError, match="visit count diverges"):
                        oqw.expected_domain_visits(walk, domain, i, rho, j)
                else:
                    got = oqw.expected_domain_visits(walk, domain, i, rho, j)
                    assert got == pytest.approx(want, abs=1e-10)


def test_trap_visits_are_finite_off_the_trapped_mass(trap_walk):
    # from "1" in e2 the walk steps to "0" in e2 and leaves: exactly one visit
    assert oqw.expected_domain_visits(trap_walk, ["0", "1"], "1", E2, "0") == \
        pytest.approx(1.0, abs=1e-14)
    with pytest.raises(NumericalError, match="visit count diverges"):
        oqw.expected_domain_visits(trap_walk, ["0", "1"], "1", E1, "0")


def test_compression_only_where_the_certificate_fails(walks, monkeypatch):
    calls = []
    project = hitting.fixed_point_projection

    def spy(matrix, x, *args):
        calls.append(matrix.shape[0])
        return project(matrix, x, *args)

    monkeypatch.setattr(hitting, "fixed_point_projection", spy)
    rho = np.eye(2, dtype=complex) / 2
    rng = np.random.default_rng(38)
    for name, domain in CERTIFIED:
        walk = walks[name]
        i = domain[0]
        oqw.harmonic_measure(walk, domain, i, np.eye(walk.dims[i]) / walk.dims[i])
        oqw.expected_domain_visits(walk, domain, i, np.eye(walk.dims[i]) / walk.dims[i], i)
        oqw.solve_dirichlet_domain(walk, random_problem(walk, domain, rng))
        for j in oqw.boundary(walk, domain):
            oqw.harmonic_operator(walk, domain, j)
    assert calls == []
    oqw.harmonic_measure(walks["trap"], ["0", "1"], "0", rho)
    oqw.exit_probability(walks["branch"], ["1", "2", "3"], "1", rho)
    assert calls == [8, 12]


def test_exit_path_selected_by_certificate(walks):
    def solve(walk, domain):
        blocks = hitting._domain_blocks(walk, domain, ())
        rhs = blocks.inner.pack(oqw.DiagonalState({domain[0]: np.eye(2) / 2}))[:, None]
        return hitting._domain_solve(blocks.A, rhs, blocks.inner.dims(walk))

    certified = solve(walks["ring"], ("0", "1"))
    assert (certified.method, certified.trapped) == ("block_solve", ())
    for (name, domain), trapped in zip(UNCERTIFIED, [("0", "1"), ("2",), ("3",)]):
        compressed = solve(walks[name], domain)
        assert (compressed.method, compressed.trapped) == ("compressed", trapped)
        assert compressed.radius_bound < 1.0 - hitting.DIVERGENCE_TOL
        assert compressed.residual <= 1e-12


def leaking_self_loop(leak):
    return oqw.WalkSpec(("a", "b"), {"a": 1, "b": 1},
                        {("a", "a"): [[np.sqrt(1 - leak)]], ("b", "a"): [[np.sqrt(leak)]],
                         ("b", "b"): [[1.0]]})


def test_uncertified_domain_without_trap_raises_with_radius_bound():
    # every site of a down-drifting half-line but its absorbing cut: r(K_DD)
    # is 1 - 5.5e-11, and the near-fixed part leaks 1/4 per step at the top
    walk = fixtures.example_half_line(0.75, 16)
    with pytest.raises(NumericalError, match="not certified convergent") as err:
        oqw.exit_probability(walk, [s for s in walk.sites if s != "cut+"], "1", np.eye(1))
    assert err.value.diagnostics["radius_bound"] >= 1.0 - hitting.DIVERGENCE_TOL
    assert err.value.diagnostics["trap_defect"] > hitting.TRAP_DEFECT_TOL
    assert err.value.diagnostics["trapped_sites"] == []
    # a self loop of weight 1 - 1e-9 is certified below 1, though not by the
    # margin, and nothing is trapped: the first solve is kept
    walk = leaking_self_loop(1e-9)
    assert oqw.exit_probability(walk, ["a"], "a", np.eye(1)) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("p,n", [(0.75, 20), (0.75, 16), (0.8, 14), (0.75, 12)])
def test_near_fixed_part_that_leaks_is_not_taken_for_trapped(p, n):
    """The whole half-line but its cut exits surely, however slowly: the exit
    mass is 1 or the solve refuses, never the 0 of a part taken for trapped."""
    walk = fixtures.example_half_line(p, n)
    domain = [s for s in walk.sites if s != "cut+"]
    for i in ("1", str(n - 1)):
        for query in (lambda: oqw.exit_probability(walk, domain, i, np.eye(1)),
                      lambda: oqw.harmonic_measure(walk, domain, i, np.eye(1)).total_mass):
            try:
                mass = query()
            except NumericalError as err:
                assert "not certified convergent" in str(err)
                continue
            assert mass == pytest.approx(1.0, abs=1e-8)


def test_passage_through_a_leaking_near_fixed_part_raises():
    # r(S) = 1 - 5.5e-11 on the interior of 11 -> cut+, nothing trapped
    with pytest.raises(NumericalError, match="not certified convergent"):
        oqw.passage_probability(fixtures.example_half_line(0.75, 20), "11", [[1]], "cut+")


def test_near_fixed_return_map_of_a_phase_is_trapped():
    # a unit-modulus scalar self loop is the identity up to rounding of its
    # phase: its visit count diverges whatever the phase
    for loop in (1.0, np.exp(0.3j)):
        walk = oqw.WalkSpec(("0",), {"0": 1}, {("0", "0"): [[loop]]})
        with pytest.raises(NumericalError, match="visit count diverges"):
            oqw.expected_domain_visits(walk, ["0"], "0", [[1]], "0")


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
