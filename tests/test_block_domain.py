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
from oqw._oracles import brute_force_path_sum, shanks_limit
from oqw.linalg import COMPLEX, herm, hermitian_basis, psd_sqrt, spectral_radius, unvec, vec
from oqw.walk import DiagonalObservable, identity_observable

from conftest import E1, E2, MIX, random_density, random_hermitian, rotate, rotation

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


def test_trapped_domain_visits_project_once(monkeypatch):
    # the trapped split and the Cesaro limit of the start state come from
    # one projection, which the domain's law keeps for every later start and
    # target, divergent ones included (a fresh walk: the session-scoped
    # trap_walk fixture keeps this law)
    calls = []
    project = hitting.fixed_point_projection
    monkeypatch.setattr(hitting, "fixed_point_projection",
                        lambda *args: calls.append(1) or project(*args))
    walk, domain = fixtures.example_three_site_trap(), ["0", "1"]
    assert oqw.expected_domain_visits(walk, domain, "1", E2, "0") == \
        pytest.approx(1.0, abs=1e-14)
    assert len(calls) == 1
    for i in domain:
        for j in domain:
            for rho in (E1, E2, MIX):
                try:
                    oqw.expected_domain_visits(walk, domain, i, rho, j)
                except NumericalError as err:
                    assert "visit count diverges" in str(err)
    assert len(calls) == 1


def test_domain_visits_check_their_inputs(branch_walk):
    # the checks exit_probability and harmonic_measure make
    with pytest.raises(oqw.InputError, match="not positive semidefinite"):
        oqw.expected_domain_visits(branch_walk, ["1", "2"], "1", np.diag([2.0, -1.0]), "1")
    with pytest.raises(oqw.InputError, match="unknown sites"):
        oqw.expected_domain_visits(branch_walk, ["1", "2", "9"], "1", np.eye(2) / 2, "1")
    with pytest.raises(oqw.InputError, match="unknown sites"):
        oqw.domain_operator(branch_walk, ["1", "2", "9"], "1", "0")
    with pytest.raises(oqw.InputError, match="not in the domain"):
        oqw.expected_domain_visits(branch_walk, ["1", "2"], "3", np.eye(2) / 2, "1")
    with pytest.raises(oqw.InputError, match="inside the domain"):
        oqw.expected_domain_visits(branch_walk, ["1", "2"], "1", np.eye(2) / 2, "3")


def test_compression_only_where_the_certificate_fails(walks, monkeypatch):
    calls = []
    project = hitting.fixed_point_projection

    def spy(matrix):
        calls.append(matrix.shape[0])
        return project(matrix)

    monkeypatch.setattr(hitting, "fixed_point_projection", spy)
    rho = np.eye(2, dtype=complex) / 2
    rng = np.random.default_rng(38)

    def fresh(walk):   # drop the kept exit laws, so every view below makes its own solve
        walk._store.clear()
        return walk

    for name, domain in CERTIFIED:
        walk = walks[name]
        i = domain[0]
        oqw.harmonic_measure(fresh(walk), domain, i, np.eye(walk.dims[i]) / walk.dims[i])
        oqw.expected_domain_visits(walk, domain, i, np.eye(walk.dims[i]) / walk.dims[i], i)
        oqw.solve_dirichlet_domain(fresh(walk), random_problem(walk, domain, rng))
        for j in oqw.boundary(walk, domain):
            oqw.harmonic_operator(fresh(walk), domain, j)
    assert calls == []
    # fresh walks: a walk keeps the exit law of the last domain it was asked about
    oqw.harmonic_measure(fixtures.example_three_site_trap(), ["0", "1"], "0", rho)
    oqw.exit_probability(fixtures.example_branch_return(), ["1", "2", "3"], "1", rho)
    assert calls == [8, 12]


def test_exit_path_selected_by_certificate(walks):
    def solve(walk, domain):
        blocks = hitting._domain_blocks(walk, hitting._domain_sites(walk, domain)[1], ())
        rhs = blocks.inner.pack(oqw.DiagonalState({domain[0]: np.eye(2) / 2}))[:, None]
        return hitting._domain_solve(blocks.A, rhs, blocks.inner)

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


def test_a_domain_trapping_every_direction_passes_its_start_through():
    # two sites that each keep their state forever: the domain has no boundary
    # and its compression off the trapped part is the empty system
    walk = oqw.WalkSpec(("a", "b"), {"a": 1, "b": 1},
                        {("a", "a"): [[1]], ("b", "b"): [[1]]})
    assert oqw.expected_domain_visits(walk, ["a", "b"], "a", [[1]], "b") == 0.0
    with pytest.raises(NumericalError, match="visit count diverges"):
        oqw.expected_domain_visits(walk, ["a", "b"], "a", [[1]], "a")


def test_exit_start_outside_domain_rejected(ring_walk):
    with pytest.raises(oqw.InputError, match="not in the domain"):
        oqw.harmonic_measure(ring_walk, ["0", "1"], "2", np.eye(2) / 2)


# ---------------------------------------------------------------------------
# the exit law: one dual solve per (walk, domain) against forward solves


def window_domain(walk):
    """Every site of a lattice window but its two ends: the absorbing cut
    sites lie inside, so the domain traps mass (the compressed path)."""
    return [s for s in walk.sites if s not in ("-40", "40")]


EXIT_LAW_CASES = {
    "ruin21": lambda: (fixtures.gamblers_ruin(21), [str(k) for k in range(1, 20)]),
    "ruin201": lambda: (fixtures.gamblers_ruin(201), [str(k) for k in range(1, 200)]),
    "rds10": lambda: (fixtures.random_doubly_stochastic(10, 2, seed=3),
                      [str(k) for k in range(8)]),
    "window40": lambda: (lambda w: (w, window_domain(w)))(
        fixtures.example_lattice_nonnormal(40)),
    "trap": lambda: (fixtures.example_three_site_trap(), ["0", "1"]),
}


def forward_exit_map(walk, domain):
    """The domain's blocks, ``F = (Id - K_DD)^{-1}`` from one forward solve
    with every unit vector as right-hand side (compressed off a trapped
    part), and the exit map ``K_out F``."""
    inner = hitting._domain_sites(walk, domain)[1]
    blocks = hitting._domain_blocks(walk, inner, hitting._boundary(walk, inner))
    forward = hitting._domain_solve(blocks.A, np.eye(blocks.inner.total, dtype=COMPLEX),
                                    blocks.inner)
    return blocks, forward, blocks.K_out @ forward.x


@pytest.mark.parametrize("case", list(EXIT_LAW_CASES))
def test_exit_law_matches_forward_solves(case):
    walk, domain = EXIT_LAW_CASES[case]()
    blocks, forward, exit_map = forward_exit_map(walk, domain)
    bnd = blocks.outer.sites
    rng = np.random.default_rng(19)
    for i in domain:
        rho = random_density(rng, walk.dims[i])
        want = blocks.outer.unpack(exit_map @ blocks.inner.pack(oqw.DiagonalState({i: rho})))
        hm = oqw.harmonic_measure(walk, domain, i, rho)
        assert list(hm.masses) == list(bnd)
        for j, out in want.items():
            t = float(np.trace(out).real)
            assert abs(hm.masses[j] - max(0.0, t)) <= 1e-12
            if t > 1e-9:
                assert np.abs(hm.conditional_states[j] - herm(out) / t).max() <= 1e-12
        total = sum(float(np.trace(out).real) for out in want.values())
        assert abs(oqw.exit_probability(walk, domain, i, rho) - min(1.0, total)) <= 1e-12
    for j in bnd:
        unit = blocks.outer.pack(DiagonalObservable({j: np.eye(walk.dims[j])}))
        want = {j: np.eye(walk.dims[j])}
        want.update({s: herm(b) for s, b in
                     blocks.inner.unpack(exit_map.conj().T @ unit).items()})
        got = oqw.harmonic_operator(walk, domain, j).blocks
        assert set(got) == set(want)
        assert max(float(np.abs(got[s] - want[s]).max()) for s in want) <= 1e-12
    # interior data only off the trapped sites, where the visit operator is finite
    a = DiagonalObservable({s: random_hermitian(rng, walk.dims[s])
                            for s in domain if s not in forward.trapped})
    b = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in bnd})
    sol = oqw.solve_dirichlet_domain(walk, oqw.DirichletProblem.build(walk, domain, a, b))
    z = forward.x.conj().T @ blocks.inner.pack(a) + exit_map.conj().T @ blocks.outer.pack(b)
    want = {s: herm(blk) for s, blk in blocks.inner.unpack(z).items()}
    want.update({s: b.blocks[s] for s in bnd})
    assert sol.method == forward.method
    scale = max(1.0, max(float(np.abs(x).max()) for x in want.values()))   # ~n^2/8 on ruin
    assert max(float(np.abs(sol.solution.blocks[s] - want[s]).max()) for s in want) \
        <= 1e-12 * scale


def every_start_measures(walk, domain):
    return [oqw.harmonic_measure(walk, domain, i, np.eye(walk.dims[i]) / walk.dims[i])
            for i in domain]


def test_every_start_reads_one_certified_solve(monkeypatch):
    calls = []
    certify = hitting._certify
    monkeypatch.setattr(hitting, "_certify", lambda *args: calls.append(1) or certify(*args))
    for n in (21, 201):
        walk, domain = EXIT_LAW_CASES[f"ruin{n}"]()
        calls.clear()
        every_start_measures(walk, domain)
        oqw.exit_probability(walk, domain, "1", np.eye(1))
        oqw.harmonic_operator(walk, domain, "0")
        a = DiagonalObservable({s: np.eye(1) for s in domain})
        oqw.solve_dirichlet_domain(walk, oqw.DirichletProblem.build(walk, domain, a))
        assert len(calls) == 1


def law_answers(walk, domain, order, interior):
    """Every view of the domain's exit law, asked in the given order, with
    interior data on the sites ``interior``."""
    rng = np.random.default_rng(5)
    bnd = oqw.boundary(walk, domain)
    a = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in interior})
    b = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in bnd})
    queries = {
        "measure": lambda: [(hm.masses, hm.conditional_states)
                            for hm in every_start_measures(walk, domain)],
        "operator": lambda: [oqw.harmonic_operator(walk, domain, j).blocks for j in bnd],
        "dirichlet": lambda: oqw.solve_dirichlet_domain(
            walk, oqw.DirichletProblem.build(walk, domain, a, b)).solution.blocks,
    }
    return {name: queries[name]() for name in order}


def assert_bit_identical(x, y):
    if isinstance(x, dict):
        assert list(x) == list(y)
        for k in x:
            assert_bit_identical(x[k], y[k])
    elif isinstance(x, (list, tuple)):
        assert len(x) == len(y)
        for u, v in zip(x, y):
            assert_bit_identical(u, v)
    else:
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("case", ["rds10", "trap"])
def test_answers_do_not_depend_on_which_entry_builds_the_law(case):
    orders = [("measure", "operator", "dirichlet"), ("operator", "dirichlet", "measure"),
              ("dirichlet", "measure", "operator")]
    runs = []
    for order in orders:
        walk, domain = EXIT_LAW_CASES[case]()
        # no interior data on the trap's sites: both hold a trapped direction
        runs.append(law_answers(walk, domain, order, [] if case == "trap" else domain[-2:]))
    for run in runs[1:]:
        assert_bit_identical({k: run[k] for k in orders[0]}, runs[0])


def domain_keys(walk):
    return [key for key in walk._store if key[0] == "domain"]


def test_a_new_domain_is_kept_beside_the_first():
    walk, first = EXIT_LAW_CASES["ruin21"]()
    second = first[:5]
    before = every_start_measures(walk, first)
    # the law is kept by the positions of the domain and its boundary; site "k" is at k
    assert domain_keys(walk) == [("domain", tuple(range(1, 20)), (0, 20))]
    for domain in (first, set(first), np.array(first), first[:-1]):   # any iterable of sites
        assert oqw.boundary(walk, domain) == (("0", "20") if len(domain) == 19 else ("0", "19"))
    fresh = every_start_measures(EXIT_LAW_CASES["ruin21"]()[0], second)
    assert_bit_identical([hm.masses for hm in every_start_measures(walk, second)],
                         [hm.masses for hm in fresh])
    assert domain_keys(walk) == [("domain", tuple(range(1, 20)), (0, 20)),
                                 ("domain", tuple(range(1, 6)), (0, 6))]
    assert_bit_identical([hm.masses for hm in every_start_measures(walk, first)],
                         [hm.masses for hm in before])
    assert len(domain_keys(walk)) == 2


def test_the_store_keeps_the_four_domains_built_last(monkeypatch):
    # alternating two domains builds each law once; a fifth domain drops the
    # oldest; answers read from kept laws are those of a fresh walk, bit for bit
    builds = []
    build = hitting._domain_blocks
    monkeypatch.setattr(hitting, "_domain_blocks", lambda *a: builds.append(1) or build(*a))
    walk = fixtures.gamblers_ruin(21)
    domains = [[str(k) for k in range(lo, lo + 5)] for lo in (1, 4, 7, 10, 13)]
    for n in range(100):
        oqw.harmonic_measure(walk, domains[n % 2], domains[n % 2][0], np.eye(1))
    assert len(builds) == 2
    for domain in domains * 2:
        for i in domain:
            got = oqw.harmonic_measure(walk, domain, i, np.eye(1))
            want = oqw.harmonic_measure(fixtures.gamblers_ruin(21), domain, i, np.eye(1))
            assert_bit_identical([got.masses, got.conditional_states],
                                 [want.masses, want.conditional_states])
        assert len(domain_keys(walk)) <= 4
    assert [key[1][0] for key in domain_keys(walk)] == [4, 7, 10, 13]


@pytest.mark.parametrize("query", ["harmonic_measure", "exit_probability"])
@pytest.mark.parametrize("domain,start,rho,message", [
    (["0", "1", "2"], "0", np.eye(2) / 2, "domain has empty boundary"),
    (["0", "1"], "2", np.eye(2) / 2, "start site '2' is not in the domain"),
    (["0", "9"], "0", np.eye(2) / 2, "domain has unknown sites ['9']"),
    (["0", "1"], "9", np.eye(2) / 2, "state block at unknown site '9'"),
    (["0", "1"], "0", np.diag([2.0, -1.0]), "state block at '0' is not positive semidefinite"),
    # the checks run in order: state, domain sites, boundary, start site
    (["0", "9"], "0", np.diag([2.0, -1.0]), "state block at '0' is not positive semidefinite"),
    (["0", "1", "2"], "7", np.eye(2) / 2, "state block at unknown site '7'"),
    (["0", "1", "2", "9"], "2", np.eye(2) / 2, "domain has unknown sites ['9']"),
    (["2"], "0", np.eye(2) / 2, "domain has empty boundary"),
], ids=["empty-boundary", "start-outside", "unknown-domain-site", "unknown-start",
        "not-psd", "state-first", "start-before-boundary", "sites-before-boundary",
        "boundary-before-start"])
def test_exit_queries_raise_as_before(trap_walk, query, domain, start, rho, message):
    with pytest.raises(oqw.InputError) as err:
        getattr(oqw, query)(trap_walk, domain, start, rho)
    assert str(err.value) == message


def test_harmonic_operator_and_dirichlet_raise_as_before(trap_walk, ruin_walk):
    with pytest.raises(oqw.InputError) as err:
        oqw.harmonic_operator(ruin_walk, ["3", "4"], "7")
    assert str(err.value) == "site '7' is not on the domain boundary"
    with pytest.raises(oqw.InputError) as err:
        oqw.harmonic_operator(ruin_walk, ["3", "99"], "2")
    assert str(err.value) == "domain has unknown sites ['99']"
    with pytest.raises(oqw.InputError) as err:
        oqw.DirichletProblem.build(trap_walk, ["0", "1", "2"])
    assert str(err.value) == "domain has empty boundary"
    # interior data on a trapped site: the divergent visit operator
    problem = oqw.DirichletProblem.build(trap_walk, ["0", "1"],
                                         DiagonalObservable({"0": np.eye(2)}))
    with pytest.raises(NumericalError, match="domain visit operator diverges at '0'"):
        oqw.solve_dirichlet_domain(trap_walk, problem)


@pytest.mark.parametrize("name,domain,trapped", [("ruin", ("3", "4", "5", "6"), ()),
                                                 ("trap", ("1", "2"), ("2",)),
                                                 ("branch", ("1", "2", "3"), ("3",))])
def test_interior_solve_keeps_the_residual_gate(walks, monkeypatch, name, domain, trapped):
    """Interior data is solved by the exit law's kept factor; a kept factor whose
    resolve misses the certificate's residual gate raises instead of returning
    a solution."""
    walk, rng = walks[name], np.random.default_rng(5)
    a = DiagonalObservable({s: random_hermitian(rng, walk.dims[s])
                            for s in domain if s not in trapped})
    b = DiagonalObservable({s: random_hermitian(rng, walk.dims[s])
                            for s in oqw.boundary(walk, domain)})
    problem = oqw.DirichletProblem.build(walk, domain, a, b)
    solution = oqw.solve_dirichlet_domain(walk, problem)
    assert solution.method == ("compressed" if trapped else "block_solve")
    assert max(solution.residuals.values()) < 1e-10
    inner = hitting._domain_sites(walk, domain)[1]
    law = hitting._exit_law(walk, inner, hitting._boundary(walk, inner))[1]   # the kept law
    factor = law.factor
    monkeypatch.setattr(law, "factor", lambda rhs: factor(rhs) * (1.0 + 1e-6))
    with pytest.raises(NumericalError, match="solve on a kept factor misses its residual gate"
                       ) as err:
        oqw.solve_dirichlet_domain(walk, problem)
    assert err.value.diagnostics["residual"] > hitting.CERTIFICATE_RESIDUAL_TOL


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
    a = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in domain})
    b = DiagonalObservable({s: random_hermitian(rng, walk.dims[s])
                            for s in oqw.boundary(walk, domain)})
    # target A - (Id - dual step)(B) on the domain
    stepped = oqw.dual_apply(walk, b)
    target = DiagonalObservable({s: a.blocks[s] - b.block(s, walk.dims[s])
                                 + stepped.block(s, walk.dims[s]) for s in domain})
    form = dirichlet._form_blocks(walk, tau)
    _, gram, rhs = dirichlet._stationarity(walk, form, domain, a, b)
    # the Gram and right-hand side are laid out in walk order: so is the oracle's basis
    want_gram, want_rhs = pairwise_stationarity(walk, tau, sorted(domain, key=walk._index.get),
                                                target)
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
    # the branch walk mixes block sizes (1, 2, 2, 2) and has a transition "2" -> "3"
    # with no reverse; its invariant state is not faithful, so it takes a random one only
    walk, rng = fixtures.example_branch_return(), np.random.default_rng(35)
    tau = oqw.DiagonalState({s: random_density(rng, walk.dims[s]) / len(walk.sites)
                             for s in walk.sites})
    rep = oqw.check_detailed_balance(walk, tau)
    assert rep.selfadjoint_residual == \
        pytest.approx(pairwise_selfadjoint_residual(walk, tau), abs=1e-12)
    assert rep.selfadjoint_residual == pytest.approx(0.20164717713795297, abs=1e-15)
    # under the flat state the only asymmetry of this chain is its one-way transition 0 -> 1
    walk = oqw.minimal_dilation(np.array([[0.5, 0.0, 0.3], [0.2, 0.7, 0.3], [0.3, 0.3, 0.4]]))
    tau = oqw.flat_state(walk)
    rep = oqw.check_detailed_balance(walk, tau)
    assert rep.selfadjoint_residual > 0.05
    assert rep.selfadjoint_residual == \
        pytest.approx(pairwise_selfadjoint_residual(walk, tau), abs=1e-12)


def test_sufficient_residual_matches_every_site_pair(walks):
    # the pairwise condition, checked over every ordered pair of sites
    def every_pair(walk, tau):
        roots = {s: psd_sqrt(tau.blocks[s]) for s in walk.sites}
        worst = 0.0
        for i in walk.sites:
            for j in walk.sites:
                zero = np.zeros((walk.dims[i], walk.dims[j]), dtype=complex)
                lji, lij = walk.block(j, i), walk.block(i, j)
                lhs = roots[i] @ (zero if lji is None else lji.conj().T)
                rhs = (zero if lij is None else lij) @ roots[j]
                worst = max(worst, float(np.abs(lhs - rhs).max(initial=0.0)))
        return worst

    cases = [walks["ring"], walks["rds6"], fixtures.cycle_dilation(7, 0.8),
             fixtures.random_doubly_stochastic(8, 2, seed=3)]
    for walk in cases:
        tau = oqw.invariant_state(walk)[0]
        assert oqw.check_detailed_balance(walk, tau).sufficient_residual == every_pair(walk, tau)
