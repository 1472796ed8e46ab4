"""The solve-based convergence certificate against a dense reference.

``dense_series`` is the reference capture series: ``S``, ``E`` and ``C``
accumulated from ``np.kron`` blocks and the dense ``eigvals`` spectral
radius of ``S``.  ``dense_taboo_matrix`` and ``dense_return_time`` evaluate
taboo operators and return times from it with plain dense solves where that
radius is below ``1 - DIVERGENCE_TOL``; elsewhere the reference taboo
operator is a 3000-term sum of the series' length terms.
"""

import dataclasses

import mpmath
import numpy as np
import pytest

import oqw
from oqw import fixtures, hitting
from oqw._oracles import path_terms
from oqw.hitting import DIVERGENCE_TOL, capture_series

from conftest import E1, E2, MIX, random_density


def dense_series(walk, i, j, interior):
    """Reference (S, E, C, eigvals radius) on the given interior."""
    offsets, n = {}, 0
    for s in interior:
        offsets[s] = n
        n += walk.dims[s] ** 2
    di2, dj2 = walk.dims[i] ** 2, walk.dims[j] ** 2
    S = np.zeros((n, n), dtype=complex)
    E = np.zeros((n, di2), dtype=complex)
    C = np.zeros((dj2, n), dtype=complex)
    for (to, fr), L in walk.transitions.items():
        K = np.kron(L.conj(), L)
        if to in offsets and fr in offsets:
            S[offsets[to]:offsets[to] + K.shape[0], offsets[fr]:offsets[fr] + K.shape[1]] += K
        if fr == i and to in offsets:
            E[offsets[to]:offsets[to] + K.shape[0], :] += K
        if to == j and fr in offsets:
            C[:, offsets[fr]:offsets[fr] + K.shape[1]] += K
    radius = float(np.abs(np.linalg.eigvals(S)).max()) if n else 0.0
    return S, E, C, radius


def _dense_path_sum(walk, i, j, S, E, C):
    m = np.zeros((walk.dims[j] ** 2, walk.dims[i] ** 2), dtype=complex)
    L = walk.transitions.get((j, i))
    if L is not None:
        m += np.kron(L.conj(), L)
    if S.shape[0]:
        m += C @ np.linalg.solve(np.eye(S.shape[0]) - S, E)
    return m


def dense_taboo_matrix(walk, i, j, taboo=()):
    """Reference taboo operator matrix and how it was computed: ``"solve"``
    below radius ``1 - DIVERGENCE_TOL``, else ``"length_terms"``."""
    series = capture_series(walk, i, j, taboo)
    S, E, C, radius = dense_series(walk, series.source, series.target, series.interior)
    if radius < 1.0 - DIVERGENCE_TOL:
        return _dense_path_sum(walk, series.source, series.target, S, E, C), "solve"
    return sum(path_terms(series, 3000)), "length_terms"


def dense_return_time(walk, i, rho, j):
    """Reference expected return time on the convergent path."""
    series = capture_series(walk, i, j)
    i, j = series.source, series.target
    S, E, C, radius = dense_series(walk, i, j, series.interior)
    assert radius < 1.0 - DIVERGENCE_TOL
    L = walk.transitions.get((j, i))
    val = 0.0 if L is None else float(np.trace(L @ rho @ L.conj().T).real)
    if S.shape[0]:
        eye = np.eye(S.shape[0])
        y = np.linalg.solve(eye - S, E @ rho.reshape(-1, order="F"))
        z = np.linalg.solve(eye - S, y)
        tvec = np.eye(walk.dims[j]).reshape(-1, order="F")
        val += float(np.vdot(tvec, C @ (y + z)).real)
    return val


def random_walk(seed, substochastic):
    """Seeded random walk on 3-6 sites with fibers of dimension 1 or 2.

    Each source spreads an isometry over 1-3 random targets; substochastic
    walks scale some sources down or drop one of their blocks."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    sites = [str(k) for k in range(n)]
    dims = {s: int(rng.integers(1, 3)) for s in sites}
    trans = {}
    for fr in sites:
        targets = list(rng.choice(sites, size=int(rng.integers(1, 4)), replace=False))
        rows = sum(dims[t] for t in targets)
        d = dims[fr]
        g = rng.normal(size=(max(rows, d), d)) + 1j * rng.normal(size=(max(rows, d), d))
        q, _ = np.linalg.qr(g)
        if rows < d:  # too few rows for an isometry: keep a contraction
            q = q[:rows]
        scale = np.sqrt(rng.uniform(0.3, 1.0)) if substochastic and rng.random() < 0.5 else 1.0
        off = 0
        for t in targets:
            if substochastic and len(targets) > 1 and rng.random() < 0.2:
                off += dims[t]
                continue
            trans[(t, fr)] = scale * q[off:off + dims[t], :]
            off += dims[t]
    return oqw.WalkSpec(tuple(sites), dims, trans)


def fixture_walks():
    walks = {
        "trap": fixtures.example_three_site_trap(),
        "branch": fixtures.example_branch_return(),
        "ruin": fixtures.gamblers_ruin(11, 0.5),
        "ring": fixtures.random_doubly_stochastic(3, 2, seed=7),
        "lattice-absorbing": fixtures.example_lattice_nonnormal(6, "absorbing"),
        "lattice-taboo": fixtures.example_lattice_nonnormal(6, "taboo"),
        "normal-lattice-taboo": fixtures.example_lattice_normal(0.3, 0.7, 5, "taboo"),
        "half-line-down": fixtures.example_half_line(0.75, 20),
        "half-line-up-taboo": fixtures.example_half_line(0.25, 20, boundary="taboo"),
    }
    for p in (0.49, 0.499, 0.5, 0.501, 0.51):
        walks[f"half-line p={p}"] = fixtures.example_half_line(p, 20)
        walks[f"half-line p={p} taboo"] = fixtures.example_half_line(p, 20, boundary="taboo")
    return walks


def _site_pairs(walk):
    s = list(walk.sites)
    pick = s if len(s) <= 6 else [s[0], s[1], s[len(s) // 2], s[-1]]
    return [(i, j) for i in pick for j in pick]


def _cases():
    for name, walk in fixture_walks().items():
        for i, j in _site_pairs(walk):
            yield name, walk, i, j
    for seed in range(24):
        walk = random_walk(seed, substochastic=seed % 2 == 1)
        for i, j in _site_pairs(walk):
            yield f"random seed {seed}", walk, i, j


def test_bound_dominates_eigvals_radius_and_decision_is_unchanged():
    methods = set()
    for name, walk, i, j in _cases():
        series = capture_series(walk, i, j)
        _, _, _, radius = dense_series(walk, series.source, series.target, series.interior)
        label = f"{name} {i}->{j}"
        try:
            diag = series.diagnostics
        except oqw.NumericalError:   # only a series with radius near 1 may refuse
            assert radius >= 1.0 - DIVERGENCE_TOL, label
            continue
        methods.add(diag["method"])
        assert diag["radius_source"] == "certificate", label
        assert diag["residual"] <= hitting.CERTIFICATE_RESIDUAL_TOL, label
        if radius < 1.0 - DIVERGENCE_TOL:   # every convergent series takes the solve
            assert diag["method"] == "solve", label
        if diag["method"] == "solve":
            assert radius - 1e-12 <= diag["radius_bound"] < 1.0, label
        else:   # compressed off a trapped part, certified there
            assert diag["radius_bound"] < 1.0 - DIVERGENCE_TOL, label
    assert methods == {"solve", "compressed"}


def test_series_blocks_match_dense_assembly():
    for name, walk, i, j in _cases():
        series = capture_series(walk, i, j)
        S, E, C, _ = dense_series(walk, series.source, series.target, series.interior)
        assert np.array_equal(series.S, S), name
        assert np.array_equal(series.A, np.eye(S.shape[0]) - S), name
        assert np.array_equal(series.E, E), name
        assert np.array_equal(series.C, C), name


def test_taboo_operator_matches_dense_reference():
    methods, refused = set(), set()
    for name, walk, i, j in _cases():
        tabooed = [s for s in walk.sites if s not in (i, j)][:1]
        for taboo in ((), tabooed):
            label = f"{name} {i}->{j} taboo {taboo}"
            want, reference = dense_taboo_matrix(walk, i, j, taboo)
            try:
                op = oqw.taboo_operator(walk, i, j, taboo)
            except oqw.NumericalError:
                assert reference == "length_terms", label
                refused.add(label)
                continue
            if reference == "solve":
                assert op.diagnostics["method"] == "solve", label
            scale = max(1.0, float(np.abs(want).max()))
            assert np.abs(op.matrix - want).max() <= 1e-12 * scale, label
            methods.add(op.diagnostics["method"])
    assert methods == {"solve", "compressed"}
    # r(S) = 1 - 5.5e-11 with nothing trapped: refused, not answered, from
    # each start that steps into the interior ("cut+" itself does not)
    assert refused == {f"half-line-down {i}->cut+ taboo ()" for i in ("0", "1", "11")}


def test_return_times_match_dense_reference():
    rng = np.random.default_rng(11)
    checked = 0
    for name, walk, i, j in _cases():
        d = walk.dims[i]
        for rho in (np.eye(d) / d, random_density(rng, d)):
            try:
                res = oqw.expected_return_time(walk, i, rho, j)
            except oqw.NumericalError:   # the passage series is not certified
                continue
            if res.diagnostics["method"] != "solve":
                continue
            want = dense_return_time(walk, i, rho, j)
            assert res.value == pytest.approx(want, rel=1e-12, abs=1e-12), f"{name} {i}->{j}"
            checked += 1
    assert checked > 50


NEAR_DIVERGENT = [
    # drift away from the target, 1 - r(S) between 1e-7 and 1e-6: the forward
    # Y = sum_n S^n(Id) exceeds 1e7, the dual one (the law's) stays below it
    (fixtures.example_half_line(0.6, 30), "0", "30"),
    (fixtures.example_half_line(0.6, 30, boundary="taboo"), "1", "29"),
    (fixtures.example_half_line(0.55, 60), "0", "60"),
    # r(S) = 1 - 5.3e-8: the certificate misses the margin, nothing is trapped
    (fixtures.example_half_line(0.6, 35), "0", "35"),
]


def count_eigvals(monkeypatch):
    """Record the size of every dense ``np.linalg.eigvals`` call."""
    calls = []
    real = np.linalg.eigvals

    def counting(m):
        calls.append(m.shape[0])
        return real(m)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


def _mp_path_sum(walk, i, j, S, E, C):
    """``direct + C (Id - S)^{-1} E`` of the float system, solved to 60 digits."""
    with mpmath.workdps(60):
        A, Cm = mpmath.matrix((np.eye(S.shape[0]) - S).tolist()), mpmath.matrix(C.tolist())
        cols = [Cm * mpmath.lu_solve(A, mpmath.matrix(E[:, k].tolist()))
                for k in range(E.shape[1])]
        m = np.array([[complex(c[r]) for c in cols] for r in range(C.shape[0])])
    L = walk.transitions.get((j, i))
    return m if L is None else m + np.kron(L.conj(), L)


@pytest.mark.parametrize("walk,i,j", NEAR_DIVERGENT)
def test_near_divergent_series_take_the_first_solve(monkeypatch, walk, i, j):
    calls = count_eigvals(monkeypatch)
    op = oqw.taboo_operator(walk, i, j)
    assert calls == []
    monkeypatch.undo()
    # nothing is trapped, and a bound below 1 keeps the first solve; the
    # law's certificate misses the margin exactly where the spectral radius does
    series = capture_series(walk, i, j)
    S, E, C, radius = dense_series(walk, i, j, series.interior)
    bound = op.diagnostics["radius_bound"]
    assert op.diagnostics["method"] == "solve"
    assert radius - 1e-12 <= bound < 1.0
    assert (bound < 1.0 - DIVERGENCE_TOL) is (radius < 1.0 - DIVERGENCE_TOL)
    # the dense reference solved as the library solves it, for the law
    A = np.eye(S.shape[0]) - S
    L = walk.transitions.get((j, i))
    direct = 0.0 if L is None else np.kron(L.conj(), L)
    want = direct + np.linalg.solve(A.conj().T, C.conj().T).conj().T @ E
    assert np.abs(op.matrix - want).max() <= 1e-12 * max(1.0, float(np.abs(want).max()))
    # and no farther from the 60-digit path sum than the dense forward solve
    exact = _mp_path_sum(walk, i, j, S, E, C)
    forward = _dense_path_sum(walk, i, j, S, E, C)
    assert np.abs(op.matrix - exact).max() <= np.abs(forward - exact).max()


def test_a_law_stays_within_its_condition_of_the_exact_sum():
    # the return map of half-line-down 11 -> 11, 1 - P = 8.5e-6 with
    # cond(Id - S) = 1.2e6: the law's dense dual solve is farther from the
    # 60-digit path sum than a dense forward solve (9.0e-14 against 0 here),
    # but within cond * eps of it; the visits' return map, solved forward,
    # is no farther than the dense forward solve
    walk = fixtures.example_half_line(0.75, 20)
    series = capture_series(walk, "11", "11")
    S, E, C, _ = dense_series(walk, "11", "11", series.interior)
    exact = _mp_path_sum(walk, "11", "11", S, E, C)
    cond = np.linalg.cond(np.eye(S.shape[0]) - S)
    bound = cond * np.finfo(float).eps * max(1.0, float(np.abs(exact).max()))
    assert np.abs(oqw.taboo_operator(walk, "11", "11").matrix - exact).max() <= bound
    forward = _dense_path_sum(walk, "11", "11", S, E, C)
    assert np.abs(hitting._return_map(series)[0] - exact).max() <= np.abs(forward - exact).max()


def test_near_singular_domain_visits_match_the_exact_occupation():
    # visits to "0" before leaving "0".."10" on half-line-down: counts near 1e5,
    # where the occupation solve is about 2e-16 from a 60-digit solve of the same
    # float system (Id - K_DD) x = rho at i
    walk = fixtures.example_half_line(0.75, 20)
    domain = [str(k) for k in range(11)]
    inner = hitting._domain_sites(walk, domain)[1]
    blocks = hitting._exit_law(walk, inner, hitting._boundary(walk, inner))[0]
    A, lo = mpmath.matrix(np.asarray(blocks.A).tolist()), int(blocks.inner.starts[0])
    for i, near in (("10", 88573.5), ("8", 127939.5), ("3", 132840.0)):
        got = oqw.expected_domain_visits(walk, domain, i, [[1]], "0")
        rhs = blocks.inner.pack(oqw.DiagonalState({i: np.ones((1, 1))}))
        with mpmath.workdps(60):
            x = mpmath.lu_solve(A, mpmath.matrix(rhs.tolist()))
            exact = float(mpmath.re(x[lo] + x[lo + 3]))   # the trace of the 2 x 2 block at "0"
        assert exact == pytest.approx(near, rel=1e-6)
        assert abs(got - exact) <= 1e-14 * exact


def test_a_small_domain_count_at_its_start_does_not_cancel():
    # visits to "4" from "4" on random walk 17, whose all-sites domain traps "3":
    # about 0.006 of the mass returns, so the count is read from the first step,
    # not as a total occupation of about 1.006 less the visit at time 0
    walk = random_walk(17, substochastic=True)
    got = oqw.expected_domain_visits(walk, walk.sites, "4", MIX, "4")
    blocks = hitting._domain_blocks(walk, [0, 1, 2, 4], [])   # the untrapped sites
    A, lo = mpmath.matrix(np.asarray(blocks.A).tolist()), int(blocks.inner.starts[4])
    rhs = blocks.inner.pack(oqw.DiagonalState({"4": MIX}))
    with mpmath.workdps(60):
        x = mpmath.lu_solve(A, mpmath.matrix(rhs.tolist()))
        exact = float(mpmath.re(x[lo] + x[lo + 3]) - 1)
    assert exact == pytest.approx(0.006027, rel=1e-4)
    assert abs(got - exact) <= 1e-15 * exact


def test_a_domain_count_that_is_zero_is_not_negative():
    # "1" is reached only from "1" and "2", which nothing enters: from "4" the
    # count is 0 exactly, and the forward solve rounds its block's trace to -1.7e-16
    walk = random_walk(8, substochastic=False)
    assert ("1", "4") not in walk.transitions and not any(t == "2" for t, _ in walk.transitions)
    assert oqw.expected_domain_visits(walk, walk.sites, "4", [[1]], "1") == 0.0


def test_certified_series_never_compute_eigvals(monkeypatch, half_line_down):
    calls = count_eigvals(monkeypatch)
    walk = fixtures.example_lattice_nonnormal(10, "absorbing")
    op = oqw.taboo_operator(walk, "0", "0")
    assert op.diagnostics["radius_source"] == "certificate"
    assert op.diagnostics["radius_bound"] < 1.0 - DIVERGENCE_TOL
    res = oqw.expected_return_time(half_line_down, "0", E1, "0")
    assert res.diagnostics["method"] == "solve"
    assert calls == []


def test_diagnostics_name_the_radius_bound(trap_walk, half_line_up_taboo):
    for walk, i, j in [(trap_walk, "0", "0"), (half_line_up_taboo, "0", "0")]:
        for diag in (oqw.taboo_operator(walk, i, j).diagnostics,
                     oqw.expected_return_time(walk, i, E2, j).diagnostics):
            if diag["method"] == "passage_deficit":
                continue
            assert diag["radius_source"] == "certificate"
            assert 0.0 <= diag["radius_bound"]
            assert diag["residual"] >= 0.0
    res = oqw.expected_return_time(fixtures.example_half_line(0.75, 20), "0", MIX, "0")
    assert "fd_check" not in res.diagnostics


def test_kraus_blocks_are_cached_per_walk():
    sites, dims = ("0", "1"), {"0": 2, "1": 2}
    rot = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
    a = oqw.WalkSpec(sites, dims, {("1", "0"): np.eye(2), ("0", "1"): rot})
    b = oqw.WalkSpec(sites, dims, {("1", "0"): rot, ("0", "1"): np.eye(2)})
    ka = a.kraus("1", "0")
    assert a.kraus("1", "0") is ka
    assert not ka.flags.writeable
    kb = b.kraus("1", "0")
    assert np.array_equal(ka, np.kron(np.eye(2), np.eye(2)))
    assert np.array_equal(kb, np.kron(rot.conj(), rot))
    c = dataclasses.replace(a, transitions=b.transitions)
    assert c.kraus("1", "0") is not ka
    assert np.array_equal(c.kraus("1", "0"), kb)
    # operators built after both caches are warm still see their own blocks
    assert np.allclose(oqw.taboo_operator(a, "0", "1").matrix, ka)
    assert np.allclose(oqw.taboo_operator(b, "0", "1").matrix, kb)
