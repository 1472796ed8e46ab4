"""The sparse block core against the dense path it replaces above the size cut.

Every capture series and domain system is assembled from the walk's stacked
Kraus blocks; below ``hitting.SPARSE_MIN_UNKNOWNS`` unknowns it is a dense
array solved by LAPACK, from there on a CSC matrix factored once by scipy's
``splu``.  Moving the cut to 0 and to infinity sends every case through one
path or the other, and the answers must agree.  The cost guards check that
small workloads never import scipy and that a kept factor is not factored
again.
"""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oqw
from oqw import cli, dirichlet, fixtures, hitting, serialize, walk as walk_module
from oqw.hitting import capture_series
from oqw.walk import DEFAULT_TOLERANCE, DiagonalObservable

from conftest import random_density, random_hermitian
from test_block_domain import CERTIFIED, UNCERTIFIED
from test_certificate import _cases, _site_pairs, fixture_walks, random_walk

REL = 1e-12
DENSE, SPARSE = math.inf, 0


def all_walks():
    walks = dict(fixture_walks())
    walks.update({
        "rds6": fixtures.random_doubly_stochastic(6, 2, seed=4),
        "normal-lattice-absorbing": fixtures.example_lattice_normal(0.3, 0.7, 5, "absorbing"),
        "cycle": fixtures.cycle_dilation(5, 0.3),
        "window-40": fixtures.example_lattice_nonnormal(40, "absorbing"),
    })
    for seed in range(24):
        walks[f"random seed {seed}"] = random_walk(seed, substochastic=seed % 2 == 1)
    return walks


def outcome(fn):
    """The answer, or the name of the error it raised."""
    try:
        return fn()
    except oqw.OQWError as exc:
        return ("error", type(exc).__name__)


def assert_close(got, want, label):
    if isinstance(want, tuple) and want and want[0] == "error":
        assert got == want, label
    elif isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), label
        for k in want:
            assert_close(got[k], want[k], f"{label} [{k}]")
    elif isinstance(want, str):
        assert got == want, label
    elif isinstance(want, float) and math.isinf(want):
        assert got == want, label
    else:
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape, label
        scale = max(1.0, float(np.abs(want).max(initial=0.0)))
        assert float(np.abs(got - want).max(initial=0.0)) <= REL * scale, label


def fresh(walk):
    """The same walk with nothing kept, so a query under a new cut makes its own solves."""
    return oqw.WalkSpec(walk.sites, walk.dims, walk.transitions, walk.tolerance)


def under_cut(monkeypatch, cut, fn):
    monkeypatch.setattr(hitting, "SPARSE_MIN_UNKNOWNS", cut)
    try:
        return fn()
    finally:
        monkeypatch.undo()


def series_answers(walk, i, j):
    d = walk.dims[i]
    rho = np.eye(d) / d
    tabooed = [s for s in walk.sites if s not in (i, j)][:1]

    def operator(taboo):
        op = oqw.taboo_operator(walk, i, j, taboo)
        return {"matrix": op.matrix, "method": op.diagnostics["method"]}

    return {
        "first passage": outcome(lambda: operator(())),
        "taboo": outcome(lambda: operator(tabooed)),
        "return time": outcome(lambda: oqw.expected_return_time(walk, i, rho, j).value),
        "visits": outcome(lambda: oqw.expected_visits(walk, i, rho, j).value),
    }


def test_series_answers_agree_on_both_sides_of_the_cut(monkeypatch):
    """Every fixture and every walk of ``tests/test_certificate.py``'s cases."""
    methods = set()
    cases = [(name, walk, i, j) for name, walk in all_walks().items()
             for i, j in _site_pairs(walk)]
    for name, walk, i, j in cases:
        label = f"{name} {i}->{j}"
        dense = under_cut(monkeypatch, DENSE, lambda: series_answers(fresh(walk), i, j))
        sparse = under_cut(monkeypatch, SPARSE, lambda: series_answers(fresh(walk), i, j))
        assert_close(sparse, dense, label)
        first = dense["first passage"]
        methods.add(first[1] if isinstance(first, tuple) else first["method"])
    assert methods == {"solve", "compressed", "NumericalError"}


def domain_answers(walk, domain, rng):
    bnd = oqw.boundary(walk, domain)
    a = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in domain})
    b = DiagonalObservable({s: random_hermitian(rng, walk.dims[s]) for s in bnd})
    problem = oqw.DirichletProblem.build(walk, domain, a, b)
    boundary_only = oqw.DirichletProblem.build(walk, domain, None, b)
    out = {}
    for k, problem in enumerate((problem, boundary_only)):
        out[f"dirichlet {k}"] = outcome(lambda: {
            s: blk for s, blk in
            dirichlet.solve_dirichlet_domain(walk, problem).solution.blocks.items()})
    for i in domain:
        rho = random_density(rng, walk.dims[i])
        out[f"harmonic {i}"] = outcome(lambda: {
            "masses": oqw.harmonic_measure(walk, domain, i, rho).masses,
            "states": oqw.harmonic_measure(walk, domain, i, rho).conditional_states})
        out[f"exit {i}"] = outcome(lambda: oqw.exit_probability(walk, domain, i, rho))
        for j in domain:
            out[f"visits {i}->{j}"] = outcome(
                lambda: oqw.expected_domain_visits(walk, domain, i, rho, j))
    for j in bnd:
        out[f"harmonic operator {j}"] = outcome(
            lambda: dirichlet.harmonic_operator(walk, domain, j).blocks)
    return out


def test_domain_answers_agree_on_both_sides_of_the_cut(monkeypatch):
    walks = {"ring": fixtures.random_doubly_stochastic(3, 2, seed=7),
             "ruin": fixtures.gamblers_ruin(11, 0.5),
             "branch": fixtures.example_branch_return(),
             "trap": fixtures.example_three_site_trap(),
             "rds6": fixtures.random_doubly_stochastic(6, 2, seed=4)}
    cases = CERTIFIED + UNCERTIFIED + [("ruin", tuple(str(k) for k in range(11)))]
    methods = set()
    for name, domain in cases:
        walk = walks[name]
        if oqw.boundary(walk, domain):
            dense = under_cut(monkeypatch, DENSE, lambda: domain_answers(
                fresh(walk), domain, np.random.default_rng(5)))
            sparse = under_cut(monkeypatch, SPARSE, lambda: domain_answers(
                fresh(walk), domain, np.random.default_rng(5)))
            assert_close(sparse, dense, f"{name} {domain}")
        def plain_solve():
            blocks = hitting._domain_blocks(walk, hitting._domain_sites(walk, domain)[1], ())
            return hitting._domain_solve(blocks.A, np.ones((blocks.inner.total, 1)), blocks.inner)

        solves = [under_cut(monkeypatch, cut, plain_solve) for cut in (DENSE, SPARSE)]
        assert_close(solves[1].x, solves[0].x, f"{name} {domain} plain solve")
        assert solves[1].method == solves[0].method
        methods.add(solves[0].method)
    assert methods == {"block_solve", "compressed"}


def test_global_dirichlet_agrees_on_both_sides_of_the_cut(monkeypatch):
    walk = fixtures.example_half_line(0.25, 40, boundary="taboo")
    a = DiagonalObservable({s: np.eye(walk.dims[s]) for s in walk.sites[:5]})
    solve = lambda: dirichlet.solve_dirichlet_global(fresh(walk), a).solution.blocks  # noqa: E731
    dense = under_cut(monkeypatch, DENSE, solve)
    assert_close(under_cut(monkeypatch, SPARSE, solve), dense, "global Dirichlet")


def test_sparse_cut_selects_the_storage(monkeypatch):
    walk = fixtures.example_lattice_nonnormal(6, "absorbing")
    for cut, sparse in ((DENSE, False), (SPARSE, True)):
        series = under_cut(monkeypatch, cut, lambda: capture_series(fresh(walk), "0", "0"))
        assert isinstance(series.A, np.ndarray) is not sparse
        assert isinstance(series.S, np.ndarray) is not sparse
    series = capture_series(fixtures.example_lattice_nonnormal(20, "absorbing"), "0", "0")
    assert series.A.shape[0] >= hitting.SPARSE_MIN_UNKNOWNS
    assert not isinstance(series.A, np.ndarray)


@pytest.mark.parametrize("cut", [DENSE, SPARSE])
def test_alpha_operator_matches_the_dense_weighted_series(monkeypatch, cut):
    """``matrix(alpha)`` solves ``((1 - alpha) Id + alpha A) R = E`` with the
    stored system; the reference is ``alpha L + alpha^2 C (Id - alpha S)^{-1} E``
    with a dense ``S``."""
    monkeypatch.setattr(hitting, "SPARSE_MIN_UNKNOWNS", cut)
    checked = 0
    for name, walk, i, j in _cases():
        series = capture_series(walk, i, j)
        S = series.S if isinstance(series.S, np.ndarray) else series.S.toarray()
        for alpha in (0.3, 0.9, 0.999):
            want = np.zeros((walk.dims[j] ** 2, walk.dims[i] ** 2), dtype=complex)
            if series.direct is not None:
                want += alpha * walk.kraus(series.target, series.source)
            if S.shape[0]:
                want += alpha ** 2 * (series.C @ np.linalg.solve(
                    np.eye(S.shape[0]) - alpha * S, series.E))
            assert_close(series.matrix(alpha), want, f"{name} {i}->{j} alpha {alpha}")
            checked += 1
    assert checked > 1000


def test_stacked_kraus_blocks_equal_kron_on_every_fixture():
    for name, walk in all_walks().items():
        stacked = sum(len(keys) for keys, _ in walk.kraus_stack())
        assert stacked == len(walk.transitions), name
        for (to, fr), L in walk.transitions.items():
            assert np.array_equal(walk.kraus(to, fr), np.kron(L.conj(), L)), (name, to, fr)


def test_block_matrix_scatters_the_kraus_blocks(monkeypatch):
    from oqw.walk import BlockIndex, block_matrix

    for name, walk in all_walks().items():
        rows = BlockIndex.at(walk, range(0, len(walk.sites), 2))
        cols = BlockIndex.at(walk, range(1, len(walk.sites)))
        dense = block_matrix(walk, rows, cols)
        assert np.array_equal(block_matrix(walk, rows, cols, sparse=True).toarray(), dense)
        want = np.zeros_like(dense)
        for (to, fr), L in walk.transitions.items():
            r0, c0 = rows.starts[walk._index[to]], cols.starts[walk._index[fr]]
            if r0 >= 0 and c0 >= 0:
                want[r0:r0 + L.shape[0] ** 2, c0:c0 + L.shape[1] ** 2] = np.kron(L.conj(), L)
        assert np.array_equal(dense, want), name


def test_passage_on_a_window_of_sixteen_thousand_unknowns():
    n = 2000
    walk = fixtures.example_lattice_nonnormal(n, "absorbing")
    series = capture_series(walk, "0", "0")
    assert series.A.shape[0] == 16_000
    assert series.diagnostics["method"] == "solve"
    p = oqw.passage_probability(walk, "0", np.eye(2) / 2, "0")
    assert abs(p - n / (n + 1)) <= 1e-10


def test_small_workloads_never_import_scipy():
    src = Path(oqw.__file__).resolve().parents[1]
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import oqw",
        "from oqw import fixtures, hitting, trajectory",
        "walk = fixtures.gamblers_ruin(21)",
        "domain = [str(k) for k in range(1, 20)]",
        "hm = hitting.harmonic_measure(walk, domain, '7', np.ones((1, 1)))",
        "assert abs(hm.mass('20') - 7 / 20) < 1e-12",
        "rep = trajectory.estimate_kac(fixtures.example_branch_return(), '1', n_traj=200,",
        "                              k_max=20, seed=3)",
        "assert rep.n_censored == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_return_time_factors_its_system_once(monkeypatch):
    import scipy.sparse.linalg as spla

    calls = []
    real = spla.splu

    def counting(A, *args, **kwargs):
        calls.append(A.shape[0])
        return real(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    walk = fixtures.example_half_line(0.75, 500)
    e1 = np.diag([1.0, 0.0]).astype(complex)
    res = oqw.expected_return_time(walk, "0", e1, "0")
    assert res.diagnostics["method"] == "solve"
    assert res.value == pytest.approx(3.0, rel=1e-10)
    assert len(calls) == 1 and calls[0] >= hitting.SPARSE_MIN_UNKNOWNS


def test_doubly_stochastic_verdict_has_one_owner():
    walk = fixtures.cycle_dilation(3, 0.5, tolerance=1e-12)
    key = next(iter(walk.transitions))
    trans = dict(walk.transitions)
    trans[key] = trans[key] + 5e-10
    bent = oqw.WalkSpec(walk.sites, walk.dims, trans, walk.tolerance)
    assert walk_module.is_doubly_stochastic(walk)
    assert not walk_module.is_doubly_stochastic(bent)
    x = DiagonalObservable({s: np.eye(1) * k for k, s in enumerate(walk.sites)})
    dirichlet.gradient_form(walk, x)
    with pytest.raises(oqw.InputError, match="not doubly stochastic"):
        dirichlet.gradient_form(bent, x)


def test_default_tolerance_is_read_from_one_constant():
    builders = [f for name, f in vars(fixtures).items()
                if callable(f) and getattr(f, "__module__", None) == fixtures.__name__
                and "tolerance" in inspect.signature(f).parameters]
    assert len(builders) >= 9
    for f in builders:
        default = inspect.signature(f).parameters["tolerance"].default
        assert default is inspect.Parameter.empty or default is DEFAULT_TOLERANCE, f.__name__
    doc = serialize.walk_to_json(fixtures.example_branch_return())
    del doc["tolerance"]
    assert serialize.walk_from_json(doc).tolerance == DEFAULT_TOLERANCE
    assert cli.build_parser().parse_args(["info", "--walk", "example-5.4"]).tol \
        == DEFAULT_TOLERANCE
