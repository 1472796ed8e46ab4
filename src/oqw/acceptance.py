"""The acceptance table: one callable per criterion, with timing.

Each criterion rebuilds its fixtures from scratch, computes the stated
quantities at the stated tolerances, and reports a pass/fail line.  The
suite is runnable through ``oqw acceptance`` and is mirrored one-to-one by
``tests/test_acceptance.py``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import fixtures
from .dirichlet import (
    DirichletProblem,
    dirichlet_energy,
    flat_state,
    gradient_form,
    harmonic_operator,
    solve_dirichlet_domain,
    variational_solve,
)
from .hitting import (
    brute_force_path_sum,
    capture_series,
    expected_return_time,
    expected_visits,
    harmonic_measure,
    passage_probability,
    shanks_limit,
    taboo_operator,
)
from .linalg import spectral_radius, unvec, vec
from .structure import classify_recurrence
from .superop import invariant_state
from .trajectory import estimate_hitting, estimate_kac
from .walk import DiagonalObservable

E1 = np.diag([1.0, 0.0]).astype(complex)
E2 = np.diag([0.0, 1.0]).astype(complex)
MIX = np.eye(2, dtype=complex) / 2


@dataclass
class CheckResult:
    name: str
    passed: bool
    elapsed: float
    detail: str


class _Criterion:
    def __init__(self, name: str, budget: float):
        self.name = name
        self.budget = budget
        self.failures: list[str] = []
        self.notes: list[str] = []

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failures.append(f"{label}{f' [{detail}]' if detail else ''}")
        else:
            self.notes.append(label)

    def result(self, elapsed: float) -> CheckResult:
        within_budget = elapsed <= self.budget
        if not within_budget:
            self.failures.append(f"runtime {elapsed:.1f}s exceeds {self.budget:.0f}s")
        passed = not self.failures
        detail = "; ".join(self.failures) if self.failures else \
            f"{len(self.notes)} checks"
        return CheckResult(self.name, passed, elapsed, detail)


def _diag(r: float) -> np.ndarray:
    return np.diag([1 - r, r]).astype(complex)


def criterion_1_trap_walk() -> CheckResult:
    crit = _Criterion("1 exact hitting statistics (example-5.1)", budget=1.0)
    t0 = time.perf_counter()
    walk = fixtures.example_three_site_trap()
    for r in (0.0, 0.3, 1.0):
        p = passage_probability(walk, "0", _diag(r), "0")
        crit.check(f"passage r={r}", abs(p - (1 - r)) <= 1e-10, f"got {p}")
    t = expected_return_time(walk, "0", E1, "0").value
    crit.check("return time from e1", abs(t - 2.0) <= 1e-10, f"got {t}")
    v = expected_visits(walk, "0", E2, "0").value
    crit.check("visits from e2", v == 0.0, f"got {v}")
    v = expected_visits(walk, "0", E1, "0").value
    crit.check("visits from e1", math.isinf(v), f"got {v}")
    return crit.result(time.perf_counter() - t0)


def criterion_2_branch_walk() -> CheckResult:
    crit = _Criterion("2 passage law (1+r)/2 (example-5.4)", budget=1.0)
    t0 = time.perf_counter()
    walk = fixtures.example_branch_return()
    for r in (0.0, 0.5, 1.0):
        p = passage_probability(walk, "1", _diag(r), "0")
        crit.check(f"passage r={r}", abs(p - (1 + r) / 2) <= 1e-10, f"got {p}")
    dual = taboo_operator(walk, "1", "1").dual_identity()
    dev = float(np.abs(dual - np.diag([0.75, 1.0])).max())
    crit.check("return dual identity diag(3/4, 1)", dev <= 1e-10, f"dev {dev:.2e}")
    for label, rho in (("e1", E1), ("e2", E2), ("mixed", MIX),
                       ("diag(0.3,0.7)", np.diag([0.3, 0.7]).astype(complex))):
        v = expected_visits(walk, "1", rho, "0").value
        crit.check(f"visits {label} infinite", math.isinf(v), f"got {v}")
    return crit.result(time.perf_counter() - t0)


def criterion_3_half_line_return_times() -> CheckResult:
    # The asserted coefficient lambda = (8p^3-8p^2+6p-1)/(4p(2p-1)) = 19/12
    # at p = 3/4 is part of the acceptance table as stated.  The classical
    # reduction of this walk gives lambda = p/(2p-1) = 3/2 instead (exact
    # solve, path enumeration and Monte Carlo agree to machine precision),
    # so the r = 0 and r = 1/2 clauses fail by 2(1-r)/12.
    crit = _Criterion("3 return times at p=3/4 (example-5.2)", budget=10.0)
    t0 = time.perf_counter()
    lam = 19.0 / 12.0
    values = {}
    for n in (60, 120):
        walk = fixtures.example_half_line(0.75, n)
        for r in (0.0, 0.5, 1.0):
            values[(n, r)] = expected_return_time(walk, "0", _diag(r), "0").value
    for r in (0.0, 0.5, 1.0):
        got = values[(60, r)]
        want = r + 2 * lam * (1 - r)
        crit.check(f"return time r={r} equals {want:.6f}",
                   abs(got - want) <= 1e-3, f"got {got:.6f}")
    drift = max(abs(values[(60, r)] - values[(120, r)]) for r in (0.0, 0.5, 1.0))
    crit.check("doubling N changes < 1e-6", drift < 1e-6, f"drift {drift:.2e}")
    return crit.result(time.perf_counter() - t0)


def criterion_4_half_line_mixed_case() -> CheckResult:
    crit = _Criterion("4 mixed regime at p=1/4 (example-5.2)", budget=10.0)
    t0 = time.perf_counter()
    walk = fixtures.example_half_line(0.25, 40, boundary="taboo")
    p = passage_probability(walk, "0", E2, "0")
    crit.check("passage from e2 is 1", abs(p - 1.0) <= 1e-6, f"got {p}")
    t = expected_return_time(walk, "0", E2, "0").value
    crit.check("return time from e2 is 1", abs(t - 1.0) <= 1e-6, f"got {t}")
    p = passage_probability(walk, "0", MIX, "0")
    crit.check("passage from Id/2 deficient", p < 1 - 1e-3, f"got {p}")
    verdict = classify_recurrence(walk, "0")
    crit.check("verdict mixed", verdict.case == "mixed", verdict.case)
    if verdict.case == "mixed":
        crit.check("witness is |e2><e2|",
                   float(np.abs(verdict.witness_sure - E2).max()) <= 1e-8)
        crit.check("deficient witness is Id/2",
                   float(np.abs(verdict.witness_deficient - MIX).max()) <= 1e-12)
    return crit.result(time.perf_counter() - t0)


def criterion_5_nonnormal_lattice() -> CheckResult:
    crit = _Criterion("5 non-normal lattice recurrence (example-5.5)", budget=60.0)
    t0 = time.perf_counter()
    devs = {}
    for n in (10, 25, 50):
        walk = fixtures.example_lattice_nonnormal(n)
        dual = taboo_operator(walk, "0", "0").dual_identity()
        devs[n] = float(np.abs(dual - np.eye(2)).max())
    crit.check("window-50 dual identity within 2e-2", devs[50] <= 2e-2,
               f"dev {devs[50]:.4f}")
    crit.check("improves monotonically with the window",
               devs[10] > devs[25] > devs[50],
               f"{devs[10]:.4f} > {devs[25]:.4f} > {devs[50]:.4f}")
    walk = fixtures.example_lattice_nonnormal(50)
    est = estimate_hitting(walk, "0", MIX, "0", n_traj=10_000, horizon=10_000,
                           seed=11, track_visits=False)
    p = est["p_hit_by_horizon"].estimate
    crit.check("Monte Carlo return by 1e4 steps >= 0.97", p >= 0.97, f"got {p:.4f}")
    return crit.result(time.perf_counter() - t0)


def criterion_6_classical_reduction() -> CheckResult:
    crit = _Criterion("6 classical reduction (gamblers-ruin)", budget=1.0)
    t0 = time.perf_counter()
    walk = fixtures.gamblers_ruin(11, 0.5)
    one = np.array([[1.0]], dtype=complex)
    domain = [str(k) for k in range(1, 10)]
    worst = 0.0
    for i in range(1, 10):
        hm = harmonic_measure(walk, domain, str(i), one)
        worst = max(worst, abs(hm.mass("10") - i / 10), abs(hm.mass("0") - (1 - i / 10)))
    crit.check("masses equal (i/10, 1-i/10)", worst <= 1e-10, f"worst {worst:.2e}")
    problem = DirichletProblem.build(
        walk, domain, None, DiagonalObservable({"10": one}))
    sol = solve_dirichlet_domain(walk, problem)
    worst = max(abs(sol.solution.blocks[str(i)][0, 0].real - i / 10)
                for i in range(1, 10))
    crit.check("solution is i/10", worst <= 1e-10, f"worst {worst:.2e}")
    return crit.result(time.perf_counter() - t0)


def criterion_7_dirichlet_consistency() -> CheckResult:
    crit = _Criterion("7 Dirichlet consistency (random-doubly-stochastic)", budget=5.0)
    t0 = time.perf_counter()
    walk = fixtures.random_doubly_stochastic(3, 2, seed=7)
    rng = np.random.default_rng(2024)
    domain = ["0", "1"]
    bnd = ("2",)

    def rand_herm() -> np.ndarray:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return 0.5 * (m + m.conj().T)

    problem = DirichletProblem.build(
        walk, domain,
        DiagonalObservable({s: rand_herm() for s in domain}),
        DiagonalObservable({s: rand_herm() for s in bnd}))
    closed = solve_dirichlet_domain(walk, problem)
    tau, _ = invariant_state(walk)
    var = variational_solve(walk, tau, problem)
    gap = max(float(np.abs(closed.solution.blocks[s] - var.solution.blocks[s]).max())
              for s in closed.solution.blocks)
    crit.check("methods agree within 1e-7", gap <= 1e-7, f"gap {gap:.2e}")
    resid = max(closed.max_residual, max(var.residuals.values()))
    crit.check("residual below 1e-8", resid <= 1e-8, f"resid {resid:.2e}")
    total = {s: np.zeros((2, 2), dtype=complex) for s in list(domain) + list(bnd)}
    for j in bnd:
        op = harmonic_operator(walk, domain, j)
        for s in total:
            if s in op.blocks:
                total[s] = total[s] + op.blocks[s]
    part = max(float(np.abs(total[s] - np.eye(2)).max()) for s in total)
    crit.check("harmonic operators sum to identity", part <= 1e-8, f"defect {part:.2e}")
    return crit.result(time.perf_counter() - t0)


def criterion_8_gradient_identity() -> CheckResult:
    crit = _Criterion("8 gradient identity (random-doubly-stochastic)", budget=5.0)
    t0 = time.perf_counter()
    walk = fixtures.random_doubly_stochastic(3, 2, seed=7)
    flat = flat_state(walk)
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(20):
        blocks = {}
        for s in walk.sites:
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            blocks[s] = 0.5 * (m + m.conj().T)
        x = DiagonalObservable(blocks)
        worst = max(worst, abs(dirichlet_energy(walk, flat, x)
                               - gradient_form(walk, x).energy))
    crit.check("identity within 1e-10 on 20 samples", worst <= 1e-10,
               f"worst {worst:.2e}")
    return crit.result(time.perf_counter() - t0)


def criterion_9_kac_formula() -> CheckResult:
    crit = _Criterion("9 return-time law vs invariant mass (example-5.4)", budget=60.0)
    t0 = time.perf_counter()
    walk = fixtures.example_branch_return()
    rep = estimate_kac(walk, "1", n_traj=1000, k_max=2000, seed=5)
    gap = abs(rep.empirical.estimate - rep.analytic_target)
    crit.check("empirical matches within three standard errors",
               gap <= 3 * rep.empirical.standard_error + 1e-9,
               f"{rep.empirical.estimate:.6f} vs {rep.analytic_target:.6f}")
    crit.check("no censored trajectories", rep.n_censored == 0,
               f"{rep.n_censored} censored")
    return crit.result(time.perf_counter() - t0)


def criterion_10_oracle_equivalence() -> CheckResult:
    crit = _Criterion("10 enumeration and Monte Carlo oracles", budget=60.0)
    t0 = time.perf_counter()
    trap = fixtures.example_three_site_trap()
    branch = fixtures.example_branch_return()
    chain = fixtures.example_half_line(0.25, 5, boundary="taboo")
    pairs = [
        ("trap 0->0", trap, "0", MIX, "0"),
        ("branch 1->1", branch, "1", MIX, "1"),
        ("branch 1->0", branch, "1", MIX, "0"),
        ("chain 0->0", chain, "0", MIX, "0"),
    ]
    for label, walk, i, rho, j in pairs:
        radius = spectral_radius(capture_series(walk, i, j).S)
        if radius >= 0.9:
            continue  # the criterion conditions on spectral radius < 0.9
        exact = passage_probability(walk, i, rho, j)
        sums = brute_force_path_sum(walk, i, rho, j, max_len=16).partial_sums
        extrapolated = shanks_limit(sums)
        crit.check(f"{label} enumeration (radius {radius:.2f})",
                   abs(exact - extrapolated) <= 1e-9,
                   f"gap {abs(exact - extrapolated):.2e}")
    mc_cases = [
        ("trap", trap, "0", np.diag([0.7, 0.3]).astype(complex), "0", 12),
        ("branch", branch, "1", MIX, "0", 30),
        ("down-drift chain", fixtures.example_half_line(0.75, 30), "0", E1, "0", 60),
    ]
    for label, walk, i, rho, j, horizon in mc_cases:
        terms = capture_series(walk, i, j).length_terms(horizon)
        dj = walk.dims[j]
        exact = sum(float(np.trace(unvec(m @ vec(rho), dj)).real) for m in terms)
        n = 20_000
        est = estimate_hitting(walk, i, rho, j, n_traj=n, horizon=horizon,
                               seed=101, track_visits=False)
        p = est["p_hit_by_horizon"]
        # binomial standard error under the exact law (nondegenerate at p=1)
        se0 = math.sqrt(max(exact * (1 - exact), 0.0) / n)
        gap = abs(p.estimate - exact)
        crit.check(f"{label} Monte Carlo", gap <= 3 * se0 + 1e-9,
                   f"{p.estimate:.6f} vs exact {exact:.6f}")
    return crit.result(time.perf_counter() - t0)


CRITERIA = (
    ("1 exact hitting statistics (example-5.1)", criterion_1_trap_walk),
    ("2 passage law (1+r)/2 (example-5.4)", criterion_2_branch_walk),
    ("3 return times at p=3/4 (example-5.2)", criterion_3_half_line_return_times),
    ("4 mixed regime at p=1/4 (example-5.2)", criterion_4_half_line_mixed_case),
    ("5 non-normal lattice recurrence (example-5.5)", criterion_5_nonnormal_lattice),
    ("6 classical reduction (gamblers-ruin)", criterion_6_classical_reduction),
    ("7 Dirichlet consistency (random-doubly-stochastic)", criterion_7_dirichlet_consistency),
    ("8 gradient identity (random-doubly-stochastic)", criterion_8_gradient_identity),
    ("9 return-time law vs invariant mass (example-5.4)", criterion_9_kac_formula),
    ("10 enumeration and Monte Carlo oracles", criterion_10_oracle_equivalence),
)


def run_acceptance(only: str | None = None) -> list[CheckResult]:
    return [fn() for name, fn in CRITERIA if only is None or only in name]
