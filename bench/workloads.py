"""The four benchmark workloads, their seeded inputs and reference answers.

Every workload turns the seed into its inputs (states, Dirichlet data,
sampler seeds) in ``build`` and lists its fixed queries in ``queries``.  A
query's ``run`` calls the public ``oqw`` API and returns its answer; its
``check`` compares that answer with a reference that does not come from the
solver under test: a closed form, or a dense solve or propagation written
here from the walk's transition blocks.  References are computed in
``queries``, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oqw
import oqw.cli
from oqw import dirichlet, fixtures, hitting, structure, superop, trajectory
from oqw.walk import DiagonalObservable

REL_TOL = 1e-8          # exact solvers against closed forms and dense references
VARIATIONAL_TOL = 1e-7  # variational solve against the dense reference
MC_SIGMAS = 5.0         # Monte Carlo estimates against exact laws


@dataclass
class Query:
    kind: str                        # operation group the timing is summed into
    label: str
    size: dict
    run: Callable[[], object]
    check: Callable[[object], str | None]   # None when the answer matches
    traj_steps: Callable[[object], int] | None = None


def _density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _herm(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (m + m.conj().T)


def _expect_close(label: str, got, want, tol: float = REL_TOL) -> str | None:
    got = np.asarray(got)
    want = np.asarray(want)
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    gap = float(np.abs(got - want).max(initial=0.0)) / scale
    return None if gap <= tol else f"{label}: relative gap {gap:.3e} > {tol:.0e}"


def _first_failure(*messages) -> str | None:
    return next((m for m in messages if m), None)


def _cli(argv: list[str]) -> dict:
    """Run ``oqw`` in process and parse its JSON document.

    ``cli.main`` rebinds ``hitting.ALPHA_GRID`` when ``--alpha-grid`` is
    passed and never restores it, so the benchmark never passes that flag
    and checks after every call that the grid is unchanged.
    """
    grid = hitting.ALPHA_GRID
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = oqw.cli.main(argv)
    if hitting.ALPHA_GRID is not grid:
        hitting.ALPHA_GRID = grid
        raise RuntimeError("oqw.cli.main changed hitting.ALPHA_GRID")
    if code != 0:
        raise RuntimeError(f"oqw {argv[0]} exited {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# independent references


def _dual_block(L: np.ndarray) -> np.ndarray:
    """Matrix of ``Z -> L† Z L`` on column-major vectorized blocks."""
    return np.kron(L.T, L.conj().T)


def reference_dirichlet(walk, domain, a_blocks: dict, b_blocks: dict) -> dict:
    """Dense solve of ``Z_i - sum_t L[t,i]† Z_t L[t,i] = A_i`` on the domain
    with ``Z = B`` off it, assembled from the transition blocks."""
    dims = walk.dims
    offsets, total = {}, 0
    for s in domain:
        offsets[s] = total
        total += dims[s] ** 2
    m = np.eye(total, dtype=complex)
    rhs = np.zeros(total, dtype=complex)
    for s in domain:
        d = dims[s]
        if s in a_blocks:
            rhs[offsets[s]:offsets[s] + d * d] += a_blocks[s].reshape(-1, order="F")
    for (to, fr), L in walk.transitions.items():
        if fr not in offsets:
            continue
        r0, r1 = offsets[fr], offsets[fr] + dims[fr] ** 2
        blk = _dual_block(np.asarray(L))
        if to in offsets:
            c0, c1 = offsets[to], offsets[to] + dims[to] ** 2
            m[r0:r1, c0:c1] -= blk
        elif to in b_blocks:
            rhs[r0:r1] += blk @ b_blocks[to].reshape(-1, order="F")
    z = np.linalg.solve(m, rhs)
    out = {s: z[offsets[s]:offsets[s] + dims[s] ** 2].reshape(dims[s], dims[s], order="F")
           for s in domain}
    out.update({s: b for s, b in b_blocks.items()})
    return out


def reference_mass_by_horizon(walk, i, rho, j, horizon: int) -> float:
    """Probability of reaching j within ``horizon`` steps from (i, rho), by
    propagating the sub-normalized state with j made absorbing-and-removed."""
    sites = list(walk.sites)
    index = {s: k for k, s in enumerate(sites)}
    d = walk.dims[sites[0]]
    if any(walk.dims[s] != d for s in sites):
        raise ValueError("reference propagation needs equal fiber dimensions")
    keys = list(walk.transitions)
    to_idx = np.array([index[t] for t, _ in keys])
    fr_idx = np.array([index[f] for _, f in keys])
    ls = np.stack([np.asarray(walk.transitions[k]) for k in keys])
    ls_h = ls.conj().transpose(0, 2, 1)
    state = np.zeros((len(sites), d, d), dtype=complex)
    state[index[i]] = rho
    j_idx = index[j]
    mass = 0.0
    for _ in range(horizon):
        moved = ls @ state[fr_idx] @ ls_h
        state = np.zeros_like(state)
        np.add.at(state, to_idx, moved)
        mass += float(np.trace(state[j_idx]).real)
        state[j_idx] = 0.0
    return mass


# ---------------------------------------------------------------------------
# exact-lattice: one large capture series per query


LATTICE_WINDOWS = (40, 80, 120)
HALF_LINE_SIZES = (250, 500)
HALF_LINE_STATES = 3
CLI_HIT_N = 80
CLI_RETURN_N = 250


def build_exact_lattice(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    data = {
        "windows": {n: fixtures.example_lattice_nonnormal(n, "absorbing")
                    for n in LATTICE_WINDOWS},
        "window_states": {n: (_density(rng, 2), _density(rng, 2)) for n in LATTICE_WINDOWS},
        "half_lines": {n: fixtures.example_half_line(0.75, n) for n in HALF_LINE_SIZES},
        "half_line_states": [_density(rng, 2) for _ in range(HALF_LINE_STATES)],
        "cli_pure": rng.normal(size=2) + 1j * rng.normal(size=2),
        "cli_diag": float(rng.uniform(0.05, 0.95)),
    }
    return data


def queries_exact_lattice(data: dict) -> list[Query]:
    out = []
    for n, walk in data["windows"].items():
        rho_p, rho_v = data["window_states"][n]
        p_ref = n / (n + 1)
        size = {"N": n, "unknowns": 8 * n}
        out.append(Query(
            "passage", f"passage_probability window N={n}", size,
            lambda w=walk, r=rho_p: hitting.passage_probability(w, "0", r, "0"),
            lambda got, ref=p_ref: _expect_close("passage", got, ref)))
        out.append(Query(
            "passage", f"taboo_operator(0,0).dual_identity window N={n}", size,
            lambda w=walk: hitting.taboo_operator(w, "0", "0").dual_identity(),
            lambda got, ref=p_ref: _expect_close("dual identity", got, ref * np.eye(2))))
        out.append(Query(
            "visits", f"expected_visits window N={n}", size,
            lambda w=walk, r=rho_v: hitting.expected_visits(w, "0", r, "0").value,
            lambda got, ref=float(n): _expect_close("visits", got, ref)))
    sizes = list(data["half_lines"])
    for k, rho in enumerate(data["half_line_states"]):
        n = sizes[k % len(sizes)]
        walk = data["half_lines"][n]
        ref = 3.0 * rho[0, 0].real + rho[1, 1].real
        out.append(Query(
            "return_time", f"expected_return_time half-line p=3/4 N={n} state {k}",
            {"N": n, "unknowns": n},
            lambda w=walk, r=rho: hitting.expected_return_time(w, "0", r, "0").value,
            lambda got, ref=ref: _expect_close("return time", got, ref)))
    v = data["cli_pure"]
    v = v / np.linalg.norm(v)
    pure = "pure:" + ",".join(f"{float(c.real)!r}{float(c.imag):+.17g}j" for c in v)
    out.append(Query(
        "cli", f"oqw hit window N={CLI_HIT_N}", {"N": CLI_HIT_N},
        lambda: _cli(["hit", "--walk", "example-5.5-nonnormal", "--N", str(CLI_HIT_N),
                      "--from", "0", "--to", "0", "--rho", pure])["value"],
        lambda got: _expect_close("cli hit", got, CLI_HIT_N / (CLI_HIT_N + 1))))
    a = data["cli_diag"]
    out.append(Query(
        "cli", f"oqw return-time half-line N={CLI_RETURN_N}", {"N": CLI_RETURN_N},
        lambda: _cli(["return-time", "--walk", "example-5.2", "--p", "0.75",
                      "--N", str(CLI_RETURN_N), "--from", "0", "--to", "0",
                      "--rho", f"diag:{a!r},{1.0 - a!r}"])["value"],
        lambda got: _expect_close("cli return time", got, 3.0 * a + (1.0 - a))))
    return out


# ---------------------------------------------------------------------------
# domain-dirichlet: hundreds of small systems


RUIN_SIZES = (15, 21)
RDS_SITES = 10
RDS_DIM = 2
CLASSIFY_N = 30
CLI_HARMONIC_N = 21
CLI_INFO_N = 8


def build_domain_dirichlet(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    one = np.ones((1, 1), dtype=complex)
    ruins = {}
    for n in RUIN_SIZES:
        walk = fixtures.gamblers_ruin(n, 0.5)
        domain = [str(k) for k in range(1, n - 1)]
        a = {s: rng.normal() * one for s in domain}
        b = {"0": rng.normal() * one, str(n - 1): rng.normal() * one}
        problem = dirichlet.DirichletProblem.build(
            walk, domain, DiagonalObservable(a), DiagonalObservable(b))
        ruins[n] = {"walk": walk, "domain": domain, "a": a, "b": b, "problem": problem,
                    "exit_from": str(int(rng.integers(1, n - 1)))}
    rds_seed = int(rng.integers(0, 2**31))
    rds = fixtures.random_doubly_stochastic(RDS_SITES, RDS_DIM, seed=rds_seed)
    domain = [str(k) for k in range(RDS_SITES - 2)]
    bnd = [str(RDS_SITES - 2), str(RDS_SITES - 1)]
    a = {s: _herm(rng, RDS_DIM) for s in domain}
    b = {s: _herm(rng, RDS_DIM) for s in bnd}
    rds_problem = dirichlet.DirichletProblem.build(
        rds, domain, DiagonalObservable(a), DiagonalObservable(b))
    data = {
        "ruins": ruins,
        "rds": {"walk": rds, "seed": rds_seed, "domain": domain, "a": a, "b": b,
                "problem": rds_problem},
        "half_line": fixtures.example_half_line(0.25, CLASSIFY_N, boundary="taboo"),
        "cli_harmonic_from": int(rng.integers(1, CLI_HARMONIC_N - 1)),
        "cli_info_seed": int(rng.integers(0, 2**31)),
    }
    return data


def _solution_blocks(sol) -> dict:
    return {s: np.array(b) for s, b in sol.solution.blocks.items()}


def _check_blocks(label: str, got: dict, want: dict, tol: float = REL_TOL) -> str | None:
    if set(got) != set(want):
        return f"{label}: solution sites {sorted(got)} != {sorted(want)}"
    return _first_failure(*(_expect_close(f"{label} at {s}", got[s], want[s], tol)
                            for s in want))


def queries_domain_dirichlet(data: dict) -> list[Query]:
    one = np.ones((1, 1), dtype=complex)
    out = []
    for n, r in data["ruins"].items():
        walk, domain = r["walk"], r["domain"]
        top = str(n - 1)
        size = {"n": n, "domain": len(domain)}

        def harmonic_all(w=walk, D=domain, top=top):
            return [(hm.mass(top), hm.mass("0"))
                    for hm in (hitting.harmonic_measure(w, D, i, one) for i in D)]

        want = [(k / (n - 1), 1.0 - k / (n - 1)) for k in range(1, n - 1)]
        out.append(Query(
            "harmonic", f"harmonic_measure from every interior site, ruin n={n}", size,
            harmonic_all, lambda got, ref=want: _expect_close("harmonic masses", got, ref)))
        out.append(Query(
            "harmonic", f"exit_probability from {r['exit_from']}, ruin n={n}", size,
            lambda w=walk, D=domain, i=r["exit_from"]: hitting.exit_probability(w, D, i, one),
            lambda got: _expect_close("exit probability", got, 1.0)))
        want_op = {s: np.array([[int(s) / (n - 1)]]) for s in domain}
        want_op[top] = one
        out.append(Query(
            "harmonic", f"harmonic_operator at {top}, ruin n={n}", size,
            lambda w=walk, D=domain, j=top: {
                s: np.array(b) for s, b in dirichlet.harmonic_operator(w, D, j).blocks.items()},
            lambda got, ref=want_op: _check_blocks("harmonic operator", got, ref)))
        ref = reference_dirichlet(walk, domain, r["a"], r["b"])
        out.append(Query(
            "dirichlet", f"solve_dirichlet_domain, ruin n={n}", size,
            lambda w=walk, p=r["problem"]: _solution_blocks(dirichlet.solve_dirichlet_domain(w, p)),
            lambda got, ref=ref: _check_blocks("closed-form Dirichlet", got, ref)))
    rds = data["rds"]
    walk = rds["walk"]
    size = {"N": RDS_SITES, "dim": RDS_DIM, "domain": len(rds["domain"]),
            "fixture_seed": rds["seed"]}
    ref = reference_dirichlet(walk, rds["domain"], rds["a"], rds["b"])
    out.append(Query(
        "dirichlet", f"solve_dirichlet_domain, random-doubly-stochastic N={RDS_SITES}", size,
        lambda w=walk, p=rds["problem"]: _solution_blocks(dirichlet.solve_dirichlet_domain(w, p)),
        lambda got, ref=ref: _check_blocks("closed-form Dirichlet", got, ref)))
    flat = np.eye(RDS_DIM) / (RDS_SITES * RDS_DIM)

    def variational(w=walk, p=rds["problem"]):
        tau, _ = superop.invariant_state(w)
        sol = dirichlet.variational_solve(w, tau, p)
        return {"tau": {s: np.array(b) for s, b in tau.blocks.items()},
                "solution": _solution_blocks(sol)}

    out.append(Query(
        "variational", f"invariant_state + variational_solve, random-doubly-stochastic "
                       f"N={RDS_SITES}", size, variational,
        lambda got, ref=ref: _first_failure(
            _check_blocks("invariant state", got["tau"],
                          {s: flat for s in walk.sites}),
            _check_blocks("variational Dirichlet", got["solution"], ref, VARIATIONAL_TOL))))
    e1, e2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])

    def classify(w=data["half_line"]):
        v = structure.classify_recurrence(w, "0")
        return {"case": v.case, "sure": v.witness_sure, "deficient": v.witness_deficient}

    out.append(Query(
        "classify", f"classify_recurrence half-line p=1/4 N={CLASSIFY_N} taboo",
        {"N": CLASSIFY_N}, classify,
        lambda got: (f"verdict {got['case']!r}, expected 'mixed'" if got["case"] != "mixed"
                     else _first_failure(_expect_close("sure witness", got["sure"], e2),
                                         _expect_close("deficient witness",
                                                       got["deficient"], np.eye(2) / 2)))))
    k, top = data["cli_harmonic_from"], str(CLI_HARMONIC_N - 1)
    dom = ",".join(str(s) for s in range(1, CLI_HARMONIC_N - 1))
    hm_ref = [1.0 - k / (CLI_HARMONIC_N - 1), k / (CLI_HARMONIC_N - 1)]
    out.append(Query(
        "cli", f"oqw harmonic ruin n={CLI_HARMONIC_N} from {k}", {"n": CLI_HARMONIC_N},
        lambda: _cli(["harmonic", "--walk", "gamblers-ruin", "--N", str(CLI_HARMONIC_N),
                      "--domain", dom, "--from", str(k), "--rho", "mixed"])["measure"],
        lambda got: _expect_close("cli harmonic", [got["0"], got[top]], hm_ref)))
    fseed = data["cli_info_seed"]

    def info():
        doc = _cli(["info", "--walk", "random-doubly-stochastic", "--N", str(CLI_INFO_N),
                    "--dim", "2", "--fixture-seed", str(fseed)])
        return {"irreducible": doc["irreducible"], "case": doc["recurrence"]["case"],
                "masses": [doc["invariant_site_masses"][str(s)] for s in range(CLI_INFO_N)]}

    out.append(Query(
        "cli", f"oqw info random-doubly-stochastic N={CLI_INFO_N}",
        {"N": CLI_INFO_N, "fixture_seed": fseed}, info,
        lambda got: ("walk reported reducible" if not got["irreducible"]
                     else f"verdict {got['case']!r}, expected 'recurrent'"
                     if got["case"] != "recurrent"
                     else _expect_close("invariant masses", got["masses"],
                                        [1.0 / CLI_INFO_N] * CLI_INFO_N))))
    return out


# ---------------------------------------------------------------------------
# mc-lattice: narrow, decaying live set spread over many sites


# Criterion 5's window, ensemble size (split over MC_LATTICE_CALLS seeded
# calls) and mixed state, with a short horizon: the cost of a narrow live set
# depends on a few long-lived walkers, so a long horizon makes the work vary
# from seed to seed.
MC_LATTICE_N = 50
MC_LATTICE_CALLS = 2
MC_LATTICE_TRAJ = 5000
MC_LATTICE_HORIZON = 300


def build_mc_lattice(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    return {"walk": fixtures.example_lattice_nonnormal(MC_LATTICE_N, "absorbing"),
            "rho": np.eye(2, dtype=complex) / 2,
            "sampler_seeds": [int(x) for x in rng.integers(0, 2**31, MC_LATTICE_CALLS)]}


def queries_mc_lattice(d: dict) -> list[Query]:
    n, h = MC_LATTICE_TRAJ, MC_LATTICE_HORIZON
    exact = reference_mass_by_horizon(d["walk"], "0", d["rho"], "0", h)
    se = (max(exact * (1.0 - exact), 0.0) / n) ** 0.5

    def check(got):
        gap = abs(got["p"] - exact)
        return None if gap <= MC_SIGMAS * se + 1e-12 else \
            f"p {got['p']:.6f} vs exact {exact:.6f}: {gap / se:.1f} standard errors"

    out = []
    for seed in d["sampler_seeds"]:
        def run(w=d["walk"], r=d["rho"], s=seed):
            est = trajectory.estimate_hitting(w, "0", r, "0", n_traj=n, horizon=h, seed=s,
                                              track_visits=False)
            return {"p": est["p_hit_by_horizon"].estimate,
                    "mean_time": est["censored_expected_time"].estimate,
                    "renormalized": est["renormalized_steps"]}

        out.append(Query(
            "sample", f"estimate_hitting window N={MC_LATTICE_N} n_traj={n} horizon={h} "
                      f"seed={seed}",
            {"N": MC_LATTICE_N, "n_traj": n, "horizon": h, "sampler_seed": seed},
            run, check, traj_steps=lambda got: round(got["mean_time"] * n)))
    return out


# ---------------------------------------------------------------------------
# mc-kac: wide, fully live set on few sites


# Criterion 9's ensemble and return count (k_max = 2000), split over
# KAC_CALLS seeded calls of KAC_K returns each.
KAC_CALLS = 4
KAC_TRAJ = 1000
KAC_K = 500
KAC_TARGET = 2.0   # 1 / invariant mass of example-5.4 at site "1"


def build_mc_kac(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    return {"walk": fixtures.example_branch_return(),
            "sampler_seeds": [int(x) for x in rng.integers(0, 2**31, KAC_CALLS)]}


def queries_mc_kac(d: dict) -> list[Query]:

    def check(got):
        if got["censored"]:
            return f"{got['censored']} censored trajectories"
        if abs(got["target"] - KAC_TARGET) > 1e-9:
            return f"analytic target {got['target']} != {KAC_TARGET}"
        gap = abs(got["estimate"] - got["target"])
        if gap > MC_SIGMAS * got["se"] + 1e-9:
            return f"estimate {got['estimate']:.6f} vs {got['target']}: gap {gap:.3e}"
        return None

    def steps(got):
        return round(got["estimate"] * KAC_K * got["n"]) + got["censored"] * got["max_steps"]

    out = []
    for seed in d["sampler_seeds"]:
        def run(w=d["walk"], s=seed):
            rep = trajectory.estimate_kac(w, "1", n_traj=KAC_TRAJ, k_max=KAC_K, seed=s)
            return {"estimate": rep.empirical.estimate, "se": rep.empirical.standard_error,
                    "n": rep.empirical.n_samples, "target": rep.analytic_target,
                    "censored": rep.n_censored, "max_steps": rep.diagnostics["max_steps"]}

        out.append(Query(
            "sample", f"estimate_kac example-5.4 site 1 n_traj={KAC_TRAJ} k_max={KAC_K} "
                      f"seed={seed}",
            {"n_traj": KAC_TRAJ, "k_max": KAC_K, "sampler_seed": seed}, run, check,
            traj_steps=steps))
    return out


WORKLOADS = {
    "exact-lattice": (build_exact_lattice, queries_exact_lattice),
    "domain-dirichlet": (build_domain_dirichlet, queries_domain_dirichlet),
    "mc-lattice": (build_mc_lattice, queries_mc_lattice),
    "mc-kac": (build_mc_kac, queries_mc_kac),
}
