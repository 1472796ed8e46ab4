"""Command-line surface.

Every subcommand loads a walk (builtin fixture name, JSON file path, or
``-`` for stdin), runs one computation, and prints a JSON document (default)
or an aligned table.  Exit codes: 0 success, 1 input error, 2 numerical
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import fixtures, hitting, serialize
from .errors import InputError, NumericalError, OQWError
from .linalg import COMPLEX
from .walk import WalkSpec, validate_walk


def parse_rho(spec: str, dim: int) -> np.ndarray:
    """Parse a density-matrix argument.

    Grammar: ``diag:a,b,...`` | ``pure:v1,v2,...`` | ``mixed`` | file path.
    The result is normalized to unit trace (with a warning on stderr when
    that changes the input).
    """
    if spec == "mixed":
        return np.eye(dim, dtype=COMPLEX) / dim
    if spec.startswith("diag:"):
        vals = [float(x) for x in spec[5:].split(",")]
        if len(vals) != dim:
            raise InputError(f"diag spec has {len(vals)} entries, site dimension is {dim}")
        if min(vals) < 0:
            raise InputError("diagonal entries must be nonnegative")
        total = sum(vals)
        if total <= 0:
            raise InputError("state trace must be positive")
        if abs(total - 1.0) > 1e-9:
            print(f"warning: normalizing state trace {total} to 1", file=sys.stderr)
        return np.diag([v / total for v in vals]).astype(COMPLEX)
    if spec.startswith("pure:"):
        parts = spec[5:].split(",")
        vals = []
        for x in parts:
            if "j" in x or "i" in x:
                vals.append(complex(x.replace("i", "j")))
            else:
                vals.append(complex(float(x)))
        v = np.array(vals, dtype=COMPLEX)
        if v.shape[0] != dim:
            raise InputError(f"pure spec has {v.shape[0]} entries, site dimension is {dim}")
        norm = np.linalg.norm(v)
        if norm == 0:
            raise InputError("pure state vector must be nonzero")
        v = v / norm
        return np.outer(v, v.conj())
    try:
        with open(spec) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read state file {spec!r}: {exc}") from exc
    rho = serialize.matrix_from_json(data)
    if rho.shape != (dim, dim):
        raise InputError(f"state file has shape {rho.shape}, expected ({dim}, {dim})")
    t = float(np.trace(rho).real)
    if t <= 0:
        raise InputError("state trace must be positive")
    if abs(t - 1.0) > 1e-9:
        print(f"warning: normalizing state trace {t} to 1", file=sys.stderr)
    return rho / t


def load_walk(args) -> WalkSpec:
    name = args.walk
    if name in fixtures.FIXTURE_PARAMS:
        return fixtures.build_fixture(
            name, p=args.p, p2=args.p2, N=args.N, dim=args.dim,
            seed=getattr(args, "fixture_seed", None), boundary=args.boundary,
            tolerance=args.tol)
    if name == "-":
        data = json.load(sys.stdin)
    else:
        try:
            with open(name) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read walk {name!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"walk file {name!r} is not valid JSON: {exc}") from exc
    return serialize.walk_from_json(data)


def _emit(args, walk, payload, diagnostics=None) -> None:
    doc = serialize.result_document(walk, payload, diagnostics)
    if args.format == "json":
        print(json.dumps(doc, indent=2, default=_json_default))
    else:
        _print_table(doc)


def _json_default(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    if isinstance(x, np.ndarray):
        return serialize.matrix_to_json(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError(f"cannot serialize {type(x)}")


def _print_table(doc: dict, indent: str = "") -> None:
    for key, value in doc.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_table(value, indent + "  ")
        elif isinstance(value, list):
            print(f"{indent}{key}: {json.dumps(value, default=_json_default)}")
        else:
            print(f"{indent}{key}: {value}")


def _value_payload(value) -> dict:
    if isinstance(value, float) and math.isinf(value):
        return {"value": "inf"}
    return {"value": value}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqw",
        description="Hitting statistics, Dirichlet problems and harmonic "
                    "measures for open quantum walks.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--walk", required=True,
                        help="fixture name, walk JSON path, or - for stdin")
    common.add_argument("--p", type=float, default=None, help="fixture parameter p")
    common.add_argument("--p2", type=float, default=None, help="fixture parameter p2")
    common.add_argument("--N", type=int, default=None, help="fixture size / truncation")
    common.add_argument("--dim", type=int, default=None, help="fixture fiber dimension")
    common.add_argument("--fixture-seed", type=int, default=None,
                        help="seed of randomized fixtures")
    common.add_argument("--boundary", choices=("absorbing", "taboo"), default=None,
                        help="truncation handling for lattice fixtures")
    common.add_argument("--tol", type=float, default=1e-9, help="validation tolerance")
    common.add_argument("--format", choices=("json", "table"), default="json")

    pv = sub.add_parser("validate", parents=[common], help="check stochasticity")

    sub.add_parser("info", parents=[common],
                   help="irreducibility, invariant state, detailed balance, recurrence")

    ph = sub.add_parser("hit", parents=[common], help="passage probability")
    pvz = sub.add_parser("visits", parents=[common], help="expected visit count")
    prt = sub.add_parser("return-time", parents=[common], help="expected passage time")
    for p in (ph, pvz, prt):
        p.add_argument("--from", dest="src", required=True)
        p.add_argument("--to", dest="dst", required=True)
        p.add_argument("--rho", required=True)

    pe = sub.add_parser("exit", parents=[common], help="domain exit probability")
    pha = sub.add_parser("harmonic", parents=[common], help="harmonic measure")
    pdv = sub.add_parser("domain-visits", parents=[common],
                         help="expected visits before exiting a domain")
    for p in (pe, pha, pdv):
        p.add_argument("--domain", required=True, help="comma-separated site ids")
        p.add_argument("--from", dest="src", required=True)
        p.add_argument("--rho", required=True)
    pdv.add_argument("--to", dest="dst", required=True)

    pd = sub.add_parser("dirichlet", parents=[common], help="solve a Dirichlet problem")
    pd.add_argument("--problem", required=True,
                    help='JSON file {"domain": [...], "A": {site: matrix}, "B": {...}}')
    pd.add_argument("--method", choices=("closed-form", "variational", "global"),
                    default="closed-form",
                    help="closed-form: the finite-domain solve (one certified block "
                         "solve, compressed off the trapped part when the domain traps "
                         "mass); global: the same solve on the whole walk; "
                         "diagnostics.method names the path that ran: block_solve or "
                         "compressed")

    pf = sub.add_parser("dform", parents=[common],
                        help="Dirichlet energy and gradient identity")
    pf.add_argument("--observable", required=True,
                    help="JSON file {site: matrix} with Hermitian blocks")

    ps = sub.add_parser("simulate", parents=[common], help="Monte Carlo hitting estimates")
    ps.add_argument("--from", dest="src", required=True)
    ps.add_argument("--to", dest="dst", required=True)
    ps.add_argument("--rho", required=True)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--n-traj", type=int, default=1000)
    ps.add_argument("--horizon", type=int, default=100)
    ps.add_argument("--dump", default=None,
                    help="write sampled trajectories as JSON lines to this path")

    pk = sub.add_parser("kac", parents=[common], help="return-time law vs invariant mass")
    pk.add_argument("--site", required=True)
    pk.add_argument("--seed", type=int, default=0)
    pk.add_argument("--n-traj", type=int, default=1000)
    pk.add_argument("--k-max", type=int, default=500)

    px = sub.add_parser("fixtures", help="list or emit builtin walks")
    pxs = px.add_subparsers(dest="fixtures_command", required=True)
    pxs.add_parser("list")
    pxe = pxs.add_parser("emit", parents=[common])

    pa = sub.add_parser("acceptance", help="run the acceptance table")
    pa.add_argument("--only", default=None, help="substring filter on criterion names")
    pa.add_argument("--format", choices=("json", "table"), default="table")
    return parser


def _cmd_validate(args) -> int:
    walk = load_walk(args)
    report = validate_walk(walk)
    payload = {
        "value": "accepted" if report.accepted else "rejected",
        "residuals": {s: float(r) for s, r in report.residuals.items()},
        "max_residual": report.max_residual,
    }
    _emit(args, walk, payload, {"tolerance": report.tolerance})
    return 0 if report.accepted else 1


def _cmd_info(args) -> int:
    from .structure import classify_recurrence, decompose, is_irreducible
    from .superop import invariant_state
    from .walk import check_detailed_balance

    walk = load_walk(args)
    report = validate_walk(walk)
    irreducible, witness = is_irreducible(walk)
    tau, fixed_dim = invariant_state(walk)
    payload: dict = {
        "stochastic": report.accepted,
        "max_residual": report.max_residual,
        "irreducible": irreducible,
        "fixed_space_dim": fixed_dim,
    }
    if tau is not None:
        payload["invariant_site_masses"] = {
            s: float(np.trace(b).real) for s, b in tau.blocks.items()}
        try:
            balance = check_detailed_balance(walk, tau)
            payload["detailed_balance"] = {
                "sufficient_condition_holds": balance.sufficient_condition_holds,
                "selfadjoint_within_tol": balance.selfadjoint_within_tol,
            }
        except InputError:
            payload["detailed_balance"] = "invariant state not faithful"
    else:
        payload["invariant_site_masses"] = None
    if irreducible:
        verdict = classify_recurrence(walk, walk.sites[0], require_irreducible=False)
        payload["recurrence"] = serialize.verdict_to_json(verdict)
    else:
        deco = decompose(walk)
        payload["decomposition"] = serialize.decomposition_to_json(deco)
    _emit(args, walk, payload)
    return 0


def _cmd_hit(args) -> int:
    walk = load_walk(args)
    rho = parse_rho(args.rho, walk.dim(args.src))
    op = hitting.taboo_operator(walk, args.src, args.dst)
    p = hitting.passage_probability(walk, args.src, rho, args.dst)
    _emit(args, walk, _value_payload(p), op.diagnostics)
    return 0


def _cmd_visits(args) -> int:
    walk = load_walk(args)
    rho = parse_rho(args.rho, walk.dim(args.src))
    res = hitting.expected_visits(walk, args.src, rho, args.dst)
    _emit(args, walk, _value_payload(res.value), res.diagnostics)
    return 0


def _cmd_return_time(args) -> int:
    walk = load_walk(args)
    rho = parse_rho(args.rho, walk.dim(args.src))
    res = hitting.expected_return_time(walk, args.src, rho, args.dst)
    _emit(args, walk, _value_payload(res.value), res.diagnostics)
    return 0


def _split_domain(arg: str) -> list[str]:
    return [s.strip() for s in arg.split(",") if s.strip()]


def _cmd_exit(args) -> int:
    walk = load_walk(args)
    rho = parse_rho(args.rho, walk.dim(args.src))
    p = hitting.exit_probability(walk, _split_domain(args.domain), args.src, rho)
    _emit(args, walk, _value_payload(p))
    return 0


def _cmd_harmonic(args) -> int:
    walk = load_walk(args)
    rho = parse_rho(args.rho, walk.dim(args.src))
    hm = hitting.harmonic_measure(walk, _split_domain(args.domain), args.src, rho)
    payload = {
        "measure": {s: m for s, m in hm.masses.items()},
        "total_mass": hm.total_mass,
        "conditional_states": {s: serialize.matrix_to_json(m)
                               for s, m in hm.conditional_states.items()},
    }
    _emit(args, walk, payload)
    return 0


def _cmd_domain_visits(args) -> int:
    walk = load_walk(args)
    rho = parse_rho(args.rho, walk.dim(args.src))
    v = hitting.expected_domain_visits(walk, _split_domain(args.domain),
                                       args.src, rho, args.dst)
    _emit(args, walk, _value_payload(v))
    return 0


def _cmd_dirichlet(args) -> int:
    from .dirichlet import (DirichletProblem, solve_dirichlet_domain,
                            solve_dirichlet_global, variational_solve)
    from .superop import invariant_state

    walk = load_walk(args)
    with open(args.problem) as fh:
        data = json.load(fh)
    a = serialize.observable_from_json(data.get("A", {}))
    if args.method == "global":
        sol = solve_dirichlet_global(walk, a)
    else:
        problem = DirichletProblem.build(
            walk, data["domain"], a, serialize.observable_from_json(data.get("B", {})))
        if args.method == "variational":
            tau, _ = invariant_state(walk)
            if tau is None:
                raise InputError("variational method needs an invariant state")
            sol = variational_solve(walk, tau, problem).__dict__
            payload = {
                "solution": serialize.observable_to_json(sol["solution"]),
                "energy": sol["energy"],
                "coercivity": sol["coercivity"],
                "residuals": {s: float(r) for s, r in sol["residuals"].items()},
            }
            _emit(args, walk, payload, sol["diagnostics"])
            return 0
        sol = solve_dirichlet_domain(walk, problem)
    payload = {
        "solution": serialize.observable_to_json(sol.solution),
        "residuals": {s: float(r) for s, r in sol.residuals.items()},
        "uniqueness": sol.uniqueness_note,
    }
    _emit(args, walk, payload, {"method": sol.method})
    return 0


def _cmd_dform(args) -> int:
    from .dirichlet import dirichlet_energy, flat_state, gradient_form

    walk = load_walk(args)
    with open(args.observable) as fh:
        obs = serialize.observable_from_json(json.load(fh))
    payload: dict = {}
    try:
        grad = gradient_form(walk, obs)
        payload["half_gradient_norm"] = grad.energy
        payload["gradient_blocks"] = {
            f"{to}<-{fr}": serialize.matrix_to_json(g)
            for (to, fr), g in grad.blocks.items()}
    except InputError:
        grad = None
    payload["energy"] = dirichlet_energy(walk, flat_state(walk), obs)
    _emit(args, walk, payload)
    return 0


def _cmd_simulate(args) -> int:
    from .trajectory import estimate_hitting, sample_trajectory, trajectory_rng

    walk = load_walk(args)
    rho = parse_rho(args.rho, walk.dim(args.src))
    est = estimate_hitting(walk, args.src, rho, args.dst,
                           n_traj=args.n_traj, horizon=args.horizon, seed=args.seed)
    if args.dump:
        with open(args.dump, "w") as fh:
            for k in range(args.n_traj):
                rec = sample_trajectory(
                    walk, args.src, rho, args.horizon, stop={"hit": args.dst},
                    rng=trajectory_rng(args.seed, k), record_states=False)
                fh.write(json.dumps({
                    "sites": rec.sites, "stop_reason": rec.stop_reason,
                    "stopping_index": rec.stopping_index}) + "\n")
    payload = {
        "p_hit_by_horizon": est["p_hit_by_horizon"].estimate,
        "p_standard_error": est["p_hit_by_horizon"].standard_error,
        "censored_expected_time": est["censored_expected_time"].estimate,
        "time_standard_error": est["censored_expected_time"].standard_error,
        "censored_expected_visits": est["censored_expected_visits"].estimate,
        "censored_fraction": est["censored_fraction"],
    }
    _emit(args, walk, payload, {"seed": args.seed, "n_traj": args.n_traj,
                                "horizon": args.horizon})
    return 0


def _cmd_kac(args) -> int:
    from .trajectory import estimate_kac

    walk = load_walk(args)
    rep = estimate_kac(walk, args.site, n_traj=args.n_traj, k_max=args.k_max,
                       seed=args.seed)
    payload = {
        "empirical_return_ratio": rep.empirical.estimate,
        "standard_error": rep.empirical.standard_error,
        "analytic_target": rep.analytic_target,
        "within_three_sigma": rep.within_three_sigma,
        "n_censored": rep.n_censored,
        "restricted_to_enclosure": rep.restricted_to_enclosure,
    }
    _emit(args, walk, payload, rep.diagnostics)
    return 0


def _cmd_fixtures(args) -> int:
    if args.fixtures_command == "list":
        for name, params in sorted(fixtures.FIXTURE_PARAMS.items()):
            extra = f"  (params: {', '.join(params)})" if params else ""
            print(f"{name}{extra}")
        return 0
    walk = load_walk(args)
    print(json.dumps(serialize.walk_to_json(walk), indent=2))
    return 0


def _cmd_acceptance(args) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(only=args.only)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += 0 if res.passed else 1
        print(f"[{status}] {res.name}  ({res.elapsed:.2f}s)  {res.detail}")
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


_HANDLERS = {
    "validate": _cmd_validate,
    "info": _cmd_info,
    "hit": _cmd_hit,
    "visits": _cmd_visits,
    "return-time": _cmd_return_time,
    "exit": _cmd_exit,
    "harmonic": _cmd_harmonic,
    "domain-visits": _cmd_domain_visits,
    "dirichlet": _cmd_dirichlet,
    "dform": _cmd_dform,
    "simulate": _cmd_simulate,
    "kac": _cmd_kac,
    "fixtures": _cmd_fixtures,
    "acceptance": _cmd_acceptance,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        if exc.diagnostics:
            print(json.dumps({"diagnostics": {k: serialize.encode_value(v)
                                              for k, v in exc.diagnostics.items()}},
                             default=_json_default), file=sys.stderr)
        return 2
    except OQWError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
