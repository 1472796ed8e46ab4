"""Command-line surface.

Every subcommand runs through one pipeline: load the walk (builtin fixture
name, JSON file path, or ``-`` for stdin), resolve the ``--from`` site and
parse the ``--rho`` state where the subcommand takes them, run one
computation, and print a JSON document (default) or an aligned table.  Exit
codes: 0 success, 1 input error (reported as an ``error:`` line), 2
numerical error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import fixtures, hitting, serialize
from .errors import InputError, NumericalError, OQWError
from .linalg import COMPLEX, is_hermitian
from .walk import DEFAULT_TOLERANCE, WalkSpec, _check_blocks, _known_sites, validate_walk


def _read_json(path: str, what: str, obj: bool = True):
    """The one reader of JSON inputs: the walk (``-``: stdin), ``--rho``, ``--problem``
    and ``--observable`` files; ``obj``: the document must be a JSON object."""
    try:
        if path == "-" and what == "walk":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} {path!r} is not valid JSON: {exc}") from exc
    return _object(data, f"{what} {path!r}") if obj else data


def _object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise InputError(f"{what} is not a JSON object")
    return data


def parse_rho(spec: str, dim: int) -> np.ndarray:
    """Parse a density-matrix argument.

    Grammar: ``diag:a,b,...`` | ``pure:v1,v2,...`` | ``mixed`` | file path.
    A pure vector is normalized; diagonal and file states are normalized to
    unit trace (with a warning on stderr when that changes the input).
    """
    if spec == "mixed":
        return np.eye(dim, dtype=COMPLEX) / dim
    kind, _, entries = spec.partition(":")
    if kind in ("diag", "pure"):
        try:
            vals = [float(x) if kind == "diag" else complex(x.replace("i", "j"))
                    for x in entries.split(",")]
        except ValueError as exc:
            raise InputError(f"{kind} spec has a malformed entry: {exc}") from exc
        if len(vals) != dim:
            raise InputError(f"{kind} spec has {len(vals)} entries, site dimension is {dim}")
        if kind == "pure":
            v = np.array(vals, dtype=COMPLEX)
            norm = np.linalg.norm(v)
            if norm == 0:
                raise InputError("pure state vector must be nonzero")
            v = v / norm
            return np.outer(v, v.conj())
        if min(vals) < 0:
            raise InputError("diagonal entries must be nonnegative")
        rho = np.diag(vals)
    else:
        rho = serialize.matrix_from_json(_read_json(spec, "state file", obj=False))
        if rho.shape != (dim, dim):
            raise InputError(f"state file has shape {rho.shape}, expected ({dim}, {dim})")
    t = float(np.trace(rho).real)
    if t <= 0:
        raise InputError("state trace must be positive")
    if abs(t - 1.0) > 1e-9:
        print(f"warning: normalizing state trace {t} to 1", file=sys.stderr)
    return (rho / t).astype(COMPLEX)


def load_walk(args) -> WalkSpec:
    if args.walk in fixtures.FIXTURE_PARAMS:
        return fixtures.build_fixture(
            args.walk, p=args.p, p2=args.p2, N=args.N, dim=args.dim,
            seed=getattr(args, "fixture_seed", None), boundary=args.boundary,
            tolerance=args.tol)
    return serialize.walk_from_json(_read_json(args.walk, "walk"))


def _json_default(x):
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


@functools.cache  # parse_args keeps no state: every action has an immutable default
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
    common.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                        help="validation tolerance")
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


# Each subcommand maps (args, walk, rho) to (payload, diagnostics, exit code);
# rho is the parsed --rho state at the --from site, None without one.


def _cmd_validate(args, walk, rho):
    report = validate_walk(walk)
    return {
        "value": "accepted" if report.accepted else "rejected",
        "residuals": {s: float(r) for s, r in report.residuals.items()},
        "max_residual": report.max_residual,
    }, {"tolerance": report.tolerance}, 0 if report.accepted else 1


def _cmd_info(args, walk, rho):
    from .dirichlet import check_detailed_balance
    from .structure import _irreducibility, classify_recurrence, decompose

    report = validate_walk(walk)
    deco = decompose(walk)
    irreducible, _, decision = _irreducibility(walk)
    tau = deco.invariant
    payload: dict = {
        "stochastic": report.accepted,
        "max_residual": report.max_residual,
        "irreducible": irreducible,
        "irreducible_decision": decision,
        "fixed_space_dim": deco.fixed_dim,
        "invariant_site_masses": None,
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
    if irreducible:
        verdict = classify_recurrence(walk, walk.sites[0], require_irreducible=False)
        payload["recurrence"] = serialize.verdict_to_json(verdict)
    else:
        payload["decomposition"] = serialize.decomposition_to_json(deco)
    return payload, None, 0


def _cmd_hit(args, walk, rho):
    _, first, _, _, p = hitting._first_passage(walk, args.src, rho, args.dst)
    return {"value": p}, first.diagnostics, 0


def _cmd_visits(args, walk, rho):
    res = hitting.expected_visits(walk, args.src, rho, args.dst)
    return {"value": res.value}, res.diagnostics, 0


def _cmd_return_time(args, walk, rho):
    res = hitting.expected_return_time(walk, args.src, rho, args.dst)
    return {"value": res.value}, res.diagnostics, 0


def _split_domain(arg: str) -> list[str]:
    return [s.strip() for s in arg.split(",") if s.strip()]


def _cmd_exit(args, walk, rho):
    p = hitting.exit_probability(walk, _split_domain(args.domain), args.src, rho)
    return {"value": p}, None, 0


def _cmd_harmonic(args, walk, rho):
    hm = hitting.harmonic_measure(walk, _split_domain(args.domain), args.src, rho)
    return {
        "measure": {s: m for s, m in hm.masses.items()},
        "total_mass": hm.total_mass,
        "conditional_states": {s: serialize.matrix_to_json(m)
                               for s, m in hm.conditional_states.items()},
    }, None, 0


def _cmd_domain_visits(args, walk, rho):
    v = hitting.expected_domain_visits(walk, _split_domain(args.domain),
                                       args.src, rho, args.dst)
    return {"value": v}, None, 0


def _cmd_dirichlet(args, walk, rho):
    from .dirichlet import (DirichletProblem, solve_dirichlet_domain,
                            solve_dirichlet_global, variational_solve)
    from .superop import invariant_state

    data = _read_json(args.problem, "problem file")
    a = serialize.observable_from_json(_object(data.get("A", {}), "problem data 'A'"))
    if args.method == "global":
        sol = solve_dirichlet_global(walk, a)
    else:
        if not isinstance(data.get("domain"), list):
            raise InputError(f"problem file {args.problem!r} has no \"domain\" list")
        b = serialize.observable_from_json(_object(data.get("B", {}), "problem data 'B'"))
        problem = DirichletProblem.build(walk, data["domain"], a, b)
        if args.method == "variational":
            tau, _ = invariant_state(walk)
            if tau is None:
                raise InputError("variational method needs an invariant state")
            var = variational_solve(walk, tau, problem)
            return {
                "solution": serialize.observable_to_json(var.solution),
                "energy": var.energy,
                "coercivity": var.coercivity,
                "residuals": {s: float(r) for s, r in var.residuals.items()},
            }, var.diagnostics, 0
        sol = solve_dirichlet_domain(walk, problem)
    return {
        "solution": serialize.observable_to_json(sol.solution),
        "residuals": {s: float(r) for s, r in sol.residuals.items()},
        "uniqueness": sol.uniqueness_note,
    }, {"method": sol.method}, 0


def _cmd_dform(args, walk, rho):
    from .dirichlet import dirichlet_energy, flat_state, gradient_form

    obs = serialize.observable_from_json(_read_json(args.observable, "observable file"))
    _check_blocks(walk, obs, "observable")
    for s, b in obs.blocks.items():
        if not is_hermitian(b, max(walk.tolerance, 1e-9)):
            raise InputError(f"observable block at {s!r} is not Hermitian")
    payload: dict = {}
    try:
        grad = gradient_form(walk, obs)
        payload["half_gradient_norm"] = grad.energy
        payload["gradient_blocks"] = {
            f"{to}<-{fr}": serialize.matrix_to_json(g)
            for (to, fr), g in grad.blocks.items()}
    except InputError:
        pass
    payload["energy"] = dirichlet_energy(walk, flat_state(walk), obs)
    return payload, None, 0


def _cmd_simulate(args, walk, rho):
    from .trajectory import _hitting_paths, estimate_hitting

    est = estimate_hitting(walk, args.src, rho, args.dst,
                           n_traj=args.n_traj, horizon=args.horizon, seed=args.seed)
    if args.dump:
        with open(args.dump, "w") as fh:
            for sites, reason, index in _hitting_paths(walk, args.src, rho, args.dst,
                                                       args.n_traj, args.horizon, args.seed):
                fh.write(json.dumps({"sites": sites, "stop_reason": reason,
                                     "stopping_index": index}) + "\n")
    return {
        "p_hit_by_horizon": est["p_hit_by_horizon"].estimate,
        "p_standard_error": est["p_hit_by_horizon"].standard_error,
        "censored_expected_time": est["censored_expected_time"].estimate,
        "time_standard_error": est["censored_expected_time"].standard_error,
        "censored_expected_visits": est["censored_expected_visits"].estimate,
        "censored_fraction": est["censored_fraction"],
    }, {"seed": args.seed, "n_traj": args.n_traj, "horizon": args.horizon}, 0


def _cmd_kac(args, walk, rho):
    from .trajectory import estimate_kac

    rep = estimate_kac(walk, args.site, n_traj=args.n_traj, k_max=args.k_max,
                       seed=args.seed)
    return {
        "empirical_return_ratio": rep.empirical.estimate,
        "standard_error": rep.empirical.standard_error,
        "analytic_target": rep.analytic_target,
        "within_three_sigma": rep.within_three_sigma,
        "n_censored": rep.n_censored,
        "restricted_to_enclosure": rep.restricted_to_enclosure,
    }, rep.diagnostics, 0


_COMMANDS = {
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
}


def _run_acceptance(only) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(only=only)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}  ({res.elapsed:.2f}s)  "
              f"{res.detail}")
    passed = sum(res.passed for res in results)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


def _run(args) -> int:
    """Load the walk, resolve the start site and parse the state, run the subcommand,
    print its result document; ``acceptance`` and ``fixtures`` print none."""
    if args.command == "acceptance":
        return _run_acceptance(args.only)
    if args.command == "fixtures" and args.fixtures_command == "list":
        for name, params in sorted(fixtures.FIXTURE_PARAMS.items()):
            print(name + (f"  (params: {', '.join(params)})" if params else ""))
        return 0
    walk = load_walk(args)
    if args.command == "fixtures":
        print(json.dumps(serialize.walk_to_json(walk), indent=2))
        return 0
    rho = None
    if hasattr(args, "rho"):
        src, = _known_sites(walk, [args.src])
        rho = parse_rho(args.rho, walk.dims[src])
    payload, diagnostics, code = _COMMANDS[args.command](args, walk, rho)
    doc = serialize.result_document(walk, payload, diagnostics)
    if args.format == "json":
        print(json.dumps(doc, indent=2, default=_json_default))
    else:
        _print_table(doc)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _run(args)
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
