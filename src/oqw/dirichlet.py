"""Dirichlet problems, harmonic measure operators, forms and gradients.

The domain problem ``(Id - dual step)(Z) = A on D, Z = B on the boundary``
is one block system: with ``K_DD`` the one-step map inside ``D`` and
``K_{bnd,D}`` the step from ``D`` onto its boundary,
``(Id - K_DD^dag) z = vec(A) + K_{bnd,D}^dag vec(B)``, solved once and
certified convergent by the same solve.  A domain that fails the
certificate traps mass in an invariant part T that never exits; the solve
then runs on the compression to the complement of T (see
``hitting._domain_solve``), and interior data on a site with a trapped
direction is reported as a divergent visit operator.  The whole-space
problem is the same solve with every site in the domain and no boundary.
Under detailed balance the problem is also solved variationally, as the
stationarity system of the energy functional.  All of these restrict the
solution to ``D`` plus its boundary (the free part outside is set to zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .hitting import DomainSolve, _domain_blocks, _domain_solve
from .hitting import boundary as domain_boundary
from .linalg import COMPLEX, herm, psd_sqrt
from .walk import (
    DiagonalObservable,
    DiagonalState,
    Site,
    WalkSpec,
    _site_id,
    doubly_stochastic_defect,
    dual_apply,
    identity_observable,
)


@dataclass
class DirichletProblem:
    """Interior data A on D and boundary data B on the boundary of D."""

    domain: tuple[Site, ...]
    interior_data: DiagonalObservable
    boundary_data: DiagonalObservable

    @classmethod
    def build(cls, walk: WalkSpec, domain, interior_data=None, boundary_data=None):
        D = tuple(_site_id(s) for s in domain)
        bnd = domain_boundary(walk, D)
        if not bnd:
            raise InputError("domain has empty boundary")
        a = interior_data or DiagonalObservable({})
        b = boundary_data or DiagonalObservable({})
        bad = set(a.blocks) - set(D)
        if bad:
            raise InputError(f"interior data supported outside the domain: {sorted(bad)}")
        bad = set(b.blocks) - set(bnd)
        if bad:
            raise InputError(f"boundary data supported off the boundary: {sorted(bad)}")
        return cls(D, a, b)


@dataclass
class DirichletSolution:
    solution: DiagonalObservable       # supported on D and its boundary
    residuals: dict[Site, float]       # per interior site
    boundary_sites: tuple[Site, ...]
    method: str                        # "block_solve" or "compressed"
    uniqueness_note: str

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)


def _residuals(walk: WalkSpec, z: DiagonalObservable, a: DiagonalObservable,
               domain) -> dict[Site, float]:
    stepped = dual_apply(walk, z)
    out = {}
    for s in domain:
        d = walk.dims[s]
        r = z.block(s, d) - stepped.block(s, d) - a.block(s, d)
        out[s] = float(np.linalg.norm(r, 2))
    return out


UNIQUENESS_NOTE = ("unique up to an operator supported outside the domain "
                   "and its boundary; that part is set to zero here")


def solve_dirichlet_domain(walk: WalkSpec, problem: DirichletProblem) -> DirichletSolution:
    """Solution on a finite domain by one certified block solve.

    ``z = (Id - K_DD^dag)^{-1} (vec(A) + K_{bnd,D}^dag vec(B))`` on D with the
    boundary condition imposed exactly; ``method`` is ``"block_solve"``, or
    ``"compressed"`` when the domain traps mass and the solve ran on the
    complement of the trapped part.  Interior data on a site with a trapped
    direction has a divergent visit operator: :class:`NumericalError`.
    """
    D = problem.domain
    bnd = domain_boundary(walk, D)
    a, b = problem.interior_data, problem.boundary_data
    solved, solve = _dual_block_solve(walk, D, bnd, a, b)
    _reject_trapped_data(walk, a, solve, "domain visit operator diverges at {site!r}; "
                         "the walk is not irreducible on this domain (try decompose())")
    blocks = {j: b.block(j, walk.dims[j]).copy() for j in bnd}
    for i in D:
        blocks[i] = solved[i]
    z = DiagonalObservable(blocks)
    return DirichletSolution(
        solution=z, residuals=_residuals(walk, z, a, D), boundary_sites=bnd,
        method=solve.method, uniqueness_note=UNIQUENESS_NOTE)


def _dual_block_solve(walk: WalkSpec, domain, bnd, a: DiagonalObservable,
                      b: DiagonalObservable) -> tuple[dict[Site, np.ndarray], DomainSolve]:
    """Hermitian blocks on the domain of
    ``(Id - K_DD^dag)^{-1} (vec(a) + K_{bnd,D}^dag vec(b))`` and the solve
    that gave them; on a trapping domain the blocks are exact only where
    ``a`` vanishes on every trapped site."""
    blocks = _domain_blocks(walk, domain, bnd)
    rhs = blocks.inner.pack(a) + blocks.K_out.conj().T @ blocks.outer.pack(b)
    solve = _domain_solve(blocks.A, rhs[:, None], blocks.inner.dims(walk), dual=True)
    return ({s: herm(blk) for s, blk in blocks.inner.unpack(walk, solve.x[:, 0]).items()},
            solve)


def _reject_trapped_data(walk: WalkSpec, a: DiagonalObservable, solve: DomainSolve,
                         message: str) -> None:
    """NumericalError(``message`` formatted with the site) when ``a`` is
    nonzero on a site with a trapped direction."""
    for j in solve.trapped:
        if np.abs(a.block(j, walk.dims[j])).max(initial=0.0) != 0.0:
            raise NumericalError(message.format(site=j),
                                 {"site": j, "trapped_sites": list(solve.trapped)})


def solve_dirichlet_global(walk: WalkSpec, a: DiagonalObservable) -> DirichletSolution:
    """Whole-space problem ``(Id - dual step)(Z) = A`` for transient walks.

    One dual block solve with every site in the domain and no boundary.
    Requires every expected visit count where ``A`` is nonzero to be finite:
    data on a site with a trapped (recurrent) direction raises
    :class:`NumericalError`.  For stochastic families the representative is
    made traceless, fixing the additive multiple of the identity left free
    by uniqueness; substochastic truncations have a rigid solution that is
    returned as computed.
    """
    blocks, solve = _dual_block_solve(walk, walk.sites, (), a, DiagonalObservable({}))
    _reject_trapped_data(walk, a, solve, "walk is recurrent at site {site!r}; the global "
                         "Dirichlet problem is unsupported")
    # Traceless gauge: valid only when the identity is harmonic (stochastic
    # family); on substochastic truncations the solution is rigid.
    stepped_id = dual_apply(walk, identity_observable(walk))
    id_harmonic = all(
        float(np.abs(stepped_id.block(s, walk.dims[s])
                     - np.eye(walk.dims[s])).max(initial=0.0)) <= 1e-9
        for s in walk.sites)
    if id_harmonic:
        tr = sum(float(np.trace(b).real) for b in blocks.values())
        shift = tr / walk.total_dim
        blocks = {s: b - shift * np.eye(walk.dims[s], dtype=COMPLEX)
                  for s, b in blocks.items()}
        note = ("unique up to a multiple of the identity; traceless "
                f"representative returned (relative residual {solve.residual:.3e})")
    else:
        note = ("substochastic family: the identity is not harmonic and the "
                f"solution is rigid (relative residual {solve.residual:.3e})")
    z = DiagonalObservable(blocks)
    residuals = _residuals(walk, z, a, walk.sites)
    return DirichletSolution(
        solution=z, residuals=residuals, boundary_sites=(),
        method=solve.method, uniqueness_note=note)


def harmonic_operator(walk: WalkSpec, domain, j) -> DiagonalObservable:
    """Quantum harmonic-measure operator of a boundary site.

    Blocks are the duals of the exit operators on the domain plus the
    identity at j itself, from one dual block solve with ``vec(Id)`` at j;
    tracing against an initial state recovers the harmonic-measure mass at
    j, and the family over the boundary sums to the identity on the closed
    domain for irreducible walks.  Trapped directions never exit, so the
    blocks vanish on them.
    """
    D = tuple(_site_id(s) for s in domain)
    bnd = domain_boundary(walk, D)
    j = _site_id(j)
    if j not in bnd:
        raise InputError(f"site {j!r} is not on the domain boundary")
    blocks = {j: np.eye(walk.dims[j], dtype=COMPLEX)}
    solved, _ = _dual_block_solve(walk, D, bnd, DiagonalObservable({}),
                                  DiagonalObservable(blocks))
    for i in D:
        blocks[i] = solved[i]
    return DiagonalObservable(blocks)


# ---------------------------------------------------------------------------
# weighted inner product, forms, variational solver


def diamond_inner(tau: DiagonalState, x: DiagonalObservable, y: DiagonalObservable,
                  sites=None) -> complex:
    """Weighted inner product ``sum_i Tr(tau_i^{1/2} X_i† tau_i^{1/2} Y_i)``.

    ``tau`` must be faithful on every site it carries.
    """
    acc = 0.0 + 0.0j
    chosen = tau.blocks.keys() if sites is None else [_site_id(s) for s in sites]
    for s in chosen:
        root = _faithful_root(tau, s)
        xb = x.blocks.get(s)
        yb = y.blocks.get(s)
        if xb is None or yb is None:
            continue
        acc += np.trace(root @ xb.conj().T @ root @ yb)
    return complex(acc)


def _faithful_root(tau: DiagonalState, s: Site) -> np.ndarray:
    """``tau_s^{1/2}``; InputError unless the block is faithful."""
    b = tau.blocks[s]
    if np.linalg.eigvalsh(herm(b)).min() <= 1e-14:
        raise InputError(f"reference state is not faithful at site {s!r}")
    return psd_sqrt(b)


def dirichlet_form(walk: WalkSpec, tau: DiagonalState, x: DiagonalObservable,
                   y: DiagonalObservable) -> complex:
    """Form ``<X, (Id - dual step) Y>`` for the weighted inner product."""
    stepped = dual_apply(walk, y)
    diff = DiagonalObservable({s: y.block(s, walk.dims[s]) - stepped.block(s, walk.dims[s])
                               for s in walk.sites})
    return diamond_inner(tau, x, diff, sites=walk.sites)


def dirichlet_energy(walk: WalkSpec, tau: DiagonalState, x: DiagonalObservable) -> float:
    e = dirichlet_form(walk, tau, x, x)
    if abs(e.imag) > 1e-8 * max(1.0, abs(e.real)):
        raise NumericalError(f"energy has a nonreal value {e}; detailed balance "
                             "presumably fails")
    return float(e.real)


def flat_state(walk: WalkSpec) -> DiagonalState:
    """Maximally mixed normalized state Id / total dimension."""
    n = walk.total_dim
    return DiagonalState({s: np.eye(walk.dims[s], dtype=COMPLEX) / n for s in walk.sites})


@dataclass
class VariationalSolution:
    minimizer: DiagonalObservable        # X0, supported on D
    solution: DiagonalObservable         # B + X0 on D and boundary
    energy: float
    coercivity: float                    # smallest eigenvalue of the form matrix
    residuals: dict[Site, float]
    diagnostics: dict = field(default_factory=dict)


def variational_solve(walk: WalkSpec, tau: DiagonalState, problem: DirichletProblem,
                      check_balance: bool = True) -> VariationalSolution:
    """Solve the domain problem as the minimizer of the energy functional.

    Solves the stationarity system ``form(T, X) = <T, A - C>`` over Hermitian
    observables supported on the domain, where ``C = (Id - dual step)(B)``.
    Requires detailed balance (checked unless disabled) and coercivity of the
    form on the domain.
    """
    from .walk import check_detailed_balance

    if check_balance:
        rep = check_detailed_balance(walk, tau)
        if not rep.selfadjoint_within_tol:
            raise InputError(
                "detailed balance fails (selfadjointness residual "
                f"{rep.selfadjoint_residual:.3e}); the variational method does not apply")
    D = problem.domain
    bnd = domain_boundary(walk, D)
    a, b = problem.interior_data, problem.boundary_data

    # C = (Id - dual step)(B), computed once per problem
    stepped_b = dual_apply(walk, b)
    c = DiagonalObservable({s: b.block(s, walk.dims[s]) - stepped_b.block(s, walk.dims[s])
                            for s in walk.sites})
    target = DiagonalObservable({s: a.block(s, walk.dims[s]) - c.block(s, walk.dims[s])
                                 for s in D})
    idx, basis, gram, rhs = _stationarity_system(walk, tau, D, target)
    gram = 0.5 * (gram + gram.T)
    coercivity = float(np.linalg.eigvalsh(gram).min())
    if coercivity <= 1e-12:
        raise NumericalError("energy form is not coercive on the domain",
                             {"smallest_eigenvalue": coercivity})
    coeff = np.linalg.solve(gram, rhs)

    x0_blocks = idx.unpack(walk, basis @ coeff)
    x0 = DiagonalObservable(x0_blocks)
    z_blocks = {s: x0_blocks[s].copy() for s in D}
    for j in bnd:
        z_blocks[j] = b.block(j, walk.dims[j]).copy()
    z = DiagonalObservable(z_blocks)
    energy = 0.5 * dirichlet_form(walk, tau, x0, x0).real \
        + dirichlet_form(walk, tau, x0, b).real \
        - diamond_inner(tau, a, x0, sites=D).real
    return VariationalSolution(
        minimizer=x0, solution=z, energy=float(energy), coercivity=coercivity,
        residuals=_residuals(walk, z, a, D),
        diagnostics={"solver": "dense", "unknowns": len(coeff)})


def _stationarity_system(walk: WalkSpec, tau: DiagonalState, domain,
                         target: DiagonalObservable):
    """Index, Hermitian basis matrix ``B``, form matrix and right-hand side.

    With ``W = (+)_s kron(root_s^T, root_s)`` the weight of the inner product
    and ``K_DD`` the one-step map inside the domain, the form matrix is
    ``Re(B^H W (B - K_DD^dag B))`` and the right-hand side
    ``Re(B^H W vec(target))``; ``tau`` must be faithful on every site (checked
    domain first).
    """
    from .superop import BlockIndex, block_matrix, hermitian_basis_matrix, weight_matrix

    idx = BlockIndex.build(walk, domain)
    roots = {s: _faithful_root(tau, s)
             for s in (*idx.sites, *(s for s in walk.sites if s not in idx.offsets))}
    basis = hermitian_basis_matrix(walk, idx)
    WB = weight_matrix(idx, roots) @ basis
    step = block_matrix(walk, idx, idx).conj().T @ basis
    gram = (WB.conj().T @ (basis - step)).real
    rhs = (WB.conj().T @ idx.pack(target)).real
    return idx, basis, gram, rhs


# ---------------------------------------------------------------------------
# doubly stochastic walks: discrete gradients


@dataclass
class GradientForm:
    blocks: dict[tuple[Site, Site], np.ndarray]   # (i, j) -> X_i L[i,j] - L[i,j] X_j
    energy: float            # (1/2) sum ||grad||_F^2 / total dimension
    raw_half_norm: float     # (1/2) sum ||grad||_F^2, unnormalized


def gradient_form(walk: WalkSpec, x: DiagonalObservable) -> GradientForm:
    """Discrete gradient blocks ``X_i L[i,j] - L[i,j] X_j`` and their energy.

    Only defined for doubly stochastic walks (``L[i,j] = L[j,i]†`` checked).
    ``energy`` divides the half squared norm by the total internal dimension
    so that it coincides with the Dirichlet energy taken against the
    normalized flat invariant state.
    """
    defect, pair = doubly_stochastic_defect(walk)
    if defect > max(walk.tolerance, 1e-9):
        raise InputError(
            f"walk is not doubly stochastic: block pair {pair} violates "
            f"L[i,j] = L[j,i]† by {defect:.3e}")
    blocks = {}
    half = 0.0
    for (to, fr), L in walk.transitions.items():
        g = x.block(to, walk.dims[to]) @ L - L @ x.block(fr, walk.dims[fr])
        if np.abs(g).max(initial=0.0) > 0.0:
            blocks[(to, fr)] = g
        half += 0.5 * float(np.vdot(g, g).real)
    return GradientForm(blocks=blocks, energy=half / walk.total_dim, raw_half_norm=half)

