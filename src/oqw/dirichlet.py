"""Dirichlet problems, harmonic measure operators, forms and gradients.

The domain problem ``(Id - dual step)(Z) = A on D, Z = B on the boundary``
is one block system: with ``K_DD`` the one-step map inside ``D`` and
``K_{bnd,D}`` the step from ``D`` onto its boundary,
``(Id - K_DD^dag) z = vec(A) + K_{bnd,D}^dag vec(B)``.  One private solve reads
it from the domain's certified exit law ``X`` (``hitting._exit_law``; the walk
keeps it for the four domains built last) as ``X vec(B)`` plus the law's kept
factor applied to ``vec(A)``, held to the certificate's residual gate.  A
harmonic operator is that solve with ``B = Id`` at one boundary site, and the
whole-space problem is that solve on the all-sites domain, which has no
boundary.  A domain that fails the certificate traps mass in an invariant
part T that never exits; the law then comes from the compression to the
complement of T, and data on a site with a trapped direction is reported as
a divergent visit operator.  Under detailed balance the problem is also
solved variationally, as the stationarity system of the energy functional,
read like the detailed-balance residual from one block of the form per site
and per transition.  All of these restrict the solution to ``D`` plus its
boundary (the free part outside is set to zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError, ShapeError
from .hitting import DomainSolve, _boundary, _domain_sites, _exit_law
from .hitting import boundary as domain_boundary
from .linalg import COMPLEX, herm, hermitian_basis, psd_sqrt, unvec, vec
from .walk import (
    BlockIndex,
    DiagonalObservable,
    DiagonalState,
    Site,
    WalkSpec,
    _check_blocks,
    _site_id,
    doubly_stochastic_defect,
    dual_apply,
    is_doubly_stochastic,
    validate_walk,
)

FAITHFUL_TOL = 1e-12  # a reference block is faithful when its smallest eigenvalue exceeds this
BALANCE_TOL = 1e-8  # residual up to which detailed balance counts as holding
COERCIVITY_TOL = 1e-12  # smallest Gram eigenvalue up to which the energy form is not coercive


@dataclass
class DirichletProblem:
    """Interior data A on D and boundary data B on the boundary of D."""

    domain: tuple[Site, ...]
    interior_data: DiagonalObservable
    boundary_data: DiagonalObservable

    @classmethod
    def build(cls, walk: WalkSpec, domain, interior_data=None, boundary_data=None):
        D = tuple(dict.fromkeys(map(_site_id, domain)))   # each site once, first come first
        bnd = domain_boundary(walk, D)
        if not bnd:
            raise InputError("domain has empty boundary")
        a = interior_data or DiagonalObservable({})
        b = boundary_data or DiagonalObservable({})
        if bad := set(a.blocks) - set(D):
            raise InputError(f"interior data supported outside the domain: {sorted(bad)}")
        if bad := set(b.blocks) - set(bnd):
            raise InputError(f"boundary data supported off the boundary: {sorted(bad)}")
        _check_blocks(walk, a, "problem data 'A'")
        _check_blocks(walk, b, "problem data 'B'")
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
    """Spectral norm of ``z - dual step(z) - a`` per site, one batched SVD per block size."""
    stepped, dims = dual_apply(walk, z), walk.dims
    r = {s: z.block(s, dims[s]) - stepped.block(s, dims[s]) - a.block(s, dims[s]) for s in domain}
    out = {}
    for d in dict.fromkeys(dims[s] for s in r):
        sites = [s for s in r if dims[s] == d]
        out.update(zip(sites, np.linalg.norm(np.stack([r[s] for s in sites]), 2,
                                             axis=(1, 2)).tolist()))
    return {s: out[s] for s in r}


UNIQUENESS_NOTE = ("unique up to an operator supported outside the domain "
                   "and its boundary; that part is set to zero here")


def _solve(walk: WalkSpec, inner: list[int], outer: list[int], a: DiagonalObservable,
           b: DiagonalObservable, trapped_message: str = "") -> tuple[DomainSolve, dict]:
    """The one Dirichlet solve, ``z = X vec(B) + (Id - K_DD^dag)^{-1} vec(A)`` on the
    domain at positions ``inner`` with boundary ``outer``: the law and z's Hermitian
    blocks.  ``A`` nonzero on a site with a trapped direction has a divergent
    visit operator: NumericalError(``trapped_message`` formatted with the site)."""
    system, law = _exit_law(walk, inner, outer)
    for j in law.trapped:
        if np.abs(a.block(j, walk.dims[j])).max(initial=0.0) != 0.0:
            raise NumericalError(trapped_message.format(site=j),
                                 {"site": j, "trapped_sites": list(law.trapped)})
    z, interior = law.x @ system.outer.pack(b), system.inner.pack(a)
    if interior.any():
        z = z + law.resolve(interior)
    return law, {s: herm(blk) for s, blk in system.inner.unpack(z).items()}


def solve_dirichlet_domain(walk: WalkSpec, problem: DirichletProblem) -> DirichletSolution:
    """Solution on a finite domain from its certified exit law (:func:`_solve`),
    with the boundary condition imposed exactly.

    ``method`` is ``"block_solve"``, or ``"compressed"`` when the domain traps
    mass and the law ran on the complement of the trapped part.  Interior
    data on a site with a trapped direction has a divergent visit operator:
    :class:`NumericalError`.
    """
    D, a, b = problem.domain, problem.interior_data, problem.boundary_data
    inner = _domain_sites(walk, D)[1]
    outer = _boundary(walk, inner)
    law, solved = _solve(walk, inner, outer, a, b, "domain visit operator diverges at "
                         "{site!r}; the walk is not irreducible on this domain (try decompose())")
    bnd = tuple(map(walk.sites.__getitem__, outer))
    z = DiagonalObservable({j: b.block(j, walk.dims[j]) for j in bnd} | {i: solved[i] for i in D})
    return DirichletSolution(
        solution=z, residuals=_residuals(walk, z, a, D), boundary_sites=bnd,
        method=law.method, uniqueness_note=UNIQUENESS_NOTE)


def solve_dirichlet_global(walk: WalkSpec, a: DiagonalObservable) -> DirichletSolution:
    """Whole-space problem ``(Id - dual step)(Z) = A`` for transient walks.

    :func:`_solve` with every site in the domain and no boundary, on the walk's
    kept all-sites law.  Requires every expected visit count where ``A`` is
    nonzero to be finite: data on a site with a trapped (recurrent) direction
    raises :class:`NumericalError`.  For stochastic families the representative
    is made traceless, fixing the additive multiple of the identity left free
    by uniqueness; substochastic truncations have a rigid solution that is
    returned as computed.
    """
    _check_blocks(walk, a, "problem data 'A'")
    law, blocks = _solve(walk, list(range(len(walk.sites))), [], a, DiagonalObservable({}),
                         "walk is recurrent at site {site!r}; the global Dirichlet problem "
                         "is unsupported")
    # Traceless gauge: valid only when the identity is harmonic, i.e. the
    # family is stochastic to the walk's tolerance; on substochastic
    # truncations the solution is rigid.
    if validate_walk(walk).accepted:
        tr = sum(float(np.trace(b).real) for b in blocks.values())
        shift = tr / walk.total_dim
        blocks = {s: b - shift * np.eye(walk.dims[s], dtype=COMPLEX)
                  for s, b in blocks.items()}
        note = ("unique up to a multiple of the identity; traceless "
                f"representative returned (relative residual {law.residual:.3e})")
    else:
        note = ("substochastic family: the identity is not harmonic and the "
                f"solution is rigid (relative residual {law.residual:.3e})")
    z = DiagonalObservable(blocks)
    return DirichletSolution(
        solution=z, residuals=_residuals(walk, z, a, walk.sites), boundary_sites=(),
        method=law.method, uniqueness_note=note)


def harmonic_operator(walk: WalkSpec, domain, j) -> DiagonalObservable:
    """Quantum harmonic-measure operator of a boundary site.

    Blocks are the duals of the exit operators on the domain plus the
    identity at j itself: :func:`_solve` with ``B = Id`` at j and no ``A``;
    tracing against an initial state recovers the harmonic-measure mass at
    j, and the family over the boundary sums to the identity on the closed
    domain for irreducible walks.  Trapped directions never exit, so the
    blocks vanish on them.
    """
    D, inner = _domain_sites(walk, domain)
    outer, j = _boundary(walk, inner), _site_id(j)
    if walk._index.get(j) not in outer:
        raise InputError(f"site {j!r} is not on the domain boundary")
    eye = np.eye(walk.dims[j], dtype=COMPLEX)
    solved = _solve(walk, inner, outer, DiagonalObservable({}), DiagonalObservable({j: eye}))[1]
    return DiagonalObservable({j: eye, **{i: solved[i] for i in D}})


# ---------------------------------------------------------------------------
# weighted inner product, forms, variational solver


def diamond_inner(tau: DiagonalState, x: DiagonalObservable, y: DiagonalObservable,
                  sites=None) -> complex:
    """Weighted inner product ``sum_i Tr(tau_i^{1/2} X_i† tau_i^{1/2} Y_i)``.

    ``tau`` must be faithful on every site it carries.
    """
    chosen = tau.blocks.keys() if sites is None else [_site_id(s) for s in sites]
    roots = [(s, _faithful_root(tau, s)) for s in chosen]   # every chosen site is checked
    return complex(sum(np.trace(r @ x.blocks[s].conj().T @ r @ y.blocks[s])
                       for s, r in roots if s in x.blocks and s in y.blocks))


def _faithful_root(tau: DiagonalState, s: Site, d: int | None = None) -> np.ndarray:
    """``tau_s^{1/2}``; InputError unless the block is present, d x d when ``d`` is
    given (ShapeError) and faithful (smallest eigenvalue above ``FAITHFUL_TOL``)."""
    b = tau.blocks.get(s)
    if b is None:
        raise InputError(f"reference state has no block at site {s!r}")
    if d is not None and b.shape != (d, d):
        raise ShapeError(f"reference state block at {s!r} has wrong shape {b.shape}")
    if np.linalg.eigvalsh(herm(b)).min() <= FAITHFUL_TOL:
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


def _form_blocks(walk: WalkSpec, tau: DiagonalState) -> tuple[dict, dict, dict, dict]:
    """The form ``<X, (Id - dual step) Y>`` of ``tau`` as blocks: each site's root
    ``tau_s^{1/2}`` (taken once; ``tau`` must be faithful on every site, checked in
    site order), each size's Hermitian basis ``P_d`` (columns ``vec(e)``), each
    site's weighted basis ``Q_s`` (columns ``vec(root e root)``) and each transition's
    ``H = P_to^H kraus(to, fr) Q_fr``, one batched product per block shape.  On the
    Hermitian basis of every site, the form's block (i, j) is ``[i = j] Q_i^H P_i - H_(j,i)^H``."""
    roots = {s: _faithful_root(tau, s, walk.dims[s]) for s in walk.sites}
    basis = {d: np.column_stack([vec(e) for e in hermitian_basis(d)])
             for d in sorted(set(walk.dims.values()))}
    weighted = {s: np.kron(r.T, r) @ basis[len(r)] for s, r in roots.items()}
    steps = {}
    for keys, K in walk.kraus_stack():
        rows = basis[walk.dims[keys[0][0]]].conj().T
        steps.update(zip(keys, rows @ K @ np.stack([weighted[fr] for _, fr in keys])))
    return roots, basis, weighted, steps


def _stationarity(walk: WalkSpec, form: tuple, domain, a: DiagonalObservable,
                  b: DiagonalObservable) -> tuple[BlockIndex, np.ndarray, np.ndarray]:
    """Layout of the domain's sites in walk order, the Gram matrix ``Re F_DD`` and
    the right-hand side ``Re <e, A + K_{bnd,D}^dag B>`` on its Hermitian basis,
    scattered from the blocks of ``form`` (:func:`_form_blocks`) of the transitions
    from the domain into it and onto ``B``'s sites."""
    _, basis, weighted, steps = form
    idx = BlockIndex.at(walk, _domain_sites(walk, domain)[1])
    gram, rhs = np.zeros((idx.total, idx.total)), np.zeros(idx.total)
    for s, lo, d in zip(idx.sites, idx.begins.tolist(), idx.sizes.tolist()):
        span = slice(lo, lo + d * d)
        gram[span, span] = (weighted[s].conj().T @ basis[d]).real
        rhs[span] = (weighted[s].conj().T @ vec(a.block(s, d))).real
        for j in walk._out[s]:   # block (s, j) of F is -H_(j,s)^H
            H, at = steps[j, s], idx.starts[walk._index[j]]
            if at >= 0:
                gram[span, at:at + len(H)] -= H.real.T
            elif j in b.blocks:   # times B's coefficients
                rhs[span] += H.real.T @ (basis[walk.dims[j]].conj().T @ vec(b.blocks[j])).real
    return idx, gram, rhs


def variational_solve(walk: WalkSpec, tau: DiagonalState,
                      problem: DirichletProblem) -> VariationalSolution:
    """Solve the domain problem as the minimizer of the energy functional.

    Solves the stationarity system ``form(T, X) = <T, A - C>`` over Hermitian
    observables supported on the domain, where ``C = (Id - dual step)(B)``;
    the minimum energy is ``-<X, A - C> / 2``.  Requires detailed balance
    (checked) and coercivity of the form on the domain.
    """
    form = _form_blocks(walk, tau)
    rep = _balance_report(walk, form)
    if not rep.selfadjoint_within_tol:
        raise InputError(
            "detailed balance fails (selfadjointness residual "
            f"{rep.selfadjoint_residual:.3e}); the variational method does not apply")
    D = problem.domain
    bnd = domain_boundary(walk, D)
    a, b = problem.interior_data, problem.boundary_data
    idx, gram, rhs = _stationarity(walk, form, D, a, b)
    gram = 0.5 * (gram + gram.T)
    coercivity = float(np.linalg.eigvalsh(gram).min())
    if coercivity <= COERCIVITY_TOL:
        raise NumericalError("energy form is not coercive on the domain",
                             {"smallest_eigenvalue": coercivity})
    coeff = np.linalg.solve(gram, rhs)

    basis = form[1]
    x = {s: unvec(basis[d] @ coeff[lo:lo + d * d], d)
         for s, lo, d in zip(idx.sites, idx.begins.tolist(), idx.sizes.tolist())}
    x0 = DiagonalObservable({s: x[s] for s in D})
    z = DiagonalObservable(x0.blocks | {j: b.block(j, walk.dims[j]) for j in bnd})
    return VariationalSolution(
        minimizer=x0, solution=z, energy=-0.5 * float(coeff @ rhs), coercivity=coercivity,
        residuals=_residuals(walk, z, a, D),
        diagnostics={"solver": "dense", "unknowns": len(coeff)})


@dataclass
class DetailedBalanceReport:
    sufficient_condition_holds: bool
    sufficient_residual: float
    selfadjoint_within_tol: bool
    selfadjoint_residual: float
    tolerance: float


def check_detailed_balance(walk: WalkSpec, tau: DiagonalState) -> DetailedBalanceReport:
    """Check reversibility of the walk with respect to a faithful state.

    (a) the pairwise sufficient condition
    ``tau(i)^{1/2} L[j,i]† = L[i,j] tau(j)^{1/2}`` for all i, j, and
    (b) selfadjointness of the dual step for the weighted inner product
    ``<X, Y> = Tr(tau^{1/2} X† tau^{1/2} Y)`` over a Hermitian block basis.
    Both residuals are judged against ``BALANCE_TOL``.
    """
    return _balance_report(walk, _form_blocks(walk, tau))


def _balance_report(walk: WalkSpec, form: tuple) -> DetailedBalanceReport:
    (roots, _, _, steps), worst_a = form, 0.0
    # a pair without a block in either direction satisfies (a) trivially
    for i, j in {p for (to, fr) in walk.transitions for p in ((to, fr), (fr, to))}:
        Lij = walk.transitions.get((i, j), np.zeros((walk.dims[i], walk.dims[j])))
        Lji = walk.transitions.get((j, i), np.zeros((walk.dims[j], walk.dims[i])))
        worst_a = max(worst_a, float(np.abs(roots[i] @ Lji.conj().T - Lij @ roots[j]).max()))
    # (b): Q_i^H P_i is Hermitian, so the blocks of F - F^H are H_(i,j) - H_(j,i)^H
    worst_b = max((float(np.abs(H - steps[fr, to].conj().T if (fr, to) in steps else H).max())
                   for (to, fr), H in steps.items()), default=0.0)
    return DetailedBalanceReport(
        sufficient_condition_holds=worst_a <= BALANCE_TOL,
        sufficient_residual=worst_a,
        selfadjoint_within_tol=worst_b <= BALANCE_TOL,
        selfadjoint_residual=worst_b,
        tolerance=BALANCE_TOL,
    )


# ---------------------------------------------------------------------------
# doubly stochastic walks: discrete gradients


@dataclass
class GradientForm:
    blocks: dict[tuple[Site, Site], np.ndarray]   # (i, j) -> X_i L[i,j] - L[i,j] X_j
    energy: float            # (1/2) sum ||grad||_F^2 / total dimension
    raw_half_norm: float     # (1/2) sum ||grad||_F^2, unnormalized


def gradient_form(walk: WalkSpec, x: DiagonalObservable) -> GradientForm:
    """Discrete gradient blocks ``X_i L[i,j] - L[i,j] X_j`` and their energy.

    Only defined for doubly stochastic walks (``walk.is_doubly_stochastic``).
    ``energy`` divides the half squared norm by the total internal dimension
    so that it coincides with the Dirichlet energy taken against the
    normalized flat invariant state.
    """
    if not is_doubly_stochastic(walk):
        defect, pair = doubly_stochastic_defect(walk)
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

