"""Passage, visit, return-time and exit statistics via capture series.

Every operator here is a sum over taboo paths: paths from ``i`` to ``j``
whose intermediate vertices avoid a forbidden set.  With ``S`` the one-step
map restricted to allowed interior sites, ``E`` the entry step out of ``i``
and ``C`` the capture step into ``j``, the path sum is

    direct + C (Id - S)^{-1} E,

computed by one dense or sparse LU factorization of ``Id - S`` (sparse, by
scipy's ``splu`` imported on first use, from ``SPARSE_MIN_UNKNOWNS``
unknowns on), kept for every later solve of the same system.  Interior
sites that cannot be reached from ``i`` or cannot reach ``j`` contribute
nothing and are dropped before the solve; that keeps the resolvent
nonsingular whenever the retained series converges.

A capture series and a finite domain are one :class:`DomainBlocks` system:
``Id - S`` on a set of sites and its exit block.  Every series ``sum_n S^n``
here (these and the return map behind expected visits) is summed by one
certified solve.  Next to its right-hand side the solve takes ``vec(Id)``
on every block, and a Hermitian solution ``Y >= Id`` certifies
``r(S) <= 1 - 1/lmax(Y)`` because ``S`` is a positive map.  When that bound
is not below ``1 - DIVERGENCE_TOL`` the series may trap mass: its trapped
part T, the support of the Cesaro fixed point of ``vec(Id)`` under ``S``,
is checked to be invariant and exit-free, and the solve runs again,
certified, on the compression of ``S`` off T.  Nothing that leaves the
series (a capture, an exit) starts in T, so the compressed solve is exact
for it; the projection that finds T also gives the Cesaro limit of the
right-hand side, the mass that stays trapped.  Diagnostics name the
``method`` (``"solve"``, ``"compressed"`` or ``"passage_deficit"``), the
``radius_bound``, its ``radius_source`` (``"certificate"``) and the solve's
relative ``residual``.

Infinity is a first-class value: expectations return ``math.inf`` together
with diagnostics, never an exception, when the underlying series diverges.
An expected visit count is infinite exactly when the Cesaro projection of
the first-passage state under the return map keeps trace mass.

Finite domains (exit states, harmonic measure, visits before exit) share
one entry that checks their input before the solve with ``K_DD``.
:func:`domain_operator` keeps the per-pair taboo series as public API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import InputError, NumericalError
from .linalg import COMPLEX, RANK_TOL, herm, is_psd, kraus_block, unvec, vec
from .superop import (BlockIndex, block_diagonal, block_matrix, fixed_point_projection,
                      identity_minus)
from .walk import DiagonalState, Site, WalkSpec, _known_sites, _site_id, check_state

# The library sums every series by the certified solve and reads no alpha
# grid; the benchmark's workloads still read this name.
ALPHA_GRID = (0.9, 0.99, 0.999, 0.9999)
DIVERGENCE_TOL = 1e-7
CERTIFICATE_RESIDUAL_TOL = 1e-8  # relative residual above which a solve certifies nothing
TRAP_DEFECT_TOL = 1e-9  # invariance and exit defects above which a near-fixed part is not trapped
PASSAGE_SURE_TOL = 1e-6  # passage probabilities closer to 1 than this count as certain
CP_TOL = 1e-8  # Choi and dual-identity eigenvalue slack of a CP contraction
SPARSE_MIN_UNKNOWNS = 128  # systems with this many unknowns or more are factored by sparse LU


# ---------------------------------------------------------------------------
# capture-series plumbing


def _nonzero(walk: WalkSpec, to: Site, fr: Site) -> bool:
    return walk._amax.get((to, fr), 0.0) > walk.tolerance


def _reachable(seeds, step: dict, allowed) -> set:
    """Sites of ``allowed`` reached from the allowed ``seeds`` along ``step``
    (``walk._succ`` or ``walk._pred``) without leaving ``allowed``."""
    allowed = set(allowed)
    seen, frontier = set(), [s for s in seeds if s in allowed]
    while frontier:
        s = frontier.pop()
        if s not in seen:
            seen.add(s)
            frontier += [t for t in step[s] if t in allowed and t not in seen]
    return seen


def _backward_reachable(walk: WalkSpec, targets, allowed) -> set:
    """Allowed sites with a path through allowed sites into ``targets`` whose
    last block exceeds the walk's tolerance."""
    seeds = [s for t in targets for s in walk._pred[t] if _nonzero(walk, t, s)]
    return _reachable(seeds, walk._pred, allowed)


@dataclass
class DomainBlocks:
    """The system behind every capture series and finite domain: ``A = Id - S``
    for the walk's one-step map ``S = K_DD`` inside a set of sites ``D``
    (dense below ``SPARSE_MIN_UNKNOWNS`` unknowns, CSC from there on) and the
    step ``K_out`` from ``D`` onto the ``outer`` sites, in walk site order.

    ``S`` is rebuilt from the walk's cached Kraus blocks when read, and
    :meth:`solve` is the certified solve of ``(Id - S) x = rhs``.
    """

    walk: WalkSpec
    inner: BlockIndex
    outer: BlockIndex
    A: object           # Id - S, inner -> inner (ndarray or CSC)
    K_out: np.ndarray   # inner -> outer

    @property
    def S(self):
        """One-step map on the inner sites, dense or CSC as ``A`` is (fresh on every read)."""
        return block_matrix(self.walk, self.inner, self.inner,
                            sparse=not isinstance(self.A, np.ndarray))

    def solve(self, rhs: np.ndarray, dual: bool = False) -> DomainSolve:
        """:func:`_domain_solve` of ``A x = rhs`` (``dual``: ``A^dag x = rhs``)."""
        return _domain_solve(self.A, rhs, self.inner.dims(self.walk), dual)


def _domain_blocks(walk: WalkSpec, sites, outer) -> DomainBlocks:
    """The one builder: the system on ``sites`` (site ids) with its exit block onto ``outer``."""
    D = set(sites)
    inner = BlockIndex.build(walk, [s for s in walk.sites if s in D])
    outer = BlockIndex.build(walk, outer)
    A = identity_minus(walk, inner, sparse=inner.total >= SPARSE_MIN_UNKNOWNS)
    return DomainBlocks(walk, inner, outer, A, block_matrix(walk, outer, inner))


@dataclass
class CaptureSeries(DomainBlocks):
    """The taboo-path decomposition for one (i, j, taboo) triple: the system
    on the pruned interior, whose exit block onto ``(j,)`` is the capture
    step ``C``, with the entry step ``E`` out of ``i`` and the direct block.
    :attr:`solved` is the certified solve of ``(Id - S) R = E``, made on first read.
    """

    source: Site
    target: Site
    taboo: frozenset
    direct: np.ndarray | None   # L[j, i], None if absent
    E: np.ndarray               # {i} -> interior
    _alpha_solves: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def interior(self) -> tuple[Site, ...]:
        return self.inner.sites

    @property
    def C(self) -> np.ndarray:
        """Capture step, interior -> {j}."""
        return self.K_out

    @cached_property
    def solved(self) -> DomainSolve:
        """The resolvent ``(Id - S)^{-1} E``; :class:`NumericalError` when no
        solve is certified."""
        return self.solve(self.E)

    @property
    def diagnostics(self) -> dict:
        return self.solved.diagnostics

    def _weighted(self, alpha: float) -> DomainSolve:
        """The certified solve of ``(Id - alpha S) R = E``: :attr:`solved` at
        ``alpha = 1``, else one solve kept per alpha."""
        if alpha == 1.0:
            return self.solved
        if alpha not in self._alpha_solves:
            # Id - alpha S = (1 - alpha) Id + alpha A
            self._alpha_solves[alpha] = _domain_solve(
                alpha * self.A + (1.0 - alpha) * _eye(self.A), self.E, self.inner.dims(self.walk))
        return self._alpha_solves[alpha]

    def matrix(self, alpha: float = 1.0) -> np.ndarray:
        """Vec-matrix of the (alpha-weighted) taboo path sum, d_j^2 x d_i^2."""
        walk = self.walk
        m = np.zeros((walk.dims[self.target] ** 2, walk.dims[self.source] ** 2), dtype=COMPLEX)
        if self.direct is not None:
            m += alpha * walk.kraus(self.target, self.source)
        if self.A.shape[0]:
            m += (alpha ** 2) * (self.C @ self._weighted(alpha).x)
        return m

    def length_terms(self, max_len: int) -> list[np.ndarray]:
        """Per-length vec-matrices of the path sum, lengths 1..max_len."""
        walk = self.walk
        shape = (walk.dims[self.target] ** 2, walk.dims[self.source] ** 2)
        terms = [np.zeros(shape, dtype=COMPLEX) for _ in range(max_len)]
        if self.direct is not None:
            terms[0] = walk.kraus(self.target, self.source).copy()
        if self.A.shape[0]:
            S = self.S
            power = self.E.copy()
            for ell in range(2, max_len + 1):
                terms[ell - 1] = terms[ell - 1] + self.C @ power
                power = S @ power
        return terms


def capture_series(walk: WalkSpec, i, j, taboo=()) -> CaptureSeries:
    """Build the capture decomposition for paths i -> j avoiding the taboo set.

    Intermediate vertices must avoid ``taboo`` and the target ``j``; the
    endpoints are unconstrained.  The series is summed, and its convergence
    certified, by one solve on first use (:attr:`CaptureSeries.solved`).
    """
    i, j, *taboo = _known_sites(walk, [i, j, *taboo])
    taboo = frozenset(taboo)
    allowed = [s for s in walk.sites if s not in taboo and s != j]
    reach = _reachable(walk._succ[i], walk._succ, allowed)
    coreach = _backward_reachable(walk, [j], allowed)
    blocks = _domain_blocks(walk, reach & coreach, (j,))
    return CaptureSeries(
        **vars(blocks), source=i, target=j, taboo=taboo, direct=walk.transitions.get((j, i)),
        E=block_matrix(walk, blocks.inner, BlockIndex.build(walk, (i,))))


def _eye(A):
    """The identity of ``A``'s size, dense or CSC as ``A`` is."""
    if isinstance(A, np.ndarray):
        return np.eye(A.shape[0], dtype=COMPLEX)
    from scipy.sparse import identity
    return identity(A.shape[0], dtype=COMPLEX, format="csc")


def _factor(A) -> Callable[[np.ndarray], np.ndarray]:
    """``b -> A^{-1} b``: LAPACK's dense solve for an array ``A``, else one
    ``splu`` factorization of the sparse ``A``, kept in the returned solve."""
    if isinstance(A, np.ndarray):
        return partial(np.linalg.solve, A)
    from scipy.sparse.linalg import splu
    return splu(A.tocsc()).solve


# ---------------------------------------------------------------------------
# the certified solve


def _layout(dims: dict) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Vector t with t† x = sum of the traces of x's blocks of dimensions
    ``dims``, and the block start offsets grouped by the block's dimension."""
    sizes = np.fromiter(dims.values(), dtype=np.intp, count=len(dims))
    squares = sizes * sizes
    starts = np.cumsum(squares) - squares
    trace, groups = np.zeros(int(squares.sum()), dtype=COMPLEX), {}
    for d in np.flatnonzero(np.bincount(sizes)).tolist():
        groups[d] = starts[sizes == d]
        trace[(groups[d][:, None] + np.arange(0, d * d, d + 1)).ravel()] = 1.0
    return trace, groups


def _certify(A, rhs: np.ndarray, dims: dict) -> tuple[np.ndarray | None, float, float, Callable]:
    """Solve ``A [X | Y] = [rhs | vec(Id on every block)]`` with ``A = Id - S``
    (dense or sparse) by one factorization of ``A``.

    ``S`` is a positive map on blocks of dimensions ``dims``, so a solution
    whose blocks are Hermitian and ``>= Id`` gives
    ``S(Y) = Y - Id <= (1 - 1/lmax(Y)) Y`` and hence ``r(S) <= 1 - 1/lmax(Y)``
    (Perron-Frobenius for positive maps); the residual of the ``Y`` column is
    charged against the ``Id`` term.  Conversely ``r(S) < 1`` makes ``Y`` the
    series ``sum_n S^n(Id) >= Id``.  Returns ``(X, bound, relative
    residual, solve)`` with ``solve`` the kept ``b -> A^{-1} b``; the bound
    is ``inf`` when the solve fails or ``Y`` is no certificate.
    """
    if not A.shape[0]:
        return rhs, 0.0, 0.0, None
    trace, groups = _layout(dims)
    rhs = np.column_stack([rhs, trace])
    try:
        solve = _factor(A)
        X = solve(rhs)
    except (np.linalg.LinAlgError, RuntimeError):   # RuntimeError: splu found A singular
        return None, math.inf, math.inf, None
    if not np.isfinite(X).all():
        return None, math.inf, math.inf, None
    resid = A @ X - rhs
    residual = float(np.linalg.norm(resid) / np.linalg.norm(rhs))
    R = X[:, :-1]
    if residual > CERTIFICATE_RESIDUAL_TOL:
        return R, math.inf, residual, solve
    # the exact solution is Hermitian with lmin >= 1; accept rounding
    # relative to its size, but never a block that is not positive definite
    lo, hi, skew = math.inf, 0.0, 0.0
    for d, starts in groups.items():
        take = (starts[:, None] + np.arange(d * d)).ravel()
        blocks = X[take, -1].reshape(-1, d, d)   # transposed blocks: same spectra
        h = 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))
        skew = max(skew, float(np.abs(blocks - h).max()))
        w = np.linalg.eigh(h)[0]
        lo, hi = min(lo, float(w.min())), max(hi, float(w.max()))
    eps = float(np.linalg.norm(resid[:, -1]))
    if skew > 1e-8 * hi or lo <= 0.0 or lo < 1.0 - 1e-6 * hi:
        return R, math.inf, residual, solve
    return R, max(0.0, 1.0 - (1.0 - eps) / hi), residual, solve


@dataclass
class DomainSolve:
    """A certified solve of ``(Id - S) x = rhs`` (see :func:`_domain_solve`).

    ``method`` is ``"block_solve"``, or ``"compressed"`` when the solve ran on
    the compression off the trapped part; ``trapped`` names the blocks where
    that part is nonzero.  Bound and residual are the certifying solve's, and
    ``factor`` (with ``lift``, when compressed) is its kept ``b -> A^{-1} b``.
    ``cesaro`` (when compressed) is the Cesaro limit of ``rhs`` under ``S``,
    the mass that stays trapped, from the projection that found that part.
    """

    x: np.ndarray
    method: str
    trapped: tuple[Site, ...]
    radius_bound: float
    residual: float
    factor: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    lift: np.ndarray | None = field(default=None, repr=False)
    cesaro: np.ndarray | None = field(default=None, repr=False)

    @property
    def diagnostics(self) -> dict:
        """The solve as hitting results report it."""
        return {"method": "solve" if self.method == "block_solve" else self.method,
                "radius_bound": self.radius_bound, "radius_source": "certificate",
                "residual": self.residual}

    def resolve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the same certified system for another right-hand side."""
        if self.lift is None:
            return self.factor(rhs)
        return self.lift @ self.factor(self.lift.conj().T @ rhs)


def _domain_solve(A, rhs: np.ndarray, dims: dict, dual: bool = False) -> DomainSolve:
    """Solve ``A x = rhs`` (``dual``: ``A^dag x = rhs``) with ``A = Id - S``,
    ``S`` a positive, trace non-increasing map on blocks of dimensions
    ``dims`` (keyed by site), dense or sparse; only the trapped-part search
    below densifies it.

    The solve certifies ``r(S) < 1 - DIVERGENCE_TOL`` (see :func:`_certify`).
    When it does not, T is the support of the Cesaro fixed point of
    ``vec(Id)`` under ``S``, with per-block orthonormal bases ``W_s`` of T and
    ``V_s`` of its complement.  With nothing trapped, a certified bound below
    1 keeps the first solve.  Otherwise T is accepted only when it is
    invariant and exit-free (``lift^dag A lift_T`` and ``t^dag A lift_T``
    vanish to ``TRAP_DEFECT_TOL``, with ``lift = (+)_s kron(conj V_s, V_s)``,
    ``lift_T`` the same with ``W_s`` and ``t`` the trace vector).  Then ``S``
    is block-triangular over ``T (+) T^perp`` and its compression
    ``lift^dag S lift`` has spectral radius below 1 (Evans & Hoegh-Krohn
    1978); the solve runs there on ``lift^dag rhs`` and is lifted back, which
    is exact for every quantity that only sees ``T^perp`` (captures, exits,
    and the dual problem with no data on T).  :class:`NumericalError` when
    no solve is certified.
    """
    system = A.conj().T if dual else A
    X, bound, residual, solve = _certify(system, rhs, dims)
    if bound < 1.0 - DIVERGENCE_TOL:
        return DomainSolve(X, "block_solve", (), bound, residual, solve)
    free, trap, cesaro = _trapped_split(A, dims, rhs)
    trapped = tuple(s for s, w in trap.items() if w.shape[1])
    if not trapped:
        if bound < 1.0:
            return DomainSolve(X, "block_solve", (), bound, residual, solve)
        raise NumericalError("the series is not certified convergent and traps nothing",
                             {"radius_bound": bound, "trapped_sites": []})
    lift, lift_t = _lift(free), _lift(trap)
    defect = max(float(np.linalg.norm(lift.conj().T @ (A @ lift_t))),
                 float(np.linalg.norm(_layout(dims)[0].conj() @ (A @ lift_t))))
    if defect > TRAP_DEFECT_TOL:
        raise NumericalError(
            "the series is not certified convergent, and its near-fixed part is not trapped",
            {"radius_bound": bound, "trap_defect": defect, "trapped_sites": []})
    compressed = lift.conj().T @ (A @ lift)
    system = compressed.conj().T if dual else compressed
    X_c, bound_c, residual, solve = _certify(
        system, lift.conj().T @ rhs, {s: v.shape[1] for s, v in free.items() if v.shape[1]})
    if not bound_c < 1.0 - DIVERGENCE_TOL:
        raise NumericalError(
            "the series is not certified convergent, not even off its trapped part",
            {"radius_bound": bound, "compressed_radius_bound": bound_c,
             "trapped_sites": list(trapped)})
    return DomainSolve(lift @ X_c, "compressed", trapped, bound_c, residual, solve, lift, cesaro)


def _trapped_split(A, dims: dict, rhs: np.ndarray) -> tuple[dict, dict, np.ndarray]:
    """Per-block orthonormal bases of the complement of T and of T, the
    support of the Cesaro fixed point of ``vec(Id)`` under ``S = Id - A``,
    and the Cesaro limit of ``rhs``: one projection of ``[vec(Id) | rhs]``."""
    S = _eye(A) - A
    fixed, _ = fixed_point_projection(S if isinstance(S, np.ndarray) else S.toarray(),
                                      np.column_stack([_layout(dims)[0], rhs]))
    eig, off = {}, 0
    for s, d in dims.items():
        eig[s] = np.linalg.eigh(herm(unvec(fixed[off:off + d * d, 0], d)))
        off += d * d
    top = max(0.0, *(float(w.max()) for w, _ in eig.values()))
    cut = {s: w <= RANK_TOL * top for s, (w, _) in eig.items()}
    return ({s: v[:, cut[s]] for s, (_, v) in eig.items()},
            {s: v[:, ~cut[s]] for s, (_, v) in eig.items()}, fixed[:, 1:])


def _lift(bases: dict) -> np.ndarray:
    """Block-diagonal ``(+)_s kron(conj V_s, V_s)``, which maps ``vec(x_s)``
    to ``vec(V_s x_s V_s^dag)``."""
    return block_diagonal([kraus_block(v) for v in bases.values()])


# ---------------------------------------------------------------------------
# taboo-path operators


@dataclass
class CPMapBlock:
    """A completely positive block map ``I_1(h_source) -> I_1(h_target)``.

    ``matrix`` acts on column-major vectorized blocks.  ``alpha`` is the
    per-step weight used to build it (None for the unweighted map), and
    ``diagnostics`` records the method ("solve" for the certified resolvent,
    "compressed" when it ran off a trapped part) and the interior radius
    bound with its source and the solve's relative residual.
    """

    source: Site
    target: Site
    source_dim: int
    target_dim: int
    matrix: np.ndarray
    taboo: frozenset
    alpha: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(rho), self.target_dim)

    def dual_apply(self, x: np.ndarray) -> np.ndarray:
        return unvec(self.matrix.conj().T @ vec(x), self.source_dim)

    def dual_identity(self) -> np.ndarray:
        """Dual map applied to the identity; Hermitian, bounded by Id."""
        return herm(self.dual_apply(np.eye(self.target_dim, dtype=COMPLEX)))

    def choi(self) -> np.ndarray:
        """Choi matrix (unnormalized) of the represented map: block (k, l) is
        the image of ``|k><l|``, whose entry (a, b) is ``matrix[a + b dt, k + l ds]``."""
        ds, dt = self.source_dim, self.target_dim
        blocks = np.asarray(self.matrix, dtype=COMPLEX).reshape(dt, dt, ds, ds)  # [b, a, l, k]
        return blocks.transpose(3, 1, 2, 0).reshape(ds * dt, ds * dt)

    def is_completely_positive(self) -> bool:
        return is_psd(self.choi(), CP_TOL)

    def is_contraction(self) -> bool:
        w = np.linalg.eigh(self.dual_identity())[0]
        return bool(w.min(initial=0.0) >= -CP_TOL and w.max(initial=0.0) <= 1.0 + CP_TOL)


def _taboo_block(series: CaptureSeries) -> CPMapBlock:
    walk = series.walk
    return CPMapBlock(
        source=series.source, target=series.target,
        source_dim=walk.dims[series.source], target_dim=walk.dims[series.target],
        matrix=series.matrix(), taboo=series.taboo, alpha=None,
        diagnostics=series.diagnostics)


def taboo_operator(walk: WalkSpec, i, j, taboo=()) -> CPMapBlock:
    """Taboo-path operator ``rho -> sum_paths L_path rho L_path†``.

    Paths run from ``i`` to ``j``; intermediate vertices avoid ``taboo`` and
    ``j`` itself.  The default ``taboo=()`` gives the first-passage operator.
    """
    return _taboo_block(capture_series(walk, i, j, taboo))


def alpha_operator(walk: WalkSpec, i, j, taboo=(), alpha: float = 0.5) -> CPMapBlock:
    """Length-weighted taboo operator: every step carries a factor ``alpha``."""
    if not (0.0 < alpha < 1.0):
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    series = capture_series(walk, i, j, taboo)
    return CPMapBlock(
        source=series.source, target=series.target,
        source_dim=walk.dims[series.source], target_dim=walk.dims[series.target],
        matrix=series.matrix(alpha), taboo=series.taboo, alpha=alpha,
        diagnostics=series._weighted(alpha).diagnostics)


# ---------------------------------------------------------------------------
# scalar statistics


def _passage(op: CPMapBlock, rho: np.ndarray) -> float:
    p = float(np.trace(op.apply(rho)).real)
    if p < -1e-6 or p > 1.0 + 1e-6:
        raise NumericalError(f"passage probability {p} escapes [0, 1]", op.diagnostics)
    return min(1.0, max(0.0, p))


def passage_probability(walk: WalkSpec, i, rho, j) -> float:
    """Probability that the walk started at (i, rho) ever visits j."""
    rho = np.asarray(rho, dtype=COMPLEX)
    check_state(walk, DiagonalState({_site_id(i): rho}))
    return _passage(taboo_operator(walk, i, j), rho)


@dataclass
class ExpectationResult:
    """A possibly infinite expectation with solver diagnostics."""

    value: float
    diagnostics: dict

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    def __float__(self) -> float:
        return self.value


def expected_visits(walk: WalkSpec, i, rho, j) -> ExpectationResult:
    """Expected number of visits to j from (i, rho); may be ``inf``.

    With ``sigma`` the state at the first visit and ``P`` the return map at
    j, the count is ``tr sum_n P^n(sigma)``: one certified solve on
    ``Id - P`` (see :func:`_domain_solve`).  It is ``inf`` exactly when the
    Cesaro projection of ``sigma`` under ``P`` has trace mass, the mass that
    returns forever.  When ``i == j`` the first-passage operator is the
    return map, and its one solve serves both.
    """
    rho = np.asarray(rho, dtype=COMPLEX)
    check_state(walk, DiagonalState({_site_id(i): rho}))
    first = taboo_operator(walk, i, j)
    sigma = first.apply(rho)
    tr_sigma = float(np.trace(sigma).real)
    if tr_sigma <= 1e-14:
        return ExpectationResult(0.0, {"method": "solve", "first_passage_mass": tr_sigma})
    j = _site_id(j)
    P = first.matrix if _site_id(i) == j else capture_series(walk, j, j).matrix()
    solve = _domain_solve(_eye(P) - P, vec(sigma)[:, None], {j: walk.dims[j]})
    diag = solve.diagnostics
    if solve.method == "compressed":
        mass = float(np.trace(unvec(solve.cesaro[:, 0], walk.dims[j])).real)
        if mass > 1e-10 * tr_sigma:
            return ExpectationResult(math.inf, {**diag, "cesaro_mass": mass})
    tvec = vec(np.eye(walk.dims[j], dtype=COMPLEX))
    return ExpectationResult(float(np.vdot(tvec, solve.x[:, 0]).real), diag)


def expected_return_time(walk: WalkSpec, i, rho, j) -> ExpectationResult:
    """Expected first-passage time from (i, rho) to j; ``inf`` when the
    passage probability falls short of 1.

    The time is ``sum_n n tr C S^(n-2) E rho`` (plus the direct step): the
    passage series' certified solve and a second solve on the same, possibly
    compressed, system.
    """
    rho = np.asarray(rho, dtype=COMPLEX)
    check_state(walk, DiagonalState({_site_id(i): rho}))
    series = capture_series(walk, i, j)
    p = _passage(_taboo_block(series), rho)
    if p < 1.0 - PASSAGE_SURE_TOL:
        return ExpectationResult(math.inf, {"method": "passage_deficit",
                                            "passage_probability": p})
    dj = walk.dims[series.target]
    tvec = vec(np.eye(dj, dtype=COMPLEX))
    val = 0.0
    if series.direct is not None:
        val = float(np.trace(series.direct @ rho @ series.direct.conj().T).real)
    if series.A.shape[0]:
        y = series.solved.x @ vec(rho)
        z = series.solved.resolve(y)
        val += float(np.vdot(tvec, series.C @ (y + z)).real)
    return ExpectationResult(val, {**series.diagnostics, "passage_probability": p})


def conditional_state_at_hit(walk: WalkSpec, i, rho, j) -> np.ndarray:
    """Expected internal state at the first visit to j, given it happens."""
    rho = np.asarray(rho, dtype=COMPLEX)
    check_state(walk, DiagonalState({_site_id(i): rho}))
    op = taboo_operator(walk, i, j)
    out = op.apply(rho)
    t = float(np.trace(out).real)
    if t <= 1e-12:
        raise InputError("conditional state undefined: passage probability is zero")
    return herm(out / t)


# ---------------------------------------------------------------------------
# finite domains


def _domain_sites(walk: WalkSpec, domain) -> set:
    D = {_site_id(s) for s in domain}
    unknown = D - set(walk.sites)
    if unknown:
        raise InputError(f"domain has unknown sites {sorted(unknown)}")
    return D


def boundary(walk: WalkSpec, domain) -> tuple[Site, ...]:
    """Sites outside the domain receiving a nonzero transition from it."""
    D = _domain_sites(walk, domain)
    hit = {t for j in D for t in walk._succ[j] if t not in D and _nonzero(walk, t, j)}
    return tuple(s for s in walk.sites if s in hit)


def domain_operator(walk: WalkSpec, domain, i, j) -> CPMapBlock:
    """Exit-path operator: paths i -> j whose intermediates stay in the domain.

    For a boundary target this captures the exit event through j; for an
    interior target it captures {t_j <= t_boundary} (the first visit to j
    before leaving the domain).
    """
    D = _domain_sites(walk, domain)
    if _site_id(i) not in D:
        raise InputError(f"start site {i!r} is not in the domain")
    taboo = [s for s in walk.sites if s not in D]
    return taboo_operator(walk, i, j, taboo=taboo)


def _domain_query(walk: WalkSpec, domain, i, rho,
                  target: Site | None = None) -> tuple[DomainBlocks, DomainSolve]:
    """The one entry of the domain queries.  Checks the state ``rho`` at
    ``i``, the domain's sites, that the domain has a boundary (an exit
    query) or that it holds ``target`` (a visit count), and that ``i`` lies
    in it; then solves the occupation ``sum_n K_DD^n`` of rho at i on the
    domain's blocks, whose ``K_out`` maps onto the boundary."""
    i, rho = _site_id(i), np.asarray(rho, dtype=COMPLEX)
    check_state(walk, DiagonalState({i: rho}))
    D = _domain_sites(walk, domain)
    bnd = ()
    if target is None:
        bnd = boundary(walk, D)
        if not bnd:
            raise InputError("domain has empty boundary")
    elif target not in D:
        raise InputError(f"target {target!r} must lie inside the domain")
    if i not in D:
        raise InputError(f"start site {i!r} is not in the domain")
    blocks = _domain_blocks(walk, D, bnd)
    rhs = np.zeros((blocks.inner.total, 1), dtype=COMPLEX)
    lo, hi = blocks.inner.offsets[i]
    rhs[lo:hi, 0] = vec(rho)
    return blocks, blocks.solve(rhs)


def _exit_states(walk: WalkSpec, domain, i, rho) -> dict[Site, np.ndarray]:
    """Unnormalized state at the exit through each boundary site, from (i, rho).

    One certified solve gives ``K_{bnd,D} (Id - K_DD)^{-1}`` applied to rho
    at i for every boundary site at once; trapped mass never exits, so the
    compressed solve of a trapping domain gives the same exit states.
    """
    blocks, solve = _domain_query(walk, domain, i, rho)
    return blocks.outer.unpack(walk, blocks.K_out @ solve.x[:, 0])


def exit_probability(walk: WalkSpec, domain, i, rho) -> float:
    """Probability of ever leaving the domain through its boundary."""
    total = sum(float(np.trace(out).real) for out in _exit_states(walk, domain, i, rho).values())
    if total > 1.0 + 1e-6:
        raise NumericalError(f"exit probability {total} exceeds 1")
    return min(1.0, max(0.0, total))


@dataclass
class HarmonicMeasure:
    """Exit distribution over the boundary with conditional exit states."""

    start: Site
    masses: dict[Site, float]
    conditional_states: dict[Site, np.ndarray]
    total_mass: float

    def mass(self, j) -> float:
        return self.masses.get(_site_id(j), 0.0)


def harmonic_measure(walk: WalkSpec, domain, i, rho) -> HarmonicMeasure:
    """Harmonic measure of the domain seen from (i, rho).

    ``masses[j]`` is the probability of exiting through boundary site j;
    for irreducible walks the masses sum to 1.
    """
    masses, cond = {}, {}
    for j, out in _exit_states(walk, domain, i, rho).items():
        t = float(np.trace(out).real)
        masses[j] = max(0.0, t)
        if t > 1e-12:
            cond[j] = herm(out / t)
    return HarmonicMeasure(start=_site_id(i), masses=masses,
                           conditional_states=cond, total_mass=sum(masses.values()))


def expected_domain_visits(walk: WalkSpec, domain, i, rho, j) -> float:
    """Expected visits to j in the domain before first leaving it.

    From the occupation ``x = sum_{n >= 0} K_DD^n (rho at i)`` of one forward
    solve the count is ``tr x_j - delta_ij tr rho``.  The count is infinite,
    and :class:`NumericalError` is raised, exactly when the Cesaro fixed point
    of the start state, read from the same solve, has mass at j.
    """
    j = _site_id(j)
    blocks, solve = _domain_query(walk, domain, i, rho, target=j)
    lo, hi = blocks.inner.offsets[j]
    tr_rho = float(np.trace(np.asarray(rho, dtype=COMPLEX)).real)
    if solve.method == "compressed":
        mass = float(np.trace(unvec(solve.cesaro[lo:hi, 0], walk.dims[j])).real)
        if mass > 1e-10 * tr_rho:
            raise NumericalError(
                "domain visit count diverges: the start state leaves mass trapped "
                f"at {j!r}", {"trapped_mass": mass, "trapped_sites": list(solve.trapped)})
    visits = float(np.trace(unvec(solve.x[lo:hi, 0], walk.dims[j])).real)
    return visits - (tr_rho if _site_id(i) == j else 0.0)


# ---------------------------------------------------------------------------
# brute-force oracle


@dataclass
class PathSumResult:
    """Exact taboo-path enumeration up to a maximal length."""

    lengths: list[int]
    masses: list[float]          # per-length trace mass for the supplied state
    operators: list[np.ndarray]  # per-length vec-matrices of the path sum

    @property
    def partial_sums(self) -> list[float]:
        out, acc = [], 0.0
        for m in self.masses:
            acc += m
            out.append(acc)
        return out


def brute_force_path_sum(walk: WalkSpec, i, rho, j, taboo=(), max_len: int = 20,
                         node_budget: int = 2_000_000) -> PathSumResult:
    """Enumerate taboo paths exactly; the independent oracle for the solvers.

    Raises :class:`NumericalError` if the enumeration tree exceeds
    ``node_budget`` nodes.
    """
    i, j = _site_id(i), _site_id(j)
    rho = np.asarray(rho, dtype=COMPLEX)
    taboo_set = {_site_id(s) for s in taboo}
    allowed = set(walk.sites) - taboo_set - {j}
    dj2 = walk.dims[j] ** 2
    di2 = walk.dims[i] ** 2
    ops = [np.zeros((dj2, di2), dtype=COMPLEX) for _ in range(max_len)]
    budget = [node_budget]

    def explore(site: Site, m: np.ndarray, depth: int):
        for t in walk._succ[site]:
            L = walk.transitions[(t, site)]
            m2 = L @ m
            if float(np.abs(m2).max(initial=0.0)) < 1e-250:
                continue
            budget[0] -= 1
            if budget[0] < 0:
                raise NumericalError(
                    f"path enumeration exceeded the node budget ({node_budget})")
            if t == j:
                ops[depth] += kraus_block(m2)
            elif t in allowed and depth + 1 < max_len:
                explore(t, m2, depth + 1)

    explore(i, np.eye(walk.dims[i], dtype=COMPLEX), 0)
    masses = [float(np.trace(unvec(op @ vec(rho), walk.dims[j])).real) for op in ops]
    return PathSumResult(lengths=list(range(1, max_len + 1)), masses=masses, operators=ops)


def shanks_limit(partial_sums) -> float:
    """Shanks extrapolation of a partial-sum sequence via Wynn's epsilon.

    Zero increments (parity-structured walks) are squeezed out first; the
    even epsilon columns then reproduce the limit exactly when the tail is a
    finite sum of geometric modes, which is the case for every finite walk.
    """
    seq = [float(partial_sums[0])]
    for x in partial_sums[1:]:
        if abs(float(x) - seq[-1]) > 1e-15:
            seq.append(float(x))
    n = len(seq)
    # increments this small are rounding drift, and Wynn's epsilon would
    # extrapolate the drift: keep the last partial sum
    drift = 1e-13 * max(1.0, abs(seq[-1]))
    if n < 3 or all(abs(b - a) < drift for a, b in zip(seq, seq[1:])):
        return float(partial_sums[-1])
    eps_prev = [0.0] * (n + 1)           # epsilon_{-1}
    eps_curr = list(seq)                 # epsilon_0
    best = seq[-1]
    col = 0
    while len(eps_curr) >= 2:
        col += 1
        nxt = []
        for k in range(len(eps_curr) - 1):
            diff = eps_curr[k + 1] - eps_curr[k]
            if abs(diff) < 1e-300:
                nxt = []
                break
            nxt.append(eps_prev[k + 1] + 1.0 / diff)
        if not nxt:
            break
        eps_prev, eps_curr = eps_curr, nxt
        if col % 2 == 0 and eps_curr:
            best = eps_curr[-1]
    return best
