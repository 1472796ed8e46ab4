"""Passage, visit, return-time and exit statistics via capture series.

Every operator here is a sum over taboo paths: paths from ``i`` to ``j``
whose intermediate vertices avoid a forbidden set.  With ``S`` the one-step
map restricted to allowed interior sites, ``E`` the entry step out of ``i``
and ``C`` the capture step into ``j``, the path sum is

    direct + C (Id - S)^{-1} E,

computed by dense linear solves.  Interior sites that cannot be reached
from ``i`` or cannot reach ``j`` contribute nothing and are dropped before
the solve; that keeps the resolvent nonsingular whenever the retained
series converges.

Every series ``sum_n S^n`` here (a capture series, the return map behind
expected visits, the one-step map ``K_DD`` inside a finite domain) is summed
by one certified solve, :func:`_domain_solve`.  Next to its right-hand side
the solve takes ``vec(Id)`` on every block, and a Hermitian solution
``Y >= Id`` certifies ``r(S) <= 1 - 1/lmax(Y)`` because ``S`` is a positive
map.  When that bound is not below ``1 - DIVERGENCE_TOL`` the series may trap
mass: its trapped part T, the support of the Cesaro fixed point of
``vec(Id)`` under ``S``, is checked to be invariant and exit-free, and the
solve runs again, certified, on the compression of ``S`` off T.  Nothing
that leaves the series (a capture, an exit) starts in T, so the compressed
solve is exact for it.  Diagnostics name the ``method`` (``"solve"``,
``"compressed"`` or ``"passage_deficit"``), the ``radius_bound``, its
``radius_source`` (``"certificate"``) and the solve's relative ``residual``.

Infinity is a first-class value: expectations return ``math.inf`` together
with diagnostics, never an exception, when the underlying series diverges.
An expected visit count is infinite exactly when the Cesaro projection of
the first-passage state under the return map keeps trace mass.

Finite domains (exit states, harmonic measure, visits before exit and the
Dirichlet problems built on them) make the same solve with ``K_DD``.
:func:`domain_operator` keeps the per-pair taboo series as public API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, NumericalError
from .linalg import COMPLEX, herm, is_psd, kraus_block, unvec, vec
from .superop import BlockIndex, block_matrix, fixed_point_projection
from .walk import DiagonalState, Site, WalkSpec, _site_id, check_state

# The library sums every series by the certified solve and reads no alpha
# grid; the benchmark's workloads still read this name.
ALPHA_GRID = (0.9, 0.99, 0.999, 0.9999)
DIVERGENCE_TOL = 1e-7
CERTIFICATE_RESIDUAL_TOL = 1e-8  # relative residual above which a solve certifies nothing
TRAP_DEFECT_TOL = 1e-9  # invariance and exit defects above which a near-fixed part is not trapped
PASSAGE_SURE_TOL = 1e-6  # passage probabilities closer to 1 than this count as certain


# ---------------------------------------------------------------------------
# capture-series plumbing


def _nonzero(walk: WalkSpec, to: Site, fr: Site) -> bool:
    L = walk.transitions.get((to, fr))
    return L is not None and float(np.abs(L).max(initial=0.0)) > walk.tolerance


def _forward_reachable(walk: WalkSpec, seeds, allowed) -> set:
    allowed = set(allowed)
    seen = set()
    frontier = [s for s in seeds if s in allowed]
    while frontier:
        nxt = []
        for s in frontier:
            if s in seen:
                continue
            seen.add(s)
            for t in walk._succ[s]:
                if t in allowed and t not in seen:
                    nxt.append(t)
        frontier = nxt
    return seen


def _backward_reachable(walk: WalkSpec, targets, allowed) -> set:
    allowed = set(allowed)
    seen = set()
    frontier = [s for t in targets for s in walk._pred[t]
                if s in allowed and _nonzero(walk, t, s)]
    while frontier:
        nxt = []
        for s in frontier:
            if s in seen:
                continue
            seen.add(s)
            for p in walk._pred[s]:
                if p in allowed and p not in seen:
                    nxt.append(p)
        frontier = nxt
    return seen


@dataclass
class CaptureSeries:
    """Matrices of the taboo-path decomposition for one (i, j, taboo) triple.

    Only ``A = Id - S`` is stored; ``S`` is rebuilt from the walk's cached
    Kraus blocks when read.  :attr:`solved` is the certified solve of
    ``(Id - S) R = E``, made on first read.
    """

    walk: WalkSpec
    source: Site
    target: Site
    taboo: frozenset
    interior: tuple[Site, ...]
    direct: np.ndarray | None   # L[j, i], None if absent
    A: np.ndarray               # Id - S, interior -> interior
    E: np.ndarray               # {i} -> interior
    C: np.ndarray               # interior -> {j}

    @property
    def S(self) -> np.ndarray:
        """One-step map on the interior (a fresh array on every read)."""
        idx = BlockIndex.build(self.walk, self.interior)
        return block_matrix(self.walk, idx, idx)

    @cached_property
    def solved(self) -> DomainSolve:
        """The resolvent ``(Id - S)^{-1} E`` from :func:`_domain_solve`;
        :class:`NumericalError` when no solve is certified."""
        return _domain_solve(self.A, self.E, {s: self.walk.dims[s] for s in self.interior})

    @property
    def diagnostics(self) -> dict:
        return self.solved.diagnostics

    def matrix(self, alpha: float = 1.0) -> np.ndarray:
        """Vec-matrix of the (alpha-weighted) taboo path sum, d_j^2 x d_i^2."""
        walk = self.walk
        dj2 = walk.dims[self.target] ** 2
        di2 = walk.dims[self.source] ** 2
        m = np.zeros((dj2, di2), dtype=COMPLEX)
        if self.direct is not None:
            m += alpha * walk.kraus(self.target, self.source)
        if self.A.shape[0]:
            if alpha == 1.0:
                resolvent = self.solved.x
            else:
                resolvent = np.linalg.solve(_id_minus(self.S, alpha), self.E)
            m += (alpha ** 2) * (self.C @ resolvent)
        return m

    def length_terms(self, max_len: int) -> list[np.ndarray]:
        """Per-length vec-matrices of the path sum, lengths 1..max_len."""
        walk = self.walk
        dj2 = walk.dims[self.target] ** 2
        di2 = walk.dims[self.source] ** 2
        terms = [np.zeros((dj2, di2), dtype=COMPLEX) for _ in range(max_len)]
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
    i, j = _site_id(i), _site_id(j)
    taboo = frozenset(_site_id(s) for s in taboo)
    unknown = ({i, j} | taboo) - set(walk.sites)
    if unknown:
        raise InputError(f"unknown sites {sorted(unknown)}")
    allowed = [s for s in walk.sites if s not in taboo and s != j]
    entry_seeds = [t for t in walk._succ[i] if t in set(allowed)]
    reach = _forward_reachable(walk, entry_seeds, allowed)
    coreach = _backward_reachable(walk, [j], allowed)
    interior = tuple(s for s in allowed if s in reach and s in coreach)

    idx = BlockIndex.build(walk, interior)
    return CaptureSeries(
        walk=walk, source=i, target=j, taboo=taboo, interior=interior,
        direct=walk.transitions.get((j, i)), A=_id_minus(block_matrix(walk, idx, idx)),
        E=block_matrix(walk, idx, BlockIndex.build(walk, (i,))),
        C=block_matrix(walk, BlockIndex.build(walk, (j,)), idx))


def _id_minus(m: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """``Id - alpha m``, computed in place."""
    m *= -alpha
    m.reshape(-1)[:: m.shape[0] + 1] += 1.0   # the diagonal
    return m


# ---------------------------------------------------------------------------
# the certified solve


def _trace_vector(dims: dict) -> np.ndarray:
    """Vector t with t† x = sum of the traces of x's blocks of dimensions ``dims``."""
    return np.concatenate([vec(np.eye(d, dtype=COMPLEX)) for d in dims.values()])


def _blocks_by_dim(dims: dict) -> dict[int, np.ndarray]:
    """Block start offsets, grouped by the block's dimension."""
    out: dict[int, list] = {}
    off = 0
    for d in dims.values():
        out.setdefault(d, []).append(off)
        off += d * d
    return {d: np.asarray(v) for d, v in out.items()}


def _certify(A: np.ndarray, rhs: np.ndarray,
             dims: dict) -> tuple[np.ndarray | None, float, float]:
    """Solve ``A [X | Y] = [rhs | vec(Id on every block)]`` with ``A = Id - S``.

    ``S`` is a positive map on blocks of dimensions ``dims``, so a solution
    whose blocks are Hermitian and ``>= Id`` gives
    ``S(Y) = Y - Id <= (1 - 1/lmax(Y)) Y`` and hence ``r(S) <= 1 - 1/lmax(Y)``
    (Perron-Frobenius for positive maps); the residual of the ``Y`` column is
    charged against the ``Id`` term.  Conversely ``r(S) < 1`` makes ``Y`` the
    series ``sum_n S^n(Id) >= Id``.  Returns ``(X, bound, relative
    residual)``; the bound is ``inf`` when the solve fails or ``Y`` is no
    certificate.
    """
    if not A.shape[0]:
        return rhs, 0.0, 0.0
    ones = _trace_vector(dims)
    rhs = np.column_stack([rhs, ones])
    try:
        X = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        return None, math.inf, math.inf
    if not np.isfinite(X).all():
        return None, math.inf, math.inf
    resid = A @ X - rhs
    residual = float(np.linalg.norm(resid) / np.linalg.norm(rhs))
    R = X[:, :-1]
    if residual > CERTIFICATE_RESIDUAL_TOL:
        return R, math.inf, residual
    # the exact solution is Hermitian with lmin >= 1; accept rounding
    # relative to its size, but never a block that is not positive definite
    lo, hi, skew = math.inf, 0.0, 0.0
    for d, starts in _blocks_by_dim(dims).items():
        take = (starts[:, None] + np.arange(d * d)).ravel()
        blocks = X[take, -1].reshape(-1, d, d)   # transposed blocks: same spectra
        h = 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))
        skew = max(skew, float(np.abs(blocks - h).max()))
        w = np.linalg.eigh(h)[0]
        lo, hi = min(lo, float(w.min())), max(hi, float(w.max()))
    eps = float(np.linalg.norm(resid[:, -1]))
    if skew > 1e-8 * hi or lo <= 0.0 or lo < 1.0 - 1e-6 * hi:
        return R, math.inf, residual
    return R, max(0.0, 1.0 - (1.0 - eps) / hi), residual


@dataclass
class DomainSolve:
    """A certified solve of ``(Id - S) x = rhs`` (see :func:`_domain_solve`).

    ``method`` is ``"block_solve"``, or ``"compressed"`` when the solve ran on
    the compression off the trapped part; ``trapped`` names the blocks where
    that part is nonzero.  Bound and residual are the certifying solve's, and
    ``system`` (with ``lift``, when compressed) is the system it solved.
    """

    x: np.ndarray
    method: str
    trapped: tuple[Site, ...]
    radius_bound: float
    residual: float
    system: np.ndarray = field(repr=False)
    lift: np.ndarray | None = field(default=None, repr=False)

    @property
    def diagnostics(self) -> dict:
        """The solve as hitting results report it."""
        return {"method": "solve" if self.method == "block_solve" else self.method,
                "radius_bound": self.radius_bound, "radius_source": "certificate",
                "residual": self.residual}

    def resolve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the same certified system for another right-hand side."""
        if self.lift is None:
            return np.linalg.solve(self.system, rhs)
        return self.lift @ np.linalg.solve(self.system, self.lift.conj().T @ rhs)


def _domain_solve(A: np.ndarray, rhs: np.ndarray, dims: dict,
                  dual: bool = False) -> DomainSolve:
    """Solve ``A x = rhs`` (``dual``: ``A^dag x = rhs``) with ``A = Id - S``,
    ``S`` a positive, trace non-increasing map on blocks of dimensions
    ``dims`` (keyed by site).

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
    X, bound, residual = _certify(system, rhs, dims)
    if bound < 1.0 - DIVERGENCE_TOL:
        return DomainSolve(X, "block_solve", (), bound, residual, system)
    free, trap = _trapped_split(A, dims)
    trapped = tuple(s for s, w in trap.items() if w.shape[1])
    if not trapped:
        if bound < 1.0:
            return DomainSolve(X, "block_solve", (), bound, residual, system)
        raise NumericalError("the series is not certified convergent and traps nothing",
                             {"radius_bound": bound, "trapped_sites": []})
    lift, lift_t = _lift(free), _lift(trap)
    defect = max(float(np.linalg.norm(lift.conj().T @ (A @ lift_t))),
                 float(np.linalg.norm(_trace_vector(dims).conj() @ (A @ lift_t))))
    if defect > TRAP_DEFECT_TOL:
        raise NumericalError(
            "the series is not certified convergent, and its near-fixed part is not trapped",
            {"radius_bound": bound, "trap_defect": defect, "trapped_sites": []})
    compressed = lift.conj().T @ A @ lift
    system = compressed.conj().T if dual else compressed
    X_c, bound_c, residual = _certify(system, lift.conj().T @ rhs,
                                      {s: v.shape[1] for s, v in free.items() if v.shape[1]})
    if not bound_c < 1.0 - DIVERGENCE_TOL:
        raise NumericalError(
            "the series is not certified convergent, not even off its trapped part",
            {"radius_bound": bound, "compressed_radius_bound": bound_c,
             "trapped_sites": list(trapped)})
    return DomainSolve(lift @ X_c, "compressed", trapped, bound_c, residual, system, lift)


def _trapped_split(A: np.ndarray, dims: dict) -> tuple[dict, dict]:
    """Per-block orthonormal bases of the complement of T and of T, the
    support of the Cesaro fixed point of ``vec(Id)`` under ``S = Id - A``."""
    from .structure import RANK_TOL

    fixed, _ = fixed_point_projection(_id_minus(A.copy()), _trace_vector(dims))
    eig, off = {}, 0
    for s, d in dims.items():
        eig[s] = np.linalg.eigh(herm(unvec(fixed[off:off + d * d], d)))
        off += d * d
    top = max(0.0, *(float(w.max()) for w, _ in eig.values()))
    cut = {s: w <= RANK_TOL * top for s, (w, _) in eig.items()}
    return ({s: v[:, cut[s]] for s, (_, v) in eig.items()},
            {s: v[:, ~cut[s]] for s, (_, v) in eig.items()})


def _lift(bases: dict) -> np.ndarray:
    """Block-diagonal ``(+)_s kron(conj V_s, V_s)``, which maps ``vec(x_s)``
    to ``vec(V_s x_s V_s^dag)``."""
    out = np.zeros((sum(v.shape[0] ** 2 for v in bases.values()),
                    sum(v.shape[1] ** 2 for v in bases.values())), dtype=COMPLEX)
    r = c = 0
    for v in bases.values():
        d, k = v.shape
        out[r:r + d * d, c:c + k * k] = kraus_block(v)
        r, c = r + d * d, c + k * k
    return out


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
        """Choi matrix (unnormalized) of the represented map."""
        ds, dt = self.source_dim, self.target_dim
        c = np.zeros((ds * dt, ds * dt), dtype=COMPLEX)
        for k in range(ds):
            for l in range(ds):
                e = np.zeros((ds, ds), dtype=COMPLEX)
                e[k, l] = 1.0
                c[np.ix_(range(k * dt, (k + 1) * dt), range(l * dt, (l + 1) * dt))] = \
                    self.apply(e)
        return c

    def is_completely_positive(self, tol: float = 1e-8) -> bool:
        return is_psd(self.choi(), tol)

    def is_contraction(self, tol: float = 1e-8) -> bool:
        w = np.linalg.eigh(self.dual_identity())[0]
        return bool(w.min(initial=0.0) >= -tol and w.max(initial=0.0) <= 1.0 + tol)


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
        diagnostics={"method": "solve"})


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
    returns forever.
    """
    rho = np.asarray(rho, dtype=COMPLEX)
    check_state(walk, DiagonalState({_site_id(i): rho}))
    sigma = taboo_operator(walk, i, j).apply(rho)
    tr_sigma = float(np.trace(sigma).real)
    if tr_sigma <= 1e-14:
        return ExpectationResult(0.0, {"method": "solve", "first_passage_mass": tr_sigma})
    j = _site_id(j)
    P = capture_series(walk, j, j).matrix()
    solve = _domain_solve(_id_minus(P.copy()), vec(sigma)[:, None], {j: walk.dims[j]})
    diag = solve.diagnostics
    if solve.method == "compressed":
        fixed, _ = fixed_point_projection(P, vec(sigma))
        mass = float(np.trace(unvec(fixed, walk.dims[j])).real)
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
    op = taboo_operator(walk, i, j)
    out = op.apply(rho)
    t = float(np.trace(out).real)
    if t <= 1e-12:
        raise InputError("conditional state undefined: passage probability is zero")
    return herm(out / t)


# ---------------------------------------------------------------------------
# finite domains


def boundary(walk: WalkSpec, domain) -> tuple[Site, ...]:
    """Sites outside the domain receiving a nonzero transition from it."""
    D = {_site_id(s) for s in domain}
    unknown = D - set(walk.sites)
    if unknown:
        raise InputError(f"domain has unknown sites {sorted(unknown)}")
    out = []
    for s in walk.sites:
        if s in D:
            continue
        if any(_nonzero(walk, s, j) for j in D):
            out.append(s)
    return tuple(out)


def domain_operator(walk: WalkSpec, domain, i, j) -> CPMapBlock:
    """Exit-path operator: paths i -> j whose intermediates stay in the domain.

    For a boundary target this captures the exit event through j; for an
    interior target it captures {t_j <= t_boundary} (the first visit to j
    before leaving the domain).
    """
    D = {_site_id(s) for s in domain}
    if _site_id(i) not in D:
        raise InputError(f"start site {i!r} is not in the domain")
    taboo = [s for s in walk.sites if s not in D]
    return taboo_operator(walk, i, j, taboo=taboo)


@dataclass
class DomainBlocks:
    """The one-step map inside a domain ``D`` (``A = Id - K_DD``) and from it
    onto its boundary (``K_out = K_{bnd,D}``), indexed in walk site order."""

    inner: BlockIndex
    outer: BlockIndex
    A: np.ndarray
    K_out: np.ndarray


def _domain_blocks(walk: WalkSpec, domain, bnd) -> DomainBlocks:
    D = {_site_id(s) for s in domain}
    inner = BlockIndex.build(walk, [s for s in walk.sites if s in D])
    outer = BlockIndex.build(walk, bnd)
    return DomainBlocks(inner, outer, _id_minus(block_matrix(walk, inner, inner)),
                        block_matrix(walk, outer, inner))


def _forward_solve(walk: WalkSpec, domain, bnd, i,
                   rho: np.ndarray) -> tuple[DomainBlocks, np.ndarray, DomainSolve]:
    """The domain's blocks, the start vector (rho at i) and the solve of the
    occupation ``sum_n K_DD^n`` of the start vector."""
    i = _site_id(i)
    if i not in {_site_id(s) for s in domain}:
        raise InputError(f"start site {i!r} is not in the domain")
    blocks = _domain_blocks(walk, domain, bnd)
    rhs = np.zeros((blocks.inner.total, 1), dtype=COMPLEX)
    lo, hi = blocks.inner.offsets[i]
    rhs[lo:hi, 0] = vec(rho)
    return blocks, rhs, _domain_solve(blocks.A, rhs, blocks.inner.dims(walk))


def _exit_states(walk: WalkSpec, domain, bnd, i, rho: np.ndarray) -> dict[Site, np.ndarray]:
    """Unnormalized state at the exit through each boundary site, from (i, rho).

    One certified solve gives ``K_{bnd,D} (Id - K_DD)^{-1}`` applied to rho
    at i for every boundary site at once; trapped mass never exits, so the
    compressed solve of a trapping domain gives the same exit states.
    """
    blocks, _, solve = _forward_solve(walk, domain, bnd, i, rho)
    return blocks.outer.unpack(walk, blocks.K_out @ solve.x[:, 0])


def exit_probability(walk: WalkSpec, domain, i, rho) -> float:
    """Probability of ever leaving the domain through its boundary."""
    rho = np.asarray(rho, dtype=COMPLEX)
    check_state(walk, DiagonalState({_site_id(i): rho}))
    bnd = boundary(walk, domain)
    if not bnd:
        raise InputError("domain has empty boundary")
    states = _exit_states(walk, domain, bnd, i, rho)
    total = 0.0
    for j in bnd:
        total += float(np.trace(states[j]).real)
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
    rho = np.asarray(rho, dtype=COMPLEX)
    check_state(walk, DiagonalState({_site_id(i): rho}))
    bnd = boundary(walk, domain)
    if not bnd:
        raise InputError("domain has empty boundary")
    states = _exit_states(walk, domain, bnd, i, rho)
    masses = {}
    cond = {}
    for j in bnd:
        out = states[j]
        t = float(np.trace(out).real)
        masses[j] = max(0.0, t)
        if t > 1e-12:
            cond[j] = herm(out / t)
    total = sum(masses.values())
    return HarmonicMeasure(start=_site_id(i), masses=masses,
                           conditional_states=cond, total_mass=total)


def expected_domain_visits(walk: WalkSpec, domain, i, rho, j) -> float:
    """Expected visits to j in the domain before first leaving it.

    From the occupation ``x = sum_{n >= 0} K_DD^n (rho at i)`` of one forward
    solve the count is ``tr x_j - delta_ij tr rho``.  The count is infinite,
    and :class:`NumericalError` is raised, exactly when the Cesaro fixed point
    of the start state has mass at j.
    """
    rho = np.asarray(rho, dtype=COMPLEX)
    j = _site_id(j)
    if j not in {_site_id(s) for s in domain}:
        raise InputError(f"target {j!r} must lie inside the domain")
    blocks, rhs, solve = _forward_solve(walk, domain, (), i, rho)
    lo, hi = blocks.inner.offsets[j]
    tr_rho = float(np.trace(rho).real)
    if solve.method == "compressed":
        fixed, _ = fixed_point_projection(_id_minus(blocks.A.copy()), rhs[:, 0])
        mass = float(np.trace(unvec(fixed[lo:hi], walk.dims[j])).real)
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
