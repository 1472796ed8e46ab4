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

Convergence is decided by one solve per series: next to ``E`` the solve
takes ``vec(Id)`` on every interior block, and a Hermitian solution
``Y >= Id`` certifies ``r(S) <= 1 - 1/lmax(Y)`` because ``S`` is a positive
map.  Only when that certificate is missing or not below
``1 - DIVERGENCE_TOL`` is the exact radius taken from dense ``eigvals``.
When the retained interior has spectral radius within ``DIVERGENCE_TOL`` of
1, computations fall back to the length-weighted family (weight ``alpha``
per step) and a monotone limit ``alpha -> 1``.  Diagnostics name the method
(``"solve"`` or ``"alpha_limit"``), the ``radius_bound``, its
``radius_source`` (``"certificate"`` or ``"eigvals"``) and the solve's
relative ``residual``.

Infinity is a first-class value: expectations return ``math.inf`` together
with diagnostics, never an exception, when the underlying series diverges.

Finite domains (exit states, harmonic measure, visits before exit and the
Dirichlet problems built on them) make one certified block solve with the
one-step map ``K_DD`` inside the domain.  A domain that fails the
certificate traps mass in an invariant part T, the support of the Cesaro
fixed point of ``vec(Id)`` under ``K_DD``; T never exits, so the solve runs
exactly on the compression to the complement of T (see
:func:`_domain_solve`).  :func:`domain_operator` keeps the per-pair taboo
series as public API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .linalg import (
    COMPLEX,
    extend_basis,
    herm,
    is_psd,
    kraus_block,
    spectral_radius,
    unvec,
    vec,
)
from .superop import BlockIndex, block_matrix, fixed_point_projection
from .walk import DiagonalState, Site, WalkSpec, _site_id, check_state

ALPHA_GRID = (0.9, 0.99, 0.999, 0.9999)
DIVERGENCE_TOL = 1e-7
CERTIFICATE_RESIDUAL_TOL = 1e-8  # relative residual above which a solve certifies nothing
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
    Kraus blocks when read.  ``resolvent`` is ``(Id - S)^{-1} E`` from the
    certifying solve (None if that solve failed).  ``radius_bound`` bounds the
    spectral radius of ``S`` from above and is exact when ``radius_source`` is
    ``"eigvals"``; ``residual`` is the certifying solve's relative residual.
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
    resolvent: np.ndarray | None
    radius_bound: float
    radius_source: str
    residual: float
    _radius: float | None = field(default=None, repr=False)

    @property
    def S(self) -> np.ndarray:
        """One-step map on the interior (a fresh array on every read)."""
        idx = BlockIndex.build(self.walk, self.interior)
        return block_matrix(self.walk, idx, idx)

    @property
    def interior_radius(self) -> float:
        """Exact spectral radius of ``S`` by dense ``eigvals``, computed on first read."""
        if self._radius is None:
            self._radius = spectral_radius(self.S)
        return self._radius

    @property
    def convergent(self) -> bool:
        return self.radius_bound < 1.0 - DIVERGENCE_TOL

    @property
    def diagnostics(self) -> dict:
        return {"radius_bound": self.radius_bound, "radius_source": self.radius_source,
                "residual": self.residual}

    def matrix(self, alpha: float = 1.0) -> np.ndarray:
        """Vec-matrix of the (alpha-weighted) taboo path sum, d_j^2 x d_i^2."""
        walk = self.walk
        dj2 = walk.dims[self.target] ** 2
        di2 = walk.dims[self.source] ** 2
        m = np.zeros((dj2, di2), dtype=COMPLEX)
        if self.direct is not None:
            m += alpha * walk.kraus(self.target, self.source)
        if self.A.shape[0]:
            if alpha == 1.0 and self.resolvent is not None:
                resolvent = self.resolvent
            else:
                shifted = self.A if alpha == 1.0 else _id_minus(self.S, alpha)
                resolvent = np.linalg.solve(shifted, self.E)
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
    endpoints are unconstrained.  One solve gives both the resolvent and the
    convergence certificate (see :func:`_certify`).
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
    A = _id_minus(block_matrix(walk, idx, idx))
    E = block_matrix(walk, idx, BlockIndex.build(walk, (i,)))
    C = block_matrix(walk, BlockIndex.build(walk, (j,)), idx)
    resolvent, bound, residual = _certify(walk, idx, A, E)
    series = CaptureSeries(
        walk=walk, source=i, target=j, taboo=taboo, interior=interior,
        direct=walk.transitions.get((j, i)), A=A, E=E, C=C, resolvent=resolvent,
        radius_bound=bound, radius_source="certificate", residual=residual)
    if not bound < 1.0 - DIVERGENCE_TOL:
        series.radius_bound = series.interior_radius
        series.radius_source = "eigvals"
        if series.convergent and resolvent is None:
            series.resolvent = np.linalg.solve(A, E)
    return series


def _id_minus(m: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """``Id - alpha m``, computed in place."""
    m *= -alpha
    m.reshape(-1)[:: m.shape[0] + 1] += 1.0   # the diagonal
    return m


def _certify(walk: WalkSpec, idx: BlockIndex, A: np.ndarray,
             E: np.ndarray) -> tuple[np.ndarray | None, float, float]:
    """Solve ``A [R | Y] = [E | vec(Id on every block)]`` with ``A = Id - S``.

    ``S`` is a positive map, so a solution whose blocks are Hermitian and
    ``>= Id`` gives ``S(Y) = Y - Id <= (1 - 1/lmax(Y)) Y`` and hence
    ``r(S) <= 1 - 1/lmax(Y)`` (Perron-Frobenius for positive maps); the
    residual of the ``Y`` column is charged against the ``Id`` term.
    Conversely ``r(S) < 1`` makes ``Y`` the series ``sum_n S^n(Id) >= Id``.
    Returns ``(R, bound, relative residual)``; the bound is ``inf`` when the
    solve fails or ``Y`` is no certificate.
    """
    if not A.shape[0]:
        return E, 0.0, 0.0
    ones = idx.trace_vector(walk)
    rhs = np.column_stack([E, ones])
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
    for d, starts in _blocks_by_dim(walk, idx).items():
        take = (starts[:, None] + np.arange(d * d)).ravel()
        blocks = X[take, -1].reshape(-1, d, d)   # transposed blocks: same spectra
        h = 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))
        skew = max(skew, float(np.abs(blocks - h).max()))
        w = np.linalg.eigvalsh(h)
        lo, hi = min(lo, float(w.min())), max(hi, float(w.max()))
    eps = float(np.linalg.norm(resid[:, -1]))
    if skew > 1e-8 * hi or lo <= 0.0 or lo < 1.0 - 1e-6 * hi:
        return R, math.inf, residual
    return R, max(0.0, 1.0 - (1.0 - eps) / hi), residual


def _blocks_by_dim(walk: WalkSpec, idx: BlockIndex) -> dict[int, np.ndarray]:
    """Block start offsets in ``idx``, grouped by the block's site dimension."""
    out: dict[int, list] = {}
    for s in idx.sites:
        out.setdefault(walk.dims[s], []).append(idx.offsets[s][0])
    return {d: np.asarray(v) for d, v in out.items()}


# ---------------------------------------------------------------------------
# taboo-path operators


@dataclass
class CPMapBlock:
    """A completely positive block map ``I_1(h_source) -> I_1(h_target)``.

    ``matrix`` acts on column-major vectorized blocks.  ``alpha`` is the
    per-step weight used to build it (None for the unweighted map), and
    ``diagnostics`` records the method ("solve" for a direct resolvent,
    "alpha_limit" for the extrapolated weighted family) and the interior
    radius bound with its source and the solve's relative residual.
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
        w = np.linalg.eigvalsh(self.dual_identity())
        return bool(w.min(initial=0.0) >= -tol and w.max(initial=0.0) <= 1.0 + tol)


def _aitken(v1, v2, v3):
    """Entrywise Aitken delta-squared limit of three successive values; where
    the second difference vanishes the last value is kept."""
    v1, v2, v3 = np.asarray(v1), np.asarray(v2), np.asarray(v3)
    d2 = v3 - v2
    denom = (v2 - v1) - d2
    safe = np.abs(denom) > 1e-14
    return np.where(safe, v3 + d2 * d2 / np.where(safe, denom, 1.0), v3)


def _alpha_limit_matrix(series: CaptureSeries) -> tuple[np.ndarray, dict]:
    mats = [series.matrix(a) for a in ALPHA_GRID]
    dj = series.walk.dims[series.target]
    duals = [herm(unvec(m.conj().T @ vec(np.eye(dj, dtype=COMPLEX)),
                        series.walk.dims[series.source])) for m in mats]
    for a, b in zip(duals, duals[1:]):
        if np.linalg.eigvalsh(herm(b - a)).min(initial=0.0) < -1e-8:
            raise NumericalError(
                "alpha-weighted family is not monotone; no limit detected",
                {"spectral_radius": series.interior_radius})
    deltas = [float(np.abs(b - a).max(initial=0.0)) for a, b in zip(mats, mats[1:])]
    if deltas[-1] > max(1e-12, 0.9 * deltas[-2]):
        raise NumericalError(
            "alpha-weighted family does not converge on the grid",
            {"spectral_radius": series.interior_radius, "deltas": deltas})
    return _aitken(*mats[-3:]), {"spectral_radius": series.interior_radius,
                                 "method": "alpha_limit", "alpha_grid": list(ALPHA_GRID),
                                 **series.diagnostics}


def _taboo_block(series: CaptureSeries) -> CPMapBlock:
    if series.convergent:
        m = series.matrix()
        diag = {"method": "solve", **series.diagnostics}
    else:
        m, diag = _alpha_limit_matrix(series)
    walk = series.walk
    return CPMapBlock(
        source=series.source, target=series.target,
        source_dim=walk.dims[series.source], target_dim=walk.dims[series.target],
        matrix=m, taboo=series.taboo, alpha=None, diagnostics=diag)


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
        diagnostics={"method": "solve", **series.diagnostics})


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


def _krylov_radius(P: np.ndarray, seed: np.ndarray, tol: float = 1e-10) -> tuple[float, np.ndarray]:
    """Spectral radius of P restricted to the Krylov span of the seed."""
    basis = np.zeros((P.shape[0], 0), dtype=COMPLEX)
    v = seed.reshape(-1, 1)
    for _ in range(P.shape[0]):
        before = basis.shape[1]
        basis = extend_basis(basis, v, tol=tol)
        if basis.shape[1] == before:
            break
        v = P @ basis[:, before:]
    if basis.shape[1] == 0:
        return 0.0, basis
    return spectral_radius(basis.conj().T @ P @ basis), basis


def expected_visits(walk: WalkSpec, i, rho, j) -> ExpectationResult:
    """Expected number of visits to j from (i, rho); may be ``inf``.

    Finite values come from the resolvent ``(Id - P_jj)^{-1} P_ji``; when the
    return operator has spectral radius 1 on the reachable part, the
    length-weighted family is evaluated on an increasing alpha grid and the
    growth of its traces decides between a finite extrapolated limit and
    infinity.
    """
    rho = np.asarray(rho, dtype=COMPLEX)
    check_state(walk, DiagonalState({_site_id(i): rho}))
    sigma = taboo_operator(walk, i, j).apply(rho)
    tr_sigma = float(np.trace(sigma).real)
    if tr_sigma <= 1e-14:
        return ExpectationResult(0.0, {"method": "solve", "first_passage_mass": tr_sigma})
    returns = capture_series(walk, j, j)
    if returns.convergent:
        P = returns.matrix()
        radius = spectral_radius(P)
        if radius < 1.0 - DIVERGENCE_TOL:
            x = np.linalg.solve(np.eye(P.shape[0], dtype=COMPLEX) - P, vec(sigma))
            val = float(np.vdot(vec(np.eye(walk.dims[_site_id(j)], dtype=COMPLEX)), x).real)
            return ExpectationResult(val, {"method": "solve", "spectral_radius": radius,
                                           **returns.diagnostics})
        kr_radius, basis = _krylov_radius(P, vec(sigma))
        if kr_radius < 1.0 - DIVERGENCE_TOL:
            Pr = basis.conj().T @ P @ basis
            xr = np.linalg.solve(np.eye(Pr.shape[0], dtype=COMPLEX) - Pr,
                                 basis.conj().T @ vec(sigma))
            tvec = basis.conj().T @ vec(np.eye(walk.dims[_site_id(j)], dtype=COMPLEX))
            val = float(np.vdot(tvec, xr).real)
            return ExpectationResult(val, {"method": "solve",
                                           "spectral_radius": kr_radius,
                                           "restricted": True, **returns.diagnostics})
    return _alpha_limit_trace(capture_series(walk, i, j), returns, rho)


def _alpha_limit_value(values: list[float]) -> float | None:
    """Limit of an increasing alpha-grid sequence: ``inf`` when the last
    increments grow, the Aitken limit when they flatten or shrink
    geometrically, None when the grid is inconclusive."""
    inc = [b - a for a, b in zip(values, values[1:])]
    if values[-1] > 1e12 or (inc[-1] > 1e-9 and inc[-1] > 1.5 * inc[-2]):
        return math.inf
    settled = abs(inc[-1]) <= max(1e-9, 1e-6 * abs(values[-1]))
    if settled or inc[-1] < 0.9 * inc[-2]:
        return float(_aitken(*values[-3:]))
    return None


def _alpha_limit_trace(first: CaptureSeries, returns: CaptureSeries,
                       rho: np.ndarray) -> ExpectationResult:
    tvec = vec(np.eye(first.walk.dims[returns.target], dtype=COMPLEX))
    values = []
    for a in ALPHA_GRID:
        sig = first.matrix(a) @ vec(rho)
        P = returns.matrix(a)
        x = np.linalg.solve(np.eye(P.shape[0], dtype=COMPLEX) - P, sig)
        values.append(float(np.vdot(tvec, x).real))
    diag = {"method": "alpha_limit", "alpha_grid": list(ALPHA_GRID),
            "alpha_values": values,
            "spectral_radius": returns.interior_radius, **returns.diagnostics}
    val = _alpha_limit_value(values)
    if val is None:
        raise NumericalError("alpha limit of expected visits is inconclusive", diag)
    return ExpectationResult(val, diag)


def expected_return_time(walk: WalkSpec, i, rho, j) -> ExpectationResult:
    """Expected first-passage time from (i, rho) to j; ``inf`` when the
    passage probability falls short of 1 or the weighted series diverges."""
    rho = np.asarray(rho, dtype=COMPLEX)
    check_state(walk, DiagonalState({_site_id(i): rho}))
    series = capture_series(walk, i, j)
    p = _passage(_taboo_block(series), rho)
    if p < 1.0 - PASSAGE_SURE_TOL:
        return ExpectationResult(math.inf, {"method": "passage_deficit",
                                            "passage_probability": p})
    dj = walk.dims[series.target]
    tvec = vec(np.eye(dj, dtype=COMPLEX))
    m1 = 0.0
    if series.direct is not None:
        m1 = float(np.trace(series.direct @ rho @ series.direct.conj().T).real)
    if series.convergent:
        val = m1
        if series.A.shape[0]:
            y = series.resolvent @ vec(rho)
            z = np.linalg.solve(series.A, y)
            val += float(np.vdot(tvec, series.C @ (y + z)).real)
        diag = {"method": "solve", "passage_probability": p, **series.diagnostics}
        return ExpectationResult(val, diag)
    # weighted-derivative fallback on the alpha grid
    S = series.S
    derivs = [_weighted_time_derivative(series, S, rho, a) for a in ALPHA_GRID]
    diag = {"method": "alpha_limit", "alpha_grid": list(ALPHA_GRID),
            "alpha_values": derivs, "spectral_radius": series.interior_radius,
            "passage_probability": p, **series.diagnostics}
    val = _alpha_limit_value(derivs)
    return ExpectationResult(math.inf if val is None else val, diag)


def _weighted_time_derivative(series: CaptureSeries, S: np.ndarray, rho: np.ndarray,
                              alpha: float) -> float:
    """d/dalpha of the weighted passage mass, evaluated exactly at alpha."""
    dj = series.walk.dims[series.target]
    tvec = vec(np.eye(dj, dtype=COMPLEX))
    m1 = 0.0
    if series.direct is not None:
        m1 = float(np.trace(series.direct @ rho @ series.direct.conj().T).real)
    if not S.shape[0]:
        return m1
    eye = np.eye(S.shape[0], dtype=COMPLEX)
    y = np.linalg.solve(eye - alpha * S, series.E @ vec(rho))
    z = np.linalg.solve(eye - alpha * S, S @ y)
    term = np.vdot(tvec, series.C @ (2 * alpha * y + alpha * alpha * z)).real
    return m1 + float(term)


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


@dataclass
class DomainSolve:
    """A certified domain solve (see :func:`_domain_solve`): ``method`` is
    ``"block_solve"`` or ``"compressed"``, ``trapped`` the sites where the
    trapped part is nonzero; bound and residual are the certifying solve's."""

    x: np.ndarray
    method: str
    trapped: tuple[Site, ...]
    radius_bound: float
    residual: float


def _domain_solve(walk: WalkSpec, inner: BlockIndex, A: np.ndarray, rhs: np.ndarray,
                  dual: bool = False) -> DomainSolve:
    """Solve ``A X = rhs`` (``dual``: ``A^dag X = rhs``) with ``A = Id - K_DD``.

    The solve certifies ``r(K_DD) < 1 - DIVERGENCE_TOL`` (see
    :func:`_certify`).  When it does not, the domain traps mass: T, the
    support of the Cesaro fixed point of ``vec(Id)`` under ``K_DD``, is
    invariant and has no exit, so over ``T (+) T^perp`` the map is
    block-triangular and its compression to ``T^perp`` (blocks
    ``V_to^dag L V_fr``) has spectral radius below 1.  The solve then runs
    there on ``V^dag rhs V`` and is lifted back as ``V x V^dag``, which is
    exact for every quantity that only sees ``T^perp`` (exits, and the dual
    problem with no data on T).  With nothing trapped the compression is the
    identity; :class:`NumericalError` when neither solve certifies.
    """
    X, bound, residual = _certify(walk, inner, A.conj().T if dual else A, rhs)
    if bound < 1.0 - DIVERGENCE_TOL:
        return DomainSolve(X, "block_solve", (), bound, residual)
    from .structure import Enclosure, restrict_walk

    keep = _untrapped_bases(walk, inner, A)
    trapped = tuple(s for s in inner.sites if keep[s].shape[1] < walk.dims[s])
    if not any(v.shape[1] for v in keep.values()):
        return DomainSolve(np.zeros_like(rhs), "compressed", trapped, 0.0, 0.0)
    sub, _ = restrict_walk(walk, Enclosure(keep))
    idx = BlockIndex.build(sub, sub.sites)
    lift = np.zeros((inner.total, idx.total), dtype=COMPLEX)
    for s in idx.sites:
        (r0, r1), (c0, c1) = inner.offsets[s], idx.offsets[s]
        lift[r0:r1, c0:c1] = kraus_block(keep[s])   # vec(V x V^dag) = kron(conj V, V) vec(x)
    A_c = _id_minus(block_matrix(sub, idx, idx))
    X_c, bound_c, residual = _certify(sub, idx, A_c.conj().T if dual else A_c,
                                      lift.conj().T @ rhs)
    if not bound_c < 1.0 - DIVERGENCE_TOL:
        raise NumericalError(
            "the domain map is not certified convergent, not even off its trapped part",
            {"radius_bound": bound, "compressed_radius_bound": bound_c,
             "trapped_sites": list(trapped)})
    return DomainSolve(lift @ X_c, "compressed", trapped, bound_c, residual)


def _untrapped_bases(walk: WalkSpec, inner: BlockIndex, A: np.ndarray) -> dict[Site, np.ndarray]:
    """Per-site orthonormal bases of the complement of the trapped part, the
    support of the Cesaro fixed point of ``vec(Id)`` under ``K_DD = Id - A``."""
    from .structure import RANK_TOL

    fixed, _ = fixed_point_projection(_id_minus(A.copy()), inner.trace_vector(walk))
    eig = {s: np.linalg.eigh(herm(b)) for s, b in inner.unpack(walk, fixed).items()}
    top = max(float(w.max()) for w, _ in eig.values())
    return {s: v[:, w <= RANK_TOL * top] for s, (w, v) in eig.items()}


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
    return blocks, rhs, _domain_solve(walk, blocks.inner, blocks.A, rhs)


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
    if n < 3:
        return seq[-1]
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
