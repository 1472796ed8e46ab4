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
certified solve.  Next to its right-hand side the solve takes ``vec(Id)`` on
every block, its layout's trace vector, and a Hermitian solution ``Y >= Id`` certifies
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
relative ``residual``.  A later solve on a kept factor, the one place a factor
is reused (:meth:`DomainSolve.resolve`), is held to the same residual gate.

Infinity is a first-class value: expectations return ``math.inf`` together
with diagnostics, never an exception, when the underlying series diverges.
An expected visit count is infinite exactly when the Cesaro projection of
the first-passage state under the return map keeps trace mass.

First-passage queries (passage, visits, return time, the state at the
hit) share one entry that checks the start state before building the
series; finite domains (exit states, harmonic measure, visits before exit)
share one check of their input; exit states and every Dirichlet answer read
the domain's exit law, kept in the walk's store for the four domains built
last (:func:`_exit_law`), the whole-space problem's all-sites law among them.
:func:`domain_operator` keeps the per-pair taboo series as public API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
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
ESCAPE_TOL = 1e-6  # a passage or exit probability leaving [0, 1] by more than this is an error
ZERO_MASS_TOL = 1e-12  # a passage, exit or invariant mass at or below this is zero
TRAPPED_SHARE_TOL = 1e-10  # a trapped (Cesaro) mass above this share of its start mass is trapped
CP_TOL = 1e-8  # Choi and dual-identity eigenvalue slack of a CP contraction
SPARSE_MIN_UNKNOWNS = 128  # systems with this many unknowns or more are factored by sparse LU


# ---------------------------------------------------------------------------
# capture-series plumbing


def _search(step: list, seeds, marks: bytearray, free: int) -> list[int]:
    """Positions marked ``free`` that are reached from ``seeds`` along ``step``
    (the walk's successor or predecessor positions per site) through positions
    marked ``free``, breadth first; each is marked ``free + 1`` when found."""
    found, taken = [], free + 1
    for s in seeds:
        if marks[s] == free:
            marks[s] = taken
            found.append(s)
    for s in found:   # grows while it is read
        for t in step[s]:
            if marks[t] == free:
                marks[t] = taken
                found.append(t)
    return found


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
        return _domain_solve(self.A, rhs, self.inner, dual)


def _domain_blocks(walk: WalkSpec, inner, outer) -> DomainBlocks:
    """The one builder: the system on the sites at positions ``inner`` (ascending)
    with its exit block onto those at ``outer``."""
    inner, outer = BlockIndex.at(walk, inner), BlockIndex.at(walk, outer)
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
        ``alpha = 1``, else a new solve."""
        if alpha == 1.0:
            return self.solved
        # Id - alpha S = (1 - alpha) Id + alpha A
        return _domain_solve(alpha * self.A + (1.0 - alpha) * _eye(self.A), self.E, self.inner)

    def matrix(self, alpha: float = 1.0, solved: DomainSolve | None = None) -> np.ndarray:
        """Vec-matrix of the (alpha-weighted) taboo path sum, d_j^2 x d_i^2, from
        ``solved``, the :meth:`_weighted` solve (made here when not given)."""
        walk = self.walk
        m = np.zeros((walk.dims[self.target] ** 2, walk.dims[self.source] ** 2), dtype=COMPLEX)
        if self.direct is not None:
            m += alpha * walk.kraus(self.target, self.source)
        if self.A.shape[0]:
            m += (alpha ** 2) * (self.C @ (solved or self._weighted(alpha)).x)
        return m


def capture_series(walk: WalkSpec, i, j, taboo=()) -> CaptureSeries:
    """Build the capture decomposition for paths i -> j avoiding the taboo set.

    Intermediate vertices must avoid ``taboo`` and the target ``j``; the
    endpoints are unconstrained.  The series is summed, and its convergence
    certified, by one solve on first use (:attr:`CaptureSeries.solved`).
    """
    i, j, *taboo = _known_sites(walk, [i, j, *taboo])
    taboo, at, graph = frozenset(taboo), walk._index, walk._graph
    marks = bytearray(b"\x01") * len(walk.sites)   # 1: allowed interior site
    for s in (*taboo, j):
        marks[at[s]] = 0
    # 2: reached from i; 3: and reaching j, its last block above the walk's
    # tolerance (every site on such a path is reached from i)
    _search(graph.succ, graph.succ[at[i]], marks, 1)
    interior = _search(graph.pred, graph.pred_above[at[j]], marks, 2)
    blocks = _domain_blocks(walk, sorted(interior), [at[j]])
    return CaptureSeries(
        **vars(blocks), source=i, target=j, taboo=taboo, direct=walk.transitions.get((j, i)),
        E=block_matrix(walk, blocks.inner, BlockIndex.at(walk, [at[i]])))


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


def _certify(A, rhs: np.ndarray, layout: BlockIndex
             ) -> tuple[np.ndarray | None, float, float, Callable]:
    """Solve ``A [X | Y] = [rhs | vec(Id on every block)]`` with ``A = Id - S``
    (dense or sparse) by one factorization of ``A``.

    ``S`` is a positive map on the blocks of ``layout``, so a solution
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
    rhs = np.column_stack([rhs, layout.trace])
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
    for d, starts in layout.groups.items():
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
    ``factor`` (with ``lift``, when compressed) is its kept ``b -> A^{-1} b``
    of ``A = Id - S`` (``dual``: ``A^dag``), read by :meth:`resolve` only.
    ``cesaro`` (when compressed) is the Cesaro limit of ``rhs`` under ``S``,
    the mass that stays trapped, from the projection that found that part.
    """

    x: np.ndarray
    method: str
    trapped: tuple[Site, ...]
    radius_bound: float
    residual: float
    factor: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    A: object = field(repr=False)
    dual: bool
    lift: np.ndarray | None = field(default=None, repr=False)
    cesaro: np.ndarray | None = field(default=None, repr=False)

    @property
    def diagnostics(self) -> dict:
        """The solve as hitting results report it."""
        return {"method": "solve" if self.method == "block_solve" else self.method,
                "radius_bound": self.radius_bound, "radius_source": "certificate",
                "residual": self.residual}

    def trapped_mass(self, lo: int, d: int, start_mass: float) -> float | None:
        """The :attr:`cesaro` mass of the d x d block at offset ``lo`` when it
        exceeds ``TRAPPED_SHARE_TOL * start_mass``, else None."""
        if self.cesaro is None:
            return None
        mass = float(np.trace(unvec(self.cesaro[lo:lo + d * d, 0], d)).real)
        return mass if mass > TRAPPED_SHARE_TOL * start_mass else None

    def resolve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the same certified system for another right-hand side; NumericalError
        when its relative residual (off the trapped part) exceeds ``CERTIFICATE_RESIDUAL_TOL``."""
        lift = self.lift
        y = self.factor(rhs) if lift is None else lift @ self.factor(lift.conj().T @ rhs)
        r = (self.A.conj().T if self.dual else self.A) @ y - rhs
        r = float(np.linalg.norm(r if lift is None else lift.conj().T @ r))
        if r > CERTIFICATE_RESIDUAL_TOL * np.linalg.norm(rhs):
            raise NumericalError("a solve on a kept factor misses its residual gate",
                                 {"residual": r})
        return y


def _domain_solve(A, rhs: np.ndarray, layout: BlockIndex, dual: bool = False) -> DomainSolve:
    """Solve ``A x = rhs`` (``dual``: ``A^dag x = rhs``) with ``A = Id - S``,
    ``S`` a positive, trace non-increasing map on the blocks of ``layout``,
    dense or sparse; only the trapped-part search below densifies it.

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
    X, bound, residual, solve = _certify(system, rhs, layout)
    if bound < 1.0 - DIVERGENCE_TOL:
        return DomainSolve(X, "block_solve", (), bound, residual, solve, A, dual)
    free, trap, cesaro = _trapped_split(A, layout, rhs)
    trapped = tuple(s for s, w in zip(layout.sites, trap) if w.shape[1])
    if not trapped:
        if bound < 1.0:
            return DomainSolve(X, "block_solve", (), bound, residual, solve, A, dual)
        raise NumericalError("the series is not certified convergent and traps nothing",
                             {"radius_bound": bound, "trapped_sites": []})
    lift, lift_t = _lift(free), _lift(trap)
    defect = max(float(np.linalg.norm(lift.conj().T @ (A @ lift_t))),
                 float(np.linalg.norm(layout.trace.conj() @ (A @ lift_t))))
    if defect > TRAP_DEFECT_TOL:
        raise NumericalError(
            "the series is not certified convergent, and its near-fixed part is not trapped",
            {"radius_bound": bound, "trap_defect": defect, "trapped_sites": []})
    compressed = lift.conj().T @ (A @ lift)
    system = compressed.conj().T if dual else compressed
    X_c, bound_c, residual, solve = _certify(
        system, lift.conj().T @ rhs, BlockIndex.of_sizes([v.shape[1] for v in free]))
    if not bound_c < 1.0 - DIVERGENCE_TOL:
        raise NumericalError(
            "the series is not certified convergent, not even off its trapped part",
            {"radius_bound": bound, "compressed_radius_bound": bound_c,
             "trapped_sites": list(trapped)})
    return DomainSolve(lift @ X_c, "compressed", trapped, bound_c, residual, solve, A, dual,
                       lift, cesaro)


def _trapped_split(A, layout: BlockIndex, rhs: np.ndarray) -> tuple[list, list, np.ndarray]:
    """Orthonormal bases, block by block, of the complement of T and of T, the
    support of the Cesaro fixed point of ``vec(Id)`` under ``S = Id - A``,
    and the Cesaro limit of ``rhs``: one projection of ``[vec(Id) | rhs]``."""
    S = _eye(A) - A
    fixed, _ = fixed_point_projection(S if isinstance(S, np.ndarray) else S.toarray(),
                                      np.column_stack([layout.trace, rhs]))
    eig = [np.linalg.eigh(herm(b)) for b in layout.unpack(fixed[:, 0]).values()]
    top = max(0.0, *(float(w.max()) for w, _ in eig))
    cuts = [w <= RANK_TOL * top for w, _ in eig]
    return ([v[:, cut] for (_, v), cut in zip(eig, cuts)],
            [v[:, ~cut] for (_, v), cut in zip(eig, cuts)], fixed[:, 1:])


def _lift(bases: list) -> np.ndarray:
    """Block-diagonal ``(+)_s kron(conj V_s, V_s)``, which maps ``vec(x_s)``
    to ``vec(V_s x_s V_s^dag)``."""
    return block_diagonal([kraus_block(v) for v in bases])


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


def _taboo_block(series: CaptureSeries, alpha: float | None = None) -> CPMapBlock:
    """The series' CP map from one certified solve, each step weighted by ``alpha`` if given."""
    walk, weight = series.walk, 1.0 if alpha is None else alpha
    solved = series._weighted(weight)
    return CPMapBlock(
        source=series.source, target=series.target,
        source_dim=walk.dims[series.source], target_dim=walk.dims[series.target],
        matrix=series.matrix(weight, solved), taboo=series.taboo, alpha=alpha,
        diagnostics=solved.diagnostics)


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
    return _taboo_block(capture_series(walk, i, j, taboo), alpha)


# ---------------------------------------------------------------------------
# scalar statistics


def _first_passage(walk: WalkSpec, i, rho, j):
    """The one checked entry of the first-passage queries: the i -> j series, its block, the
    checked ``rho`` as an array, the state at the first visit and its trace in [0, 1]."""
    rho = np.asarray(rho, dtype=COMPLEX)
    check_state(walk, DiagonalState({_site_id(i): rho}))
    series = capture_series(walk, i, j)
    first = _taboo_block(series)
    hit = first.apply(rho)
    p = float(np.trace(hit).real)
    if p < -ESCAPE_TOL or p > 1.0 + ESCAPE_TOL:
        raise NumericalError(f"passage probability {p} escapes [0, 1]", first.diagnostics)
    return series, first, rho, hit, min(1.0, max(0.0, p))


def passage_probability(walk: WalkSpec, i, rho, j) -> float:
    """Probability that the walk started at (i, rho) ever visits j."""
    return _first_passage(walk, i, rho, j)[-1]


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
    return _visits(walk, *_first_passage(walk, i, rho, j))


def _visits(walk: WalkSpec, series, first, rho, sigma, p) -> ExpectationResult:
    tr_sigma = float(np.trace(sigma).real)
    if tr_sigma <= ZERO_MASS_TOL:
        return ExpectationResult(0.0, {"method": "solve", "first_passage_mass": tr_sigma})
    j = series.target
    P = first.matrix if series.source == j else capture_series(walk, j, j).matrix()
    solve = _domain_solve(_eye(P) - P, vec(sigma)[:, None], series.outer)
    diag = solve.diagnostics
    mass = solve.trapped_mass(0, walk.dims[j], tr_sigma)
    if mass is not None:
        return ExpectationResult(math.inf, {**diag, "cesaro_mass": mass})
    return ExpectationResult(float(np.vdot(series.outer.trace, solve.x[:, 0]).real), diag)


def expected_return_time(walk: WalkSpec, i, rho, j) -> ExpectationResult:
    """Expected first-passage time from (i, rho) to j; ``inf`` when the
    passage probability falls short of 1.

    The time is ``sum_n n tr C S^(n-2) E rho`` (plus the direct step): the
    passage series' certified solve and a second solve on the same, possibly
    compressed, system.
    """
    return _return_time(walk, *_first_passage(walk, i, rho, j))


def _return_time(walk: WalkSpec, series, first, rho, sigma, p) -> ExpectationResult:
    if p < 1.0 - PASSAGE_SURE_TOL:
        return ExpectationResult(math.inf, {"method": "passage_deficit",
                                            "passage_probability": p})
    val = 0.0
    if series.direct is not None:
        val = float(np.trace(series.direct @ rho @ series.direct.conj().T).real)
    if series.A.shape[0]:
        y = series.solved.x @ vec(rho)
        z = series.solved.resolve(y)
        val += float(np.vdot(series.outer.trace, series.C @ (y + z)).real)
    return ExpectationResult(val, {**series.diagnostics, "passage_probability": p})


def _passage_statistics(walk: WalkSpec, i, rho, j) -> tuple[float, float, float]:
    """Passage probability, expected visits and return time from one first-passage entry."""
    passage = _first_passage(walk, i, rho, j)
    return passage[-1], _visits(walk, *passage).value, _return_time(walk, *passage).value


def conditional_state_at_hit(walk: WalkSpec, i, rho, j) -> np.ndarray:
    """Expected internal state at the first visit to j, given it happens."""
    out = _first_passage(walk, i, rho, j)[3]
    t = float(np.trace(out).real)
    if t <= ZERO_MASS_TOL:
        raise InputError("conditional state undefined: passage probability is zero")
    return herm(out / t)


# ---------------------------------------------------------------------------
# finite domains


def _domain_sites(walk: WalkSpec, domain) -> tuple[list[Site], list[int]]:
    """The domain's site ids and the ascending, distinct positions of its sites
    in the walk; InputError naming the sites the walk does not have."""
    ids = [_site_id(s) for s in domain]
    pos = list(map(walk._index.get, ids))
    if None in pos:
        raise InputError(f"domain has unknown sites {sorted(set(ids).difference(walk._index))}")
    return ids, sorted(set(pos))


def _boundary(walk: WalkSpec, pos: list[int]) -> list[int]:
    """Ascending positions of :func:`boundary` of the domain at the (checked) positions ``pos``."""
    hit = set(chain.from_iterable(map(walk._graph.succ_above.__getitem__, pos)))
    hit.difference_update(pos)
    return sorted(hit)


def boundary(walk: WalkSpec, domain) -> tuple[Site, ...]:
    """Sites outside the domain receiving a nonzero transition from it."""
    return tuple(map(walk.sites.__getitem__, _boundary(walk, _domain_sites(walk, domain)[1])))


def domain_operator(walk: WalkSpec, domain, i, j) -> CPMapBlock:
    """Exit-path operator: paths i -> j whose intermediates stay in the domain.

    For a boundary target this captures the exit event through j; for an
    interior target it captures {t_j <= t_boundary} (the first visit to j
    before leaving the domain).
    """
    D = set(_domain_sites(walk, domain)[0])
    if _site_id(i) not in D:
        raise InputError(f"start site {i!r} is not in the domain")
    taboo = [s for s in walk.sites if s not in D]
    return taboo_operator(walk, i, j, taboo=taboo)


def _domain_query(walk: WalkSpec, domain, i, rho, target: Site | None = None
                  ) -> tuple[Site, np.ndarray, list[int], list[int]]:
    """The one entry of the domain queries: checks ``rho`` at ``i``, the domain's sites,
    its boundary (exits) or that it holds ``target`` (visits), and that ``i`` lies in it;
    returns ``i``, ``rho`` (an array) and the ascending positions of the domain's sites
    and of its boundary (empty for visits)."""
    i, rho = _site_id(i), np.asarray(rho, dtype=COMPLEX)
    check_state(walk, DiagonalState({i: rho}))
    D, inner = _domain_sites(walk, domain)
    outer = []
    if target is None:
        outer = _boundary(walk, inner)
        if not outer:
            raise InputError("domain has empty boundary")
    elif target not in D:
        raise InputError(f"target {target!r} must lie inside the domain")
    if i not in D:
        raise InputError(f"start site {i!r} is not in the domain")
    return i, rho, inner, outer


def _exit_law(walk: WalkSpec, inner: list[int], outer: list[int]
              ) -> tuple[DomainBlocks, DomainSolve]:
    """System of the domain at positions ``inner`` onto its boundary at ``outer`` and its exit
    law ``X`` (``X^dag`` maps states to exit states), the certified ``(Id - K_DD^dag) X =
    K_out^dag``, kept in the walk's store by those positions."""
    return walk._memo(("domain", tuple(inner), tuple(outer)), lambda w: (
        blocks := _domain_blocks(w, inner, outer), blocks.solve(blocks.K_out.conj().T, dual=True)))


def _exit_states(walk: WalkSpec, domain, i, rho) -> dict[Site, np.ndarray]:
    """Unnormalized state at the exit through each boundary site, from (i, rho).

    The rows of i in the domain's exit law give ``K_{bnd,D} (Id - K_DD)^{-1}``
    applied to rho at i for every boundary site at once; trapped mass never
    exits, so a trapping domain's compressed law gives the same exit states.
    """
    i, rho, inner, outer = _domain_query(walk, domain, i, rho)
    blocks, law = _exit_law(walk, inner, outer)
    lo = blocks.inner.starts[walk._index[i]]
    return blocks.outer.unpack(law.x[lo:lo + rho.size].conj().T @ vec(rho))


def exit_probability(walk: WalkSpec, domain, i, rho) -> float:
    """Probability of ever leaving the domain through its boundary."""
    total = sum(float(np.trace(out).real) for out in _exit_states(walk, domain, i, rho).values())
    if total > 1.0 + ESCAPE_TOL:
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
        if t > ZERO_MASS_TOL:
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
    i, rho, inner, _ = _domain_query(walk, domain, i, rho, target=j)
    blocks = _domain_blocks(walk, inner, ())
    solve = blocks.solve(blocks.inner.pack(DiagonalState({i: rho}))[:, None])
    lo, d = blocks.inner.starts[walk._index[j]], walk.dims[j]
    tr_rho = float(np.trace(rho).real)
    mass = solve.trapped_mass(lo, d, tr_rho)
    if mass is not None:
        raise NumericalError(
            "domain visit count diverges: the start state leaves mass trapped "
            f"at {j!r}", {"trapped_mass": mass, "trapped_sites": list(solve.trapped)})
    visits = float(np.trace(unvec(solve.x[lo:lo + d * d, 0], d)).real)
    return visits - (tr_rho if i == j else 0.0)
