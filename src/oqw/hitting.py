"""Passage, visit, return-time and exit statistics via capture series.

Every operator here is a sum over taboo paths: paths from ``i`` to ``j``
whose intermediate vertices avoid a forbidden set.  With ``S`` the one-step
map on the interior (the sites outside ``{j} | taboo`` that reach ``j``), ``E``
the entry step out of ``i`` and ``C`` the capture step into ``j``, the path sum
is ``direct + C (Id - S)^{-1} E = direct + X^dag E``.  It is linear in the
start, so the target's law ``X = (Id - S^dag)^{-1} C^dag``, one dual solve by
one dense or sparse LU factorization of ``Id - S`` (``splu``, imported on first
use, from ``SPARSE_MIN_UNKNOWNS`` unknowns on), serves every start; only a start
that reaches part of a refused or trapping interior solves that part instead.

A capture series and a finite domain are one :class:`DomainBlocks` system,
``Id - S`` on a set of sites and its exit block, whose kept law is the one place
a law is solved.  Every series ``sum_n S^n`` here (these and the return map
behind expected visits) is summed by one certified solve, kept with its
system: a domain's law, and a target's law and return-map solve.  Next to its
right-hand side the solve takes ``vec(Id)`` on every block, its layout's trace
vector, and a Hermitian solution ``Y >= Id`` certifies ``r(S) <= 1 - 1/lmax(Y)``
because ``S`` and ``S^dag`` are positive maps.  When that bound is not below
``1 - DIVERGENCE_TOL`` the series may trap mass: its trapped part T, the support
of the Cesaro fixed point of ``vec(Id)`` under ``S``, is checked to be invariant
and exit-free, and the solve runs again, certified, on the compression of ``S``
off T.  Nothing that leaves the series (a capture, an exit) starts in T, so the
compressed solve is exact for it; the forward Cesaro projection that finds T
is kept with the solve as a map, and gives any start's mass that stays
trapped.  Diagnostics name the ``method`` (``"solve"``, ``"compressed"`` or
``"passage_deficit"``), the ``radius_bound``, its ``radius_source``
(``"certificate"``) and the solve's relative ``residual``.  A later solve on a
kept factor, the one place a factor is reused (:meth:`DomainSolve.resolve`), is
held to the same residual gate.

Infinity is a first-class value: expectations return ``math.inf`` with
diagnostics, never an exception, when the underlying series diverges; a visit
count is infinite exactly when the Cesaro projection of the first-passage state
under the return map keeps trace mass.

First-passage queries and finite-domain queries each share one entry that
checks their input.  The walk's store keeps, read-only and with no reference
to the walk, the systems of the four (target, taboo) pairs (:func:`capture_series`)
and of the four domains (:func:`_exit_law`, read by exit states, in-domain visits
and every Dirichlet answer) built last, each with its law once solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable

import numpy as np

from .errors import InputError, NumericalError
from .linalg import (COMPLEX, RANK_TOL, fixed_point_projection, herm, is_psd, kraus_block,
                     unvec, vec)
from .walk import (BlockIndex, DiagonalState, Site, WalkSpec, _known_sites, _site_id,
                   block_diagonal, block_matrix, check_state, identity_minus)

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


@dataclass
class DomainBlocks:
    """The system behind every capture series and finite domain: ``A = Id - S``
    for the walk's one-step map ``S = K_DD`` inside a set of sites ``D``
    (dense below ``SPARSE_MIN_UNKNOWNS`` unknowns, CSC from there on) and the
    step ``K_out`` from ``D`` onto the ``outer`` sites, in walk site order.

    It holds no walk, so the walk's store keeps it without a cycle, and its
    arrays are read-only.  :attr:`law` is the one place a law is solved, and its
    factor serves every other solve of the system (:meth:`DomainSolve.resolve`).
    """

    inner: BlockIndex
    outer: BlockIndex
    A: object           # Id - S, inner -> inner (ndarray or CSC)
    K_out: np.ndarray   # inner -> outer
    _kept: dict = field(default_factory=dict, init=False, repr=False)   # see _keep

    def _keep(self, name: str, build: Callable[[], object]):
        """The result ``name`` of this system, ``build()`` on first read and kept;
        nothing is kept when ``build`` raises (a refused solve is refused again)."""
        if name not in self._kept:
            self._kept[name] = build()
        return self._kept[name]

    @property
    def law(self) -> DomainSolve:
        """The exit law ``X``, the certified ``(Id - S^dag) X = K_out^dag`` (``X^dag`` maps
        states in ``D`` to the states at which they leave onto ``outer``), kept."""
        return self._keep("law", lambda: _domain_solve(self.A, self.K_out.conj().T,
                                                       self.inner, dual=True))


def _read_only(*arrays) -> tuple:
    """``arrays`` made read-only in place, a CSC matrix by its three arrays."""
    for a in arrays:
        for b in (a,) if isinstance(a, np.ndarray) else (a.data, a.indices, a.indptr):
            b.setflags(write=False)
    return arrays


def _domain_blocks(walk: WalkSpec, inner, outer) -> DomainBlocks:
    """The one builder: the system on the sites at positions ``inner`` (ascending)
    with its exit block onto those at ``outer``."""
    inner, outer = BlockIndex.at(walk, inner), BlockIndex.at(walk, outer)
    A = identity_minus(walk, inner, sparse=inner.total >= SPARSE_MIN_UNKNOWNS)
    return DomainBlocks(inner, outer, *_read_only(A, block_matrix(walk, outer, inner)))


@dataclass
class CaptureSeries:
    """The taboo-path decomposition for one (i, j, taboo) triple: a view from the
    start ``i`` of the walk's kept system into ``j``, ``blocks``, on the sites
    outside ``{j} | taboo`` that reach ``j``; its exit block onto ``(j,)`` is the
    capture step ``C``, and every start reads its one kept dual law.  Two starts
    see another system instead (see :func:`capture_series`).
    """

    blocks: DomainBlocks
    walk: WalkSpec = field(repr=False)
    source: Site
    target: Site
    taboo: frozenset

    inner = property(lambda self: self.blocks.inner)
    outer = property(lambda self: self.blocks.outer)
    A = property(lambda self: self.blocks.A)
    C = property(lambda self: self.blocks.K_out, doc="Capture step, interior -> {j}.")
    interior = property(lambda self: self.inner.sites)
    diagnostics = property(lambda self: self.blocks.law.diagnostics)
    direct = property(lambda self: self.walk.transitions.get((self.target, self.source)),
                      doc="``L[j, i]``, None if absent.")

    @property
    def S(self):
        """One-step map on the interior, dense or CSC as ``A`` is (fresh on every read)."""
        return block_matrix(self.walk, self.inner, self.inner,
                            sparse=not isinstance(self.A, np.ndarray))

    @property
    def E(self) -> np.ndarray:
        """Entry step, {i} -> interior (fresh on every read)."""
        return block_matrix(self.walk, self.inner,
                            BlockIndex.at(self.walk, [self.walk._index[self.source]]))

    def law(self, alpha: float = 1.0) -> DomainSolve:
        """The certified dual law ``(Id - alpha S^dag)^{-1} C^dag``: the kept one at
        ``alpha = 1``, else a new solve that is not kept."""
        A = self.A   # Id - alpha S = (1 - alpha) Id + alpha A
        return self.blocks.law if alpha == 1.0 else DomainBlocks(
            self.inner, self.outer, alpha * A + (1.0 - alpha) * _eye(A), self.C).law

    def matrix(self, alpha: float = 1.0, law: DomainSolve | None = None) -> np.ndarray:
        """Vec-matrix of the (alpha-weighted) taboo path sum, d_j^2 x d_i^2, from ``law``
        ``X``, the :meth:`law` at ``alpha`` (read here when not given): ``alpha direct +
        alpha^2 X^dag E``."""
        walk = self.walk
        m = np.zeros((walk.dims[self.target] ** 2, walk.dims[self.source] ** 2), dtype=COMPLEX)
        if self.direct is not None:
            m += alpha * walk.kraus(self.target, self.source)
        if self.A.shape[0]:
            law = law or self.law(alpha)
            for lo, K in _entry(walk, self.inner, self.source):
                m += (alpha ** 2) * (law.x[lo:lo + K.shape[0]].conj().T @ K)
        return m


def capture_series(walk: WalkSpec, i, j, taboo=()) -> CaptureSeries:
    """The capture decomposition for paths i -> j whose intermediate vertices avoid
    ``taboo`` and ``j``: a view of the walk's kept, read-only system into ``j``, whose
    law (:attr:`DomainBlocks.law`, one certified dual solve, made on first use) every
    later series of the same walk, ``j`` and ``taboo`` reads, from any start.

    A start reads another system in two cases.  With no step into the interior it
    reads the empty one.  When the law is refused or traps mass and the start reaches
    only part of the interior, it reads the system on that part, solved for it alone,
    so that sites it cannot visit neither refuse nor trap its series."""
    i, j, *taboo = _known_sites(walk, [i, j, *taboo])
    at, graph = walk._index, walk._graph
    blocks = walk._memo(("series", j, taboo := frozenset(taboo)),
                        lambda w: _domain_blocks(w, _reaching(w, j, (*taboo, j)), [at[j]]))
    starts = blocks.inner.starts
    if all(starts[s] < 0 for s in graph.succ[at[i]]):
        blocks = _domain_blocks(walk, [], [at[j]])   # no step into the interior
    elif "law" not in blocks._kept or blocks.law.trapped:   # not solved, refused or trapping
        reached = _search(graph.succ, graph.succ[at[i]], bytearray(starts >= 0))
        if len(reached) < len(blocks.inner.sites) and not _traps_nothing(blocks):
            blocks = _domain_blocks(walk, reached, [at[j]])
    return CaptureSeries(blocks, walk, i, j, taboo)


def _entry(walk: WalkSpec, inner: BlockIndex, i: Site) -> list[tuple[int, np.ndarray]]:
    """The step out of ``i`` into ``inner`` (a series' ``E``) by blocks: (offset in ``inner``,
    ``kraus(s, i)``) per successor ``s`` of ``i`` there."""
    return [(inner.starts[s], walk.kraus(walk.sites[s], i))
            for s in walk._graph.succ[walk._index[i]] if inner.starts[s] >= 0]


def _traps_nothing(blocks: DomainBlocks) -> bool:
    """Whether the system's law is certified with nothing trapped."""
    try:
        return not blocks.law.trapped
    except NumericalError:
        return False


def _reaching(walk: WalkSpec, j: Site, closed) -> list[int]:
    """Ascending positions of the sites outside ``closed`` with a path through such sites
    into ``j`` whose last block is above the walk's tolerance."""
    free = bytearray(b"\x01") * len(walk.sites)
    for s in closed:
        free[walk._index[s]] = 0
    return _search(walk._graph.pred, walk._graph.pred_above[walk._index[j]], free)


def _search(step: list, seeds, free: bytearray) -> list[int]:
    """Ascending positions marked in ``free``, among ``seeds`` or reached from them along
    ``step`` (the walk's successor or predecessor positions per site) through marked
    positions, breadth first; each is unmarked when found."""
    found, seen = [], list(seeds)
    for s in seen:   # grows while it is read
        if free[s]:
            free[s] = 0
            found.append(s)
            seen += step[s]
    return sorted(found)


def _eye(A):
    """The identity of ``A``'s size, dense or CSC as ``A`` is."""
    if isinstance(A, np.ndarray):
        return np.eye(A.shape[0], dtype=COMPLEX)
    from scipy.sparse import identity
    return identity(A.shape[0], dtype=COMPLEX, format="csc")


def _factor(A, dual: bool) -> Callable[..., np.ndarray]:
    """``b -> A^{-1} b`` (``dual``: ``A^{-dag} b``; a ``dual`` argument overrides it):
    LAPACK's dense solve for an array ``A``, else one ``splu`` factorization of the
    sparse ``A``, kept in the returned solve, which solves either system on it."""
    if isinstance(A, np.ndarray):
        return lambda b, dual=dual: np.linalg.solve(A.conj().T if dual else A, b)
    from scipy.sparse.linalg import splu
    lu = splu(A.tocsc())
    return lambda b, dual=dual: lu.solve(b, trans="H" if dual else "N")


# ---------------------------------------------------------------------------
# the certified solve


def _certify(A, rhs: np.ndarray, layout: BlockIndex, dual: bool = False
             ) -> tuple[np.ndarray | None, float, float, Callable]:
    """Solve ``A [X | Y] = [rhs | vec(Id on every block)]`` with ``A = Id - S``
    (dense or sparse; ``dual``: ``A^dag``, whose ``S^dag`` is positive too) by
    one factorization of ``A``.

    ``S`` is a positive map on the blocks of ``layout``, so a solution
    whose blocks are Hermitian and ``>= Id`` gives
    ``S(Y) = Y - Id <= (1 - 1/lmax(Y)) Y`` and hence ``r(S) <= 1 - 1/lmax(Y)``
    (Perron-Frobenius for positive maps); the residual of the ``Y`` column is
    charged against the ``Id`` term.  Conversely ``r(S) < 1`` makes ``Y`` the
    series ``sum_n S^n(Id) >= Id``.  Returns ``(X, bound, relative
    residual, solve)`` with ``solve`` the kept solve (:func:`_factor`; the identity
    on the empty system); the bound is ``inf`` when the solve fails or ``Y`` is no
    certificate.
    """
    if not A.shape[0]:   # the empty system: its solve passes its (empty) input through
        return rhs, 0.0, 0.0, lambda b, dual=dual: b
    rhs = np.column_stack([rhs, layout.trace])
    try:
        solve = _factor(A, dual)
        X = solve(rhs)
    except (np.linalg.LinAlgError, RuntimeError):   # RuntimeError: splu found A singular
        return None, math.inf, math.inf, None
    if not np.isfinite(X).all():
        return None, math.inf, math.inf, None
    resid = ((A.T @ X.conj()).conj() if dual else A @ X) - rhs   # A^dag X, copying no A
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
    ``cesaro`` (when compressed) is the forward Cesaro projection ``x -> lim
    mean_n S^n x``, the mass of ``x`` that stays trapped, kept from the one SVD
    that found that part.
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
    cesaro: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.x.setflags(write=False)
        self._transpose = self.A.T   # formed once: dual residuals read (A.T @ y.conj()).conj()

    @property
    def diagnostics(self) -> dict:
        """The solve as hitting results report it."""
        return {"method": "solve" if self.method == "block_solve" else self.method,
                "radius_bound": self.radius_bound, "radius_source": "certificate",
                "residual": self.residual}

    def trapped_mass(self, rhs: np.ndarray, lo: int, d: int, start_mass: float) -> float | None:
        """The mass of the d x d block at offset ``lo`` of the :attr:`cesaro` limit of
        ``rhs`` (one column) when it exceeds ``TRAPPED_SHARE_TOL * start_mass``, else None."""
        if self.cesaro is None:
            return None
        mass = float(np.trace(unvec(self.cesaro(rhs)[lo:lo + d * d, 0], d)).real)
        return mass if mass > TRAPPED_SHARE_TOL * start_mass else None

    def resolve(self, rhs: np.ndarray, dual: bool | None = None) -> np.ndarray:
        """Solve the same certified system (``dual`` given: ``A^dag x = rhs`` or ``A x =
        rhs``) for another right-hand side; NumericalError when its relative residual (off
        the trapped part) exceeds ``CERTIFICATE_RESIDUAL_TOL``."""
        lift, solve = self.lift, self.factor if dual is None else partial(self.factor, dual=dual)
        dual = self.dual if dual is None else dual
        y = solve(rhs) if lift is None else lift @ solve(lift.conj().T @ rhs)
        r = ((self._transpose @ y.conj()).conj() if dual else self.A @ y) - rhs
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
    if not A.shape[0]:   # the empty system: nothing to solve or certify
        return DomainSolve(rhs, "block_solve", (), 0.0, 0.0, None, A, dual)
    X, bound, residual, solve = _certify(A, rhs, layout, dual)
    if bound < 1.0 - DIVERGENCE_TOL:
        return DomainSolve(X, "block_solve", (), bound, residual, solve, A, dual)
    free, trap, cesaro = _trapped_split(A, layout)
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
    X_c, bound_c, residual, solve = _certify(
        compressed, lift.conj().T @ rhs, BlockIndex.of_sizes([v.shape[1] for v in free]), dual)
    if not bound_c < 1.0 - DIVERGENCE_TOL:
        raise NumericalError(
            "the series is not certified convergent, not even off its trapped part",
            {"radius_bound": bound, "compressed_radius_bound": bound_c,
             "trapped_sites": list(trapped)})
    return DomainSolve(lift @ X_c, "compressed", trapped, bound_c, residual, solve, A, dual,
                       lift, cesaro)


def _trapped_split(A, layout: BlockIndex) -> tuple[list, list, Callable]:
    """Orthonormal bases, block by block, of the complement of T and of T, the
    support of the Cesaro fixed point of ``vec(Id)`` under ``S = Id - A``, and
    the Cesaro projection under ``S`` that found it."""
    S = _eye(A) - A
    project, _ = fixed_point_projection(S if isinstance(S, np.ndarray) else S.toarray())
    eig = [np.linalg.eigh(herm(b)) for b in layout.unpack(project(layout.trace)).values()]
    top = max(0.0, *(float(w.max()) for w, _ in eig))
    cuts = [w <= RANK_TOL * top for w, _ in eig]
    return ([v[:, cut] for (_, v), cut in zip(eig, cuts)],
            [v[:, ~cut] for (_, v), cut in zip(eig, cuts)], project)


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
    weight = 1.0 if alpha is None else alpha
    law, dims = series.law(weight), series.walk.dims
    return CPMapBlock(series.source, series.target, dims[series.source], dims[series.target],
                      series.matrix(weight, law), series.taboo, alpha, law.diagnostics)


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
    j, the count is ``tr G(sigma)``: ``G = sum_n P^n``, the certified solve
    ``(Id - P) G = Id`` (see :func:`_domain_solve`; ``P`` solved forward on j's
    law's factor), is kept with that law for every start and state, so its
    ``residual`` is the target's.  It is ``inf`` exactly when the kept Cesaro
    projection of ``sigma`` under ``P`` has trace mass, which returns forever.
    """
    return _visits(walk, *_first_passage(walk, i, rho, j))


def _visits(walk: WalkSpec, series, first, rho, sigma, p) -> ExpectationResult:
    tr_sigma = float(np.trace(sigma).real)
    if tr_sigma <= ZERO_MASS_TOL:
        return ExpectationResult(0.0, {"method": "solve", "first_passage_mass": tr_sigma})
    j = series.target
    ret = series if series.source == j else capture_series(walk, j, j)
    green = ret.blocks._keep("visits", lambda: _domain_solve(   # G = (Id - P)^{-1}
        _read_only(_eye(P := _return_map(ret)[0]) - P)[0], _eye(P), ret.outer))
    rhs = vec(sigma)[:, None]
    diag = green.diagnostics
    mass = green.trapped_mass(rhs, 0, walk.dims[j], tr_sigma)
    if mass is not None:
        return ExpectationResult(math.inf, {**diag, "cesaro_mass": mass})
    return ExpectationResult(float(np.vdot(ret.outer.trace, green.x @ rhs[:, 0]).real), diag)


def _return_map(ret: CaptureSeries) -> tuple[np.ndarray, np.ndarray]:
    """The return map at j from its series ``ret`` (j -> j), ``P = direct + C Z``, and ``Z = (Id -
    S)^{-1} E``, solved forward on the law's factor.  Near 1, P sets a visit count to about
    1/(1 - P), and a forward solve rounds it alike on the dense and sparse path."""
    d = ret.walk.dims[ret.target]
    P = np.zeros((d * d, d * d), dtype=COMPLEX)
    if ret.direct is not None:
        P += ret.walk.kraus(ret.target, ret.target)
    Z = ret.law().resolve(ret.E, dual=False) if ret.A.shape[0] else ret.E
    return P + ret.C @ Z, Z


def expected_return_time(walk: WalkSpec, i, rho, j) -> ExpectationResult:
    """Expected first-passage time from (i, rho) to j; ``inf`` when the
    passage probability falls short of 1.

    The time is ``sum_n n tr C S^(n-2) E rho`` (plus the direct step): with
    ``h = X t_j`` from the passage series' kept law ``X``, it is
    ``(h + (Id - S^dag)^{-1} h)^dag E rho``, from a second dual solve on the
    same, possibly compressed, system, made once per target and kept.
    """
    return _return_time(walk, *_first_passage(walk, i, rho, j))


def _return_time(walk: WalkSpec, series, first, rho, sigma, p) -> ExpectationResult:
    if p < 1.0 - PASSAGE_SURE_TOL:
        return ExpectationResult(math.inf, {"method": "passage_deficit",
                                            "passage_probability": p})
    val = 0.0
    if series.direct is not None:
        val = float(np.trace(series.direct @ rho @ series.direct.conj().T).real)
    if series.A.shape[0]:   # h = X t_j is t_j^dag C (Id - S)^{-1} as a vector
        law = series.law()

        def time_vector() -> np.ndarray:   # h + (Id - S^dag)^{-1} h, kept with the law
            h = law.x @ series.outer.trace
            return _read_only(h + law.resolve(h))[0]
        h = series.blocks._keep("time", time_vector)
        val += sum(float(np.vdot(h[lo:lo + K.shape[0]], K @ vec(rho)).real)
                   for lo, K in _entry(walk, series.inner, series.source))
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
    that its boundary is not empty (exits) or that it holds ``target`` (visits), and that
    ``i`` lies in it; returns ``i``, ``rho`` (an array) and the ascending positions of the
    domain's sites and of its boundary."""
    i, rho = _site_id(i), np.asarray(rho, dtype=COMPLEX)
    check_state(walk, DiagonalState({i: rho}))
    D, inner = _domain_sites(walk, domain)
    outer = _boundary(walk, inner)
    if target is None and not outer:
        raise InputError("domain has empty boundary")
    if target is not None and target not in D:
        raise InputError(f"target {target!r} must lie inside the domain")
    if i not in D:
        raise InputError(f"start site {i!r} is not in the domain")
    return i, rho, inner, outer


def _exit_law(walk: WalkSpec, inner: list[int], outer: list[int]
              ) -> tuple[DomainBlocks, DomainSolve]:
    """System of the domain at positions ``inner`` onto its boundary at ``outer``, kept in the
    walk's store by those positions, and its law (``X^dag`` maps states to exit states)."""
    blocks = walk._memo(("domain", tuple(inner), tuple(outer)),
                        lambda w: _domain_blocks(w, inner, outer))
    return blocks, blocks.law


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

    The count is ``tr y_j`` from ``y = (Id - K_DD)^{-1} K_DD (rho at i)``, one forward
    solve from the first step (so no visit at time 0 is subtracted, which would cancel
    at ``j = i``) on the factor of the domain's kept exit law, clipped at 0 within
    ``ESCAPE_TOL``.  The count is infinite, and :class:`NumericalError` is raised,
    exactly when the law's kept Cesaro projection of the start state has mass at j.
    """
    j = _site_id(j)
    i, rho, inner, outer = _domain_query(walk, domain, i, rho, target=j)
    blocks, law = _exit_law(walk, inner, outer)
    rhs = blocks.inner.pack(DiagonalState({i: rho}))[:, None]
    lo, d = blocks.inner.starts[walk._index[j]], walk.dims[j]
    mass = law.trapped_mass(rhs, lo, d, float(np.trace(rho).real))
    if mass is not None:
        raise NumericalError(
            "domain visit count diverges: the start state leaves mass trapped "
            f"at {j!r}", {"trapped_mass": mass, "trapped_sites": list(law.trapped)})
    step = np.zeros_like(rhs)   # K_DD (rho at i)
    for at, K in _entry(walk, blocks.inner, i):
        step[at:at + K.shape[0], 0] = K @ vec(rho)
    count = float(np.trace(unvec(law.resolve(step, dual=False)[lo:lo + d * d, 0], d)).real)
    if count < -ESCAPE_TOL:
        raise NumericalError(f"domain visit count {count} is negative", law.diagnostics)
    return max(0.0, count)
