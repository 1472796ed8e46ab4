"""Irreducibility, enclosures, reducible decomposition and recurrence classes.

An enclosure is a per-site family of subspaces closed under every transition
operator.  On the recurrent part (the support of a maximal invariant state)
the dual fixed points form a *-algebra whose minimal projections are the
minimal enclosures (Carbone & Pautrat 2016; Baumgartner & Narnhofer 2012).
Without an invariant state, irreducibility falls back to a closure heuristic.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .hitting import (PASSAGE_SURE_TOL, ZERO_MASS_TOL, _passage_statistics, _taboo_block,
                      boundary, capture_series, exit_probability)
from .linalg import COMPLEX, RANK_TOL, extend_basis, herm, hermitian_basis, vec
from .superop import fixed_point_map, invariant_state
from .walk import BlockIndex, DiagonalState, Site, WalkSpec, _fresh, _site_id, block_diagonal

BOUNDS_TOL = 1e-8  # slack of the enclosure-sum bounds and of the recurrent-support test
SPLIT_TOL = 1e-6  # relative eigenvalue gap between groups; closure defect of a group


@dataclass
class Enclosure:
    """Per-site orthonormal bases of a transition-closed subspace family."""

    bases: dict[Site, np.ndarray]  # site -> d_i x k_i, k_i may be 0

    def dim(self, site) -> int:
        b = self.bases.get(_site_id(site))
        return 0 if b is None else b.shape[1]

    def total_dim(self) -> int:
        return sum(b.shape[1] for b in self.bases.values())

    def projector(self, site, d: int) -> np.ndarray:
        b = self.bases.get(_site_id(site))
        if b is None or b.shape[1] == 0:
            return np.zeros((d, d), dtype=COMPLEX)
        return b @ b.conj().T

    def is_full(self, walk: WalkSpec) -> bool:
        return all(self.dim(s) == walk.dims[s] for s in walk.sites)

    def closure_defect(self, walk: WalkSpec) -> float:
        """max over transitions of ||(Id - P_i) L[i,j] P_j||."""
        worst = 0.0
        for (to, fr), L in walk.transitions.items():
            pj = self.projector(fr, walk.dims[fr])
            pi = self.projector(to, walk.dims[to])
            m = (np.eye(walk.dims[to], dtype=COMPLEX) - pi) @ L @ pj
            worst = max(worst, float(np.linalg.norm(m, 2)))
        return worst


def enclosure_closure(walk: WalkSpec, seeds) -> Enclosure:
    """Smallest transition-closed subspace family containing the seeds.

    ``seeds`` is an iterable of (site, vector) pairs, normalized on entry.  A
    worklist carries the orthonormal directions added at each site; each is
    pushed once through the site's outgoing blocks, skipping full targets.
    The blocks are contractions, so an image of norm at most ``RANK_TOL`` is
    rounding and is dropped; the rest goes through a relative SVD cut.
    """
    return _closure(walk, seeds, ())


def _closure(walk: WalkSpec, seeds, known) -> Enclosure | None:
    """:func:`enclosure_closure`, or None as soon as it fills a site in ``known``."""
    bases = {s: np.zeros((walk.dims[s], 0), dtype=COMPLEX) for s in walk.sites}
    for site, v in seeds:
        s = _site_id(site)
        vec_ = np.asarray(v, dtype=COMPLEX).reshape(-1, 1)
        if vec_.shape[0] != walk.dims[s]:
            raise InputError(f"seed at {s!r} has dimension {vec_.shape[0]}, "
                             f"expected {walk.dims[s]}")
        if np.linalg.norm(vec_) == 0.0:
            raise InputError("seed vectors must be nonzero")
        bases[s] = extend_basis(bases[s], vec_ / np.linalg.norm(vec_))
    work = deque((s, b) for s, b in bases.items() if b.shape[1])
    while work:
        fr, new = work.popleft()
        for k in walk._graph.succ[walk._index[fr]]:
            to = walk.sites[k]
            before = bases[to].shape[1]
            if before == walk.dims[to]:
                continue
            image = walk.transitions[(to, fr)] @ new
            image = image[:, np.linalg.norm(image, axis=0) > RANK_TOL]
            bases[to] = extend_basis(bases[to], image)
            if bases[to].shape[1] > before:
                if bases[to].shape[1] == walk.dims[to] and to in known:
                    return None
                work.append((to, bases[to][:, before:]))
    return Enclosure(bases)


def is_irreducible(walk: WalkSpec) -> tuple[bool, Enclosure | None]:
    """True iff the walk has no proper enclosure, with a witness if it has; kept per walk."""
    return _fresh(_irreducibility(walk)[:2])


def _irreducibility(walk: WalkSpec) -> tuple[bool, Enclosure | None, str]:
    """:func:`irreducibility` of the walk's decomposition, kept in its store."""
    return walk._memo(("irreducibility",), lambda w: irreducibility(w, decompose(w)))


def irreducibility(walk: WalkSpec, deco: Decomposition) -> tuple[bool, Enclosure | None, str]:
    """Irreducibility verdict read from the walk's decomposition.

    Returns the verdict, a proper enclosure as witness when reducible, and
    how the verdict was reached.  ``"certified"`` when there is an invariant
    state: the walk is irreducible iff the decomposition is one full
    enclosure, else its first recurrent enclosure is the witness.
    ``"heuristic"`` otherwise: the closure of every basis vector must be full.
    Such a closure is full, and stops, once it fills a known site, one whose
    basis vectors all have full closures (closure is monotone).
    """
    if deco.invariant is not None:
        whole = len(deco.recurrent) == 1 and deco.recurrent[0].is_full(walk)
        return whole, None if whole else deco.recurrent[0], "certified"
    known = set()
    for s in walk.sites:
        for e in np.eye(walk.dims[s], dtype=COMPLEX):
            enc = _closure(walk, [(s, e)], known)
            if enc is not None and not enc.is_full(walk):
                return False, enc, "heuristic"
        known.add(s)
    return True, None, "heuristic"


@dataclass
class Decomposition:
    """Recurrent enclosures plus the transient orthocomplement."""

    recurrent: list[Enclosure]
    transient: Enclosure
    invariant: DiagonalState | None
    fixed_dim: int
    warning: str | None = None

    def projector_sum_defect(self, walk: WalkSpec) -> float:
        worst = 0.0
        for s in walk.sites:
            d = walk.dims[s]
            acc = self.transient.projector(s, d).copy()
            for enc in self.recurrent:
                acc += enc.projector(s, d)
            worst = max(worst, float(np.abs(acc - np.eye(d)).max(initial=0.0)))
        return worst


def decompose(walk: WalkSpec) -> Decomposition:
    """Split the space into minimal recurrent enclosures and a transient rest.

    The recurrent part is the closure of the invariant state's eigenvectors
    above ``RANK_TOL``, so exponentially small weights still count; with every
    block of full rank it is the whole space, and no closure is taken.  Fixed
    points of a walk compressed onto an enclosure lift to fixed points of the
    walk, so a one-dimensional fixed space makes that closure the only
    minimal enclosure; otherwise it splits by :func:`_minimal_enclosures`.
    The rest is the transient part.  ``fixed_dim`` is the dimension that
    :func:`invariant_state` reports, also when there is no invariant state.
    Computed once per walk, kept in its store; arrays are read-only.
    """
    return _fresh(walk._memo(("decomposition",), _decompose))


def _decompose(walk: WalkSpec) -> Decomposition:
    """The walk's kept decomposition: :func:`decompose`, computed."""
    tau, fixed_dim = invariant_state(walk)
    full = Enclosure({s: np.eye(walk.dims[s], dtype=COMPLEX) for s in walk.sites})
    if tau is None:
        return Decomposition(recurrent=[], transient=full, invariant=None,
                             fixed_dim=fixed_dim, warning="no invariant state")
    seeds = []
    for s in walk.sites:
        w, v = np.linalg.eigh(herm(tau.blocks[s]))
        seeds += [(s, v[:, k]) for k in np.flatnonzero(w > RANK_TOL)]
    support = full if len(seeds) == walk.total_dim else enclosure_closure(walk, seeds)
    recurrent = [support] if fixed_dim == 1 else _minimal_enclosures(walk, support)
    if recurrent[0] is full:   # the whole space is recurrent: no transient part to find
        transient = {s: np.zeros((walk.dims[s], 0), COMPLEX) for s in walk.sites}
    else:
        transient = {}
        for s in walk.sites:
            w, v = np.linalg.eigh(sum(enc.projector(s, walk.dims[s]) for enc in recurrent))
            transient[s] = v[:, w < 0.5]
    return Decomposition(recurrent=recurrent, transient=Enclosure(transient),
                         invariant=tau, fixed_dim=fixed_dim)


def _minimal_enclosures(walk: WalkSpec, enc: Enclosure) -> list[Enclosure]:
    """Minimal enclosures inside ``enc``, an enclosure carrying an invariant state.

    Eigenspaces of a Hermitian element of the compressed walk's dual fixed-point algebra
    are enclosures.  The element is the dual projection, by :func:`~oqw.superop.fixed_point_map`
    from the first-return map onto the compressed walk's return set, of ``diag(1..n)/n`` or,
    if that is a scalar, of the Hermitian basis element that splits most.  A group that is
    not closed leaks below the fixed-point tolerance and is dropped as transient; the others
    are split again until their compressed walk has a single fixed point.
    """
    sub, _ = restrict_walk(walk, enc)
    idx = BlockIndex.at(sub, range(len(sub.sites)))
    ramp = idx.trace.copy()  # ones on the diagonals, in order
    ramp[ramp != 0] = np.arange(1, sub.total_dim + 1) / sub.total_dim
    project, k = fixed_point_map(sub, adjoint=True)
    if k <= 1:
        return [enc]
    basis = block_diagonal([np.column_stack([vec(e) for e in hermitian_basis(d)])
                            for d in idx.sizes.tolist()])   # per block, Hermitian and orthonormal
    fixed = project(np.column_stack([ramp, basis]))
    groups = _eigenspace_groups(walk, idx.unpack(fixed[:, 0]), enc)
    if len(groups) == 1:
        groups = max((_eigenspace_groups(walk, idx.unpack(y), enc) for y in fixed[:, 1:].T),
                     key=len)
    closed = [g for g in groups if g.closure_defect(walk) <= SPLIT_TOL]
    if len(groups) == 1 or not closed:
        raise NumericalError("the fixed points do not split into transition-closed "
                             "parts", {"fixed_dim": k})
    return [m for g in closed for m in _minimal_enclosures(walk, g)]


def _eigenspace_groups(walk: WalkSpec, blocks: dict, enc: Enclosure) -> list[Enclosure]:
    """One enclosure per cluster of eigenvalues of the per-site Hermitian
    ``blocks`` (in the bases of ``enc``), cut at gaps above ``SPLIT_TOL``
    times the largest magnitude."""
    empty = (np.zeros(0), np.zeros((0, 0)))  # a site outside enc
    eig = {s: np.linalg.eigh(herm(blocks[s])) if s in blocks else empty for s in walk.sites}
    values = np.sort(np.concatenate([w for w, _ in eig.values()]))
    cuts = values[1:][np.diff(values) > SPLIT_TOL * np.abs(values).max()]
    bounds = np.concatenate([[-np.inf], cuts, [np.inf]])
    return [Enclosure({s: enc.bases[s] @ v[:, (w >= lo) & (w < hi)] for s, (w, v) in eig.items()})
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def restrict_walk(walk: WalkSpec, enclosure: Enclosure) -> tuple[WalkSpec, dict]:
    """Compress the walk onto an enclosure's subspaces.

    Returns the restricted walk (sites of positive dimension only) and the
    per-site basis used, so states can be mapped back and forth.
    """
    sites = [s for s in walk.sites if enclosure.dim(s) > 0]
    if not sites:
        raise InputError("enclosure is trivial; nothing to restrict to")
    dims = {s: enclosure.dim(s) for s in sites}
    bases = {s: enclosure.bases[s] for s in sites}
    trans = {}
    for (to, fr), L in walk.transitions.items():
        if to in dims and fr in dims:
            m = bases[to].conj().T @ L @ bases[fr]
            if np.abs(m).max(initial=0.0) > 1e-14:
                trans[(to, fr)] = m
    return WalkSpec(tuple(sites), dims, trans, walk.tolerance), bases


@dataclass
class RecurrenceVerdict:
    """Trichotomy verdict for a site of an irreducible walk."""

    case: str                     # "recurrent", "transient" or "mixed"
    site: Site
    return_dual_identity: np.ndarray
    eigenvalues: np.ndarray
    witness_sure: np.ndarray | None = None     # rho with passage probability 1
    witness_deficient: np.ndarray | None = None  # rho' with passage probability < 1
    expected_visits_finite: bool | None = None
    diagnostics: dict = field(default_factory=dict)


def classify_recurrence(walk: WalkSpec, site,
                        require_irreducible: bool = True) -> RecurrenceVerdict:
    """Classify a site of an irreducible walk into the three return regimes.

    With ``P* = dual of the return operator applied to Id``:
    all of spec(P*) at 1 -> recurrent; none near 1 -> transient; a proper
    eigenvalue-1 eigenspace -> mixed, with a witness state supported there.
    The return operator comes from the s -> s series' certified solve, run
    off a trapped part where there is one; the diagnostics carry its method,
    radius bound and residual.  Expected visits are finite exactly in the
    transient and mixed cases.  An eigenvalue counts as 1 within
    ``PASSAGE_SURE_TOL``, the cut at which a passage probability counts as
    certain.
    """
    s = _site_id(site)
    if require_irreducible and not is_irreducible(walk)[0]:
        raise InputError("walk is reducible; classify sites of its irreducible parts "
                         "via decompose()/restrict_walk()")
    series = capture_series(walk, s, s)
    pstar = _taboo_block(series).dual_identity()
    d = walk.dims[s]
    w = np.linalg.eigvalsh(pstar)
    diag = {**series.diagnostics, "dual_identity_eigenvalues": [float(x) for x in w]}
    if np.abs(pstar - np.eye(d)).max(initial=0.0) <= PASSAGE_SURE_TOL:
        return RecurrenceVerdict("recurrent", s, pstar, w,
                                 expected_visits_finite=False, diagnostics=diag)
    if w.max(initial=0.0) < 1.0 - PASSAGE_SURE_TOL:
        return RecurrenceVerdict("transient", s, pstar, w,
                                 expected_visits_finite=True, diagnostics=diag)
    wv, vv = np.linalg.eigh(pstar)
    sure = vv[:, wv >= 1.0 - PASSAGE_SURE_TOL]
    proj = sure @ sure.conj().T
    witness = proj / float(np.trace(proj).real)
    return RecurrenceVerdict("mixed", s, pstar, w,
                             witness_sure=witness,
                             witness_deficient=np.eye(d, dtype=COMPLEX) / d,
                             expected_visits_finite=True, diagnostics=diag)


@dataclass
class BoundsReport:
    """Numerical check of the reducible-walk lower bounds."""


    passage: tuple[float, float]        # (whole-walk value, enclosure sum)
    visits: tuple[float, float]
    return_time: tuple[float, float]
    exit: tuple[float, float] | None
    inequalities_hold: bool
    supported_in_recurrent: bool
    equalities_hold: bool
    tolerance: float


def check_decomposition_bounds(walk: WalkSpec, deco: Decomposition, i, rho, j,
                               domain=None) -> BoundsReport:
    """Verify the enclosure-sum lower bounds for passage, visits, return time
    (and optionally domain exit), with equality when the state is supported
    in the recurrent part; the slack is ``BOUNDS_TOL``."""
    i, j = _site_id(i), _site_id(j)
    rho = np.asarray(rho, dtype=COMPLEX)

    lhs_p, lhs_n, lhs_t = _passage_statistics(walk, i, rho, j)
    lhs_e = exit_probability(walk, domain, i, rho) if domain is not None else None

    rhs_p = rhs_n = rhs_t = rhs_e = 0.0
    for enc in deco.recurrent:
        bi = enc.bases.get(i)
        if bi is None or bi.shape[1] == 0:
            continue
        block = bi.conj().T @ rho @ bi
        weight = float(np.trace(block).real)
        if weight <= ZERO_MASS_TOL:
            continue
        block = block / weight
        sub, _ = restrict_walk(walk, enc)
        if j in sub.dims:   # an infinite term makes its sum infinite
            p, n, t = _passage_statistics(sub, i, block, j)
            rhs_p, rhs_n, rhs_t = rhs_p + weight * p, rhs_n + weight * n, rhs_t + weight * t
        else:   # the enclosure never visits j
            rhs_t = math.inf
        if domain is not None:
            sub_domain = [s for s in domain if _site_id(s) in sub.dims]
            if boundary(sub, sub_domain):
                rhs_e += weight * exit_probability(sub, sub_domain, i, block)

    # support test: all mass of rho inside the recurrent part at site i
    leak = float(np.trace(deco.transient.projector(i, walk.dims[i]) @ rho).real)
    supported = leak <= BOUNDS_TOL

    def close(a: float, b: float) -> bool:
        if math.isinf(a) or math.isinf(b):
            return math.isinf(a) and math.isinf(b)
        return abs(a - b) <= max(BOUNDS_TOL, 1e-6 * max(abs(a), abs(b)))

    def at_least(a: float, b: float) -> bool:
        if math.isinf(a):
            return True
        if math.isinf(b):
            return False
        return a >= b - max(BOUNDS_TOL, 1e-6 * max(abs(a), abs(b), 1.0))

    pairs = [(lhs_p, rhs_p), (lhs_n, rhs_n), (lhs_t, rhs_t)]
    if domain is not None:
        pairs.append((lhs_e, rhs_e))
    equal = supported and all(close(a, b) for a, b in pairs)
    return BoundsReport(
        passage=(lhs_p, rhs_p), visits=(lhs_n, rhs_n), return_time=(lhs_t, rhs_t),
        exit=None if domain is None else (lhs_e, rhs_e),
        inequalities_hold=all(at_least(a, b) for a, b in pairs),
        supported_in_recurrent=supported, equalities_hold=equal, tolerance=BOUNDS_TOL)
