"""Irreducibility, enclosures, reducible decomposition and recurrence classes.

An enclosure is a per-site family of subspaces closed under every transition
operator; a walk is irreducible when no seed generates a proper one.  The
recurrent part of a reducible walk is the support of a maximal invariant
state and splits into minimal enclosures carrying irreducible sub-walks.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .linalg import COMPLEX, extend_basis, herm, orthonormal_columns
from .superop import invariant_state
from .walk import DiagonalState, Site, WalkSpec, _site_id

RANK_TOL = 1e-8  # relative singular-value threshold for all rank decisions
DIVERGENCE_GUARD = 1e-7


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

    ``seeds`` is an iterable of (site, vector) pairs.  A worklist carries
    the directions added at each site; each is pushed once through the
    site's outgoing transition blocks, skipping targets whose basis is
    already full.  Rank decisions use a relative singular-value threshold.
    """
    bases = {s: np.zeros((walk.dims[s], 0), dtype=COMPLEX) for s in walk.sites}
    for site, v in seeds:
        s = _site_id(site)
        vec_ = np.asarray(v, dtype=COMPLEX).reshape(-1, 1)
        if vec_.shape[0] != walk.dims[s]:
            raise InputError(f"seed at {s!r} has dimension {vec_.shape[0]}, "
                             f"expected {walk.dims[s]}")
        if np.linalg.norm(vec_) == 0.0:
            raise InputError("seed vectors must be nonzero")
        bases[s] = extend_basis(bases[s], vec_, tol=RANK_TOL)
    work = deque((s, b) for s, b in bases.items() if b.shape[1])
    while work:
        fr, new = work.popleft()
        for to in walk._succ[fr]:
            before = bases[to].shape[1]
            if before == walk.dims[to]:
                continue
            bases[to] = extend_basis(bases[to], walk.transitions[(to, fr)] @ new,
                                     tol=RANK_TOL)
            if bases[to].shape[1] > before:
                work.append((to, bases[to][:, before:]))
    return Enclosure(bases)


def is_irreducible(walk: WalkSpec) -> tuple[bool, Enclosure | None]:
    """True iff every basis-vector seed generates the whole space.

    On failure, returns the first proper enclosure found as a witness.
    """
    for s in walk.sites:
        d = walk.dims[s]
        for k in range(d):
            e = np.zeros(d, dtype=COMPLEX)
            e[k] = 1.0
            enc = enclosure_closure(walk, [(s, e)])
            if not enc.is_full(walk):
                return False, enc
    return True, None


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

    The recurrent part is the support of the Cesaro fixed point of the
    maximally mixed state (the maximal invariant support).  It is split by
    seeding closures with invariant-state eigenvectors in decreasing
    eigenvalue order and projecting the remainder out.  A warning is set
    when the fixed space is degenerate, in which case the split is a
    deterministic choice among many valid ones.
    """
    tau, fixed_dim = invariant_state(walk)
    if tau is None:
        empty = Enclosure({s: np.zeros((walk.dims[s], 0), dtype=COMPLEX)
                           for s in walk.sites})
        full = Enclosure({s: orthonormal_columns(np.eye(walk.dims[s], dtype=COMPLEX))
                          for s in walk.sites})
        return Decomposition(recurrent=[], transient=full, invariant=None,
                             fixed_dim=0, warning="no invariant state")

    # support bases of the maximal invariant state
    support = {}
    for s in walk.sites:
        w, v = np.linalg.eigh(herm(tau.blocks[s]))
        keep = w > RANK_TOL * max(1.0, w.max(initial=0.0))
        support[s] = v[:, keep]

    residual = {s: tau.blocks[s].copy() for s in walk.sites}
    enclosures: list[Enclosure] = []
    for _ in range(walk.total_dim):
        best = None
        for s in walk.sites:
            w, v = np.linalg.eigh(herm(residual[s]))
            if w.size and w[-1] > 1e-10:
                if best is None or w[-1] > best[0]:
                    best = (w[-1], s, v[:, -1])
        if best is None:
            break
        _, s, seed = best
        enc = enclosure_closure(walk, [(s, seed)])
        enclosures.append(enc)
        for t in walk.sites:
            p = enc.projector(t, walk.dims[t])
            comp = np.eye(walk.dims[t], dtype=COMPLEX) - p
            residual[t] = comp @ residual[t] @ comp

    transient_bases = {}
    for s in walk.sites:
        d = walk.dims[s]
        acc = np.zeros((d, d), dtype=COMPLEX)
        for enc in enclosures:
            acc += enc.projector(s, d)
        comp = herm(np.eye(d, dtype=COMPLEX) - acc)
        # comp is numerically a projector: keep eigendirections near 1
        w, v = np.linalg.eigh(comp)
        transient_bases[s] = v[:, w > 0.5]
    transient = Enclosure(transient_bases)

    warning = None
    if fixed_dim > len(enclosures):
        warning = ("fixed space is degenerate (dimension "
                   f"{fixed_dim} > {len(enclosures)} enclosures); the split is "
                   "one deterministic choice among several valid ones")
    deco = Decomposition(recurrent=enclosures, transient=transient,
                         invariant=tau, fixed_dim=fixed_dim, warning=warning)
    defect = deco.projector_sum_defect(walk)
    if defect > 1e-6:
        deco.warning = (deco.warning or "") + f"; projector sum defect {defect:.2e}"
    return deco


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
    truncated_model: bool = False
    diagnostics: dict = field(default_factory=dict)


def classify_recurrence(walk: WalkSpec, site, tol: float = 1e-6,
                        require_irreducible: bool = True,
                        truncated_model: bool = False) -> RecurrenceVerdict:
    """Classify a site of an irreducible walk into the three return regimes.

    With ``P* = dual of the return operator applied to Id``:
    all of spec(P*) at 1 -> recurrent; none near 1 -> transient; a proper
    eigenvalue-1 eigenspace -> mixed, with a witness state supported there.
    The return operator comes from the s -> s series' certified solve, run
    off a trapped part where there is one; the diagnostics carry its method,
    radius bound and residual.  Expected-visit finiteness is cross-checked
    through the spectral radius of the return operator.
    """
    from .hitting import _taboo_block, capture_series
    from .linalg import spectral_radius

    s = _site_id(site)
    if require_irreducible:
        ok, witness = is_irreducible(walk)
        if not ok:
            raise InputError(
                "walk is reducible; classify sites of its irreducible parts "
                "via decompose()/restrict_walk()")
    series = capture_series(walk, s, s)
    op = _taboo_block(series)
    pstar = op.dual_identity()
    d = walk.dims[s]
    w = np.linalg.eigvalsh(pstar)
    # finiteness of expected visits <=> spectral radius of the return map < 1
    return_radius = spectral_radius(op.matrix)
    diag = {**series.diagnostics,
            "return_operator_radius": return_radius,
            "spectral_check_visits_finite": bool(return_radius < 1.0 - DIVERGENCE_GUARD),
            "dual_identity_eigenvalues": [float(x) for x in w]}
    if np.abs(pstar - np.eye(d)).max(initial=0.0) <= tol:
        return RecurrenceVerdict("recurrent", s, pstar, w,
                                 expected_visits_finite=False,
                                 truncated_model=truncated_model, diagnostics=diag)
    if w.max(initial=0.0) < 1.0 - tol:
        return RecurrenceVerdict("transient", s, pstar, w,
                                 expected_visits_finite=True,
                                 truncated_model=truncated_model, diagnostics=diag)
    wv, vv = np.linalg.eigh(pstar)
    sure = vv[:, wv >= 1.0 - tol]
    proj = sure @ sure.conj().T
    witness = proj / float(np.trace(proj).real)
    return RecurrenceVerdict("mixed", s, pstar, w,
                             witness_sure=witness,
                             witness_deficient=np.eye(d, dtype=COMPLEX) / d,
                             expected_visits_finite=True,
                             truncated_model=truncated_model, diagnostics=diag)


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
                               domain=None, tol: float = 1e-8) -> BoundsReport:
    """Verify the enclosure-sum lower bounds for passage, visits, return time
    (and optionally domain exit), with equality when the state is supported
    in the recurrent part."""
    from .hitting import (boundary, exit_probability, expected_return_time,
                          expected_visits, passage_probability)

    i, j = _site_id(i), _site_id(j)
    rho = np.asarray(rho, dtype=COMPLEX)

    lhs_p = passage_probability(walk, i, rho, j)
    lhs_n = expected_visits(walk, i, rho, j).value
    lhs_t = expected_return_time(walk, i, rho, j).value
    lhs_e = exit_probability(walk, domain, i, rho) if domain is not None else None

    def series_terms():
        for enc in deco.recurrent:
            bi = enc.bases.get(i)
            if bi is None or bi.shape[1] == 0:
                continue
            block = bi.conj().T @ rho @ bi
            weight = float(np.trace(block).real)
            if weight <= 1e-14:
                continue
            sub, _ = restrict_walk(walk, enc)
            if j not in sub.dims:
                continue
            yield enc, sub, block / weight, weight

    rhs_p = rhs_n = rhs_t = 0.0
    rhs_e = 0.0
    any_t_inf = any_n_inf = False
    for enc, sub, block, weight in series_terms():
        rhs_p += weight * passage_probability(sub, i, block, j)
        nv = expected_visits(sub, i, block, j).value
        tv = expected_return_time(sub, i, block, j).value
        any_n_inf = any_n_inf or math.isinf(nv)
        any_t_inf = any_t_inf or math.isinf(tv)
        if not math.isinf(nv):
            rhs_n += weight * nv
        if not math.isinf(tv):
            rhs_t += weight * tv
        if domain is not None:
            sub_domain = [s for s in domain if _site_id(s) in sub.dims]
            if boundary(sub, sub_domain):
                rhs_e += weight * exit_probability(sub, sub_domain, i, block)
    if any_n_inf:
        rhs_n = math.inf
    if any_t_inf:
        rhs_t = math.inf

    # support test: all mass of rho inside the recurrent part at site i
    d = walk.dims[i]
    precurrent = np.zeros((d, d), dtype=COMPLEX)
    for enc in deco.recurrent:
        precurrent += enc.projector(i, d)
    leak = float(np.trace((np.eye(d, dtype=COMPLEX) - precurrent) @ rho).real)
    supported = leak <= tol

    def close(a: float, b: float) -> bool:
        if math.isinf(a) or math.isinf(b):
            return math.isinf(a) and math.isinf(b)
        return abs(a - b) <= max(tol, 1e-6 * max(abs(a), abs(b)))

    def at_least(a: float, b: float) -> bool:
        if math.isinf(a):
            return True
        if math.isinf(b):
            return False
        return a >= b - max(tol, 1e-6 * max(abs(a), abs(b), 1.0))

    pairs = [(lhs_p, rhs_p), (lhs_n, rhs_n), (lhs_t, rhs_t)]
    if domain is not None:
        pairs.append((lhs_e, rhs_e))
    equal = supported and all(close(a, b) for a, b in pairs)
    return BoundsReport(
        passage=(lhs_p, rhs_p), visits=(lhs_n, rhs_n), return_time=(lhs_t, rhs_t),
        exit=None if domain is None else (lhs_e, rhs_e),
        inequalities_hold=all(at_least(a, b) for a, b in pairs),
        supported_in_recurrent=supported, equalities_hold=equal, tolerance=tol)
