"""Core model: walks over a vertex set with operator-valued transitions.

A walk is specified by per-site internal dimensions ``d_i`` and a sparse
family of transition operators ``L[to, from]`` (shape ``d_to x d_from``).
A walk is stochastic when for every source ``j`` the blocks satisfy
``sum_i L[i,j]† L[i,j] = Id``; substochastic families (mass leaking at
truncation edges) are representable and accepted by the structural
operations, but flagged by :func:`validate_walk`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, ShapeError
from .linalg import COMPLEX, as_matrix, is_psd

Site = str

DEFAULT_TOLERANCE = 1e-9


def _site_id(s) -> Site:
    return s if isinstance(s, str) else str(s)


@dataclass(frozen=True)
class WalkSpec:
    """Immutable walk specification.

    Parameters
    ----------
    sites : ordered site ids (coerced to ``str``).
    dims : site id -> internal dimension (>= 1).
    transitions : (target, source) -> complex matrix of shape
        (dims[target], dims[source]).  Blocks that are identically zero may
        simply be omitted.
    tolerance : absolute tolerance used by validation and by downstream
        numerical decisions that consult the walk.
    """

    sites: tuple[Site, ...]
    dims: Mapping[Site, int]
    transitions: Mapping[tuple[Site, Site], np.ndarray]
    tolerance: float = DEFAULT_TOLERANCE
    # The walk's table, built once.  _out: targets of each source in declared
    # transition order; _succ and _pred follow the declared site order _index,
    # which seeded sampler outputs use.  _groups: (keys, read-only stack) per
    # block shape, viewed by ``transitions``; _amax: each block's max |entry|.
    _out: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _succ: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _pred: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _index: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _groups: list = field(init=False, repr=False, compare=False, default_factory=list)
    _amax: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _kraus: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _stack: list = field(init=False, repr=False, compare=False, default_factory=list)
    _coo: list = field(init=False, repr=False, compare=False, default_factory=list)

    def __post_init__(self):
        sites = tuple(_site_id(s) for s in self.sites)
        if len(set(sites)) != len(sites):
            raise InputError("site ids are not unique")
        dims = {_site_id(s): int(d) for s, d in self.dims.items()}
        for s in sites:
            if s not in dims:
                raise InputError(f"missing dimension for site {s!r}")
            if dims[s] < 1:
                raise InputError(f"dimension of site {s!r} must be >= 1")
        mats: dict[tuple[Site, Site], np.ndarray] = {}
        for (to, fr), L in self.transitions.items():
            to, fr = _site_id(to), _site_id(fr)
            if to not in dims or fr not in dims:
                raise InputError(f"transition ({to!r}, {fr!r}) references unknown site")
            mat = mats[(to, fr)] = np.asarray(L, dtype=COMPLEX)
            if mat.shape != (dims[to], dims[fr]):
                raise ShapeError(
                    f"transition ({to!r}, {fr!r}) has shape {mat.shape}, "
                    f"expected {(dims[to], dims[fr])}"
                )
        views = {}   # per block shape: one copy, finiteness check and max |entry|
        for shape in dict.fromkeys(m.shape for m in mats.values()):
            keys = [k for k, m in mats.items() if m.shape == shape]
            L = np.concatenate([mats[k] for k in keys]).reshape(len(keys), *shape)
            if not np.isfinite(L).all():
                raise ValueError("matrix has non-finite entries")
            amax = np.abs(L).max(axis=(1, 2), initial=0.0)   # zero blocks are dropped
            keys, L, amax = [k for k, m in zip(keys, amax) if m], L[amax > 0], amax[amax > 0]
            L.setflags(write=False)
            self._groups.append((keys, L))
            self._amax.update(zip(keys, amax.tolist()))
            views.update(zip(keys, L))
        trans = {k: views[k] for k in mats if k in views}
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "dims", dict(dims))
        object.__setattr__(self, "transitions", trans)
        out: dict[Site, list[Site]] = {s: [] for s in sites}
        for to, fr in trans:
            out[fr].append(to)
        object.__setattr__(self, "_out", out)
        order = self._index
        order.update((s, k) for k, s in enumerate(sites))
        succ, pred = self._succ, self._pred
        succ.update((s, []) for s in sites)
        pred.update((s, []) for s in sites)
        for to, fr in sorted(sorted(trans, key=lambda k: order[k[0]]), key=lambda k: order[k[1]]):
            succ[fr].append(to)
            pred[to].append(fr)

    def dim(self, site) -> int:
        return self.dims[_site_id(site)]

    @property
    def total_dim(self) -> int:
        return sum(self.dims[s] for s in self.sites)

    def block(self, to, fr) -> np.ndarray | None:
        return self.transitions.get((_site_id(to), _site_id(fr)))

    def kraus_stack(self) -> list[tuple[list, np.ndarray]]:
        """Read-only ``kron(conj(L), L)`` of every transition, stacked per
        ``(d_to, d_fr)`` group as ``(keys, K)``, ``K[k]`` that of ``L[keys[k]]``;
        built on first use by one broadcast per group and kept with the walk,
        with all nonzero entries in ``_coo`` as ``[to, fr, a, b, value]`` arrays
        (positions of the block's sites in ``sites``, row and column in it)."""
        if not self._coo:
            coo = [(np.zeros(0, dtype=int),) * 4 + (np.zeros(0, dtype=COMPLEX),)]
            for keys, L in self._groups:
                m, a, b = L.shape
                K = L.conj()[:, :, None, :, None] * L[:, None, :, None, :]
                K = K.reshape(m, a * a, b * b)
                K.setflags(write=False)
                self._stack.append((keys, K))
                self._kraus.update(zip(keys, K))
                ends = np.array([(self._index[t], self._index[f]) for t, f in keys], dtype=int)
                k, r, c = np.nonzero(K)
                coo.append((*ends.reshape(-1, 2)[k].T, r, c, K[k, r, c]))
            self._coo.extend(np.concatenate(x) for x in zip(*coo))
        return self._stack

    def kraus(self, to: Site, fr: Site) -> np.ndarray:
        """Read-only vec-matrix ``kron(conj(L), L)`` of the transition
        ``L[to, fr]``, a view into :meth:`kraus_stack`."""
        self.kraus_stack()
        return self._kraus[(to, fr)]

    def successors(self, site) -> list[Site]:
        """Targets reachable in one step, in declared site order."""
        return list(self._succ[_site_id(site)])

    def predecessors(self, site) -> list[Site]:
        return list(self._pred[_site_id(site)])

    def column_defect(self, source) -> float:
        """Operator-norm residual of the stochasticity constraint at a source,
        summed in the declared transition order."""
        j = _site_id(source)
        acc = -np.eye(self.dims[j], dtype=COMPLEX)
        for to in self._out[j]:
            L = self.transitions[(to, j)]
            acc = acc + L.conj().T @ L
        return float(np.linalg.norm(acc, 2))


@dataclass
class _SiteBlocks:
    """Site id -> square complex block; sites without a block hold zero."""

    blocks: dict[Site, np.ndarray]

    def __post_init__(self):
        self.blocks = {_site_id(s): np.array(b, dtype=COMPLEX) for s, b in self.blocks.items()}

    def block(self, site, dim: int | None = None) -> np.ndarray:
        s = _site_id(site)
        if s in self.blocks:
            return self.blocks[s]
        if dim is None:
            raise KeyError(s)
        return np.zeros((dim, dim), dtype=COMPLEX)


@dataclass
class DiagonalState(_SiteBlocks):
    """Block-diagonal state: site id -> PSD block.  Total trace <= 1.

    Sub-normalized states are first class; ``normalized`` only marks intent
    and is what :func:`check_state` enforces when set.
    """

    normalized: bool = True

    def trace(self) -> float:
        return float(sum(np.trace(b).real for b in self.blocks.values()))

    def copy(self) -> "DiagonalState":
        return DiagonalState({s: b.copy() for s, b in self.blocks.items()}, self.normalized)


@dataclass
class DiagonalObservable(_SiteBlocks):
    """Block-diagonal observable: site id -> Hermitian block."""

    def copy(self) -> "DiagonalObservable":
        return DiagonalObservable({s: b.copy() for s, b in self.blocks.items()})


def identity_observable(walk: WalkSpec, sites: Iterable[Site] | None = None) -> DiagonalObservable:
    chosen = walk.sites if sites is None else [_site_id(s) for s in sites]
    return DiagonalObservable({s: np.eye(walk.dims[s], dtype=COMPLEX) for s in chosen})


def _known_sites(walk: WalkSpec, sites) -> list[Site]:
    """The ids of ``sites``; InputError naming those the walk does not have."""
    ids = [_site_id(s) for s in sites]
    unknown = {s for s in ids if s not in walk.dims}
    if unknown:
        raise InputError(f"unknown sites {sorted(unknown)}")
    return ids


def site_state(walk: WalkSpec, site, rho) -> DiagonalState:
    """State concentrated at one site."""
    s, = _known_sites(walk, [site])
    try:
        mat = as_matrix(rho)
    except ValueError as exc:  # not a finite 2-D array
        raise InputError(f"state block at {s!r}: {exc}") from None
    if mat.shape != (walk.dims[s], walk.dims[s]):
        raise ShapeError(f"state block at {s!r} has shape {mat.shape}, expected "
                         f"({walk.dims[s]}, {walk.dims[s]})")
    return DiagonalState({s: mat})


def check_state(walk: WalkSpec, state: DiagonalState) -> None:
    """Raise InputError unless all blocks are PSD (and trace is 1 if normalized)."""
    tol = walk.tolerance
    for s, b in state.blocks.items():
        if s not in walk.dims:
            raise InputError(f"state block at unknown site {s!r}")
        if b.shape != (walk.dims[s], walk.dims[s]):
            raise ShapeError(f"state block at {s!r} has wrong shape {b.shape}")
        if not is_psd(b, max(tol, 1e-9)):
            raise InputError(f"state block at {s!r} is not positive semidefinite")
    if state.normalized and abs(state.trace() - 1.0) > max(tol, 1e-8):
        raise InputError(f"state trace is {state.trace()}, expected 1")


@dataclass
class ValidationReport:
    residuals: dict[Site, float]
    tolerance: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    @property
    def accepted(self) -> bool:
        return self.max_residual <= self.tolerance


def validate_walk(walk: WalkSpec) -> ValidationReport:
    """Per-source residuals of ``sum_i L[i,j]† L[i,j] = Id``.

    Shape errors are raised at :class:`WalkSpec` construction; here only the
    stochasticity defect is measured.
    """
    return ValidationReport(
        residuals={j: walk.column_defect(j) for j in walk.sites},
        tolerance=walk.tolerance,
    )


def apply_step(walk: WalkSpec, state: DiagonalState) -> DiagonalState:
    """One step of the walk: block at i becomes ``sum_j L[i,j] tau(j) L[i,j]†``."""
    out = {s: np.zeros((walk.dims[s], walk.dims[s]), dtype=COMPLEX) for s in walk.sites}
    for s, b in state.blocks.items():
        if s not in walk.dims:
            raise InputError(f"state block at unknown site {s!r}")
        for t in walk._succ[s]:
            L = walk.transitions[(t, s)]
            out[t] += L @ b @ L.conj().T
    return DiagonalState(out, normalized=state.normalized)


def dual_apply(walk: WalkSpec, obs: DiagonalObservable) -> DiagonalObservable:
    """Heisenberg step: block at j becomes ``sum_i L[i,j]† A(i) L[i,j]``."""
    out = {s: np.zeros((walk.dims[s], walk.dims[s]), dtype=COMPLEX) for s in walk.sites}
    for (to, fr), L in walk.transitions.items():
        a = obs.blocks.get(to)
        if a is not None:
            out[fr] += L.conj().T @ a @ L
    return DiagonalObservable(out)


def minimal_dilation(transition_matrix, labels: Sequence | None = None,
                     tolerance: float = DEFAULT_TOLERANCE) -> WalkSpec:
    """Walk with one-dimensional fibers ``L[i,j] = sqrt(t[i,j])``.

    ``transition_matrix`` must be column-stochastic with nonnegative entries;
    its trajectory law is that of the classical chain.
    """
    T = np.asarray(transition_matrix, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise InputError("transition matrix must be square")
    n = T.shape[0]
    if T.min(initial=0.0) < -1e-12:
        raise InputError("transition matrix has a negative entry")
    colsums = T.sum(axis=0)
    if np.abs(colsums - 1.0).max(initial=0.0) > max(tolerance, 1e-8):
        raise InputError(f"columns must sum to 1; worst defect {np.abs(colsums - 1.0).max()}")
    if labels is None:
        labels = [str(k) for k in range(n)]
    labels = [_site_id(s) for s in labels]
    trans = {}
    for i in range(n):
        for j in range(n):
            if T[i, j] > 0.0:
                trans[(labels[i], labels[j])] = np.array([[np.sqrt(T[i, j])]], dtype=COMPLEX)
    return WalkSpec(tuple(labels), {s: 1 for s in labels}, trans, tolerance)


def doubly_stochastic_defect(walk: WalkSpec) -> tuple[float, tuple[Site, Site] | None]:
    """Worst deviation from ``L[i,j] = L[j,i]†`` and the offending pair."""
    worst, pair = 0.0, None
    seen = set()
    for (to, fr) in list(walk.transitions):
        if (to, fr) in seen:
            continue
        seen.add((to, fr))
        seen.add((fr, to))
        a = walk.transitions[(to, fr)]
        b = walk.transitions.get((fr, to))
        d = a - (b.conj().T if b is not None else 0.0)
        defect = float(np.abs(d).max(initial=0.0))
        if defect > worst:
            worst, pair = defect, (to, fr)
    return worst, pair


def is_doubly_stochastic(walk: WalkSpec) -> bool:
    defect, _ = doubly_stochastic_defect(walk)
    return defect <= walk.tolerance
