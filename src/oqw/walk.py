"""Core model: walks over a vertex set with operator-valued transitions.

A walk is specified by per-site internal dimensions ``d_i`` and a sparse
family of transition operators ``L[to, from]`` (shape ``d_to x d_from``).
A walk is stochastic when for every source ``j`` the blocks satisfy
``sum_i L[i,j]† L[i,j] = Id``; substochastic families (mass leaking at
truncation edges) are representable and accepted by the structural
operations, but flagged by :func:`validate_walk`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, is_dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InputError, ShapeError
from .linalg import COMPLEX, as_matrix, is_psd, unvec, vec

Site = str

DEFAULT_TOLERANCE = 1e-9
KEPT_PER_KIND = 4   # entries of one kind in a walk's store (:meth:`WalkSpec._memo`)

_site_id = str   # a site's id: its key in ``dims``, ``_index`` and ``transitions``


class SiteGraph(NamedTuple):
    """A walk's transitions by site position (declared site order): per site the
    positions of its successors and predecessors, in that order, all of them and
    those whose block's largest |entry| exceeds the walk's tolerance, and every
    site's d, the size of its block in a layout."""

    succ: list[list[int]]
    pred: list[list[int]]
    succ_above: list[list[int]]
    pred_above: list[list[int]]
    sizes: np.ndarray


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
    # transition order; _index: each site's position in the declared site order;
    # _graph: the transitions by position (:class:`SiteGraph`), which graph searches,
    # block layouts and seeded sampler outputs read.  _groups: (keys, read-only stack)
    # per block shape, viewed by ``transitions``.  _store: what queries keep with the
    # walk, filled by :meth:`_memo` only.
    _out: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _index: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _graph: SiteGraph = field(init=False, repr=False, compare=False, default=None)
    _groups: list = field(init=False, repr=False, compare=False, default_factory=list)
    _store: dict = field(init=False, repr=False, compare=False, default_factory=dict)

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
        shapes: dict[tuple, list] = {}
        for k, m in mats.items():
            shapes.setdefault(m.shape, []).append(k)
        views, weak = {}, set()   # per block shape: one copy, finiteness check and max |entry|
        for shape, keys in shapes.items():
            L = np.concatenate([mats[k] for k in keys]).reshape(len(keys), *shape)
            if not np.isfinite(L).all():
                raise ValueError("matrix has non-finite entries")
            amax = np.abs(L).max(axis=(1, 2), initial=0.0)   # zero blocks are dropped
            keys, L, amax = [k for k, m in zip(keys, amax) if m], L[amax > 0], amax[amax > 0]
            L.setflags(write=False)
            self._groups.append((keys, L))
            weak.update(keys[k] for k in np.flatnonzero(amax <= self.tolerance).tolist())
            views.update(zip(keys, L))
        trans = {k: views[k] for k in mats if k in views}
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "dims", dict(dims))
        object.__setattr__(self, "transitions", trans)
        out: dict[Site, list[Site]] = {s: [] for s in sites}
        at, n = self._index, len(sites)
        at.update(zip(sites, range(n)))
        succ, pred = [[] for _ in range(n)], [[] for _ in range(n)]
        for to, fr in trans:
            out[fr].append(to)
            succ[at[fr]].append(at[to])
            pred[at[to]].append(at[fr])
        for row in (*succ, *pred):
            row.sort()
        succ_above, pred_above = succ, pred
        if weak:   # blocks at or below the tolerance, rare: filtered copies
            weak = {(at[to], at[fr]) for to, fr in weak}
            succ_above = [[t for t in row if (t, f) not in weak] for f, row in enumerate(succ)]
            pred_above = [[f for f in row if (t, f) not in weak] for t, row in enumerate(pred)]
        sizes = np.array([dims[s] for s in sites], dtype=np.intp)
        sizes.setflags(write=False)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_graph", SiteGraph(succ, pred, succ_above, pred_above, sizes))

    def dim(self, site) -> int:
        return self.dims[_site_id(site)]

    @property
    def total_dim(self) -> int:
        return sum(self.dims[s] for s in self.sites)

    def block(self, to, fr) -> np.ndarray | None:
        return self.transitions.get((_site_id(to), _site_id(fr)))

    def _memo(self, key: tuple, build):
        """Entry ``key`` of the walk's store, ``build(self)`` on first use.  ``key[0]`` names
        the entry's kind, which one module writes; building a kind's fifth entry drops its
        oldest, so a kind keeps the ``KEPT_PER_KIND`` entries built last."""
        if key not in self._store:
            entry, kind = build(self), [k for k in self._store if k[0] == key[0]]
            if len(kind) >= KEPT_PER_KIND:
                del self._store[kind[0]]
            self._store[key] = entry
        return self._store[key]

    def _kraus_tables(self) -> tuple[list, dict, tuple]:
        """The ``("kraus",)`` entry: :meth:`kraus_stack`, its blocks by transition key, and
        all nonzero entries as ``(to, fr, a, b, value)`` arrays (positions of the block's
        sites in ``sites``, row and column in it)."""
        return self._memo(("kraus",), _vec_kraus)

    def kraus_stack(self) -> list[tuple[list, np.ndarray]]:
        """Read-only ``kron(conj(L), L)`` of every transition, stacked per
        ``(d_to, d_fr)`` group as ``(keys, K)``, ``K[k]`` that of ``L[keys[k]]``;
        built on first use by one broadcast per group and kept with the walk."""
        return self._kraus_tables()[0]

    def kraus(self, to: Site, fr: Site) -> np.ndarray:
        """Read-only vec-matrix ``kron(conj(L), L)`` of the transition
        ``L[to, fr]``, a view into :meth:`kraus_stack`."""
        return self._kraus_tables()[1][(to, fr)]

    def successors(self, site) -> list[Site]:
        """Targets reachable in one step, in declared site order."""
        return [self.sites[k] for k in self._graph.succ[self._index[_site_id(site)]]]

    def predecessors(self, site) -> list[Site]:
        return [self.sites[k] for k in self._graph.pred[self._index[_site_id(site)]]]

    def column_defect(self, source) -> float:
        """Operator-norm residual of the stochasticity constraint at a source,
        summed in the declared transition order."""
        j = _site_id(source)
        acc = -np.eye(self.dims[j], dtype=COMPLEX)
        for to in self._out[j]:
            L = self.transitions[(to, j)]
            acc = acc + L.conj().T @ L
        return float(np.linalg.norm(acc, 2))


def _vec_kraus(walk: WalkSpec) -> tuple[list, dict, tuple]:
    """:meth:`WalkSpec._kraus_tables`, computed."""
    stack, coo = [], [(np.zeros(0, dtype=int),) * 4 + (np.zeros(0, dtype=COMPLEX),)]
    for keys, L in walk._groups:
        m, a, b = L.shape
        K = (L.conj()[:, :, None, :, None] * L[:, None, :, None, :]).reshape(m, a * a, b * b)
        K.setflags(write=False)
        stack.append((keys, K))
        ends = np.array([(walk._index[t], walk._index[f]) for t, f in keys], dtype=int)
        k, r, c = np.nonzero(K)
        coo.append((*ends.reshape(-1, 2)[k].T, r, c, K[k, r, c]))
    by_key = {k: Kk for keys, K in stack for k, Kk in zip(keys, K)}
    return stack, by_key, tuple(np.concatenate(x) for x in zip(*coo))


@dataclass(frozen=True, eq=False)
class BlockIndex:
    """The one layout of a stacked vector of column-major vectorized blocks:
    block k is ``sizes[k]`` square and begins at offset ``begins[k]``.  Laid out
    from walk positions (:meth:`at`), ``sites`` names the blocks and ``starts``
    gives each site's offset by its position in the walk (-1: no block)."""

    sizes: np.ndarray
    begins: np.ndarray
    total: int
    sites: tuple[Site, ...] = ()
    starts: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def of_sizes(cls, sizes, sites=(), starts=None) -> "BlockIndex":
        """Blocks of the given sizes (zero included), in order: offsets from a cumsum of d^2."""
        sizes = np.asarray(sizes, dtype=np.intp)
        stops = np.cumsum(sizes * sizes)
        return cls(sizes, stops - sizes * sizes, int(stops[-1]) if len(sizes) else 0,
                   sites, starts)

    @classmethod
    def at(cls, walk: WalkSpec, positions) -> "BlockIndex":
        """Blocks of the sites at ``positions`` in the walk, in that order."""
        pos = np.array(positions, dtype=np.intp)
        sites = tuple(map(walk.sites.__getitem__, pos.tolist()))
        idx = cls.of_sizes(walk._graph.sizes[pos], sites, np.full(len(walk.sites), -1))
        idx.starts[pos] = idx.begins
        return idx

    @cached_property
    def groups(self) -> dict[int, np.ndarray]:
        """Offsets of the blocks of each nonzero size, by ascending size."""
        return {d: self.begins[self.sizes == d]
                for d in np.flatnonzero(np.bincount(self.sizes)).tolist() if d}

    @cached_property
    def trace(self) -> np.ndarray:
        """Vector t with t^H x = the sum of the traces of x's blocks (read-only)."""
        t = np.zeros(self.total, dtype=COMPLEX)
        for d, begins in self.groups.items():
            t[(begins[:, None] + np.arange(0, d * d, d + 1)).ravel()] = 1.0
        t.setflags(write=False)
        return t

    def pack(self, blocks: DiagonalState | DiagonalObservable) -> np.ndarray:
        """Stacked vectorized blocks of a state or observable (zero where absent)."""
        x = np.zeros(self.total, dtype=COMPLEX)
        for s, lo, d in zip(self.sites, self.begins.tolist(), self.sizes.tolist(), strict=True):
            b = blocks.blocks.get(s)
            if b is not None:
                x[lo:lo + d * d] = vec(b)
        return x

    def unpack(self, x: np.ndarray) -> dict:
        """The blocks of ``x`` by site."""
        spans = zip(self.sites, self.begins.tolist(), self.sizes.tolist(), strict=True)
        return {s: unvec(x[lo:lo + d * d], d) for s, lo, d in spans}


def _entries(walk: WalkSpec, rows: BlockIndex, cols: BlockIndex) -> tuple[np.ndarray, ...]:
    """Rows, columns and values of the walk's nonzero vec-Kraus entries whose
    blocks run from a ``cols`` site to a ``rows`` site, placed by offset."""
    to, fr, a, b, v = walk._kraus_tables()[2]
    r0, c0 = rows.starts[to], cols.starts[fr]
    keep = np.flatnonzero((r0 >= 0) & (c0 >= 0))
    return r0[keep] + a[keep], c0[keep] + b[keep], v[keep]


def _scatter(r, c, v, shape: tuple, sparse: bool):
    """Dense or CSC matrix of distinct entries; CSC sorted by column, then row."""
    if sparse:
        from scipy.sparse import csc_matrix
        order = np.lexsort((r, c))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(c, minlength=shape[1]))))
        return csc_matrix((v[order], r[order], indptr), shape=shape)
    m = np.zeros(shape, dtype=COMPLEX)
    m[r, c] = v
    return m


def block_matrix(walk: WalkSpec, rows: BlockIndex, cols: BlockIndex, sparse: bool = False):
    """Matrix whose block (to, fr) is the walk's cached vec-Kraus block of
    ``L[to, fr]``, for every transition from a ``cols`` site to a ``rows``
    site, and zero elsewhere: a dense array or (``sparse``, scipy imported on
    first use) a CSC matrix."""
    return _scatter(*_entries(walk, rows, cols), (rows.total, cols.total), sparse)


def identity_minus(walk: WalkSpec, idx: BlockIndex, sparse: bool = False):
    """``Id - block_matrix(walk, idx, idx, sparse)`` from the same entries,
    equal to that subtraction entry for entry (exact zeros are left out of
    the CSC matrix, as the sparse subtraction leaves them out)."""
    r, c, v = _entries(walk, idx, idx)
    on = r == c
    v, free = on - v, np.ones(idx.total, dtype=bool)
    free[r[on]] = False
    d, keep = np.flatnonzero(free), v != 0
    return _scatter(np.concatenate([r[keep], d]), np.concatenate([c[keep], d]),
                    np.concatenate([v[keep], np.ones(len(d), dtype=COMPLEX)]),
                    (idx.total, idx.total), sparse)


def block_diagonal(blocks) -> np.ndarray:
    """Dense block-diagonal matrix of the given, possibly rectangular, blocks."""
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)),
                   dtype=COMPLEX)
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _fresh(x):
    """``x`` in new lists, tuples, dicts and dataclasses over its arrays, made read-only."""
    if isinstance(x, np.ndarray):
        x.setflags(write=False)
    elif isinstance(x, (list, tuple)):
        return type(x)(map(_fresh, x))
    elif isinstance(x, dict):
        return {k: _fresh(v) for k, v in x.items()}
    elif is_dataclass(x):
        y = copy.copy(x)
        vars(y).update(_fresh(vars(x)))
        return y
    return x


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


def _check_blocks(walk: WalkSpec, blocks: _SiteBlocks, what: str) -> None:
    """InputError unless each block of ``blocks`` (a ``what``) is d x d for a site of the walk."""
    for s, b in blocks.blocks.items():
        if s not in walk.dims:
            raise InputError(f"{what} block at unknown site {s!r}")
        if b.shape != (walk.dims[s], walk.dims[s]):
            raise ShapeError(f"{what} block at {s!r} has wrong shape {b.shape}")


def check_state(walk: WalkSpec, state: DiagonalState) -> None:
    """Raise InputError unless all blocks are PSD (and trace is 1 if normalized)."""
    tol = walk.tolerance
    _check_blocks(walk, state, "state")
    for s, b in state.blocks.items():
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
    _check_blocks(walk, state, "state")
    for s, b in state.blocks.items():
        for k in walk._graph.succ[walk._index[s]]:
            t = walk.sites[k]
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
    rows, cols = np.nonzero(T > 0.0)   # row-major: the order of the declared transitions
    blocks = np.sqrt(T[rows, cols]).astype(COMPLEX).reshape(-1, 1, 1)
    trans = dict(zip(zip(map(labels.__getitem__, rows.tolist()),
                         map(labels.__getitem__, cols.tolist())), blocks))
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
