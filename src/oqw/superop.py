"""Block matrices and fixed points of the one-step map.

The one-step map acts on stacked column-major vectorized blocks; a
:class:`BlockIndex` is the one description of such a vector (offsets, trace
vector, blocks per size).  :func:`block_matrix` builds every matrix of the
map, :func:`identity_minus` its ``Id - M``: dense, or sparse (CSC) for a
sparse LU, both from the walk's table of nonzero vec-Kraus entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NumericalError
from .linalg import COMPLEX, herm, hermitian_basis, positive_part, unvec, vec
from .walk import DiagonalObservable, DiagonalState, Site, WalkSpec, _fresh, apply_step

FIXED_POINT_TOL = 1e-9  # relative singular value of M - Id below which a direction is fixed


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


def hermitian_basis_matrix(idx: BlockIndex) -> np.ndarray:
    """Columns ``vec(e)`` for the real-orthonormal Hermitian basis ``e`` of
    every block in ``idx``, block by block (block-diagonal, ``idx.total`` square)."""
    return block_diagonal([np.column_stack([vec(e) for e in hermitian_basis(d)])
                           for d in idx.sizes.tolist()])


def _fixed_space(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of ker(M - I) and ker(M† - I) from one SVD.

    Singular values up to ``FIXED_POINT_TOL * max(1, sigma_max)`` count as zero: a cut
    relative to ``sigma_max`` alone would find no fixed space at all in a map
    that equals the identity up to rounding.
    """
    u, s, vh = np.linalg.svd(matrix - np.eye(matrix.shape[0], dtype=COMPLEX))
    null = s <= FIXED_POINT_TOL * max(1.0, float(s.max(initial=0.0)))
    return vh[null].conj().T, u[:, null]


def fixed_point_projection(matrix: np.ndarray) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """Spectral projection onto the eigenvalue-1 eigenspace of M, as a map.

    Equals the Cesaro limit of ``mean_k M^k x`` when the peripheral spectrum
    is semisimple (true for trace-preserving completely positive maps).
    Returns the map ``x -> right (left^dag right)^{-1} left^dag x``, from one
    SVD, and the fixed-space dimension.
    """
    right, left = _fixed_space(matrix)
    k = right.shape[1]
    if k == 0:
        return np.zeros_like, 0
    if left.shape[1] != k:
        raise NumericalError("left/right fixed spaces have different dimensions",
                             {"right": k, "left": left.shape[1]})
    gram = left.conj().T @ right
    return lambda x: right @ np.linalg.solve(gram, left.conj().T @ x), k


def invariant_state(walk: WalkSpec) -> tuple[DiagonalState | None, int]:
    """A normalized fixed point of the one-step map, plus the fixed-space dimension.

    The state is the exact Cesaro limit of the iteration started from the
    maximally mixed state (spectral projection at eigenvalue 1), with its
    blocks projected back to the PSD cone and renormalized.  Returns
    ``(None, k)`` when no normalized positive fixed point exists: ``k = 0``
    when nothing is fixed, as for substochastic truncations, and ``k`` the
    fixed-space dimension when the projected fixed point has no trace.
    Computed once per walk, kept in its store; arrays are read-only.
    """
    return _fresh(walk._memo(("invariant",), _invariant_state))


def _invariant_state(walk: WalkSpec) -> tuple[DiagonalState | None, int]:
    """The walk's kept invariant state: :func:`invariant_state`, computed."""
    idx = BlockIndex.at(walk, range(len(walk.sites)))
    x = idx.trace / walk.total_dim   # the maximally mixed state
    project, k = fixed_point_projection(block_matrix(walk, idx, idx))
    if k == 0:
        return None, 0
    blocks = idx.unpack(project(x))
    blocks = {s: positive_part(herm(b)) for s, b in blocks.items()}
    total = sum(float(np.trace(b).real) for b in blocks.values())
    if total < 1e-8:
        return None, k
    state = DiagonalState({s: b / total for s, b in blocks.items()})
    # fixed-point residual in trace norm
    stepped = apply_step(walk, state)
    resid = sum(np.abs(np.linalg.eigvalsh(herm(stepped.blocks[s] - state.blocks[s]))).sum()
                for s in walk.sites)
    if resid > 1e-7:
        raise NumericalError("projected fixed point fails the invariance check",
                             {"residual": float(resid)})
    return state, k
