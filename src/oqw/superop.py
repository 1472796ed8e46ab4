"""Block matrices and fixed points of the one-step map.

The one-step map acts on stacked column-major vectorized blocks, laid out
by a :class:`BlockIndex`.  :func:`block_matrix` builds every matrix of the
map, :func:`identity_minus` its ``Id - M``: dense, or sparse (CSC) for a
sparse LU, both from the walk's table of nonzero vec-Kraus entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .linalg import COMPLEX, herm, hermitian_basis, positive_part, unvec, vec
from .walk import (DiagonalObservable, DiagonalState, Site, WalkSpec, _fresh, _site_id,
                   apply_step)

FIXED_POINT_TOL = 1e-9  # relative singular value of M - Id below which a direction is fixed


@dataclass(frozen=True)
class BlockIndex:
    """Offsets of per-site vectorized blocks inside a stacked vector; ``starts``
    gives them by the site's position in the walk (-1: no block)."""

    sites: tuple[Site, ...]
    offsets: dict
    total: int
    starts: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def build(cls, walk: WalkSpec, sites) -> "BlockIndex":
        """Blocks of ``sites`` (site ids), in that order."""
        return cls.at(walk, [walk._index[_site_id(s)] for s in sites])

    @classmethod
    def at(cls, walk: WalkSpec, positions) -> "BlockIndex":
        """Blocks of the sites at ``positions`` in the walk, in that order: offsets
        are a cumulative sum of their d^2."""
        pos = np.array(positions, dtype=np.intp)
        squares = walk._graph.squares[pos]
        stops = np.cumsum(squares)
        starts = np.full(len(walk.sites), -1)
        starts[pos] = lo = stops - squares
        sites = tuple(map(walk.sites.__getitem__, pos.tolist()))
        offsets = dict(zip(sites, zip(lo.tolist(), stops.tolist())))
        return cls(sites, offsets, int(stops[-1]) if len(pos) else 0, starts)

    def pack(self, blocks: DiagonalState | DiagonalObservable) -> np.ndarray:
        """Stacked vectorized blocks of a state or observable (zero where absent)."""
        x = np.zeros(self.total, dtype=COMPLEX)
        for s in self.sites:
            b = blocks.blocks.get(s)
            if b is not None:
                lo, hi = self.offsets[s]
                x[lo:hi] = vec(b)
        return x

    def unpack(self, walk: WalkSpec, x: np.ndarray) -> dict:
        out = {}
        for s in self.sites:
            lo, hi = self.offsets[s]
            out[s] = unvec(x[lo:hi], walk.dims[s])
        return out

    def dims(self, walk: WalkSpec) -> dict:
        """Fibre dimension of every site, in block order."""
        return {s: walk.dims[s] for s in self.sites}


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


def hermitian_basis_matrix(walk: WalkSpec, idx: BlockIndex) -> np.ndarray:
    """Columns ``vec(e)`` for the real-orthonormal Hermitian basis ``e`` of
    every block in ``idx``, site by site (block-diagonal, ``idx.total`` square)."""
    return block_diagonal([np.column_stack([vec(e) for e in hermitian_basis(walk.dims[s])])
                           for s in idx.sites])


def weight_matrix(idx: BlockIndex, roots: dict) -> np.ndarray:
    """Block-diagonal ``W = (+)_s kron(root_s^T, root_s)``, so that
    ``vec(X)^H W vec(Y) = sum_s Tr(root_s X_s^H root_s Y_s)``."""
    return block_diagonal([np.kron(roots[s].T, roots[s]) for s in idx.sites])


def _fixed_space(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of ker(M - I) and ker(M† - I) from one SVD.

    Singular values up to ``FIXED_POINT_TOL * max(1, sigma_max)`` count as zero: a cut
    relative to ``sigma_max`` alone would find no fixed space at all in a map
    that equals the identity up to rounding.
    """
    u, s, vh = np.linalg.svd(matrix - np.eye(matrix.shape[0], dtype=COMPLEX))
    null = s <= FIXED_POINT_TOL * max(1.0, float(s.max(initial=0.0)))
    return vh[null].conj().T, u[:, null]


def fixed_point_projection(matrix: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, int]:
    """Spectral projection of x onto the eigenvalue-1 eigenspace of M.

    Equals the Cesaro limit of ``mean_k M^k x`` when the peripheral spectrum
    is semisimple (true for trace-preserving completely positive maps).
    Returns the projected vector and the fixed-space dimension.
    """
    right, left = _fixed_space(matrix)
    k = right.shape[1]
    if k == 0:
        return np.zeros_like(x), 0
    if left.shape[1] != k:
        raise NumericalError("left/right fixed spaces have different dimensions",
                             {"right": k, "left": left.shape[1]})
    gram = left.conj().T @ right
    coeff = np.linalg.solve(gram, left.conj().T @ x)
    return right @ coeff, k


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
    idx = BlockIndex.build(walk, walk.sites)
    uniform = DiagonalState(
        {s: np.eye(walk.dims[s], dtype=COMPLEX) / walk.total_dim for s in walk.sites})
    x = idx.pack(uniform)
    proj, k = fixed_point_projection(block_matrix(walk, idx, idx), x)
    if k == 0:
        return None, 0
    blocks = idx.unpack(walk, proj)
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
