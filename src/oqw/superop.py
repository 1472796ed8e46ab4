"""Block matrices and fixed points of the one-step map.

The one-step map acts on stacked column-major vectorized blocks, laid out
by a :class:`BlockIndex`.  :func:`block_matrix` builds every matrix of the
map: dense, or sparse (CSC) for a sparse LU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .linalg import COMPLEX, herm, hermitian_basis, positive_part, unvec, vec
from .walk import DiagonalObservable, DiagonalState, Site, WalkSpec, _site_id, apply_step

FIXED_POINT_TOL = 1e-9  # relative singular value of M - Id below which a direction is fixed


@dataclass(frozen=True)
class BlockIndex:
    """Offsets of per-site vectorized blocks inside a stacked vector."""

    sites: tuple[Site, ...]
    offsets: dict
    total: int

    @classmethod
    def build(cls, walk: WalkSpec, sites) -> "BlockIndex":
        sites = tuple(_site_id(s) for s in sites)
        offsets = {}
        off = 0
        for s in sites:
            d2 = walk.dims[s] ** 2
            offsets[s] = (off, off + d2)
            off += d2
        return cls(sites, offsets, off)

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


def block_matrix(walk: WalkSpec, rows: BlockIndex, cols: BlockIndex, sparse: bool = False):
    """Matrix whose block (to, fr) is the walk's cached vec-Kraus block of
    ``L[to, fr]``, for every transition from a ``cols`` site to a ``rows``
    site, and zero elsewhere: COO triples gathered per group of
    :meth:`WalkSpec.kraus_stack`, scattered into a dense array or (``sparse``,
    scipy imported on first use) a CSC matrix."""
    r, c, v = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [np.zeros(0, dtype=COMPLEX)]
    for keys, K in walk.kraus_stack():
        r0 = np.array([rows.offsets.get(to, (-1,))[0] for to, _ in keys])
        c0 = np.array([cols.offsets.get(fr, (-1,))[0] for _, fr in keys])
        keep = np.flatnonzero((r0 >= 0) & (c0 >= 0))
        k, a, b = np.nonzero(K[keep])
        k = keep[k]
        r.append(r0[k] + a)
        c.append(c0[k] + b)
        v.append(K[k, a, b])
    r, c, v = np.concatenate(r), np.concatenate(c), np.concatenate(v)
    if sparse:
        from scipy.sparse import csc_matrix
        return csc_matrix((v, (r, c)), shape=(rows.total, cols.total))
    m = np.zeros((rows.total, cols.total), dtype=COMPLEX)
    m[r, c] = v
    return m


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
    """
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
