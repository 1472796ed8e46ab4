"""Superoperator assembly and fixed points of the one-step map.

A :class:`Superoperator` is the dense block matrix of a map on stacked
column-major vectorized blocks; blocks are restricted to masked source and
target sites.  Everything downstream (capture series, Dirichlet solvers) is
built from these matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .linalg import (
    COMPLEX,
    herm,
    hermitian_basis,
    positive_part,
    spectral_radius,
    unvec,
    vec,
)
from .walk import DiagonalObservable, DiagonalState, Site, WalkSpec, _site_id


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


@dataclass(frozen=True)
class Superoperator:
    """Dense matrix of a masked one-step map on vectorized blocks."""

    walk: WalkSpec
    source_index: BlockIndex
    target_index: BlockIndex
    matrix: np.ndarray

    def apply(self, state: DiagonalState) -> DiagonalState:
        x = self.source_index.pack(state)
        return DiagonalState(self.target_index.unpack(self.walk, self.matrix @ x),
                             normalized=False)

    def dual_apply(self, obs: DiagonalObservable) -> DiagonalObservable:
        y = self.target_index.pack(obs)
        return DiagonalObservable(self.source_index.unpack(self.walk, self.matrix.conj().T @ y))

    def spectral_radius(self) -> float:
        return spectral_radius(self.matrix)


def block_matrix(walk: WalkSpec, rows: BlockIndex, cols: BlockIndex) -> np.ndarray:
    """Dense matrix whose block (to, fr) is the walk's cached vec-Kraus block
    of ``L[to, fr]``, for every transition from a ``cols`` site to a ``rows``
    site; all other entries are zero."""
    m = np.zeros((rows.total, cols.total), dtype=COMPLEX)
    for fr in cols.sites:
        c0, c1 = cols.offsets[fr]
        for to in walk._succ[fr]:
            span = rows.offsets.get(to)
            if span is not None:
                m[span[0]:span[1], c0:c1] = walk.kraus(to, fr)
    return m


def hermitian_basis_matrix(walk: WalkSpec, idx: BlockIndex) -> np.ndarray:
    """Columns ``vec(e)`` for the real-orthonormal Hermitian basis ``e`` of
    every block in ``idx``, site by site (block-diagonal, ``idx.total`` square)."""
    out = np.zeros((idx.total, idx.total), dtype=COMPLEX)
    for s in idx.sites:
        lo, hi = idx.offsets[s]
        out[lo:hi, lo:hi] = np.column_stack([vec(e) for e in hermitian_basis(walk.dims[s])])
    return out


def weight_matrix(idx: BlockIndex, roots: dict) -> np.ndarray:
    """Block-diagonal ``W = (+)_s kron(root_s^T, root_s)``, so that
    ``vec(X)^H W vec(Y) = sum_s Tr(root_s X_s^H root_s Y_s)``."""
    out = np.zeros((idx.total, idx.total), dtype=COMPLEX)
    for s in idx.sites:
        lo, hi = idx.offsets[s]
        out[lo:hi, lo:hi] = np.kron(roots[s].T, roots[s])
    return out


def assemble_superoperator(walk: WalkSpec, source_mask=None, target_mask=None) -> Superoperator:
    """Matrix of the one-step map with sources and targets restricted to masks.

    Block (i, j) is ``kron(conj(L[i,j]), L[i,j])`` and is present iff
    j is in the source mask, i in the target mask, and L[i,j] is nonzero.
    Empty masks give an empty (but valid) operator.
    """
    sources = walk.sites if source_mask is None else [s for s in walk.sites
                                                      if s in {_site_id(x) for x in source_mask}]
    targets = walk.sites if target_mask is None else [s for s in walk.sites
                                                      if s in {_site_id(x) for x in target_mask}]
    if source_mask is not None:
        unknown = {_site_id(x) for x in source_mask} - set(walk.sites)
        if unknown:
            raise InputError(f"source mask has unknown sites {sorted(unknown)}")
    if target_mask is not None:
        unknown = {_site_id(x) for x in target_mask} - set(walk.sites)
        if unknown:
            raise InputError(f"target mask has unknown sites {sorted(unknown)}")
    src = BlockIndex.build(walk, sources)
    tgt = BlockIndex.build(walk, targets)
    return Superoperator(walk, src, tgt, block_matrix(walk, tgt, src))


def _fixed_space(matrix: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of ker(M - I) and ker(M† - I) from one SVD.

    Singular values up to ``tol * max(1, sigma_max)`` count as zero: a cut
    relative to ``sigma_max`` alone would find no fixed space at all in a map
    that equals the identity up to rounding.
    """
    u, s, vh = np.linalg.svd(matrix - np.eye(matrix.shape[0], dtype=COMPLEX))
    null = s <= tol * max(1.0, float(s.max(initial=0.0)))
    return vh[null].conj().T, u[:, null]


def fixed_point_projection(matrix: np.ndarray, x: np.ndarray,
                           tol: float = 1e-9) -> tuple[np.ndarray, int]:
    """Spectral projection of x onto the eigenvalue-1 eigenspace of M.

    Equals the Cesaro limit of ``mean_k M^k x`` when the peripheral spectrum
    is semisimple (true for trace-preserving completely positive maps).
    Returns the projected vector and the fixed-space dimension.
    """
    right, left = _fixed_space(matrix, tol)
    k = right.shape[1]
    if k == 0:
        return np.zeros_like(x), 0
    if left.shape[1] != k:
        raise NumericalError("left/right fixed spaces have different dimensions",
                             {"right": k, "left": left.shape[1]})
    gram = left.conj().T @ right
    coeff = np.linalg.solve(gram, left.conj().T @ x)
    return right @ coeff, k


def invariant_state(walk: WalkSpec, tol: float = 1e-9) -> tuple[DiagonalState | None, int]:
    """A normalized fixed point of the one-step map, plus the fixed-space dimension.

    The state is the exact Cesaro limit of the iteration started from the
    maximally mixed state (spectral projection at eigenvalue 1), with its
    blocks projected back to the PSD cone and renormalized.  Returns
    ``(None, 0)`` when no normalized positive fixed point exists, e.g. for
    substochastic truncations.
    """
    full = assemble_superoperator(walk)
    idx = full.source_index
    uniform = DiagonalState(
        {s: np.eye(walk.dims[s], dtype=COMPLEX) / walk.total_dim for s in walk.sites})
    x = idx.pack(uniform)
    proj, k = fixed_point_projection(full.matrix, x, tol)
    if k == 0:
        return None, 0
    blocks = idx.unpack(walk, proj)
    blocks = {s: positive_part(herm(b)) for s, b in blocks.items()}
    total = sum(float(np.trace(b).real) for b in blocks.values())
    if total < 1e-8:
        return None, k
    state = DiagonalState({s: b / total for s, b in blocks.items()})
    # fixed-point residual in trace norm
    from .walk import apply_step
    stepped = apply_step(walk, state)
    resid = sum(np.abs(np.linalg.eigvalsh(herm(stepped.blocks[s] - state.blocks[s]))).sum()
                for s in walk.sites)
    if resid > 1e-7:
        raise NumericalError("projected fixed point fails the invariance check",
                             {"residual": float(resid)})
    return state, k
