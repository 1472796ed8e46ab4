"""Dense linear-algebra helpers shared across the package.

Vectorization convention, fixed project-wide: column-major stacking,
``vec(A rho B†) = kron(conj(B), A) vec(rho)``.  All superoperator matrices
in this package act on column-major vectorized density blocks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalError

COMPLEX = np.complex128
RANK_TOL = 1e-8  # relative singular-value threshold for all rank decisions
FIXED_POINT_TOL = 1e-9  # relative singular value of M - Id below which a direction is fixed


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-D complex ndarray and reject non-finite entries."""
    a = np.asarray(x, dtype=COMPLEX)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-major vectorization of a matrix."""
    return np.asarray(rho, dtype=COMPLEX).reshape(-1, order="F")


def unvec(x: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`vec` for a d x d matrix."""
    return np.asarray(x, dtype=COMPLEX).reshape(d, d, order="F")


def kraus_block(L: np.ndarray) -> np.ndarray:
    """Matrix of ``rho -> L rho L†`` in the column-major vec convention."""
    return np.kron(L.conj(), L)


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A†)/2."""
    return 0.5 * (a + a.conj().T)


def is_hermitian(a: np.ndarray, tol: float = 1e-9) -> bool:
    return bool(np.abs(a - a.conj().T).max(initial=0.0) <= tol)


def is_psd(a: np.ndarray, tol: float = 1e-9) -> bool:
    """Positive semidefinite within tolerance (Hermitian part is used)."""
    if not is_hermitian(a, max(tol, 1e-7 * max(1.0, float(np.abs(a).max(initial=0.0))))):
        return False
    w = np.linalg.eigvalsh(herm(a))
    return bool(w.min(initial=0.0) >= -tol)


def positive_part(a: np.ndarray) -> np.ndarray:
    """Spectral positive part of a Hermitian matrix."""
    w, v = np.linalg.eigh(herm(a))
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix; small negatives clipped."""
    w, v = np.linalg.eigh(herm(a))
    if w.min(initial=0.0) < -1e-8 * max(1.0, abs(w).max(initial=1.0)):
        raise ValueError("matrix is not positive semidefinite")
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w) @ v.conj().T


def spectral_radius(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(m)).max())


def extend_basis(basis: np.ndarray, new_vectors: np.ndarray) -> np.ndarray:
    """Grow an orthonormal basis by the components of new vectors outside it.

    A component counts as new when its singular value exceeds ``RANK_TOL`` times
    the largest column norm of ``new_vectors``, so rounding left after
    projecting out the basis is never taken for a direction.
    """
    if new_vectors.size == 0:
        return basis
    scale = float(np.sqrt((np.abs(new_vectors) ** 2).sum(axis=0).max()))
    if basis.shape[1]:
        new_vectors = new_vectors - basis @ (basis.conj().T @ new_vectors)
    u, s, _ = np.linalg.svd(new_vectors, full_matrices=False)
    extra = u[:, s > RANK_TOL * scale]
    if not extra.shape[1]:
        return basis
    out = np.hstack([basis, extra])
    # one re-orthonormalization pass to suppress drift
    q, _ = np.linalg.qr(out)
    return q[:, : out.shape[1]]


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Real orthonormal basis of d x d Hermitian matrices (Frobenius inner product)."""
    out = []
    for k in range(d):
        e = np.zeros((d, d), dtype=COMPLEX)
        e[k, k] = 1.0
        out.append(e)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for k in range(d):
        for l in range(k + 1, d):
            e = np.zeros((d, d), dtype=COMPLEX)
            e[k, l] = inv_sqrt2
            e[l, k] = inv_sqrt2
            out.append(e)
            e = np.zeros((d, d), dtype=COMPLEX)
            e[k, l] = -1j * inv_sqrt2
            e[l, k] = 1j * inv_sqrt2
            out.append(e)
    return out


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
