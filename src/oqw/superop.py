"""Fixed points of the one-step map: the invariant state.

The fixed space is read from the first-return map at the walk's first site
when every trajectory returns there (a d_s^2 x d_s^2 map, from the kept
capture series of that site onto itself), and otherwise from one SVD of the
whole step matrix, :func:`~oqw.walk.block_matrix` of every site.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .hitting import DIVERGENCE_TOL, _return_map, capture_series
from .linalg import fixed_point_projection, herm, positive_part
from .walk import BlockIndex, DiagonalState, WalkSpec, _fresh, apply_step, block_matrix


def invariant_state(walk: WalkSpec) -> tuple[DiagonalState | None, int]:
    """A normalized fixed point of the one-step map, plus the fixed-space dimension.

    The state is the exact Cesaro limit of the iteration started from the maximally
    mixed state (spectral projection at eigenvalue 1; from the first-return map where
    :func:`_first_return_fixed_point` applies, else by one SVD of the step matrix),
    with its blocks projected back to the PSD cone and renormalized.  Returns
    ``(None, k)`` when no normalized positive fixed point exists: ``k = 0`` when
    nothing is fixed, as for substochastic truncations, and ``k`` the fixed-space
    dimension when the projected fixed point has no trace.  Computed once per walk,
    kept in its store; arrays are read-only.
    """
    return _fresh(walk._memo(("invariant",), _invariant_state))


def _invariant_state(walk: WalkSpec) -> tuple[DiagonalState | None, int]:
    """The walk's kept invariant state: :func:`invariant_state`, computed."""
    idx = BlockIndex.at(walk, range(len(walk.sites)))
    try:
        x, k = _first_return_fixed_point(walk)
    except NumericalError:   # a refused series or a missed residual gate: the dense path
        x = None
    if x is None:   # the Cesaro limit from the maximally mixed state
        project, k = fixed_point_projection(block_matrix(walk, idx, idx))
        x = project(idx.trace / walk.total_dim)
    if k == 0:
        return None, 0
    blocks = {s: positive_part(herm(b)) for s, b in idx.unpack(x).items()}
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


def _first_return_fixed_point(walk: WalkSpec) -> tuple[np.ndarray | None, int]:
    """A fixed point in walk site order and the fixed dimension k from the return map ``P =
    direct + C Z`` at the first site s, ``Z = (Id - S)^{-1} E``; no point unless the s -> s series
    keeps every other site and certifies ``r(S) < 1 - DIVERGENCE_TOL`` with nothing trapped.
    Then every trajectory returns to s, and the walk's fixed points x match P's by ``x_D = Z
    x_s`` (Evans & Hoegh-Krohn 1978; Carbone & Pautrat 2016); for k = 1, ``x_s`` from ``vec(Id /
    d_s)`` gives a positive multiple of the dense path's x, and k >= 2 is left to that path."""
    s = walk.sites[0]
    series = capture_series(walk, s, s)
    if (len(series.interior) < len(walk.sites) - 1
            or (law := series.blocks.law).method != "block_solve"
            or not law.radius_bound < 1.0 - DIVERGENCE_TOL):
        return None, 0
    P, Z = _return_map(series)
    project, k = fixed_point_projection(P)
    if k > 1:
        return None, k
    x_s = project(series.outer.trace / walk.dims[s])   # vec(Id / d_s)
    return np.concatenate([x_s, Z @ x_s]), k
