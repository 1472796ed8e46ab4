"""Fixed points of the one-step map: the invariant state.

:func:`fixed_point_map` reads every fixed space of a whole walk from the first-return map
onto a return set R, the sites (in declared order) reaching none of those taken before, which
every site reaches.  With the law X of the other sites D onto R certified with nothing trapped,
the fixed points x and dual ones l are ``P = K_RR + X^dag K_DR``'s, lifted by ``x_D = (Id -
K_DD)^{-1} K_DR x_R`` and ``l_D = X l_R`` (Evans & Hoegh-Krohn 1978; Carbone & Pautrat 2016).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalError
from .hitting import _exit_law, _search, capture_series
from .linalg import fixed_point_projection, herm, positive_part
from .walk import BlockIndex, DiagonalState, WalkSpec, _fresh, apply_step, block_matrix


def invariant_state(walk: WalkSpec) -> tuple[DiagonalState | None, int]:
    """A normalized fixed point of the one-step map, plus the fixed-space dimension.

    The state is the exact Cesaro limit of the iteration started from the maximally
    mixed state (spectral projection at eigenvalue 1, by :func:`fixed_point_map`),
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
    project, k = fixed_point_map(walk)
    if k == 0:
        return None, 0
    x = project(idx.trace / walk.total_dim)   # the Cesaro limit from the maximally mixed state
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


def fixed_point_map(walk: WalkSpec, adjoint: bool = False) -> tuple[Callable, int]:
    """The projection onto the step matrix's fixed space (``adjoint``: its adjoint's) in walk
    site order and the fixed dimension; without a certified law, R is every site and P the
    step matrix."""
    sites, free, ret = range(len(walk.sites)), bytearray(b"\x01") * len(walk.sites), []
    for p in sites:
        if free[p]:   # p reaches no site taken before: take it, and drop every site reaching it
            ret.append(p)
            _search(walk._graph.pred, [p], free)
    rest = sorted(set(sites).difference(ret))
    rows, cols, full = (BlockIndex.at(walk, pos) for pos in (ret, rest, sites))
    try:
        s = walk.sites[ret[0]]
        series = capture_series(walk, s, s).blocks if len(ret) == 1 else None
        law = (series.law if series and len(series.inner.sites) == len(rest)
               else _exit_law(walk, rest, ret)[1] if rest else None)
        if law is None or law.method != "block_solve":
            raise NumericalError("no law off the return set, or one that traps mass")
        K_DR = block_matrix(walk, cols, rows)
        Z, X = law.resolve(K_DR, dual=False), law.x
    except NumericalError:   # also a refused law or a missed residual gate: R is every site
        step = block_matrix(walk, full, full)
        return fixed_point_projection(step.conj().T if adjoint else step)
    order = BlockIndex.at(walk, ret + rest)   # walk order from R's rows, then D's
    perm = np.repeat(order.starts - full.begins, full.sizes ** 2) + np.arange(full.total)

    def lift(right: np.ndarray, left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        right, left = np.vstack([right, Z @ right])[perm], np.vstack([left, X @ left])[perm]
        return (left, right) if adjoint else (right, left)
    return fixed_point_projection(block_matrix(walk, rows, rows) + X.conj().T @ K_DR, lift)
