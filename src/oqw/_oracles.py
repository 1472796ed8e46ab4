"""Oracles for :mod:`oqw.hitting`'s certified solves: exact path enumeration, Shanks/Wynn
extrapolation and per-length path sums; only acceptance, tests and exports import them."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import NumericalError
from .hitting import CaptureSeries
from .linalg import COMPLEX, kraus_block, unvec, vec
from .walk import Site, WalkSpec, _site_id


def path_terms(series: CaptureSeries, max_len: int) -> list[np.ndarray]:
    """Per-length vec-matrices of the series' path sum, lengths 1..max_len."""
    walk = series.walk
    shape = (walk.dims[series.target] ** 2, walk.dims[series.source] ** 2)
    terms = [np.zeros(shape, dtype=COMPLEX) for _ in range(max_len)]
    if series.direct is not None:
        terms[0] = walk.kraus(series.target, series.source).copy()
    if series.A.shape[0]:
        S = series.S
        power = series.E.copy()
        for ell in range(2, max_len + 1):
            terms[ell - 1] = terms[ell - 1] + series.C @ power
            power = S @ power
    return terms


@dataclass
class PathSumResult:
    """Exact taboo-path enumeration up to a maximal length."""

    lengths: list[int]
    masses: list[float]          # per-length trace mass for the supplied state
    operators: list[np.ndarray]  # per-length vec-matrices of the path sum

    @property
    def partial_sums(self) -> list[float]:
        return list(accumulate(self.masses, initial=0.0))[1:]


def brute_force_path_sum(walk: WalkSpec, i, rho, j, taboo=(), max_len: int = 20,
                         node_budget: int = 2_000_000) -> PathSumResult:
    """Enumerate taboo paths exactly; the independent oracle for the solvers.

    Raises :class:`NumericalError` if the enumeration tree exceeds
    ``node_budget`` nodes.
    """
    i, j = _site_id(i), _site_id(j)
    rho = np.asarray(rho, dtype=COMPLEX)
    allowed = set(walk.sites) - {_site_id(s) for s in taboo} - {j}
    shape = (walk.dims[j] ** 2, walk.dims[i] ** 2)
    ops = [np.zeros(shape, dtype=COMPLEX) for _ in range(max_len)]
    budget = [node_budget]

    def explore(site: Site, m: np.ndarray, depth: int):
        for k in walk._graph.succ[walk._index[site]]:
            t = walk.sites[k]
            L = walk.transitions[(t, site)]
            m2 = L @ m
            if float(np.abs(m2).max(initial=0.0)) < 1e-250:
                continue
            budget[0] -= 1
            if budget[0] < 0:
                raise NumericalError(
                    f"path enumeration exceeded the node budget ({node_budget})")
            if t == j:
                ops[depth] += kraus_block(m2)
            elif t in allowed and depth + 1 < max_len:
                explore(t, m2, depth + 1)

    explore(i, np.eye(walk.dims[i], dtype=COMPLEX), 0)
    masses = [float(np.trace(unvec(op @ vec(rho), walk.dims[j])).real) for op in ops]
    return PathSumResult(lengths=list(range(1, max_len + 1)), masses=masses, operators=ops)


def shanks_limit(partial_sums) -> float:
    """Shanks extrapolation of a partial-sum sequence via Wynn's epsilon.

    Zero increments (parity-structured walks) are squeezed out first; the
    even epsilon columns then reproduce the limit exactly when the tail is a
    finite sum of geometric modes, which is the case for every finite walk.
    """
    seq = [float(partial_sums[0])]
    for x in partial_sums[1:]:
        if abs(float(x) - seq[-1]) > 1e-15:
            seq.append(float(x))
    n = len(seq)
    # increments this small are rounding drift, and Wynn's epsilon would
    # extrapolate the drift: keep the last partial sum
    drift = 1e-13 * max(1.0, abs(seq[-1]))
    if n < 3 or all(abs(b - a) < drift for a, b in zip(seq, seq[1:])):
        return float(partial_sums[-1])
    eps_prev = [0.0] * (n + 1)           # epsilon_{-1}
    eps_curr = list(seq)                 # epsilon_0
    best = seq[-1]
    col = 0
    while len(eps_curr) >= 2:
        col += 1
        nxt = []
        for k in range(len(eps_curr) - 1):
            diff = eps_curr[k + 1] - eps_curr[k]
            if abs(diff) < 1e-300:
                nxt = []
                break
            nxt.append(eps_prev[k + 1] + 1.0 / diff)
        if not nxt:
            break
        eps_prev, eps_curr = eps_curr, nxt
        if col % 2 == 0 and eps_curr:
            best = eps_curr[-1]
    return best
