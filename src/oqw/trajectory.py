"""Seeded Monte Carlo sampling of the position/internal-state chain.

Each trajectory owns a counter-based random stream keyed by (master seed,
trajectory index), so ensembles are reproducible bit for bit regardless of
batching.  The ensemble engine advances all live trajectories in lock step,
stepping each distinct (site, state) class once, so a step is a fixed number
of numpy calls, and the uniforms of all live streams come from one
vectorized Philox that matches numpy's generator bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .linalg import COMPLEX, herm
from .structure import Enclosure, decompose, restrict_walk
from .superop import invariant_state
from .walk import (DiagonalObservable, Site, WalkSpec, _known_sites, _site_id, check_state,
                   dual_apply, site_state)

PROB_FLOOR = 1e-14   # transition weights below this count as zero
SUPEROP_MAX_DIM = 4  # larger fibres step by L rho L† instead of a D² x D² superoperator
HARMONIC_TOL = 1e-8  # residual up to which an observable counts as harmonic
DRAW, DEAD = -1, -2  # class codes besides a forced successor: drawn / no positive weight


def _renorm_tol(walk: WalkSpec) -> float:
    """Distance of the total step weight from 1 above which a step renormalizes."""
    return max(walk.tolerance, 1e-9)


def trajectory_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based generator for one trajectory of one ensemble."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class TrajectoryRecord:
    sites: list[Site]
    states: list[np.ndarray] | None
    stop_reason: str            # "horizon" | "hit_target" | "exited_domain"
    stopping_index: int
    renormalizations: int = 0   # steps whose weights needed renormalizing


@dataclass
class EstimateWithCI:
    """Plug-in estimate with a three-sigma normal-approximation interval."""

    estimate: float
    standard_error: float
    n_samples: int

    @property
    def half_width(self) -> float:
        return 3.0 * self.standard_error


def sample_step(walk: WalkSpec, site, rho: np.ndarray,
                rng: np.random.Generator) -> tuple[Site, np.ndarray, bool]:
    """One transition from (site, rho): returns (next site, next state, renormalized).

    The successor is drawn with probability ``Tr(L rho L†)`` over the nonzero
    blocks out of the site, scanned in declared site order; weights below the
    probability floor are treated as zero.  The site must exist and ``rho``
    must be a density matrix there (InputError otherwise).
    """
    check_state(walk, site_state(walk, site, rho))
    return _step(walk, _site_id(site), np.asarray(rho, dtype=COMPLEX), rng)


def _step(walk: WalkSpec, s: Site, rho: np.ndarray,
          rng: np.random.Generator) -> tuple[Site, np.ndarray, bool]:
    """:func:`sample_step` from a checked site and state."""
    succs = walk._succ[s]
    weights = []
    for t in succs:
        L = walk.transitions[(t, s)]
        w = float(np.einsum("ij,jk,ik->", L, rho, L.conj()).real)
        weights.append(0.0 if w < PROB_FLOOR else w)
    total = sum(weights)
    if total <= PROB_FLOOR:
        raise NumericalError(f"dead end at site {s!r}: no transition has positive weight")
    renorm = abs(total - 1.0) > _renorm_tol(walk)
    u = rng.random() * total
    acc = 0.0
    choice = len(weights) - 1
    for k, w in enumerate(weights):
        acc += w
        if u < acc:
            choice = k
            break
    t = succs[choice]
    L = walk.transitions[(t, s)]
    new = L @ rho @ L.conj().T
    return t, new / float(np.trace(new).real), renorm


def sample_trajectory(walk: WalkSpec, i, rho, horizon: int,
                      stop: dict | None = None,
                      rng: np.random.Generator | int | None = None,
                      record_states: bool = True) -> TrajectoryRecord:
    """Sample one trajectory of (position, internal state).

    ``stop`` may be ``{"hit": site}`` or ``{"exit": domain}``; the fixed
    horizon always applies.  With an integer ``rng`` the stream is the
    trajectory-0 stream of that master seed.
    """
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = trajectory_rng(0 if rng is None else int(rng), 0)
    s = _site_id(i)
    rho = np.asarray(rho, dtype=COMPLEX)
    check_state(walk, site_state(walk, s, rho))
    target = _known_sites(walk, [stop["hit"]])[0] if stop and "hit" in stop else None
    domain = set(_known_sites(walk, stop["exit"])) if stop and "exit" in stop else None
    if domain is not None and s not in domain:
        raise InputError("start site lies outside the stopping domain")
    sites = [s]
    states = [rho.copy()] if record_states else None
    renorms = 0
    reason, stop_idx = "horizon", horizon
    for n in range(1, horizon + 1):
        s, rho, rn = _step(walk, s, rho, rng)
        renorms += int(rn)
        sites.append(s)
        if record_states:
            states.append(rho.copy())
        if target is not None and s == target:
            reason, stop_idx = "hit_target", n
            break
        if domain is not None and s not in domain:
            reason, stop_idx = "exited_domain", n
            break
    return TrajectoryRecord(sites=sites, states=states, stop_reason=reason,
                            stopping_index=stop_idx, renormalizations=renorms)


# ---------------------------------------------------------------------------
# lock-step ensemble engine


def _trace_table(mats: np.ndarray) -> np.ndarray:
    """Rows ``g`` with ``g @ vec(rho).view(float) == Re Tr(rho M)``.

    ``mats`` has shape ``(..., D, D)``; ``vec`` is the row-major ravel of a
    ``D x D`` complex matrix, viewed as interleaved real and imaginary parts.
    """
    d = mats.shape[-1]
    dual = np.ascontiguousarray(np.swapaxes(mats, -1, -2).conj(), dtype=COMPLEX)
    return dual.reshape(mats.shape[:-2] + (d * d,)).view(np.float64)


class _Ensemble:
    """All live trajectories advanced together through a table of classes.

    Sites are numbered in declared order; their blocks are zero-padded to the
    largest fibre dimension ``D`` and to the most successors ``K`` of any
    site.  A state is held as ``vec(rho)`` (row-major, ``D*D`` entries).
    Trajectories at one site in one state, byte for byte, share a class,
    whose weights ``Tr(L†L rho)`` (dot products with ``gram[s, k]``) are
    computed once, as is the class each successor leads to, when first taken
    (by the superoperator ``kron(L, conj L)``, or ``L rho L†`` when ``D >
    SUPEROP_MAX_DIM``): a step costs each trajectory a draw and two lookups.

    Only trajectories still active at the last step are held (``held``:
    global indices, ``cls``: their classes); the others keep their final
    entry in ``positions``.  A deactivated trajectory stays stopped.
    Uniforms are drawn in blocks for the held set only: the n-th step of
    every live trajectory uses draw n-1 of its own stream; a step whose
    every move is forced draws none.  The start ``(i, rho)`` is checked here.
    """

    def __init__(self, walk: WalkSpec, i, rho, n_traj: int, seed: int,
                 index_offset: int = 0):
        rho = np.asarray(rho, dtype=COMPLEX)
        check_state(walk, site_state(walk, i, rho))
        self.walk = walk
        self.site_index = {s: k for k, s in enumerate(walk.sites)}
        self.n = n_traj
        self.seed = seed
        self.streams = index_offset + np.arange(n_traj, dtype=np.uint64)
        self.renorms = 0
        self.renorm_tol = _renorm_tol(walk)
        d = self.dmax = max(walk.dims.values())
        succ = [walk._succ[s] for s in walk.sites]
        self.k = max(1, max(len(row) for row in succ))
        blocks = np.zeros((len(succ), self.k, d, d), dtype=COMPLEX)
        self.targets = np.zeros(len(succ) * self.k, dtype=np.int64)
        for s_idx, (s, row) in enumerate(zip(walk.sites, succ)):
            for k, t in enumerate(row):
                L = walk.transitions[(t, s)]
                blocks[s_idx, k, :L.shape[0], :L.shape[1]] = L
                self.targets[s_idx * self.k + k] = self.site_index[t]
        self.gram = _trace_table(np.swapaxes(blocks, -1, -2).conj() @ blocks)
        blocks = blocks.reshape(-1, d, d)
        if d <= SUPEROP_MAX_DIM:
            self.superop = np.einsum("kac,kbd->kabcd", blocks, blocks.conj()
                                     ).reshape(-1, d * d, d * d)
        else:
            self.superop, self.blocks = None, blocks
        self.diag = np.arange(d) * (d + 1)
        # blocks of rank one or a multiple of the source fibre's identity bring
        # different paths to one state: their results are merged (_merge)
        eye = np.arange(d) < np.repeat([walk.dims[s] for s in walk.sites], self.k)[:, None]
        self.lookup = (np.linalg.matrix_rank(blocks) == 1) | np.all(
            blocks == blocks[:, :1, :1] * (eye[:, :, None] & np.eye(d, dtype=bool)), axis=(1, 2))
        self.merging = bool(self.lookup.any())   # else no slot array is kept
        # odd multiples of 2^64 / golden ratio hash a site and the 2*D*D words of its state
        self.mult = np.arange(1, 4 * d * d + 3, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        self.renormalizing = False              # some class's weights need renormalizing
        s0 = self.site_index[_site_id(i)]
        first = np.zeros((1, d * d), dtype=COMPLEX)
        first.reshape(d, d)[:rho.shape[0], :rho.shape[0]] = rho
        self.site, self.vec = np.array([s0]), first   # made class 0 of the table
        self.cls, self.held = np.zeros(n_traj, dtype=np.int64), np.arange(n_traj)
        self._make_room(self.k)
        self.positions = np.full(n_traj, s0, dtype=np.int64)
        self.active = np.ones(n_traj, dtype=bool)
        self.draws = 0                          # steps taken by every held trajectory
        self.uniforms = np.empty((n_traj, 0))   # draws u_start, ... of the held streams
        self.u_start = 0

    @property
    def pos(self) -> np.ndarray:
        """Site numbers of the held trajectories."""
        return self.site[self.cls]

    @property
    def vecs(self) -> np.ndarray:
        """States ``vec(rho)`` of the held trajectories."""
        return self.vec[self.cls]

    def _next_uniforms(self) -> np.ndarray:
        col = self.draws - self.u_start
        if col >= self.uniforms.shape[1]:
            # blocks grow with the step count (4, 4, 8, 16, 32, then 64) so
            # that short-lived trajectories leave few draws unused
            length = min(max(self.draws, 4), 64)
            from .philox import uniforms   # compiled only when a sampler runs

            self.uniforms = uniforms(self.seed, self.streams[self.held], self.draws, length)
            self.u_start, col = self.draws, 0
        return self.uniforms[:, col]

    def step(self) -> None:
        """Advance every active trajectory by one transition."""
        keep = self.active[self.held]
        if not keep.all():
            self.held, self.cls = self.held[keep], self.cls[keep]
            self.uniforms = self.uniforms[keep]
        if not self.held.size:
            return
        need = min(self.held.size, self.k * self.n_cls)   # the most new classes a step makes
        if self.n_cls + need > self.site.size:
            self._make_room(need)
        cls = self.cls
        code = self.code[cls]
        lowest = code.min()
        if lowest == DEAD:
            site = self.walk.sites[int(self.site[cls[code == DEAD]].min())]
            raise NumericalError(f"dead end at site {site!r} during sampling")
        if self.renormalizing:
            self.renorms += int(np.count_nonzero(abs(self.cum[-1, cls] - 1.0) > self.renorm_tol))
        if lowest == DRAW:
            # u < total = cum[-1], so the count stops at the last positive weight
            cum = np.take(self.cum, cls, axis=1)
            u = self._next_uniforms() * cum[-1]
            code = (cum[:-1] <= u).sum(axis=0)
        pair = cls * self.k + code
        nxt = np.take(self.child, pair)
        if nxt.min() < 0:
            miss = np.flatnonzero(nxt < 0)
            nxt[miss] = self._children(pair[miss])
        self.cls = nxt
        self.positions[self.held] = self.site[nxt]
        self.draws += 1

    def _children(self, pairs: np.ndarray) -> np.ndarray:
        """Classes the flat (class, successor) ``pairs`` lead to, each pair once."""
        child = self.child.reshape(-1)
        rows = np.arange(pairs.size)
        child[pairs] = rows                       # one row of each pair stays
        lead = pairs[child[pairs] == rows]
        src = lead // self.k
        flat = self.site[src] * self.k + (lead - src * self.k)
        vecs = np.take(self.vec, src, axis=0)
        if self.superop is not None:
            new = np.einsum("bij,bj->bi", np.take(self.superop, flat, axis=0), vecs)
        else:
            d = self.dmax
            L = np.take(self.blocks, flat, axis=0)
            new = (L @ vecs.reshape(-1, d, d) @ np.swapaxes(L, 1, 2).conj()).reshape(-1, d * d)
        re_im = new.view(np.float64)
        re_im /= new[:, self.diag].real.sum(axis=1)[:, None]   # unit trace
        ids = self._append(self.targets[flat], new)
        if self.merging:
            look = np.flatnonzero(self.lookup[flat])
            ids[look] = self._merge(ids[look])
        child[lead] = ids
        return child[pairs]

    def _merge(self, ids: np.ndarray) -> np.ndarray:
        """The classes ``ids``, each replaced by the class its slot shows when
        that holds the same site and state byte for byte, else entered there;
        a replaced row is left unused."""
        words = np.take(self.vec, ids, axis=0).view(np.uint64)
        h = words @ self.mult[1:] + self.site[ids].view(np.uint64) * self.mult[0]
        slot = (h >> self.shift).astype(np.intp)
        old = self.slots[slot]
        known = (self.site[old] == self.site[ids]) & (
            np.take(self.vec, old, axis=0).view(np.uint64) == words).all(axis=1)
        self.slots[slot[~known]] = ids[~known]
        return np.where(known, old, ids)

    def _append(self, sites: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """Ids of new classes for the rows ``(sites, vecs)``."""
        n = self.n_cls
        new = slice(n, n + sites.size)
        self.site[new], self.vec[new], self.child[new] = sites, vecs, -1
        w = np.einsum("bkj,bj->bk", np.take(self.gram, sites, axis=0), vecs.view(np.float64))
        w[w < PROB_FLOOR] = 0.0
        cum = self.cum[:, new]                  # cumulative sums, one row per successor
        cum[0] = w[:, 0]
        for k in range(1, self.k):
            np.add(cum[k - 1], w[:, k], out=cum[k])
        # the draw u lies in [0, total): it decides nothing when every
        # cumulative weight is 0 or the total (one successor of positive weight)
        low = (cum[:-1] <= 0.0).sum(axis=0)
        code = np.where(low == (cum[:-1] < cum[-1]).sum(axis=0), low, DRAW)
        code[cum[-1] <= PROB_FLOOR] = DEAD
        self.code[new] = code
        self.renormalizing |= bool((np.abs(cum[-1] - 1.0) > self.renorm_tol).any())
        self.n_cls = new.stop
        return np.arange(n, new.stop)

    def _make_room(self, need: int) -> None:
        """Recreate the held trajectories' classes, in order, in a table of at
        least four rows per class kept or ``need``ed (two slots a row)."""
        keep, self.cls = np.unique(self.cls, return_inverse=True)
        sites, vecs = self.site[keep], np.take(self.vec, keep, axis=0)
        cap = self.site.size
        while 4 * (keep.size + need) > cap:
            cap *= 2
        self.n_cls, self.site, self.code = 0, np.empty(cap, np.int64), np.empty(cap, np.int64)
        self.vec, self.cum = np.empty((cap, self.dmax ** 2), COMPLEX), np.empty((self.k, cap))
        self.child = np.empty((cap, self.k), np.int64)
        ids = self._append(sites, vecs)
        if self.merging:
            bits = (2 * cap - 1).bit_length()
            self.shift = np.uint64(64 - bits)
            self.slots = np.zeros(1 << bits, dtype=np.intp)
            self._merge(ids)


def _run_hitting(walk: WalkSpec, i, rho, j, n_traj: int, horizon: int, seed: int,
                 track_visits: bool, kth_return: int | None = None,
                 index_offset: int = 0, path: np.ndarray | None = None):
    """Hitting, visit and k-th return times of an ensemble; ``path``, when
    given, receives the site number of every trajectory after each step."""
    ens = _Ensemble(walk, i, rho, n_traj, seed, index_offset)
    j_idx = ens.site_index[_known_sites(walk, [j])[0]]
    hit_time = np.full(n_traj, np.inf)
    visit_count = np.zeros(n_traj, dtype=np.int64)
    kth_time = np.full(n_traj, np.inf)
    if path is not None:
        path[0] = ens.positions
    for n in range(1, horizon + 1):
        ens.step()
        if path is not None:
            path[n] = ens.positions
        at_target = ens.held[ens.pos == j_idx]   # every held trajectory is active here
        if not at_target.size:
            continue
        hit_time[at_target] = np.minimum(hit_time[at_target], n)
        visit_count[at_target] += 1
        if kth_return is not None:
            done = at_target[visit_count[at_target] == kth_return]
            kth_time[done] = n
            ens.active[done] = False
        if not track_visits:
            ens.active[at_target] = False
        if (kth_return is not None or not track_visits) and not ens.active[ens.held].any():
            break
    return hit_time, visit_count, kth_time, ens


def _hitting_paths(walk: WalkSpec, i, rho, j, n_traj: int, horizon: int, seed: int,
                   chunk: int = 4096):
    """Per trajectory ``(sites, stop_reason, stopping_index)``, as
    :func:`sample_trajectory` with ``stop={"hit": j}`` gives it on stream
    ``(seed, k)``: the ensemble runs ``chunk`` trajectories at a time on the
    same streams, holding one ``(horizon + 1) x chunk`` table of positions."""
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    names = np.array(walk.sites, dtype=object)
    for start in range(0, n_traj, chunk):
        path = np.zeros((horizon + 1, min(chunk, n_traj - start)), dtype=np.int64)
        hit, _, _, _ = _run_hitting(walk, i, rho, j, path.shape[1], horizon, seed,
                                    track_visits=False, index_offset=start, path=path)
        for row, t in zip(names[path.T].tolist(), hit.tolist()):
            reason, k = ("horizon", horizon) if math.isinf(t) else ("hit_target", int(t))
            yield row[:k + 1], reason, k


def estimate_hitting(walk: WalkSpec, i, rho, j, n_traj: int, horizon: int,
                     seed: int = 0, track_visits: bool = True) -> dict:
    """Plug-in estimates of hitting statistics, censored at the horizon.

    Returns estimates for the probability of hitting j by the horizon, the
    censored expected hitting time ``E[min(t_j, horizon)]`` and (when
    tracked) the censored expected visit count.  Censoring is explicit:
    ``censored_fraction`` reports the trajectories that never hit.
    """
    if n_traj < 1:
        raise InputError("n_traj must be >= 1")
    hit, visits, _, ens = _run_hitting(walk, i, rho, j, n_traj, horizon, seed,
                                       track_visits=track_visits)
    hit_mask = np.isfinite(hit)
    p = float(hit_mask.mean())
    p_se = math.sqrt(max(p * (1 - p), 0.0) / n_traj)
    censored_t = np.where(hit_mask, hit, float(horizon))
    t_mean = float(censored_t.mean())
    t_se = float(censored_t.std(ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else 0.0
    out = {
        "p_hit_by_horizon": EstimateWithCI(p, p_se, n_traj),
        "censored_expected_time": EstimateWithCI(t_mean, t_se, n_traj),
        "censored_fraction": 1.0 - p,
        "horizon": horizon,
        "renormalized_steps": ens.renorms,
    }
    if track_visits:
        v_mean = float(visits.mean())
        v_se = float(visits.std(ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else 0.0
        out["censored_expected_visits"] = EstimateWithCI(v_mean, v_se, n_traj)
    return out


@dataclass
class KacReport:
    empirical: EstimateWithCI          # t_i^(k) / k over trajectories
    analytic_target: float             # 1 / Tr tau_inv(i)
    k: int
    n_censored: int
    restricted_to_enclosure: bool
    diagnostics: dict = field(default_factory=dict)

    @property
    def within_three_sigma(self) -> bool:
        gap = abs(self.empirical.estimate - self.analytic_target)
        return gap <= self.empirical.half_width + 1e-9


def estimate_kac(walk: WalkSpec, i, n_traj: int, k_max: int, seed: int = 0) -> KacReport:
    """Empirical k-th return time over k against the inverse invariant mass.

    Trajectories start from the invariant state conditioned at ``i``.  The
    analytic target comes from one :func:`~oqw.structure.decompose`: the
    trajectories live in the direct sum of the minimal recurrent enclosures
    that carry that conditioned state.  When the sum is the whole walk (an
    irreducible walk, say) the target is the inverse invariant mass at
    ``i``; otherwise the walk is restricted to the sum and the target uses
    the restricted walk's invariant state.  Trajectories are censored after
    ``max(100, 8 k_max max(2, target))`` steps, reported as ``max_steps``.
    """
    s = _site_id(i)
    deco = decompose(walk)
    tau, fixed_dim = deco.invariant, deco.fixed_dim
    if tau is None:
        raise InputError("walk has no invariant state; the return-time law "
                         "has no analytic target")
    block = tau.blocks.get(s)
    mass = float(np.trace(block).real) if block is not None else 0.0
    if mass <= 1e-12:
        raise InputError(f"invariant state carries no mass at site {s!r}")
    rho_hat = herm(block) / mass

    d = walk.dims[s]
    carriers = [enc for enc in deco.recurrent
                if float(np.trace(enc.projector(s, d) @ rho_hat).real) > 1e-10]
    if not carriers:
        raise InputError("conditioned invariant state does not determine "
                         "an ergodic component at this site")
    component = Enclosure({t: np.hstack([enc.bases[t] for enc in carriers])
                           for t in walk.sites})
    restricted = not component.is_full(walk)
    if restricted:
        sub, _bases = restrict_walk(walk, component)
        sub_tau, _ = invariant_state(sub)
        if sub_tau is None or s not in sub_tau.blocks:
            raise InputError("conditioned invariant state does not determine "
                             "an ergodic component at this site")
        target = 1.0 / float(np.trace(sub_tau.blocks[s]).real)
    else:
        target = 1.0 / mass

    max_steps = max(100, int(8 * k_max * max(2.0, target)))
    _, _, kth, ens = _run_hitting(walk, s, rho_hat, s, n_traj, max_steps, seed,
                                  track_visits=True, kth_return=k_max)
    done = np.isfinite(kth)
    n_censored = int((~done).sum())
    if not np.any(done):
        raise NumericalError("no trajectory reached the requested return count",
                             {"max_steps": max_steps})
    ratios = kth[done] / k_max
    mean = float(ratios.mean())
    se = float(ratios.std(ddof=1) / math.sqrt(done.sum())) if done.sum() > 1 else 0.0
    return KacReport(
        empirical=EstimateWithCI(mean, se, int(done.sum())),
        analytic_target=float(target), k=k_max, n_censored=n_censored,
        restricted_to_enclosure=restricted,
        diagnostics={"fixed_space_dim": fixed_dim, "max_steps": max_steps,
                     "renormalized_steps": ens.renorms})


@dataclass
class MartingaleReport:
    max_drift: float
    max_drift_sigmas: float      # drift over its standard error, worst step
    means: np.ndarray            # E[m_n] over trajectories
    standard_errors: np.ndarray
    m0: float


def martingale_diagnostic(walk: WalkSpec, a: DiagonalObservable, i, rho,
                          n_traj: int, horizon: int, seed: int = 0,
                          stop_domain=None) -> MartingaleReport:
    """Check the flatness of ``m_n = Tr(rho_n A(x_n))`` along trajectories.

    ``a`` must be harmonic (globally, or on ``stop_domain`` when supplied;
    trajectories are then stopped on exit and keep their last value, which is
    the stopped martingale of the optional-sampling argument).  Harmonic
    means a residual of at most ``HARMONIC_TOL`` in operator norm.
    """
    stepped = dual_apply(walk, a)
    check_sites = walk.sites if stop_domain is None else _known_sites(walk, stop_domain)
    worst = 0.0
    for sname in check_sites:
        d = walk.dims[sname]
        worst = max(worst, float(np.linalg.norm(
            a.block(sname, d) - stepped.block(sname, d), 2)))
    if worst > HARMONIC_TOL:
        raise InputError(f"observable is not harmonic (residual {worst:.3e})")

    ens = _Ensemble(walk, i, rho, n_traj, seed)
    domain_idx = None
    if stop_domain is not None:
        domain_idx = {ens.site_index[s] for s in check_sites}
    d = ens.dmax
    padded = np.zeros((len(walk.sites), d, d), dtype=COMPLEX)
    for s_idx, s in enumerate(walk.sites):
        padded[s_idx, :walk.dims[s], :walk.dims[s]] = a.block(s, walk.dims[s])
    table = _trace_table(padded)

    def record(row: np.ndarray) -> None:
        # only held trajectories moved; the others keep their last value
        row[ens.held] = np.einsum("bj,bj->b", table[ens.pos], ens.vecs.view(np.float64))

    series = np.empty((horizon + 1, n_traj))
    record(series[0])
    for n in range(1, horizon + 1):
        ens.step()
        if domain_idx is not None:
            exited = ens.active & ~np.isin(ens.positions, list(domain_idx))
            ens.active[exited] = False
        series[n] = series[n - 1]
        record(series[n])
        if not ens.active.any():
            series[n + 1:] = series[n]
            break
    means = series.mean(axis=1)
    ses = series.std(axis=1, ddof=1) / math.sqrt(n_traj) if n_traj > 1 \
        else np.zeros(horizon + 1)
    drift = np.abs(means - means[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        sigmas = np.where(ses > 0, drift / ses, np.where(drift > 1e-12, np.inf, 0.0))
    return MartingaleReport(max_drift=float(drift.max()),
                            max_drift_sigmas=float(np.nanmax(sigmas)),
                            means=means, standard_errors=ses, m0=float(means[0]))


def word_frequencies(walk: WalkSpec, i, rho, length: int, n_traj: int,
                     seed: int = 0) -> dict[tuple, int]:
    """Counts of position words (x_1 .. x_length) over an ensemble."""
    ens = _Ensemble(walk, i, rho, n_traj, seed)
    words = np.empty((length, n_traj), dtype=np.int64)
    for n in range(length):
        ens.step()
        words[n] = ens.positions
    out: dict[tuple, int] = {}
    for col in words.T:
        w = tuple(walk.sites[k] for k in col)
        out[w] = out.get(w, 0) + 1
    return out
