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

from .dirichlet import _residuals
from .errors import InputError, NumericalError
from .hitting import TRAPPED_SHARE_TOL, ZERO_MASS_TOL
from .linalg import COMPLEX, herm
from .structure import Enclosure, decompose, restrict_walk
from .superop import invariant_state
from .walk import (DiagonalObservable, Site, WalkSpec, _known_sites, _site_id, check_state,
                   site_state)

PROB_FLOOR = 1e-14   # transition weights below this count as zero
HARMONIC_TOL = 1e-8  # residual up to which an observable counts as harmonic
UNSEEN, DRAW, DEAD = -1, -2, -3  # besides a class: not yet known / drawn / no positive weight
KEPT_TABLE_ROWS = 1 << 12  # rows of the largest class table a walk keeps (112 B a row at D=K=2)


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
    sites, succs = walk.sites, walk._graph.succ[walk._index[s]]
    weights = []
    for t in succs:
        L = walk.transitions[(sites[t], s)]
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
    t = sites[succs[choice]]
    L = walk.transitions[(t, s)]
    new = L @ rho @ L.conj().T
    return t, new / float(np.trace(new).real), renorm


def sample_trajectory(walk: WalkSpec, i, rho, horizon: int,
                      stop: dict | None = None,
                      rng: np.random.Generator | int | None = None,
                      record_states: bool = True) -> TrajectoryRecord:
    """Sample one trajectory of (position, internal state).

    ``stop`` may hold ``"hit": site`` and ``"exit": domain`` (another key is an
    InputError); the fixed horizon always applies.  With an integer ``rng``
    the stream is the trajectory-0 stream of that master seed.
    """
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    if unknown := sorted(set(stop or ()) - {"hit", "exit"}):
        raise InputError(f"unknown stop keys {unknown}; use 'hit' or 'exit'")
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


def _sampler_tables(walk: WalkSpec) -> tuple:
    """:class:`_Ensemble`'s tables, kept in the walk's store: ``D``, ``K``, per (site, successor)
    its target, Gram rows, block, lookup flag (read-only); the kept class table."""
    d = max(walk.dims.values())
    succ, sites = walk._graph.succ, walk.sites
    k_max = max(1, max(len(row) for row in succ))
    blocks = np.zeros((len(succ), k_max, d, d), dtype=COMPLEX)
    targets = np.zeros(len(succ) * k_max, dtype=np.int64)
    for s_idx, (s, row) in enumerate(zip(sites, succ)):
        for k, t in enumerate(row):
            L = walk.transitions[(sites[t], s)]
            blocks[s_idx, k, :L.shape[0], :L.shape[1]] = L
            targets[s_idx * k_max + k] = t
    gram = _trace_table(np.swapaxes(blocks, -1, -2).conj() @ blocks)
    blocks = blocks.reshape(-1, d, d)
    # blocks of rank one or a multiple of the source fibre's identity bring
    # different paths to one state: a result is looked up before a row is made (_classes)
    eye = np.arange(d) < np.repeat([walk.dims[s] for s in walk.sites], k_max)[:, None]
    lookup = (np.linalg.matrix_rank(blocks) == 1) | np.all(
        blocks == blocks[:, :1, :1] * (eye[:, :, None] & np.eye(d, dtype=bool)), axis=(1, 2))
    for table in (targets, gram, blocks, lookup):
        table.setflags(write=False)
    return d, k_max, targets, gram, blocks, lookup, {}


class _Ensemble:
    """All live trajectories advanced together through a table of classes.

    Sites are numbered in declared order; their blocks are zero-padded to the
    largest fibre dimension ``D`` and to the most successors ``K`` of any
    site.  A state is held as ``vec(rho)`` (row-major, ``D*D`` entries).
    Trajectories at one site in one state, byte for byte, share a class,
    whose weights ``Tr(L†L rho)`` (dot products with ``gram[s, k]``) are
    computed once, as is the class each successor leads to (``L rho L†``), when
    first taken: a step costs each trajectory a draw and two lookups.
    A class with one successor of positive weight keeps in ``next`` the class
    its forced move leads to (``UNSEEN`` until a step without a draw takes it),
    so a step in which every move is forced costs each trajectory one lookup.
    A state a ``lookup`` block leads to is looked up by site and bytes in the dict
    ``known`` before a row is made.  A class's bytes depend on its path alone, so
    where classes merge the table is the walk's: a run takes it from the walk's
    store, or starts its own when none is there, and puts it back in
    :meth:`release` for later runs.

    Only active trajectories are held (``held``: global indices, ``cls``: their
    classes, ``urow``: their rows in the block of drawn uniforms); a step touches
    arrays aligned with ``held`` only.  :meth:`stop` is the only way to stop a
    trajectory: for good, writing its final site once; it compacts those index
    vectors and leaves the block in place.  ``positions`` shows the held ones'
    sites over the final ones.  Step n of a live trajectory uses draw n-1 of its
    own stream, none when every move is forced; no block reaches past draw
    ``horizon - 1``.  The start ``(i, rho)`` and ``n_traj >= 1`` are checked here.
    """

    def __init__(self, walk: WalkSpec, i, rho, n_traj: int, seed: int,
                 index_offset: int = 0, horizon: float = math.inf):
        if n_traj < 1:
            raise InputError("n_traj must be >= 1")
        rho = np.asarray(rho, dtype=COMPLEX)
        check_state(walk, site_state(walk, i, rho))
        self.walk = walk
        self.site_index = walk._index
        self.n = n_traj
        self.seed = seed
        self.streams = index_offset + np.arange(n_traj, dtype=np.uint64)
        self.renorms = 0
        self.renorm_tol = _renorm_tol(walk)
        tables = walk._memo(("sampler",), _sampler_tables)
        d, self.k, self.targets, self.gram, self.blocks, self.lookup = tables[:6]
        self.dmax, self.kept = d, tables[6]
        self.diag = np.arange(d) * (d + 1)
        self.merging = bool(self.lookup.any())   # else no class is looked up, nor the table kept
        self.renormalizing = False              # some class's weights need renormalizing
        s0 = self.site_index[_site_id(i)]
        first = np.zeros((1, d * d), dtype=COMPLEX)
        first.reshape(d, d)[:rho.shape[0], :rho.shape[0]] = rho
        vars(self).update(self.merging and self.kept.pop("table", None) or self._new_table(1))
        start = self._classes(np.array([s0]), first, np.ones(1, dtype=bool))[0]
        self.cls, self.held = np.full(n_traj, start), np.arange(n_traj)
        self.final = np.full(n_traj, s0, dtype=np.int64)   # sites where trajectories stopped
        self.active = np.ones(n_traj, dtype=bool)
        self.draws = 0                          # steps taken by every held trajectory
        self.horizon = horizon                  # steps the run takes at most
        self.uniforms = np.empty((n_traj, 0))   # draws u_start, ... of some streams, by row
        self.urow = self.held                   # the held trajectories' rows in uniforms
        self.u_start = 0

    @property
    def positions(self) -> np.ndarray:
        """Site numbers of all trajectories: current when held, else final."""
        out = self.final.copy()
        out[self.held] = self.site[self.cls]
        return out

    @property
    def pos(self) -> np.ndarray:
        """Site numbers of the held trajectories."""
        return self.site[self.cls]

    def _next_uniforms(self) -> np.ndarray:
        col = self.draws - self.u_start
        if col >= self.uniforms.shape[1]:
            # blocks grow with the step count (4, 4, 8, 16, 32, then 64) so
            # that short-lived trajectories leave few draws unused; none passes the horizon
            length = min(max(self.draws, 4), 64, self.horizon - self.draws)
            from .philox import uniforms   # compiled only when a sampler runs

            self.uniforms = uniforms(self.seed, self.streams[self.held], self.draws, length)
            self.u_start, col, self.urow = self.draws, 0, np.arange(self.held.size)
        return self.uniforms[self.urow, col]

    def release(self) -> None:
        """End the run: stop the held trajectories, put back a table within ``KEPT_TABLE_ROWS``."""
        self.stop(np.ones(self.held.size, dtype=bool))
        if self.merging and self.n_cls < self.site.size <= KEPT_TABLE_ROWS:
            self.kept["table"] = {name: vars(self)[name] for name in (
                "n_cls", "site", "vec", "cum", "next", "child", "known", "renormalizing")}

    def stop(self, done: np.ndarray) -> np.ndarray:
        """Stop the held trajectories flagged in ``done``; returns their indices."""
        gone, keep = self.held[done], ~done
        self.active[gone], self.final[gone] = False, self.site[self.cls[done]]
        self.held, self.cls, self.urow = self.held[keep], self.cls[keep], self.urow[keep]
        return gone

    def step(self) -> None:
        """Advance every held trajectory by one transition."""
        if not self.held.size:
            return
        nxt = self.next[self.cls]
        lowest = nxt.min()
        if lowest < 0:   # a draw, a dead end or a forced move not taken yet
            if lowest == DEAD:
                site = self.walk.sites[int(self.site[self.cls[nxt == DEAD]].min())]
                raise NumericalError(f"dead end at site {site!r} during sampling")
            # u < total = cum[-1], so the count stops at the last positive weight;
            # without a draw, u = 0 counts the zero weights before a forced move
            cum = np.take(self.cum, self.cls, axis=1)
            u = self._next_uniforms() * cum[-1] if lowest == DRAW else 0.0
            pair = self.cls * self.k + (cum[:-1] <= u).sum(axis=0)
            nxt = np.take(self.child, pair)
            if nxt.min() < 0:
                miss = np.flatnonzero(nxt < 0)   # a new class for each, at most K per class
                if self.n_cls + min(miss.size, self.k * self.n_cls) > self.site.size:
                    self._make_room(min(self.held.size, self.k * self.n_cls))
                    pair = self.cls * self.k + pair % self.k   # the same successors
                    nxt = np.take(self.child, pair)
                    miss = np.flatnonzero(nxt < 0)
                nxt[miss] = self._children(pair[miss])
            if lowest != DRAW:
                self.next[self.cls] = nxt
        if self.renormalizing:
            total = self.cum[-1, self.cls]
            self.renorms += int(np.count_nonzero(abs(total - 1.0) > self.renorm_tol))
        self.cls = nxt
        self.draws += 1

    def _children(self, pairs: np.ndarray) -> np.ndarray:
        """Classes the flat (class, successor) ``pairs`` lead to, each pair once."""
        child = self.child.reshape(-1)
        rows = np.arange(pairs.size)
        child[pairs] = rows                       # one row of each pair stays
        lead = pairs[child[pairs] == rows]
        src = lead // self.k
        flat = self.site[src] * self.k + (lead - src * self.k)
        d, L = self.dmax, np.take(self.blocks, flat, axis=0)
        new = (L @ np.take(self.vec, src, axis=0).reshape(-1, d, d)
               @ np.swapaxes(L, 1, 2).conj()).reshape(-1, d * d)
        re_im = new.view(np.float64)
        re_im /= new[:, self.diag].real.sum(axis=1)[:, None]   # unit trace
        child[lead] = self._classes(self.targets[flat], new, self.lookup[flat])
        return child[pairs]

    def _classes(self, sites: np.ndarray, vecs: np.ndarray, look: np.ndarray) -> np.ndarray:
        """Classes of the rows ``(sites, vecs)``: where ``look`` is set, the class of that
        site and state byte for byte (``known``), made once; elsewhere a new class each."""
        if not look.any():   # every row new: no selection of rows to copy
            return self._append(sites, vecs)
        ids, lead, new = np.full(sites.size, UNSEEN), np.arange(sites.size), {}
        for r in np.flatnonzero(look).tolist():
            key = (int(sites[r]), vecs[r].tobytes())
            ids[r] = self.known.get(key, UNSEEN)
            if ids[r] < 0:
                lead[r] = new.setdefault(key, r)   # the batch's first row of this key
        make = np.flatnonzero((ids < 0) & (lead == np.arange(sites.size)))
        ids[make] = self._append(sites[make], np.take(vecs, make, axis=0))
        self.known.update(zip(new, ids[list(new.values())].tolist()))
        return ids[lead]

    def _append(self, sites: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """Ids of new classes for the rows ``(sites, vecs)``."""
        n = self.n_cls
        new = slice(n, n + sites.size)
        self.site[new], self.vec[new] = sites, vecs   # child is UNSEEN past n_cls
        w = np.einsum("bkj,bj->bk", np.take(self.gram, sites, axis=0), vecs.view(np.float64))
        w[w < PROB_FLOOR] = 0.0
        cum = self.cum[:, new]                  # cumulative sums, one row per successor
        cum[0] = w[:, 0]
        for k in range(1, self.k):
            np.add(cum[k - 1], w[:, k], out=cum[k])
        # the draw u lies in [0, total): it decides nothing when every
        # cumulative weight is 0 or the total (one successor of positive weight)
        forced = (cum[:-1] <= 0.0).sum(axis=0) == (cum[:-1] < cum[-1]).sum(axis=0)
        self.next[new] = np.where(cum[-1] <= PROB_FLOOR, DEAD, np.where(forced, UNSEEN, DRAW))
        self.renormalizing |= bool((np.abs(cum[-1] - 1.0) > self.renorm_tol).any())
        self.n_cls = new.stop
        return np.arange(n, new.stop)

    def _make_room(self, need: int) -> None:
        """Keep the classes a pointer or ``known`` reaches (the held ones' if more, or not merging),
        in order, with what is known among them, in at least 4 rows per class kept or ``need``ed."""
        ids = np.fromiter(self.known.values(), np.int64, len(self.known))
        used = np.zeros(self.n_cls + 3, dtype=bool)   # by class, then the marks
        used[np.concatenate((self.cls, self.next, self.child.ravel(), ids))
             if self.merging else self.cls] = True
        if (keep := np.flatnonzero(used[:self.n_cls])).size > self.cls.size:
            keep = np.flatnonzero(np.bincount(self.cls, minlength=self.n_cls))
        remap = np.full(self.n_cls + 3, UNSEEN)   # by old class (dropped: UNSEEN), then marks
        remap[keep], remap[DEAD], remap[DRAW] = np.arange(keep.size), DEAD, DRAW
        self.cls = remap[self.cls]
        rows = (self.site[keep], np.take(self.vec, keep, axis=0), self.cum[:, keep],
                remap[self.next[keep]], remap[self.child[keep]])
        cap = max(self.site.size, 4 * (keep.size + need))
        known = {key: c for key, c in zip(self.known, remap[ids].tolist()) if c >= 0}
        vars(self).update(self._new_table(cap, n := keep.size), known=known)
        self.site[:n], self.vec[:n], self.cum[:, :n], self.next[:n], self.child[:n] = rows

    def _new_table(self, cap: int, n: int = 0) -> dict:
        """A table of ``cap`` rows, ``n`` in use, and no class known by its bytes."""
        return dict(n_cls=n, known={}, site=np.empty(cap, np.int64), next=np.full(cap, UNSEEN),
                    vec=np.empty((cap, self.dmax ** 2), COMPLEX), cum=np.empty((self.k, cap)),
                    child=np.full((cap, self.k), UNSEEN))


def _run_hitting(walk: WalkSpec, i, rho, j, n_traj: int, horizon: int, seed: int,
                 track_visits: bool, kth_return: int | None = None,
                 index_offset: int = 0, path: np.ndarray | None = None):
    """Hitting, visit and k-th return times of an ensemble; ``path``, when
    given, receives the site number of every trajectory after each step."""
    ens = _Ensemble(walk, i, rho, n_traj, seed, index_offset, horizon)
    j_idx = ens.site_index[_known_sites(walk, [j])[0]]
    hit_time = np.full(n_traj, np.inf)
    visit_count = np.zeros(n_traj, dtype=np.int64)
    kth_time = np.full(n_traj, np.inf)
    stop_at = kth_return if track_visits else 1   # visit count at which a trajectory stops
    visits = np.zeros(n_traj, dtype=np.int64)     # aligned with ens.held, written out on stop
    unhit = track_visits   # first hits are recorded while some held one has none
    steps_at_j = 0         # no visit count can exceed it
    if path is not None:
        path[0] = ens.positions
    for n in range(1, horizon + 1):
        ens.step()
        if path is not None:
            path[n] = ens.positions
        done = at = ens.pos == j_idx   # without visits, a hit stops
        if not at.any():
            continue
        if track_visits:
            visits += at
            steps_at_j += 1
            if unhit:
                hit_time[ens.held[at & (visits == 1)]] = n
                unhit = not visits.all()
            if (not kth_return or steps_at_j < kth_return
                    or not (done := visits == kth_return).any()):
                continue
        gone = ens.stop(done)
        visit_count[gone] = stop_at
        if kth_return == stop_at:
            kth_time[gone] = n
        if track_visits:
            visits = visits[~done]
        else:
            hit_time[gone] = n
        if not ens.held.size:
            break
    if track_visits:
        visit_count[ens.held] = visits
    ens.release()
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
    if horizon < 1:
        raise InputError("horizon must be >= 1")
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
    analytic target comes from the walk's kept :func:`~oqw.structure.decompose`: the
    trajectories live in the direct sum of the minimal recurrent enclosures
    that carry that conditioned state.  When the sum is the whole walk (an
    irreducible walk, say) the target is the inverse invariant mass at
    ``i``; otherwise the walk is restricted to the sum and the target uses
    the restricted walk's invariant state, kept with the walk by the indices of
    those enclosures in the decomposition.  Trajectories are censored after
    ``max(100, 8 k_max max(2, target))`` steps, reported as ``max_steps``.
    """
    if k_max < 1:
        raise InputError("k_max must be >= 1")
    s = _known_sites(walk, [i])[0]
    deco = decompose(walk)
    tau, fixed_dim = deco.invariant, deco.fixed_dim
    if tau is None:
        raise InputError("walk has no invariant state; the return-time law "
                         "has no analytic target")
    block = tau.blocks.get(s)
    mass = float(np.trace(block).real) if block is not None else 0.0
    if mass <= ZERO_MASS_TOL:
        raise InputError(f"invariant state carries no mass at site {s!r}")
    rho_hat = herm(block) / mass

    d = walk.dims[s]
    carriers = tuple(k for k, enc in enumerate(deco.recurrent)
                     if float(np.trace(enc.projector(s, d) @ rho_hat).real) > TRAPPED_SHARE_TOL)
    if not carriers:
        raise InputError("conditioned invariant state does not determine "
                         "an ergodic component at this site")
    component = Enclosure({t: np.hstack([deco.recurrent[k].bases[t] for k in carriers])
                           for t in walk.sites})
    restricted = not component.is_full(walk)
    if restricted:
        sub_tau = walk._memo(("restricted", carriers),
                             lambda w: invariant_state(restrict_walk(w, component)[0])[0])
        if sub_tau is None or s not in sub_tau.blocks:
            raise InputError("conditioned invariant state does not determine "
                             "an ergodic component at this site")
        target = 1.0 / float(np.trace(sub_tau.blocks[s]).real)
    else:
        target = 1.0 / mass

    max_steps = max(100, round(8 * k_max * max(2.0, target)))   # not moved by rounding in target
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
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    check_sites = walk.sites if stop_domain is None else _known_sites(walk, stop_domain)
    if _known_sites(walk, [i])[0] not in check_sites:
        raise InputError("start site lies outside the stopping domain")
    worst = max(_residuals(walk, a, DiagonalObservable({}), check_sites).values())
    if worst > HARMONIC_TOL:
        raise InputError(f"observable is not harmonic (residual {worst:.3e})")

    ens = _Ensemble(walk, i, rho, n_traj, seed, horizon=horizon)
    inside = np.isin(np.arange(len(walk.sites)), [ens.site_index[s] for s in check_sites])
    d = ens.dmax
    padded = np.zeros((len(walk.sites), d, d), dtype=COMPLEX)
    for s_idx, s in enumerate(walk.sites):
        padded[s_idx, :walk.dims[s], :walk.dims[s]] = a.block(s, walk.dims[s])
    table = _trace_table(padded)

    def record(row: np.ndarray) -> None:
        # only held trajectories moved; the others keep their last value
        row[ens.held] = np.einsum("bj,bj->b", table[ens.pos], ens.vec[ens.cls].view(np.float64))

    series = np.empty((horizon + 1, n_traj))
    record(series[0])
    for n in range(1, horizon + 1):
        ens.step()
        series[n] = series[n - 1]
        record(series[n])
        if stop_domain is not None and (out := ~inside[ens.pos]).any():
            ens.stop(out)
        if not ens.held.size:
            series[n + 1:] = series[n]
            break
    ens.release()
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
    if length < 1:
        raise InputError("length must be >= 1")
    ens = _Ensemble(walk, i, rho, n_traj, seed, horizon=length)
    words = np.empty((length, n_traj), dtype=np.int64)
    for n in range(length):
        ens.step()
        words[n] = ens.pos   # no trajectory stops: all are held, in order
    ens.release()
    out: dict[tuple, int] = {}
    for col in words.T:
        w = tuple(walk.sites[k] for k in col)
        out[w] = out.get(w, 0) + 1
    return out
