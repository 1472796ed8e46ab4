"""Builtin walks: small reference models, lattice windows, classical dilations.

Infinite lattices enter only through explicit truncation.  A truncated
window can close its cut edges two ways: ``absorbing`` appends a cemetery
site per open end (keeps the family stochastic, escaping mass parks there),
``taboo`` simply drops the outgoing edge (the family becomes substochastic
at the edge, which the structural operations accept but validation flags).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .linalg import COMPLEX, psd_sqrt
from .structure import is_irreducible
from .walk import DEFAULT_TOLERANCE, WalkSpec, minimal_dilation

SQ2 = 1.0 / np.sqrt(2.0)


def example_three_site_trap(tolerance: float = DEFAULT_TOLERANCE) -> WalkSpec:
    """Three sites with qubit fibers; one internal direction is trapped.

    Starting at site "0", the e1 component shuttles 0 <-> 1 forever while
    the e2 component is swallowed by the absorbing site "2": passage and
    visit statistics at "0" depend on the internal state, covering all three
    return regimes in one model.
    """
    e11 = np.diag([1.0, 0.0]).astype(COMPLEX)
    e22 = np.diag([0.0, 1.0]).astype(COMPLEX)
    eye = np.eye(2, dtype=COMPLEX)
    trans = {("1", "0"): e11, ("2", "0"): e22, ("0", "1"): eye, ("2", "2"): eye}
    return WalkSpec(("0", "1", "2"), {"0": 2, "1": 2, "2": 2}, trans, tolerance)


def example_half_line(p: float, n_sites: int, boundary: str = "absorbing",
                      tolerance: float = DEFAULT_TOLERANCE) -> WalkSpec:
    """Half-line walk with a qubit at the origin and scalar fibers above it.

    The origin flips e2 -> e1 in place; e1 hops to site 1, after which the
    walk is a classical birth-death chain moving down with probability ``p``.
    Truncated to sites 0..n_sites with the chosen boundary handling.
    """
    if not 0.0 < p < 1.0:
        raise InputError(f"p must lie in (0, 1), got {p}")
    if n_sites < 2:
        raise InputError("need at least two lattice sites above the origin")
    q = 1.0 - p
    sites = ["0"] + [str(k) for k in range(1, n_sites + 1)]
    dims = {s: 1 for s in sites}
    dims["0"] = 2
    trans: dict = {
        ("0", "0"): np.array([[0.0, 1.0], [0.0, 0.0]], dtype=COMPLEX),
        ("1", "0"): np.array([[1.0, 0.0]], dtype=COMPLEX),
        ("0", "1"): np.sqrt(p / 2.0) * np.array([[1.0], [1.0]], dtype=COMPLEX),
    }
    down, up = (np.array([[np.sqrt(x)]], dtype=COMPLEX) for x in (p, q))   # the walk copies them
    for k in range(1, n_sites):
        trans[(str(k), str(k + 1))] = down
        trans[(str(k + 1), str(k))] = up
    if boundary == "absorbing":
        sites.append("cut+")
        dims["cut+"] = 1
        trans[("cut+", str(n_sites))] = up
        trans[("cut+", "cut+")] = np.array([[1.0]], dtype=COMPLEX)
    elif boundary != "taboo":
        raise InputError(f"unknown boundary mode {boundary!r}")
    return WalkSpec(tuple(sites), dims, trans, tolerance)


def example_branch_return(tolerance: float = DEFAULT_TOLERANCE) -> WalkSpec:
    """Four-site walk whose passage probability to the root is (1 + r)/2.

    From site "1" the e2 component drops to the scalar root "0" and bounces
    straight back, while the e1 component wanders through "2", returning to
    "1" with amplitude loss toward the trapping site "3".  Started at
    ("1", diag(1-r, r)) the walk reaches "0" with probability (1+r)/2, the
    dual of its return operator sends the identity to diag(3/4, 1), and the
    expected number of visits to "0" is infinite for every internal state.
    """
    trans = {
        ("1", "0"): np.array([[0.0], [1.0]], dtype=COMPLEX),
        ("0", "1"): np.array([[0.0, 1.0]], dtype=COMPLEX),
        ("2", "1"): np.array([[1.0, 0.0], [0.0, 0.0]], dtype=COMPLEX),
        ("1", "2"): np.array([[SQ2, 0.0], [0.5, 0.0]], dtype=COMPLEX),
        ("3", "2"): np.array([[0.5, 0.0], [0.0, 1.0]], dtype=COMPLEX),
        ("3", "3"): np.eye(2, dtype=COMPLEX),
    }
    return WalkSpec(("0", "1", "2", "3"), {"0": 1, "1": 2, "2": 2, "3": 2},
                    trans, tolerance)


def _line_window(low: int, high: int, l_plus: np.ndarray, l_minus: np.ndarray,
                 boundary: str, tolerance: float) -> WalkSpec:
    if high <= low:
        raise InputError("window must contain at least two sites")
    d = l_plus.shape[0]
    sites = [str(k) for k in range(low, high + 1)]
    dims = {s: d for s in sites}
    trans: dict = {}
    for k in range(low, high + 1):
        if k < high:
            trans[(str(k + 1), str(k))] = l_plus
        if k > low:
            trans[(str(k - 1), str(k))] = l_minus
    if boundary == "absorbing":
        for name, edge, op in (("cut+", high, l_plus), ("cut-", low, l_minus)):
            sites.append(name)
            dims[name] = d
            trans[(name, str(edge))] = op
            trans[(name, name)] = np.eye(d, dtype=COMPLEX)
    elif boundary != "taboo":
        raise InputError(f"unknown boundary mode {boundary!r}")
    return WalkSpec(tuple(sites), dims, trans, tolerance)


def example_lattice_normal(p1: float, p2: float, half_width: int = 20,
                           boundary: str = "absorbing",
                           tolerance: float = DEFAULT_TOLERANCE) -> WalkSpec:
    """Nearest-neighbor lattice walk with commuting diagonal jump operators.

    ``L+ = diag(sqrt(p1), sqrt(p2))``, ``L- = diag(sqrt(1-p1), sqrt(1-p2))``
    on the window [-half_width, half_width].
    """
    for p in (p1, p2):
        if not 0.0 < p < 1.0:
            raise InputError(f"jump probabilities must lie in (0, 1), got {p}")
    lp = np.diag([np.sqrt(p1), np.sqrt(p2)]).astype(COMPLEX)
    lm = np.diag([np.sqrt(1 - p1), np.sqrt(1 - p2)]).astype(COMPLEX)
    return _line_window(-half_width, half_width, lp, lm, boundary, tolerance)


def example_lattice_nonnormal(half_width: int = 50, boundary: str = "absorbing",
                              tolerance: float = DEFAULT_TOLERANCE) -> WalkSpec:
    """Lattice walk with non-normal jump operators that is still recurrent.

    ``L+ = [[1,1],[0,0]]/sqrt2`` and ``L- = [[0,0],[1,-1]]/sqrt2``; the dual
    of the return operator fixes the identity in the infinite-volume limit,
    approached monotonically as the window grows.
    """
    lp = SQ2 * np.array([[1.0, 1.0], [0.0, 0.0]], dtype=COMPLEX)
    lm = SQ2 * np.array([[0.0, 0.0], [1.0, -1.0]], dtype=COMPLEX)
    return _line_window(-half_width, half_width, lp, lm, boundary, tolerance)


def gamblers_ruin(n_sites: int = 11, p_up: float = 0.5,
                  tolerance: float = DEFAULT_TOLERANCE) -> WalkSpec:
    """Minimal dilation of gambler's ruin on 0..n_sites-1 with absorbing ends."""
    n = n_sites
    if n < 3:
        raise InputError("need at least three sites")
    t = np.zeros((n, n))
    t[0, 0] = 1.0
    t[n - 1, n - 1] = 1.0
    for k in range(1, n - 1):
        t[k + 1, k] = p_up
        t[k - 1, k] = 1.0 - p_up
    return minimal_dilation(t, labels=[str(k) for k in range(n)], tolerance=tolerance)


def cycle_dilation(n: int, bias: float = 0.5, tolerance: float = DEFAULT_TOLERANCE) -> WalkSpec:
    """Minimal dilation of a biased cycle on n sites."""
    if n < 2:
        raise InputError("cycle needs at least two sites")
    t = np.zeros((n, n))
    for k in range(n):
        t[(k + 1) % n, k] += bias
        t[(k - 1) % n, k] += 1.0 - bias
    return minimal_dilation(t, labels=[str(k) for k in range(n)], tolerance=tolerance)


def random_doubly_stochastic(n_sites: int = 3, dim: int = 2, seed: int = 7,
                             hop: float = 0.55, tolerance: float = DEFAULT_TOLERANCE) -> WalkSpec:
    """Seeded random doubly stochastic walk on a ring (``L[i,j] = L[j,i]†``).

    Each ring edge carries a random contraction M with its adjoint on the
    reverse direction; Hermitian self-loops absorb the stochasticity defect.
    The flat state Id/dim is invariant and detailed balance holds, which is
    the setting for the variational Dirichlet solver and the gradient
    identity.  Irreducibility holds for generic seeds and is asserted.
    """
    rng = np.random.default_rng(seed)
    sites = [str(k) for k in range(n_sites)]
    dims = {s: dim for s in sites}
    edge_ops = {}
    for k in range(n_sites):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a *= hop / np.linalg.norm(a, 2)
        edge_ops[(sites[(k + 1) % n_sites], sites[k])] = a
    trans: dict = {}
    load: dict = {s: np.zeros((dim, dim), dtype=COMPLEX) for s in sites}
    for (to, fr), m in edge_ops.items():
        trans[(to, fr)] = m
        trans[(fr, to)] = m.conj().T
        load[fr] += m.conj().T @ m
        load[to] += m @ m.conj().T
    for s in sites:
        slack = np.eye(dim, dtype=COMPLEX) - load[s]
        w = np.linalg.eigvalsh(slack)
        if w.min() < 1e-10:
            raise InputError("hop amplitude too large for a stochastic self-loop")
        trans[(s, s)] = psd_sqrt(slack)
    walk = WalkSpec(tuple(sites), dims, trans, tolerance)
    if not is_irreducible(walk)[0]:
        raise InputError(f"seed {seed} produced a reducible walk; pick another")
    return walk


# ---------------------------------------------------------------------------
# catalog

# fixture name -> the ``oqw`` flags (without ``--``) that set its parameters
FIXTURE_PARAMS = {
    "example-5.1": (),
    "example-5.2": ("p", "N", "boundary"),
    "example-5.4": (),
    "example-5.5-normal": ("p", "p2", "N", "boundary"),
    "example-5.5-nonnormal": ("N", "boundary"),
    "gamblers-ruin": ("N", "p"),
    "cycle": ("N", "p"),
    "random-doubly-stochastic": ("N", "dim", "fixture-seed"),
}


def build_fixture(name: str, p: float | None = None, p2: float | None = None,
                  N: int | None = None, dim: int | None = None,
                  seed: int | None = None, boundary: str | None = None,
                  tolerance: float = DEFAULT_TOLERANCE) -> WalkSpec:
    """Instantiate a named builtin walk; range-checks its parameters."""
    boundary = boundary or "absorbing"
    if name == "example-5.1":
        return example_three_site_trap(tolerance)
    if name == "example-5.2":
        return example_half_line(0.75 if p is None else p, N or 60, boundary, tolerance)
    if name == "example-5.4":
        return example_branch_return(tolerance)
    if name == "example-5.5-normal":
        return example_lattice_normal(0.5 if p is None else p,
                                      0.5 if p2 is None else p2,
                                      N or 20, boundary, tolerance)
    if name == "example-5.5-nonnormal":
        return example_lattice_nonnormal(N or 50, boundary, tolerance)
    if name == "gamblers-ruin":
        return gamblers_ruin(N or 11, 0.5 if p is None else p, tolerance)
    if name == "cycle":
        return cycle_dilation(N or 5, 0.5 if p is None else p, tolerance)
    if name == "random-doubly-stochastic":
        return random_doubly_stochastic(N or 3, dim or 2, 7 if seed is None else seed,
                                        tolerance=tolerance)
    raise InputError(f"unknown fixture {name!r}; known: {sorted(FIXTURE_PARAMS)}")
