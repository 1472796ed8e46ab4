import numpy as np
import pytest

import oqw
from oqw import fixtures

E1 = np.diag([1.0, 0.0]).astype(complex)
E2 = np.diag([0.0, 1.0]).astype(complex)
MIX = np.eye(2, dtype=complex) / 2


@pytest.fixture(scope="session")
def trap_walk():
    """Three-site walk with a trapped internal direction."""
    return fixtures.example_three_site_trap()


@pytest.fixture(scope="session")
def branch_walk():
    """Four-site walk with passage probability (1+r)/2 to the root."""
    return fixtures.example_branch_return()


@pytest.fixture(scope="session")
def half_line_down():
    """Half-line walk, drift toward the origin (p=3/4), absorbing cut."""
    return fixtures.example_half_line(0.75, 60)


@pytest.fixture(scope="session")
def half_line_up_taboo():
    """Half-line walk, drift away from the origin (p=1/4), open cut."""
    return fixtures.example_half_line(0.25, 40, boundary="taboo")


@pytest.fixture(scope="session")
def ruin_walk():
    """Minimal dilation of symmetric gambler's ruin on 0..10."""
    return fixtures.gamblers_ruin(11, 0.5)


@pytest.fixture(scope="session")
def ring_walk():
    """Seeded random doubly stochastic walk on a three-site ring."""
    return fixtures.random_doubly_stochastic(3, 2, seed=7)


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (m + m.conj().T)


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def rotation(walk, seed):
    """Seeded random unitary per site."""
    rng = np.random.default_rng(seed)
    us = {}
    for s in walk.sites:
        d = walk.dims[s]
        us[s], _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return us


def rotate(walk, seed):
    """The walk seen in the random local orthonormal bases ``rotation(walk, seed)``."""
    us = rotation(walk, seed)
    trans = {(to, fr): us[to] @ L @ us[fr].conj().T for (to, fr), L in walk.transitions.items()}
    return oqw.WalkSpec(walk.sites, walk.dims, trans)
