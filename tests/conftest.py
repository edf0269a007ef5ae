import numpy as np
import pytest

from hjb_pi import build_benchmark


@pytest.fixture(scope="session")
def lq_paper():
    """1D benchmark at the reported parameters (L=3, h=0.03)."""
    return build_benchmark("lq1d")


@pytest.fixture(scope="session")
def lq_coarse():
    return build_benchmark("lq1d", h=0.2)


@pytest.fixture(scope="session")
def lq_mid():
    return build_benchmark("lq1d", h=0.1)


@pytest.fixture(scope="session")
def man_paper():
    """2D benchmark at the reported parameters (L=2, h=0.05)."""
    return build_benchmark("manufactured2d")


@pytest.fixture(scope="session")
def man_coarse():
    return build_benchmark("manufactured2d", h=0.2)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def pointwise_red_black_sor(system, omega, tol, max_iter, initial=None):
    """Red-black SOR one node at a time on Python floats: first every node
    with i + j even, then every node with i + j odd, each from its four
    neighbours in a zero-padded copy of the unknowns.  Returns (solution,
    sweeps, last update norm)."""
    m0, m1 = system.shape
    u = [[0.0] * (m1 + 2) for _ in range(m0 + 2)]
    if initial is not None:
        for i in range(m0):
            for j in range(m1):
                u[i + 1][j + 1] = float(initial[i, j])
    colours = [[(i, j) for i in range(m0) for j in range(m1) if (i + j) % 2 == c] for c in (0, 1)]
    arrays = (system.plus[0], system.minus[0], system.plus[1], system.minus[1], system.rhs)
    scaled = {}
    for i in range(m0):
        for j in range(m1):
            scale = omega / float(system.center[i, j])
            scaled[i, j] = [scale * float(a[i, j]) for a in arrays]
    for sweeps in range(1, max_iter + 1):
        update = 0.0
        for nodes in colours:
            for i, j in nodes:
                east, west, north, south, rhs = scaled[i, j]
                delta = u[i + 1][j + 1] * omega
                delta += east * u[i + 2][j + 1]
                delta += west * u[i][j + 1]
                delta += north * u[i + 1][j + 2]
                delta += south * u[i + 1][j]
                delta = rhs - delta
                u[i + 1][j + 1] += delta
                update = max(update, abs(delta))
        if update <= tol:
            break
    return np.array(u)[1:-1, 1:-1], sweeps, update
