import numpy as np
import pytest

from kinfluid.core import PhaseGrid


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def grid():
    return PhaseGrid(nx=24, nv=64, x_lo=0.0, x_hi=1.0, v_max=8.0)


def random_positive_f(rng, grid, base=0.3, amp=0.25):
    """Smooth strictly positive phase density with Gaussian-ish tails."""
    x = grid.x[:, None]
    xi = grid.xi[None, :]
    bumps = (
        base
        + amp * np.abs(np.sin(2 * np.pi * x) * np.cos(0.7 * xi))
        + amp * rng.random((grid.nx, grid.nv))
    )
    return bumps * np.exp(-0.25 * xi**2)
