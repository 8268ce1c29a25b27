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


def kinetic_work(grid, dt=None, eps=0.1):
    """The KineticWork of a run on grid with steps of dt at eps; dt defaults
    to 0.4 of the transport's CFL bound, for callers such as the entropy
    report that read only the work arrays."""
    from kinfluid.kinetic import KineticWork

    return KineticWork(grid, 0.8 * grid.dx / grid.v_max if dt is None else dt, eps)


def serve(work, walls, steps=1):
    """Run steps steps in a run's work set, each followed by an entropy
    report in the same arrays, as a run interleaves them; returns work."""
    from kinfluid.core import FluidState, KineticState
    from kinfluid.entropy import evaluate_entropy_report
    from kinfluid.kinetic import kinetic_step
    from kinfluid.moments import compute_moments

    grid = work.grid
    fl = FluidState(n=np.ones(grid.nx), v=0.3 * np.sin(2 * np.pi * grid.x))
    state = KineticState(f=np.random.default_rng(1).random((grid.nx, grid.nv)) + 0.1)
    for _ in range(steps):
        state, _ = kinetic_step(state, fl, walls, work)
        evaluate_entropy_report(state, fl, compute_moments(state, grid, work.f), work)
    return work
