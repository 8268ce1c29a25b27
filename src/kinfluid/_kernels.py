"""Vectorized numpy kernels for the hot inner loops: the two phase-space
upwind sweeps and the batched tridiagonal solve."""
import numpy as np


def upwind_transport(f, xi, dt_over_dx, ghost_lo, ghost_hi):
    """First-order upwind advection in x, one constant speed per column.

    ghost_lo/ghost_hi hold the wall ghost-cell value for every column;
    only the inflow columns of each wall are actually read.
    """
    nx, nv = f.shape
    padded = np.empty((nx + 2, nv), dtype=f.dtype)
    padded[1:-1] = f
    padded[0] = ghost_lo
    padded[-1] = ghost_hi
    c = xi * dt_over_dx
    back = padded[1:-1] - padded[:-2]
    fwd = padded[2:] - padded[1:-1]
    return f - c * np.where(c >= 0.0, back, fwd)


def upwind_drag(f, drift, dt_over_dv):
    """Conservative upwind advection along the velocity axis.

    drift has shape (nx, nv+1): interface drift speeds per spatial cell,
    with the two outermost interfaces already forced to zero flux.
    """
    nx, nv = f.shape
    a = drift[:, 1:-1]
    flux = np.zeros((nx, nv + 1), dtype=f.dtype)
    flux[:, 1:-1] = np.where(a >= 0.0, a * f[:, :-1], a * f[:, 1:])
    return f - dt_over_dv * (flux[:, 1:] - flux[:, :-1])


def thomas_batch(lower, diag, upper, rhs):
    """Solve one tridiagonal system per row. lower[:,0] / upper[:,-1] unused."""
    nx, n = rhs.shape
    cp = np.empty_like(rhs)
    dp = np.empty_like(rhs)
    cp[:, 0] = upper[:, 0] / diag[:, 0]
    dp[:, 0] = rhs[:, 0] / diag[:, 0]
    for j in range(1, n):
        m = diag[:, j] - lower[:, j] * cp[:, j - 1]
        cp[:, j] = upper[:, j] / m
        dp[:, j] = (rhs[:, j] - lower[:, j] * dp[:, j - 1]) / m
    out = np.empty_like(rhs)
    out[:, -1] = dp[:, -1]
    for j in range(n - 2, -1, -1):
        out[:, j] = dp[:, j] - cp[:, j] * out[:, j + 1]
    return out
