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

    drift has shape (nx, nv+1): interface drift speeds per spatial cell.
    The two outermost interfaces carry zero flux, so their columns are not read.
    """
    nx, nv = f.shape
    a = drift[:, 1:-1]
    flux = np.zeros((nx, nv + 1), dtype=f.dtype)
    flux[:, 1:-1] = np.where(a >= 0.0, a * f[:, :-1], a * f[:, 1:])
    return f - dt_over_dv * (flux[:, 1:] - flux[:, :-1])


def thomas_batch(lower, diag, upper, rhs):
    """Solve one tridiagonal system per row by odd-even cyclic reduction
    (Hockney 1965; Buzbee, Golub & Nielson 1970). lower[:,0] / upper[:,-1] unused.

    Row i is lower[i,j]*x[j-1] + diag[i,j]*x[j] + upper[i,j]*x[j+1] = rhs[i,j].
    Each level eliminates the odd unknowns of the current system from its even
    equations, which halves it; after ceil(log2 n) levels one unknown is left,
    and the back substitution recovers the odd unknowns level by level. This
    is Gaussian elimination on the odd-even permuted matrix, which keeps the
    column diagonal dominance of the relaxation matrices, so it needs no pivoting.

    The work runs on system-major copies (n, batch) of the inputs, vectorised
    over the batch and over the positions of a level; only the levels are
    looped over. The level with stride s works in place on the rows j*s of the
    copies, whose odd rows keep what the back substitution needs (diag there
    is replaced by -1/diag). Callers that assemble system-major coefficients
    and pass their .T views make those copies contiguous memcpys.
    """
    a, b, c, x = (arr.T.copy() for arr in (lower, diag, upper, rhs))
    n = x.shape[0]
    strides = [1 << k for k in range((n - 1).bit_length())]
    for s in strides:
        ae, be, ce, xe = (arr[:: 2 * s] for arr in (a, b, c, x))
        ao, bo, co, xo = (arr[s :: 2 * s] for arr in (a, b, c, x))
        h = len(bo)  # odd rows, each with an even row to its left
        k = len(be) - 1  # odd rows with an even row to their right
        np.divide(-1.0, bo, out=bo)
        left = ae[1:] * bo[:k]  # even row i: -lower_i / diag_{i-1}
        right = ce[:h] * bo  # even row i: -upper_i / diag_{i+1}
        be[1:] += left * co[:k]
        be[:h] += right * ao
        xe[1:] += left * xo[:k]
        xe[:h] += right * xo
        np.multiply(left, ao[:k], out=ae[1:])
        np.multiply(right[:k], co[:k], out=ce[:k])
    x[0] /= b[0]
    for s in reversed(strides):
        xe = x[:: 2 * s]
        ao, bo, co, xo = (arr[s :: 2 * s] for arr in (a, b, c, x))
        k = len(xe) - 1
        # odd row j: x_j = (rhs_j - lower_j x_{j-1} - upper_j x_{j+1}) / diag_j
        t = ao * xe[: len(xo)]
        t[:k] += co[:k] * xe[1:]
        t -= xo
        np.multiply(t, bo, out=xo)
    return np.ascontiguousarray(x.T)
