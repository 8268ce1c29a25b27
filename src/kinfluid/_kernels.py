"""Vectorized numpy kernels for the hot inner loops: the two phase-space
upwind sweeps and the batched tridiagonal solve.

Every pass works on a C-contiguous (nx, nv) array or on its 1-D ravel, so
numpy runs one inner loop per operation rather than one per row. Each
kernel takes an optional out= array for its result and an optional work=
tuple of flat float64 scratch arrays. With both given a kernel allocates
no array of its own; only numpy's iterator still takes a transient buffer
of at most 64 KiB for the transport's broadcast per-column speeds.
"""
import numpy as np


def _flat(arr, size):
    """The first size entries of a C-contiguous array, as a 1-D view."""
    if not arr.flags.c_contiguous:
        raise ValueError("kernel work and out arrays must be C-contiguous")
    return arr.reshape(-1)[:size]


def upwind_transport(f, xi, dt_over_dx, ghost_lo, ghost_hi, out=None, work=None):
    """First-order upwind advection in x, one constant speed per column.

    ghost_lo/ghost_hi are the wall ghost rows, one value per column; they
    must be finite, as both rows enter every column's update (the one on a
    column's outflow side times an exact zero). work: two flat arrays of at
    least (nx+1)*nv and nx*nv entries.
    """
    nx, nv = f.shape
    size = nx * nv
    if work is None:
        work = (np.empty(size + nv), np.empty(size))
    d, t = _flat(work[0], size + nv), _flat(work[1], size)
    if out is None:
        out = np.empty_like(f)
    flat_f, flat_out = np.ravel(f), _flat(out, size)
    # d holds the nx+1 interface differences of [ghost_lo; f; ghost_hi]
    np.subtract(f[0], ghost_lo, out=d[:nv])
    np.subtract(flat_f[nv:], flat_f[:-nv], out=d[nv:size])
    np.subtract(ghost_hi, f[-1], out=d[size:])
    c = xi * dt_over_dx
    # c >= 0 reads the backward difference, c < 0 the forward one
    np.multiply(d[:size].reshape(nx, nv), np.maximum(c, 0.0), out=t.reshape(nx, nv))
    np.subtract(flat_f, t, out=flat_out)
    np.multiply(d[nv:].reshape(nx, nv), np.minimum(c, 0.0), out=t.reshape(nx, nv))
    flat_out -= t
    return out


def upwind_drag(f, a_pos, a_neg, dt_over_dv, out=None, work=None):
    """Conservative upwind advection along the velocity axis.

    a_pos/a_neg are the parts max(a, 0) and min(a, 0) of the drift speed a
    at the upper interface of each cell, (nx, nv) arrays whose last column
    (the velocity cut) must be 0: the flux a_pos f_j + a_neg f_{j+1} is then
    zero through both cuts, also where the ravel runs from one row into the
    next. work: two flat arrays of at least nx*nv+1 and nx*nv entries. out
    may be f.
    """
    nx, nv = f.shape
    size = nx * nv
    if work is None:
        work = (np.empty(size + 1), np.empty(size))
    flux, t = _flat(work[0], size + 1), _flat(work[1], size)
    if out is None:
        out = np.empty_like(f)
    flat_f, flat_out = np.ravel(f), _flat(out, size)
    # flux[k] is the flux through the lower interface of flat cell k
    flux[0] = 0.0
    np.multiply(np.ravel(a_pos), flat_f, out=flux[1:])
    np.multiply(np.ravel(a_neg)[:-1], flat_f[1:], out=t[:-1])
    flux[1:-1] += t[:-1]
    np.subtract(flux[1:], flux[:-1], out=t)
    t *= dt_over_dv
    np.subtract(flat_f, t, out=flat_out)
    return out


def thomas_batch(lower, diag, upper, rhs, out=None, work=None):
    """Solve one tridiagonal system per row by odd-even cyclic reduction
    (Hockney 1965; Buzbee, Golub & Nielson 1970). lower[:,0] / upper[:,-1] are never read.

    Row i is lower[i,j]*x[j-1] + diag[i,j]*x[j] + upper[i,j]*x[j+1] = rhs[i,j].
    Each level eliminates the odd unknowns of the current system from its even
    equations, which halves it; the back substitution recovers the odd
    unknowns level by level. This is Gaussian elimination on the odd-even
    permuted matrix, which keeps the column diagonal dominance of the
    relaxation matrices, so it needs no pivoting.

    The batch is solved as one block-diagonal system of size batch*n on the
    raveled arrays, with the corner entries zeroed: every coupling between two
    blocks then carries an exact zero factor through all levels (0 * finite
    = 0), so the blocks stay decoupled, and every level is a few 1-D strided
    passes over the whole batch. The level with stride s works in place on
    the entries j*s, whose odd ones keep what the back substitution needs
    (diag there is replaced by -1/diag). When n is a power of two the levels
    stop at stride n, with one unknown left per block: element by element,
    the same arithmetic as solving each row alone. Otherwise they run to the
    top, one unknown left in all.

    work: four flat arrays (a, b, c, t) of at least batch*n entries; a, b, c
    take copies of lower, diag, upper (a work array already holding its input
    makes that copy a no-op) and t holds the products of a level. out may be
    rhs. Without work the inputs stay untouched.
    """
    batch, n = rhs.shape
    size = batch * n
    if work is None:
        work = tuple(np.empty(size) for _ in range(4))
    a, b, c, t = (_flat(w, size) for w in work)
    if out is None:
        out = np.empty_like(rhs)
    x = _flat(out, size)
    for flat, arr in zip((a, b, c, x), (lower, diag, upper, rhs)):
        np.copyto(flat.reshape(batch, n), arr)
    a[::n] = 0.0
    c[n - 1 :: n] = 0.0
    top = n if n & (n - 1) == 0 else 1 << (size - 1).bit_length()
    strides = [1 << k for k in range(top.bit_length() - 1)]
    for s in strides:
        ae, be, ce, xe = (arr[:: 2 * s] for arr in (a, b, c, x))
        ao, bo, co, xo = (arr[s :: 2 * s] for arr in (a, b, c, x))
        h = len(bo)  # odd entries, each with an even entry to its left
        k = len(be) - 1  # odd entries with an even entry to their right
        tk, th = t[:k], t[:h]
        np.divide(-1.0, bo, out=bo)
        left = np.multiply(ae[1:], bo[:k], out=ae[1:])  # -lower_i / diag_{i-1}
        right = np.multiply(ce[:h], bo, out=ce[:h])  # -upper_i / diag_{i+1}
        be[1:] += np.multiply(left, co[:k], out=tk)
        be[:h] += np.multiply(right, ao, out=th)
        xe[1:] += np.multiply(left, xo[:k], out=tk)
        xe[:h] += np.multiply(right, xo, out=th)
        left *= ao[:k]
        right[:k] *= co[:k]
    x[::top] /= b[::top]
    for s in reversed(strides):
        xe = x[:: 2 * s]
        ao, bo, co, xo = (arr[s :: 2 * s] for arr in (a, b, c, x))
        m = len(xo)
        k = len(xe) - 1
        # odd entry j: x_j = (rhs_j - lower_j x_{j-1} - upper_j x_{j+1}) / diag_j
        tm, tk = t[:m], t[m : m + k]
        np.multiply(ao, xe[:m], out=tm)
        tm[:k] += np.multiply(co[:k], xe[1:], out=tk)
        tm -= xo
        np.multiply(tm, bo, out=xo)
    return out
