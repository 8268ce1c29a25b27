"""Vectorized numpy kernels for the hot inner loops: the two phase-space
upwind sweeps and the batched tridiagonal solve.

Every pass works on a C-contiguous (nx, nv) array or on its 1-D ravel, so
numpy runs one inner loop per operation rather than one per row; the
transport takes its per-column speeds as a full flat array, so none of its
passes broadcasts. Each kernel writes its result into the out array it is
given and runs in the work it is given: a tuple of flat float64 scratch
arrays for the upwind sweeps, and for the solve a CyclicReduction, which
holds every level of the reduction and its views. A kernel allocates no
array of its own.

The drag builds one flux per interface, the drift a times the upwind value
(f_j where a >= 0, f_{j+1} where a < 0), from a signed drift and a boolean
mask of its negative entries, both built once per step by its caller.

aligned_empty allocates arrays that start on a 64-byte boundary, as the run's
work arrays and the reduction's levels do: the kernels' passes run up to a
third slower at the 16-, 32- or 48-byte offsets numpy's heap may give.
"""
import numpy as np

# a cache line, and the width of an AVX-512 register
_ALIGN = 64


def aligned_empty(shape, dtype=float):
    """An uninitialized C-contiguous array of shape and dtype whose first
    entry sits on a 64-byte boundary: a view into a byte buffer 64 bytes
    longer, sliced to the boundary (numpy has no aligned empty)."""
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    buf = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -buf.ctypes.data % _ALIGN
    return buf[start : start + nbytes].view(dtype).reshape(shape)


def _flat(arr, size):
    """The first size entries of a C-contiguous array, as a 1-D view."""
    if not arr.flags.c_contiguous:
        raise ValueError("kernel work and out arrays must be C-contiguous")
    return arr.reshape(-1)[:size]


def upwind_transport(f, c, in_lo, in_hi, out, work):
    """First-order upwind advection in x, one constant speed per column,
    negative on the first nv/2 columns and positive on the rest.

    c: the Courant numbers xi*dt/dx of every cell, nx*nv of them (each row
    the same). in_lo/in_hi: the incoming halves of the two wall interfaces,
    nv/2 entries each (the scattered f[0, :nv/2] and f[-1, nv/2:]). work: two
    flat arrays of at least (nx+1)*nv and nx*nv entries. On return the first
    holds the nx+1 interface rows Q, each the upwind value of its interface,
    so Q's first and last rows are the two wall traces. out: an (nx, nv)
    C-contiguous array.
    """
    nx, nv = f.shape
    h = nv // 2
    size = nx * nv
    q, t = _flat(work[0], size + nv), _flat(work[1], size)
    # row r of Q is interface r, between cells r-1 and r: cell r's value on
    # the negative-speed half, cell r-1's on the positive one
    rows = q.reshape(nx + 1, nv)
    np.copyto(rows[:nx, :h], f[:, :h])
    np.copyto(rows[1:, h:], f[:, h:])
    rows[0, h:] = in_lo
    rows[nx, :h] = in_hi
    # the one upwind difference of each cell, the backward one where c >= 0
    # and the forward one where c < 0
    np.subtract(q[nv:], q[:size], out=t)
    t *= np.ravel(c)
    np.subtract(np.ravel(f), t, out=_flat(out, size))
    return out


def upwind_drag(f, a, upwind_next, dt_over_dv, out, work):
    """Conservative upwind advection along the velocity axis.

    a is the drift speed at the upper interface of each cell, an (nx, nv)
    array whose last column (the velocity cut) must be 0, and upwind_next the
    boolean mask a < 0 of the interfaces whose upwind value is the next
    cell's. The flux a f_up is then zero through both cuts, also where the
    ravel runs from one row into the next. It is a+ f_j + a- f_{j+1} with
    the product that is always an exact zero left out. work: two flat arrays
    of at least nx*nv+1 and nx*nv entries; on return the first holds the
    flux through each cell's lower interface, 0 first. out: an (nx, nv)
    C-contiguous array, which may be f.
    """
    nx, nv = f.shape
    size = nx * nv
    flux, t = _flat(work[0], size + 1), _flat(work[1], size)
    flat_f, flat_out = np.ravel(f), _flat(out, size)
    # flux[k] is the flux through the lower interface of flat cell k: the
    # upwind value, f_j, or f_{j+1} where the mask is set, times the drift
    flux[0] = 0.0
    np.copyto(flux[1:], flat_f)
    np.copyto(flux[1:-1], flat_f[1:], where=np.ravel(upwind_next)[:-1])
    flux[1:] *= np.ravel(a)
    np.subtract(flux[1:], flux[:-1], out=t)
    t *= dt_over_dv
    np.subtract(flat_f, t, out=flat_out)
    return out


def _level_views(a, b, c, a1, b1, c1, x1, t):
    """The views of one reduction level that stay fixed: of its coefficients
    a, b, c, of the next level's a1, b1, c1 and x1, which hold its even
    equations, and of the product scratch t."""
    h, k = len(a) // 2, len(a1) - 1  # odd entries; odd entries with an even one to their right
    ao, bo, co = a[1::2], b[1::2], c[1::2]
    return (
        bo, bo[:k], ao, ao[:k], co[:k], a[2::2], b[2::2], c[: 2 * h : 2], b,
        a1[1:], b1[1:], c1[:h], b1[:h], c1[:k], b1, x1, x1[1:], x1[:h],
        t[:k], t[:h], t[h : h + k],
    )


def _x_views(x):
    """The views of one level's right-hand side x, which the back
    substitution turns into the level's solution."""
    xo = x[1::2]
    return x, xo, xo[: (len(x) - 1) // 2], x[2::2], x[::2]


class CyclicReduction:
    """The levels of thomas_batch's cyclic reduction for one (batch, n)
    shape, and the views that the solve reads and writes, built once per run.

    Level 0 is the raveled batch. Its coefficients a, b and c are the first
    batch*n entries of three of the four flat work arrays, which take copies
    of lower, diag and upper; self.lower, self.diag and self.upper are their
    (batch, n) views, and a caller that assembles its matrix in them makes
    that copy a no-op. The fourth array, t, holds a level's products. Level
    k + 1 is the reduced system of the even equations of level k, written
    contiguously, so every level reads its inputs at stride 2. The levels
    above 0 take about four more arrays of batch*n doubles, in one packed
    buffer, each level starting on a 64-byte boundary. Level 0's right-hand
    side is the solve's out array, so its few views are the only ones a
    solve builds. work: four C-contiguous float64 arrays of at least batch*n
    entries each.
    """

    def __init__(self, batch, n, work):
        size = batch * n
        a, b, c, t = (_flat(w, size) for w in work)
        self.shape = (batch, n)
        self.lower, self.diag, self.upper = (w.reshape(batch, n) for w in (a, b, c))
        self.corners = (a[::n], c[n - 1 :: n])
        # a power-of-two n stops at one unknown per block, any other at one in all
        top = n if n & (n - 1) == 0 else 1 << (size - 1).bit_length()
        sizes = [size]
        while len(sizes) < top.bit_length():
            sizes.append((sizes[-1] + 1) // 2)
        # (a, b, c, x) of each level; level 0's x is the solve's out. Each
        # level takes a multiple of 8 doubles, so each starts 64-byte aligned
        levels = [(a, b, c, None)]
        spans = [-(-m // 8) * 8 for m in sizes[1:]]
        packed = aligned_empty((4, sum(spans)))
        start = 0
        for m, span in zip(sizes[1:], spans):
            levels.append(tuple(packed[:, start : start + m]))
            start += span
        self.levels = [_level_views(*lo[:3], *hi, t) for lo, hi in zip(levels, levels[1:])]
        self.x_views = [_x_views(x) for _, _, _, x in levels[1:-1]]
        self.b_top, self.x_top = levels[-1][1::2]  # x_top is None when the top is level 0


def thomas_batch(lower, diag, upper, rhs, out, work):
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
    = 0), so the blocks stay decoupled, and every level is a few 1-D passes
    over the whole batch. Each level writes the reduced system of its even
    equations into the next level's contiguous arrays and keeps, in its odd
    entries, what the back substitution needs (diag there is replaced by
    -1/diag); the back substitution writes each level's solution into the
    even entries of the level below. When n is a power of two the levels
    stop at one unknown per block: element by element, the same arithmetic
    as solving each row alone. Otherwise they run to the top, one unknown
    left in all.

    work: the CyclicReduction of the batch's shape, which holds every level;
    out: a C-contiguous array of rhs's shape, which may be rhs. The inputs
    stay untouched unless they are work's own level-0 arrays or out.
    """
    batch, n = rhs.shape
    if work.shape != (batch, n):
        raise ValueError(f"reduction built for shape {work.shape}, not {(batch, n)}")
    flat_x = _flat(out, batch * n)
    for dst, src in zip((work.lower, work.diag, work.upper, flat_x.reshape(batch, n)), (lower, diag, upper, rhs)):
        np.copyto(dst, src)
    for corner in work.corners:
        corner.fill(0.0)
    levels = work.levels
    # level 0's right-hand side is out, so its views are the only ones built here
    x_views = [_x_views(flat_x), *work.x_views]
    for (bo, bok, ao, aok, cok, ae, be, ce, b, left, b1l, right, b1h, right_k, b1, x1, x1l, x1h, tk, th, _), (
        x, xo, xok, xe, _
    ) in zip(levels, x_views):
        np.divide(-1.0, bo, out=bo)
        np.multiply(ae, bok, out=left)  # -lower_i / diag_{i-1}
        np.multiply(ce, bo, out=right)  # -upper_i / diag_{i+1}
        np.add(be, np.multiply(left, cok, out=tk), out=b1l)
        b1[0] = b[0]
        b1h += np.multiply(right, ao, out=th)
        np.add(xe, np.multiply(left, xok, out=tk), out=x1l)
        x1[0] = x[0]
        x1h += np.multiply(right, xo, out=th)
        left *= aok
        right_k *= cok
    x_top = flat_x if work.x_top is None else work.x_top
    x_top /= work.b_top
    for (bo, _, ao, _, cok, _, _, _, _, _, _, _, _, _, _, x1, x1l, x1h, tk, th, tb), (_, xo, _, _, x_all) in zip(
        reversed(levels), reversed(x_views)
    ):
        # odd entry j: x_j = (rhs_j - lower_j x_{j-1} - upper_j x_{j+1}) / diag_j
        np.multiply(ao, x1h, out=th)
        tk += np.multiply(cok, x1l, out=tb)
        th -= xo
        np.multiply(th, bo, out=xo)
        # the even entries: the next level's solution
        np.copyto(x_all, x1)
    return out
