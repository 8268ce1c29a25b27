import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinfluid import _kernels
from kinfluid.core import PhaseGrid
from kinfluid.kinetic import KineticWork, _transport_raw, _wall_traces, wall_kernels

from conftest import serve


def transport(f, c, in_lo, in_hi):
    """upwind_transport into a new array, in new scratch arrays."""
    nx, nv = f.shape
    return _kernels.upwind_transport(f, c, in_lo, in_hi, np.empty_like(f), (np.empty((nx + 1) * nv), np.empty(nx * nv)))


def drag(f, a, upwind_next, dt_over_dv):
    """upwind_drag into a new array, in new scratch arrays."""
    return _kernels.upwind_drag(f, a, upwind_next, dt_over_dv, np.empty_like(f), (np.empty(f.size + 1), np.empty(f.size)))


def solve(lower, diag, upper, rhs):
    """thomas_batch into a new array, in a new reduction of rhs's shape."""
    batch, n = rhs.shape
    work = tuple(_kernels.aligned_empty(batch * n) for _ in range(4))
    return _kernels.thomas_batch(lower, diag, upper, rhs, np.empty_like(rhs), _kernels.CyclicReduction(batch, n, work))


# scalar-loop references for the two upwind sweeps, written cell by cell
# from the same contracts as the vectorized kernels


def loop_upwind_transport(f, xi, dt_over_dx, ghost_lo, ghost_hi):
    nx, nv = f.shape
    out = np.empty_like(f)
    for j in range(nv):
        c = xi[j] * dt_over_dx
        if c >= 0.0:
            out[0, j] = f[0, j] - c * (f[0, j] - ghost_lo[j])
            for i in range(1, nx):
                out[i, j] = f[i, j] - c * (f[i, j] - f[i - 1, j])
        else:
            for i in range(nx - 1):
                out[i, j] = f[i, j] - c * (f[i + 1, j] - f[i, j])
            out[nx - 1, j] = f[nx - 1, j] - c * (ghost_hi[j] - f[nx - 1, j])
    return out


def loop_upwind_drag(f, drift, dt_over_dv):
    nx, nv = f.shape
    out = np.empty_like(f)
    for i in range(nx):
        prev_flux = 0.0
        for j in range(nv):
            if j == nv - 1:
                flux = 0.0
            else:
                a = drift[i, j + 1]
                if a >= 0.0:
                    flux = a * f[i, j]
                else:
                    flux = a * f[i, j + 1]
            out[i, j] = f[i, j] - dt_over_dv * (flux - prev_flux)
            prev_flux = flux
    return out


def test_upwind_transport_matches_loop(rng):
    nx, nv = 12, 16
    h = nv // 2
    f = rng.random((nx, nv)) + 0.1
    xi = np.linspace(-4, 4, nv)
    in_lo, in_hi = rng.random(h), rng.random(h)
    # the loop's ghost rows: the boundary row on the outgoing half, the
    # incoming half given
    lo = np.concatenate((f[0, :h], in_lo))
    hi = np.concatenate((in_hi, f[-1, h:]))
    # the same arithmetic, operation by operation
    np.testing.assert_array_equal(
        transport(f, np.tile(xi * 0.05, nx), in_lo, in_hi),
        loop_upwind_transport(f, xi, 0.05, lo, hi),
    )


def two_difference_transport(f, xi, dt_over_dx, ghost_lo, ghost_hi):
    """upwind_transport as it was before it built one difference per cell:
    both one-sided differences of [ghost_lo; f; ghost_hi], each times the
    speeds' part of its sign, broadcast per column, so one of the two
    products is always an exact zero."""
    nx, nv = f.shape
    size = nx * nv
    d = np.empty(size + nv)
    t = np.empty(size)
    out = np.empty_like(f)
    flat_f, flat_out = np.ravel(f), out.reshape(-1)
    np.subtract(f[0], ghost_lo, out=d[:nv])
    np.subtract(flat_f[nv:], flat_f[:-nv], out=d[nv:size])
    np.subtract(ghost_hi, f[-1], out=d[size:])
    c = xi * dt_over_dx
    np.multiply(d[:size].reshape(nx, nv), np.maximum(c, 0.0), out=t.reshape(nx, nv))
    np.subtract(flat_f, t, out=flat_out)
    np.multiply(d[nv:].reshape(nx, nv), np.minimum(c, 0.0), out=t.reshape(nx, nv))
    flat_out -= t
    return out


@pytest.mark.parametrize("nv", [16, 30, 64, 128])
@pytest.mark.parametrize("boundary", ["specular", "diffuse", "dirichlet_zero"])
def test_transport_matches_two_difference_kernel(rng, nv, boundary):
    """One upwind difference per cell gives the bits of the two-difference
    kernel, state and wall traces, in a new work set and in a run's work
    set that has served steps and entropy reports, half-step after
    half-step."""
    grid = PhaseGrid(nx=37, nv=nv, v_max=8.0)
    walls = wall_kernels(boundary, grid, 1.3)
    dt = 0.9 * 2.0 * grid.dx / grid.v_max
    half = 0.5 * dt
    work = serve(KineticWork(grid, dt, 0.1), walls)
    h = nv // 2
    f = rng.random((grid.nx, nv)) + 0.1
    for _ in range(3):
        ghost_lo = np.concatenate((f[0, :h], np.einsum("j,jk->k", f[0, :h], walls[0])))
        ghost_hi = np.concatenate((np.einsum("j,jk->k", f[-1, h:], walls[1]), f[-1, h:]))
        expected = two_difference_transport(f, grid.xi, half / grid.dx, ghost_lo, ghost_hi)
        traces = _wall_traces(ghost_lo, ghost_hi, grid)
        out, *tr = _transport_raw(f, walls, KineticWork(grid, dt, 0.1), np.empty_like(f))
        assert out.tobytes() == expected.tobytes() and tuple(tr) == traces
        out, *tr = _transport_raw(f, walls, work, work.f)
        assert out is work.f and out.tobytes() == expected.tobytes() and tuple(tr) == traces
        f = out.copy()
        serve(work, walls)


def test_upwind_drag_matches_loop(rng):
    nx, nv = 12, 16
    f = rng.random((nx, nv)) + 0.1
    drift = rng.standard_normal((nx, nv + 1))
    drift[:, 0] = drift[:, -1] = 0.0
    # the kernel takes the drift at each cell's upper interface and the mask
    # of the interfaces whose upwind value is the next cell's
    a = drift[:, 1:]
    np.testing.assert_array_equal(
        drag(f, a, a < 0.0, 0.05),
        loop_upwind_drag(f, drift, 0.05),
    )


def strided_thomas_batch(lower, diag, upper, rhs):
    """The cyclic reduction of thomas_batch as it was before its levels were
    packed: each level works in place on every 2^k-th entry of four flat
    arrays. The same operations in the same order, so the same bits."""
    batch, n = rhs.shape
    size = batch * n
    a, b, c, x = (np.array(arr, dtype=float).reshape(-1) for arr in (lower, diag, upper, rhs))
    t = np.empty(size)
    a[::n] = 0.0
    c[n - 1 :: n] = 0.0
    top = n if n & (n - 1) == 0 else 1 << (size - 1).bit_length()
    strides = [1 << k for k in range(top.bit_length() - 1)]
    for s in strides:
        ae, be, ce, xe = (arr[:: 2 * s] for arr in (a, b, c, x))
        ao, bo, co, xo = (arr[s :: 2 * s] for arr in (a, b, c, x))
        h = len(bo)
        k = len(be) - 1
        tk, th = t[:k], t[:h]
        np.divide(-1.0, bo, out=bo)
        left = np.multiply(ae[1:], bo[:k], out=ae[1:])
        right = np.multiply(ce[:h], bo, out=ce[:h])
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
        tm, tk = t[:m], t[m : m + k]
        np.multiply(ao, xe[:m], out=tm)
        tm[:k] += np.multiply(co[:k], xe[1:], out=tk)
        tm -= xo
        np.multiply(tm, bo, out=xo)
    return x.reshape(batch, n)


def dense_solve_rows(lower, diag, upper, rhs):
    out = np.empty_like(rhs)
    for i in range(rhs.shape[0]):
        dense = np.diag(diag[i]) + np.diag(lower[i, 1:], -1) + np.diag(upper[i, :-1], 1)
        out[i] = np.linalg.solve(dense, rhs[i])
    return out


def test_thomas_batch_matches_dense_solve(rng):
    for nx in (1, 3, 128):
        for n in (1, 2, 3, 5, 16, 17, 127, 128, 129, 256):
            lower = -rng.random((nx, n))
            upper = -rng.random((nx, n))
            diag = 2.0 + rng.random((nx, n))
            rhs = rng.standard_normal((nx, n))
            expected = dense_solve_rows(lower, diag, upper, rhs)
            # the two corner entries lie outside the matrices and are never read
            lower[:, 0] = np.nan
            upper[:, -1] = np.nan
            out = solve(lower, diag, upper, rhs)
            np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-13, err_msg=f"shape {(nx, n)}")


@pytest.mark.parametrize("n, exact", [(16, True), (64, True), (128, True), (30, False), (34, False)])
def test_thomas_batch_matches_rows_solved_alone(rng, n, exact):
    """The batch is one block-diagonal system: for a power-of-two n its levels
    stop at the block size and repeat each row's own elimination bit for
    bit; otherwise they reduce across blocks, exact up to rounding."""
    nx = 37
    lower = -rng.random((nx, n))
    upper = -rng.random((nx, n))
    diag = 2.0 + rng.random((nx, n))
    rhs = rng.standard_normal((nx, n))
    out = solve(lower, diag, upper, rhs)
    alone = np.concatenate([
        solve(lower[i : i + 1], diag[i : i + 1], upper[i : i + 1], rhs[i : i + 1])
        for i in range(nx)
    ])
    if exact:
        np.testing.assert_array_equal(out, alone)
    else:
        np.testing.assert_allclose(out, alone, rtol=1e-14, atol=1e-14 * np.abs(alone).max())


@pytest.mark.parametrize(
    "nx, n", [(1, 1), (3, 2), (5, 4), (37, 16), (37, 30), (33, 34), (128, 128), (256, 64)]
)
def test_thomas_batch_matches_strided_reduction(rng, nx, n):
    """Packing each level contiguously changes only where the levels are
    stored: the bits are those of the strided in-place reduction, for
    power-of-two and other n alike, with a fresh reduction or a reused one."""
    lower = -rng.random((nx, n))
    upper = -rng.random((nx, n))
    diag = 2.0 + rng.random((nx, n))
    rhs = rng.standard_normal((nx, n))
    expected = strided_thomas_batch(lower, diag, upper, rhs)
    assert np.array_equal(solve(lower, diag, upper, rhs), expected)
    work = _kernels.CyclicReduction(nx, n, tuple(np.empty(nx * n) for _ in range(4)))
    for _ in range(2):
        assert np.array_equal(_kernels.thomas_batch(lower, diag, upper, rhs, np.empty_like(rhs), work), expected)


def test_kernels_run_in_given_work_arrays(rng):
    """Each kernel returns the out array it is given, holding the bits of the
    same call in a new work set, also in a run's work set that has served
    steps and entropy reports between the calls; out may be its input."""
    grid = PhaseGrid(nx=8, nv=16)
    nx, nv = grid.nx, grid.nv
    walls = wall_kernels("specular", grid, 1.0)
    dt = 0.8 * grid.dx / grid.v_max
    c = np.tile(np.linspace(-4, 4, nv) * 0.05, nx)
    work = KineticWork(grid, dt, 0.1)
    for _ in range(3):
        serve(work, walls)
        new = KineticWork(grid, dt, 0.1)
        f = rng.random((nx, nv)) + 0.1
        in_lo, in_hi = rng.random(nv // 2), rng.random(nv // 2)
        out = np.empty_like(f)
        assert _kernels.upwind_transport(f, c, in_lo, in_hi, out, work.scratch[:2]) is out
        expected = _kernels.upwind_transport(f, c, in_lo, in_hi, np.empty_like(f), new.scratch[:2])
        assert out.tobytes() == expected.tobytes()
        a = rng.standard_normal((nx, nv))
        a[:, -1] = 0.0
        g = f.copy()
        assert _kernels.upwind_drag(g, a, a < 0.0, 0.05, g, work.scratch[:2]) is g
        assert g.tobytes() == _kernels.upwind_drag(f, a, a < 0.0, 0.05, np.empty_like(f), new.scratch[:2]).tobytes()
        lower, upper = -rng.random((nx, nv)), -rng.random((nx, nv))
        diag = 2.0 + rng.random((nx, nv))
        expected = _kernels.thomas_batch(lower, diag, upper, f, np.empty_like(f), new.reduction)
        # the coefficients already assembled in the reduction's first level
        reduction = work.reduction
        for w, arr in zip((reduction.lower, reduction.diag, reduction.upper), (lower, diag, upper)):
            w[...] = arr
        g = f.copy()
        assert _kernels.thomas_batch(reduction.lower, reduction.diag, reduction.upper, g, g, reduction) is g
        assert g.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="C-contiguous"):
        _kernels.thomas_batch(lower, diag, upper, f, np.empty((nv, nx)).T, reduction)
    with pytest.raises(ValueError, match="reduction built for shape"):
        _kernels.thomas_batch(lower[1:], diag[1:], upper[1:], f[1:], np.empty_like(f[1:]), reduction)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    nx=st.integers(1, 6),
    n=st.integers(1, 80),
    margin=st.floats(0.05, 10.0),
    seed=st.integers(0, 2**32 - 1),
    system_major=st.booleans(),
)
def test_thomas_batch_column_dominant_property(nx, n, margin, seed, system_major):
    """Random column-diagonally-dominant systems of any shape: the solve
    matches a dense solve and leaves its inputs untouched, also when the
    coefficients come as .T views of system-major arrays."""
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-1.0, 1.0, (nx, n))
    upper = rng.uniform(-1.0, 1.0, (nx, n))
    # column j of row system i holds upper[i, j-1], diag[i, j], lower[i, j+1]
    col = np.zeros((nx, n))
    col[:, 1:] += np.abs(upper[:, :-1])
    col[:, :-1] += np.abs(lower[:, 1:])
    diag = rng.choice([-1.0, 1.0], (nx, n)) * (col * (1.0 + margin) + margin)
    rhs = rng.standard_normal((nx, n))
    if system_major:
        lower, diag, upper = (np.ascontiguousarray(arr.T).T for arr in (lower, diag, upper))
    inputs = [arr.copy() for arr in (lower, diag, upper, rhs)]
    out = solve(lower, diag, upper, rhs)
    for before, after in zip(inputs, (lower, diag, upper, rhs)):
        assert np.array_equal(before, after)
    expected = dense_solve_rows(lower, diag, upper, rhs)
    np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12 * np.abs(expected).max())
