import numpy as np

from kinfluid import _kernels


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
    f = rng.random((nx, nv)) + 0.1
    xi = np.linspace(-4, 4, nv)
    lo = rng.random(nv)
    hi = rng.random(nv)
    np.testing.assert_allclose(
        _kernels.upwind_transport(f, xi, 0.05, lo, hi),
        loop_upwind_transport(f, xi, 0.05, lo, hi),
        rtol=1e-14, atol=1e-15,
    )


def test_upwind_drag_matches_loop(rng):
    nx, nv = 12, 16
    f = rng.random((nx, nv)) + 0.1
    drift = rng.standard_normal((nx, nv + 1))
    drift[:, 0] = drift[:, -1] = 0.0
    np.testing.assert_allclose(
        _kernels.upwind_drag(f, drift, 0.05),
        loop_upwind_drag(f, drift, 0.05),
        rtol=1e-14, atol=1e-15,
    )


def test_thomas_batch_matches_dense_solve(rng):
    nx, n = 12, 16
    lower = -rng.random((nx, n))
    upper = -rng.random((nx, n))
    diag = 2.0 + rng.random((nx, n))
    rhs = rng.standard_normal((nx, n))
    out = _kernels.thomas_batch(lower, diag, upper, rhs)
    for i in range(nx):
        dense = np.diag(diag[i]) + np.diag(lower[i, 1:], -1) + np.diag(upper[i, :-1], 1)
        np.testing.assert_allclose(out[i], np.linalg.solve(dense, rhs[i]), rtol=1e-12, atol=1e-13)
