import math

import numpy as np
import pytest

from kinfluid.core import PhaseGrid
from kinfluid.moments import compute_moments, maxwellian

from conftest import random_positive_f


def test_maxwellian_peak_value():
    g = PhaseGrid(nx=1, nv=64, v_max=8.0)
    st = maxwellian(np.ones(1), np.zeros(1), g)
    # value at the cell nearest xi = 0 vs the closed form at that center
    j = np.argmin(np.abs(g.xi))
    expect = math.exp(-0.5 * g.xi[j] ** 2) / math.sqrt(2 * math.pi)
    assert st.f[0, j] == pytest.approx(expect, rel=1e-15)
    assert 1.0 / math.sqrt(2 * math.pi) == pytest.approx(0.398942, abs=1e-6)


def test_maxwellian_zero_density_rows():
    g = PhaseGrid(nx=3, nv=16)
    st = maxwellian(np.array([1.0, 0.0, 2.0]), np.zeros(3), g)
    assert np.all(st.f[1] == 0.0)
    with pytest.raises(ValueError):
        maxwellian(np.array([-1.0, 1.0, 1.0]), np.zeros(3), g)


def test_moments_of_maxwellian_gaussian_oracle():
    # oracle: Gaussian moments are (rho, rho*u) exactly in the continuum
    g = PhaseGrid(nx=6, nv=128, v_max=8.0)
    rho = np.linspace(0.5, 2.0, 6)
    u = np.linspace(-0.4, 0.4, 6)
    m = compute_moments(maxwellian(rho, u, g), g)
    np.testing.assert_allclose(m.rho, rho, rtol=1e-10)
    np.testing.assert_allclose(m.mom, rho * u, rtol=1e-8, atol=1e-12)


def test_moments_of_zero():
    g = PhaseGrid(nx=4, nv=16)
    m = compute_moments(np.zeros((4, 16)), g)
    for arr in (m.rho, m.mom, m.u):
        assert np.all(arr == 0.0)


def test_first_moment_shift_identity(rng):
    # shifting f by a whole number of cells shifts mom by rho*a exactly
    g = PhaseGrid(nx=2, nv=64, v_max=8.0)
    base = np.zeros((2, 64))
    base[:, 20:40] = rng.random((2, 20))
    k = 3
    shifted = np.zeros_like(base)
    shifted[:, 20 + k : 40 + k] = base[:, 20:40]
    m0 = compute_moments(base, g)
    m1 = compute_moments(shifted, g)
    a = k * g.dv
    np.testing.assert_allclose(m1.rho, m0.rho, rtol=0, atol=1e-15)
    np.testing.assert_allclose(m1.mom, m0.mom + m0.rho * a, rtol=1e-13)


def test_moment_recovery_error_decays_second_order():
    # dv-dependent quadrature error of the Maxwellian moment recovery over a
    # dv-halving sequence, isolated from the (fixed) velocity-cut tail by a
    # resolved reference at the same v_max; only levels above the rounding
    # floor enter the order fit
    def vals(nv):
        g = PhaseGrid(nx=1, nv=nv, v_max=6.0)
        m = compute_moments(maxwellian(np.ones(1), np.full(1, 0.3), g), g)
        return m.rho[0], m.mom[0]

    ref = vals(512)
    errs = [sum(abs(a - b) for a, b in zip(vals(nv), ref)) for nv in (4, 8, 16)]
    measured = [
        math.log2(errs[k] / errs[k + 1])
        for k in range(2)
        if errs[k] > 1e-13 and errs[k + 1] > 1e-13
    ]
    assert measured, "no level pair above the rounding floor"
    assert all(order >= 1.9 for order in measured)


def test_moments_linear_in_f(rng, grid):
    f1 = random_positive_f(rng, grid)
    f2 = random_positive_f(rng, grid)
    lam = 0.6
    m = compute_moments(f1 + lam * f2, grid)
    m1 = compute_moments(f1, grid)
    m2 = compute_moments(f2, grid)
    np.testing.assert_allclose(m.rho, m1.rho + lam * m2.rho, rtol=1e-13)
    np.testing.assert_allclose(m.mom, m1.mom + lam * m2.mom, rtol=1e-12, atol=1e-15)
