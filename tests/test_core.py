import math

import numpy as np
import pytest
from scipy.special import erf

from kinfluid.core import (
    PhaseGrid,
    l1_distance,
    l2_distance,
    quad_v,
    quad_x,
    tridiag_dirichlet_solve,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        PhaseGrid(nx=8, nv=7)  # odd nv
    with pytest.raises(ValueError):
        PhaseGrid(nx=0, nv=8)
    with pytest.raises(ValueError):
        PhaseGrid(nx=8, nv=8, x_lo=1.0, x_hi=0.0)
    with pytest.raises(ValueError):
        PhaseGrid(nx=8, nv=8, v_max=-1.0)


def test_velocity_grid_mirror_symmetry():
    # exact (bitwise) mirror symmetry even for non-dyadic v_max: the wall
    # zero-flux cancellation depends on it
    for v_max in (5.0, 7.3, math.pi):
        g = PhaseGrid(nx=4, nv=32, v_max=v_max)
        assert np.array_equal(g.xi[::-1], -g.xi)
        assert np.array_equal(g.xi_edges[::-1], -g.xi_edges)
        assert g.dv == pytest.approx(2 * v_max / 32)


def test_quad_v_constant_exact():
    g = PhaseGrid(nx=2, nv=8, v_max=4.0)
    assert quad_v(np.ones(8), g) == pytest.approx(8.0, abs=0)
    assert quad_v(np.zeros(8), g) == 0.0


def test_quad_v_gaussian_against_erf():
    # oracle: int_{-8}^{8} exp(-xi^2/2)/sqrt(2 pi) dxi = erf(8/sqrt(2))
    g = PhaseGrid(nx=2, nv=256, v_max=8.0)
    gauss = np.exp(-0.5 * g.xi**2) / math.sqrt(2 * math.pi)
    exact = float(erf(8.0 / math.sqrt(2.0)))
    assert quad_v(gauss, g) == pytest.approx(exact, abs=1e-8)


def test_quad_x_examples():
    g = PhaseGrid(nx=10, nv=2, x_lo=0.0, x_hi=1.0)
    assert quad_x(np.ones(10), g) == pytest.approx(1.0, abs=0)
    assert quad_x(np.zeros(10), g) == 0.0
    g2 = PhaseGrid(nx=128, nv=2)
    assert abs(quad_x(np.sin(2 * np.pi * g2.x), g2)) < 1e-12


def test_quadrature_linear_and_monotone(rng):
    g = PhaseGrid(nx=12, nv=16)
    a = rng.random(16)
    b = rng.random(16)
    lam = 1.7
    assert quad_v(a + lam * b, g) == pytest.approx(quad_v(a, g) + lam * quad_v(b, g), rel=1e-13)
    assert quad_v(np.abs(a), g) >= 0.0
    ax = rng.random(12)
    bx = rng.random(12)
    assert quad_x(ax + lam * bx, g) == pytest.approx(quad_x(ax, g) + lam * quad_x(bx, g), rel=1e-13)
    assert quad_x(np.abs(ax), g) >= 0.0


def test_distances_basic(grid, rng):
    a = rng.random(grid.nx)
    assert l1_distance(a, a, grid) == 0.0
    assert l2_distance(a, a, grid) == 0.0
    c = -0.37
    b = a + c
    assert l1_distance(a, b, grid) == pytest.approx(abs(c), rel=1e-13)


def test_distances_match_direct_summation(grid, rng):
    a = rng.random((grid.nx, grid.nv))
    b = rng.random((grid.nx, grid.nv))
    # independent oracle: plain python accumulation
    w = grid.dx * grid.dv
    l1 = sum(abs(float(a[i, j]) - float(b[i, j])) for i in range(grid.nx) for j in range(grid.nv)) * w
    l2 = math.sqrt(sum((float(a[i, j]) - float(b[i, j])) ** 2 for i in range(grid.nx) for j in range(grid.nv)) * w)
    assert l1_distance(a, b, grid) == pytest.approx(l1, rel=1e-12)
    assert l2_distance(a, b, grid) == pytest.approx(l2, rel=1e-12)


def test_distance_shape_mismatch(grid):
    with pytest.raises(ValueError):
        l1_distance(np.ones(grid.nx), np.ones(grid.nx + 1), grid)
    with pytest.raises(ValueError):
        l2_distance(np.ones((2, 3)), np.ones((3, 2)), grid)


def test_l2_triangle_inequality(grid, rng):
    for _ in range(25):
        a, b, c = (rng.standard_normal(grid.nx) for _ in range(3))
        assert l2_distance(a, c, grid) <= l2_distance(a, b, grid) + l2_distance(b, c, grid) + 1e-12


def test_validation_errors():
    from kinfluid.core import FluidState, KineticState, PositivityError
    from kinfluid.kinetic import kinetic_step, wall_kernels

    g = PhaseGrid(nx=4, nv=8)
    with pytest.raises(ValueError):
        quad_v(np.ones(7), g)  # wrong velocity length
    with pytest.raises(ValueError):
        quad_x(np.ones(5), g)  # wrong spatial length
    f = KineticState(f=np.ones((4, 8)))
    fl = FluidState(n=np.ones(4), v=np.zeros(4))
    walls = wall_kernels("specular", g, 1.0)
    for eps in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            kinetic_step(f, fl, 1e-3, g, eps, walls)
    with pytest.raises(PositivityError):
        KineticState(f=np.full((4, 8), -1.0))
    with pytest.raises(ValueError):
        KineticState(f=np.ones(8))  # not phase-shaped


def test_tridiag_dirichlet_solve_against_dense(rng):
    for n in (1, 2, 3, 17, 128, 256):
        for per_row in (False, True):
            diag_add = 0.5 + rng.random(n)
            coeff = 0.1 + 2.0 * rng.random(n) if per_row else 0.8
            rhs = rng.standard_normal(n)
            inputs = [np.copy(x) for x in (diag_add, coeff, rhs)]
            v = tridiag_dirichlet_solve(diag_add, coeff, rhs)
            for before, after in zip(inputs, (diag_add, coeff, rhs)):
                np.testing.assert_array_equal(after, before)

            c = np.broadcast_to(coeff, (n,))
            a = np.zeros((n, n))
            for i in range(n):
                a[i, i] = diag_add[i] + 2 * c[i]
                if i > 0:
                    a[i, i - 1] = -c[i]
                if i < n - 1:
                    a[i, i + 1] = -c[i]
            a[0, 0] += c[0]
            a[-1, -1] += c[-1]
            expect = np.linalg.solve(a, rhs)
            assert v.shape == (n,)
            np.testing.assert_allclose(v, expect, rtol=1e-12, atol=1e-13, err_msg=f"n={n} per_row={per_row}")
