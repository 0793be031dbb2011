"""Hamiltonian/geodesic flows, non-trapping diagnostics, escape symbols."""

import numpy as np
import pytest

from microloc.flows import (
    asymptotic_direction,
    escape_symbol_surface,
    escape_symbol_surface_fd,
    escape_symbol_surface_min_transport,
    flat_metric,
    gaussian_bump_metric,
    integrate_hamiltonian,
    metric_from_samples,
    nontrapping_diagnostic,
    reparam_check,
    SurfaceMetric,
)
from microloc.grid import Field, Grid


def slow_decay_metric(a=0.3):
    """eta = a (1+x^2)^{-1/4}: slow curvature decay, still non-trapping."""

    def eta(x):
        return a * (1 + x * x) ** -0.25

    def grad(x):
        return -0.5 * a * x * (1 + x * x) ** -1.25

    def hess(x):
        return -0.5 * a * ((1 + x * x) ** -1.25 - 2.5 * x * x * (1 + x * x) ** -2.25)

    return SurfaceMetric(eta, grad, hess)


def test_free_flow_straight_rays():
    m = flat_metric()
    traj = integrate_hamiltonian(m, np.array([1.0, 2.0]), 10.0)
    for s in [0.0, 3.3, 10.0]:
        x_exp = 1.0 + s * 1.5 * 2.0 ** -0.5 * 2.0
        assert traj.x(s) == pytest.approx(x_exp, abs=1e-9)
        assert traj.xi(s) == pytest.approx(2.0, abs=1e-12)


def test_energy_conservation():
    m = gaussian_bump_metric(0.4, 1.3)
    traj = integrate_hamiltonian(m, np.array([-6.0, 1.1]), 15.0, tol=1e-10)
    assert traj.energy_drift() <= 1e-8


def test_richardson_self_consistency():
    # trajectory matches a tighter-tolerance rerun pointwise
    m = gaussian_bump_metric(1.0, 1.0)  # eta(x) = e^{-x^2/2}-type bump
    z0 = np.array([-5.0, 1.0])
    a = integrate_hamiltonian(m, z0, 10.0, tol=1e-10)
    b = integrate_hamiltonian(m, z0, 10.0, tol=1e-12)
    dev = max(np.max(np.abs(a.state(s) - b.state(s))) for s in np.linspace(0, 10, 50))
    assert dev < 1e-7


def test_flow_reversibility():
    m = gaussian_bump_metric(0.5, 1.0)
    z0 = np.array([-4.0, 1.3])
    fwd = integrate_hamiltonian(m, z0, 8.0, tol=1e-10)
    z1 = fwd.state(8.0)
    back = integrate_hamiltonian(m, z1, -8.0, tol=1e-10)
    assert np.max(np.abs(back.state(-8.0) - z0)) < 1e-7


def test_variational_determinant():
    # symplectic proxy: FD Jacobian of the flow map has det ~ 1
    m = gaussian_bump_metric(0.4, 1.0)
    z0 = np.array([-3.0, 1.0])
    eps = 1e-5
    s = 10.0

    def flow(z):
        return integrate_hamiltonian(m, z, s, tol=1e-11).state(s)

    J = np.empty((2, 2))
    for j in range(2):
        dz = np.zeros(2)
        dz[j] = eps
        J[:, j] = (flow(z0 + dz) - flow(z0 - dz)) / (2 * eps)
    assert abs(np.linalg.det(J) - 1.0) < 1e-4


def test_reparam_flat_exact():
    m = flat_metric()
    assert reparam_check(m, np.array([1.0, 2.0]), 5.0) < 1e-9


def test_reparam_bump():
    m = gaussian_bump_metric(0.5, 1.0)
    assert reparam_check(m, np.array([-5.0, 1.0]), 10.0, tol=1e-10) < 1e-6


def test_reparam_growth_with_send():
    m = gaussian_bump_metric(0.3, 1.5)
    devs = [reparam_check(m, np.array([-6.0, 1.0]), s) for s in (5.0, 10.0, 20.0)]
    # deviation grows at most linearly on flat-at-infinity surfaces
    assert devs[2] <= max(4.0 * devs[0], 1e-9)
    assert devs[2] < 1e-6


def test_asymptotic_direction_free():
    m = flat_metric()
    xi_inf, z_inf, trapped, _ = asymptotic_direction(m, np.array([1.0, 2.0]), s_max=200.0)
    assert not trapped
    assert xi_inf == pytest.approx(2.0, abs=1e-10)
    assert abs(z_inf) < 1e-10


def test_asymptotic_direction_cauchy_decreasing():
    m = slow_decay_metric(0.4)
    xi_inf, _, trapped, info = asymptotic_direction(
        m, np.array([0.5, 1.0]), s_max=4000.0, cauchy_tol=1e-6, escape_radius=2.0
    )
    assert not trapped
    incs = [i for i in info["increments"] if i > 0]
    assert len(incs) >= 2
    assert all(b < a for a, b in zip(incs, incs[1:]))
    assert incs[-1] < 1e-6


def test_asymptotic_direction_energy_identity():
    # |xi_inf|^{3/2} = H(x0, xi0) when eta -> 0 at infinity
    m = gaussian_bump_metric(0.4, 1.0)
    z0 = np.array([-0.8, 1.3])
    xi_inf, _, trapped, _ = asymptotic_direction(m, z0, s_max=2000.0)
    assert not trapped
    H0 = m.H(z0[0], z0[1])
    assert abs(abs(xi_inf) ** 1.5 - H0) < 1e-6


def test_asymptotic_direction_translation_consistent():
    m = gaussian_bump_metric(0.4, 1.0)
    z0 = np.array([-2.0, 1.1])
    traj = integrate_hamiltonian(m, z0, 5.0)
    xi_a, _, _, _ = asymptotic_direction(m, z0, s_max=2000.0)
    xi_b, _, _, _ = asymptotic_direction(m, traj.state(5.0), s_max=2000.0)
    assert abs(xi_a - xi_b) < 1e-6


def test_nontrapping_free_constant_slope():
    m = flat_metric()
    z0 = np.array([1.0, 2.0])
    min_slope, flag = nontrapping_diagnostic(m, z0, 10.0)
    assert flag
    assert min_slope == pytest.approx(1.5 * 2.0 ** 1.5, rel=1e-8)


def test_nontrapping_d1_sample():
    # 1D graphs are non-trapping: positive x.xi growth across a 20-point sample
    m = gaussian_bump_metric(0.2, 1.2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x0 = rng.uniform(-5, 5)
        xi0 = rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
        s_end = 10.0 / abs(xi0) ** 0.5
        _, flag = nontrapping_diagnostic(m, np.array([x0, xi0]), s_end)
        assert flag


def _calibrated_small_hessian_metric(target=0.01):
    # scale a Gaussian bump so that max <x> |eta''(x)| equals the target
    xs = np.linspace(-20, 20, 4001)
    base = np.abs((xs ** 2 - 1) * np.exp(-0.5 * xs ** 2)) * np.sqrt(1 + xs ** 2)
    amp = target / base.max()
    return gaussian_bump_metric(amp, 1.0)


def test_nontrapping_small_hessian_bound():
    # ||<x> eta''||_inf = 0.01: min slope >= 0.5 * (3/2)|xi0|^{3/2}
    m = _calibrated_small_hessian_metric(0.01)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x0 = rng.uniform(-3, 3)
        xi0 = rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
        min_slope, _ = nontrapping_diagnostic(m, np.array([x0, xi0]), 10.0)
        assert min_slope >= 0.5 * 1.5 * abs(xi0) ** 1.5


def test_sampled_metric_adapter():
    g = Grid(512, 40.0)
    x = g.axis_points()
    f = Field(g, (0.3 * np.exp(-x ** 2)).astype(complex))
    m = metric_from_samples(f)
    ana = gaussian_bump_metric(0.3, np.sqrt(0.5))
    for pt in [-1.0, 0.0, 0.7]:
        assert m.eta(pt) == pytest.approx(ana.eta(pt), abs=1e-6)
        assert m.grad_eta(pt) == pytest.approx(ana.grad_eta(pt), abs=1e-4)
    traj = integrate_hamiltonian(m, np.array([-5.0, 1.0]), 8.0, tol=1e-9)
    # spline knots limit conservation to ~1e-6 regardless of integrator tol
    assert traj.energy_drift() < 1e-5


def test_escape_symbol_surface_center_and_positivity():
    m = flat_metric()
    traj = integrate_hamiltonian(m, np.array([1.0, 2.0]), 80.0)
    for s in (20.0, 40.0, 70.0):
        z = traj.state(s)
        v, _ = escape_symbol_surface(s, z[0], z[1], traj, lam=4.0, delta=0.25, nu=0.5)
        assert v == pytest.approx(1.0)
        mn = escape_symbol_surface_min_transport(traj, s, 4.0, 0.25, 0.5)
        assert mn >= -1e-8


def test_escape_symbol_surface_negative_branch():
    m = flat_metric()
    traj = integrate_hamiltonian(m, np.array([1.0, 2.0]), 80.0)
    s = 40.0
    z = traj.state(s)
    v, _ = escape_symbol_surface(s, z[0], -z[1], traj, lam=4.0, delta=0.25, nu=0.5, sign=-1)
    assert v == pytest.approx(1.0)
    assert escape_symbol_surface_min_transport(traj, s, 4.0, 0.25, 0.5, sign=-1) >= -1e-8


def test_escape_symbol_surface_support_scaling():
    # halving delta halves the xi-extent of the support
    m = flat_metric()
    traj = integrate_hamiltonian(m, np.array([1.0, 2.0]), 450.0)
    s = 400.0
    z = traj.state(s)
    for delta in (0.25, 0.125):
        D = delta - s ** -0.5
        inside, _ = escape_symbol_surface(s, z[0], z[1] + 0.99 * D, traj, 4.0, delta, 0.5)
        outside, _ = escape_symbol_surface(s, z[0], z[1] + 1.01 * D, traj, 4.0, delta, 0.5)
        assert inside > 0.0
        assert outside == 0.0


def test_escape_symbol_surface_fd_oracle():
    m = gaussian_bump_metric(0.3, 1.0)
    traj = integrate_hamiltonian(m, np.array([-2.0, 1.5]), 80.0, tol=1e-12)
    s = 30.0
    z = traj.state(s)
    xs = np.linspace(z[0] - 3.0, z[0] + 3.0, 15)
    xis = np.linspace(z[1] - 0.2, z[1] + 0.2, 15)
    X, XI = np.meshgrid(xs, xis)
    _, tr = escape_symbol_surface(s, X, XI, traj, 4.0, 0.25, 0.5, plateau=0.35)
    fd = escape_symbol_surface_fd(s, X, XI, traj, 4.0, 0.25, 0.5, plateau=0.35)
    assert np.max(np.abs(tr - fd)) < 1e-6 * max(np.max(np.abs(tr)), 1e-12)
