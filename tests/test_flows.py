"""The H = G^{3/4} flow on graph surfaces and its asymptotic direction."""

import numpy as np
import pytest

from microloc.flows import (
    asymptotic_direction,
    flat_metric,
    gaussian_bump_metric,
    integrate_hamiltonian,
    SurfaceMetric,
)


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


def test_asymptotic_direction_no_escape_is_trapped():
    # x moves 1.5 sqrt(2) s, far short of the escape radius 150 by s = 1
    xi_inf, z_inf, trapped, info = asymptotic_direction(flat_metric(), [1.0, 2.0], s_max=1.0)
    assert (xi_inf, z_inf, trapped) == (None, None, True)
    assert info == {"message": "no escape before s_max", "s_max": 1.0}


def test_asymptotic_direction_cauchy_tolerance_not_reached():
    # xi is exactly constant on the flat metric, so no increment is below 0
    xi_inf, _, trapped, info = asymptotic_direction(flat_metric(), [1.0, 2.0], s_max=200.0,
                                                    cauchy_tol=0.0)
    assert not trapped
    assert xi_inf == 2.0
    assert info["message"] == "Cauchy tolerance not reached before s_max"
    assert info["checkpoints"][-1] == 200.0
