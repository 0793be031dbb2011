"""The closed-form asymptotic direction of the H = G^{3/4} flow on graph
surfaces, checked against an ODE solution of the flow."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from microloc.flows import asymptotic_direction, gaussian_bump_metric
from microloc.waterwave import ramp_metric
from oracles import flat_metric


def _ode_escape(metric, x0, xi0):
    """RK45 solution of dx/ds = d_xi H, dxi/ds = -d_x H from (x0, xi0) until
    |x| = 50 |x0| + 100: (s at escape, xi at escape, the state at half that s).
    eta'' is a central difference of eta'."""
    radius = 50.0 * abs(x0) + 100.0

    def rhs(s, z):
        x, xi = z
        g = metric.grad_eta(x)
        gg = (metric.grad_eta(x + 1e-5) - metric.grad_eta(x - 1e-5)) / 2e-5
        m2 = 1.0 + g * g
        fac = 0.75 * (xi * xi / m2) ** -0.25
        return [fac * 2.0 * xi / m2, fac * 2.0 * g * gg * xi * xi / m2 ** 2]

    def escaped(s, z):
        return abs(z[0]) - radius

    escaped.terminal = True
    res = solve_ivp(rhs, (0.0, 1e4), [x0, xi0], method="RK45", rtol=1e-10, atol=1e-10,
                    events=escaped, dense_output=True)
    s_esc = float(res.t_events[0][0])
    return s_esc, float(res.y_events[0][0][1]), res.sol(0.5 * s_esc)


@pytest.mark.parametrize("surface", ["ramp_0.5_1", "ramp_0.75_0.5", "bump_1.5_0.6"])
@pytest.mark.parametrize("xi0", [1.0, -1.0])
def test_asymptotic_direction_matches_the_ode(surface, xi0):
    # the pinned ramp, a steeper and narrower ramp, and a bump of slope up to
    # 1.5 e^{-1/2} / 0.6, from x0 = -0.6 both ways
    metric = {"ramp_0.5_1": ramp_metric(0.5, 1.0, extent=0.22 * 64.0),
              "ramp_0.75_0.5": ramp_metric(0.75, 0.5, extent=0.22 * 64.0),
              "bump_1.5_0.6": gaussian_bump_metric(1.5, 0.6)}[surface]
    x0 = -0.6
    s_ode, xi_ode, mid = _ode_escape(metric, x0, xi0)
    xi_inf, s_escape = asymptotic_direction(metric, np.array([x0, xi0]))
    assert abs(xi_ode - xi_inf) <= 1e-8
    assert abs(s_ode - s_escape) <= 1e-6 * s_ode
    assert abs(asymptotic_direction(metric, mid)[0] - xi_inf) <= 1e-8


def test_asymptotic_direction_free():
    # straight rays: xi is constant and x moves (3/2) sqrt(2) per unit s from
    # x0 = 1 to the escape radius 150
    xi_inf, s_escape = asymptotic_direction(flat_metric(), np.array([1.0, 2.0]))
    assert xi_inf == 2.0
    assert s_escape == pytest.approx(149.0 / (1.5 * math.sqrt(2.0)), rel=1e-12)


def test_asymptotic_direction_energy_identity():
    # |xi_inf|^{3/2} = H(x0, xi0) when eta -> 0 at infinity
    m = gaussian_bump_metric(0.4, 1.0)
    z0 = np.array([-0.8, 1.3])
    xi_inf, _ = asymptotic_direction(m, z0)
    assert abs(abs(xi_inf) ** 1.5 - m.H(z0[0], z0[1])) < 1e-12


def test_asymptotic_direction_no_escape_is_trapped():
    # a ray with xi0 = 0 does not move, so it never escapes; G = 0 warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert asymptotic_direction(gaussian_bump_metric(0.4, 1.0), [-0.8, 0.0]) == (0.0, math.inf)
