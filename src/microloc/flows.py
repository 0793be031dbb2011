"""Hamiltonian flow on graph surfaces y = eta(x) over the line.

The phase space is z = (x, xi).  The co-metric of the graph surface is
G(x, xi) = xi^2 / (1 + eta'(x)^2); the dispersive flow uses H = G^{3/4},
whose trajectories are the geodesics of G up to the reparametrization
phi_s = (3/4) int G(Phi_sigma)^{-1/4} d sigma.  Escaping trajectories carry
an asymptotic direction xi_inf = lim xi_s.  Metric callables work
elementwise on scalars or arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import FlowSingularityError

__all__ = [
    "SurfaceMetric",
    "flat_metric",
    "gaussian_bump_metric",
    "Trajectory",
    "integrate_hamiltonian",
    "asymptotic_direction",
]


@dataclass
class SurfaceMetric:
    """Graph surface y = eta(x): eta, grad_eta and hess_eta return eta, eta'
    and eta'' elementwise."""

    eta: callable
    grad_eta: callable
    hess_eta: callable

    def G(self, x, xi):
        return xi ** 2 / (1.0 + self.grad_eta(x) ** 2)

    def H(self, x, xi):
        return self.G(x, xi) ** 0.75

    def grad_G(self, x, xi):
        """(d_x G, d_xi G), elementwise."""
        g = self.grad_eta(x)
        m2 = 1.0 + g ** 2
        return -2.0 * g * self.hess_eta(x) * xi ** 2 / m2 ** 2, 2.0 * xi / m2

    def hamilton_rhs_H(self, z):
        x, xi = z[0], z[1]
        G = self.G(x, xi)
        if G <= 0.0:
            raise FlowSingularityError(f"G <= 0 at x={x}, xi={xi}")
        dx, dxi = self.grad_G(x, xi)
        fac = 0.75 * G ** (-0.25)
        return np.array([fac * dxi, -fac * dx])


def flat_metric():
    zero = lambda x: np.zeros_like(x, dtype=float)
    return SurfaceMetric(eta=zero, grad_eta=zero, hess_eta=zero)


def gaussian_bump_metric(amplitude, width=1.0):
    """eta(x) = A exp(-x^2 / 2 w^2)."""

    def eta(x):
        t = x / width
        return amplitude * np.exp(-0.5 * t * t)

    def grad(x):
        t = x / width
        return -amplitude * t / width * np.exp(-0.5 * t * t)

    def hess(x):
        t = x / width
        return amplitude * (t * t - 1.0) / width ** 2 * np.exp(-0.5 * t * t)

    return SurfaceMetric(eta, grad, hess)


@dataclass
class Trajectory:
    """Dense solution of the H flow, with conserved-energy bookkeeping."""

    metric: SurfaceMetric
    s: np.ndarray
    sol: object = dc_field(repr=False)

    def state(self, s):
        return self.sol(s)

    def x(self, s):
        return self.sol(s)[0]

    def xi(self, s):
        return self.sol(s)[1]

    def energy(self, s):
        z = self.sol(s)
        return self.metric.H(z[0], z[1])

    def energy_drift(self):
        e = np.array([self.energy(s) for s in self.s])
        return float(np.max(np.abs(e - e[0])) / abs(e[0]))


def _integrate(metric, z0, s_span, tol, extra_rhs=None, extra0=None, events=None):
    # extra_rhs(s, z, dz) gives the rates of the components after z; dz is the
    # flow's rate at z, evaluated once per stage for both
    def rhs(s, y):
        dz = metric.hamilton_rhs_H(y[:2])
        if extra_rhs is None:
            return dz
        return np.concatenate([dz, extra_rhs(s, y[:2], dz)])

    y0 = np.asarray(z0, dtype=float)
    xi_floor = 1e-10 * max(1.0, abs(float(y0[1])))
    if extra0 is not None:
        y0 = np.concatenate([y0, extra0])

    def xi_vanishes(s, y):
        return abs(y[1]) - xi_floor

    xi_vanishes.terminal = True
    ev = [xi_vanishes] + (events or [])
    res = solve_ivp(
        rhs, s_span, y0, method="RK45", rtol=tol, atol=tol, dense_output=True, events=ev
    )
    if not res.success:
        raise FlowSingularityError(f"integration failed: {res.message}")
    if len(res.t_events[0]):
        raise FlowSingularityError(
            f"xi -> 0 at s = {res.t_events[0][0]:.6g}, x = {res.sol(res.t_events[0][0])[0]}"
        )
    return res


def integrate_hamiltonian(metric, z0, s_end, tol=1e-10):
    """Adaptive RK45 solution of dz/ds = X_H(z)."""
    res = _integrate(metric, z0, (0.0, s_end), tol)
    return Trajectory(metric, res.t, res.sol)


def asymptotic_direction(metric, z0, s_max=1.0e3, escape_radius=None, cauchy_tol=1e-6):
    """Escape a trajectory and extrapolate (xi_inf, z_inf) at dyadic checkpoints.

    z_s = x_s - x_0 - (3/2) int |xi|^{-1/2} xi converges together with xi_s on
    non-trapping surfaces with decaying curvature; the flow is integrated to
    tolerance 1e-10.  Returns (xi_inf, z_inf, trapped, info), xi_inf and z_inf
    floats; trapped=True when |x| never exceeds the escape radius.
    """
    tol = 1e-10
    z0 = np.asarray(z0, dtype=float)
    if escape_radius is None:
        escape_radius = 50.0 * abs(float(z0[0])) + 100.0

    def z_rate(s, z, dz):
        return np.array([dz[0] - 1.5 * abs(z[1]) ** (-0.5) * z[1]])

    def escaped(s, y):
        return abs(y[0]) - escape_radius

    escaped.terminal = True
    res = _integrate(metric, z0, (0.0, s_max), tol,
                     extra_rhs=z_rate, extra0=np.zeros(1), events=[escaped])
    if not len(res.t_events[1]):
        return None, None, True, {"message": "no escape before s_max", "s_max": s_max}
    s_esc = float(res.t_events[1][0])

    checkpoints = [s_esc]
    y = res.sol(s_esc)
    increments = []
    s_cur = s_esc
    xi_prev = y[1]
    while s_cur < s_max:
        s_next = min(2.0 * s_cur, s_max)
        res2 = _integrate(metric, y[:2], (s_cur, s_next), tol,
                          extra_rhs=z_rate, extra0=y[2:])
        y = res2.sol(s_next)
        inc = abs(float(y[1] - xi_prev))
        increments.append(inc)
        checkpoints.append(s_next)
        xi_prev = y[1]
        s_cur = s_next
        if inc < cauchy_tol:
            info = {"s_escape": s_esc, "checkpoints": checkpoints, "increments": increments}
            return float(y[1]), float(y[2]), False, info
    info = {"s_escape": s_esc, "checkpoints": checkpoints, "increments": increments,
            "message": "Cauchy tolerance not reached before s_max"}
    return float(y[1]), float(y[2]), False, info
