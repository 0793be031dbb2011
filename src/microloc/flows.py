"""Hamiltonian and geodesic flows on graph surfaces y = eta(x) over the line.

The phase space is z = (x, xi).  The co-metric of the graph surface is
G(x, xi) = xi^2 / (1 + eta'(x)^2); the dispersive flow uses H = G^{3/4},
whose trajectories are the geodesics of G up to the reparametrization
phi_s = (3/4) int G(Phi_sigma)^{-1/4} d sigma.  Non-trapping is diagnosed
through the growth of x xi along trajectories, and escaping trajectories
carry an asymptotic direction xi_inf = lim xi_s.  Metric callables work
elementwise on scalars or arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .errors import FlowSingularityError
from .symbols import radial_bump, radial_bump_grad

__all__ = [
    "SurfaceMetric",
    "flat_metric",
    "gaussian_bump_metric",
    "metric_from_samples",
    "Trajectory",
    "integrate_hamiltonian",
    "reparam_check",
    "asymptotic_direction",
    "nontrapping_diagnostic",
    "escape_symbol_surface",
    "escape_symbol_surface_fd",
    "escape_symbol_surface_min_transport",
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

    def hamilton_rhs_G(self, z):
        dx, dxi = self.grad_G(z[0], z[1])
        return np.array([dxi, -dx])

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


def metric_from_samples(field):
    """Spline adapter for a sampled surface: periodic cubic interpolation of eta.

    Used to couple water-wave surface snapshots to the ray tracer; flows need
    smooth off-grid derivatives the grid samples cannot provide directly.
    """
    grid = field.grid
    xs = np.append(grid.axis_points(), 0.5 * grid.length)
    vals = np.real(field.values)
    vals = np.append(vals, vals[0])
    spl = CubicSpline(xs, vals, bc_type="periodic")
    d1 = spl.derivative(1)
    d2 = spl.derivative(2)
    L = grid.length

    def wrap(x):
        return (x + 0.5 * L) % L - 0.5 * L

    return SurfaceMetric(
        eta=lambda x: spl(wrap(x)),
        grad_eta=lambda x: d1(wrap(x)),
        hess_eta=lambda x: d2(wrap(x)),
    )


@dataclass
class Trajectory:
    """Dense solution of a Hamiltonian flow, with conserved-energy bookkeeping."""

    metric: SurfaceMetric
    symbol: str  # "H" (G^{3/4}) or "G"
    s: np.ndarray
    sol: object = dc_field(repr=False)

    def state(self, s):
        return self.sol(s)

    def x(self, s):
        return self.sol(s)[0]

    def xi(self, s):
        return self.sol(s)[1]

    def velocity(self, s):
        z = self.sol(s)
        if self.symbol == "H":
            return self.metric.hamilton_rhs_H(z)
        return self.metric.hamilton_rhs_G(z)

    def energy(self, s):
        z = self.sol(s)
        val = self.metric.G(z[0], z[1])
        return val ** 0.75 if self.symbol == "H" else val

    def energy_drift(self):
        e = np.array([self.energy(s) for s in self.s])
        return float(np.max(np.abs(e - e[0])) / abs(e[0]))


def _integrate(metric, z0, s_span, tol, symbol, extra_rhs=None, extra0=None, events=None):
    # extra_rhs(s, z, dz) gives the rates of the components after z; dz is the
    # flow's rate at z, evaluated once per stage for both
    rhs_core = metric.hamilton_rhs_H if symbol == "H" else metric.hamilton_rhs_G

    def rhs(s, y):
        dz = rhs_core(y[:2])
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


def integrate_hamiltonian(metric, z0, s_end, tol=1e-10, symbol="H"):
    """Adaptive RK45 solution of dz/ds = X_H(z) (or X_G with symbol="G")."""
    res = _integrate(metric, z0, (0.0, s_end), tol, symbol)
    return Trajectory(metric, symbol, res.t, res.sol)


def reparam_check(metric, z0, s_end, tol=1e-10):
    """Max |Phi_s - Geo_{phi_s}| over 200 samples of s, with
    phi_s = (3/4) int G(Phi_sigma)^{-1/4} dsigma."""

    def phi_rate(s, z, dz):
        return np.array([0.75 * metric.G(z[0], z[1]) ** (-0.25)])

    res = _integrate(metric, z0, (0.0, s_end), tol, "H", extra_rhs=phi_rate, extra0=np.zeros(1))
    phi_end = res.y[-1, -1]
    geo = integrate_hamiltonian(metric, z0, phi_end, tol=tol, symbol="G")
    dev = 0.0
    for s in np.linspace(0.0, s_end, 200):
        y = res.sol(s)
        dev = max(dev, float(np.max(np.abs(y[:2] - geo.state(y[-1])))))
    return dev


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
    res = _integrate(metric, z0, (0.0, s_max), tol, "H",
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
        res2 = _integrate(metric, y[:2], (s_cur, s_next), tol, "H",
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


def nontrapping_diagnostic(metric, z0, s_end):
    """Minimum of d/ds (x xi) over 2000 samples of the trajectory, and a
    positivity flag."""
    n_samples = 2000
    traj = integrate_hamiltonian(metric, z0, s_end)
    ss = np.linspace(0.0, s_end, n_samples)
    vals = np.empty(n_samples)
    for i, s in enumerate(ss):
        z = traj.state(s)
        v = traj.velocity(s)
        vals[i] = z[0] * v[1] + v[0] * z[1]
    min_slope = float(np.min(vals))
    return min_slope, min_slope > 0.0


# -- escape symbols along a trajectory ------------------------------------------


def escape_symbol_surface(s, x, xi, traj, lam, delta, nu, sign=+1, plateau=0.5):
    """chi^pm = phi((x - x_s)/(lam delta s)) phi((xi -/+ xi_s)/(delta - s^-nu)).

    Returns (value, transport = d_s chi +/- {H, chi}); requires s > 0 with
    delta > s^-nu.  x and xi may be arrays for support sampling.
    """
    if s <= 0.0 or delta - s ** (-nu) <= 0.0:
        raise ValueError("need s > 0 and delta > s^-nu")
    z = traj.state(s)
    v = traj.velocity(s)
    xs, xis = z[0], z[1]
    xdot, xidot = v[0], v[1]
    D = delta - s ** (-nu)
    sgn = 1.0 if sign >= 0 else -1.0

    phi = lambda t: radial_bump(t, plateau, 1.0)
    dphi = lambda t: radial_bump_grad(t, plateau, 1.0)

    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    u1 = (x - xs) / (lam * delta * s)
    u2 = (xi - sgn * xis) / D
    p1, p2 = phi(u1), phi(u2)
    g1, g2 = dphi(u1), dphi(u2)
    value = p1 * p2

    du1_ds = -xdot / (lam * delta * s) - u1 / s
    du2_ds = -sgn * xidot / D - u2 * nu * s ** (-nu - 1.0) / D
    ds_chi = g1 * du1_ds * p2 + p1 * g2 * du2_ds

    # {H, chi} with analytic metric derivatives
    G = traj.metric.G(x, xi)
    dxg, dxig = traj.metric.grad_G(x, xi)
    fac = 0.75 * G ** (-0.25)
    dH_dx = fac * dxg
    dH_dxi = fac * dxig
    poisson = dH_dxi * g1 / (lam * delta * s) * p2 - dH_dx * p1 * g2 / D
    transport = ds_chi + sgn * poisson
    return value, transport


def escape_symbol_surface_fd(s, x, xi, traj, lam, delta, nu, plateau=0.5):
    """Finite-difference transport derivative of chi^+, step 1e-4 (oracle for
    the analytic one)."""
    step = 1e-4

    def chi(ss, xx, xxi):
        z = traj.state(ss)
        D = delta - ss ** (-nu)
        return (radial_bump((xx - z[0]) / (lam * delta * ss), plateau, 1.0)
                * radial_bump((xxi - z[1]) / D, plateau, 1.0))

    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    ds = (chi(s + step, x, xi) - chi(s - step, x, xi)) / (2.0 * step)
    dchi_dx = (chi(s, x + step, xi) - chi(s, x - step, xi)) / (2.0 * step)
    dchi_dxi = (chi(s, x, xi + step) - chi(s, x, xi - step)) / (2.0 * step)

    H = traj.metric.H
    dH_dx = (H(x + step, xi) - H(x - step, xi)) / (2 * step)
    dH_dxi = (H(x, xi + step) - H(x, xi - step)) / (2 * step)
    return ds + (dH_dxi * dchi_dx - dH_dx * dchi_dxi)


def escape_symbol_surface_min_transport(traj, s, lam, delta, nu, sign=+1):
    """Minimum of the transport derivative over a 40 x 40 sample of supp chi^pm."""
    nx = nxi = 40
    z = traj.state(s)
    xs, xis = z[0], z[1]
    D = delta - s ** (-nu)
    sgn = 1.0 if sign >= 0 else -1.0
    xr = np.linspace(xs - lam * delta * s, xs + lam * delta * s, nx)
    xir = np.linspace(sgn * xis - D, sgn * xis + D, nxi)
    X, XI = np.meshgrid(xr, xir)
    val, tr = escape_symbol_surface(s, X, XI, traj, lam, delta, nu, sign)
    mask = val > 0
    if not np.any(mask):
        return 0.0
    return float(np.min(tr[mask]))
