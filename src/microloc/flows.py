"""The co-geodesic flow on graph surfaces y = eta(x) over the line, in closed form.

The phase space is z = (x, xi).  The co-metric of the graph surface is
G(x, xi) = xi^2 / (1 + eta'(x)^2); the dispersive flow uses H = G^{3/4},
whose trajectories are the geodesics of G up to the reparametrization
phi_s = (3/4) int G(Phi_sigma)^{-1/4} d sigma.

In one dimension the flow is integrable.  G is conserved along a ray, and
xi^2 >= G > 0, so xi never changes sign.  The ray then moves monotonically,
dx/ds = (3/2) sign(xi) G^{1/4} / sqrt(1 + eta'^2), i.e. at arclength speed
(3/2) G^{1/4}, so on a graph of bounded slope every ray with xi0 != 0 leaves
for x = sign(xi0) infinity and no ray is trapped.  Where eta' -> 0 at
infinity, which every surface here satisfies, xi tends to the asymptotic
direction xi_inf = sign(xi0) sqrt(G(x0, xi0)) = xi0 / sqrt(1 + eta'(x0)^2).
Metric callables work elementwise on scalars or arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SurfaceMetric",
    "gaussian_bump_metric",
    "asymptotic_direction",
]

# trapezoid nodes of the arclength integral between x0 and the escape radius
ARC_NODES = 16385


@dataclass
class SurfaceMetric:
    """Graph surface y = eta(x): eta and grad_eta return eta and eta'
    elementwise."""

    eta: callable
    grad_eta: callable

    def G(self, x, xi):
        return xi ** 2 / (1.0 + self.grad_eta(x) ** 2)

    def H(self, x, xi):
        return self.G(x, xi) ** 0.75


def gaussian_bump_metric(amplitude, width=1.0):
    """eta(x) = A exp(-x^2 / 2 w^2)."""

    def eta(x):
        t = x / width
        return amplitude * np.exp(-0.5 * t * t)

    def grad(x):
        t = x / width
        return -amplitude * t / width * np.exp(-0.5 * t * t)

    return SurfaceMetric(eta, grad)


def asymptotic_direction(metric, z0):
    """(xi_inf, s_escape) of the H flow from z0 = (x0, xi0).

    xi_inf = xi0 / sqrt(1 + eta'(x0)^2).  s_escape is the flow time to reach
    x = sign(xi0) R, R = 50 |x0| + 100: the arclength of the graph from x0
    to there, one trapezoid sum, over the speed (3/2) G^{1/4}.  A ray with
    xi0 = 0 does not move: it returns (0.0, inf).
    """
    x0, xi0 = float(z0[0]), float(z0[1])
    xi_inf = xi0 / math.sqrt(1.0 + float(metric.grad_eta(x0)) ** 2)
    if xi_inf == 0.0:
        return 0.0, math.inf
    x = np.linspace(x0, math.copysign(50.0 * abs(x0) + 100.0, xi0), ARC_NODES)
    f = np.sqrt(1.0 + metric.grad_eta(x) ** 2)
    arc = abs(x[1] - x[0]) * float(np.sum(f) - 0.5 * (f[0] + f[-1]))
    return xi_inf, 2.0 / 3.0 * arc / math.sqrt(abs(xi_inf))
