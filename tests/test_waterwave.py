"""Water-wave layer: configuration checks and the analytic ramp metric."""

import math

import numpy as np
import pytest

from microloc.errors import ConfigError
from microloc.grid import Field, Grid
from microloc.waterwave import SurfaceState, WaveParams, ramp_metric, symmetrized_u


def test_symmetrized_u_rejects_non_unit_surface_tension():
    # the symmetrizer symbols are derived for kappa = 1; another kappa must
    # fail loudly instead of silently using the kappa = 1 symbols
    g = Grid(256, 64.0)
    x = g.axis_points()
    state = SurfaceState(Field(g, 0.01 * np.cos(2 * np.pi * x / g.length)),
                         Field(g, 0.01 * np.sin(2 * np.pi * x / g.length)),
                         params=WaveParams(kappa=2.0))
    with pytest.raises(ConfigError):
        symmetrized_u(state)


def test_ramp_metric_grad_far_from_ramp():
    # cosh(u)^2 overflows near |u| = 355; the far field is flat, not an error
    amp, width, center = 0.5, 1.0, 3.0
    metric = ramp_metric(amp, width, center=center)
    far = metric.grad_eta(np.array([center + 1000.0 * width]))
    assert np.all(np.isfinite(far)) and abs(far[0]) < 1e-12
    # near the ramp it is still A sech^2(u) / w (taper ~ 1 there)
    u = 0.7
    near = metric.grad_eta(np.array([center + u * width]))[0]
    assert near == pytest.approx(amp / width / math.cosh(u) ** 2, rel=1e-9)
