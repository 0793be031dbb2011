"""Water-wave layer: configuration checks, the analytic ramp metric, the
step rule and the Lawson-RK4 time stepper."""

import math
import warnings

import numpy as np
import pytest

from microloc.dno import discrete_flat_symbol
from microloc.errors import ConfigError
from microloc.grid import Field, Grid, wave_packet
from microloc.model_eq import geometric_h_grid
from microloc.waterwave import (
    SurfaceState,
    WaveParams,
    cfl_dt,
    integrate,
    linearized_evolution,
    ramp_metric,
    ramp_surface,
    singularity_experiment_smoothing,
    symmetrized_u,
    symmetrizer_symbols,
)


def _field(g, vals):
    return Field(g, np.asarray(vals, dtype=np.complex128))


def _max_diff(a, b):
    return max(float(np.max(np.abs(a.eta.values - b.eta.values))),
               float(np.max(np.abs(a.psi.values - b.psi.values))))


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


def test_symmetrizer_symbols_and_symmetrized_u_emit_no_warning():
    # zeta^(-1/2) is 0 at xi = 0; evaluating |xi|^-1/2 there used to warn
    g = Grid(128, 32.0)
    x = g.axis_points()
    state = SurfaceState(_field(g, 0.01 * np.exp(-x ** 2)),
                         _field(g, 0.01 * np.sin(x) * np.exp(-x ** 2 / 4)))
    xi = g.frequencies()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        syms = symmetrizer_symbols(state.eta)
        values = {k: sym(x, xi) for k, sym in syms.items()}
        u = symmetrized_u(state)
    assert values["zeta"][0] == 0.0
    assert all(np.all(np.isfinite(v)) for v in values.values())
    assert np.all(np.isfinite(u.values))


def test_cfl_dt_flat_surface_is_advective_bound():
    # with the flat linear flow exact, a flat surface leaves only xi_N
    g = Grid(256, 64.0)
    flat = _field(g, np.zeros(g.n))
    for params in (WaveParams(), WaveParams(gravity=9.81, kappa=4.0)):
        assert cfl_dt(g, params, flat, 0.3) == 0.3 / g.nyquist


def test_cfl_dt_capillary_cap_scales_with_sqrt_kappa():
    # a slope-0.5 ramp leaves sigma = 1 - (5/4)^(-3/4) of the capillary
    # stiffness; on this fine grid it caps the step, so dt ~ kappa^(-1/2)
    g = Grid(256, 16.0)
    eta = ramp_surface(g, 0.5, 1.0)
    dts = [cfl_dt(g, WaveParams(kappa=k), eta) for k in (1.0, 4.0, 16.0)]
    assert dts[0] < 0.5 / g.nyquist
    assert dts[1] == pytest.approx(dts[0] / 2, rel=1e-12)
    assert dts[2] == pytest.approx(dts[0] / 4, rel=1e-12)
    sigma = 1.0 - 1.25 ** -0.75
    assert dts[0] == pytest.approx(0.5 / (sigma * g.nyquist ** 1.5), rel=1e-3)


def test_integrate_matches_linear_flow_at_small_amplitude():
    # from rest, the deviation from the exact discrete linear flow is the
    # nonlinear O(A^2) remainder: it quadruples with 2A.  The mollifier and
    # the linear flow are both diagonal, so the per-step mollifier must add up
    # to exp(-eps T |xi|^{3/2}); the Nyquist mode checks that both flows take
    # its dispersion as g (H(eta) drops it).
    g = Grid(128, 32.0)
    x = g.axis_points()
    g0 = discrete_flat_symbol(g, 1.0, 64)
    eps, T = 1e-2, 1.0
    damp = np.exp(-eps * T * np.abs(g.frequencies()) ** 1.5)
    errs = []
    for A in (1e-6, 2e-6):
        eta = A * (np.exp(-x ** 2) + 0.1 * np.cos(g.nyquist * x))
        s0 = SurfaceState(_field(g, eta), _field(g, np.zeros(g.n)))
        hist = integrate(s0, T, eps_mollify=eps, track_invariants=False)
        lin = linearized_evolution(s0, T, discrete_symbol=g0)
        lin = SurfaceState(*(_field(g, np.real(np.fft.ifft(damp * np.fft.fft(f.values))))
                             for f in (lin.eta, lin.psi)))
        assert hist.final().t == pytest.approx(T, abs=1e-12)
        errs.append(_max_diff(hist.final(), lin))
    assert errs[0] <= 0.5 * 1e-6 ** 2
    assert 3.0 <= errs[1] / errs[0] <= 5.0


def _ramp_state(g):
    psi = 2.0 * np.real(1e-2 * wave_packet(g, 0.0, 2.0, 1.0).values)
    return SurfaceState(ramp_surface(g, 0.5, 1.0), _field(g, psi))


def test_integrate_fourth_order_on_ramp_surface():
    # slope-0.5 ramp: the default step takes 4 steps to T = 1/8; halving the
    # step from 2 to 4 steps cuts the error against 16 steps by 2^4.5
    g = Grid(128, 32.0)
    s0 = _ramp_state(g)
    T = 0.125
    coarse = integrate(s0, T, dt=T / 2, track_invariants=False)
    default = integrate(s0, T, track_invariants=False)
    ref = integrate(s0, T, dt=T / 16, track_invariants=False)
    assert default.steps == 4 and default.rhs_evals == 4 * default.steps
    e2 = _max_diff(coarse.final(), ref.final())
    e4 = _max_diff(default.final(), ref.final())
    assert math.log2(e2 / e4) >= 3.5
    assert e4 <= 1e-7


def test_integrate_mass_drift_is_the_strip_schemes():
    # d/dt int eta = int G(eta) psi, whose discrete mean is an O(dz^2) error
    # of the strip scheme (not 0): the drift falls 4x from nz = 64 to 128
    # and does not depend on the time step
    g = Grid(128, 32.0)
    x = g.axis_points()
    eta = _field(g, 0.1 * np.exp(-x ** 2) + 0.05 * np.tanh(x) * np.exp(-(x / 7) ** 8))
    psi = _ramp_state(g).psi
    T = 0.25
    drift = {}
    for nz, dt in ((64, None), (64, T / 14), (128, None)):
        hist = integrate(SurfaceState(eta, psi, params=WaveParams(nz=nz)), T, dt=dt)
        drift[nz, dt] = (hist.mass[-1] - hist.mass[0]) / hist.mass[0]
    d64 = drift[64, None]
    assert abs(d64) <= 1e-6
    assert abs(drift[64, T / 14] - d64) <= 1e-3 * abs(d64)
    assert abs(d64 / drift[128, None]) >= 3.0


def test_integrate_time_reversal():
    # without the mollifier, T then -T returns to the start up to twice the
    # 4-step truncation error (2.5e-8 one way on this grid)
    g = Grid(128, 32.0)
    s0 = _ramp_state(g)
    fwd = integrate(s0, 0.125, eps_mollify=0, track_invariants=False).final()
    back = integrate(fwd, -0.125, eps_mollify=0, track_invariants=False).final()
    assert back.t == pytest.approx(0.0, abs=1e-15)
    assert _max_diff(back, s0) <= 1e-7


def test_smoothing_experiment_reports_step_counts():
    # the pinned ramp configuration: 4 Lawson steps of four zcs_rhs each
    g = Grid(256, 64.0)
    rep = singularity_experiment_smoothing(
        g, WaveParams(), x0=0.0, xi0=1.0, t0=0.125,
        h_grid=geometric_h_grid(0.5, 2 ** -0.25, 14),
        surface_amplitude=0.5, ramp_width=1.0, s_max=150.0)
    assert rep.meta["steps"] == 4
    assert rep.meta["rhs_evals"] == 4 * rep.meta["steps"]
