"""Water-wave layer: configuration checks, the analytic ramp metric, the
step rule, the Lawson-RK4 time stepper and the two singularity experiments."""

import math
import time
import warnings
from functools import partial

import numpy as np
import pytest

from microloc.dno import _node_sampler, _slopes, discrete_flat_symbol
from microloc.errors import ConfigError
from microloc.flows import asymptotic_direction
from microloc.grid import Field, Grid, wave_packet
from microloc.model_eq import geometric_h_grid
from microloc.paradiff import paradiff_apply
from microloc.quantize import TOL_ORDER, ProbeSpec, estimate_decay_order, probe_sweep, shared_h_grid
from microloc.symbols import Symbol
from microloc import dno, waterwave
from microloc.waterwave import (
    SurfaceState,
    WaveParams,
    cfl_dt,
    integrate,
    linearized_evolution,
    ramp_metric,
    ramp_surface,
    real_scaled_witness,
    right_mover_state,
    singularity_experiment_infinite,
    singularity_experiment_smoothing,
    symmetrized_u,
    symmetrizer_symbols,
    zcs_rhs,
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
    far = metric.grad_eta(center + 1000.0 * width)
    assert np.isfinite(far) and abs(far) < 1e-12
    # near the ramp it is still A sech^2(u) / w (taper ~ 1 there)
    u = 0.7
    near = metric.grad_eta(center + u * width)
    assert near == pytest.approx(amp / width / math.cosh(u) ** 2, rel=1e-9)


@pytest.mark.parametrize("amp, width, s_max", [(0.5, 1.0, 150.0), (0.75, 0.5, 150.0),
                                                (1.5, 1.0, 2000.0)])
def test_ramp_asymptotic_direction_conserves_G(amp, width, s_max):
    # G = xi^2 / (1 + eta'^2) is conserved and eta' -> 0 at infinity, so a ray
    # leaving the ramp's centre with xi0 = 1 ends at xi_inf = 1 / sqrt(1 + (A/w)^2)
    metric = ramp_metric(amp, width, center=0.0, extent=0.22 * 64.0)
    xi_inf, s_escape = asymptotic_direction(metric, np.array([0.0, 1.0]))
    assert s_escape <= s_max
    assert abs(xi_inf - 1.0 / math.sqrt(1.0 + (amp / width) ** 2)) < 1e-15


def test_symmetrizer_symbols_and_symmetrized_u_emit_no_warning():
    # every symbol is finite on the whole lattice, xi = 0 included, and no
    # evaluation warns
    g = Grid(128, 32.0)
    x = g.axis_points()
    state = SurfaceState(_field(g, 0.01 * np.exp(-x ** 2)),
                         _field(g, 0.01 * np.sin(x) * np.exp(-x ** 2 / 4)))
    xi = g.axis_frequencies()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        syms = symmetrizer_symbols(state.eta)
        values = {k: sym(x, xi) for k, sym in syms.items()}
        u = symmetrized_u(state)
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


def _cfl_for_steps(state, T, steps):
    """The cfl at which integrate takes `steps` steps of T / steps to T."""
    return T / steps / cfl_dt(state.grid, state.params, state.eta, 1.0)


def test_integrate_matches_linear_flow_at_small_amplitude(monkeypatch):
    # from rest, the deviation from the exact discrete linear flow is the
    # nonlinear O(A^2) remainder: it quadruples with 2A.  The mollifier and
    # the linear flow are both diagonal, so the per-step mollifier must add up
    # to exp(-eps T |xi|^{3/2}); the Nyquist mode checks that both flows take
    # its dispersion as g (H(eta) drops it).
    g = Grid(128, 32.0)
    x = g.axis_points()
    g0 = discrete_flat_symbol(g, 1.0, 64)
    eps, T = 1e-2, 1.0
    monkeypatch.setattr(waterwave, "MOLLIFY", eps)
    damp = np.exp(-eps * T * np.abs(g.axis_frequencies()) ** 1.5)
    flow = waterwave._flat_flow(g0, waterwave._flat_dispersion(g, WaveParams()), T)
    errs = []
    for A in (1e-6, 2e-6):
        eta = A * (np.exp(-x ** 2) + 0.1 * np.cos(g.nyquist * x))
        s0 = SurfaceState(_field(g, eta), _field(g, np.zeros(g.n)))
        hist = integrate(s0, T, track_invariants=False)
        lin = flow(np.fft.fft(np.real(s0.eta.values)), np.fft.fft(np.real(s0.psi.values)))
        lin = SurfaceState(*(_field(g, np.real(np.fft.ifft(damp * f))) for f in lin))
        assert hist.final().t == pytest.approx(T, abs=1e-12)
        errs.append(_max_diff(hist.final(), lin))
    assert errs[0] <= 0.5 * 1e-6 ** 2
    assert 3.0 <= errs[1] / errs[0] <= 5.0


def test_zcs_rhs_minus_flat_linear_flow_is_quadratic():
    # L u = (g0 psi, -(g + kappa xi^2) eta) is the flat linear flow of the
    # solver's own operators; zcs_rhs(A u) - L(A u) is O(A^2), so its L2 norm
    # grows 4x each time A doubles (4.01x, then 4.02x)
    g, params = Grid(128, 16.0), WaveParams()
    x = g.axis_points()
    eta = np.exp(-x ** 2 / 4) * np.cos(x)
    psi = np.exp(-(x - 1) ** 2 / 3) * np.sin(2 * x)
    g0 = discrete_flat_symbol(g, params.depth, params.nz)
    disp = waterwave._flat_dispersion(g, params)
    norms = []
    for A in (0.01, 0.02, 0.04):
        de, dp = zcs_rhs(SurfaceState(_field(g, A * eta), _field(g, A * psi), 0.0, params))
        le = np.fft.ifft(g0 * np.fft.fft(A * psi))
        lp = -np.fft.ifft(disp * np.fft.fft(A * eta))
        norms.append(math.sqrt((np.sum(np.abs(de.values - le) ** 2)
                                + np.sum(np.abs(dp.values - lp) ** 2)) * g.spacing))
    for small, large in zip(norms, norms[1:]):
        assert 3.6 <= large / small <= 4.4


def _ramp_state(g):
    psi = 2.0 * np.real(1e-2 * wave_packet(g, 0.0, 2.0, 1.0).values)
    return SurfaceState(ramp_surface(g, 0.5, 1.0), _field(g, psi))


def test_integrate_fourth_order_on_ramp_surface():
    # slope-0.5 ramp: the default step takes 4 steps to T = 1/8; halving the
    # step from 2 to 4 steps cuts the error against 16 steps by 2^4.5
    g = Grid(128, 32.0)
    s0 = _ramp_state(g)
    T = 0.125
    coarse = integrate(s0, T, cfl=_cfl_for_steps(s0, T, 2), track_invariants=False)
    default = integrate(s0, T, track_invariants=False)
    ref = integrate(s0, T, cfl=_cfl_for_steps(s0, T, 16), track_invariants=False)
    assert default.steps == 4 and default.rhs_evals == 4 * default.steps
    e2 = _max_diff(coarse.final(), ref.final())
    e4 = _max_diff(default.final(), ref.final())
    assert math.log2(e2 / e4) >= 3.5
    assert e4 <= 1e-7


def test_integrate_mass_drift_is_the_strip_schemes():
    # d/dt int eta = int G(eta) psi, whose discrete mean is an O(dz^2) error
    # of the strip scheme (not 0): the drift falls 4x from nz = 64 to 128
    # and does not depend on the time step.  The energy
    # E = (1/2) int psi G psi + (g/2) int eta^2 + kappa int (sqrt(1 + eta_x^2) - 1)
    # of the flow is kept to 1e-6 relative (1.2e-7 at nz = 64)
    g = Grid(128, 32.0)
    x = g.axis_points()
    eta = _field(g, 0.1 * np.exp(-x ** 2) + 0.05 * np.tanh(x) * np.exp(-(x / 7) ** 8))
    psi = _ramp_state(g).psi
    T = 0.25
    drift, energy_drift = {}, {}
    for nz, dt in ((64, None), (64, T / 14), (128, None)):
        s0 = SurfaceState(eta, psi, params=WaveParams(nz=nz))
        hist = integrate(s0, T) if dt is None else integrate(s0, T, cfl=_cfl_for_steps(s0, T, 14))
        drift[nz, dt] = (hist.mass[-1] - hist.mass[0]) / hist.mass[0]
        energy_drift[nz, dt] = (hist.energy[-1] - hist.energy[0]) / hist.energy[0]
    d64 = drift[64, None]
    assert abs(d64) <= 1e-6
    assert abs(energy_drift[64, None]) <= 1e-6
    assert abs(drift[64, T / 14] - d64) <= 1e-3 * abs(d64)
    assert abs(d64 / drift[128, None]) >= 3.0


def test_energy_carries_surface_tension():
    # zcs_rhs steps kappa H(eta), so the surface term of E carries kappa: at
    # kappa = 4 a 13-step run from rest keeps E to 2.2e-7 relative (0.83
    # when the surface term leaves kappa out)
    g = Grid(128, 32.0)
    x = g.axis_points()
    params = WaveParams(kappa=4.0)
    eta = _field(g, 0.02 * np.exp(-x ** 2))
    T = 13 * cfl_dt(g, params, eta)
    hist = integrate(SurfaceState(eta, _field(g, np.zeros(g.n)), params=params), T)
    assert hist.steps == 13
    assert abs(hist.energy[-1] - hist.energy[0]) <= 1e-5 * hist.energy[0]


def test_integrate_time_reversal(monkeypatch):
    # without the mollifier, T then -T returns to the start up to twice the
    # 4-step truncation error (2.5e-8 one way on this grid)
    g = Grid(128, 32.0)
    s0 = _ramp_state(g)
    monkeypatch.setattr(waterwave, "MOLLIFY", 0.0)
    fwd = integrate(s0, 0.125, track_invariants=False).final()
    back = integrate(fwd, -0.125, track_invariants=False).final()
    assert back.t == pytest.approx(0.0, abs=1e-15)
    assert _max_diff(back, s0) <= 1e-7


def test_right_mover_state_moves_one_way():
    # the ww_flat witness under the exact linear flow: paired with the
    # right-mover eta it moves to x0 + (3/2) t0 and leaves the left-moving
    # point x0 - (3/2) t0 at least one order cleaner (2.03 against 0.66);
    # with eta = 0 it splits evenly, and the two decay orders agree
    g, params = Grid(512, 64.0), WaveParams()
    x0, xi0, t0 = 4.0, 1.0, 0.5
    right, left = x0 + 0.75, x0 - 0.75
    hs = shared_h_grid(g, [(x0, xi0), (right, xi0), (left, xi0)], 0.5, 1.0,
                       geometric_h_grid(0.5, 2 ** -0.5, 14))
    psi0, tracks = real_scaled_witness(g, x0, xi0, 0.5, 1.0, hs, 1e-2)
    mu = {}
    for name, state in (("paired", right_mover_state(g, params, psi0, tracks)),
                        ("eta0", SurfaceState(_field(g, np.zeros(g.n)), psi0, 0.0, params))):
        psi_t = linearized_evolution(state, t0).psi
        mu[name] = [estimate_decay_order(psi_t, x, xi0, 0.5, 1.0, h_grid=hs).mu_hat
                    for x in (right, left)]
    assert mu["paired"][1] - mu["paired"][0] >= 1.0
    assert abs(mu["eta0"][1] - mu["eta0"][0]) <= 0.2


def test_symmetrized_u_carries_right_movers_on_negative_frequencies():
    # linearized at rest, u = |D|^{1/2} eta - i psi and the right-mover
    # pairing eta-hat = i sign(xi) |xi|^{-1/2} psi-hat give u-hat = i (sign xi
    # - 1) psi-hat at high frequency: u of the ww_flat witness keeps under 1%
    # of its spectral mass on xi > 0 (0.38%).  With eta = 0, u = -i psi of
    # the real witness, half on each side
    g, params = Grid(512, 64.0), WaveParams()
    x0, xi0, t0 = 4.0, 1.0, 0.5
    hs = shared_h_grid(g, [(x0, xi0), (x0 + 0.75, xi0)], 0.5, 1.0,
                       geometric_h_grid(0.5, 2 ** -0.5, 14))
    psi0, tracks = real_scaled_witness(g, x0, xi0, 0.5, 1.0, hs, 1e-2)
    positive = g.axis_frequencies() > 0

    def share_on_positive(state):
        power = np.abs(np.fft.fft(symmetrized_u(state).values)) ** 2
        return np.sum(power[positive]) / np.sum(power)

    assert share_on_positive(right_mover_state(g, params, psi0, tracks)) <= 0.01
    assert share_on_positive(SurfaceState(_field(g, np.zeros(g.n)), psi0, 0.0, params)) >= 0.4


def test_symmetrized_u_solves_the_paradifferential_equation():
    # u = P_p eta - i P_q omega solves d_t u = i T_gamma u + lower order with
    # gamma = (1+eta'^2)^{-3/4} |xi|^{3/2} (Alazard, Burq & Zuily 2011).  On a
    # packet at frequency k the in-band residual relative to T_gamma u falls
    # like k^{-1.41} (0.108, 0.035, 0.013, 0.009 at k = 8, 16, 32, 48); with
    # i replaced by -i it is 2.0.  At nz = 64 the k = 48 ratio is 0.074: the
    # z finite differences, not the symmetrizer, limit it there
    g, params = Grid(512, 4 * math.pi), WaveParams(nz=256)
    x, xi = g.axis_points(), g.axis_frequencies()
    eta = _field(g, 0.1 * np.exp(-x ** 2))
    slope_x, _ = _slopes(eta)
    gamma = Symbol([(_node_sampler((1.0 + slope_x ** 2) ** -0.75, g),
                     lambda xi: np.abs(xi) ** 1.5)])
    tau, ks = 1e-4, (8, 16, 32, 48)
    ratios, flipped = [], []
    for k in ks:
        psi = _field(g, 1e-3 * np.real(wave_packet(g, 0.0, k, 1.0, normalize=True).values))
        state = SurfaceState(eta, psi, 0.0, params)
        eta_t, psi_t = zcs_rhs(state)
        u_plus, u_minus = (
            symmetrized_u(SurfaceState(_field(g, eta.values + s * tau * eta_t.values),
                                       _field(g, psi.values + s * tau * psi_t.values), 0.0, params))
            for s in (1.0, -1.0))
        du = np.fft.fft((u_plus.values - u_minus.values) / (2 * tau))
        tg = np.fft.fft(paradiff_apply(gamma, symmetrized_u(state)).values)
        band = (np.abs(xi) > k / 2) & (np.abs(xi) < 2 * k)
        ratios.append(np.linalg.norm((du - 1j * tg)[band]) / np.linalg.norm(tg[band]))
        flipped.append(np.linalg.norm((du + 1j * tg)[band]) / np.linalg.norm(tg[band]))
    assert np.polyfit(np.log(ks), np.log(ratios), 1)[0] <= -1.0
    assert ratios[-1] <= 0.05
    assert min(flipped) >= 1.5


def _ww_ramp(**kw):
    """The pinned ww_ramp configuration: the slope-0.5 ramp to t0 = 0.125."""
    return singularity_experiment_smoothing(
        Grid(256, 64.0), WaveParams(), x0=0.0, xi0=1.0, t0=0.125,
        h_grid=geometric_h_grid(0.5, 2 ** -0.25, 14),
        surface_amplitude=0.5, ramp_width=1.0, s_max=150.0, **kw)


def _ww_flat(amplitude, **kw):
    """The pinned ww_flat configuration at witness amplitude amplitude."""
    return singularity_experiment_infinite(
        Grid(512, 64.0), WaveParams(), x0=4.0, xi0=1.0, t0=0.5,
        h_grid=geometric_h_grid(0.5, 2 ** -0.5, 14), amplitude=amplitude, **kw)


def _verdict(rep):
    """Whether the prediction reads within TOL_ORDER of the witness order,
    and whether it sits more than two TOL_ORDER below every control."""
    return (abs(rep.mu("predicted") - rep.meta["mu_w"]) <= TOL_ORDER,
            rep.separation() >= 2 * TOL_ORDER)


def _with_half_step(run, cfl=1.0):
    """run() at its cfl, the experiments' default 1.0 unless run sets
    another, and run(cfl=cfl/2): the step-size refinement check of a pinned
    experiment.  No probe's decay order moves by more than 2e-2 between the
    two reports; the caller asserts its verdict on both."""
    rep, half = run(), run(cfl=cfl / 2)
    assert (rep.meta["cfl"], half.meta["cfl"]) == (cfl, cfl / 2)
    assert [p.label for p in half.probes] == [p.label for p in rep.probes]
    assert max(abs(a.mu_hat - b.mu_hat) for a, b in zip(rep.probes, half.probes)) <= 2e-2
    return rep, half


def test_smoothing_experiment_reports_step_counts():
    # the pinned ramp configuration at the default cfl 1.0 and at 0.5: 2 and
    # 4 Lawson steps of four zcs_rhs each, every probe within 2.1e-4 of the
    # cfl-0.5 run; a varies 9x on the slope-0.5 ramp, so every DN solve skips
    # the fixed point and the frozen-depth Krylov stage takes 73 (118)
    # iterations in all at EXPERIMENT_TOL.  t0 = 0.125 is too short for a
    # verdict (separation 0.048)
    rep, half = _with_half_step(_ww_ramp)
    assert (rep.meta["steps"], rep.meta["dt"]) == (2, 0.0625)
    assert (half.meta["steps"], half.meta["dt"]) == (4, 0.03125)
    assert 0 < rep.meta["dn_krylov_iters"] <= 80
    assert 0 < half.meta["dn_krylov_iters"] <= 125
    for r in (rep, half):
        assert r.meta["rhs_evals"] == 4 * r.meta["steps"]
        assert r.meta["dn_fixed_point_iters"] == 0
        assert abs(r.meta["xi_inf"] - 1.0 / math.sqrt(1.25)) < 1e-12  # G conserved
        assert 70.0 < r.meta["s_escape"] < 71.0  # 70.561, the flow time to |x| = 100
        # P_p and P_q high-pass the ramp: u(t0) keeps 7.7e-4 of its mass near
        # the edges
        assert 0.0 < r.meta["boundary_mass"] < 2e-3


def _no_integrate(*args, **kwargs):
    raise AssertionError("integrate called for a configuration without a verdict")


def _assert_flat_verdict(amplitude):
    reports = _with_half_step(partial(_ww_flat, amplitude))
    assert [(r.meta["steps"], r.meta["rhs_evals"]) for r in reports] == [(13, 52), (26, 104)]
    for rep in reports:
        assert [p.label for p in rep.probes] == [
            "predicted", "control_reflected", "control_mirror_initial",
            "control_reflected_near_x", "control_far_x"]
        assert (rep.meta["x_pred"], rep.meta["xi_pred"]) == (4.75, -1.0)
        assert all(p.xi0 == -1.0 for p in rep.probes)
        assert abs(rep.mu("predicted") - rep.meta["mu_w"]) <= TOL_ORDER
        assert rep.meta["separation"] == rep.separation() >= 2.0
        # near-flat surface (a varies 1.015x): every DN solve ends in the
        # fixed point
        assert rep.meta["dn_fixed_point_iters"] > 0 and rep.meta["dn_krylov_iters"] == 0
        assert 0.0 < rep.meta["boundary_mass"] < 1e-4  # 9.7e-7, 8.9e-7 at 0.2


def test_infinite_experiment_flat_verdict():
    # the ww_flat configuration at the default cfl 1.0 (13 Lawson steps) and
    # at 0.5 (26): four clean controls on u's branch -xi0, the prediction
    # (4.75, -1) within TOL_ORDER of the witness order 1 (0.615), and
    # singular by more than two orders against every control (2.8537 at 1.0,
    # 2.8540 at 0.5); no probe moves by more than 3.1e-4 between the two
    _assert_flat_verdict(1e-2)


def test_infinite_experiment_quasilinear_verdict():
    # the same at witness amplitude 0.2 (max |eta'| 0.27 at t0, u 12.9% off
    # the linearized flow's): the prediction reads 0.619 at cfl 1.0 and
    # 0.609 at 0.5 (1.0e-2 apart, the largest move of any probe), the
    # separation is 2.648 and 2.658, and the fixed point takes 351 and 543
    # sweeps (131 and 261 at 1e-2)
    _assert_flat_verdict(0.2)


def test_experiment_tolerance_moves_no_probe(monkeypatch):
    # the experiments' DN solves stop at EXPERIMENT_TOL = 1e-7, not dno.TOL:
    # on ww_ramp and on ww_flat at amplitude 0.2 the labels and the verdict
    # stay, no probe moves by more than 1e-6 (2.6e-9 and 7.1e-8), and the
    # solves do less work (73 against 105 Krylov iterations, 351 against 624
    # fixed-point sweeps)
    for run, work in ((_ww_ramp, "dn_krylov_iters"),
                      (partial(_ww_flat, 0.2), "dn_fixed_point_iters")):
        rep = run()
        with monkeypatch.context() as m:
            m.setattr(waterwave, "EXPERIMENT_TOL", dno.TOL)
            tight = run()
        assert (rep.meta["dn_tol"], tight.meta["dn_tol"]) == (waterwave.EXPERIMENT_TOL, dno.TOL)
        assert [p.label for p in rep.probes] == [p.label for p in tight.probes]
        assert _verdict(rep) == _verdict(tight)
        assert max(abs(a.mu_hat - b.mu_hat) for a, b in zip(rep.probes, tight.probes)) <= 1e-6
        assert 0 < rep.meta[work] < tight.meta[work]


@pytest.mark.parametrize("amplitude", [1e-2, 0.2])
def test_eta_and_psi_carry_the_symmetrizer_index_shift(amplitude):
    # u = P_p eta - i P_q omega with p of order 1/2 and q of order 0, so on
    # the singular branch mu(eta) = mu(u) + 1/2 and mu(psi) = mu(u) under the
    # (1/2,1) scaling (0.490 and 0.042 at amplitude 1e-2, 0.490 and 0.040 at
    # 0.2).  At 0.2 the run is quasilinear: u(t0) is 12.9% off the u of the
    # linearized flow
    g, params = Grid(512, 64.0), WaveParams()
    x0, xi0, t0 = 4.0, 1.0, 0.5
    hs = shared_h_grid(g, [(x0, xi0), (4.75, -xi0)], 0.5, 1.0,
                       geometric_h_grid(0.5, 2 ** -0.5, 14))
    psi0, tracks = real_scaled_witness(g, x0, xi0, 0.5, 1.0, hs, amplitude)
    state0 = right_mover_state(g, params, psi0, tracks)
    final = integrate(state0, t0, track_invariants=False).final()
    u = symmetrized_u(final)
    spec = [ProbeSpec(4.75, -xi0, 0.5, 1.0, "predicted")]
    mu = {name: probe_sweep(f, spec, hs).mu("predicted")
          for name, f in (("eta", final.eta), ("psi", final.psi), ("u", u))}
    assert abs(mu["eta"] - mu["u"] - 0.5) <= 0.1
    assert abs(mu["psi"] - mu["u"]) <= 0.1
    if amplitude == 0.2:
        u_lin = symmetrized_u(linearized_evolution(state0, t0)).values
        assert np.linalg.norm(u.values - u_lin) / np.linalg.norm(u_lin) >= 0.1


def test_smoothing_experiment_ramp_verdict():
    # the slope-0.5 ramp to t0 = 0.75 at cfl 0.5: the witness's right-movers
    # reach u's branch at (x_b, -xi_inf) = (1.064, -0.894), which reads
    # within TOL_ORDER of the witness order 1 (0.7455) and more than two
    # TOL_ORDER below every control on that branch (separation 1.7505); 38
    # steps and 1,035 Krylov iterations, about 3.2 s.  Every probe is within
    # 1.8e-3 of the cfl-0.25 run (1,612 iterations, about 4.3 s), which holds
    # the verdict too; at the experiments' default cfl 1.0 the reflected
    # control moves by 6.6e-2, outside the 2e-2 refinement bound
    run = partial(singularity_experiment_smoothing, Grid(512, 64.0), WaveParams(), x0=0.0,
                  xi0=1.0, t0=0.75, h_grid=geometric_h_grid(0.5, 2 ** -0.25, 18),
                  surface_amplitude=0.5, ramp_width=1.0, cfl=0.5, s_max=150.0)

    def timed(**kw):
        start = time.perf_counter()
        rep = run(**kw)
        assert time.perf_counter() - start < 10.0
        return rep

    for rep in _with_half_step(timed, cfl=0.5):
        assert [p.label for p in rep.probes] == [
            "predicted", "control_reflected", "control_far_x", "control_farther_x"]
        assert rep.meta["xi_pred"] == -rep.meta["xi_inf"]
        assert _verdict(rep) == (True, True)


def test_infinite_experiment_without_clean_controls_raises_before_stepping(monkeypatch):
    # the wide h = 0.5 packets on their two rails cover every control candidate
    monkeypatch.setattr(waterwave, "integrate", _no_integrate)
    with pytest.raises(ConfigError):
        singularity_experiment_infinite(Grid(256, 64.0), WaveParams(), x0=1.0, xi0=0.5,
                                        t0=1.0, h_grid=geometric_h_grid(0.5, 2 ** -0.5, 14))


def test_infinite_experiment_with_zero_frequency_raises_before_stepping(monkeypatch):
    # xi0 = 0 has no u-ray to predict on (group_shift of 0 at gamma 3/2
    # divides by zero): a ConfigError before any DN solve
    monkeypatch.setattr(waterwave, "integrate", _no_integrate)
    with pytest.raises(ConfigError, match="xi0 must be nonzero"):
        singularity_experiment_infinite(Grid(512, 64.0), WaveParams(), x0=4.0, xi0=0.0,
                                        t0=0.5, h_grid=geometric_h_grid(0.5, 2 ** -0.5, 14))


def test_smoothing_experiment_on_small_box_raises_before_stepping(monkeypatch):
    # the pinned ramp configuration on L = 8: the box is too small for a
    # dyadic partition of 3 rings, which must fail before any DN solve
    monkeypatch.setattr(waterwave, "integrate", _no_integrate)
    with pytest.raises(ConfigError, match="dyadic partition"):
        singularity_experiment_smoothing(
            Grid(256, 8.0), WaveParams(), x0=0.0, xi0=1.0, t0=0.125,
            h_grid=geometric_h_grid(0.5, 2 ** -0.25, 14),
            surface_amplitude=0.5, ramp_width=1.0, s_max=150.0)


def test_smoothing_experiment_with_trapped_flow_raises_before_stepping(monkeypatch):
    # the pinned ramp configuration with s_max = 1: the co-geodesic from x0 = 0
    # does not reach the escape radius, so there is no xi_inf to predict with
    monkeypatch.setattr(waterwave, "integrate", _no_integrate)
    with pytest.raises(ConfigError, match="after s_max = 1.0"):
        singularity_experiment_smoothing(
            Grid(256, 64.0), WaveParams(nz=64), x0=0.0, xi0=1.0, t0=0.125,
            h_grid=geometric_h_grid(0.5, 2 ** -0.25, 14),
            surface_amplitude=0.5, ramp_width=1.0, s_max=1.0)


def test_smoothing_experiment_with_zero_frequency_raises_before_stepping(monkeypatch):
    # xi0 = 0: G = 0, the ray does not move and never escapes; this is a
    # ConfigError, and G = 0 raises no RuntimeWarning on the way
    monkeypatch.setattr(waterwave, "integrate", _no_integrate)
    with pytest.raises(ConfigError, match="escapes at s = inf"):
        singularity_experiment_smoothing(
            Grid(256, 64.0), WaveParams(nz=64), x0=0.0, xi0=0.0, t0=0.125,
            h_grid=geometric_h_grid(0.5, 2 ** -0.25, 14),
            surface_amplitude=0.5, ramp_width=1.0, s_max=150.0)


def test_experiments_with_non_unit_surface_tension_raise_before_stepping(monkeypatch):
    # the symmetrizer symbols hold for kappa = 1 only: the ww_flat and
    # ww_ramp configurations at kappa = 2 fail before the first DN solve,
    # not after a whole evolution
    monkeypatch.setattr(waterwave, "integrate", _no_integrate)
    with pytest.raises(ConfigError, match="unit surface tension"):
        singularity_experiment_infinite(Grid(512, 64.0), WaveParams(kappa=2.0), x0=4.0, xi0=1.0,
                                        t0=0.5, h_grid=geometric_h_grid(0.5, 2 ** -0.5, 14))
    with pytest.raises(ConfigError, match="unit surface tension"):
        singularity_experiment_smoothing(
            Grid(256, 64.0), WaveParams(kappa=2.0), x0=0.0, xi0=1.0, t0=0.125,
            h_grid=geometric_h_grid(0.5, 2 ** -0.25, 14),
            surface_amplitude=0.5, ramp_width=1.0, s_max=150.0)
