"""1D gravity-capillary water waves in Zakharov-Craig-Sulem variables.

State is the surface pair (eta, psi) with surface tension kappa:

    eta_t = G(eta) psi,
    psi_t = -g eta + kappa H(eta) - |psi_x|^2/2 + (eta_x psi_x + G(eta) psi)^2
            / (2 (1 + eta_x^2)),

stepped by integrating-factor (Lawson) RK4: the flat linear flow, whose
capillary dispersion |xi|^{3/2} makes explicit stepping stiff, is integrated
exactly per mode and RK4 steps only the remainder, under the step rule of
cfl_dt; an exp(-MOLLIFY dt |xi|^{3/2}) mollifier follows each step.
The symmetrizer symbols p and q, the good unknown omega = psi - T_B eta,
and the symmetrized unknown u = P_p eta - i P_q omega feed the wavefront
experiments: transport of (1/2,1)-singularities at spatial infinity, and the
microlocal smoothing experiment whose prediction uses the asymptotic
direction of the initial surface's co-geodesic flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dno import (FluidDomain, _StripWorkspace, _node_sampler, _slopes, _x_derivative,
                  b_v_fields, dn_elliptic)
from .errors import BlowUpError, ConfigError
from .flows import SurfaceMetric, asymptotic_direction
from .grid import Field
from .model_eq import (PacketTrack, group_shift, pick_controls, scaled_singularity_witness,
                       track_clean)
from .paradiff import dyadic_paradiff_apply, paradiff_apply
from .quantize import ProbeSpec, make_dyadic_partition, probe_sweep, shared_h_grid, valid_h_grid
from .symbols import Symbol

__all__ = [
    "WaveParams",
    "SurfaceState",
    "mean_curvature",
    "zcs_rhs",
    "integrate",
    "cfl_dt",
    "WaveHistory",
    "linearized_evolution",
    "mass",
    "energy",
    "symmetrizer_symbols",
    "good_unknown",
    "symmetrized_u",
    "real_scaled_witness",
    "right_mover_state",
    "ramp_surface",
    "ramp_metric",
    "singularity_experiment_infinite",
    "singularity_experiment_smoothing",
]


# Mollifier rate of integrate: each step damps mode xi by exp(-MOLLIFY dt |xi|^{3/2}).
MOLLIFY = 1e-6
# Stopping tolerance of the experiments' strip DN solves (dno.TOL elsewhere):
# it moves no pinned probe's decay order by more than 2e-7 from a dno.TOL
# run, five orders inside the 2e-2 step-refinement bound (ROADMAP item 23).
EXPERIMENT_TOL = 1e-7


@dataclass(frozen=True)
class WaveParams:
    gravity: float = 1.0
    depth: float = 1.0
    kappa: float = 1.0  # surface tension coefficient; the experiments fix 1
    nz: int = 64


@dataclass
class SurfaceState:
    eta: Field
    psi: Field
    t: float = 0.0
    params: WaveParams = dc_field(default_factory=WaveParams)

    def __post_init__(self):
        if not self.eta.grid.compatible(self.psi.grid):
            raise ConfigError("eta and psi live on different grids")
        for name, f in (("eta", self.eta), ("psi", self.psi)):
            if not f.is_real(1e-12):
                raise ConfigError(f"{name} must be real")
        margin = self.params.depth + float(np.min(np.real(self.eta.values)))
        if margin <= 0:
            raise ConfigError("depth invariant violated: b + min eta <= 0")

    @property
    def grid(self):
        return self.eta.grid

    def domain(self):
        return FluidDomain(self.grid, self.eta, self.params.depth, self.params.nz)


def mean_curvature(eta):
    """H(eta) = d_x( eta_x / sqrt(1 + eta_x^2) ), derivatives spectral."""
    ex = np.real(_x_derivative(eta).values)
    return _x_derivative(Field(eta.grid, ex / np.sqrt(1.0 + ex ** 2)))


def zcs_rhs(state, workspace=None):
    """Right-hand side (eta_t, psi_t) of the ZCS system."""
    grid = state.grid
    p = state.params
    G = dn_elliptic(state.domain(), state.psi, workspace=workspace)
    Gv = np.real(G.values)
    ex = np.real(_x_derivative(state.eta).values)
    px = np.real(_x_derivative(state.psi).values)
    Hcurv = np.real(mean_curvature(state.eta).values)
    eta_t = Gv
    psi_t = (
        -p.gravity * np.real(state.eta.values)
        + p.kappa * Hcurv
        - 0.5 * px ** 2
        + 0.5 * (ex * px + Gv) ** 2 / (1.0 + ex ** 2)
    )
    return Field(grid, eta_t.astype(np.complex128)), Field(grid, psi_t.astype(np.complex128))


@dataclass
class WaveHistory:
    times: list  # the initial and the final time
    states: list  # the states at those times
    mass: list
    energy: list
    dt: float
    steps: int  # time steps taken
    rhs_evals: int  # zcs_rhs evaluations (one strip DN solve each)
    dn_fixed_point_iters: int  # fixed-point sweeps of those DN solves
    dn_krylov_iters: int  # GMRES iterations of those DN solves

    def final(self):
        return self.states[-1]


def cfl_dt(grid, params, eta, c=0.5):
    """Step bound of integrate: c / max(xi_N, sigma sqrt(kappa) xi_N^{3/2}).

    With the flat linear flow integrated exactly, xi_N bounds what is left of
    the advection; sigma = 1 - (1 + max eta_x^2)^{-3/4} caps the capillary
    stiffness a sloped surface leaves in the remainder (0 on a flat surface).
    """
    xi_n = grid.nyquist
    ex = np.real(_x_derivative(eta).values)
    sigma = 1.0 - (1.0 + float(np.max(ex ** 2))) ** -0.75
    return c / max(xi_n, sigma * math.sqrt(params.kappa) * xi_n ** 1.5)


def mass(state):
    return float(np.sum(np.real(state.eta.values)) * state.grid.spacing)


def energy(state, workspace=None):
    """E = (1/2) int psi G psi + (g/2) int eta^2 + kappa int (sqrt(1+eta_x^2) - 1)."""
    grid = state.grid
    p = state.params
    G = np.real(dn_elliptic(state.domain(), state.psi, workspace=workspace).values)
    psi = np.real(state.psi.values)
    eta = np.real(state.eta.values)
    ex = np.real(_x_derivative(state.eta).values)
    dens = (0.5 * psi * G + 0.5 * p.gravity * eta ** 2
            + p.kappa * (np.sqrt(1.0 + ex ** 2) - 1.0))
    return float(np.sum(dens) * grid.spacing)


def _flat_dispersion(grid, p):
    """g + kappa xi^2 in FFT order, with the Nyquist entry g: mean_curvature
    takes two odd spectral derivatives, so H(eta) has no Nyquist mode."""
    disp = p.gravity + p.kappa * grid.axis_frequencies() ** 2
    disp[grid.n // 2] = p.gravity
    return disp


def _real_ifft(vals_hat):
    return np.real(np.fft.ifft(vals_hat)).astype(np.complex128)


def _flat_flow(g0, disp, tau):
    """Exact per-mode flow of eta_t = g0 psi, psi_t = -disp eta over time tau.

    Returns the map (eta_hat, psi_hat) -> (eta_hat, psi_hat) on FFT-ordered
    spectra; a mode with g0 disp = 0 moves as psi_hat -= disp eta_hat tau.
    """
    om = np.sqrt(np.maximum(disp * g0, 0.0))
    c = np.cos(om * tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_over = np.where(om > 0, np.sin(om * tau) / np.where(om > 0, om, 1.0), tau)
    a, b = g0 * s_over, disp * s_over

    def flow(eh, ph):
        return eh * c + a * ph, ph * c - b * eh

    return flow


def integrate(state0, T, cfl=0.5, track_invariants=True, workspace=None):
    """Integrating-factor (Lawson) RK4 on zcs_rhs with a post-step mollifier.

    zcs_rhs = L u + N(u): L is the flat linear flow of the solver's own
    discrete operators, eta_t = g0 psi with g0 = dno.discrete_flat_symbol,
    psi_t = -(g + kappa xi^2) eta with the Nyquist entry g (H(eta) has its
    Nyquist mode zeroed), and is integrated exactly per mode; classical RK4
    steps the remainder N(u) = zcs_rhs(u) - L u in the frame that L moves
    (Hou, Lowengrub & Shelley 1994; Kassam & Trefethen 2005).  Each step costs
    four zcs_rhs evaluations.  The step is T over the fewest steps no longer
    than cfl_dt(grid, params, eta0, cfl).  After every step the
    exp(-MOLLIFY dt |xi|^{3/2}) mollifier is applied, so the total damping
    exp(-MOLLIFY T |xi|^{3/2}) does not depend on the step count, and
    realness is re-imposed; a non-finite state, or one above 1e6 in max
    norm, raises BlowUpError.  Returns a WaveHistory with the initial and
    final states and the fixed-point and Krylov iteration totals of the
    zcs_rhs DN solves.  The DN solves run on workspace, a dno strip
    workspace for the state's geometry (a new one when None), which g0 is
    also read from; it leaves there the history of its last solves, which
    later solves on it start from.
    """
    grid = state0.grid
    p = state0.params
    dt = cfl_dt(grid, p, state0.eta, cfl)
    nsteps = max(1, int(math.ceil(abs(T) / dt - 1e-12)))
    dt = T / nsteps

    ws = workspace if workspace is not None else _StripWorkspace(state0.domain())
    g0 = ws.flat_symbol()
    disp = _flat_dispersion(grid, p)
    half = _flat_flow(g0, disp, 0.5 * dt)
    absxi = np.abs(grid.axis_frequencies())
    moll = np.exp(-MOLLIFY * abs(dt) * absxi ** 1.5)
    rhs_evals = fp_iters = kr_iters = 0

    def nonlinear(eh, ph):
        nonlocal rhs_evals, fp_iters, kr_iters
        rhs_evals += 1
        st = SurfaceState(Field(grid, _real_ifft(eh)), Field(grid, _real_ifft(ph)), 0.0, p)
        de, dp = zcs_rhs(st, workspace=ws)
        fp_iters += ws.stats.fixed_point_iters
        kr_iters += ws.stats.krylov_iters
        return np.fft.fft(de.values) - g0 * ph, np.fft.fft(dp.values) + disp * eh

    eta_v = np.real(state0.eta.values).astype(np.complex128)
    psi_v = np.real(state0.psi.values).astype(np.complex128)

    def snapshot(t):
        st = SurfaceState(Field(grid, eta_v.copy()), Field(grid, psi_v.copy()), t, p)
        m = mass(st) if track_invariants else math.nan
        e = energy(st, workspace=ws) if track_invariants else math.nan
        return st, m, e

    st0, m0, e0 = snapshot(state0.t)
    eh, ph = np.fft.fft(eta_v), np.fft.fft(psi_v)
    for k in range(1, nsteps + 1):
        # u_half = E(dt/2) u;  E(dt) = E(dt/2)^2
        ae, ap = nonlinear(eh, ph)
        ue, up = half(eh, ph)
        te, tp = half(ae, ap)
        be, bp = nonlinear(ue + 0.5 * dt * te, up + 0.5 * dt * tp)
        ce, cp = nonlinear(ue + 0.5 * dt * be, up + 0.5 * dt * bp)
        de, dp = nonlinear(*half(ue + dt * ce, up + dt * cp))
        # u_new = E(dt) u + dt/6 (E(dt) a + 2 E(dt/2) (b + c) + d)
        ve, vp = half(eh + dt / 6.0 * ae, ph + dt / 6.0 * ap)
        ve, vp = half(ve + dt / 3.0 * (be + ce), vp + dt / 3.0 * (bp + cp))
        eh, ph = moll * (ve + dt / 6.0 * de), moll * (vp + dt / 6.0 * dp)
        eta_v, psi_v = _real_ifft(eh), _real_ifft(ph)
        if not (np.all(np.isfinite(eta_v)) and np.all(np.isfinite(psi_v))):
            raise BlowUpError("non-finite state", t=state0.t + k * dt)
        if max(np.max(np.abs(eta_v)), np.max(np.abs(psi_v))) > 1e6:
            raise BlowUpError("state exceeded blow-up limit", t=state0.t + k * dt)
        eh, ph = np.fft.fft(eta_v), np.fft.fft(psi_v)
    t_end = state0.t + nsteps * dt
    st1, m1, e1 = snapshot(t_end)
    return WaveHistory([state0.t, t_end], [st0, st1], [m0, m1], [e0, e1], dt, nsteps,
                       rhs_evals, fp_iters, kr_iters)


def linearized_evolution(state0, T):
    """Exact per-mode solution of the linearization about the rest state.

    eta_tt = -(g + kappa xi^2) g0(xi) eta with g0 = |xi| tanh(b |xi|) the flat
    DN symbol and the Nyquist entry of the dispersion g, as in integrate's
    linear flow (_flat_flow), which takes the strip scheme's own g0 instead.
    """
    grid = state0.grid
    p = state0.params
    absxi = np.abs(grid.axis_frequencies())
    flow = _flat_flow(absxi * np.tanh(p.depth * absxi), _flat_dispersion(grid, p), T)
    eh_T, ph_T = flow(np.fft.fft(np.real(state0.eta.values)), np.fft.fft(np.real(state0.psi.values)))
    return SurfaceState(Field(grid, _real_ifft(eh_T)), Field(grid, _real_ifft(ph_T)),
                        state0.t + T, p)


# -- symmetrizer symbols ---------------------------------------------------------


def _require_unit_tension(params):
    """The symmetrizer symbols are derived for kappa = 1: raise ConfigError
    for any other surface tension."""
    if params.kappa != 1.0:
        raise ConfigError("symmetrizer symbols assume unit surface tension")


def symmetrizer_symbols(eta):
    """Symbols p^(1/2) = (1+eta'^2)^{-1/2} |xi|^{1/2} and
    q^(0) = (1+eta'^2)^{1/4} of the symmetrizer at kappa = 1, the two
    symmetrized_u applies.

    One-dimensional closed forms on top of lambda^(1) = |xi|, each one term
    of a Symbol, which the dyadic paradifferential applications exploit.
    """
    ex, _ = _slopes(eta)
    m2 = 1.0 + ex ** 2
    return {
        "p12": Symbol([(_node_sampler(m2 ** -0.5, eta.grid), lambda xi: np.abs(xi) ** 0.5)]),
        "q0": Symbol([(_node_sampler(m2 ** 0.25, eta.grid), lambda xi: np.ones_like(xi))]),
    }


def good_unknown(state, workspace=None):
    """omega = psi - T_B eta, the good unknown of Alinhac; B takes its DN
    solve on workspace (see dno.b_v_fields)."""
    B, _ = b_v_fields(state.domain(), state.psi, workspace=workspace)
    TBeta = paradiff_apply(Field(state.grid, np.real(B.values).astype(np.complex128)),
                           state.eta)
    return Field(state.grid, state.psi.values - TBeta.values)


def symmetrized_u(state, part=None, workspace=None):
    """u = P_p eta - i P_q omega (dyadic paradifferential), the unknown of
    Alazard, Burq & Zuily that solves d_t u = i T_gamma u + lower order, with
    gamma = (1+eta'^2)^{-3/4} |xi|^{3/2}.  The DN solve of omega runs on
    workspace, as the experiments pass integrate's, started from the span of
    its last solves.  A surface tension other than 1 raises ConfigError
    before the DN solve."""
    _require_unit_tension(state.params)
    if part is None:
        part = make_dyadic_partition(state.grid)
    syms = symmetrizer_symbols(state.eta)
    omega = good_unknown(state, workspace=workspace)
    Pp_eta = dyadic_paradiff_apply(syms["p12"], state.eta, part)
    Pq_om = dyadic_paradiff_apply(syms["q0"], omega, part)
    return Field(state.grid, Pp_eta.values - 1j * Pq_om.values)


# -- singularity experiments -------------------------------------------------------


def real_scaled_witness(grid, x0, xi0, delta, rho, h_list, amplitude):
    """Real multi-scale packet family for the surface potential trace.

    2 Re of model_eq.scaled_singularity_witness: packet j sits at
    (h^-delta x0, h^-rho xi0) with weight amplitude h^1, and realness
    doubles it with the conjugate family at -xi.  Returns (field, tracks).
    """
    field, tracks = scaled_singularity_witness(grid, x0, xi0, delta, rho, h_list, mu=1.0,
                                               amplitude=amplitude)
    return Field(grid, 2.0 * np.real(field.values).astype(np.complex128)), tracks


def _u_ray(x, xi, t):
    # where u carries (x, xi) after time t: u_t = i T_gamma u runs the model
    # flow u_t + i|D|^{3/2} u = 0 backwards, so u's right-movers sit on xi < 0
    return x - group_shift(xi, t, 1.5), xi


def right_mover_state(grid, params, psi0, tracks):
    """Pair the psi witness with the eta profile of a right-moving linear wave.

    eta-hat = i sign(xi) G0 psi-hat / |omega| picks at every xi the branch
    omega = sign(xi) |omega|, whose group velocity is positive, so both
    halves (+-xi) of a real witness move right instead of splitting.  The
    multiplier is odd, so eta is real; the Nyquist entry, which has no sign,
    is zeroed.  tracks is not read.
    """
    xi = grid.axis_frequencies()
    g0 = np.abs(xi) * np.tanh(params.depth * np.abs(xi))
    om = np.sqrt((params.gravity + params.kappa * xi ** 2) * g0)
    ratio = np.where(om > 0, g0 / np.where(om > 0, om, 1.0), 0.0)
    odd = 1j * np.sign(xi) * ratio
    odd[grid.n // 2] = 0.0
    eta_hat = odd * np.fft.fft(np.real(psi0.values))
    eta0 = Field(grid, np.real(np.fft.ifft(eta_hat)).astype(np.complex128))
    return SurfaceState(eta0, psi0, 0.0, params)


def _evolve_and_probe(state0, t0, cfl, specs, hs_use, meta):
    """Evolve state0 to t0 on one strip workspace and probe u(t0) at specs.

    integrate steps at the experiment's cfl (1.0 by default in both
    experiments; the pinned verdicts are checked against cfl/2).  The
    workspace stops every DN solve, integrate's and symmetrized_u's, at
    EXPERIMENT_TOL, not dno.TOL.  A surface tension other than 1, or a box
    too small for the dyadic partition, raises ConfigError before any DN
    solve.  probe_sweep finishes the report's meta: meta plus the step taken
    (cfl and dt), the DN solves' tolerance (dn_tol), the run's counts and
    the water's parameters.
    """
    grid, params = state0.grid, state0.params
    _require_unit_tension(params)
    part = make_dyadic_partition(grid)
    ws = _StripWorkspace(state0.domain(), tol=EXPERIMENT_TOL)
    hist = integrate(state0, t0, cfl=cfl, track_invariants=False, workspace=ws)
    u_t = symmetrized_u(hist.final(), part=part, workspace=ws)
    return probe_sweep(u_t, specs, hs_use, meta={
        **meta,
        "cfl": cfl, "dt": hist.dt, "dn_tol": ws.tol,
        "steps": hist.steps, "rhs_evals": hist.rhs_evals,
        "dn_fixed_point_iters": hist.dn_fixed_point_iters,
        "dn_krylov_iters": hist.dn_krylov_iters,
        "params": {"gravity": params.gravity, "depth": params.depth, "nz": params.nz},
    })


def singularity_experiment_infinite(
    grid,
    params,
    x0,
    xi0,
    t0,
    h_grid,
    amplitude=1e-2,
    cfl=1.0,
):
    """Embed a (1/2,1)-singularity witness in psi, evolve, probe u(t0).

    The witness, of weights amplitude h^1 on at least quantize.MIN_H shared
    h values, is paired with the eta of a right-moving linear wave, which u
    carries on -|xi0| to _u_ray(x0, -|xi0|, t0); the verdict uses the first 4
    controls on that branch clean against the _u_ray images of the packets at
    +-xi.  It steps at cfl 1.0 by default: Lawson RK4 integrates the flat
    flow exactly, and halving the step moves no pinned probe's decay order by
    more than 2e-2.  Its DN solves stop at EXPERIMENT_TOL (dno.TOL is the
    default elsewhere).  xi0 = 0 raises ConfigError before any DN solve.
    """
    if xi0 == 0.0:
        raise ConfigError("xi0 must be nonzero")
    delta, rho = 0.5, 1.0
    x_pred, xi_pred = _u_ray(x0, -abs(xi0), t0)
    hs_use = shared_h_grid(grid, [(x0, xi0), (x_pred, xi_pred)], delta, rho, h_grid)
    psi0, tracks = real_scaled_witness(grid, x0, xi0, delta, rho, hs_use, amplitude)

    # at_time(-t0, 1.5) is _u_ray(x, xi, t0) with the packet's spreading
    moved = [PacketTrack(tr.x, s * tr.xi, tr.width, tr.weight).at_time(-t0, 1.5)
             for tr in tracks for s in (1.0, -1.0)]
    candidates = [
        (-x_pred, xi_pred, "control_reflected"),
        (-x0, xi_pred, "control_mirror_initial"),
        (-0.4 * x_pred, xi_pred, "control_reflected_near_x"),
        (2.5 * x_pred, xi_pred, "control_far_x"),
    ]
    controls = pick_controls(
        grid, (x_pred, xi_pred), candidates, delta, rho, hs_use,
        clean=lambda xc, xic, hs: track_clean(xc, xic, delta, rho, moved, hs),
        want=4,
    )

    return _evolve_and_probe(
        right_mover_state(grid, params, psi0, tracks), t0, cfl,
        [ProbeSpec(x_pred, xi_pred, delta, rho, "predicted")] + controls, hs_use,
        {"experiment": "ww_infinite", "x0": x0, "xi0": xi0, "t0": t0, "x_pred": x_pred,
         "xi_pred": xi_pred, "amplitude": amplitude, "mu_w": 1.0},
    )


def ramp_surface(grid, amplitude, ramp_width, center=0.0):
    """The ramp_metric surface sampled on the grid, tapered at 0.22 L so it
    decays at the box edge."""
    eta = ramp_metric(amplitude, ramp_width, center, 0.22 * grid.length).eta
    return Field(grid, eta(grid.axis_points()).astype(np.complex128))


def ramp_metric(amplitude, ramp_width, center=0.0, extent=50.0):
    """SurfaceMetric of the smoothed step A tanh((x - c)/w), tapered by
    exp(-((x - c)/extent)^8), with analytic eta'."""

    def eta(x):
        return amplitude * np.tanh((x - center) / ramp_width) * np.exp(
            -((x - center) / extent) ** 8
        )

    def grad(x):
        u = (x - center) / ramp_width
        v = (x - center) / extent
        tap = np.exp(-(v ** 8))
        e = np.exp(-2.0 * np.abs(u))
        sech2 = 4.0 * e / (1.0 + e) ** 2  # 1/cosh(u)^2 without overflow
        core = amplitude / ramp_width * sech2 * tap
        edge = amplitude * np.tanh(u) * tap * (-8.0 * v ** 7 / extent)
        return core + edge

    return SurfaceMetric(eta, grad)


def singularity_experiment_smoothing(
    grid,
    params,
    x0,
    xi0,
    t0,
    h_grid,
    surface_amplitude,
    ramp_width,
    amplitude=1e-2,
    cfl=1.0,
    s_max=2000.0,
):
    """(0,1)-singularity on a rampy initial surface: probe where u carries it.

    xi_inf comes from the co-geodesic flow of the initial surface alone; the
    real witness puts right-movers on u's branch -|xi_inf|, and the prediction
    _u_ray(0, -|xi_inf|, t0) = ((3/2) t0 |xi_inf|^{1/2}, -|xi_inf|) under the
    (1/2,1) scaling is probed on at least quantize.MIN_H shared h values
    against controls on the same branch at -1, 2 and 3 times its x.  The
    witness weights are amplitude h^1.  It steps at cfl 1.0 by default, as
    singularity_experiment_infinite does, but a long run over a steep ramp
    can need a smaller step: to t0 = 0.75 on the slope-0.5 ramp, cfl 1.0
    moves a control's decay order by 6.6e-2 from the cfl-0.25 run, and cfl
    0.5 by 1.8e-3, so check a verdict against cfl/2.  Its DN solves stop at
    EXPERIMENT_TOL, as singularity_experiment_infinite's do.  A ray that
    escapes after flow time s_max (xi0 = 0 never does) raises ConfigError
    before any DN solve.
    """
    delta, rho = 0.0, 1.0
    eta0 = ramp_surface(grid, surface_amplitude, ramp_width, center=x0)
    metric = ramp_metric(surface_amplitude, ramp_width, center=x0,
                         extent=0.22 * grid.length)
    xi_inf, s_escape = asymptotic_direction(metric, np.array([x0, xi0]))
    if s_escape > s_max:
        raise ConfigError(f"initial co-geodesic escapes at s = {s_escape:.6g}, after"
                          f" s_max = {s_max}; no asymptotic direction")

    dp, rp = 0.5, 1.0  # (1/2, 1) probing of the evolved field
    x_pred, xi_pred = _u_ray(0.0, -abs(xi_inf), t0)
    hs_use = shared_h_grid(grid, [(x_pred, xi_pred)], dp, rp, h_grid)
    candidates = [
        (-x_pred, xi_pred, "control_reflected"),
        (2.0 * x_pred, xi_pred, "control_far_x"),
        (3.0 * x_pred, xi_pred, "control_farther_x"),
    ]
    controls = pick_controls(grid, (x_pred, xi_pred), candidates, dp, rp, hs_use,
                             want=len(candidates))

    hs_wit = valid_h_grid(grid, x0, xi0, delta, rho, h_grid)
    psi0, _ = real_scaled_witness(grid, x0, xi0, delta, rho, hs_wit, amplitude)
    return _evolve_and_probe(
        SurfaceState(eta0, psi0, 0.0, params), t0, cfl,
        [ProbeSpec(x_pred, xi_pred, dp, rp, "predicted")] + controls, hs_use,
        {"experiment": "ww_smoothing", "x0": x0, "xi0": xi0, "t0": t0,
         "xi_inf": xi_inf, "x_pred": x_pred, "xi_pred": xi_pred,
         "surface_amplitude": surface_amplitude, "ramp_width": ramp_width,
         "amplitude": amplitude, "mu_w": 1.0, "s_escape": s_escape},
    )
