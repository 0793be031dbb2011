"""1D gravity-capillary water waves in Zakharov-Craig-Sulem variables.

State is the surface pair (eta, psi) with surface tension kappa:

    eta_t = G(eta) psi,
    psi_t = -g eta + kappa H(eta) - |psi_x|^2/2 + (eta_x psi_x + G(eta) psi)^2
            / (2 (1 + eta_x^2)),

stepped by integrating-factor (Lawson) RK4: the flat linear flow, whose
capillary dispersion |xi|^{3/2} makes explicit stepping stiff, is integrated
exactly per mode and RK4 steps only the remainder, under the step rule of
cfl_dt; an optional exp(-eps dt |xi|^{3/2}) mollifier follows each step.
The symmetrizer symbols (l, gamma, p, q, zeta), the good unknown
omega = psi - T_B eta, and the symmetrized variable
u = Lam^mu P_p eta - i Lam^mu P_q omega feed the wavefront experiments:
transport of (1/2,1)-singularities at spatial infinity, and the microlocal
smoothing experiment whose prediction uses the asymptotic direction of the
initial surface's co-geodesic flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dno import (FluidDomain, _StripWorkspace, _grad_fields, _node_sampler, b_v_fields,
                  discrete_flat_symbol, dn_elliptic)
from .errors import BlowUpError, ConfigError
from .flows import SurfaceMetric, asymptotic_direction
from .grid import Field, Grid, l2_norm, multiplier_apply, wave_packet
from .model_eq import PacketTrack, _run_probes, _track_clean, group_shift
from .paradiff import default_admissible_pair, dyadic_paradiff_apply, paradiff_apply
from .quantize import DyadicPartition, make_dyadic_partition, valid_h_grid, WavefrontReport
from .symbols import Symbol, smoothstep

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
    "lambda_mu_symbol",
    "good_unknown",
    "symmetrized_u",
    "real_scaled_witness",
    "singularity_experiment_infinite",
    "singularity_experiment_smoothing",
]


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
    ex = np.real(_grad_fields(eta)[0].values)
    return _grad_fields(Field(eta.grid, ex / np.sqrt(1.0 + ex ** 2)))[0]


def zcs_rhs(state, workspace=None):
    """Right-hand side (eta_t, psi_t) of the ZCS system."""
    grid = state.grid
    p = state.params
    G = dn_elliptic(state.domain(), state.psi, workspace=workspace)
    Gv = np.real(G.values)
    ex = np.real(_grad_fields(state.eta)[0].values)
    px = np.real(_grad_fields(state.psi)[0].values)
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
    times: list
    states: list
    mass: list
    energy: list
    dt: float
    steps: int  # time steps taken
    rhs_evals: int  # zcs_rhs evaluations (one strip DN solve each)

    def final(self):
        return self.states[-1]


def cfl_dt(grid, params, eta, c=0.5):
    """Default step of integrate: c / max(xi_N, sigma sqrt(kappa) xi_N^{3/2}).

    With the flat linear flow integrated exactly, xi_N bounds what is left of
    the advection; sigma = 1 - (1 + max eta_x^2)^{-3/4} caps the capillary
    stiffness a sloped surface leaves in the remainder (0 on a flat surface).
    """
    xi_n = grid.nyquist
    ex = np.real(_grad_fields(eta)[0].values)
    sigma = 1.0 - (1.0 + float(np.max(ex ** 2))) ** -0.75
    return c / max(xi_n, sigma * math.sqrt(params.kappa) * xi_n ** 1.5)


def mass(state):
    return float(np.sum(np.real(state.eta.values)) * state.grid.spacing)


def energy(state, workspace=None):
    """E = (1/2) int psi G psi + (g/2) int eta^2 + int (sqrt(1+eta_x^2) - 1)."""
    grid = state.grid
    p = state.params
    G = np.real(dn_elliptic(state.domain(), state.psi, workspace=workspace).values)
    psi = np.real(state.psi.values)
    eta = np.real(state.eta.values)
    ex = np.real(_grad_fields(state.eta)[0].values)
    dens = 0.5 * psi * G + 0.5 * p.gravity * eta ** 2 + (np.sqrt(1.0 + ex ** 2) - 1.0)
    return float(np.sum(dens) * grid.spacing)


def _flat_dispersion(grid, p):
    """g + kappa xi^2 in FFT order, with the Nyquist entry g: mean_curvature
    takes two odd spectral derivatives, so H(eta) has no Nyquist mode."""
    disp = p.gravity + p.kappa * grid.frequencies() ** 2
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


def integrate(state0, T, dt=None, eps_mollify=1e-6, store_every=None, cfl=0.5,
              blowup_limit=1e6, track_invariants=True):
    """Integrating-factor (Lawson) RK4 on zcs_rhs with a post-step mollifier.

    zcs_rhs = L u + N(u): L is the flat linear flow of the solver's own
    discrete operators, eta_t = g0 psi with g0 = dno.discrete_flat_symbol,
    psi_t = -(g + kappa xi^2) eta with the Nyquist entry g (H(eta) has its
    Nyquist mode zeroed), and is integrated exactly per mode; classical RK4
    steps the remainder N(u) = zcs_rhs(u) - L u in the frame that L moves
    (Hou, Lowengrub & Shelley 1994; Kassam & Trefethen 2005).  Each step costs
    four zcs_rhs evaluations.  dt defaults to cfl_dt(grid, params, eta0, cfl).
    After every step the exp(-eps dt |xi|^{3/2}) mollifier is applied, so the
    total damping exp(-eps T |xi|^{3/2}) does not depend on the step count,
    and realness is re-imposed.  Returns a WaveHistory with sampled states.
    """
    grid = state0.grid
    p = state0.params
    if dt is None:
        dt = cfl_dt(grid, p, state0.eta, cfl)
    nsteps = max(1, int(math.ceil(abs(T) / dt - 1e-12)))
    dt = T / nsteps
    if store_every is None:
        store_every = nsteps

    ws = _StripWorkspace(state0.domain())
    g0 = discrete_flat_symbol(grid, p.depth, p.nz)
    disp = _flat_dispersion(grid, p)
    half = _flat_flow(g0, disp, 0.5 * dt)
    absxi = np.abs(grid.frequencies())
    moll = np.exp(-eps_mollify * abs(dt) * absxi ** 1.5) if eps_mollify > 0 else None
    rhs_evals = 0

    def nonlinear(eh, ph):
        nonlocal rhs_evals
        rhs_evals += 1
        st = SurfaceState(Field(grid, _real_ifft(eh)), Field(grid, _real_ifft(ph)), 0.0, p)
        de, dp = zcs_rhs(st, workspace=ws)
        return np.fft.fft(de.values) - g0 * ph, np.fft.fft(dp.values) + disp * eh

    eta_v = np.real(state0.eta.values).astype(np.complex128)
    psi_v = np.real(state0.psi.values).astype(np.complex128)

    def snapshot(t):
        st = SurfaceState(Field(grid, eta_v.copy()), Field(grid, psi_v.copy()), t, p)
        m = mass(st) if track_invariants else math.nan
        e = energy(st, workspace=ws) if track_invariants else math.nan
        return st, m, e

    st, m0, e0 = snapshot(state0.t)
    hist = WaveHistory([state0.t], [st], [m0], [e0], dt, nsteps, 0)
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
        eh, ph = ve + dt / 6.0 * de, vp + dt / 6.0 * dp
        if moll is not None:
            eh, ph = moll * eh, moll * ph
        eta_v, psi_v = _real_ifft(eh), _real_ifft(ph)
        if not (np.all(np.isfinite(eta_v)) and np.all(np.isfinite(psi_v))):
            raise BlowUpError("non-finite state", t=state0.t + k * dt)
        if max(np.max(np.abs(eta_v)), np.max(np.abs(psi_v))) > blowup_limit:
            raise BlowUpError("state exceeded blow-up limit", t=state0.t + k * dt)
        eh, ph = np.fft.fft(eta_v), np.fft.fft(psi_v)
        if k % store_every == 0 or k == nsteps:
            st, m, e = snapshot(state0.t + k * dt)
            hist.times.append(state0.t + k * dt)
            hist.states.append(st)
            hist.mass.append(m)
            hist.energy.append(e)
    hist.rhs_evals = rhs_evals
    return hist


def linearized_evolution(state0, T, discrete_symbol=None):
    """Exact per-mode solution of the linearization about the rest state.

    eta_tt = -(g + kappa xi^2) g0(xi) eta with g0 the flat DN symbol and the
    Nyquist entry of the dispersion g, as in integrate's linear flow;
    `discrete_symbol` (from dno.discrete_flat_symbol) makes the oracle match
    the solver's own discrete operator, isolating the O(amplitude^2)
    nonlinear deviation.
    """
    grid = state0.grid
    p = state0.params
    if discrete_symbol is None:
        absxi = np.abs(grid.frequencies())
        g0 = absxi * np.tanh(p.depth * absxi)
    else:
        g0 = discrete_symbol
    flow = _flat_flow(g0, _flat_dispersion(grid, p), T)
    eh_T, ph_T = flow(np.fft.fft(np.real(state0.eta.values)), np.fft.fft(np.real(state0.psi.values)))
    return SurfaceState(Field(grid, _real_ifft(eh_T)), Field(grid, _real_ifft(ph_T)),
                        state0.t + T, p)


# -- symmetrizer symbols ---------------------------------------------------------


def _m2_profile(eta):
    ex = np.real(_grad_fields(eta)[0].values)
    exx = np.real(multiplier_apply(eta, lambda xi: -(xi ** 2)).values)
    return ex, exx


def symmetrizer_symbols(eta, kappa=1.0):
    """Symbols l^(2), l^(1), gamma^(3/2), p^(1/2), q^(0), zeta^(-1/2).

    One-dimensional closed forms on top of lambda^(1) = |xi|: every symbol is
    separable, which the dyadic paradifferential applications exploit.
    """
    if kappa != 1.0:
        raise ConfigError("symmetrizer symbols assume unit surface tension")
    grid = eta.grid
    ex, exx = _m2_profile(eta)
    m2 = 1.0 + ex ** 2
    m2_m14 = _node_sampler(m2 ** -0.25, grid)
    m2_m12 = _node_sampler(m2 ** -0.5, grid)
    m2_p14 = _node_sampler(m2 ** 0.25, grid)
    m2_m32full = _node_sampler(-ex * exx * m2 ** -1.5, grid)  # d_x(m2^{-1/2})
    m2_p34 = _node_sampler(m2 ** 0.75, grid)

    def absxi(xi):
        return np.abs(xi)

    def inv_sqrt_xi(xi):
        a = np.abs(xi)
        return np.where(a > 0, np.where(a > 0, a, 1.0) ** -0.5, 0.0)

    sym = {}
    sym["l2"] = Symbol(lambda x, xi: m2_m12(x) * xi ** 2, order=(2.0, 0.0),
                       separable=[(m2_m12, lambda xi: xi ** 2)], label="l^(2)")
    # l^(1) = (1/2) d_xi D_x l^(2) = -i xi d_x(m2^{-1/2})
    sym["l1"] = Symbol(lambda x, xi: -1j * xi * m2_m32full(x), order=(1.0, 0.0),
                       separable=[(lambda x: -1j * m2_m32full(x), lambda xi: xi)],
                       label="l^(1)")
    sym["gamma32"] = Symbol(lambda x, xi: m2_m14(x) * absxi(xi) ** 1.5, order=(1.5, 0.0),
                            separable=[(m2_m14, lambda xi: np.abs(xi) ** 1.5)],
                            label="gamma^(3/2)")
    sym["p12"] = Symbol(lambda x, xi: m2_m12(x) * absxi(xi) ** 0.5, order=(0.5, 0.0),
                        separable=[(m2_m12, lambda xi: np.abs(xi) ** 0.5)],
                        label="p^(1/2)")
    sym["q0"] = Symbol(lambda x, xi: m2_p14(x) * np.ones_like(np.abs(xi)), order=(0.0, 0.0),
                       separable=[(m2_p14, lambda xi: np.ones_like(np.abs(xi)))],
                       label="q^(0)")
    sym["zeta"] = Symbol(lambda x, xi: m2_p34(x) * inv_sqrt_xi(xi), order=(-0.5, 0.0),
                         separable=[(m2_p34, inv_sqrt_xi)], label="zeta^(-1/2)")
    return sym


def lambda_mu_symbol(eta, mu):
    """Regularized Lam^mu symbol: blended max(|xi|^{3/2}, 1)^{2mu/3} m2^{-mu/6}.

    The x-factor rides on the high-frequency branch; below |xi| = 2 the blend
    returns to 1, inside the region the pi-cutoffs kill anyway.
    """
    grid = eta.grid
    ex, _ = _m2_profile(eta)
    m2_pow = _node_sampler((1.0 + ex ** 2) ** (-mu / 6.0), grid)

    def wxi(xi):
        a = np.abs(xi)
        blend = smoothstep(a - 1.0)
        return (blend * a ** 1.5 + (1.0 - blend)) ** (2.0 * mu / 3.0)

    return Symbol(lambda x, xi: m2_pow(x) * wxi(xi), order=(1.5 * mu, 0.0),
                  separable=[(m2_pow, wxi)], label=f"Lam^{mu}")


def good_unknown(state, adm=None, workspace=None):
    """omega = psi - T_B eta, the good unknown of Alinhac."""
    if adm is None:
        adm = default_admissible_pair()
    B, _ = b_v_fields(state.domain(), state.psi, workspace=workspace)
    TBeta = paradiff_apply(Field(state.grid, np.real(B.values).astype(np.complex128)),
                           state.eta, adm=adm)
    return Field(state.grid, state.psi.values - TBeta.values)


def symmetrized_u(state, mu=0.0, part=None, adm=None, width=None, workspace=None):
    """u = Lam^mu P_p eta - i Lam^mu P_q omega (dyadic paradifferential)."""
    if adm is None:
        adm = default_admissible_pair()
    if part is None:
        part = make_dyadic_partition(state.grid)
    syms = symmetrizer_symbols(state.eta, state.params.kappa)
    lam = lambda_mu_symbol(state.eta, mu)
    omega = good_unknown(state, adm=adm, workspace=workspace)
    Pp_eta = dyadic_paradiff_apply(syms["p12"], state.eta, part, adm, width=width)
    Pq_om = dyadic_paradiff_apply(syms["q0"], omega, part, adm, width=width)
    term1 = dyadic_paradiff_apply(lam, Pp_eta, part, adm, width=width)
    term2 = dyadic_paradiff_apply(lam, Pq_om, part, adm, width=width)
    return Field(state.grid, term1.values - 1j * term2.values)


# -- singularity experiments -------------------------------------------------------


def real_scaled_witness(grid, x0, xi0, delta, rho, h_list, amplitude, mu_w=1.0,
                        width_factor=1.0, widths=None):
    """Real multi-scale packet family for the surface potential trace.

    Packet j sits at (h^-delta x0, h^-rho xi0) with weight amplitude h^mu_w;
    realness doubles it with the conjugate family at -xi.
    """
    vals = np.zeros(grid.n, dtype=np.complex128)
    tracks = []
    r_x = 0.25 * max(abs(x0), 1.0)
    r_xi = 0.25 * abs(xi0)
    for j, h in enumerate(h_list):
        X = x0 * h ** (-delta)
        XI = xi0 * h ** (-rho)
        if widths is not None:
            w = widths[j]
        else:
            w = width_factor * math.sqrt((r_x * h ** (-delta)) / (r_xi * h ** (-rho)))
        w = max(w, 2.5 * grid.spacing)
        weight = amplitude * h ** mu_w
        pk = wave_packet(grid, X, XI, w, normalize=True)
        vals += weight * pk.values
        tracks.append(PacketTrack(X, XI, w, weight))
    return Field(grid, 2.0 * np.real(vals).astype(np.complex128)), tracks


def _ww_group_shift(xi, t):
    # high-frequency water-wave rays: the |xi|^{3/2} model flow
    return group_shift(xi, t, 1.5)


def right_mover_state(grid, params, psi0, tracks):
    """Pair the psi witness with the eta profile of a right-moving linear wave.

    eta-hat = i G0 psi-hat / omega selects the branch whose group velocity has
    the sign of xi, so the witness transports one way instead of splitting.
    """
    xi = grid.frequencies()
    g0 = np.abs(xi) * np.tanh(params.depth * np.abs(xi))
    om = np.sqrt((params.gravity + params.kappa * xi ** 2) * g0)
    ratio = np.where(om > 0, g0 / np.where(om > 0, om, 1.0), 0.0)
    eta_hat = 1j * ratio * np.fft.fft(np.real(psi0.values))
    eta0 = Field(grid, np.real(np.fft.ifft(eta_hat)).astype(np.complex128))
    return SurfaceState(eta0, psi0, 0.0, params)


def singularity_experiment_infinite(
    grid,
    params,
    x0,
    xi0,
    t0,
    h_grid,
    amplitude=1e-2,
    mu_w=1.0,
    mu_probe=0.0,
    eps_mollify=1e-6,
    cfl=0.5,
    n_controls=4,
    offsets=(),
    width=None,
    min_h=6,
    right_mover=True,
):
    """Embed a (1/2,1)-singularity witness in psi, evolve, probe u(t0).

    The predicted singular point is x0 + (3/2) t0 |xi0|^{-1/2} xi0 under the
    (1/2,1) scaling; controls are probes chosen clean against every rail the
    real witness can populate (right/left movers at +-xi).
    """
    delta, rho = 0.5, 1.0
    x_pred = x0 + _ww_group_shift(xi0, t0)
    hs_use = [
        h for h in valid_h_grid(grid, x0, xi0, delta, rho, h_grid)
        if h in valid_h_grid(grid, x_pred, xi0, delta, rho, h_grid)
    ]
    if len(hs_use) < min_h:
        raise ConfigError(f"only {len(hs_use)} usable h values (need {min_h})")

    psi0, tracks = real_scaled_witness(grid, x0, xi0, delta, rho, hs_use,
                                       amplitude, mu_w=mu_w)
    if right_mover:
        state0 = right_mover_state(grid, params, psi0, tracks)
    else:
        state0 = SurfaceState(Field(grid, np.zeros(grid.n, dtype=complex)), psi0,
                              0.0, params)
    hist = integrate(state0, t0, eps_mollify=eps_mollify, cfl=cfl, track_invariants=False)
    u_t = symmetrized_u(hist.final(), mu=mu_probe, width=width)

    # rails the data can populate: both chiralities at +-xi (the right-mover
    # pairing empties the left-movers, but keep them in the clean-check)
    moved = []
    for tr in tracks:
        for sgn_xi in (+1.0, -1.0):
            for sgn_v in (+1.0, -1.0):
                t_eff = PacketTrack(tr.x, sgn_xi * tr.xi, tr.width, tr.weight)
                m = t_eff.at_time(sgn_v * sgn_xi * t0, 1.5)
                moved.append(m)
    candidates = [
        (-x_pred, xi0, "control_reflected"),
        (-x0, xi0, "control_mirror_initial"),
        (-0.4 * x_pred, xi0, "control_reflected_near_x"),
        (-x_pred, -xi0, "control_reflected_neg_xi"),
        (x0, xi0, "control_initial"),
        (2.5 * x_pred, xi0, "control_far_x"),
    ]
    controls = []
    for (xc, xic, label) in candidates:
        if len(valid_h_grid(grid, xc, xic, delta, rho, hs_use)) < 3:
            continue
        if not _track_clean(xc, xic, delta, rho, moved, hs_use):
            continue
        controls.append((xc, xic, label))
        if len(controls) >= n_controls:
            break
    entries = [(x_pred, xi0, "predicted")] + controls
    for k, off in enumerate(offsets):
        entries.append((x_pred + off, xi0, f"offset_{k}"))
    probes = _run_probes(u_t, entries, delta, rho, hs_use)
    sep = _sep(probes)
    return WavefrontReport(
        probes, list(hs_use),
        meta={
            "experiment": "ww_infinite",
            "steps": hist.steps, "rhs_evals": hist.rhs_evals,
            "x0": x0, "xi0": xi0, "t0": t0, "x_pred": x_pred,
            "amplitude": amplitude, "mu_w": mu_w, "mu_probe": mu_probe,
            "offsets": list(offsets),
            "grid": {"n": grid.n, "length": grid.length},
            "params": {"gravity": params.gravity, "depth": params.depth,
                       "nz": params.nz},
            "separation": sep,
        },
    )


def _sep(probes):
    pred = [p.mu_hat for p in probes if p.label == "predicted"]
    ctrl = [p.mu_hat for p in probes if p.label.startswith("control")]
    if not pred or not ctrl:
        return None
    lo = min(ctrl)
    return math.inf if math.isinf(lo) else lo - pred[0]


def ramp_surface(grid, amplitude, ramp_width, center=0.0, extent=None):
    """Smoothed-step surface A tanh((x - c)/w), tapered so it decays at the box edge."""
    x = grid.axis_points()
    prof = amplitude * np.tanh((x - center) / ramp_width)
    if extent is None:
        extent = 0.22 * grid.length
    taper = np.exp(-((x - center) / extent) ** 8)
    return Field(grid, (prof * taper).astype(np.complex128))


def ramp_metric(amplitude, ramp_width, center=0.0, extent=50.0):
    """Analytic SurfaceMetric for the ramp surface (for the ray tracer)."""

    def eta(x):
        t = float(np.atleast_1d(x)[0])
        return amplitude * math.tanh((t - center) / ramp_width) * math.exp(
            -((t - center) / extent) ** 8
        )

    def grad(x):
        t = float(np.atleast_1d(x)[0])
        u = (t - center) / ramp_width
        v = (t - center) / extent
        tap = math.exp(-(v ** 8))
        e = math.exp(-2.0 * abs(u))
        sech2 = 4.0 * e / (1.0 + e) ** 2  # 1/cosh(u)^2 without overflow
        core = amplitude / ramp_width * sech2 * tap
        edge = amplitude * math.tanh(u) * tap * (-8.0 * v ** 7 / extent)
        return np.array([core + edge])

    def hess(x):
        step = 1e-5
        return np.array([[(grad(np.atleast_1d(x) + step)[0]
                           - grad(np.atleast_1d(x) - step)[0]) / (2 * step)]])

    return SurfaceMetric(eta, grad, hess, dim=1)


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
    mu_w=1.0,
    mu_probe=0.0,
    witness_widths=None,
    eps_mollify=1e-6,
    cfl=0.5,
    width=None,
    min_h=6,
    s_max=2000.0,
):
    """(0,1)-singularity on a rampy initial surface: probe the bent prediction.

    xi_inf comes from the co-geodesic flow of the initial surface alone; the
    bent prediction (3/2) t0 |xi_inf|^{-1/2} xi_inf is probed against the
    unbent control that uses xi0 instead.
    """
    delta, rho = 0.0, 1.0
    eta0 = ramp_surface(grid, surface_amplitude, ramp_width, center=x0)
    metric = ramp_metric(surface_amplitude, ramp_width, center=x0,
                         extent=0.22 * grid.length)
    xi_inf_vec, _, trapped, flow_info = asymptotic_direction(
        metric, np.array([x0, xi0]), s_max=s_max
    )
    if trapped:
        raise ConfigError("initial co-geodesic is trapped; no asymptotic direction")
    xi_inf = float(xi_inf_vec[0])

    hs_wit = valid_h_grid(grid, x0, xi0, delta, rho, h_grid)
    psi0, tracks = real_scaled_witness(grid, x0, xi0, delta, rho, hs_wit,
                                       amplitude, mu_w=mu_w, widths=witness_widths)
    state0 = SurfaceState(eta0, psi0, 0.0, params)
    hist = integrate(state0, t0, eps_mollify=eps_mollify, cfl=cfl, track_invariants=False)
    u_t = symmetrized_u(hist.final(), mu=mu_probe, width=width)

    dp, rp = 0.5, 1.0  # (1/2, 1) probing of the evolved field
    x_bent = _ww_group_shift(xi_inf, t0)
    x_unbent = _ww_group_shift(xi0, t0)
    hs_use = [
        h for h in valid_h_grid(grid, x_bent, xi_inf, dp, rp, h_grid)
        if h in valid_h_grid(grid, x_unbent, xi0, dp, rp, h_grid)
    ]
    if len(hs_use) < min_h:
        raise ConfigError(f"only {len(hs_use)} usable h values (need {min_h})")
    entries = [
        (x_bent, xi_inf, "predicted"),
        (x_unbent, xi0, "control_unbent"),
        (-x_bent, xi_inf, "control_reflected"),
        (2.0 * x_bent, xi_inf, "control_far_x"),
    ]
    probes = _run_probes(u_t, entries, dp, rp, hs_use)
    mu = {p.label: p.mu_hat for p in probes}
    margin = mu["control_unbent"] - mu["predicted"]
    return WavefrontReport(
        probes, list(hs_use),
        meta={
            "experiment": "ww_smoothing",
            "steps": hist.steps, "rhs_evals": hist.rhs_evals,
            "x0": x0, "xi0": xi0, "t0": t0,
            "xi_inf": xi_inf, "x_bent": x_bent, "x_unbent": x_unbent,
            "surface_amplitude": surface_amplitude, "ramp_width": ramp_width,
            "amplitude": amplitude, "mu_w": mu_w,
            "flow_increments": flow_info.get("increments", []),
            "grid": {"n": grid.n, "length": grid.length},
            "params": {"gravity": params.gravity, "depth": params.depth,
                       "nz": params.nz},
            "bent_margin": margin,
            "separation": _sep(probes),
        },
    )
