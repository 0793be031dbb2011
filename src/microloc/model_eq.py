"""Fractional-dispersion model equation and its propagation experiments.

The flow is u_t + i |D|^gamma u = 0, gamma >= 1, solved exactly on the
lattice by the multiplier exp(-i t |xi|^gamma).  Two experiment families
probe the quasi-homogeneous wavefront of the solution:

* transport: under rho*gamma = delta + rho, a (delta,rho)-singularity at
  (x0, xi0) moves to (x0 + t gamma |xi0|^{gamma-2} xi0, xi0);
* smoothing: under rho*gamma > delta + rho, near-delta data develops
  (rho(gamma-1), rho)-singularities exactly on the dispersive ray
  (t gamma |xi0|^{gamma-2} xi0, xi0).

Singular data is encoded by a multi-scale packet family: one normalized
packet per probed scale h, placed at (h^-delta x0, h^-rho xi0) and weighted
h^mu, which realizes decay order mu at the probe and rapid decay elsewhere.

Every experiment here and in waterwave follows the same straight-line script:
shared_h_grid fixes the h values valid at the prediction and, in the
transport experiments, at the witness's initial point; pick_controls places the
controls; the field is evolved; probe_sweep measures mu_hat at the prediction
and the controls and finishes the report, whose meta gains the grid, the
boundary mass of the probed field and the verdict, separation().  Control
policy: each experiment lists its candidate points in order of preference,
and pick_controls walks that list, skipping a candidate that repeats an
earlier one or the prediction (to 9 digits), has fewer than 3 valid h, or
fails the experiment's clean predicate (track_clean: no witness packet
within 2.5 standard deviations of the scaled window at any of its h;
_locus_clean: the window misses the dispersive locus).  It keeps the first
`want` survivors, or all of them, and raises ConfigError when fewer than
`want`, or none, survive, so a configuration without a verdict fails before
anything is evolved.  The water-wave experiments also build their dyadic
partition before evolving, so a box too small for it fails the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MultiplierError
from .grid import Field, _packet_run
from .quantize import ProbeSpec, probe_sweep, shared_h_grid, valid_h_grid
from .symbols import window_radii

__all__ = [
    "propagate_fractional",
    "PacketTrack",
    "scaled_singularity_witness",
    "near_delta_field",
    "track_clean",
    "pick_controls",
    "transport_experiment",
    "smoothing_experiment",
    "geometric_h_grid",
    "group_shift",
]


def propagate_fractional(u0, t, gamma):
    """Exact lattice solution of u_t + i|D|^gamma u = 0 at time t.

    The multiplier exp(-i t |xi|^gamma) is even, and on the FFT lattice
    |xi_-k| = |xi_k| bit for bit, so it is evaluated at the FFT indices
    0..n/2 only, as cos(phase) - i sin(phase), and mirrored onto the
    negative modes.  The Nyquist bin needs no symmetrizing: an even
    multiplier has no odd part there.  Agrees with multiplier_apply of the
    same multiplier to rounding.
    """
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    grid = u0.grid
    half = grid.n // 2
    xi = 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.spacing)  # |xi_k|, k = 0..n/2
    phase = t * xi ** gamma
    m = np.empty(half + 1, dtype=np.complex128)
    np.cos(phase, out=m.real)
    np.sin(np.negative(phase, out=phase), out=m.imag)
    if not np.all(np.isfinite(m)):
        raise MultiplierError("multiplier is not finite on the dual lattice")
    spec = np.fft.fft(u0.values)
    spec[:half + 1] *= m
    spec[half + 1:] *= m[half - 1:0:-1]  # k = -(n/2-1)..-1
    return Field(grid, np.fft.ifft(spec, out=spec))


def group_shift(xi, t, gamma):
    """Displacement t gamma |xi|^{gamma-2} xi of the Hamiltonian flow of |xi|^gamma."""
    return t * gamma * abs(xi) ** (gamma - 2.0) * xi


def geometric_h_grid(h_max, ratio, count):
    return [h_max * ratio ** j for j in range(count)]


# -- witnesses -----------------------------------------------------------------


@dataclass
class PacketTrack:
    """Bookkeeping for one Gaussian packet of the witness family."""

    x: float
    xi: float
    width: float
    weight: float

    def at_time(self, t, gamma):
        x_t = self.x + group_shift(self.xi, t, gamma)
        curv = gamma * (gamma - 1.0) * abs(self.xi) ** (gamma - 2.0) if gamma != 1.0 else 0.0
        w_t = math.sqrt(self.width ** 2 + (t * curv / self.width) ** 2)
        return PacketTrack(x_t, self.xi, w_t, self.weight)

    @property
    def sigma_xi(self):
        return 1.0 / self.width


def scaled_singularity_witness(grid, x0, xi0, delta, rho, h_list, mu=0.0, amplitude=1.0):
    """Sum of unit-L2 packets at (h^-delta x0, h^-rho xi0), weighted amplitude h^mu.

    Packet widths balance the probing windows: w = sqrt(x-radius / xi-radius)
    with the radii of window_radii(x0, xi0), floored at 2.5 dx so the packet
    stays resolved.  Returns (field, tracks), one PacketTrack per h.

    Each packet is the wave_packet(..., normalize=True) of its h, built on
    its index run only (grid._packet_run) and normalized by the L2 norm of
    that run, so no full-length array is made per packet.
    """
    if xi0 == 0.0:
        raise ValueError("witness needs xi0 != 0")
    vals = np.zeros(grid.n, dtype=np.complex128)
    tracks = []
    r_x, r_xi = window_radii(x0, xi0)
    for h in h_list:
        X = x0 * h ** (-delta)
        XI = xi0 * h ** (-rho)
        w = max(math.sqrt((r_x * h ** (-delta)) / (r_xi * h ** (-rho))), 2.5 * grid.spacing)
        weight = amplitude * h ** mu
        a, run = _packet_run(grid, X, XI, w)
        run /= math.sqrt(np.vdot(run, run).real * grid.spacing)
        vals[a:a + len(run)] += weight * run
        tracks.append(PacketTrack(X, XI, w, weight))
    return Field(grid, vals), tracks


def near_delta_field(grid):
    """Mass-one Gaussian at 0 of width 2dx: the lattice surrogate of a delta."""
    width = 2.0 * grid.spacing
    x = grid.axis_points()
    vals = np.exp(-(x ** 2) / (2.0 * width ** 2)) / (math.sqrt(2.0 * math.pi) * width)
    return Field(grid, vals.astype(np.complex128))


# -- control placement ---------------------------------------------------------


def track_clean(xc, xic, delta, rho, tracks, h_grid):
    """True when no witness packet comes within 2.5 standard deviations of
    the scaled window at any h."""
    r_x, r_xi = window_radii(xc, xic)
    for h in h_grid:
        xlo, xhi = (xc - r_x) * h ** (-delta), (xc + r_x) * h ** (-delta)
        if xlo > xhi:
            xlo, xhi = xhi, xlo
        flo, fhi = (xic - r_xi) * h ** (-rho), (xic + r_xi) * h ** (-rho)
        if flo > fhi:
            flo, fhi = fhi, flo
        for tr in tracks:
            dx = max(xlo - tr.x, tr.x - xhi, 0.0) / tr.width
            dxi = max(flo - tr.xi, tr.xi - fhi, 0.0) / tr.sigma_xi
            if dx ** 2 + dxi ** 2 < 2.5 ** 2:
                return False
    return True


def pick_controls(grid, predicted, candidates, delta, rho, hs, clean=None, want=None):
    """ProbeSpecs for the control candidates (x, xi, label) that pass the policy.

    Skips a candidate that repeats an earlier one or the predicted (x, xi) to
    9 digits, that has fewer than 3 valid h in hs, or for which
    clean(x, xi, its valid h) is false; keeps the first `want` survivors (all
    of them when want is None).  Raises ConfigError when fewer than `want`, or
    none, survive.
    """
    if want is not None and want < 1:
        raise ConfigError(f"want must be >= 1 or None, got {want}")
    seen = {(round(predicted[0], 9), round(predicted[1], 9))}
    controls = []
    for (xc, xic, label) in candidates:
        key = (round(xc, 9), round(xic, 9))
        if key in seen:
            continue
        seen.add(key)
        usable = valid_h_grid(grid, xc, xic, delta, rho, hs)
        if len(usable) < 3 or (clean is not None and not clean(xc, xic, usable)):
            continue
        controls.append(ProbeSpec(xc, xic, delta, rho, label))
        if len(controls) == want:
            break
    need = 1 if want is None else want
    if len(controls) < need:
        raise ConfigError(
            f"only {len(controls)} clean control probes available (need {need}); "
            "adjust the experiment geometry"
        )
    return controls


# -- experiments ---------------------------------------------------------------


def transport_experiment(
    grid,
    x0,
    xi0,
    gamma,
    delta,
    rho,
    t0,
    h_grid,
    mu=0.0,
):
    """Propagate a (delta,rho)-singularity witness and probe the transported point.

    Requires rho*gamma = delta + rho (the scaling under which the wavefront is
    carried by the Hamiltonian flow of |xi|^gamma) and at least quantize.MIN_H
    shared h values.  The verdict uses the first 4 clean controls.
    """
    if abs(rho * gamma - (delta + rho)) > 1e-12:
        raise ConfigError(f"transport scaling needs rho*gamma = delta+rho, got "
                          f"{rho*gamma} vs {delta+rho}")
    if xi0 == 0.0:
        raise ConfigError("xi0 must be nonzero")
    x_pred = x0 + group_shift(xi0, t0, gamma)

    # witness scales and the main probes share the h values that keep both the
    # initial and the transported window inside the box/Nyquist budget
    hs_use = shared_h_grid(grid, [(x0, xi0), (x_pred, xi0)], delta, rho, h_grid)
    u0, tracks = scaled_singularity_witness(grid, x0, xi0, delta, rho, hs_use, mu=mu)
    moved = [tr.at_time(t0, gamma) for tr in tracks]

    candidates = [
        (x0, xi0, "control_initial"),
        (-x_pred, xi0, "control_reflected"),
        (x_pred, 2.0 * xi0, "control_double_xi"),
        (-x_pred, 2.0 * xi0, "control_reflected_double_xi"),
        (x_pred, -xi0, "control_neg_xi"),
        (x_pred, -2.0 * xi0, "control_neg_double_xi"),
        (x_pred, 0.5 * xi0, "control_half_xi"),
        (2.5 * x_pred, xi0, "control_far_x"),
        (0.4 * x_pred, xi0, "control_near_x"),
        (-0.4 * x_pred, xi0, "control_reflected_near_x"),
    ]
    controls = pick_controls(
        grid, (x_pred, xi0), candidates, delta, rho, hs_use,
        clean=lambda xc, xic, hs: track_clean(xc, xic, delta, rho, moved, hs),
        want=4,
    )

    return probe_sweep(
        propagate_fractional(u0, t0, gamma),
        [ProbeSpec(x_pred, xi0, delta, rho, "predicted")] + controls, hs_use,
        meta={"experiment": "model_transport", "requested_h_grid": list(h_grid),
              "gamma": gamma, "delta": delta, "rho": rho,
              "x0": x0, "xi0": xi0, "t0": t0, "x_pred": x_pred, "witness_mu": mu},
    )


def _locus_clean(xc, xic, x_pred, xi0, gamma):
    """Check that a probe window avoids the dispersive locus x = t g |xi|^{g-2} xi.

    Scale-invariantly, the x-window [0.75, 1.25] |xc| corresponds to stationary
    frequencies (|x| / (t gamma))^{1/(gamma-1)}; the probe is clean when that
    interval, padded by a factor 1.15, misses its xi-window, or the signs
    disagree.
    """
    pad = 1.15
    if np.sign(xc) != np.sign(xic) or xc == 0.0:
        return True
    p = 1.0 / (gamma - 1.0)
    base = abs(xc / x_pred)
    lo = (0.75 * base) ** p * abs(xi0) / pad
    hi = (1.25 * base) ** p * abs(xi0) * pad
    wlo, whi = 0.75 * abs(xic), 1.25 * abs(xic)
    if hi < wlo:
        return True
    # below the locus the phase gradient only grows like h^{-rho/p}; for
    # gamma < 2 that is too weak to suppress leakage at desk-scale h
    return lo > whi and gamma >= 2.0 - 1e-9


def smoothing_experiment(
    grid,
    xi0,
    gamma,
    delta,
    rho,
    t0,
    h_grid,
):
    """Evolve near-delta data at x = 0 and probe the (rho(gamma-1), rho) wavefront.

    Requires gamma > 1, rho*gamma > delta + rho and at least quantize.MIN_H
    valid h values; the singular locus of the evolved field is the dispersive
    ray (t0 gamma |xi|^{gamma-2} xi, xi).
    """
    if gamma <= 1.0:
        raise ConfigError("smoothing needs gamma > 1")
    if rho * gamma <= delta + rho:
        raise ConfigError("smoothing scaling needs rho*gamma > delta+rho")
    if t0 == 0.0:
        raise ConfigError("smoothing needs t0 != 0")
    dp = rho * (gamma - 1.0)

    # snap xi0 to the dual lattice
    dxi = grid.freq_spacing
    xi0 = round(xi0 / dxi) * dxi
    if xi0 == 0.0:
        raise ConfigError("xi0 rounds to zero on this lattice")

    x_pred = group_shift(xi0, t0, gamma)
    hs_use = shared_h_grid(grid, [(x_pred, xi0)], dp, rho, h_grid)

    candidates = [
        (x_pred, 2.0 * xi0, "control_double_xi"),
        (x_pred, 0.5 * xi0, "control_half_xi"),
        (x_pred, 4.0 * xi0, "control_quad_xi"),
        (x_pred, 0.25 * xi0, "control_quarter_xi"),
        (0.5 * x_pred, xi0, "control_half_x"),
        (2.0 * x_pred, xi0, "control_double_x"),
        (-x_pred, xi0, "control_reflected"),
    ]
    controls = pick_controls(
        grid, (x_pred, xi0), candidates, dp, rho, hs_use,
        clean=lambda xc, xic, hs: _locus_clean(xc, xic, x_pred, xi0, gamma),
    )

    return probe_sweep(
        propagate_fractional(near_delta_field(grid), t0, gamma),
        [ProbeSpec(x_pred, xi0, dp, rho, "predicted")] + controls, hs_use,
        meta={"experiment": "model_smoothing", "gamma": gamma, "delta": delta, "rho": rho,
              "probe_delta": dp, "probe_rho": rho, "xi0": xi0, "t0": t0, "x_pred": x_pred,
              "source_x": 0.0, "delta_width": 2.0 * grid.spacing},
    )
