"""Model equation u_t + i|D|^gamma u = 0: propagator and experiments."""

import tracemalloc

import numpy as np
import pytest

from microloc.errors import ConfigError, MultiplierError
from microloc.grid import Field, Grid, l2_norm, multiplier_apply, wave_packet
from microloc.model_eq import (
    PacketTrack,
    geometric_h_grid,
    group_shift,
    pick_controls,
    propagate_fractional,
    scaled_singularity_witness,
    smoothing_experiment,
    track_clean,
    transport_experiment,
)
from oracles import gaussian_free_evolution, random_field


@pytest.fixture(scope="module")
def grid():
    return Grid(1024, 100.0)


def test_model_params_validation(grid):
    # the model needs a dispersion exponent gamma >= 1
    u = random_field(grid, seed=1)
    with pytest.raises(ValueError):
        propagate_fractional(u, 1.0, 0.5)
    propagate_fractional(u, 1.0, 1.0)


def test_propagate_t0_identity(grid):
    u = random_field(grid, seed=1)
    out = propagate_fractional(u, 0.0, 1.5)
    assert np.max(np.abs(out.values - u.values)) < 1e-14 * np.max(np.abs(u.values))


def test_propagate_unitary(grid):
    u = random_field(grid, seed=2)
    out = propagate_fractional(u, 2.7, 1.5)
    assert abs(l2_norm(out) - l2_norm(u)) < 1e-12 * l2_norm(u)


def test_propagate_group_property(grid):
    u = random_field(grid, seed=3)
    a = propagate_fractional(propagate_fractional(u, 0.4, 2.0), 0.9, 2.0)
    b = propagate_fractional(u, 1.3, 2.0)
    assert np.max(np.abs(a.values - b.values)) < 1e-12 * np.max(np.abs(b.values))


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0])
def test_propagate_equals_multiplier_apply(grid, gamma):
    # the half-lattice multiplier, mirrored, is the full-lattice one; the
    # field carries the Nyquist mode (-1)^j, so that bin is compared too
    t = 1.7
    u = Field(grid, random_field(grid, seed=4).values + (-1.0) ** np.arange(grid.n))
    want = multiplier_apply(u, lambda xi: np.exp(-1j * t * np.abs(xi) ** gamma)).values
    got = propagate_fractional(u, t, gamma).values
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    with np.errstate(invalid="ignore"), pytest.raises(MultiplierError):
        propagate_fractional(u, np.inf, gamma)


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("xi0", [2.0, -2.0])
def test_packet_centroid_moves_by_group_shift(gamma, xi0):
    # u_t + i |D|^gamma u = 0 moves a packet at xi0 along its ray, by
    # +group_shift(xi0, t, gamma): right for xi0 > 0, left for xi0 < 0.  The
    # |u|^2 centroid moves by the packet's mean group velocity, exactly
    # group_shift's at gamma = 1 and 2 and 2.4e-4 of it off at gamma = 3/2
    # (the curvature of |xi|^{3/2} over the packet's frequency spread)
    g = Grid(4096, 400.0)
    x = g.axis_points()
    t = 15.0
    u = wave_packet(g, -20.0 * np.sign(xi0), xi0, 8.0)

    def centroid(f):
        w = np.abs(f.values) ** 2
        return np.sum(x * w) / np.sum(w)

    moved = centroid(propagate_fractional(u, t, gamma)) - centroid(u)
    shift = group_shift(xi0, t, gamma)
    assert np.sign(shift) == np.sign(xi0)
    assert abs(moved - shift) <= 1e-3 * abs(shift)


def test_track_clean_is_the_scaled_window_plus_two_and_a_half_sigma():
    # at h = 1/4 the (1/2,1) window of (4, 1), radii (1, 1/4), scales to
    # x in [6, 10], xi in [3, 5]; a packet of width 1 (sigma_xi = 1) is
    # clean when its distance to that box, in its own standard deviations,
    # is at least 2.5
    win = dict(xc=4.0, xic=1.0, delta=0.5, rho=1.0, h_grid=[0.25])

    def clean(x, xi, width=1.0):
        return track_clean(tracks=[PacketTrack(x, xi, width, 1.0)], **win)

    assert not clean(8.0, 4.0)  # inside the scaled window
    assert not clean(10.0, 4.0)  # at its edge
    assert not clean(12.4, 4.0)  # 2.4 sigma beyond the edge in x
    assert not clean(8.0, 6.2, width=2.0)  # 2.4 sigma_xi beyond it in xi
    assert clean(12.5, 4.0)  # 2.5 sigma: clean
    assert clean(13.0, 4.0)  # beyond
    assert not clean(12.0, 6.0) and clean(12.0, 7.0)  # (2, 1) and (2, 2) sigma apart
    assert clean(4.0, 1.0)  # the unscaled window's centre lies outside the scaled one
    # one packet inside is enough to make the point unclean
    tracks = [PacketTrack(13.0, 4.0, 1.0, 1.0), PacketTrack(8.0, 4.0, 1.0, 1.0)]
    assert not track_clean(tracks=tracks, **win)
    assert track_clean(tracks=tracks[:1], **win)


def test_gaussian_closed_form():
    # gamma=2 at model time t/2 realizes exp(i t Delta / 2); Gaussian integral oracle
    g = Grid(16384, 400.0)
    sigma, t = 0.05, 1.0
    u0 = gaussian_free_evolution(g, sigma, 0.0)  # the mass-one Gaussian of width sigma
    out = propagate_fractional(u0, 0.5 * t, 2.0)
    exact = gaussian_free_evolution(g, sigma, t)
    scale = np.max(np.abs(exact.values))
    assert np.max(np.abs(out.values - exact.values)) < 1e-9 * scale


# -- transport -----------------------------------------------------------------


GAMMA2 = dict(x0=-3.0, xi0=2.5, gamma=2.0, delta=1.0, rho=1.0, t0=1.2,
              h_grid=geometric_h_grid(2.0 ** -1.5, 2.0 ** -0.5, 6))
GAMMA32 = dict(x0=-2.0, xi0=0.5, gamma=1.5, delta=0.5, rho=1.0,
               t0=3.0 / (1.5 * 0.5 ** 0.5), h_grid=geometric_h_grid(2.0 ** -3.5, 2.0 ** -0.5, 7))
GAMMA1 = dict(x0=-40.0, xi0=0.35, gamma=1.0, delta=0.0, rho=1.0, t0=20.0,
              h_grid=geometric_h_grid(2.0 ** -2, 0.5, 6))


# the model_probe benchmark grid: the test grid Grid(4096, 200) widened 16x at equal dx
PROBE_GRID = Grid(65536, 3200.0)


@pytest.mark.parametrize(
    "grid, cfg, h_list, wraps",
    [
        (PROBE_GRID, GAMMA1, GAMMA1["h_grid"], False),
        (PROBE_GRID, GAMMA2, GAMMA2["h_grid"], False),
        # X = 45 in [-50, 50), width 3.4: the image at -55 wraps in, so the
        # packet's index run is the whole axis
        (Grid(512, 100.0), dict(x0=45.0, xi0=1.0, delta=0.0, rho=1.0), [0.25], True),
    ],
    ids=["GAMMA1", "GAMMA2", "wrapping"],
)
def test_witness_equals_sum_of_wave_packets(grid, cfg, h_list, wraps):
    x0, xi0, delta, rho = cfg["x0"], cfg["xi0"], cfg["delta"], cfg["rho"]
    field, tracks = scaled_singularity_witness(grid, x0, xi0, delta, rho, h_list, mu=0.5)
    want = np.zeros(grid.n, dtype=complex)
    for h, tr in zip(h_list, tracks):
        assert (tr.x, tr.xi, tr.weight) == (x0 * h ** -delta, xi0 * h ** -rho, h ** 0.5)
        want += tr.weight * wave_packet(grid, tr.x, tr.xi, tr.width, normalize=True).values
    scale = np.max(np.abs(want))
    assert (abs(want[0]) > 1e-3 * scale) == wraps
    assert np.max(np.abs(field.values - want)) <= 1e-15 * scale


def test_witness_allocates_no_array_per_packet():
    # GAMMA1's six packets on the model_probe grid: the output field and the
    # packets' index runs stay below two length-n complex arrays
    hs = GAMMA1["h_grid"]
    scaled_singularity_witness(PROBE_GRID, GAMMA1["x0"], GAMMA1["xi0"], 0.0, 1.0, hs)
    tracemalloc.start()
    try:
        scaled_singularity_witness(PROBE_GRID, GAMMA1["x0"], GAMMA1["xi0"], 0.0, 1.0, hs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hs) == 6 and peak < 2 * PROBE_GRID.n * 16


def test_transport_scaling_precondition(grid):
    with pytest.raises(ConfigError):
        transport_experiment(grid, 1.0, 1.0, gamma=2.0, delta=1.0, rho=0.7, t0=1.0,
                             h_grid=geometric_h_grid(0.25, 0.5, 6))


def test_transport_gamma2_separation():
    g = Grid(4096, 200.0)
    rep = transport_experiment(g, **GAMMA2)
    sep = rep.meta["separation"]
    assert sep >= 2.0
    assert rep.mu("predicted") < 0.5
    assert rep.meta["boundary_mass"] < 1e-10


def test_transport_gamma1_speed_one():
    # Hoermander case: the singular point moves at speed exactly one
    g = Grid(4096, 200.0)
    rep = transport_experiment(g, **GAMMA1)
    assert rep.meta["x_pred"] == pytest.approx(GAMMA1["x0"] + GAMMA1["t0"])
    assert rep.meta["separation"] >= 2.0
    assert rep.meta["boundary_mass"] < 1e-10


def test_transport_t0_zero_identity():
    g = Grid(4096, 200.0)
    cfg = dict(GAMMA2)
    cfg["t0"] = 0.0
    rep = transport_experiment(g, **cfg)
    assert rep.meta["x_pred"] == cfg["x0"]
    assert rep.mu("predicted") < 0.5


def test_transport_out_of_box_rejected():
    g = Grid(1024, 50.0)
    cfg = dict(GAMMA2)
    cfg["x0"] = -20.0
    with pytest.raises(ConfigError):
        transport_experiment(g, **cfg)


# -- control policy ------------------------------------------------------------


def test_pick_controls_policy(grid):
    hs = geometric_h_grid(0.5, 0.5, 6)  # (1, 1) keeps 4 of them on this grid, (1, 4) only 2
    cands = [
        (1.0, 1.0, "control_at_prediction"),
        (-1.0, 1.0, "control_a"),
        (-1.0 + 1e-12, 1.0, "control_a_again"),
        (1.0, 4.0, "control_few_h"),
        (2.0, 1.0, "control_dirty"),
        (-2.0, 1.0, "control_b"),
        (1.0, -1.0, "control_c"),
    ]
    seen_hs = []

    def clean(xc, xic, usable):
        seen_hs.append(usable)
        return xc != 2.0

    def labels(**kw):
        return [s.label for s in pick_controls(grid, (1.0, 1.0), kw.pop("cands", cands),
                                               1.0, 1.0, hs, **kw)]

    assert labels(clean=clean) == ["control_a", "control_b", "control_c"]
    assert seen_hs[0] == hs[:4]  # the predicate sees the candidate's own valid h
    assert labels(clean=clean, want=2) == ["control_a", "control_b"]
    assert labels() == ["control_a", "control_dirty", "control_b", "control_c"]
    spec = pick_controls(grid, (1.0, 1.0), cands, 0.5, 1.0, hs, want=1)[0]
    assert (spec.x0, spec.xi0, spec.delta, spec.rho) == (-1.0, 1.0, 0.5, 1.0)
    with pytest.raises(ConfigError):
        labels(clean=clean, want=4)
    with pytest.raises(ConfigError):
        labels(clean=clean, cands=[c for c in cands if c[2] in
                                   ("control_at_prediction", "control_few_h", "control_dirty")])
    with pytest.raises(ConfigError):
        labels(want=0)  # not a request for every candidate


# -- smoothing -----------------------------------------------------------------


SMOOTH2 = dict(gamma=2.0, delta=0.0, rho=1.0, t0=1.5,
               h_grid=geometric_h_grid(0.30, 4.0 ** -0.2, 6))


def test_smoothing_preconditions(grid):
    with pytest.raises(ConfigError):
        smoothing_experiment(grid, 2.0, gamma=1.0, delta=0.0, rho=1.0, t0=1.0,
                             h_grid=geometric_h_grid(0.25, 0.5, 6))
    with pytest.raises(ConfigError):
        smoothing_experiment(grid, 2.0, gamma=2.0, delta=1.0, rho=1.0, t0=1.0,
                             h_grid=geometric_h_grid(0.25, 0.5, 6))
    with pytest.raises(ConfigError):
        smoothing_experiment(grid, 2.0, gamma=2.0, delta=0.0, rho=1.0, t0=0.0,
                             h_grid=geometric_h_grid(0.25, 0.5, 6))


def test_smoothing_gamma2_on_vs_off():
    # quadratic-oscillation picture: (t0 xi, xi) singular, (t0 xi, 2 xi) not
    g = Grid(4096, 200.0)
    rep = smoothing_experiment(g, 1.6, **SMOOTH2)
    mu_on = rep.mu("predicted")
    assert rep.meta["separation"] >= 2.0
    assert rep.mu("control_double_xi") > mu_on + 2.0
    # the near-delta data disperses over the whole box: 2.3e-4 near its edges
    assert 0.0 < rep.meta["boundary_mass"] < 1e-3


def test_smoothing_gamma32_locus():
    # singular locus at (t0 (3/2)|xi0|^{-1/2} xi0, xi0) under (1/2, 1) scaling
    g = Grid(4096, 200.0)
    rep = smoothing_experiment(g, 1.6, gamma=1.5, delta=0.0, rho=1.0, t0=1.5,
                               h_grid=geometric_h_grid(0.30, 4.0 ** -0.2, 6))
    xi0 = rep.meta["xi0"]
    assert rep.meta["probe_delta"] == pytest.approx(0.5)
    assert rep.meta["x_pred"] == pytest.approx(1.5 * 1.5 * abs(xi0) ** -0.5 * xi0)
    assert rep.meta["separation"] >= 1.0


def test_smoothing_time_reversal_mirror():
    # reversing t0 mirrors the predicted locus through the origin
    g = Grid(4096, 200.0)
    rep_p = smoothing_experiment(g, 1.6, **SMOOTH2)
    cfg = dict(SMOOTH2)
    cfg["t0"] = -SMOOTH2["t0"]
    rep_m = smoothing_experiment(g, 1.6, **cfg)
    assert rep_m.meta["x_pred"] == pytest.approx(-rep_p.meta["x_pred"])
    assert rep_m.meta["separation"] >= 2.0
