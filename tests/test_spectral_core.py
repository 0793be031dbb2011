"""Grid, transform, multiplier and wave-packet contracts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microloc.errors import GridMismatchError, MultiplierError, UnderResolvedError
from microloc.grid import (
    Field,
    Grid,
    boundary_mass_fraction,
    inner,
    l2_norm,
    multiplier_apply,
    transform,
    wave_packet,
)
from oracles import random_field


@pytest.fixture
def grid():
    return Grid(64, 2 * np.pi)


def test_grid_invariants():
    g = Grid(128, 50.0)
    assert g.spacing == 50.0 / 128
    xs = g.axis_points()
    assert xs[0] == -25.0 and xs[-1] < 25.0
    k = np.sort(g.axis_wavenumbers())
    assert k[0] == -64 and k[-1] == 63  # symmetric about 0 except Nyquist


@pytest.mark.parametrize("bad_n", [6, 12, 100, 7])
def test_grid_rejects_bad_n(bad_n):
    with pytest.raises(ValueError):
        Grid(bad_n, 1.0)


def test_constant_field_spectrum_at_zero(grid):
    f = Field(grid, np.ones(grid.n, dtype=complex))
    F = transform(f, "forward")
    mags = np.abs(F.values)
    peak = np.argmax(mags)
    assert F.grid.axis_points()[peak] == 0.0
    assert np.sort(mags)[-2] < 1e-12 * mags[peak]


def test_single_mode_spectrum(grid):
    x = grid.axis_points()
    xi1 = 2 * np.pi / grid.length
    f = Field(grid, np.exp(1j * xi1 * x))
    F = transform(f, "forward")
    mags = np.abs(F.values)
    assert np.isclose(F.grid.axis_points()[np.argmax(mags)], xi1)
    mags[np.argmax(mags)] = 0.0
    assert mags.max() < 1e-12


def test_roundtrip(grid):
    f = random_field(grid, seed=11)
    back = transform(transform(f, "forward"), "inverse")
    assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_parseval(seed):
    g = Grid(64, 17.0)
    f = random_field(g, seed=seed)
    F = transform(f, "forward")
    lhs = np.sum(np.abs(f.values) ** 2) * g.spacing
    rhs = np.sum(np.abs(F.values) ** 2) * g.freq_spacing / (2 * np.pi)
    assert abs(lhs - rhs) < 1e-12 * lhs


def test_transform_linearity(grid):
    f = random_field(grid, seed=1)
    g = random_field(grid, seed=2)
    lhs = transform(Field(grid, 1.7 * f.values + 0.3j * g.values), "forward")
    rhs = 1.7 * transform(f, "forward").values + 0.3j * transform(g, "forward").values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_multiplier_identity(grid):
    f = random_field(grid, seed=3)
    out = multiplier_apply(f, lambda xi: np.ones_like(xi))
    assert np.max(np.abs(out.values - f.values)) < 1e-14


def test_multiplier_derivative(grid):
    x = grid.axis_points()
    f = Field(grid, np.sin(x).astype(complex))
    out = multiplier_apply(f, lambda xi: 1j * xi)
    assert np.max(np.abs(out.values - np.cos(x))) < 1e-10


def test_multiplier_tanh_scalar_oracle(grid):
    b = 0.7
    x = grid.axis_points()
    f = Field(grid, np.exp(1j * x))
    out = multiplier_apply(f, lambda xi: np.abs(xi) * np.tanh(b * np.abs(xi)))
    expected = np.tanh(b) * np.exp(1j * x)  # |xi| = 1 on this mode
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_multiplier_composition(grid):
    f = random_field(grid, seed=9)
    m1 = lambda xi: np.exp(1j * xi)
    m2 = lambda xi: 1.0 / (1.0 + xi ** 2)
    lhs = multiplier_apply(multiplier_apply(f, m2), m1)
    rhs = multiplier_apply(f, lambda xi: m1(xi) * m2(xi))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12 * np.max(np.abs(rhs.values))


def test_multiplier_nyquist_odd_zeroed(grid):
    # odd multiplier: the unpaired Nyquist bin keeps only its (zero) even part
    f = random_field(grid, seed=5)
    out = multiplier_apply(f, lambda xi: xi)
    spec_in = np.fft.fft(f.values)
    spec_out = np.fft.fft(out.values)
    assert abs(spec_out[grid.n // 2]) < 1e-12 * max(1.0, abs(spec_in[grid.n // 2]))


def test_multiplier_nan_rejected(grid):
    f = random_field(grid, seed=6)
    with pytest.raises(MultiplierError):
        multiplier_apply(f, lambda xi: np.where(np.abs(xi) < 1, np.nan, 1.0))


def test_grid_mismatch_rejected(grid):
    other = Grid(64, 7.0)
    with pytest.raises(GridMismatchError):
        inner(random_field(grid, 0), random_field(other, 0))


def test_wave_packet_basic():
    g = Grid(256, 40.0)
    f = wave_packet(g, 0.0, 0.0, 1.0)
    vals = f.values
    assert np.max(np.abs(vals.imag)) < 1e-14
    assert np.argmax(vals.real) == np.argmin(np.abs(g.axis_points()))
    assert np.all(vals.real > 0)


def test_wave_packet_spectral_peak():
    # analytic Gaussian transform peaks at xi0; discrete peak within one bin
    g = Grid(256, 40.0)
    xi0 = 3.2
    f = wave_packet(g, 1.0, xi0, 1.5)
    F = transform(f, "forward")
    peak = F.grid.axis_points()[np.argmax(np.abs(F.values))]
    assert abs(peak - xi0) <= g.freq_spacing


def test_wave_packet_near_orthogonal():
    g = Grid(512, 80.0)
    f1 = wave_packet(g, -20.0, 2.0, 1.0)
    f2 = wave_packet(g, 20.0, 5.0, 1.0)
    s = Field(g, f1.values + f2.values)
    lhs = l2_norm(s)
    rhs = np.sqrt(l2_norm(f1) ** 2 + l2_norm(f2) ** 2)
    assert abs(lhs - rhs) < 1e-8 * rhs


def _image_terms(grid, x0, width):
    """Every periodic image's envelope on the grid, in wave_packet's order."""
    L = grid.length
    x = grid.axis_points()
    return [np.exp(-((x - x0 - m * L) ** 2) / (2.0 * width ** 2)) for m in range(-3, 4)]


@pytest.mark.parametrize(
    "grid, x0, xi0, width, skipped",
    [
        (Grid(65536, 3200.0), -40.0, 1.4, 5.3452248382484875, True),
        (Grid(65536, 3200.0), -19.027313840043533, 8.4, 0.6484197773255049, True),
        (Grid(64, 10.0), 3.0, 1.2, 4.0, False),
        (Grid(512, 100.0), 45.0, 1.0, 1.0, True),  # the image at -55 wraps into the box
    ],
)
def test_wave_packet_equals_explicit_image_sum(grid, x0, xi0, width, skipped):
    # skipping images whose exp underflows everywhere leaves every bit unchanged
    terms = _image_terms(grid, x0, width)
    assert any(np.all(t == 0.0) for t in terms) == skipped
    env = np.zeros_like(terms[0])
    for t in terms:
        env = env + t
    phase = np.exp(1j * xi0 * grid.axis_points())
    assert np.array_equal(wave_packet(grid, x0, xi0, width).values, phase * env)


def test_wave_packet_underresolved():
    g = Grid(64, 10.0)
    with pytest.raises(UnderResolvedError):
        wave_packet(g, 0.0, 0.0, 0.1 * g.spacing)


def test_boundary_mass():
    g = Grid(256, 40.0)
    centered = wave_packet(g, 0.0, 0.0, 1.0)
    assert boundary_mass_fraction(centered) < 1e-10
    edge = wave_packet(g, 19.0, 0.0, 1.0)
    assert boundary_mass_fraction(edge) > 1e-3

