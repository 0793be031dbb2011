"""Quantization, weighted/dyadic norms, and wavefront-order estimation."""

import dataclasses
import math

import numpy as np
import pytest

from microloc.errors import ConfigError, MultiplierError
from microloc.grid import Field, Grid, boundary_mass_fraction, l2_norm, transform, wave_packet
from microloc.model_eq import geometric_h_grid, scaled_singularity_witness
import microloc.quantize as quantize
from microloc.quantize import (
    _fit_loglog,
    _smooth_length,
    _support_runs,
    _ZoomContext,
    estimate_decay_order,
    is_singular_at_order,
    make_dyadic_partition,
    op_quantize,
    probe_sweep,
    ProbeResult,
    ProbeSpec,
    shared_h_grid,
    valid_h_grid,
    WavefrontReport,
)
from microloc.symbols import Symbol, window_radii, window_symbol
from oracles import (constant_symbol, dyadic_norm, lattice_multiplier_apply, multiplier_symbol,
                     random_field, weighted_norm, window_with_radii, x_function_symbol)


@pytest.fixture(scope="module")
def grid():
    return Grid(256, 40.0)


def test_op_identity(grid):
    u = random_field(grid, seed=1)
    out = op_quantize(constant_symbol(1.0), u, h=0.3, delta=1.0, rho=1.0)
    assert np.max(np.abs(out.values - u.values)) < 1e-12


def test_op_position_symbol(grid):
    u = random_field(grid, seed=2)
    a = x_function_symbol(lambda x: x)
    out = op_quantize(a, u, h=0.5, delta=1.0, rho=0.0)
    expected = 0.5 * grid.axis_points() * u.values
    assert np.max(np.abs(out.values - expected)) < 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_op_frequency_symbol_multiplier_oracle(grid):
    u = random_field(grid, seed=3)
    a = multiplier_symbol(lambda xi: xi)
    h = 0.37
    out = op_quantize(a, u, h=h, delta=0.0, rho=1.0)
    oracle = lattice_multiplier_apply(u, lambda xi: xi)
    assert np.max(np.abs(out.values - h * oracle.values)) < 1e-10


def test_op_rejects_bad_h(grid):
    u = random_field(grid, seed=4)
    with pytest.raises(ValueError):
        op_quantize(constant_symbol(1.0), u, h=0.0, delta=0.0, rho=0.0)


def test_dense_equals_separable_on_random_symbols(grid):
    rng = np.random.default_rng(7)
    u = random_field(grid, seed=5)
    for trial in range(20):
        nterms = rng.integers(1, 4)
        terms = []
        for _ in range(nterms):
            xc = rng.uniform(-10, 10)
            xw = rng.uniform(2, 8)
            fc = rng.uniform(-5, 5)
            fw = rng.uniform(1, 6)
            terms.append(
                (
                    lambda x, xc=xc, xw=xw: np.exp(-((x - xc) ** 2) / (2 * xw ** 2)),
                    lambda xi, fc=fc, fw=fw: np.exp(-((xi - fc) ** 2) / (2 * fw ** 2)),
                )
            )
        a = Symbol(terms)
        h = float(rng.uniform(0.1, 0.9))
        delta = float(rng.uniform(0.0, 1.0))
        rho = float(rng.uniform(0.0, 1.0))
        fast = op_quantize(a, u, h, delta, rho)
        dense = op_quantize(lambda x, xi: a(x, xi), u, h, delta, rho)
        scale = max(np.max(np.abs(dense.values)), 1e-30)
        assert np.max(np.abs(fast.values - dense.values)) < 1e-10 * scale


def _assert_support_restriction_exact(u, window, h, delta, rho):
    """The support-restricted window equals the unrestricted and the dense one."""
    grid = u.grid
    x, xi = h ** delta * grid.axis_points(), h ** rho * grid.axis_frequencies()
    (x0, r_x), (xi0, r_xi) = window.support
    x_in, xi_in = np.abs(x - x0) < r_x, np.abs(xi - xi0) < r_xi
    assert 0 < x_in.sum() < x_in.size and 0 < xi_in.sum() < xi_in.size
    fast = op_quantize(window, u, h, delta, rho)
    full = op_quantize(dataclasses.replace(window, support=None), u, h, delta, rho)
    dense = op_quantize(lambda x, xi: window(x, xi), u, h, delta, rho)
    scale = np.max(np.abs(full.values))
    assert scale > 1e-6 * np.max(np.abs(u.values))
    assert np.max(np.abs(fast.values - full.values)) <= 1e-13 * scale
    assert np.max(np.abs(fast.values - dense.values)) <= 1e-10 * scale


@pytest.mark.parametrize(
    "x0, xi0, delta",
    [
        (1.5, 2.0, 0.0),
        (1.5, -2.0, 0.0),
        (-2.0, 1.5, 0.5),
        (2.0, -1.5, 0.5),
        (15.0, 2.0, 0.0),  # x-reach 18.75 of the box half-length 20
    ],
)
def test_support_restricted_window(grid, x0, xi0, delta):
    u = random_field(grid, seed=11)
    _assert_support_restriction_exact(u, window_symbol(x0, xi0), 0.3, delta, 1.0)


def test_support_restricted_window_across_zero_frequency(grid):
    # the mode run -k..k' crosses mode 0: it is gathered from both ends of
    # the FFT-ordered spectrum
    u = random_field(grid, seed=11)
    r_x, _ = window_radii(1.5, 0.5)
    _assert_support_restriction_exact(u, window_with_radii(1.5, 0.5, r_x, 2.0), 0.3, 0.0, 1.0)


def test_support_restricted_nan_multiplier_raises(grid):
    u = random_field(grid, seed=13)
    window = window_symbol(1.5, 2.0)
    (_, r_xi) = window.support[1]
    bx = window.separable[0][0]
    bad = dataclasses.replace(
        window, separable=[(bx, lambda xi: np.where(np.abs(xi - 2.0) < 0.5 * r_xi, np.nan, 0.0))]
    )
    with pytest.raises(MultiplierError):
        op_quantize(bad, u, 0.3, 0.0, 1.0)


@pytest.mark.parametrize(
    "n, nk, k0, nm, j0",
    [
        (64, 10, 60, 7, 62),  # both runs wrap past index n - 1
        (64, 40, 50, 30, 0),
        (256, 256, 128, 1, 17),  # nk = n, nm = 1
        (256, 1, 200, 256, 0),  # nk = 1
        (256, 1, 3, 1, 250),
        (65536, 11524, 60000, 491, 30000),  # model_probe's largest runs
        (63, 63, 5, 63, 40),  # odd n: the chirp table has period 2n
        (63, 20, 50, 30, 62),
        (255, 1, 254, 255, 0),
        (255, 100, 200, 80, 250),
    ],
)
def test_zoom_ifft_equals_ifft_slice(n, nk, k0, nm, j0):
    rng = np.random.default_rng(nk + nm)
    c = rng.standard_normal(nk) + 1j * rng.standard_normal(nk)
    zoom = _ZoomContext(n).ifft(c, k0, j0, nm)
    assert zoom.shape == (nm,)
    oracle = _ifft_slice(c, k0, j0, nm, n)
    assert np.max(np.abs(zoom - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def _ifft_slice(c, k0, j0, nm, n):
    full = np.zeros(n, dtype=complex)
    full[(k0 + np.arange(len(c))) % n] = c
    return np.fft.ifft(full)[(j0 + np.arange(nm)) % n]


def test_zoom_context_reuses_one_kernel_per_run_shape():
    # two zooms of the same (nk, nm) at other offsets share the context's
    # kernel spectrum, and each still equals the ifft slice
    n, nk, nm = 4096, 700, 90
    rng = np.random.default_rng(8)
    zoom = _ZoomContext(n)
    for k0, j0 in ((3500, 4050), (17, 1234)):
        c = rng.standard_normal(nk) + 1j * rng.standard_normal(nk)
        oracle = _ifft_slice(c, k0, j0, nm, n)
        assert np.max(np.abs(zoom.ifft(c, k0, j0, nm) - oracle)) <= 1e-13 * np.max(np.abs(oracle))
    assert list(zoom.kernels) == [(nk, nm)]


def test_smooth_length_is_the_least_5_smooth_bound():
    smooth = sorted(
        2 ** a * 3 ** b * 5 ** c for a in range(14) for b in range(9) for c in range(7)
    )
    for m in range(1, 5001):
        assert _smooth_length(m) == next(v for v in smooth if v >= m)


def test_support_runs_cover_the_balls():
    # each ball is one index run per axis: every lattice point strictly inside
    # the ball is in it, and each end is at or beyond the ball's edge unless
    # it is the end of the axis
    rng = np.random.default_rng(3)
    g = Grid(256, 40.0)
    n = g.n
    x_all, modes = g.axis_points(), np.arange(-n // 2, n // 2)
    for _ in range(200):
        x0, xi0 = rng.uniform(-30.0, 30.0), rng.uniform(-60.0, 60.0)
        window = window_with_radii(x0, xi0, rng.uniform(0.01, 30.0), rng.uniform(0.01, 60.0))
        (_, r_x), (_, r_xi) = window.support
        h = float(rng.uniform(0.05, 1.0))
        hx, hxi = h ** float(rng.uniform(0, 1)), h ** float(rng.uniform(0, 1))
        (j0, nm), (k0, nk) = _support_runs(window, g, hx, hxi)
        x_run = hx * x_all[j0:j0 + nm]
        xi_run = hxi * g.freq_spacing * np.arange(k0, k0 + nk)
        assert 0 <= j0 and j0 + nm <= n and -n // 2 <= k0 and k0 + nk <= n // 2
        for pts, run, first, last, c, r in (
            (hx * x_all, x_run, j0 == 0, j0 + nm == n, x0, r_x),
            (hxi * g.freq_spacing * modes, xi_run, k0 == -n // 2, k0 + nk == n // 2, xi0, r_xi),
        ):
            assert np.sum(np.abs(pts - c) < r) == np.sum(np.abs(run - c) < r)
            assert first or abs(run[0] - c) >= r
            assert last or abs(run[-1] - c) >= r


def test_support_runs_without_hint_are_whole_axes(grid):
    assert _support_runs(constant_symbol(1.0), grid, 0.5, 0.5) == ((0, 256), (-128, 256))


def _gamma32_window_and_witness():
    grid = Grid(65536, 3200.0)
    x0, xi0, delta, rho = -2.0, 0.5, 0.5, 1.0
    hs = geometric_h_grid(2.0 ** -3.5, 2.0 ** -0.5, 7)
    u, _ = scaled_singularity_witness(grid, x0, xi0, delta, rho, hs)
    return grid, window_symbol(x0, xi0), u, hs, (delta, rho)


def test_op_quantize_gamma32_window_equals_full_lattice_ifft():
    grid, window, u, hs, (delta, rho) = _gamma32_window_and_witness()
    (bx, bxi), = window.separable
    u_fft = np.fft.fft(u.values)
    for h in hs:
        full = bxi(h ** rho * grid.axis_frequencies()) * u_fft
        oracle = bx(h ** delta * grid.axis_points()) * np.fft.ifft(full)
        out = op_quantize(window, u, h, delta, rho).values
        assert np.max(np.abs(out - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_decay_estimate_takes_one_full_lattice_transform(monkeypatch):
    # the only length-n transform of an estimate, or of a whole sweep, is the
    # forward FFT of u; each (probe, h) costs a zoom of two transforms at a
    # 5-smooth length below n/2, and each distinct run shape (nk, nm) one
    # kernel transform per sweep
    grid, window, u, hs, (delta, rho) = _gamma32_window_and_witness()
    lengths = []

    def run_shapes(points):
        """(nk, nm) of every zoom of a sweep over points."""
        shapes = []
        for (x, xi) in points:
            for h in valid_h_grid(grid, x, xi, delta, rho, hs):
                (_, nm), (_, nk) = _support_runs(window_symbol(x, xi), grid, h ** delta, h ** rho)
                shapes.append((nk, nm))
        return shapes

    def check_counts(shapes):
        assert lengths.count(grid.n) == 1
        assert len(lengths) == 1 + 2 * len(shapes) + len(set(shapes))
        zoom_lengths = {n for n in lengths if n != grid.n}
        assert zoom_lengths == {_smooth_length(nk + nm - 1) for (nk, nm) in shapes}
        for n in zoom_lengths:
            assert n < grid.n // 2
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            assert n == 1

    def recording(fn):
        def wrapped(a, n=None, *args, **kw):
            lengths.append(np.shape(a)[-1] if n is None else n)
            return fn(a, n, *args, **kw)
        return wrapped

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
    (x0, _), (xi0, _) = window.support
    fit = estimate_decay_order(u, x0, xi0, delta, rho, h_grid=hs)
    assert math.isfinite(fit.mu_hat) and len(fit.h_used) >= 3
    check_counts(run_shapes([(x0, xi0)]))

    points = [(x0, xi0), (-x0, xi0), (x0, -xi0), (0.5 * x0, 2 * xi0)]
    specs = [ProbeSpec(x, xi, delta, rho) for (x, xi) in points]
    lengths.clear()
    rep = probe_sweep(u, specs, h_grid=hs)
    assert len(rep.probes) == len(specs)
    shapes = run_shapes(points)
    assert len(set(shapes)) < len(shapes)  # kernels are shared across probes
    check_counts(shapes)


def test_fit_norms_equal_op_quantize_norms(witness_mu1):
    # the fit sums each windowed norm over the window's x run; the full-length
    # op_quantize Field is its oracle, through both entry points
    grid, hs, u = witness_mu1
    probes = [(-3.0, 2.5), (3.0, 2.5), (-1.0, -2.0)]
    rep = probe_sweep(u, [ProbeSpec(x, xi, 1.0, 1.0) for (x, xi) in probes], h_grid=hs)
    for (x0, xi0), probe in zip(probes, rep.probes):
        fit = estimate_decay_order(u, x0, xi0, 1.0, 1.0, h_grid=hs)
        assert (fit.mu_hat, fit.h_used, fit.norms) == (probe.mu_hat, probe.h_used, probe.norms)
        assert len(fit.h_used) >= 3
        for h, norm in zip(fit.h_used, fit.norms):
            oracle = l2_norm(op_quantize(window_symbol(x0, xi0), u, h, 1.0, 1.0))
            assert abs(norm - oracle) <= 1e-13 * oracle


def test_non_finite_x_factor_on_the_run_raises(grid, monkeypatch):
    # a non-finite value of c(h^delta x) on the x run raises the ValueError
    # that the full-length Field raised, in op_quantize and in the fit
    def nan_at_center(window):
        (x0, _), _ = window.support
        (bx, bxi), = window.separable
        bad_x = lambda x: np.where(np.abs(x - x0) == np.min(np.abs(x - x0)), np.nan, bx(x))
        return dataclasses.replace(window, separable=[(bad_x, bxi)])

    u = random_field(grid, seed=14)
    with pytest.raises(ValueError, match="non-finite"):
        op_quantize(nan_at_center(window_symbol(1.5, 2.0)), u, 0.3, 0.0, 1.0)
    monkeypatch.setattr(quantize, "window_symbol", lambda x0, xi0: nan_at_center(window_symbol(x0, xi0)))
    hs = [0.5, 0.4, 0.3]
    with pytest.raises(ValueError, match="non-finite"):
        estimate_decay_order(u, 1.5, 2.0, 0.0, 1.0, h_grid=hs)
    with pytest.raises(ValueError, match="non-finite"):
        probe_sweep(u, [ProbeSpec(1.5, 2.0, 0.0, 1.0)], h_grid=hs)


def test_decay_fit_standard_error_closed_form(witness_mu1):
    # slope b = Sxy / Sxx and its standard error sqrt(SSR / (k - 2) / Sxx),
    # written out, on synthetic log-log data with a known slope
    rng = np.random.default_rng(21)
    hs = [2.0 ** (-0.5 * j) for j in range(2, 10)]
    norms = [3.0 * h ** 1.7 * math.exp(0.05 * rng.standard_normal()) for h in hs]

    def closed_form(hs, norms):
        x, y = np.log(hs), np.log(norms)
        sxx = np.sum((x - x.mean()) ** 2)
        b = np.sum((x - x.mean()) * (y - y.mean())) / sxx
        resid = y - y.mean() - b * (x - x.mean())
        return b, math.sqrt(np.sum(resid ** 2) / (len(x) - 2) / sxx)

    mu_hat, r2, stderr = _fit_loglog(hs, norms)
    b, se = closed_form(hs, norms)
    assert abs(mu_hat - b) <= 1e-12 and abs(stderr - se) <= 1e-12 * se
    assert abs(mu_hat - 1.7) <= 3 * stderr and 0 < r2 <= 1
    # exact power law: no residual, zero error
    assert _fit_loglog(hs, [2.0 * h ** 1.7 for h in hs])[2] <= 1e-12
    # through estimate_decay_order, on the fit's own h values and norms
    grid, hs, u = witness_mu1
    fit = estimate_decay_order(u, -3.0, 2.5, 1.0, 1.0, h_grid=hs)
    b, se = closed_form(fit.h_used, fit.norms)
    assert abs(fit.mu_hat - b) <= 1e-12 and abs(fit.stderr - se) <= 1e-12 * se


def test_weighted_norm_plain_l2(grid):
    u = random_field(grid, seed=8)
    assert np.isclose(weighted_norm(u, 0, 0), l2_norm(u), rtol=1e-13)


def test_weighted_norm_unit_gaussian():
    g = Grid(512, 60.0)
    u = wave_packet(g, 0.0, 0.0, 1.0, normalize=True)
    assert abs(weighted_norm(u, 0, 0) - 1.0) < 1e-10


def test_weighted_norm_monotone(grid):
    orders = [(0.0, 0.0), (0.5, 0.0), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0)]
    for seed in range(100):
        u = random_field(grid, seed=seed)
        vals = [weighted_norm(u, nu, k) for (nu, k) in orders]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))


def test_partition_sums_to_one():
    g = Grid(512, 120.0)
    part = make_dyadic_partition(g)
    total = sum(part.pieces)
    assert np.max(np.abs(total - 1.0)) < 1e-10
    x = g.axis_points()
    psi0 = part.pieces[0]
    assert abs(psi0[np.argmin(np.abs(x))] - 1.0) < 1e-12


def test_partition_ring_support():
    g = Grid(512, 120.0)
    part = make_dyadic_partition(g)
    x = np.abs(g.axis_points())
    psi3 = part.pieces[3]
    inside = x < (2 ** 3) / 2.0
    outside = x > 2.0 * 2 ** 3
    assert np.max(np.abs(psi3[inside])) == 0.0
    assert np.max(np.abs(psi3[outside])) == 0.0
    assert np.all(psi3 >= -1e-15)


def test_partition_too_small_grid():
    with pytest.raises(ConfigError):
        make_dyadic_partition(Grid(16, 4.0))


def test_dyadic_norm_equivalence():
    g = Grid(512, 120.0)
    part = make_dyadic_partition(g)
    ratios = []
    for seed in range(50):
        u = random_field(g, seed=seed)
        ratios.append(dyadic_norm(u, 1.0, 0.0, part) / weighted_norm(u, 1.0, 0.0))
    c0 = max(max(ratios), 1.0 / min(ratios))
    assert c0 < 4.0  # single equivalence constant across all samples


def test_dyadic_norm_single_ring():
    g = Grid(4096, 120.0)
    part = make_dyadic_partition(g)
    # packet concentrated at |x| = 4, where only psi_2 is active
    u = wave_packet(g, 4.0, 1.0, 0.08)
    ref = Field(g, part.pieces[2] * u.values)
    lhs = dyadic_norm(u, 1.0, 0.5, part)
    rhs = 2.0 ** (2 * 0.5) * weighted_norm(ref, 1.0, 0.0)
    assert abs(lhs - rhs) < 1e-8 * rhs


def test_dyadic_norm_homogeneous():
    g = Grid(512, 120.0)
    part = make_dyadic_partition(g)
    u = random_field(g, seed=3)
    v = Field(g, 2.0 * u.values)
    assert np.isclose(dyadic_norm(v, 1.0, 1.0, part), 2 * dyadic_norm(u, 1.0, 1.0, part), rtol=1e-12)


def test_decay_order_disjoint_probe_dense_oracle():
    # packet far (in scaled phase space) from the probe: rapid decay, with
    # every norm of the fit matched by the dense sweep of the same window
    g = Grid(512, 240.0)
    u = wave_packet(g, 0.0, 2.0, 1.0, normalize=True)
    hs = [2.0 ** (-1 - 0.5 * j) for j in range(5)]
    fit = estimate_decay_order(u, 3.0, -0.5, 1.0, 1.0, h_grid=hs)
    assert fit.mu_hat >= 8.0
    window = window_symbol(3.0, -0.5)
    for h, norm in zip(fit.h_used, fit.norms):
        dense = op_quantize(lambda x, xi: window(x, xi), u, h, 1.0, 1.0)
        assert abs(l2_norm(dense) - norm) <= 1e-10 * norm


def test_decay_order_needs_three_h():
    # at (1.5, 2) with delta = rho = 1 only h = 1/2 and 1/4 stay below Nyquist
    g = Grid(256, 40.0)
    hs = [0.5, 0.25, 0.125, 0.0625]
    assert valid_h_grid(g, 1.5, 2.0, 1.0, 1.0, hs) == hs[:2]
    with pytest.raises(ConfigError):
        estimate_decay_order(random_field(g, seed=1), 1.5, 2.0, 1.0, 1.0, h_grid=hs)
    # a negative scale exponent is refused, as op_quantize refuses it
    with pytest.raises(ValueError):
        estimate_decay_order(random_field(g, seed=1), 1.5, 2.0, -1.0, 1.0, h_grid=hs)
    with pytest.raises(ValueError):
        probe_sweep(random_field(g, seed=1), [ProbeSpec(1.5, 2.0, 1.0, -1.0)], h_grid=hs)


def test_decay_order_floor_sentinel():
    g = Grid(256, 240.0)
    u = wave_packet(g, -20.0, 1.5, 4.0, normalize=True)
    hs = [2.0 ** (-1 - 0.5 * j) for j in range(3)]
    # scaled window stays far from the packet in x: norms below floor -> +inf
    fit = estimate_decay_order(u, 20.0, -0.6, 1.0, 1.0, h_grid=hs)
    assert math.isinf(fit.mu_hat) and math.isinf(fit.stderr)
    # every measured norm is reported next to its h
    assert len(fit.h_used) == len(fit.norms) == 3


def _witness(grid, x0, xi0, hs, mu):
    vals = np.zeros(grid.n, dtype=complex)
    for h in hs:
        X, XI = x0 / h, xi0 / h
        w = math.sqrt(abs(X / XI))
        vals += h ** mu * wave_packet(grid, X, XI, w, normalize=True).values
    return Field(grid, vals)


@pytest.fixture(scope="module")
def witness_mu1():
    grid = Grid(4096, 200.0)
    hs = [2.0 ** (-1.5 - 0.5 * j) for j in range(6)]
    return grid, hs, _witness(grid, -3.0, 2.5, hs, mu=1.0)


def test_wavefront_fourier_symmetry(witness_mu1):
    # (x0, xi0) in WF_{d,r}(u)  <=>  (xi0, -x0) in WF_{r,d}(uhat)
    grid, hs, u = witness_mu1
    f1 = estimate_decay_order(u, -3.0, 2.5, 1.0, 1.0, h_grid=hs)
    uhat = transform(u, "forward")
    f2 = estimate_decay_order(uhat, 2.5, 3.0, 1.0, 1.0, h_grid=hs)
    assert abs(f1.mu_hat - f2.mu_hat) < 0.3


def test_wavefront_scaling_property(witness_mu1):
    # WF_{d,r}^mu = WF_{d/g, r/g}^{mu/g}: probing at h^g reproduces mu/g exactly
    grid, hs, u = witness_mu1
    f1 = estimate_decay_order(u, -3.0, 2.5, 1.0, 1.0, h_grid=hs)
    gam = 2.0
    f2 = estimate_decay_order(u, -3.0, 2.5, 1.0 / gam, 1.0 / gam, h_grid=[h ** gam for h in hs])
    assert abs(f1.mu_hat / f2.mu_hat - gam) < 0.1 * gam


def test_membership_rule():
    assert is_singular_at_order(1.0, 2.0)
    assert not is_singular_at_order(1.8, 2.0)  # within tol_order = 0.5


def test_valid_h_grid_truncation(monkeypatch):
    g = Grid(256, 40.0)
    hs = [2.0 ** (-j) for j in range(1, 10)]
    kept = valid_h_grid(g, 4.0, 3.0, 1.0, 1.0, hs)
    assert len(kept) < len(hs)
    assert all(h ** (-1.0) * (4.0 + 1.0) <= 0.95 * 20.0 for h in kept)
    # shared_h_grid: the h valid at every point, at least MIN_H of them
    points = [(1.0, 3.0), (4.0, 3.0)]
    assert valid_h_grid(g, 1.0, 3.0, 1.0, 1.0, hs) != kept
    monkeypatch.setattr(quantize, "MIN_H", len(kept))
    assert shared_h_grid(g, points, 1.0, 1.0, hs) == kept
    monkeypatch.setattr(quantize, "MIN_H", len(kept) + 1)
    with pytest.raises(ConfigError):
        shared_h_grid(g, points, 1.0, 1.0, hs)


def test_garding_lower_bound(grid):
    # Re<op(a)u, u> >= -C h^{delta+rho} ||u||^2 for nonnegative bump symbols
    rng = np.random.default_rng(17)
    delta, rho = 1.0, 1.0
    hs = [2.0 ** (-j) for j in range(1, 7)]
    worst_c = 0.0
    for trial in range(10):
        xc, fc = rng.uniform(-4, 4), rng.uniform(-3, 3)
        a = window_with_radii(xc, fc, 3.0, 2.0)
        u = random_field(grid, seed=100 + trial)
        nrm2 = l2_norm(u) ** 2
        for h in hs:
            v = op_quantize(a, u, h, delta, rho)
            neg = max(0.0, -np.real(np.sum(v.values * np.conj(u.values)) * grid.spacing))
            worst_c = max(worst_c, neg / (h ** (delta + rho) * nrm2))
    # fitted constant is finite and printed for the record
    assert np.isfinite(worst_c)
    print(f"sharp-Garding fitted constant C = {worst_c:.3e}")


def test_composition_first_order_correction():
    # ||op(a)op(b)u - op(ab + h^{d+r} d_xi(a) D_x(b))u|| = O(h^{2(d+r)})
    g = Grid(256, 40.0)
    u = wave_packet(g, 0.0, 1.0, 2.0, normalize=True)
    delta, rho = 0.5, 0.5

    def make(xc, xw, fc, fw):
        c = lambda x: np.exp(-((x - xc) ** 2) / (2 * xw ** 2))
        cp = lambda x: -(x - xc) / xw ** 2 * c(x)
        m = lambda xi: np.exp(-((xi - fc) ** 2) / (2 * fw ** 2))
        mp = lambda xi: -(xi - fc) / fw ** 2 * m(xi)
        return c, cp, m, mp

    ca, cap, ma, map_ = make(0.5, 3.0, 0.8, 2.0)
    cb, cbp, mb, mbp = make(-0.3, 2.5, -0.5, 2.5)
    a = Symbol([(ca, ma)])
    b = Symbol([(cb, mb)])

    hs = np.array([2.0 ** (-j) for j in range(2, 7)])
    errs = []
    for h in hs:
        lhs = op_quantize(a, op_quantize(b, u, h, delta, rho), h, delta, rho)
        # product symbol and first-order correction d_xi a * D_x b (D = -i d)
        prod = Symbol([(lambda x: ca(x) * cb(x), lambda xi: ma(xi) * mb(xi))])
        corr = Symbol([(lambda x: -1j * ca(x) * cbp(x), lambda xi: map_(xi) * mb(xi))])
        rhs = op_quantize(prod, u, h, delta, rho).values \
            + h ** (delta + rho) * op_quantize(corr, u, h, delta, rho).values
        errs.append(np.max(np.abs(lhs.values - rhs)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2 * (delta + rho)) < 0.4


def test_report_json_roundtrip(witness_mu1):
    grid, hs, u = witness_mu1
    specs = [ProbeSpec(-3.0, 2.5, 1.0, 1.0, label="predicted"),
             ProbeSpec(3.0, 2.5, 1.0, 1.0, label="control_1")]
    rep = probe_sweep(u, specs, h_grid=hs)
    back = WavefrontReport.from_json(rep.to_json())
    assert back.to_dict() == rep.to_dict()
    assert back.probes == rep.probes
    assert rep.h_grid == list(hs)
    # each probe carries its fit's standard error; JSON without one loads as inf
    fit = estimate_decay_order(u, -3.0, 2.5, 1.0, 1.0, h_grid=hs)
    assert back.probes[0].stderr == rep.probes[0].stderr == fit.stderr < math.inf
    old = rep.to_dict()
    for p in old["probes"]:
        del p["stderr"]
    assert all(p.stderr == math.inf for p in WavefrontReport.from_dict(old).probes)
    assert back.separation() == rep.separation() == rep.mu("control_1") - rep.mu("predicted")


def test_probe_sweep_finishes_the_report(witness_mu1):
    # probe_sweep keeps the caller's meta and adds what every report
    # records; estimate_decay_order is its probe at a single spec
    grid, hs, u = witness_mu1
    specs = [ProbeSpec(-3.0, 2.5, 1.0, 1.0, label="predicted"),
             ProbeSpec(3.0, 2.5, 1.0, 1.0, label="control_1")]
    rep = probe_sweep(u, specs, hs, meta={"experiment": "probe", "t0": 0.5})
    assert (rep.meta["experiment"], rep.meta["t0"]) == ("probe", 0.5)
    assert rep.meta["grid"] == {"n": grid.n, "length": grid.length}
    assert rep.meta["boundary_mass"] == boundary_mass_fraction(u)
    assert rep.meta["separation"] == rep.separation() is not None
    assert probe_sweep(u, specs[1:], hs).meta["separation"] is None  # nothing predicted
    fit = estimate_decay_order(u, -3.0, 2.5, 1.0, 1.0, h_grid=hs)
    assert fit == probe_sweep(u, [ProbeSpec(-3.0, 2.5, 1.0, 1.0)], hs).probes[0]


def test_report_separation_rules():
    def report(*probes):
        return WavefrontReport([ProbeResult(1.0, 1.0, 0.5, 1.0, mu, 1.0, label)
                                for label, mu in probes], [0.5, 0.25, 0.125])

    assert report(("predicted", 1.0)).separation() is None
    assert report(("control_a", 3.0)).separation() is None
    assert report(("predicted", 1.0), ("control_a", 3.0), ("control_b", 2.5),
                  ("extra", 0.0)).separation() == 1.5
    assert report(("predicted", math.inf), ("control_a", math.inf)).separation() == math.inf
