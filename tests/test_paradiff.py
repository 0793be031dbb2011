"""Paradifferential operators, dyadic localization, remainder diagnostics."""

import numpy as np
import pytest

from microloc.errors import GridMismatchError
from microloc.grid import Field, Grid, l2_norm, spectrum, wave_packet
from microloc import paradiff
from microloc.paradiff import dyadic_neighbor_width, dyadic_paradiff_apply, paradiff_apply, pi_cutoff
from microloc.quantize import make_dyadic_partition
from microloc.symbols import Symbol, dyadic_pieces, plateau_bump, smoothstep
from oracles import (SpectrumUnresolvedError, lattice_multiplier_apply, paralinearization_remainder,
                     paraproduct_remainder, random_field, refinement_ratios, rough_field_family)


@pytest.fixture(scope="module")
def grid():
    return Grid(512, 100.0)


def test_smoothstep_is_the_two_exponential_formula():
    # exp(-1/t) / (exp(-1/t) + exp(-1/(1-t))) inside (0, 1), 0 and 1 outside,
    # bit for bit on a dense grid with the edges, subnormal t, +-inf and NaN
    def formula(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            fa = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
            fb = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
            return fa / (fa + fb)

    edges = [0.0, -0.0, 1.0, 5e-324, 1e-310, 1e-300, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52,
             np.inf, -np.inf, np.nan]
    t = np.concatenate([np.linspace(-2.0, 3.0, 50003), edges]).reshape(2, -1)
    got, want = smoothstep(t), formula(t)
    assert got.shape == t.shape
    assert np.array_equal(np.isnan(got), np.isnan(t))
    finite = ~np.isnan(t)
    assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))
    for t0 in (-1.0, 0.0, 0.25, 1.0, np.inf):
        assert type(smoothstep(t0)) is type(formula(t0)) and smoothstep(t0) == formula(t0)
    assert np.isnan(smoothstep(np.nan))


def _lp_chi(theta, eta):
    """chi(theta, eta) = sum_k S_{k-3}(theta) psi_k(eta), written out elementwise;
    blocks k <= 40 cover every |eta| <= 2^40."""
    t, e = np.abs(theta), np.abs(eta)
    chi = 0.0
    for k in range(41):
        psi = plateau_bump(e / 2.0 ** k, 1.0, 2.0)
        if k > 0:
            psi = psi - plateau_bump(e / 2.0 ** (k - 1), 1.0, 2.0)
        chi = chi + plateau_bump(t / 2.0 ** (k - 3), 1.0, 2.0) * psi
    return chi


def test_admissible_pair_invariants():
    theta = np.linspace(-10, 10, 201)[:, None]
    eta = np.linspace(-40, 40, 161)[None, :]
    chi = _lp_chi(theta, eta)
    assert np.all(chi[np.abs(theta) <= np.abs(eta) / 16.0] == 1.0)
    # on the support of pi, |eta| >= 1/2
    assert np.all(chi[(np.abs(theta) >= np.abs(eta) / 2.0) & (np.abs(eta) >= 0.5)] == 0.0)
    assert np.all((0.0 <= chi) & (chi <= 1.0))
    # even, and invariant under (theta, eta) -> 2 (theta, eta) away from eta = 0
    assert np.allclose(_lp_chi(-theta, -eta), chi)
    far = np.abs(eta) >= 2.0
    assert np.allclose(_lp_chi(2.0 * theta, 2.0 * eta)[:, far[0]], chi[:, far[0]])
    # the frequency blocks sum to 1 on a lattice
    r = np.abs(Grid(512, 100.0).axis_frequencies())
    assert np.allclose(sum(dyadic_pieces(r, 5)), 1.0, atol=0.0, rtol=1e-15)
    eta_ax = np.linspace(-3, 3, 301)
    pi = pi_cutoff(eta_ax)
    assert np.all(pi[np.abs(eta_ax) >= 1.0] == 1.0)
    assert np.all(pi[np.abs(eta_ax) <= 0.5] == 0.0)
    assert np.all((0.0 <= pi) & (pi <= 1.0))


def test_paradiff_matches_double_sum():
    # T_a u against its defining sum n^-1 sum_j chi(xi_i - eta_j, eta_j)
    # chat(xi_i - eta_j) pi(eta_j) m(eta_j) uhat(eta_j), indices circular
    g = Grid(64, 16.0)
    x, xi = g.axis_points(), g.axis_frequencies()
    cx = lambda x: np.exp(-(x ** 2) / 2.0)
    m = lambda xi: np.abs(xi) ** 0.5
    u = random_field(g, seed=4)
    chat, uhat = np.fft.fft(cx(x)), np.fft.fft(u.values)
    i = np.arange(g.n)
    p = (i[:, None] - i[None, :]) % g.n  # the coefficient index of xi_i - eta_j
    terms = _lp_chi(xi[p], xi[None, :]) * chat[p] * (pi_cutoff(xi) * m(xi) * uhat)[None, :]
    oracle = np.fft.ifft(terms.sum(axis=1) / g.n)
    out = paradiff_apply(Symbol([(cx, m)]), u)
    assert np.max(np.abs(out.values - oracle)) < 1e-12


def test_constant_symbol_is_pi_cutoff(grid):
    u = random_field(grid, seed=1)
    out = paradiff_apply(Field(grid, 2.5 * np.ones(grid.n, dtype=complex)), u)
    oracle = lattice_multiplier_apply(u, lambda xi: 2.5 * pi_cutoff(xi))
    assert np.max(np.abs(out.values - oracle.values)) < 1e-10


def test_pure_multiplier_oracle(grid):
    u = random_field(grid, seed=2)
    m = lambda xi: np.exp(-np.abs(xi) / 3.0)
    a = Symbol([(lambda x: np.ones_like(x), m)])
    out = paradiff_apply(a, u)
    oracle = lattice_multiplier_apply(u, lambda xi: m(xi) * pi_cutoff(xi))
    assert np.max(np.abs(out.values - oracle.values)) < 1e-10


def test_separable_equals_dense(grid):
    u = random_field(grid, seed=3)
    cx = lambda x: np.exp(-(x ** 2) / 8.0)
    m = lambda xi: 1.0 / (1.0 + xi ** 2)
    a = Symbol([(cx, m)])
    fast = paradiff_apply(a, u)
    dense = paradiff_apply(lambda x, xi: cx(x) * m(xi), u)
    assert np.max(np.abs(fast.values - dense.values)) < 1e-12


def test_smooth_symbol_high_frequency_multiplication():
    # T_psi - psi is infinitely smoothing: deviation decays at least like 1/xi0
    g = Grid(2048, 100.0)
    x = g.axis_points()
    a = Field(g, np.exp(-(x ** 2) / 2.0).astype(complex))
    errs = []
    xis = [6.0, 12.0, 24.0]
    for xi0 in xis:
        u = wave_packet(g, 0.0, xi0, 3.0, normalize=True)
        Tu = paradiff_apply(a, u)
        errs.append(l2_norm(Field(g, Tu.values - a.values * u.values)))
    slope = np.polyfit(np.log(xis), np.log(errs), 1)[0]
    assert slope <= -0.7


def test_kink_symbol_algebraic_decay():
    # a = exp(-|x|): ahat ~ theta^-2, so the high-pass L2 tail is (c xi0)^{-3/2}, 1/16 <= c <= 1/2
    g = Grid(2048, 100.0)
    x = g.axis_points()
    a = Field(g, np.exp(-np.abs(x)).astype(complex))
    errs = []
    xis = [6.0, 12.0, 24.0, 48.0]
    for xi0 in xis:
        u = wave_packet(g, 0.0, xi0, 3.0, normalize=True)
        Tu = paradiff_apply(a, u)
        errs.append(l2_norm(Field(g, Tu.values - a.values * u.values)))
    slope = np.polyfit(np.log(xis), np.log(errs), 1)[0]
    assert -1.8 <= slope <= -1.0


def test_frequency_support_exact(grid):
    # spectrum of T_a u vanishes identically below (1-eps2)/2 * (pi threshold), eps2 = 1/2
    u = random_field(grid, seed=5)
    a = Field(grid, np.exp(-grid.axis_points() ** 2 / 4.0).astype(complex))
    Tu = paradiff_apply(a, u)
    spec = np.abs(np.fft.fftshift(spectrum(Tu)))
    xi = np.fft.fftshift(grid.axis_frequencies())
    low = np.abs(xi) < (1.0 - 0.5) / 2.0 * 0.5
    # exact zeros up to the re-transform roundoff of the test itself
    assert np.max(spec[low]) < 1e-15 * spec.max()


def test_linearity_in_symbol_and_argument(grid):
    u = random_field(grid, seed=6)
    v = random_field(grid, seed=7)
    a = Field(grid, np.exp(-grid.axis_points() ** 2 / 9.0).astype(complex))
    b = Field(grid, np.cos(grid.axis_points() / 7.0).astype(complex))
    lhs = paradiff_apply(a, Field(grid, 1.3 * u.values + 0.7j * v.values))
    rhs = 1.3 * paradiff_apply(a, u).values + 0.7j * paradiff_apply(a, v).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12 * np.max(np.abs(rhs))
    lhs2 = paradiff_apply(Field(grid, a.values + 2.0 * b.values), u)
    rhs2 = paradiff_apply(a, u).values + 2.0 * paradiff_apply(b, u).values
    assert np.max(np.abs(lhs2.values - rhs2)) < 1e-12 * np.max(np.abs(rhs2))


# -- dyadic --------------------------------------------------------------------


@pytest.fixture(scope="module")
def dyadic_setup():
    g = Grid(1024, 200.0)
    part = make_dyadic_partition(g)
    return g, part


def test_neighbor_width_rule():
    assert dyadic_neighbor_width(12) == 10
    assert dyadic_neighbor_width(7) == 3
    assert dyadic_neighbor_width(4) == 2


def test_dyadic_constant_collapses_to_cutoff(dyadic_setup, monkeypatch):
    # with full neighbor width the ring sum telescopes to the pi multiplier
    g, part = dyadic_setup
    u = wave_packet(g, 3.0, 5.0, 2.0, normalize=True)
    one = Field(g, np.ones(g.n, dtype=complex))
    oracle = lattice_multiplier_apply(u, lambda xi: pi_cutoff(xi))
    with monkeypatch.context() as m:
        m.setattr(paradiff, "dyadic_neighbor_width", lambda J: part.J)
        full = dyadic_paradiff_apply(one, u, part)
    assert np.max(np.abs(full.values - oracle.values)) < 1e-6
    # the desk-scale default width keeps a small, reported ring leakage
    dflt = dyadic_paradiff_apply(one, u, part)
    dev = np.max(np.abs(dflt.values - oracle.values)) / np.max(np.abs(oracle.values))
    print(f"default-width ring leakage: {dev:.3e}")
    assert dev < 1e-2


def test_dyadic_partition_from_another_grid_rejected(dyadic_setup):
    _, part = dyadic_setup
    g = Grid(512, 200.0)
    with pytest.raises(GridMismatchError):
        dyadic_paradiff_apply(Field(g, np.ones(g.n, dtype=complex)), random_field(g), part)


def test_dyadic_homogeneous_multiplier_bounded(dyadic_setup):
    g, part = dyadic_setup
    m0 = lambda xi: np.tanh(xi / np.maximum(np.abs(xi), 1e-300))
    a = Symbol([(lambda x: np.ones_like(x), m0)])
    worst = 0.0
    for seed in range(5):
        u = random_field(g, seed=seed)
        worst = max(worst, l2_norm(dyadic_paradiff_apply(a, u, part)) / l2_norm(u))
    print(f"P_a operator-norm sample bound: {worst:.3f}")
    assert worst < 10.0


def test_dyadic_single_ring_truncated_sum(dyadic_setup, monkeypatch):
    # support locality: only rings within 2*width of the data contribute
    g, part = dyadic_setup
    u = wave_packet(g, 8.0, 4.0, 0.5, normalize=True)  # inside ring 3
    one = Field(g, np.ones(g.n, dtype=complex))
    w = 3
    monkeypatch.setattr(paradiff, "dyadic_neighbor_width", lambda J: w)
    full = dyadic_paradiff_apply(one, u, part)
    blocks = paradiff._lp_blocks(g.axis_frequencies())
    out = np.zeros(g.n, dtype=complex)
    for j in range(max(0, 3 - 2 * w), min(part.J, 3 + 2 * w) + 1):
        psi = part.pieces[j]
        tilde = part.neighbor_sum(j, w)
        tj = paradiff._paradiff_apply(one, Field(g, tilde * u.values), psi, blocks)
        out += tilde * tj.values
    assert np.max(np.abs(full.values - out)) == 0.0


# -- remainders ----------------------------------------------------------------


def test_paraproduct_symmetric(grid):
    x = grid.axis_points()
    a = Field(grid, np.exp(-x ** 2 / 4.0).astype(complex))
    b = Field(grid, (np.sin(x) * np.exp(-x ** 2 / 9.0)).astype(complex))
    Rab, _ = paraproduct_remainder(a, b)
    Rba, _ = paraproduct_remainder(b, a)
    assert np.max(np.abs(Rab.values - Rba.values)) < 1e-12


def test_paraproduct_constant_coefficient(grid):
    # a = c: R = c b - c T_1 b - T_b c: high-frequency part is exactly c(1-pi)b-hat
    c = 1.7
    x = grid.axis_points()
    a = Field(grid, c * np.ones(grid.n, dtype=complex))
    b = Field(grid, (np.sin(3 * x) * np.exp(-x ** 2 / 9.0)).astype(complex))
    R, _ = paraproduct_remainder(a, b)
    spec = np.abs(np.fft.fftshift(spectrum(R)))
    xi = np.fft.fftshift(grid.axis_frequencies())
    high = np.abs(xi) >= 4.0  # far above both cutoffs; only low frequencies survive
    assert np.max(spec[high]) < 1e-8


def test_paraproduct_unresolved_rejected(grid):
    rough = random_field(grid, seed=1, decay=0.3)
    with pytest.raises(SpectrumUnresolvedError):
        paraproduct_remainder(rough, rough)


def test_paraproduct_refinement_bounded_while_terms_blow_up():
    # ||R||_{H^{alpha+beta-d/2-0.1}} stays bounded under refinement; the
    # individual paraproducts grow
    alpha = beta = 1.0
    fam_a = rough_field_family(alpha, 100.0, seed=5)
    fam_b = rough_field_family(beta, 100.0, seed=9)
    s_star = alpha + beta - 0.5 - 0.1

    def R_of(n):
        return paraproduct_remainder(fam_a(n), fam_b(n), strict=False)[0]

    def Tab_of(n):
        return paradiff_apply(fam_a(n), fam_b(n))

    norms_R, growth_R = refinement_ratios(R_of, s_star)
    norms_T, growth_T = refinement_ratios(Tab_of, s_star)
    assert norms_R[-1] / norms_R[0] < 2.0
    assert growth_T > growth_R + 0.3
    print(f"remainder growth {growth_R:.3f}/doubling vs paraproduct {growth_T:.3f}")


def test_paralinearization_linear_map(grid):
    # F(v) = c v: remainder c(u - T_1 u) has only low-frequency content
    u = Field(grid, (np.sin(3 * grid.axis_points())
                     * np.exp(-grid.axis_points() ** 2 / 9.0)).astype(complex))
    R, _ = paralinearization_remainder(lambda v: 2.0 * v, lambda v: 2.0 * np.ones_like(v), u)
    spec = np.abs(np.fft.fftshift(spectrum(R)))
    xi = np.fft.fftshift(grid.axis_frequencies())
    assert np.max(spec[np.abs(xi) >= 4.0]) < 1e-8


def test_paralinearization_square_is_paraproduct(grid):
    x = grid.axis_points()
    u = Field(grid, (np.cos(x) * np.exp(-x ** 2 / 16.0)).astype(complex))
    R1, _ = paralinearization_remainder(lambda v: v ** 2, lambda v: 2.0 * v, u)
    R2, _ = paraproduct_remainder(u, u)
    assert np.max(np.abs(R1.values - R2.values)) < 1e-10


def test_paralinearization_sine_refinement_bounded():
    # F = sin: H^{2 alpha - d/2 - 0.1} norm of the remainder stays bounded
    alpha = 1.5
    fam = rough_field_family(alpha, 100.0, seed=13)
    s_star = 2 * alpha - 0.5 - 0.1

    def R_of(n):
        u = fam(n)
        u = Field(u.grid, 0.2 * u.values)  # moderate amplitude
        return paralinearization_remainder(np.sin, np.cos, u, strict=False)[0]

    norms, growth = refinement_ratios(R_of, s_star)
    assert norms[-1] / norms[0] < 2.0


def test_admissible_pair_change_gain(monkeypatch):
    # switching the block gap 3 -> 4 changes T_a u by >= 0.8 orders; the
    # coefficient's spectrum must sit inside the gap-4 cutoff at these n
    fam = rough_field_family(1.0, 100.0, seed=3)

    def a_of(n):
        g = Grid(n, 100.0)
        return Field(g, np.exp(-g.axis_points() ** 2 / 16.0).astype(complex))

    def D_of(n):
        u = fam(n)
        d1 = paradiff_apply(a_of(n), u)
        monkeypatch.setattr(paradiff, "LP_GAP", 4)
        d2 = paradiff_apply(a_of(n), u)
        monkeypatch.undo()
        return Field(u.grid, d1.values - d2.values)

    _, growth_u = refinement_ratios(fam, 2.0)
    _, growth_d = refinement_ratios(D_of, 2.0)
    assert growth_u - growth_d >= 0.8
