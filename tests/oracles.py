"""Oracles and inputs that the tests check microloc against; no experiment,
benchmark workload or library function reaches them.  Among them are the
paraproduct and paralinearization remainders, the DN Taylor expansion, the
boundary symbols of G and the shape-derivative identity, which check the
paralinearization of Alazard, Burq & Zuily (Duke Math. J. 158, 2011)."""

import math
from dataclasses import dataclass

import numpy as np

from microloc.dno import FluidDomain, _node_sampler, _slopes, _x_derivative, b_v_fields, dn_elliptic
from microloc.errors import GridMismatchError, MicrolocError
from microloc.flows import SurfaceMetric
from microloc.grid import Field, Grid, l2_norm, multiplier_apply, spectrum
from microloc.paradiff import paradiff_apply
from microloc.symbols import Symbol, plateau_bump


class TaylorDivergenceError(MicrolocError):
    """Dirichlet-Neumann Taylor expansion diverges; use the elliptic solver."""


class SpectrumUnresolvedError(MicrolocError):
    """Input field spectrum does not decay below tolerance before Nyquist."""


def random_field(grid, seed=0, decay=2.0, real=False):
    """Random field with smoothly decaying spectrum <xi>^-decay."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    coeffs *= (1.0 + np.abs(grid.axis_frequencies()) ** 2) ** (-decay / 2.0)
    vals = np.fft.ifft(coeffs)
    if real:
        vals = vals.real.astype(np.complex128)
    return Field(grid, vals)


def constant_symbol(c):
    return Symbol([(lambda x: c * np.ones_like(x), lambda xi: np.ones_like(xi))])


def multiplier_symbol(m):
    return Symbol([(lambda x: np.ones_like(x), m)])


def x_function_symbol(c):
    return Symbol([(c, lambda xi: np.ones_like(xi))])


def lattice_multiplier_apply(f, m):
    """ifft(m(xi) fft(f)) with m sampled as is at every FFT lattice frequency,
    the Nyquist bin -xi_N included (multiplier_apply keeps only the even
    part of m there)."""
    vals = np.broadcast_to(np.asarray(m(f.grid.axis_frequencies()), dtype=np.complex128),
                           (f.grid.n,))
    return Field(f.grid, np.fft.ifft(vals * np.fft.fft(f.values)))


def window_with_radii(x0, xi0, r_x, r_xi):
    """window_symbol's plateau window at (x0, xi0), with the radii r_x and
    r_xi in place of window_radii(x0, xi0)."""
    return Symbol([(lambda x: plateau_bump(np.abs(x - x0) / r_x),
                    lambda xi: plateau_bump(np.abs(xi - xi0) / r_xi))],
                  support=((x0, r_x), (xi0, r_xi)))


def flat_metric():
    zero = lambda x: np.zeros_like(x, dtype=float)
    return SurfaceMetric(eta=zero, grad_eta=zero)


def gaussian_free_evolution(grid, sigma, t_schrodinger):
    """Closed form of exp(i t Delta / 2) applied to a mass-one Gaussian at 0.

    The half-Laplacian convention matches the explicit kernel
    exp(-i pi/4) (2 pi t)^{-1/2} exp(i x^2/2t) of the delta evolution; in
    model time this is propagate_fractional(u0, t/2, gamma=2).
    """
    x = grid.axis_points()
    a = sigma ** 2 + 1j * t_schrodinger
    vals = np.exp(-(x ** 2) / (2.0 * a)) / np.sqrt(2.0 * np.pi * a)
    return Field(grid, vals)


def weighted_norm(u, nu=0.0, k=0.0):
    """Weighted Sobolev norm || <x>^k <D>^nu u ||_L2."""
    if nu == 0.0:
        smoothed = u
    else:
        smoothed = multiplier_apply(u, lambda xi: (1.0 + xi ** 2) ** (nu / 2.0))
    if k == 0.0:
        return l2_norm(smoothed)
    w = (1.0 + u.grid.axis_points() ** 2) ** (k / 2.0)
    return l2_norm(Field(u.grid, w * smoothed.values))


def dyadic_norm(u, nu, k, part):
    """sqrt( sum_j 2^{2jk} || psi_j u ||_{H^nu}^2 ), the dyadic H^nu_k norm."""
    if not part.grid.compatible(u.grid):
        raise GridMismatchError("partition built on a different grid")
    total = 0.0
    for j, psi in enumerate(part.pieces):
        piece = Field(u.grid, psi * u.values)
        total += 4.0 ** (j * k) * weighted_norm(piece, nu, 0.0) ** 2
    return math.sqrt(total)


def _check_resolved(f):
    """Raise unless the top eighth of the spectrum, at either end, is below
    1e-10 times its peak."""
    spec = np.abs(np.fft.fftshift(spectrum(f)))
    edge = len(spec) // 8
    top = max(spec[:edge].max(), spec[-edge:].max())
    if top > 1e-10 * spec.max():
        raise SpectrumUnresolvedError(
            f"spectrum tail {top:.3e} exceeds 1e-10 x peak {spec.max():.3e}"
        )


def sobolev_slope(f):
    """Fitted d log ||f||_{H^s} / ds over s = 0..4: log of the effective
    spectral radius."""
    s_grid = (0.0, 1.0, 2.0, 3.0, 4.0)
    vals = [max(weighted_norm(f, s, 0.0), 1e-300) for s in s_grid]
    coef = np.polyfit(np.asarray(s_grid), np.log(vals), 1)
    return float(coef[0])


def paraproduct_remainder(a, b, strict=True):
    """R = ab - T_a b - T_b a with a single-grid smoothness-gain diagnostic.

    order_gain compares the fitted H^s slope of R against the product ab:
    positive means the remainder's spectral content sits at lower frequency.
    Asymptotic remainder orders need the multi-resolution study
    (refinement_ratios) instead; single-grid norms cannot see past Nyquist.
    """
    if strict:
        _check_resolved(a)
        _check_resolved(b)
    prod = Field(a.grid, a.values * b.values)
    tab = paradiff_apply(a, b)
    tba = paradiff_apply(b, a)
    R = Field(a.grid, prod.values - tab.values - tba.values)
    gain = sobolev_slope(prod) - sobolev_slope(R)
    return R, gain


def paralinearization_remainder(F, Fprime, u, strict=True):
    """R = F(u) - T_{F'(u)} u for scalar smooth F with F(0) = 0."""
    if strict:
        _check_resolved(u)
    uvals = np.real(u.values)
    Fu = Field(u.grid, np.asarray(F(uvals), dtype=np.complex128))
    coeff = Field(u.grid, np.asarray(Fprime(uvals), dtype=np.complex128))
    TFu = paradiff_apply(coeff, u)
    R = Field(u.grid, Fu.values - TFu.values)
    gain = sobolev_slope(Fu) - sobolev_slope(R)
    return R, gain


def rough_field_family(alpha, length, seed=0, n_max=4096):
    """Truncations of one real random distribution with spectrum ~ <xi>^{-alpha-1/2}.

    Returns a callable n -> Field; the H^s norms grow like n^{s-alpha} for
    s > alpha under refinement, which is what the remainder-order diagnostics
    measure against.
    """
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random(n_max // 2 + 1))

    def make(n):
        if n > n_max:
            raise ValueError(f"family defined up to n_max={n_max}")
        grid = Grid(n, length)
        coeffs = np.zeros(n, dtype=np.complex128)
        k = grid.axis_wavenumbers()
        xi = grid.axis_frequencies()
        for i in range(n):
            ki = k[i]
            if ki == 0:
                continue
            if 0 < ki <= n_max // 2:
                coeffs[i] = phases[ki] * (1.0 + xi[i] ** 2) ** (-(alpha + 0.5) / 2.0)
        vals = np.fft.ifft(coeffs) * n / length
        return Field(grid, 2.0 * np.real(vals).astype(np.complex128))

    return make


def refinement_ratios(field_at, s):
    """||field_at(n)||_{H^s} at n = 256, 512, 1024, plus the per-doubling log2 growth."""
    resolutions = (256, 512, 1024)
    norms = [weighted_norm(field_at(n), s, 0.0) for n in resolutions]
    doublings = math.log2(resolutions[-1] / resolutions[0])
    growth = math.log2(max(norms[-1], 1e-300) / max(norms[0], 1e-300)) / doublings
    return norms, growth


def dn_taylor(dom, psi, M=4):
    """Taylor expansion sum_{k<=M} G_k(eta) psi about the flat surface.

    G_0 = |D| tanh(b|D|) and the standard recursion, built from the
    vertical-mode multipliers L_{2k} = |D|^{2k}, L_{2k+1} = |D|^{2k} G_0 of
    the cosh profile.  Term norms are monitored; a consecutive-term ratio of
    1 or more aborts with advice to use the elliptic solver.  Returns the
    partial sum.
    """
    grid = dom.grid
    b = dom.b
    eta = np.real(dom.eta.values)
    absxi = np.abs(grid.axis_frequencies())
    g0_mult = absxi * np.tanh(b * absxi)

    def L_apply(m, f):
        # L_m = d_z^m of the flat harmonic profile at z = 0: even powers are
        # |D|^m, odd powers pick up one factor of G_0 (all even multipliers)
        if m == 0:
            return f
        if m % 2 == 0:
            mult = absxi ** m
        else:
            mult = absxi ** (m - 1) * g0_mult
        return lattice_multiplier_apply(f, lambda xi, mult=mult: mult)

    eta_pows = [np.ones_like(eta)]
    for m in range(1, M + 1):
        eta_pows.append(eta_pows[-1] * eta / m)  # eta^m / m!

    eta_x = np.real(_x_derivative(dom.eta).values)

    fs = [psi]
    for j in range(1, M + 1):
        acc = np.zeros_like(psi.values)
        for m in range(1, j + 1):
            acc += eta_pows[m] * L_apply(m, fs[j - m]).values
        fs.append(Field(grid, -acc))

    total = np.zeros_like(psi.values)
    prev = None
    for k in range(0, M + 1):
        term = np.zeros_like(psi.values)
        for m in range(0, k + 1):
            term += eta_pows[m] * L_apply(m + 1, fs[k - m]).values
        for m in range(0, k):
            inner = L_apply(m, fs[k - 1 - m])
            term -= eta_x * eta_pows[m] * _x_derivative(inner).values
        total += term
        nrm = float(np.sqrt(np.sum(np.abs(term) ** 2)) * grid.spacing ** 0.5)
        if prev is not None and prev > 0 and nrm / prev >= 1.0:
            raise TaylorDivergenceError(
                f"term ratio {nrm / prev:.3f} >= 1 at order {k}; use dn_elliptic"
            )
        prev = nrm if nrm > 0 else prev
    return Field(grid, total)


@dataclass
class SurfaceDerivatives:
    """Vectorized surface derivatives for symbol factories (d = 1)."""

    etap: callable  # x -> eta'(x)
    etapp: callable  # x -> eta''(x)


def surface_from_field(eta):
    """Spectral-derivative adapter: eta', eta'' evaluated at arbitrary x by
    sampling the nearest grid node."""
    grid = eta.grid
    etap, etapp = _slopes(eta)
    return SurfaceDerivatives(_node_sampler(etap, grid), _node_sampler(etapp, grid))


def dn_symbols(surface):
    """Boundary symbols of G(eta) in one dimension, as callables a(x, xi).

    With c = 1/(1+eta'^2), a_pm^(1) = c (i eta' xi +- |xi|) are the roots of
    (1+eta'^2) a^2 - 2 i eta' xi a - xi^2, the principal symbol of the
    flattened Laplacian, and lambda^(1) = |xi|.  a_pm^(0) and lambda^(0) are
    the order-0 terms of the factorization.  `surface` provides vectorized
    eta', eta''.  Returns {"lambda1", "lambda0", "a_plus", "a_minus"}, the
    last two dicts {1: a^(1), 0: a^(0)}.
    """
    etap, etapp = surface.etap, surface.etapp

    def a1(sign):
        def f(x, xi):
            gp = etap(x)
            return (1j * gp * xi + sign * np.abs(xi)) / (1.0 + gp ** 2)

        return f

    a1p, a1m = a1(+1.0), a1(-1.0)

    def d_x_a1p(x, xi):
        gp, gpp = etap(x), etapp(x)
        c = 1.0 / (1.0 + gp ** 2)
        return 1j * c * gpp * xi - 2.0 * gp * gpp * c * a1p(x, xi)

    def a0(sign):
        # -+(i d_xi a_-^(1) d_x a_+^(1) - c eta'' a_pm^(1)) / (a_+^(1) - a_-^(1)), 0 at xi = 0
        def f(x, xi):
            gp, gpp = etap(x), etapp(x)
            c = 1.0 / (1.0 + gp ** 2)
            d_xi_a1m = c * (1j * gp - np.sign(xi))
            num = 1j * d_xi_a1m * d_x_a1p(x, xi) - c * gpp * (a1p if sign > 0 else a1m)(x, xi)
            a = np.abs(xi)
            safe = np.where(a > 0.0, a, 1.0)
            return np.where(a > 0.0, -sign * num / (2.0 * c * safe), 0.0)

        return f

    def lam0(x, xi):
        # (1+eta'^2)/(2 |xi|) { d_x(a_+^(1) eta') + i sign(xi) d_x a_+^(1) }, 0 at xi = 0
        gp, gpp = etap(x), etapp(x)
        ax = d_x_a1p(x, xi)
        a = np.abs(xi)
        safe = np.where(a > 0.0, a, 1.0)
        div_term = ax * gp + a1p(x, xi) * gpp
        lam = (1.0 + gp ** 2) / (2.0 * safe) * (div_term + 1j * np.sign(xi) * ax)
        return np.where(a > 0.0, lam, 0.0)

    return {
        "lambda1": lambda x, xi: np.broadcast_to(np.abs(xi), np.broadcast(x, xi).shape),
        "lambda0": lam0,
        "a_plus": {1: a1p, 0: a0(+1.0)},
        "a_minus": {1: a1m, 0: a0(-1.0)},
    }


def shape_derivative_check(dom, psi, phi_dir, h_fd=1e-4):
    """Relative error of the shape-derivative identity
    dG(eta)[phi] psi = -G(eta)(B phi) - d_x(V phi), with centered differences."""
    grid = dom.grid
    phi = np.real(phi_dir.values)

    def G_at(eta_vals):
        d = FluidDomain(grid, Field(grid, eta_vals.astype(np.complex128)), dom.b, dom.nz)
        return dn_elliptic(d, psi)

    eta0 = np.real(dom.eta.values)
    Gp = G_at(eta0 + h_fd * phi)
    Gm = G_at(eta0 - h_fd * phi)
    fd = (Gp.values - Gm.values) / (2.0 * h_fd)

    B, V = b_v_fields(dom, psi)
    Bphi = Field(grid, B.values * phi)
    term1 = dn_elliptic(dom, Bphi)
    Vphi = Field(grid, V.values * phi)
    term2 = _x_derivative(Vphi)
    formula = -term1.values - term2.values

    ref = l2_norm(dn_elliptic(dom, psi))
    err = float(np.sqrt(np.sum(np.abs(fd - formula) ** 2) * grid.spacing))
    return err / ref
