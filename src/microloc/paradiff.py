"""Bony paradifferential operators T_a and their dyadic localization P_a.

T_a keeps only the low-frequency part of the coefficient against the high
frequencies of the argument:

    (T_a u)^(xi) = (2 pi)^-1 sum_eta chi(xi - eta, eta) pi(eta)
                   ahat(xi - eta, eta) uhat(eta) deta,

with (chi, pi) an admissible pair: pi a low-frequency cutoff and chi a
homogeneous-degree-zero cutoff with chi = 1 on |theta| <= eps1 |eta| and
chi = 0 on |theta| >= eps2 |eta|.  P_a = sum_j psi~_j T_{psi_j a} psi~_j
localizes T on spatial dyadic rings so polynomial weights act ring by ring.

The symbol transform ahat is taken per frequency column (dense path, for a
plain callable a(x, eta)) or once per term of a Symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, SpectrumUnresolvedError
from .grid import Field, Grid, spectrum
from .quantize import weighted_norm
from .symbols import Symbol, smoothstep

__all__ = [
    "AdmissiblePair",
    "default_admissible_pair",
    "paradiff_apply",
    "dyadic_paradiff_apply",
    "dyadic_neighbor_width",
    "paraproduct_remainder",
    "paralinearization_remainder",
    "rough_field_family",
    "refinement_ratios",
    "sobolev_slope",
]


@dataclass(frozen=True)
class AdmissiblePair:
    """Cutoff pair (chi, pi) with chi(theta,eta) supported in |theta| <= eps2 |eta|."""

    eps1: float = 0.1
    eps2: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.eps1 < self.eps2 < 1.0):
            raise ValueError("need 0 < eps1 < eps2 < 1")

    def chi(self, theta, eta):
        r = np.abs(theta) / np.maximum(np.abs(eta), 1e-300)
        return smoothstep((self.eps2 - r) / (self.eps2 - self.eps1))

    def pi(self, eta):
        return smoothstep((np.abs(eta) - 0.5) / 0.5)


def default_admissible_pair():
    return AdmissiblePair(0.1, 0.5)


_CHI_CACHE = {}


def _chi_matrix(adm, grid):
    """chi((t - c) dxi, eta_j) indexed by theta-slot t and sorted-frequency j."""
    key = (adm.eps1, adm.eps2, grid.n, grid.length)
    if key not in _CHI_CACHE:
        n = grid.n
        dxi = grid.freq_spacing
        t = (np.arange(n) - n // 2) * dxi
        eta = np.fft.fftshift(grid.axis_frequencies())
        _CHI_CACHE.clear()  # keep at most one grid resident; the matrix is large
        _CHI_CACHE[key] = adm.chi(t[:, None], eta[None, :])
    return _CHI_CACHE[key]


def _sorted_spectrum(u):
    return np.fft.fftshift(spectrum(u))


def _field_from_sorted_spectrum(grid, out_hat):
    phase = (-1.0) ** grid.axis_wavenumbers()
    vals = np.fft.ifft(phase * np.fft.ifftshift(out_hat)) / grid.spacing
    return Field(grid, vals)


def _as_terms(a, grid):
    """Normalize the symbol argument to a list of (x-samples, m(eta) values) terms.

    Returns (terms, dense_matrix): exactly one of the two is not None.
    """
    x = grid.axis_points()
    eta = np.fft.fftshift(grid.axis_frequencies())
    if isinstance(a, Field):
        return [(a.values.astype(np.complex128), np.ones(grid.n))], None
    if isinstance(a, np.ndarray):
        return [(a.astype(np.complex128), np.ones(grid.n))], None
    if isinstance(a, Symbol):
        return [(np.asarray(cx(x), dtype=np.complex128),
                 np.asarray(mxi(eta), dtype=np.complex128)) for (cx, mxi) in a.separable], None
    if callable(a):
        dense = np.asarray(a(x[:, None], eta[None, :]), dtype=np.complex128)
        return None, dense
    raise TypeError(f"cannot interpret symbol argument of type {type(a)}")


def paradiff_apply(a, u, adm=None, x_window=None):
    """Apply the paradifferential operator T_a to u.

    a may be a Symbol (applied term by term), a Field/array of x-samples
    (purely x-dependent symbol, e.g. T_B), or a callable a(x, eta).  x_window,
    when given, multiplies the symbol by a spatial window (used by P_a).  The
    (theta, eta) sum is gathered 512 frequency columns at a time.
    """
    grid = u.grid
    if adm is None:
        adm = default_admissible_pair()
    n = grid.n
    c = n // 2
    chunk = 512
    eta = np.fft.fftshift(grid.axis_frequencies())
    phase = (-1.0) ** grid.axis_wavenumbers()

    terms, dense = _as_terms(a, grid)
    w_base = adm.pi(eta) * _sorted_spectrum(u) * grid.freq_spacing / (2.0 * np.pi)
    CHI = _chi_matrix(adm, grid)
    out_hat = np.zeros(n, dtype=np.complex128)
    I = np.arange(n)[:, None]

    def fwd_x(col_vals):
        # forward transform of an x-profile, in sorted-theta order
        return np.fft.fftshift(grid.spacing * phase * np.fft.fft(col_vals))

    # (coefficient lookup at (theta, eta) indices, eta weight) per term
    if dense is not None:
        if x_window is not None:
            dense = x_window[:, None] * dense
        Ahat = np.fft.fftshift(
            grid.spacing * phase[:, None] * np.fft.fft(dense, axis=0), axes=0
        )
        gathers = [(lambda T, J: Ahat[T, J], w_base)]
    else:
        gathers = []
        for (cx_vals, m_vals) in terms:
            if x_window is not None:
                cx_vals = x_window * cx_vals
            chat = fwd_x(cx_vals)
            gathers.append((lambda T, J, chat=chat: chat[T], w_base * m_vals))
    for coef, w in gathers:
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            J = np.arange(lo, hi)[None, :]
            TI = I - J + c
            mask = (TI >= 0) & (TI < n)
            TIc = np.clip(TI, 0, n - 1)
            contrib = CHI[TIc, J] * coef(TIc, J) * w[None, lo:hi]
            contrib[~mask] = 0.0
            out_hat += contrib.sum(axis=1)
    return _field_from_sorted_spectrum(grid, out_hat)


def dyadic_neighbor_width(J):
    """The +-10 neighbor sum of the dyadic definition, adapted to available rings."""
    return 10 if J >= 12 else max(2, J // 2)


def dyadic_paradiff_apply(a, u, part, adm=None, width=None):
    """P_a u = sum_j psi~_j T_{psi_j a} (psi~_j u) over the rings of `part`."""
    if not part.grid.compatible(u.grid):
        raise GridMismatchError("partition built on a different grid")
    if adm is None:
        adm = default_admissible_pair()
    if width is None:
        width = dyadic_neighbor_width(part.J)
    out = np.zeros(u.grid.n, dtype=np.complex128)
    for j, psi in enumerate(part.pieces):
        if not np.any(psi):
            continue
        tilde = part.neighbor_sum(j, width)
        uj = Field(u.grid, tilde * u.values)
        tj = paradiff_apply(a, uj, adm=adm, x_window=psi)
        out += tilde * tj.values
    return Field(u.grid, out)


# -- remainder diagnostics -------------------------------------------------------


def _check_resolved(f):
    """Raise unless the top eighth of the spectrum, at either end, is below
    1e-10 times its peak."""
    spec = np.abs(_sorted_spectrum(f))
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


def paraproduct_remainder(a, b, adm=None, strict=True):
    """R = ab - T_a b - T_b a with a single-grid smoothness-gain diagnostic.

    order_gain compares the fitted H^s slope of R against the product ab:
    positive means the remainder's spectral content sits at lower frequency.
    Asymptotic remainder orders need the multi-resolution study
    (refinement_ratios) instead; single-grid norms cannot see past Nyquist.
    """
    if adm is None:
        adm = default_admissible_pair()
    if strict:
        _check_resolved(a)
        _check_resolved(b)
    prod = Field(a.grid, a.values * b.values)
    tab = paradiff_apply(a, b, adm=adm)
    tba = paradiff_apply(b, a, adm=adm)
    R = Field(a.grid, prod.values - tab.values - tba.values)
    gain = sobolev_slope(prod) - sobolev_slope(R)
    return R, gain


def paralinearization_remainder(F, Fprime, u, adm=None, strict=True):
    """R = F(u) - T_{F'(u)} u for scalar smooth F with F(0) = 0."""
    if adm is None:
        adm = default_admissible_pair()
    if strict:
        _check_resolved(u)
    uvals = np.real(u.values)
    Fu = Field(u.grid, np.asarray(F(uvals), dtype=np.complex128))
    coeff = Field(u.grid, np.asarray(Fprime(uvals), dtype=np.complex128))
    TFu = paradiff_apply(coeff, u, adm=adm)
    R = Field(u.grid, Fu.values - TFu.values)
    gain = sobolev_slope(Fu) - sobolev_slope(R)
    return R, gain


# -- multi-resolution refinement instruments -------------------------------------


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


def refinement_ratios(make_field, op, s):
    """||op(field_n)||_{H^s} at n = 256, 512, 1024, plus the per-doubling log2 growth."""
    resolutions = (256, 512, 1024)
    norms = []
    for n in resolutions:
        f = op(make_field(n))
        norms.append(weighted_norm(f, s, 0.0))
    doublings = math.log2(resolutions[-1] / resolutions[0])
    growth = math.log2(max(norms[-1], 1e-300) / max(norms[0], 1e-300)) / doublings
    return norms, growth
