"""Quasi-homogeneous quantization, dyadic partitions and wavefront probing.

op_quantize realizes the Kohn-Nirenberg action of a(h^delta x, h^rho xi):

    (op u)(x) = (2 pi)^-1 * sum_xi exp(i x xi) a(h^delta x, h^rho xi) uhat(xi) dxi.

Wavefront orders are estimated by sweeping h over a geometric grid, applying
a window symbol elliptic at the probe point, and regressing log L2-norm
against log h: decay O(h^mu) shows up as slope mu.  probe_sweep, the one
probe loop, returns a ProbeResult per ProbeSpec and finishes the report.

Probe-loop cost: one forward FFT, one L2 norm of u and one chirp table of n
(n even) or 2n (n odd) phases per probe_sweep.  For each h the window's
factors are evaluated only on the index runs its support balls cover (nk
frequencies, nm points); one chirp-z zoom, a circular convolution at the
least 5-smooth length >= nk + nm - 1, takes them from frequency to space in
two FFTs, and the windowed norm sums those nm values: no inverse FFT or
Field over the whole lattice.  The kernel spectrum of each distinct
(nk, nm) is one more FFT per sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .errors import ConfigError, MultiplierError
from .grid import Field, Grid, boundary_mass_fraction, l2_norm, spectrum
from .symbols import Symbol, dyadic_pieces, window_radii, window_symbol

__all__ = [
    "op_quantize",
    "DyadicPartition",
    "make_dyadic_partition",
    "valid_h_grid",
    "shared_h_grid",
    "estimate_decay_order",
    "ProbeSpec",
    "ProbeResult",
    "WavefrontReport",
    "probe_sweep",
    "is_singular_at_order",
    "TOL_ORDER",
    "NORM_FLOOR",
]

TOL_ORDER = 0.5  # membership tolerance: regression slopes on 6-8 points carry ~0.2-0.4 noise
NORM_FLOOR = 1e-14
MIN_H = 6  # the fewest shared h values an experiment probes on


def _dense_apply(a, u, h, delta, rho):
    grid = u.grid
    x = grid.axis_points()
    xi = grid.axis_frequencies()
    uhat = spectrum(u)
    phase = (-1.0) ** grid.axis_wavenumbers()
    out = np.empty(grid.n, dtype=np.complex128)
    hx = h ** delta
    hxi = h ** rho
    chunk = 512
    for lo in range(0, grid.n, chunk):
        hi = min(lo + chunk, grid.n)
        block = np.asarray(a(hx * x[lo:hi, None], hxi * xi[None, :]), dtype=np.complex128)
        rows = np.fft.ifft(phase[None, :] * (block * uhat[None, :]), axis=1) / grid.spacing
        out[lo:hi] = rows[np.arange(hi - lo), np.arange(lo, hi)]
    return Field(grid, out)


def _smooth_length(m):
    """The least 2^a 3^b 5^c >= m (m >= 1): for each 3^b 5^c below the next
    power of two, the least power-of-two multiple that reaches m."""
    best = 1 << (m - 1).bit_length()
    odd = 1
    while odd < best:
        f = odd
        while f < best:
            best = min(best, f << (-(-m // f) - 1).bit_length())
            f *= 3
        odd *= 5
    return best


class _ZoomContext:
    """The chirp-z zooms of one probed field, on a lattice of n points.

    table holds T[r] = exp(i pi r^2 / n) over one period P in r (n for even
    n, 2n for odd n), built once; every chirp of a zoom is a run of it.
    Since T[P - r] = T[r], only r <= P/2 is evaluated.  The spectrum of each
    convolution kernel is computed at the first zoom of its (nk, nm) and
    kept in kernels.
    """

    def __init__(self, n):
        self.n = n
        period = n if n % 2 == 0 else 2 * n
        half = np.arange(period // 2 + 1)
        phase = (np.pi / n) * ((half * half) % (2 * n))  # exact integer mod 2n
        table = np.empty(period, dtype=np.complex128)
        np.cos(phase, out=table.real[:len(half)])
        np.sin(phase, out=table.imag[:len(half)])
        table[len(half):] = table[period - len(half):0:-1]
        self.table = table
        self.kernels = {}

    def _run(self, start, length):
        """T[start .. start + length - 1], indices mod the period, for
        0 <= start < period and length <= period."""
        t = self.table
        stop = start + length
        if stop <= len(t):
            return t[start:stop]
        return np.concatenate((t[start:], t[:stop - len(t)]))

    def _kernel(self, nk, nm):
        """(transform length, spectrum of the kernel conj(T[|d|]) placed at
        d mod length for 1 - nk <= d < nm)."""
        key = (nk, nm)
        if key not in self.kernels:
            size = _smooth_length(nk + nm - 1)
            t = self.table
            kernel = np.zeros(size, dtype=np.complex128)
            kernel[:nm] = t[:nm]
            kernel[size - nk + 1:] = t[nk - 1:0:-1]
            self.kernels[key] = size, np.fft.fft(np.conj(kernel, out=kernel))
        return self.kernels[key]

    def ifft(self, c, k0, j0, nm):
        """np.fft.ifft(full)[(j0 + arange(nm)) % n], where full has length
        n, is c[p] at index (k0 + p) % n and zero elsewhere; 0 <= k0, j0 < n.

        Chirp-z (Bluestein) form: with 2 q p = q^2 + p^2 - (q - p)^2 the sum
        over p becomes one circular convolution of length >= nk + nm - 1,
        the least 5-smooth one.  Its input chirp T[j0 + p] conj(T[j0]),
        kernel conj(T[|q - p|]) and output chirp T[k0 + q] conj(T[k0])
        exp(2 pi i j0 k0 / n) are runs of the table; the constant factors
        fold into one scalar, whose phase is an exact integer mod 2n.
        """
        n, nk = self.n, len(c)
        size, kernel_fft = self._kernel(nk, nm)
        conv = np.fft.ifft(np.fft.fft(c * self._run(j0, nk), size) * kernel_fft)
        t = self.table
        scale = np.conj(t[j0] * t[k0]) * np.exp(1j * np.pi / n * ((2 * j0 * k0) % (2 * n))) / n
        out = conv[:nm]
        out *= self._run(k0, nm)
        out *= scale
        return out


def _ball_run(center, radius, step, origin, lo, hi):
    """Indices i in [lo, hi] of the points origin + step i in the open ball
    |. - center| < radius, widened by one index at each end: every point
    strictly inside lies in the run, and each end lies at or beyond the ball's
    edge (or is the end of [lo, hi]).  Returns (first index, length >= 1)."""
    first = min(max(math.ceil((center - radius - origin) / step) - 1, lo), hi)
    last = min(max(math.floor((center + radius - origin) / step) + 1, lo), hi)
    return first, last - first + 1


def _support_runs(a, grid, hx, hxi):
    """((j0, nm), (k0, nk)): the run of point indices j0 .. j0 + nm - 1 and the
    run of signed mode numbers k0 .. k0 + nk - 1 on which a's factors, at
    scales hx in x and hxi in xi, can be nonzero.  All of each axis without a
    support hint."""
    n = grid.n
    if a.support is None:
        return (0, n), (-n // 2, n)
    (x0, r_x), (xi0, r_xi) = a.support
    return (
        _ball_run(x0, r_x, hx * grid.spacing, -0.5 * hx * grid.length, 0, n - 1),
        _ball_run(xi0, r_xi, hxi * grid.freq_spacing, 0.0, -n // 2, n // 2 - 1),
    )


def _quantize_run(a, u_fft, grid, h, delta, rho, zoom):
    """(j0, values): op_h^{delta,rho}(a) u on its x run j0 .. j0 + nm - 1, zero
    off it, for a Symbol a, u_fft = np.fft.fft(u.values) and the field's
    _ZoomContext zoom."""
    n = grid.n
    hx, hxi = h ** delta, h ** rho
    (j0, nm), (k0, nk) = _support_runs(a, grid, hx, hxi)
    # sample points and frequencies rounded as Grid.axis_points and
    # Grid.axis_frequencies (np.fft.fftfreq) round them
    x = hx * (-0.5 * grid.length + grid.spacing * np.arange(j0, j0 + nm))
    modes = np.arange(k0, k0 + nk)
    xi = hxi * (2.0 * np.pi * (modes * (1.0 / (n * grid.spacing))))
    a0 = k0 % n  # a negative mode k sits at index n + k
    if a0 + nk <= n:
        u_fft_run = u_fft[a0:a0 + nk]
    else:  # the run crosses mode 0 from the negative side
        u_fft_run = np.concatenate((u_fft[a0:], u_fft[:a0 + nk - n]))
    acc = np.zeros(nm, dtype=np.complex128)
    for (cx, mxi) in a.separable:
        m = np.asarray(mxi(xi), dtype=np.complex128)
        if not np.all(np.isfinite(m)):
            raise MultiplierError("multiplier is not finite on the dual lattice")
        acc += np.asarray(cx(x), dtype=np.complex128) * zoom.ifft(m * u_fft_run, k0 % n, j0, nm)
    if not np.all(np.isfinite(acc)):
        raise ValueError("field contains non-finite entries")
    return j0, acc


def op_quantize(a, u, h, delta, rho):
    """Apply op_h^{delta,rho}(a) to u.

    A Symbol takes the fast path sum_m c_m(h^delta x) m_m(h^rho xi): each
    m_m is evaluated only on the run of modes that a.support's xi ball covers
    and multiplied into fft(u) there; one chirp-z zoom per term takes those
    nk values to the nm points of the x ball's run, where c_m is evaluated
    (both runs are whole axes without a support hint).  The output is zero
    off the x run.  Any other callable a(x, xi) is swept densely over the
    phase-space lattice, so lambda x, xi: a(x, xi) gives the dense reference
    for a Symbol a.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    if delta < 0 or rho < 0:
        raise ValueError("delta and rho must be nonnegative")
    grid = u.grid
    if not isinstance(a, Symbol):
        return _dense_apply(a, u, h, delta, rho)
    j0, run = _quantize_run(a, np.fft.fft(u.values), grid, h, delta, rho, _ZoomContext(grid.n))
    out = np.zeros(grid.n, dtype=np.complex128)
    out[j0:j0 + len(run)] = run
    return Field(grid, out)


# -- dyadic partitions ---------------------------------------------------------


@dataclass
class DyadicPartition:
    """Dyadic partition of unity: supp psi_j in {2^(j-1) <= |x| <= 2^(j+1)}."""

    grid: Grid
    pieces: list = dc_field(repr=False)  # list of ndarray samples, index j = 0..J

    @property
    def J(self):
        return len(self.pieces) - 1

    def neighbor_sum(self, j, width):
        """psi~_j = sum_{|k-j| <= width} psi_k, clipped to the available range."""
        lo = max(0, j - width)
        hi = min(self.J, j + width)
        acc = np.zeros_like(self.pieces[0])
        for k in range(lo, hi + 1):
            acc = acc + self.pieces[k]
        return acc


def make_dyadic_partition(grid):
    """Build the telescoped partition psi_0 + psi_1 + ... = 1.

    Uses theta_j(x) = Theta(|x| / 2^j) with Theta = 1 on r <= 1 and 0 on
    r >= 2, and psi_j = theta_j - theta_{j-1}; the telescoping makes the sum
    exactly 1, and psi_j lives on the ring from the previous plateau edge
    2^(j-1) to the support edge 2^(j+1).
    """
    r = np.abs(grid.axis_points())
    J = max(0, math.ceil(math.log2(0.5 * grid.length)))
    if J < 3:
        raise ConfigError(
            f"grid too small for a dyadic partition: needs >= 3 rings, box gives J={J}"
        )

    return DyadicPartition(grid, dyadic_pieces(r, J))


# -- wavefront probing ---------------------------------------------------------


def valid_h_grid(grid, x0, xi0, delta, rho, h_grid):
    """Drop h values whose scaled window leaves the box or passes Nyquist.

    The window around (x0, xi0), of radii window_radii(x0, xi0) = (r_x, r_xi),
    occupies |x| <= h^-delta (|x0| + r_x) and |xi| <= h^-rho (|xi0| + r_xi);
    quantization pushes mass there, so the discrete box must contain it,
    within a 5% margin.
    """
    r_x, r_xi = window_radii(x0, xi0)
    keep = []
    for h in h_grid:
        x_reach = h ** (-delta) * (abs(float(x0)) + r_x)
        xi_reach = h ** (-rho) * (abs(float(xi0)) + r_xi)
        if x_reach <= 0.95 * 0.5 * grid.length and xi_reach <= 0.95 * grid.nyquist:
            keep.append(h)
    return keep


def shared_h_grid(grid, points, delta, rho, h_grid):
    """The h values of h_grid that valid_h_grid keeps at every (x, xi) in points.

    Raises ConfigError when fewer than MIN_H remain.
    """
    hs = list(h_grid)
    for (x, xi) in points:
        hs = valid_h_grid(grid, x, xi, delta, rho, hs)
    if len(hs) < MIN_H:
        raise ConfigError(
            f"only {len(hs)} h values fit the box/Nyquist budget (need {MIN_H}); "
            "shrink |x0|, |xi0|, |t0| or the h range"
        )
    return hs


def _fit_loglog(hs, norms):
    logs = np.log(np.asarray(hs))
    logn = np.log(np.asarray(norms))
    A = np.vstack([logs, np.ones_like(logs)]).T
    coef, *_ = np.linalg.lstsq(A, logn, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((logn - pred) ** 2))
    ss_tot = float(np.sum((logn - np.mean(logn)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    sxx = float(np.sum((logs - np.mean(logs)) ** 2))
    # the slope's standard error s / sqrt(Sxx), s^2 = SSR / (k - 2); inf if every h is equal
    stderr = math.sqrt(ss_res / (len(logs) - 2) / sxx) if sxx > 0.0 else math.inf
    return float(coef[0]), r2, stderr


def _decay_fit(u_fft, u_norm, grid, spec, h_grid, zoom):
    """The ProbeResult of spec from u_fft = np.fft.fft(u.values), u_norm = ||u||
    and the field's _ZoomContext zoom."""
    x0, xi0, delta, rho = spec.x0, spec.xi0, spec.delta, spec.rho
    if delta < 0 or rho < 0:
        raise ValueError("delta and rho must be nonnegative")
    window = window_symbol(x0, xi0)
    h_grid = valid_h_grid(grid, x0, xi0, delta, rho, h_grid)
    if len(h_grid) < 3:
        raise ConfigError("fewer than 3 usable h values after box/Nyquist truncation")
    floor = NORM_FLOOR * max(u_norm, 1e-300)
    runs = (_quantize_run(window, u_fft, grid, h, delta, rho, zoom)[1] for h in h_grid)
    measured = [float(np.sqrt(np.sum(np.abs(run) ** 2) * grid.spacing)) for run in runs]
    hs = [h for h, val in zip(h_grid, measured) if val > floor]
    norms = [val for val in measured if val > floor]
    if len(hs) < 3:
        mu_hat, r2, stderr, hs, norms = math.inf, 1.0, math.inf, list(h_grid), measured
    else:
        mu_hat, r2, stderr = _fit_loglog(hs, norms)
    return ProbeResult(**vars(spec), mu_hat=mu_hat, r2=r2, stderr=stderr, h_used=hs, norms=norms)


def estimate_decay_order(u, x0, xi0, delta, rho, h_grid):
    """Fit log ||op_h(window) u||_L2 against log h; slope = decay order mu_hat.

    The window is window_symbol(x0, xi0).  Returns the ProbeResult of the
    h values whose norm clears the numerical floor, their norms, and mu_hat
    with its standard error; when fewer than 3 clear it, mu_hat = stderr =
    +inf (rapid decay beyond measurability) and the result lists every valid
    h with its measured norm.  Raises ConfigError when fewer than 3 h values
    fit the box and Nyquist budget.
    """
    return probe_sweep(u, [ProbeSpec(x0, xi0, delta, rho)], h_grid).probes[0]


def is_singular_at_order(mu_hat, sigma, tol_order=TOL_ORDER):
    """Membership rule: report 'singular at order sigma' when mu_hat < sigma - tol."""
    return mu_hat < sigma - tol_order


@dataclass
class ProbeSpec:
    x0: float
    xi0: float
    delta: float
    rho: float
    label: str = ""


@dataclass
class ProbeResult:
    x0: float
    xi0: float
    delta: float
    rho: float
    mu_hat: float
    r2: float
    label: str = ""
    h_used: list = dc_field(default_factory=list)
    norms: list = dc_field(default_factory=list)
    stderr: float = math.inf  # standard error of mu_hat; inf with mu_hat


@dataclass
class WavefrontReport:
    """Decay-order estimates over a family of phase-space probes."""

    probes: list
    h_grid: list
    tolerances: dict = dc_field(default_factory=lambda: {"tol_order": TOL_ORDER})
    meta: dict = dc_field(default_factory=dict)

    def by_label(self, label):
        return [p for p in self.probes if p.label == label]

    def mu(self, label):
        hits = self.by_label(label)
        if not hits:
            raise KeyError(f"no probe labelled {label!r}")
        return hits[0].mu_hat

    def separation(self):
        """Least control mu_hat minus the predicted mu_hat.

        None without a predicted or a control probe; inf when the least
        control mu_hat is inf.
        """
        ctrl = [p.mu_hat for p in self.probes if p.label.startswith("control")]
        if not ctrl or not self.by_label("predicted"):
            return None
        lo = min(ctrl)
        return math.inf if math.isinf(lo) else lo - self.mu("predicted")

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        """The report of a to_dict; a probe without a stderr loads with stderr = inf."""
        return cls([ProbeResult(**p) for p in d["probes"]], list(d["h_grid"]),
                   dict(d.get("tolerances", {})), d.get("meta", {}))

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def probe_sweep(u, specs, h_grid, meta=None):
    """The WavefrontReport of u's decay orders at each ProbeSpec (window_symbol).

    Its meta is meta plus what every report records: "grid", "boundary_mass"
    (boundary_mass_fraction(u)) and "separation" (the report's separation()).
    """
    grid = u.grid
    u_fft, u_norm, zoom = np.fft.fft(u.values), l2_norm(u), _ZoomContext(grid.n)
    report = WavefrontReport(
        [_decay_fit(u_fft, u_norm, grid, spec, h_grid, zoom) for spec in specs], list(h_grid),
        meta={**(meta or {}), "grid": {"n": grid.n, "length": grid.length},
              "boundary_mass": boundary_mass_fraction(u)},
    )
    report.meta["separation"] = report.separation()
    return report
