"""Periodic grids, discrete Fourier transforms, wave packets and multipliers.

The box is [-L/2, L/2) with n points and dual frequencies xi_k = 2 pi k / L,
k in [-n/2, n/2).  The transform convention is the Riemann-sum approximation
of the continuum transform,

    fhat(xi) = dx * sum_x f(x) exp(-i x xi),
    f(x)     = (2 pi)^-1 * sum_xi fhat(xi) exp(i x xi) * dxi,

so that the discrete Parseval identity  sum |f|^2 dx = sum |fhat|^2 dxi/(2pi)
holds exactly and continuum formulas transfer verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, MultiplierError, UnderResolvedError

__all__ = [
    "Grid",
    "Field",
    "transform",
    "spectrum",
    "multiplier_apply",
    "wave_packet",
    "l2_norm",
    "inner",
    "boundary_mass_fraction",
]


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)."""

    n: int
    length: float

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0 or not _is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (self.length > 0):
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def spacing(self):
        return self.length / self.n

    @property
    def freq_spacing(self):
        return 2.0 * np.pi / self.length

    @property
    def nyquist(self):
        return np.pi * self.n / self.length

    def axis_points(self):
        return -0.5 * self.length + self.spacing * np.arange(self.n)

    def axis_frequencies(self):
        """Dual frequencies in FFT order, 2 pi k / L with integer k."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)

    def axis_wavenumbers(self):
        """Integer mode numbers k in FFT order."""
        return np.rint(np.fft.fftfreq(self.n) * self.n).astype(int)

    def dual(self):
        """Grid carrying the Fourier transform: spacing dxi, length n*dxi."""
        return Grid(self.n, 2.0 * np.pi * self.n / self.length)

    def compatible(self, other):
        return self.n == other.n and np.isclose(self.length, other.length, rtol=1e-12, atol=0.0)


@dataclass
class Field:
    """Complex samples on a Grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = (self.grid.n,)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != shape:
            raise GridMismatchError(
                f"field shape {self.values.shape} does not match grid shape {shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")

    def copy(self):
        return Field(self.grid, self.values.copy())

    def is_real(self, tol=1e-12):
        scale = np.max(np.abs(self.values)) or 1.0
        return np.max(np.abs(self.values.imag)) <= tol * scale


def _check_same_grid(f, g):
    if not f.grid.compatible(g.grid):
        raise GridMismatchError("fields live on different grids")


def _phase(grid):
    return (-1.0) ** grid.axis_wavenumbers()  # exp(-i x_0 xi_k) for x_0 = -L/2


def transform(f, direction="forward"):
    """Discrete Fourier transform between a grid and its dual.

    The forward output is a Field on f.grid.dual() whose sample points are the
    frequencies xi_k in increasing order; inverse(forward(f)) == f.
    """
    grid = f.grid
    ph = _phase(grid)
    if direction == "forward":
        vals = grid.spacing * ph * np.fft.fft(f.values)
        return Field(grid.dual(), np.fft.fftshift(vals))
    if direction == "inverse":
        dual = grid.dual()
        vals = np.fft.ifft(_phase(dual) * np.fft.ifftshift(f.values))
        return Field(dual, vals / dual.spacing)
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def spectrum(f):
    """FFT-ordered spectral coefficients fhat(xi_k) (no shift)."""
    return f.grid.spacing * _phase(f.grid) * np.fft.fft(f.values)


def multiplier_apply(f, m):
    """Apply the Fourier multiplier m(xi): inverse(m * forward(f)).

    m is called with the FFT-ordered frequency array.  The Nyquist bin keeps
    only the even part of m, (m(-xi_N) + m(xi_N)) / 2: the lattice carries a
    single bin for +-xi_N, so an odd component would alias asymmetrically.
    The boundary-offset phases cancel for diagonal multipliers, so this is a
    plain fft/ifft sandwich.  A multiplier that is not finite on the lattice
    raises MultiplierError.
    """
    grid = f.grid
    xi = grid.axis_frequencies()
    vals = np.asarray(m(xi), dtype=np.complex128)
    vals = np.broadcast_to(vals, (grid.n,)).copy()
    x_nyq = xi[grid.n // 2]  # k = -n/2
    vals[grid.n // 2] = 0.5 * (np.complex128(m(np.array(x_nyq))) + np.complex128(m(np.array(-x_nyq))))
    if not np.all(np.isfinite(vals)):
        raise MultiplierError("multiplier is not finite on the dual lattice")
    out = np.fft.ifft(vals * np.fft.fft(f.values))
    return Field(grid, out)


# exp(-t) is exactly 0.0 in double precision for t > 745.2.
_EXP_UNDERFLOW = 750.0


def _packet_run(grid, x0, xi0, width):
    """(a, run): the unnormalized wave_packet equals run on the indices
    a..a+len(run)-1 and 0.0 elsewhere.

    Sums the images x0 + m L, |m| <= 3.  Each image's Gaussian is evaluated
    only on the index slice, rounded outward, where its exponent is at least
    -_EXP_UNDERFLOW: its exp is 0.0 at every other grid point.  The run spans
    every such slice, so near a box edge it can be the whole axis.  The
    carrier is evaluated only where the envelope is nonzero.
    """
    L = grid.length
    dx = grid.spacing
    reach = np.sqrt(_EXP_UNDERFLOW * 2.0 * width ** 2)
    slices = []
    for mshift in range(-3, 4):
        c = x0 + mshift * L
        lo = max(int(np.floor((c - reach + 0.5 * L) / dx)), 0)
        hi = min(int(np.ceil((c + reach + 0.5 * L) / dx)) + 1, grid.n)
        if lo < hi:
            slices.append((mshift, lo, hi))
    a = min((lo for _, lo, _ in slices), default=0)
    env = np.zeros(max((hi for _, _, hi in slices), default=0) - a)
    for mshift, lo, hi in slices:
        x = -0.5 * L + dx * np.arange(lo, hi)  # grid.axis_points()[lo:hi]
        part = slice(lo - a, hi - a)
        env[part] = env[part] + np.exp(-((x - x0 - mshift * L) ** 2) / (2.0 * width ** 2))
    on = np.flatnonzero(env)
    run = np.zeros(len(env), dtype=np.complex128)
    run[on] = np.exp(1j * xi0 * (-0.5 * L + dx * (a + on))) * env[on]
    return a, run


def wave_packet(grid, x0, xi0, width, normalize=False):
    """Gaussian wave packet exp(i xi0 x) exp(-|x-x0|^2 / 2 w^2), periodized.

    The images x0 + m L, |m| <= 3, are summed on _packet_run's index run
    only; the field is 0.0 off that run.  normalize=True divides by the
    l2_norm of the full field.
    """
    if width < 2.0 * grid.spacing:
        raise UnderResolvedError(
            f"packet width {width} below 2*dx = {2.0 * grid.spacing}"
        )
    a, run = _packet_run(grid, x0, xi0, width)
    vals = np.zeros(grid.n, dtype=np.complex128)
    vals[a:a + len(run)] = run
    out = Field(grid, vals)
    if normalize:
        out.values /= l2_norm(out)
    return out


def l2_norm(f):
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.spacing))


def inner(f, g):
    """L^2 inner product <f, g> = sum f conj(g) dx."""
    _check_same_grid(f, g)
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.spacing)


def boundary_mass_fraction(f):
    """Fraction of the L^2 mass of f within 0.1 L of the box boundary.

    The periodic box stands in for the line only as far as f stays away from
    its edges; the experiments record this number for the field they probe.
    It measures where the mass sits, not the error that periodization makes.
    """
    grid = f.grid
    mask = np.abs(grid.axis_points()) >= 0.4 * grid.length
    total = np.sum(np.abs(f.values) ** 2)
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(f.values[mask]) ** 2) / total)
