"""Periodic grids, discrete Fourier transforms, wave packets and multipliers.

The box is [-L/2, L/2)^dim with n points per axis and dual frequencies
xi_k = 2 pi k / L, k in [-n/2, n/2).  The transform convention is the
Riemann-sum approximation of the continuum transform,

    fhat(xi) = dx * sum_x f(x) exp(-i x xi),
    f(x)     = (2 pi)^-dim * sum_xi fhat(xi) exp(i x xi) * dxi,

so that the discrete Parseval identity  sum |f|^2 dx = sum |fhat|^2 dxi/(2pi)
holds exactly and continuum formulas transfer verbatim.
"""

from __future__ import annotations

import itertools
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, MultiplierError, UnderResolvedError

__all__ = [
    "Grid",
    "Field",
    "transform",
    "multiplier_apply",
    "wave_packet",
    "l2_norm",
    "inner",
    "boundary_mass_fraction",
    "random_field",
    "save_field",
    "load_field",
    "field_to_csv",
]


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)^dim."""

    n: int
    length: float
    dim: int = 1

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
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

    def points(self):
        """Physical points; shape (n,) in 1D, a meshgrid tuple in 2D."""
        xs = self.axis_points()
        if self.dim == 1:
            return xs
        return np.meshgrid(xs, xs, indexing="ij")

    def frequencies(self):
        """Dual lattice in FFT order; shape (n,) in 1D, meshgrid tuple in 2D."""
        k = self.axis_frequencies()
        if self.dim == 1:
            return k
        return np.meshgrid(k, k, indexing="ij")

    def dual(self):
        """Grid carrying the Fourier transform: spacing dxi, length n*dxi."""
        return Grid(self.n, 2.0 * np.pi * self.n / self.length, self.dim)

    def compatible(self, other):
        return (
            self.n == other.n
            and self.dim == other.dim
            and np.isclose(self.length, other.length, rtol=1e-12, atol=0.0)
        )


@dataclass
class Field:
    """Complex samples on a Grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = (self.grid.n,) * self.grid.dim
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
    # exp(-i x_0 xi_k) = (-1)^k for x_0 = -L/2; one factor per axis.
    p = (-1.0) ** grid.axis_wavenumbers()
    if grid.dim == 1:
        return p
    return np.multiply.outer(p, p)


def transform(f, direction="forward"):
    """Discrete Fourier transform between a grid and its dual.

    The forward output is a Field on f.grid.dual() whose sample points are the
    frequencies xi_k in increasing order; inverse(forward(f)) == f.
    """
    grid = f.grid
    ph = _phase(grid)
    if direction == "forward":
        vals = grid.spacing ** grid.dim * ph * np.fft.fftn(f.values)
        return Field(grid.dual(), np.fft.fftshift(vals))
    if direction == "inverse":
        dual = grid.dual()
        vals = np.fft.ifftn(_phase(dual) * np.fft.ifftshift(f.values))
        return Field(dual, vals / dual.spacing ** grid.dim)
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def spectrum(f):
    """FFT-ordered spectral coefficients fhat(xi_k) (no shift)."""
    return f.grid.spacing ** f.grid.dim * _phase(f.grid) * np.fft.fftn(f.values)


def _evaluate_multiplier(grid, m):
    xi = grid.frequencies()
    vals = np.asarray(m(xi), dtype=np.complex128)
    vals = np.broadcast_to(vals, (grid.n,) * grid.dim).copy()

    # Nyquist bins keep only the even part of m: the lattice carries a single
    # bin for +-xi_N, so any odd component would alias asymmetrically.
    k = grid.axis_wavenumbers()
    nyq_idx = int(np.argmin(k))  # k = -n/2
    xi_axis = grid.axis_frequencies()
    if grid.dim == 1:
        x_nyq = xi_axis[nyq_idx]
        vals[nyq_idx] = 0.5 * (np.complex128(m(np.array(x_nyq))) + np.complex128(m(np.array(-x_nyq))))
    else:
        xiN = xi_axis[nyq_idx]
        for axes in (frozenset([0]), frozenset([1]), frozenset([0, 1])):
            sel = [slice(None), slice(None)]
            for a in axes:
                sel[a] = nyq_idx
            sel = tuple(sel)
            base = [xi[0][sel], xi[1][sel]]
            acc = np.zeros_like(np.asarray(base[0], dtype=np.complex128))
            signs = list(itertools.product(*[(-1.0, 1.0) if a in axes else (1.0,) for a in (0, 1)]))
            for sgn in signs:
                args = (np.asarray(base[0]) * sgn[0], np.asarray(base[1]) * sgn[1])
                acc = acc + np.asarray(m(args), dtype=np.complex128)
            vals[sel] = acc / len(signs)

    if not np.all(np.isfinite(vals)):
        raise MultiplierError("multiplier is not finite on the dual lattice")
    return vals


def multiplier_apply(f, m, nyquist_even=True):
    """Apply the Fourier multiplier m(xi): inverse(m * forward(f)).

    m is called with the FFT-ordered frequency array (a meshgrid tuple in 2D).
    The boundary-offset phases cancel for diagonal multipliers, so this is a
    plain fftn/ifftn sandwich.
    """
    grid = f.grid
    if nyquist_even:
        vals = _evaluate_multiplier(grid, m)
    else:
        vals = np.asarray(m(grid.frequencies()), dtype=np.complex128)
        vals = np.broadcast_to(vals, (grid.n,) * grid.dim)
        if not np.all(np.isfinite(vals)):
            raise MultiplierError("multiplier is not finite on the dual lattice")
    out = np.fft.ifftn(vals * np.fft.fftn(f.values))
    return Field(grid, out)


# exp(-t) is exactly 0.0 in double precision for t > 745.2.
_EXP_UNDERFLOW = 750.0


def _box_gap(c, half):
    """Distance from c to the interval [-half, half]."""
    return max(-half - c, 0.0, c - half)


def wave_packet(grid, x0, xi0, width, normalize=False, n_images=3):
    """Gaussian wave packet exp(i xi0 x) exp(-|x-x0|^2 / 2 w^2), periodized.

    An image whose squared distance to the box, over 2 w^2, exceeds
    _EXP_UNDERFLOW is skipped: its exp is 0.0 at every grid point.
    """
    if width < 2.0 * grid.spacing:
        raise UnderResolvedError(
            f"packet width {width} below 2*dx = {2.0 * grid.spacing}"
        )
    L = grid.length
    half = 0.5 * L
    cut = _EXP_UNDERFLOW * 2.0 * width ** 2
    shifts = range(-n_images, n_images + 1)
    if grid.dim == 1:
        x = grid.axis_points()
        env = np.zeros_like(x)
        for mshift in shifts:
            if _box_gap(x0 + mshift * L, half) ** 2 > cut:
                continue
            env = env + np.exp(-((x - x0 - mshift * L) ** 2) / (2.0 * width ** 2))
        vals = np.exp(1j * xi0 * x) * env
    else:
        x1, x2 = grid.points()
        x0 = np.asarray(x0, dtype=float)
        xi0 = np.asarray(xi0, dtype=float)
        env = np.zeros_like(x1)
        for m1 in shifts:
            for m2 in shifts:
                gap2 = _box_gap(x0[0] + m1 * L, half) ** 2 + _box_gap(x0[1] + m2 * L, half) ** 2
                if gap2 > cut:
                    continue
                r2 = (x1 - x0[0] - m1 * L) ** 2 + (x2 - x0[1] - m2 * L) ** 2
                env = env + np.exp(-r2 / (2.0 * width ** 2))
        vals = np.exp(1j * (xi0[0] * x1 + xi0[1] * x2)) * env
    out = Field(grid, vals)
    if normalize:
        out.values /= l2_norm(out)
    return out


def l2_norm(f):
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.spacing ** f.grid.dim))


def inner(f, g):
    """L^2 inner product <f, g> = sum f conj(g) dx."""
    _check_same_grid(f, g)
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.spacing ** f.grid.dim)


def boundary_mass_fraction(f, shell=0.1):
    """Fraction of L^2 mass within `shell`*L of the box boundary.

    Experiments must keep this below ~1e-10 so periodization stands in for R^d.
    """
    grid = f.grid
    cut = (0.5 - shell) * grid.length
    if grid.dim == 1:
        mask = np.abs(grid.axis_points()) >= cut
    else:
        x1, x2 = grid.points()
        mask = (np.abs(x1) >= cut) | (np.abs(x2) >= cut)
    total = np.sum(np.abs(f.values) ** 2)
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(f.values[mask]) ** 2) / total)


def random_field(grid, seed=0, decay=2.0, real=False):
    """Random field with smoothly decaying spectrum <xi>^-decay."""
    rng = np.random.default_rng(seed)
    shape = (grid.n,) * grid.dim
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if grid.dim == 1:
        xi = grid.frequencies()
        absxi = np.abs(xi)
    else:
        xi1, xi2 = grid.frequencies()
        absxi = np.hypot(xi1, xi2)
    coeffs *= (1.0 + absxi ** 2) ** (-decay / 2.0)
    vals = np.fft.ifftn(coeffs)
    if real:
        vals = vals.real.astype(np.complex128)
    return Field(grid, vals)


# -- serialization ------------------------------------------------------------

_MAGIC = b"MLF1"


def save_field(f, basepath):
    """Write basepath.json (header) and basepath.bin (little-endian doubles)."""
    basepath = str(basepath)
    header = {
        "format": "microloc-field",
        "version": 1,
        "dim": f.grid.dim,
        "n": f.grid.n,
        "length": f.grid.length,
        "count": int(f.values.size),
    }
    with open(basepath + ".json", "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    flat = f.values.ravel()
    inter = np.empty(2 * flat.size, dtype="<f8")
    inter[0::2] = flat.real
    inter[1::2] = flat.imag
    with open(basepath + ".bin", "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<qqd", f.grid.dim, f.grid.n, f.grid.length))
        fh.write(inter.tobytes())


def load_field(basepath):
    basepath = str(basepath)
    with open(basepath + ".json") as fh:
        header = json.load(fh)
    with open(basepath + ".bin", "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError("not a microloc field file")
        dim, n, length = struct.unpack("<qqd", fh.read(24))
        if dim != header["dim"] or n != header["n"]:
            raise ValueError("binary payload disagrees with JSON header")
        inter = np.frombuffer(fh.read(), dtype="<f8")
    vals = inter[0::2] + 1j * inter[1::2]
    grid = Grid(int(n), float(length), int(dim))
    return Field(grid, vals.reshape((grid.n,) * grid.dim))


def field_to_csv(f, path):
    """CSV export of |f| and arg(f) at each grid point."""
    grid = f.grid
    with open(path, "w") as fh:
        if grid.dim == 1:
            fh.write("x,abs,arg\n")
            for x, v in zip(grid.axis_points(), f.values):
                fh.write(f"{x:.17g},{np.abs(v):.17g},{np.angle(v):.17g}\n")
        else:
            fh.write("x1,x2,abs,arg\n")
            x1, x2 = grid.points()
            for a, b, v in zip(x1.ravel(), x2.ravel(), f.values.ravel()):
                fh.write(f"{a:.17g},{b:.17g},{np.abs(v):.17g},{np.angle(v):.17g}\n")
