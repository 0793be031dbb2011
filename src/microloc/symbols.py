"""Phase-space symbols a(x, xi) and the bump-function library.

A Symbol is its term list: a(x, xi) = sum_m c_m(x) m_m(xi), which
quantization and paradifferential routines apply term by term.  A symbol
that is not a finite sum of products is a plain callable a(x, xi), applied
by the dense lattice sweeps.  The x and xi arguments are arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Symbol",
    "smoothstep",
    "plateau_bump",
    "dyadic_pieces",
    "window_radii",
    "window_symbol",
]


def smoothstep(t):
    """C^inf step: 0 for t <= 0, 1 for t >= 1, strictly increasing between;
    NaN for NaN.  The two exponentials are evaluated only where 0 < t < 1."""
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, np.where(np.isnan(t), np.nan, 0.0))
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    with np.errstate(over="ignore", under="ignore"):
        fa = np.exp(-1.0 / ti)
        fb = np.exp(-1.0 / (1.0 - ti))
    out[inside] = fa / (fa + fb)
    return out[()]


def plateau_bump(r, r_plateau=0.5, r_support=1.0):
    """Radial profile: 1 for r <= r_plateau, 0 for r >= r_support, smooth, decreasing."""
    r = np.abs(np.asarray(r, dtype=float))
    return smoothstep((r_support - r) / (r_support - r_plateau))


def dyadic_pieces(r, J):
    """Telescoped dyadic partition [theta_0, theta_1 - theta_0, ..., theta_J - theta_{J-1}]
    of the samples r, with theta_j = plateau_bump(r / 2^j, 1, 2); the pieces sum to
    theta_J, which is 1 wherever |r| <= 2^J."""
    pieces = []
    prev = None
    for j in range(J + 1):
        cur = plateau_bump(np.asarray(r) / 2.0 ** j, 1.0, 2.0)
        pieces.append(cur if prev is None else cur - prev)
        prev = cur
    return pieces


@dataclass
class Symbol:
    """Separable symbol a(x, xi) = sum_m c_m(x) m_m(xi), given by its terms."""

    separable: Sequence[Tuple[Callable, Callable]]
    # Support hint ((x0, r_x), (xi0, r_xi)): centre/radius pairs such that every
    # term's x-factor is exactly 0 where |x - x0| >= r_x and its xi-factor
    # where |xi - xi0| >= r_xi.  On a lattice each ball is one index run per
    # axis; op_quantize evaluates the factors only on those runs.
    support: Optional[tuple] = None

    def __call__(self, x, xi):
        return sum(np.asarray(c(x)) * np.asarray(m(xi)) for c, m in self.separable)


def _dist(z, z0):
    return np.abs(np.asarray(z, dtype=float) - float(z0))


def window_radii(x0, xi0):
    """Probing-window radii at (x0, xi0): 0.25 max(|x0|, 1) in x, 0.25 |xi0| in xi."""
    return 0.25 * max(abs(float(x0)), 1.0), 0.25 * abs(float(xi0))


def window_symbol(x0, xi0):
    """Compactly supported window elliptic at (x0, xi0), value 1 at the center.

    Separable single-term product of plateau bumps of the radii
    (r_x, r_xi) = window_radii(x0, xi0); support is exactly
    {|x - x0| <= r_x} x {|xi - xi0| <= r_xi}.  xi0 = 0, whose r_xi is 0,
    raises ValueError.
    """
    r_x, r_xi = window_radii(x0, xi0)
    if r_xi == 0.0:
        raise ValueError("xi0 = 0 has no probing window")

    def bx(x):
        return plateau_bump(_dist(x, x0) / r_x)

    def bxi(xi):
        return plateau_bump(_dist(xi, xi0) / r_xi)

    return Symbol([(bx, bxi)], support=((x0, r_x), (xi0, r_xi)))
