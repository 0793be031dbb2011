"""Bony paradifferential operators T_a and their dyadic localization P_a.

T_a keeps only the low-frequency part of the coefficient against the high
frequencies of the argument.  This module uses the Littlewood-Paley pair
(Bahouri, Chemin & Danchin 2011, ch. 2): for each term c(x) m(xi) of a,

    T_a u = sum_k (S_{k-LP_GAP} c) psi_k(D) m(D) pi(D) u,

with theta_k(xi) = plateau_bump(|xi| / 2^k, 1, 2), psi_k = theta_k -
theta_{k-1} (psi_0 = theta_0), S_j = theta_j(D) and pi a low-frequency
cutoff.  Its cutoff chi(theta, eta) = sum_k S_{k-LP_GAP}(theta) psi_k(eta)
is 1 on |theta| <= |eta| / 16 and 0 on |theta| >= |eta| / 2 at LP_GAP = 3.
That is one FFT product per dyadic frequency block.  The products are
circular convolutions on the periodic lattice: a coefficient frequency
theta and an argument frequency eta whose sum passes the Nyquist frequency
land on the aliased lattice frequency.  P_a = sum_j psi~_j T_{psi_j a}
psi~_j localizes T on spatial dyadic rings so polynomial weights act ring
by ring.  The remainders ab - T_a b - T_b a and F(u) - T_{F'(u)} u that
check this paralinearization are test oracles (tests/oracles.py).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridMismatchError
from .grid import Field
from .symbols import Symbol, dyadic_pieces, plateau_bump, smoothstep

__all__ = [
    "LP_GAP",
    "pi_cutoff",
    "paradiff_apply",
    "dyadic_paradiff_apply",
    "dyadic_neighbor_width",
]

# Block gap N of S_{k-N}: the admissible choice for the factor-2 blocks.
LP_GAP = 3


def pi_cutoff(eta):
    """Low-frequency cutoff pi: 0 on |eta| <= 1/2, 1 on |eta| >= 1."""
    return smoothstep((np.abs(eta) - 0.5) / 0.5)


def _lp_blocks(xi):
    """(S_{k-LP_GAP}, psi_k) sampled on the lattice frequencies xi, per block k
    that meets the lattice."""
    r = np.abs(xi)
    J = max(0, math.ceil(math.log2(r.max())))
    return [(plateau_bump(r / 2.0 ** (k - LP_GAP), 1.0, 2.0), psi)
            for k, psi in enumerate(dyadic_pieces(r, J)) if np.any(psi)]


def paradiff_apply(a, u):
    """Apply the paradifferential operator T_a to u.

    a may be a Symbol (applied term by term, one FFT product per dyadic
    block), a Field/array of x-samples (purely x-dependent symbol, e.g.
    T_B), or a callable a(x, eta), whose frequency columns are low-passed
    in x one by one (a dense n x n path, the oracle of the Symbol path).
    """
    return _paradiff_apply(a, u, np.ones(u.grid.n), _lp_blocks(u.grid.axis_frequencies()))


def _paradiff_apply(a, u, window, blocks):
    """paradiff_apply with the symbol multiplied by the spatial window (P_a's
    ring psi_j; ones for T_a itself) and the frequency blocks of u's grid
    (_lp_blocks) given, so P_a builds them once for all its rings."""
    grid = u.grid
    x = grid.axis_points()
    eta = grid.axis_frequencies()
    uhat = pi_cutoff(eta) * np.fft.fft(u.values)
    if isinstance(a, (Field, np.ndarray)):
        terms = [(a.values if isinstance(a, Field) else a, 1.0)]
    elif isinstance(a, Symbol):
        terms = [(cx(x), mxi(eta)) for (cx, mxi) in a.separable]
    elif callable(a):
        A = window[:, None] * np.asarray(a(x[:, None], eta[None, :]), dtype=np.complex128)
        chi = sum(np.outer(S, psi) for S, psi in blocks)  # chi[p, j] = chi(theta_p, eta_j)
        cols = np.fft.ifft(chi * np.fft.fft(A, axis=0), axis=0) * uhat[None, :]
        # out(x_i) = n^-1 sum_j cols[i, j] e^{2 pi i ij/n}: row i's inverse DFT at i
        return Field(grid, np.fft.ifft(cols, axis=1).diagonal().copy())
    else:
        raise TypeError(f"cannot interpret symbol argument of type {type(a)}")
    out = np.zeros(grid.n, dtype=np.complex128)
    for cx_vals, m_vals in terms:
        chat = np.fft.fft(window * np.asarray(cx_vals, dtype=np.complex128))
        wm = m_vals * uhat
        for S, psi in blocks:
            out += np.fft.ifft(S * chat) * np.fft.ifft(psi * wm)
    return Field(grid, out)


def dyadic_neighbor_width(J):
    """The +-10 neighbor sum of the dyadic definition, adapted to available rings."""
    return 10 if J >= 12 else max(2, J // 2)


def dyadic_paradiff_apply(a, u, part):
    """P_a u = sum_j psi~_j T_{psi_j a} (psi~_j u) over the rings of `part`,
    psi~_j the sum of the dyadic_neighbor_width(J) rings on either side."""
    if not part.grid.compatible(u.grid):
        raise GridMismatchError("partition built on a different grid")
    width = dyadic_neighbor_width(part.J)
    blocks = _lp_blocks(u.grid.axis_frequencies())
    out = np.zeros(u.grid.n, dtype=np.complex128)
    for j, psi in enumerate(part.pieces):
        if not np.any(psi):
            continue
        tilde = part.neighbor_sum(j, width)
        uj = Field(u.grid, tilde * u.values)
        tj = _paradiff_apply(a, uj, psi, blocks)
        out += tilde * tj.values
    return Field(u.grid, out)
