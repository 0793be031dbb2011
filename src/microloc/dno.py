"""Dirichlet-Neumann operator G(eta) for the flat-bottom strip.

dn_elliptic flattens the fluid domain with the full-strip map
y = z + (1 + z/b) eta(x), z in [-b, 0] (flat image bottom), and discretizes
spectrally in x and with second-order differences in z.  With J = 1 + eta/b,
the Jacobian of the vertical stretch, the flattened v_zz coefficient is
a(x) + (1 + z/b)^2 eta'^2/J^2 with a = 1/J^2.  G(eta) is real-linear and
ignores the mean of psi, so there is one solve path, on real data with the
mean removed, in two stages:

- a fixed point preconditioned by the flat strip, each sweep
  v + L0^-1 (-L v) with L the strip operator of the Krylov stage and L0^-1
  the exact flat-strip solve with zero Dirichlet data, on rfft half
  spectra.  It runs only where a varies by at most 3x (near-flat surfaces),
  where it converges in a few sweeps;
- restarted GMRES (_gmres, numpy) on the strip equations, right-
  preconditioned, when the fixed point stalls or is skipped (sloped
  surfaces).  Its frozen-depth preconditioner works per z-eigenmode of
  d_zz.  On the few low modes, where the shift xi^2 competes with a lam_k,
  it inverts a_j lam_k - xi^2 exactly at a few depth nodes a_j and blends
  the results in x; on the others, where a lam_k dominates, it inverts at
  one node a0 and scales by a0/a(x).  GMRES orthogonalizes by classical
  Gram-Schmidt with one reorthogonalization and stops on the residual of
  the strip equations.

Both stages stop at the workspace's tolerance: TOL by default, which the
solver's accuracy tests hold it to; the water-wave experiments build their
workspace at waterwave.EXPERIMENT_TOL, the accuracy their probes can see.

Both stages start from the flat harmonic extension of the data (one z
profile per xi, times the data's spectrum) plus a combination of the
corrections of the last solves on the workspace, with the weights that fit
the new data best by the old (least squares in data space, Fischer 1998).
Along a time step the data of a solve lie close to the span of the last
few, so the start carries most of the answer; the Krylov stage keeps the
flat lift instead when that has the smaller strip residual.

The strip residual lives in unitary half-spectrum coordinates: sqrt(2/n)
times the rfft of each residual row, the zero and Nyquist columns divided by
sqrt 2, so its 2-norm is the physical one.  The residual takes the v_xx
term as -xi^2 v-hat in these coordinates and the preconditioner reads them
directly, so a Krylov iteration transforms (m - 1) K + 4 nz + 1 rows, with
m preconditioner nodes on K low modes (269 on the ww_ramp surface), and a
fixed-point sweep 4 nz + 2 (258 at nz = 64).  A fixed-point sweep, the
Krylov operator and the Arnoldi basis work in buffers held on the
workspace, so neither a sweep nor an iteration allocates an array of the
strip's size.

A complex psi is solved as its real and imaginary parts.  The surface flux
is (1+eta'^2)/J v_z - eta' v_x at z = 0.  The Taylor expansion of G about
eta = 0 and its boundary symbols, which check this solver, are test oracles
(tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EllipticSolveError
from .grid import Field, Grid, multiplier_apply

__all__ = [
    "FluidDomain",
    "dn_elliptic",
    "StripSolveStats",
    "discrete_flat_symbol",
    "b_v_fields",
    "TOL",
    "RESTART",
    "MAXITER",
]

# Default relative tolerance of both stages (see dn_elliptic).
TOL = 1e-10
# GMRES of the Krylov stage: Arnoldi steps per restart cycle, and in all.
RESTART = 50
MAXITER = 400


@dataclass
class FluidDomain:
    """Horizontal grid, surface elevation field, depth, vertical resolution."""

    grid: Grid
    eta: Field
    b: float
    nz: int = 64

    def __post_init__(self):
        if not self.grid.compatible(self.eta.grid):
            raise DomainError("eta sampled on a different grid")
        if not self.eta.is_real(1e-10):
            raise DomainError("surface elevation must be real")
        self.eta = Field(self.grid, np.real(self.eta.values).astype(np.complex128))
        if self.depth_margin <= 0:
            raise DomainError(
                f"surface touches the bottom: b + min eta = {self.depth_margin}"
            )
        if self.nz < 8:
            raise DomainError("need at least 8 vertical intervals")

    @property
    def depth_margin(self):
        return self.b + float(np.min(np.real(self.eta.values)))


def _x_derivative(f):
    """Spectral x-derivative (odd multiplier: Nyquist zeroed)."""
    return multiplier_apply(f, lambda xi: 1j * xi)


def _slopes(eta):
    """eta' and eta'' of a surface Field, from one rfft of its real part:
    the multipliers i xi (odd: Nyquist zeroed) and -xi^2."""
    grid = eta.grid
    xi = 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.spacing)
    ixi = 1j * xi
    ixi[-1] = 0.0
    etap, etapp = np.fft.irfft(np.array([ixi, -xi ** 2]) * np.fft.rfft(np.real(eta.values)),
                               n=grid.n, axis=1)
    return etap, etapp


def _node_sampler(vals, grid):
    """x -> vals at the grid node nearest to x (periodic), vectorized."""
    x_first = grid.axis_points()[0]

    def f(x):
        idx = np.rint((np.asarray(x) - x_first) / grid.spacing).astype(int) % grid.n
        return vals[idx]

    return f


# -- elliptic solver -------------------------------------------------------------


@dataclass
class StripSolveStats:
    """What the last dn_elliptic call on a workspace did.

    The iteration counts add over the real solves of the call (two for a
    complex psi); the fixed point runs only when nodes is 1, and before the
    Krylov stage.  nodes is m, the node count of the frozen-depth
    preconditioner of the surface.  residual is the Krylov stage's final
    strip residual ||L v||_2 / ||L v_lift||_2, recomputed at its exit and so
    at most the workspace's tolerance (the largest over the real solves);
    None when that stage did not run.
    start_residual is that stage's start residual over the flat lift's,
    1.0 when the lift is the start (the largest over the real solves); None
    when that stage did not run.
    """

    nodes: int
    fixed_point_iters: int = 0
    krylov_iters: int = 0
    residual: float | None = None
    start_residual: float | None = None


class _StripWorkspace:
    """Per-domain coefficients, flat-solve factors and the frozen-depth
    preconditioner of the strip solver, and tol, the stopping tolerance of
    both stages on it (TOL by default; dn_elliptic states what it bounds).

    G(eta) is real-linear, so the solver works on real data only: the
    unknown v is a real (nz+1, n) array in physical space, row nz holding
    the Dirichlet data, and the flat solves act on rfft half spectra.  The
    z-eigenfactors, and the flat lift's z-profile per xi built from them,
    depend only on (grid, b, nz).  update_surface refreshes the
    eta-dependent coefficients (into buffers held here) and the
    preconditioner, so a time stepper can reuse one workspace across
    stages, and flat_symbol gives the flat surface's discrete DN symbol from
    the same profile.  The workspace keeps the last HISTORY solves, each as
    its mean-free data and its correction v - v_lift (HISTORY (n + nz n)
    floats, about 1 MB at n = 256, nz = 64); history_start combines them
    into the next solve's start, on this surface or the next.

    strip_op's residual, on rows 0..nz-1, is a complex (nz, n/2+1) array in
    unitary half-spectrum coordinates R = rfft(r) / _to_rfft, with
    _to_rfft = sqrt(n/2) except sqrt(n) on the zero and Nyquist columns
    (Grid keeps n even): ||R||_2 = ||r||_2, so GMRES, on the float view of R,
    runs the orthogonally equivalent problem.  sqrt(2/n) is folded into the
    coefficients W, Cxz, Czz1 and the v_xx multiplier, _to_rfft into the
    per-mode inverses of precondition and of the fixed-point sweep.

    The z-eigenvectors diagonalize a(x) d_zz for any a depending on x alone;
    they are ordered by |lam_k| ascending.  With a = 1/J^2, the x-only part
    of the flattened v_zz coefficient, the preconditioner P^-1 applies per
    z-mode the exact inverse 1/(a lam_k - xi^2) of the constant-a strip
    operator a d_zz + d_xx, with a frozen in one of two ways:
    - on the K low modes, those with min(a) |lam_k| < xi_N^2 (xi_N the
      x-Nyquist frequency), at m nodes a_j, geometric over [min a, max a]
      with consecutive ratio at most 3 (one node, at the geometric mean a0,
      when max a / min a <= 3), the m results blended in physical x with
      weights piecewise linear in log a;
    - on the nz - K high modes, where a lam_k dominates xi^2, at a0 =
      sqrt(min a max a), the result multiplied by a0/a(x).
    All m K + nz - K rows go through one batched irfft.  P is exact when a
    is constant (then a0 = a).

    Per Krylov iteration that is m K + nz - K row irffts in precondition;
    strip_op adds the rfft of the nz + 1 rows of v, the irfft of the nz
    v_xz rows and the rfft of the nz residual rows.  A fixed-point sweep
    takes strip_op and one irfft of the nz + 1 rows of its correction.

    The fixed point and the Krylov stage work in buffers held here: the
    scratch arrays of precondition, strip_op and krylov_op, allocated here
    and in _build_preconditioner (again only when the node count changes),
    which fixed_point_sweep reuses, and the Arnoldi basis, allocated at the
    first Krylov solve (a workspace whose solves all end in the fixed point
    never holds one).  Their ufuncs take full-shape operands only, since a
    broadcast operand makes numpy allocate an iteration buffer.
    """

    NODE_RATIO = 3.0
    HISTORY = 8

    def __init__(self, dom, tol=TOL):
        grid, b, nz = dom.grid, dom.b, dom.nz
        self.dom = dom
        self.tol = tol
        self.b = b
        self.nz = nz
        self.n = grid.n
        self.dz = b / nz
        zs = -b + self.dz * np.arange(nz)
        self.zfac = (1.0 + zs / b)[:, None]  # (nz, 1), the rows with an equation

        # Eigen-factorization of the z-operator on rows 0..nz-1 (row nz is
        # Dirichlet): A v = v_zz with ghost-eliminated Neumann bottom.  A is
        # symmetrized by D = diag(1, sqrt2, ..., sqrt2), S = D A D^-1 = Q lam Q^T,
        # so the per-mode shifted solves (a A - xi^2) v = r become two matmuls,
        # v = (D^-1 Q) (a lam - xi^2)^-1 (Q^T D) r.
        dz2 = self.dz ** 2
        S = np.zeros((nz, nz))
        idx = np.arange(nz)
        S[idx, idx] = -2.0 / dz2
        S[idx[:-1], idx[:-1] + 1] = 1.0 / dz2
        S[idx[1:], idx[1:] - 1] = 1.0 / dz2
        S[0, 1] = math.sqrt(2.0) / dz2
        S[1, 0] = math.sqrt(2.0) / dz2
        lam, Q = np.linalg.eigh(S)
        lam, Q = lam[::-1], Q[:, ::-1]  # |lam_k| ascending: the low modes first
        dscale = np.ones(nz)
        dscale[1:] = math.sqrt(2.0)
        self._QTs = np.ascontiguousarray(Q.T * dscale[None, :])
        self._Qd = np.ascontiguousarray(Q / dscale[:, None])
        self._lam = lam[:, None]
        xi = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=grid.spacing)
        self._xi2 = xi ** 2
        self._nyquist2 = grid.nyquist ** 2
        self.ixi = 1j * xi
        self.ixi[-1] = 0.0  # odd multiplier: Nyquist zeroed
        # repeated for the real and imaginary parts, as a full-shape operand
        self._shift_inv = np.repeat(1.0 / (self._lam - self._xi2), 2, axis=-1)
        m = len(xi)
        self.nh = m
        # unitary half-spectrum coordinates: R = rfft(r) / _to_rfft; strip_op
        # scales by sqrt(2/n) (in its coefficients), then the edge columns,
        # zero and Nyquist (n is even), by sqrt(1/2)
        self._unit = math.sqrt(2.0 / self.n)
        self._edges = slice(0, m, m - 1)
        self._to_rfft = np.full(m, 1.0 / self._unit)
        self._to_rfft[self._edges] = math.sqrt(self.n)
        # the fixed-point sweep's flat solve reads -rfft(L v) off strip_op's
        # L v in these coordinates: the factor -_to_rfft rides on its inverse
        self._fp_inv = self._shift_inv * np.repeat(-self._to_rfft, 2)
        # strip_op's x-derivatives of the v spectra: -xi^2 for v_xx, scaled
        # and added in the residual's coordinates (on the float view), and
        # i xi 0.5/dz on the centred z-differences for v_xz
        self._xx_mult = np.tile(np.repeat(-self._unit * self._xi2, 2), (nz, 1))
        self._xz_mult = np.tile((0.5 / self.dz) * self.ixi, (nz - 1, 1))
        self._dv = np.empty((nz, self.n))
        self._v_z = np.empty((nz, self.n))
        self._v_hat = np.empty((nz + 1, m), dtype=np.complex128)
        self._rows_hat = np.empty((nz, m), dtype=np.complex128)
        self._rows_hat[0] = 0.0  # v_z = 0 at the bottom row
        self._rows_dx = np.empty((nz, self.n))  # v_xz
        self._scratch = np.empty((nz, self.n))
        # strip_op's v_xx term, then _mode_solve's mode coefficients
        self._res_hat = np.empty((nz, m), dtype=np.complex128)
        # precondition's mode coefficients, or the fixed point's L v
        self._pc_modes = np.empty((nz, m), dtype=np.complex128)
        self.Cxz, self.W, self._Czz1 = (np.empty((nz, self.n)) for _ in range(3))
        self._pc_blend = np.empty((nz, self.n))
        self._lifted = np.zeros((nz + 1, self.n))  # P^-1 y; row nz (Dirichlet) stays 0
        # the flat harmonic extension of top data 1, per xi: v_lift-hat =
        # profile * psi-hat; the data moves to row nz - 1's right-hand side
        rhs = np.zeros((nz, m), dtype=np.complex128)
        rhs[nz - 1] = -1.0 / dz2
        profile = self._mode_solve(rhs, self._shift_inv, np.empty((nz + 1, m), dtype=np.complex128))
        profile[nz] = 1.0
        self._lift_profile = np.ascontiguousarray(profile.real)
        # the last HISTORY solves: mean-free data and correction v - v_lift
        # (rows 0..nz-1; row nz is the data in both), a ring of rows
        self._hist_data = np.empty((self.HISTORY, self.n))
        self._hist_corr = np.empty((self.HISTORY, nz * self.n))
        self._solves = 0
        self.basis = None
        self._node_hat = self._node_y = None
        self.stats = None
        self.update_surface(dom)

    def update_surface(self, dom):
        if dom.nz != self.nz or dom.b != self.b or not dom.grid.compatible(self.dom.grid):
            raise DomainError("workspace built for a different strip geometry")
        self.dom = dom
        b = self.b
        etap, etapp = _slopes(dom.eta)
        self.etap = etap
        J = 1.0 + np.real(dom.eta.values) / b  # dy/dz, independent of z
        self.J = J
        # the z-dependence of every coefficient is a power of (1 + z/b), so
        # only x-profiles are rebuilt per surface update
        f1 = etap / J
        w1 = 2.0 * etap ** 2 / (b * J ** 2) - etapp / J
        a = 1.0 / J ** 2
        c1 = (etap / J) ** 2
        zf = self.zfac
        # coefficients of v_xz, v_z and v_zz in L, rows 0..nz-1; W and Czz1
        # carry the denominators 2 dz and dz^2 of strip_op's unscaled
        # z-differences, and all three the residual's sqrt(2/n)
        s = self._unit
        np.multiply(zf, (-2.0 * s) * f1, out=self.Cxz)
        np.multiply(zf, ((0.5 * s / self.dz) * w1), out=self.W)
        czz = np.multiply(zf ** 2, c1, out=self._Czz1)
        czz += a
        czz *= s / self.dz ** 2
        self._build_preconditioner(a)

    def _build_preconditioner(self, a):
        """Nodes a_j and blending weights for the K low z-modes, the factor
        a0/a(x) for the high ones, and the per-mode inverses of both bands
        ((m K + nz - K)(n/2+1) divisions)."""
        lo, hi = float(np.min(a)), float(np.max(a))
        ratio = hi / lo
        a0 = math.sqrt(lo * hi)
        if ratio <= self.NODE_RATIO:
            nodes = np.array([a0])
            weights = np.ones((1, self.n))
        else:
            k = math.ceil(math.log(ratio) / math.log(self.NODE_RATIO))
            s = np.log(lo) + np.log(ratio) * np.arange(k + 1) / k
            nodes = np.exp(s)
            # hat functions in log a, one per node; they sum to 1
            t = np.clip((np.log(a) - s[0]) / (s[1] - s[0]), 0.0, k)
            weights = np.maximum(0.0, 1.0 - np.abs(t[None, :] - np.arange(k + 1)[:, None]))
        self.nodes = nodes
        # on a mode with min(a) |lam_k| >= xi_N^2, 1/(a lam_k - xi^2) is
        # 1/(a lam_k) up to a factor in [1/2, 1] at every x and xi, and so is
        # a0/a times the inverse at a0: the node blend is kept for the K
        # modes below that bound (ordered first) only
        K = int(np.count_nonzero(lo * np.abs(self._lam) < self._nyquist2))
        self.low_modes = K
        low = 1.0 / (nodes[:, None, None] * self._lam[None, :K] - self._xi2)
        high = 1.0 / (a0 * self._lam[K:] - self._xi2)
        inv = np.concatenate([low.reshape(-1, len(self._xi2)), high])
        # precondition reads the residual's coordinates: _to_rfft takes them
        # to the rfft; repeated for the real and imaginary parts
        self._node_inv = np.repeat(inv * self._to_rfft, 2, axis=-1)
        self._weights = weights  # (m, n)
        self._high_factor = a0 / a
        if self._node_hat is None or len(self._node_hat) != len(inv):
            self._node_hat = np.empty((len(inv), self.nh), dtype=np.complex128)
            self._node_y = np.empty((len(inv), self.n))

    def _mode_solve(self, rhs, inv, out):
        """The flat solve (d_zz - xi^2) v = c * rhs per mode, v_z(-b) = 0
        (ghost), v(0) = 0, c a factor per xi column, into rows 0..nz-1 of out
        (nz+1, n//2+1): inv = c / (lam - xi^2).  rhs (nz, n//2+1) is an rfft
        half spectrum.  The real z-factors act on the real and imaginary
        parts at once through a float view, the mode coefficients in
        strip_op's v_xx scratch."""
        w = self._res_hat.view(np.float64)
        np.matmul(self._QTs, rhs.view(np.float64), out=w)
        w *= inv
        np.matmul(self._Qd, w, out=out[:self.nz].view(np.float64))
        return out

    def fixed_point_sweep(self, v, out):
        """One fixed-point sweep: out = v + L0^-1 (-L v), L0^-1 the flat
        solve with zero Dirichlet data, for real physical v and out
        (nz+1, n); row nz, the data, is v's.  Returns max |out - v|, the
        correction's.

        strip_op gives L v in the residual's coordinates; the flat solve
        takes them with -_to_rfft folded into its inverses.  It runs in the
        scratch of strip_op and precondition, which the fixed point does not
        use otherwise.
        """
        half = self._mode_solve(self.strip_op(v, out=self._pc_modes), self._fp_inv, self._v_hat)
        half[self.nz] = 0.0
        corr = np.fft.irfft(half, n=self.n, axis=1, out=out)
        delta = float(np.max(np.abs(corr[:self.nz], out=self._scratch)))
        corr += v
        return delta

    def precondition(self, r, out=None):
        """P^-1 r for a residual r (nz, n//2+1) in strip_op's coordinates,
        with zero Dirichlet data; P^-1 r is real and physical.

        Q^T D in z, the m node inverses of each low mode and the one inverse
        at a0 of each high mode (_to_rfft folded into both), one batched
        irfft over those m K + nz - K rows, the weighted node sum in x (low
        modes) or the factor a0/a (high modes), D^-1 Q in z, into out (a new
        array when out is None).
        """
        w = self._pc_modes.view(np.float64)
        np.matmul(self._QTs, r.view(np.float64), out=w)
        m, K = len(self.nodes), self.low_modes
        mK = m * K
        hat, inv = self._node_hat.view(np.float64), self._node_inv
        for j in range(m):  # node j's rows jK..jK+K-1
            np.multiply(w[:K], inv[j * K:(j + 1) * K], out=hat[j * K:(j + 1) * K])
        np.multiply(w[K:], inv[mK:], out=hat[mK:])
        y = np.fft.irfft(self._node_hat, n=self.n, axis=-1, out=self._node_y)
        blend = self._pc_blend
        np.einsum("jx,jkx->kx", self._weights, y[:mK].reshape(m, K, self.n), out=blend[:K])
        np.einsum("x,kx->kx", self._high_factor, y[mK:], out=blend[K:])
        return np.matmul(self._Qd, blend, out=out)

    def strip_op(self, v, out=None):
        """The flattened strip operator L on v (nz+1, n), rows 0..nz-1, in
        the residual's unitary half-spectrum coordinates: a complex
        (nz, n//2+1) array, into out (a new array when out is None).

        Row 0 is the ghost-eliminated bottom (v_z = 0 there), row nz is
        Dirichlet (no equation).
        v_z and v_zz come unscaled from the forward z-differences of v, the
        coefficients carrying 0.5/dz and 1/dz^2.  One rfft of the v rows
        0..nz gives the spectra of v_xx and, by their centred z-differences,
        of v_xz; the v_xz rows take one irfft, and the physical terms one
        rfft, to which the v_xx term is added as a spectrum.
        """
        nz = self.nz
        d, v_z, v_zz = self._dv, self._v_z, self._scratch
        np.subtract(v[1:], v[:nz], out=d)
        v_z[0] = 0.0  # Neumann bottom, exactly
        np.add(d[1:], d[:-1], out=v_z[1:])  # 2 dz v_z
        np.subtract(d[1:], d[:-1], out=v_zz[1:])  # dz^2 v_zz
        np.multiply(d[0], 2.0, out=v_zz[0])
        v_hat = np.fft.rfft(v[:nz + 1], axis=1, out=self._v_hat)
        spec = self._rows_hat
        np.subtract(v_hat[2:], v_hat[:nz - 1], out=spec[1:])
        spec[1:] *= self._xz_mult
        v_xz = np.fft.irfft(spec, n=self.n, axis=1, out=self._rows_dx)
        res = np.multiply(self._Czz1, v_zz, out=d)  # d is used up
        term = self._scratch  # v_zz is used up
        res += np.multiply(self.W, v_z, out=term)
        res += np.multiply(self.Cxz, v_xz, out=term)
        out = np.fft.rfft(res, axis=1, out=out)
        xx = self._res_hat
        np.multiply(v_hat[:nz].view(np.float64), self._xx_mult, out=xx.view(np.float64))
        out += xx
        out[:, self._edges] *= math.sqrt(0.5)
        return out

    def krylov_op(self, y, out):
        """The Krylov operator L P^-1 on y, into out: both are flat float
        views, of length 2 nz (n//2+1), of residual coordinates."""
        shape = (self.nz, 2 * self.nh)
        self.precondition(y.reshape(shape).view(np.complex128), out=self._lifted[:self.nz])
        self.strip_op(self._lifted, out=out.reshape(shape).view(np.complex128))

    def flat_symbol(self):
        """The discrete flat-surface DN multiplier of the strip scheme, in
        FFT order: v_z at the top of the flat lift's profile."""
        return self.v_z_top(self._lift_profile)[np.abs(self.dom.grid.axis_wavenumbers())]

    def lift(self, psi_half):
        """The flat harmonic extension v_lift (nz+1, n), real and physical,
        of the Dirichlet data with rfft half spectrum psi_half."""
        return np.fft.irfft(self._lift_profile * psi_half, n=self.n, axis=1)

    def history_start(self, data, v_lift):
        """The start v_lift + sum_k alpha_k c_k of a solve with mean-free
        physical data, from the stored solves (data_k, correction c_k):
        alpha is the least-squares fit of data by the data_k (Fischer 1998,
        in data space, so it takes no operator apply).  v_lift itself while
        the history is empty."""
        k = min(self._solves, self.HISTORY)
        if k == 0:
            return v_lift
        alpha = np.linalg.lstsq(self._hist_data[:k].T, data, rcond=None)[0]
        v = v_lift.copy()
        v[:self.nz] += (alpha @ self._hist_corr[:k]).reshape(self.nz, self.n)
        return v

    def remember(self, data, v, v_lift):
        """Store a solve's mean-free data and correction v - v_lift, in
        place of the oldest once HISTORY are held."""
        i = self._solves % self.HISTORY
        self._hist_data[i] = data
        np.subtract(v[:self.nz], v_lift[:self.nz], out=self._hist_corr[i].reshape(self.nz, self.n))
        self._solves += 1

    def v_z_top(self, v):
        """Third-order one-sided v_z at z = 0."""
        nz = self.nz
        return (11 * v[nz] - 18 * v[nz - 1] + 9 * v[nz - 2] - 2 * v[nz - 3]) / (6 * self.dz)

    def flux(self, v):
        """Surface flux (1+eta'^2)/J v_z - eta' v_x at z = 0."""
        v_x_top = np.fft.irfft(self.ixi * np.fft.rfft(v[self.nz]), n=self.n)
        return (1.0 + self.etap ** 2) / self.J * self.v_z_top(v) - self.etap * v_x_top


def dn_elliptic(dom, psi, workspace=None):
    """G(eta) psi via the flattened variable-coefficient strip problem.

    Two stages.  On a surface whose a = 1/J^2 varies by at most 3x (one
    preconditioner node), a fixed-point iteration on the strip equations,
    preconditioned by the exact per-mode flat solve, runs first (at most 50
    sweeps).  If it stalls, or on a surface with more nodes,
    GMRES, right-preconditioned by the frozen-depth preconditioner, solves
    the strip equations.  A complex psi is solved as its real and imaginary
    parts, and each stage solves for psi minus its mean.  The workspace's
    stats record what ran.  Raises EllipticSolveError if neither stage
    converges.

    The workspace's tol (TOL unless the workspace was built with another;
    the water-wave experiments build theirs at waterwave.EXPERIMENT_TOL)
    bounds, for the fixed point, its max-norm update relative to max |v| of
    that mean-free solve (G ignores the mean of psi); for the Krylov stage,
    the L2 residual of the flattened strip equations relative to that of the
    flat harmonic extension.  The fixed point's test is on the
    flat-preconditioned problem, so the strip residual of its answer can be
    larger than tol.  _strip_solve returns the strip solution v with the flux.
    """
    ws = workspace if workspace is not None else _StripWorkspace(dom)
    if workspace is not None:
        ws.update_surface(dom)
    ws.stats = StripSolveStats(nodes=len(ws.nodes))
    flux, _ = _strip_solve(ws, np.real(psi.values))
    if not psi.is_real(1e-12):
        flux = flux + 1j * _strip_solve(ws, np.imag(psi.values))[0]
    return Field(dom.grid, flux)


def _strip_solve(ws, psi):
    """Real strip solve for real Dirichlet data psi: (surface flux, v).

    A constant solves the strip equations exactly and has no flux, so the
    stages solve for psi minus its mean (the zero mode of psi_half), and the
    mean is added back to v; the history stays mean-free.  The start is the
    flat harmonic extension v_lift of the data plus the combination of the
    workspace's stored corrections whose data best fit this data
    (ws.history_start); the solve then joins the history.
    """
    psi_half = np.fft.rfft(psi)
    mean = psi_half[0].real / ws.n
    psi_half[0] = 0.0
    data = psi - mean
    v_lift = ws.lift(psi_half)
    v = ws.history_start(data, v_lift)

    converged = False
    if len(ws.nodes) == 1:
        scale = max(float(np.max(np.abs(v))), 1e-300)
        prev_delta = None
        if v is v_lift:
            v = v_lift.copy()  # v_lift stays the correction's reference
        v_new = np.empty_like(v)  # the sweeps write into v_new and v in turn
        for it in range(50):
            delta = ws.fixed_point_sweep(v, v_new) / scale
            ws.stats.fixed_point_iters += 1
            v, v_new = v_new, v
            converged = delta < ws.tol
            if converged or (prev_delta is not None and delta > 0.9 * prev_delta and it >= 4):
                break  # done, or stalling: switch to GMRES
            prev_delta = delta

    if not converged:
        v = _krylov_solve(ws, v_lift, v)
    ws.remember(data, v, v_lift)
    return ws.flux(v), v + mean


def _krylov_solve(ws, v_lift, v0):
    """Right-preconditioned GMRES (_gmres) on the strip equations L v = 0.

    v = v0 + P^-1 y with L P^-1 y = -L v0, where v0 carries the Dirichlet
    data and P^-1 y does not; v0 is the given start or the flat lift
    v_lift, whichever has the smaller strip residual, and the ratio of the
    two residuals goes to ws.stats.start_residual.  The GMRES residual is
    the strip residual itself, in strip_op's unitary coordinates (their
    float view): it stops at ||L v||_2 <= ws.tol ||L v_lift||_2,
    and the ratio it recomputes at exit goes to ws.stats.residual.  The
    operator is ws.krylov_op and the Arnoldi basis ws.basis, so the
    iterations run in the workspace's buffers.
    """
    nz = ws.nz
    r_lift = ws.strip_op(v_lift)
    lift_norm = np.linalg.norm(r_lift)
    r0 = ws.strip_op(v0) if v0 is not v_lift else r_lift
    start_norm = np.linalg.norm(r0)
    if lift_norm <= start_norm:
        v0, r0, start = v_lift, r_lift, 1.0
    else:
        start = float(start_norm / lift_norm)
    ws.stats.start_residual = max(start, ws.stats.start_residual or 0.0)
    if ws.basis is None:
        ws.basis = np.empty((RESTART + 1, 2 * nz * ws.nh))
    iters = ws.stats.krylov_iters
    b = np.negative(r0.view(np.float64)).ravel()
    _, res = _gmres(ws.krylov_op, b, ws.tol * lift_norm, ws.basis, ws.stats)
    residual = float(res / lift_norm) if res > 0 else 0.0
    ws.stats.residual = max(residual, ws.stats.residual or 0.0)
    v = v0.copy()
    if ws.stats.krylov_iters > iters:
        # _gmres's exit residual applied krylov_op to y: P^-1 y is in ws._lifted
        v[:nz] += ws._lifted[:nz]
    return v


def _gmres(apply, b, atol, basis, stats):
    """Restarted GMRES(RESTART) for A x = b from x = 0 (Saad 2003, ch. 6).

    apply(u, out) writes A u into out; basis is the (RESTART + 1, len(b))
    Arnoldi basis, whose row 0 also holds the residual.  Each Arnoldi step
    orthogonalizes by classical Gram-Schmidt with one reorthogonalization
    (two matrix-vector products against the basis per pass), updates the
    residual norm by a Givens rotation and adds one to stats.krylov_iters;
    a step whose new basis vector vanishes (an invariant Krylov space) ends
    the cycle with the exact answer.  The residual b - A x is recomputed at
    every restart and at exit.  Returns x and ||b - A x||_2 once that is at
    most atol; raises EllipticSolveError when MAXITER steps do not get there.
    """
    x = np.zeros_like(b)
    tmp = np.empty_like(b)
    H = np.zeros((RESTART + 1, RESTART))
    rot = np.zeros((RESTART, 2))  # (cos, sin) of each step's rotation
    g = np.zeros(RESTART + 1)
    r = basis[0]
    r[:] = b
    steps = 0
    while True:
        beta = float(np.linalg.norm(r))
        if beta <= atol:
            return x, beta
        if steps >= MAXITER:
            raise EllipticSolveError(
                f"GMRES did not converge in {MAXITER} iterations: residual {beta:.3e} > {atol:.3e}")
        r /= beta
        g[:] = 0.0
        g[0] = beta
        for j in range(RESTART):
            V, w = basis[:j + 1], basis[j + 1]
            apply(basis[j], w)
            H[:j + 1, j] = 0.0
            for _ in range(2):
                c = V @ w
                w -= np.matmul(c, V, out=tmp)
                H[:j + 1, j] += c
            H[j + 1, j] = np.linalg.norm(w)
            if H[j + 1, j] > 0.0:
                w /= H[j + 1, j]
            for i in range(j):  # the earlier rotations
                cs, sn = rot[i]
                hi, hn = H[i, j], H[i + 1, j]
                H[i, j], H[i + 1, j] = cs * hi + sn * hn, cs * hn - sn * hi
            rho = math.hypot(H[j, j], H[j + 1, j])
            rot[j] = H[j, j] / rho, H[j + 1, j] / rho
            H[j, j], H[j + 1, j] = rho, 0.0
            g[j + 1] = -rot[j, 1] * g[j]
            g[j] *= rot[j, 0]
            steps += 1
            stats.krylov_iters += 1
            if abs(g[j + 1]) <= atol or steps == MAXITER:
                break
        k = j + 1
        x += np.matmul(np.linalg.solve(H[:k, :k], g[:k]), basis[:k], out=tmp)
        apply(x, r)
        np.subtract(b, r, out=r)


def discrete_flat_symbol(grid, b, nz):
    """The exact discrete flat-surface DN multiplier of the strip scheme.

    Oracle for solver checks: at eta = 0 the scheme is diagonal per mode and
    this is its symbol, converging to |xi| tanh(b |xi|) at rate nz^-2.
    Computed on the half spectrum and returned in FFT order.
    """
    flat = FluidDomain(grid, Field(grid, np.zeros(grid.n, dtype=complex)), b, nz)
    return _StripWorkspace(flat).flat_symbol()


# -- derived fields ---------------------------------------------------------------


def b_v_fields(dom, psi, workspace=None):
    """B = (eta' psi' + G psi) / (1 + eta'^2), V = psi' - B eta'; G psi is
    solved on workspace as in dn_elliptic."""
    G = dn_elliptic(dom, psi, workspace=workspace)
    etap = np.real(_x_derivative(dom.eta).values)
    psip = _x_derivative(psi).values
    Bv = (etap * psip + G.values) / (1.0 + etap ** 2)
    Vv = psip - Bv * etap
    return Field(dom.grid, Bv), Field(dom.grid, Vv)
