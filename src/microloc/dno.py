"""Dirichlet-Neumann operator G(eta) for the flat-bottom strip, two ways.

dn_taylor expands about eta = 0: G_0 = |D| tanh(b|D|) and the standard
recursion, built from the vertical-mode multipliers L_{2k} = |D|^{2k},
L_{2k+1} = |D|^{2k} G_0 of the cosh profile.

dn_elliptic flattens the fluid domain with the full-strip map
y = z + (1 + z/b) eta(x), z in [-b, 0] (flat image bottom), discretizes
spectrally in x and with second-order differences in z, and solves the
variable-coefficient problem against the exact flat-strip inverse.  G(eta)
is real-linear, so there is one solve path, on real data: a Richardson fixed
point whose flat solves run on rfft half spectra, and a real GMRES with the
same flat-solve preconditioner when the fixed point stalls (steep
surfaces).  A complex psi is solved as its real and imaginary parts.  The
surface flux is (1+eta'^2)/J v_z - eta' v_x at z = 0 with J = 1 + eta/b,
the Jacobian of the vertical stretch.

dn_symbols builds the boundary symbols lambda^(1), lambda^(0) and the
a_+/a_- factorization of the flattened Laplacian, with the downward
recursion for lower orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import DomainError, EllipticSolveError, TaylorDivergenceError
from .grid import Field, Grid, l2_norm, multiplier_apply
from .symbols import Symbol

__all__ = [
    "FluidDomain",
    "dn_taylor",
    "dn_elliptic",
    "discrete_flat_symbol",
    "SurfaceDerivatives",
    "surface_from_field",
    "dn_symbols",
    "b_v_fields",
    "shape_derivative_check",
]


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


def _abs_xi(grid):
    if grid.dim == 1:
        return np.abs(grid.frequencies())
    xi1, xi2 = grid.frequencies()
    return np.hypot(xi1, xi2)


def _grad_fields(f):
    """Spectral gradient, one field per axis (odd multiplier: Nyquist zeroed)."""
    grid = f.grid
    if grid.dim == 1:
        return [multiplier_apply(f, lambda xi: 1j * xi)]
    return [
        multiplier_apply(f, lambda xi: 1j * xi[0]),
        multiplier_apply(f, lambda xi: 1j * xi[1]),
    ]


def dn_taylor(dom, psi, M=4, ratio_limit=1.0, monitor_limit=0.5):
    """Taylor expansion sum_{k<=M} G_k(eta) psi about the flat surface.

    Term norms are monitored; consecutive-term ratios above `ratio_limit`
    abort with advice to use the elliptic solver.  Returns the partial sum.
    """
    grid = dom.grid
    b = dom.b
    eta = np.real(dom.eta.values)
    absxi = _abs_xi(grid)
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
        return multiplier_apply(f, lambda xi, mult=mult: mult, nyquist_even=False)

    eta_pows = [np.ones_like(eta)]
    for m in range(1, M + 1):
        eta_pows.append(eta_pows[-1] * eta / m)  # eta^m / m!

    grad_eta = [np.real(g.values) for g in _grad_fields(dom.eta)]

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
            grads = _grad_fields(inner)
            for ax in range(grid.dim):
                term -= grad_eta[ax] * eta_pows[m] * grads[ax].values
        total += term
        nrm = float(np.sqrt(np.sum(np.abs(term) ** 2)) * grid.spacing ** (grid.dim / 2))
        if prev is not None and prev > 0 and nrm / prev >= ratio_limit:
            raise TaylorDivergenceError(
                f"term ratio {nrm / prev:.3f} >= {ratio_limit} at order {k}; "
                "use dn_elliptic"
            )
        prev = nrm if nrm > 0 else prev
    return Field(grid, total)


# -- elliptic solver -------------------------------------------------------------


class _StripWorkspace:
    """Per-domain coefficients and flat-solve factors for the strip solver.

    G(eta) is real-linear, so the solver works on real data only: the
    unknown v is a real (nz+1, n) array in physical space, row nz holding
    the Dirichlet data, and the flat solve acts on its rfft half spectrum.
    The z-eigenfactors depend only on (grid, b, nz); update_surface refreshes
    the eta-dependent coefficient arrays, so a time stepper can reuse one
    workspace (and its warm-start solution) across stages.
    """

    def __init__(self, dom):
        grid, b, nz = dom.grid, dom.b, dom.nz
        if grid.dim != 1:
            raise NotImplementedError("dn_elliptic is one-dimensional")
        self.dom = dom
        self.b = b
        self.nz = nz
        self.n = grid.n
        self.dz = b / nz
        zs = -b + self.dz * np.arange(nz + 1)
        self.zfac = (1.0 + zs / b)[:, None]  # (nz+1, 1)

        # Eigen-factorization of the z-operator on rows 0..nz-1 (row nz is
        # Dirichlet): A v = v_zz with ghost-eliminated Neumann bottom.  A is
        # symmetrized by D = diag(1, sqrt2, ..., sqrt2), S = D A D^-1 = Q lam Q^T,
        # so the per-mode shifted solves (A - xi^2) v = r become two matmuls,
        # v = (D^-1 Q) (lam - xi^2)^-1 (Q^T D) r.
        dz2 = self.dz ** 2
        S = np.zeros((nz, nz))
        idx = np.arange(nz)
        S[idx, idx] = -2.0 / dz2
        S[idx[:-1], idx[:-1] + 1] = 1.0 / dz2
        S[idx[1:], idx[1:] - 1] = 1.0 / dz2
        S[0, 1] = math.sqrt(2.0) / dz2
        S[1, 0] = math.sqrt(2.0) / dz2
        lam, Q = np.linalg.eigh(S)
        dscale = np.ones(nz)
        dscale[1:] = math.sqrt(2.0)
        self._QTs = np.ascontiguousarray(Q.T * dscale[None, :])
        self._Qd = np.ascontiguousarray(Q / dscale[:, None])
        xi = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=grid.spacing)
        self.ixi = 1j * xi
        self.ixi[-1] = 0.0  # odd multiplier: Nyquist zeroed
        self._shift_inv = 1.0 / (lam[:, None] - xi[None, :] ** 2)
        self.warm = None
        self._eta_ref = None
        self.update_surface(dom)

    def update_surface(self, dom):
        if dom.nz != self.nz or dom.b != self.b or not dom.grid.compatible(self.dom.grid):
            raise ValueError("workspace built for a different strip geometry")
        if dom.eta.values is self._eta_ref:
            self.dom = dom
            return
        self.dom = dom
        self._eta_ref = dom.eta.values
        b = self.b
        eta = np.real(dom.eta.values)
        etap = np.real(_grad_fields(dom.eta)[0].values)
        etapp = np.real(multiplier_apply(dom.eta, lambda xi: -(xi ** 2)).values)
        self.etap = etap
        J = 1.0 + eta / b  # dy/dz, independent of z
        self.J = J
        # the z-dependence of every coefficient is a power of (1 + z/b), so
        # only x-profiles are rebuilt per surface update
        f1 = etap / J
        w1 = 2.0 * etap ** 2 / (b * J ** 2) - etapp / J
        c0 = 1.0 / J ** 2 - 1.0
        c1 = (etap / J) ** 2
        zf = self.zfac
        self.F = zf * f1[None, :]
        self.W = zf * w1[None, :]
        self.Czz = c0[None, :] + (zf ** 2) * c1[None, :]

    def flat_solve_half(self, rhs, top):
        """Solve (d_zz - xi^2) v = rhs per mode, v_z(-b)=0 ghost, v(0)=top.

        rhs (nz, n//2+1) and top (n//2+1,) are rfft half spectra; rhs is
        overwritten.  The real z-factors act on the real and imaginary parts
        at once through a float view.
        """
        nz = self.nz
        rhs[nz - 1] -= top / self.dz ** 2
        w = (self._QTs @ rhs.view(np.float64)).view(np.complex128)
        w *= self._shift_inv
        v = np.empty((nz + 1, rhs.shape[1]), dtype=np.complex128)
        np.matmul(self._Qd, w.view(np.float64), out=v[:nz].view(np.float64))
        v[nz] = top
        return v

    def flat_solve(self, rhs, top):
        """flat_solve_half for a real physical rhs; returns real physical v."""
        v = self.flat_solve_half(sfft.rfft(rhs, axis=1, workers=2), top)
        return sfft.irfft(v, axis=1, n=self.n, workers=2)

    def residual_op(self, v):
        """Deviation of the strip operator from the flat Laplacian.

        Rows: 0 is the ghost-eliminated bottom (E = 0 there, v_z = 0), nz is
        Dirichlet (no equation).  Returns rows 0..nz-1.
        """
        nz, dz = self.nz, self.dz
        v_z = np.empty_like(v)
        v_z[0] = 0.0  # Neumann bottom, exactly
        v_z[1:nz] = (v[2:] - v[:-2]) / (2 * dz)
        v_z[nz] = (3 * v[nz] - 4 * v[nz - 1] + v[nz - 2]) / (2 * dz)
        v_xz = sfft.irfft(self.ixi[None, :] * sfft.rfft(v_z, axis=1, workers=2),
                          axis=1, n=self.n, workers=2)
        v_zz = np.empty((nz, self.n))
        v_zz[1:nz] = (v[2:] - 2 * v[1:nz] + v[:-2]) / dz ** 2
        v_zz[0] = (2 * v[1] - 2 * v[0]) / dz ** 2
        out = self.Czz[:nz] * v_zz + self.W[:nz] * v_z[:nz] - 2.0 * self.F[:nz] * v_xz[:nz]
        out[0] = self.Czz[0] * v_zz[0]
        return out

    def v_z_top(self, v):
        """Third-order one-sided v_z at z = 0."""
        nz = self.nz
        return (11 * v[nz] - 18 * v[nz - 1] + 9 * v[nz - 2] - 2 * v[nz - 3]) / (6 * self.dz)

    def flux(self, v):
        """Surface flux (1+eta'^2)/J v_z - eta' v_x at z = 0."""
        v_x_top = sfft.irfft(self.ixi * sfft.rfft(v[self.nz]), n=self.n)
        return (1.0 + self.etap ** 2) / self.J * self.v_z_top(v) - self.etap * v_x_top


def dn_elliptic(dom, psi, tol=1e-10, maxiter=50, workspace=None, return_solution=False):
    """G(eta) psi via the flattened variable-coefficient strip problem.

    Fixed-point iteration on the non-flat terms, preconditioned by the exact
    per-mode flat solve; GMRES (same preconditioner) takes over when the
    fixed point stalls.  A complex psi is solved as its real and imaginary
    parts.  Raises EllipticSolveError if neither converges.

    tol bounds the flat-preconditioned problem, not the strip equations: the
    relative max-norm update of the fixed point, or the relative residual of
    the preconditioned GMRES system.  The residual of the flattened strip
    equations themselves can be larger; on a slope-0.5 ramp surface at
    tol = 1e-10 it is 1.6e-8 of the largest term in the max norm, in the row
    below the surface (2.4e-9 in L2).
    """
    ws = workspace if workspace is not None else _StripWorkspace(dom)
    if workspace is not None:
        ws.update_surface(dom)
    flux, v = _strip_solve(ws, np.real(psi.values), tol, maxiter)
    if not psi.is_real(1e-12):
        flux_im, v_im = _strip_solve(ws, np.imag(psi.values), tol, maxiter)
        flux, v = flux + 1j * flux_im, v + 1j * v_im
    out = Field(dom.grid, flux)
    if return_solution:
        return out, v
    return out


def _strip_solve(ws, psi, tol, maxiter):
    """Real strip solve for real Dirichlet data psi: (surface flux, v)."""
    nz = ws.nz
    psi_half = sfft.rfft(psi, workers=2)
    v_lift = ws.flat_solve(np.zeros((nz, ws.n)), psi_half)  # flat harmonic extension
    v = v_lift
    if ws.warm is not None and ws.warm.shape == v.shape:
        # re-impose the current Dirichlet data on the warm start
        v = ws.warm.copy()
        v[nz] = v_lift[nz]
    scale = max(float(np.max(np.abs(v))), 1e-300)

    converged = False
    prev_delta = None
    for it in range(maxiter):
        v_new = ws.flat_solve(-ws.residual_op(v), psi_half)
        delta = float(np.max(np.abs(v_new - v))) / scale
        v = v_new
        converged = delta < tol
        if converged or (prev_delta is not None and delta > 0.9 * prev_delta and it >= 4):
            break  # done, or stalling: switch to GMRES
        prev_delta = delta

    if not converged:
        v = _gmres_solve(ws, v_lift, v, tol)
    ws.warm = v
    return ws.flux(v), v


def _gmres_solve(ws, v_lift, v0, tol):
    """GMRES for the interior rows w = v - v_lift of the flat-preconditioned
    problem (I + L0^-1 E) w = -L0^-1 E v_lift, starting from v0."""
    nz, n = ws.nz, ws.n
    zero_top = np.zeros(n // 2 + 1, dtype=np.complex128)

    def pad(w):
        full = np.zeros((nz + 1, n))
        full[:nz] = w.reshape(nz, n)
        return full

    def apply_op(w):
        return w + ws.flat_solve(ws.residual_op(pad(w)), zero_top)[:nz].ravel()

    rhs = -ws.flat_solve(ws.residual_op(v_lift), zero_top)[:nz].ravel()
    op = LinearOperator((nz * n, nz * n), matvec=apply_op, dtype=np.float64)
    x0 = (v0[:nz] - v_lift[:nz]).ravel()
    sol, info = gmres(op, rhs, x0=x0, rtol=tol, atol=tol * max(np.max(np.abs(rhs)), 1e-300),
                      maxiter=400, restart=50)
    if info != 0:
        raise EllipticSolveError(f"GMRES did not converge (info={info})")
    v = v_lift.copy()
    v[:nz] += sol.reshape(nz, n)
    return v


def discrete_flat_symbol(grid, b, nz):
    """The exact discrete flat-surface DN multiplier of the strip scheme.

    Oracle for solver checks: at eta = 0 the scheme is diagonal per mode and
    this is its symbol, converging to |xi| tanh(b |xi|) at rate nz^-2.
    Computed on the half spectrum and returned in FFT order.
    """
    flat = FluidDomain(grid, Field(grid, np.zeros(grid.n, dtype=complex)), b, nz)
    ws = _StripWorkspace(flat)
    m = grid.n // 2 + 1
    v = ws.flat_solve_half(np.zeros((nz, m), dtype=np.complex128), np.ones(m, dtype=np.complex128))
    return np.real(ws.v_z_top(v))[np.abs(grid.axis_wavenumbers())]


# -- boundary symbols ------------------------------------------------------------


@dataclass
class SurfaceDerivatives:
    """Vectorized surface derivatives for symbol factories (d = 1)."""

    etap: callable  # x -> eta'(x)
    etapp: callable  # x -> eta''(x)


def _node_sampler(vals, grid):
    """x -> vals at the grid node nearest to x (periodic), vectorized."""
    x_first = grid.axis_points()[0]

    def f(x):
        idx = np.rint((np.asarray(x) - x_first) / grid.spacing).astype(int) % grid.n
        return vals[idx]

    return f


def surface_from_field(eta):
    """Spectral-derivative adapter: eta', eta'' evaluated at arbitrary x by
    sampling the nearest grid node."""
    grid = eta.grid
    etap = np.real(_grad_fields(eta)[0].values)
    etapp = np.real(multiplier_apply(eta, lambda xi: -(xi ** 2)).values)
    return SurfaceDerivatives(_node_sampler(etap, grid), _node_sampler(etapp, grid))


def dn_symbols(surface, J=2):
    """Boundary symbols of G(eta): lambda^(1), lambda^(0), a_pm^(1), a_pm^(0), ...

    `surface` provides vectorized eta', eta'' (d = 1).  Orders below 0 follow
    the downward recursion with finite-difference symbol derivatives and are
    approximate.  Returns a dict of Symbols.
    """
    etap, etapp = surface.etap, surface.etapp

    def lam1(x, xi):
        gp = etap(x)
        return np.sqrt((1.0 + gp ** 2) * xi ** 2 - (gp * xi) ** 2)

    def c_of(x):
        return 1.0 / (1.0 + etap(x) ** 2)

    def a1(sign):
        def f(x, xi):
            gp = etap(x)
            c = 1.0 / (1.0 + gp ** 2)
            root = np.sqrt(c * xi ** 2 - (c * gp * xi) ** 2)
            return 1j * c * gp * xi + sign * root

        return f

    a1p, a1m = a1(+1.0), a1(-1.0)

    def d_xi_a1m(x, xi):
        gp = etap(x)
        c = 1.0 / (1.0 + gp ** 2)
        # d/dxi sqrt(c xi^2 (1 - c gp^2)) = sqrt(c^2) sign(xi); 1 - c gp^2 = c
        return 1j * c * gp - c * np.sign(xi)

    def d_x_a1p(x, xi):
        gp, gpp = etap(x), etapp(x)
        c = 1.0 / (1.0 + gp ** 2)
        c_x = -2.0 * gp * gpp * c ** 2
        # a1p = i c gp xi + c |xi| in one dimension
        return 1j * (c_x * gp + c * gpp) * xi + c_x * np.abs(xi)

    def a0(sign):
        def f(x, xi):
            gp, gpp = etap(x), etapp(x)
            c = 1.0 / (1.0 + gp ** 2)
            num = 1j * d_xi_a1m(x, xi) * d_x_a1p(x, xi) - c * gpp * (
                a1m(x, xi) if sign < 0 else a1p(x, xi)
            )
            den = (a1p(x, xi) - a1m(x, xi)) * (1.0 if sign < 0 else -1.0)
            return num / den

        return f

    a0p, a0m = a0(+1.0), a0(-1.0)

    def lam0(x, xi):
        # (1+|eta'|^2)/(2 lam1) { div(alpha1 grad eta) + i d_xi lam1 . grad alpha1 }
        gp, gpp = etap(x), etapp(x)
        m2 = 1.0 + gp ** 2
        l1 = lam1(x, xi)
        alpha = (l1 + 1j * gp * xi) / m2
        # x-derivatives: in 1D lam1 = |xi| so d_x lam1 = 0
        alpha_x = (1j * gpp * xi) / m2 + (l1 + 1j * gp * xi) * (-2.0 * gp * gpp / m2 ** 2)
        div_term = alpha_x * gp + alpha * gpp
        dxi_l1 = np.sign(xi)  # lam1 = |xi| in one dimension
        safe = np.where(l1 > 0.0, l1, 1.0)
        return np.where(l1 > 0.0, m2 / (2.0 * safe) * (div_term + 1j * dxi_l1 * alpha_x), 0.0)

    symbols = {
        "lambda1": Symbol(lam1, order=(1.0, 0.0), label="lambda^(1)"),
        "lambda0": Symbol(lam0, order=(0.0, 0.0), label="lambda^(0)"),
        "a_plus": {1: Symbol(a1p, order=(1.0, 0.0), label="a_+^(1)"),
                   0: Symbol(a0p, order=(0.0, 0.0), label="a_+^(0)")},
        "a_minus": {1: Symbol(a1m, order=(1.0, 0.0), label="a_-^(1)"),
                    0: Symbol(a0m, order=(0.0, 0.0), label="a_-^(0)")},
    }

    # downward recursion for orders <= -1 (finite-difference symbol derivatives)
    if J > 2:
        for target in range(-1, 1 - J - 1, -1):
            m = target + 1  # defines a^{(m-1)}
            symbols["a_minus"][target] = _recursion_symbol(symbols, m, etap)
            neg = symbols["a_minus"][target]
            symbols["a_plus"][target] = Symbol(
                lambda x, xi, neg=neg: -neg(x, xi), order=(target, 0.0),
                label=f"a_+^({target})",
            )
    return symbols


def _recursion_symbol(symbols, m, etap, step_x=1e-5, step_xi=1e-5):
    """a_-^{(m-1)} = (a_-^1 - a_+^1)^-1 sum_{k,l} sum_{|alpha|=k+l-m}
    (1/alpha!) d_xi^alpha a_-^k D_x^alpha a_+^l  (1D)."""
    aM = symbols["a_minus"]
    aP = symbols["a_plus"]

    def d_xi(f, order):
        if order == 0:
            return f
        return lambda x, xi, f=f: (
            d_xi(f, order - 1)(x, xi + step_xi) - d_xi(f, order - 1)(x, xi - step_xi)
        ) / (2 * step_xi)

    def D_x(f, order):
        if order == 0:
            return f
        return lambda x, xi, f=f: -1j * (
            D_x(f, order - 1)(x + step_x, xi) - D_x(f, order - 1)(x - step_x, xi)
        ) / (2 * step_x)

    def f(x, xi):
        total = np.zeros(np.broadcast(np.asarray(x), np.asarray(xi)).shape, dtype=complex)
        for k in range(m, 2):
            for l in range(m, 2):
                alpha = k + l - m
                if alpha < 0 or k not in aM or l not in aP:
                    continue
                term = d_xi(aM[k], alpha)(x, xi) * D_x(aP[l], alpha)(x, xi)
                total = total + term / math.factorial(alpha)
        return total / (aM[1](x, xi) - aP[1](x, xi))

    return Symbol(f, order=(m - 1, 0.0), label=f"a_-^({m - 1})")


# -- derived fields ---------------------------------------------------------------


def b_v_fields(dom, psi, workspace=None):
    """B = (grad eta . grad psi + G psi) / (1+|grad eta|^2), V = grad psi - B grad eta."""
    G = dn_elliptic(dom, psi, workspace=workspace)
    etap = np.real(_grad_fields(dom.eta)[0].values)
    psip = _grad_fields(psi)[0].values
    Bv = (etap * psip + G.values) / (1.0 + etap ** 2)
    Vv = psip - Bv * etap
    return Field(dom.grid, Bv), Field(dom.grid, Vv)


def shape_derivative_check(dom, psi, phi_dir, h_fd=1e-4, nz=None):
    """Relative error of the shape-derivative identity
    dG(eta)[phi] psi = -G(eta)(B phi) - div(V phi), with centered differences."""
    grid = dom.grid
    nz = nz if nz is not None else dom.nz
    phi = np.real(phi_dir.values)

    def G_at(eta_vals):
        d = FluidDomain(grid, Field(grid, eta_vals.astype(np.complex128)), dom.b, nz)
        return dn_elliptic(d, psi)

    eta0 = np.real(dom.eta.values)
    Gp = G_at(eta0 + h_fd * phi)
    Gm = G_at(eta0 - h_fd * phi)
    fd = (Gp.values - Gm.values) / (2.0 * h_fd)

    B, V = b_v_fields(dom, psi)
    Bphi = Field(grid, B.values * phi)
    term1 = dn_elliptic(dom, Bphi)
    Vphi = Field(grid, V.values * phi)
    term2 = _grad_fields(Vphi)[0]
    formula = -term1.values - term2.values

    ref = l2_norm(dn_elliptic(dom, psi))
    err = float(np.sqrt(np.sum(np.abs(fd - formula) ** 2) * grid.spacing))
    return err / ref
