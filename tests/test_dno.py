"""Dirichlet-Neumann operator: Taylor vs elliptic, symbols, shape derivative."""

import tracemalloc
import warnings

import numpy as np
import pytest

from microloc import dno
from microloc.errors import DomainError, EllipticSolveError
from microloc.dno import FluidDomain, b_v_fields, discrete_flat_symbol, dn_elliptic
from microloc.grid import Field, Grid, inner, l2_norm, multiplier_apply, wave_packet
from microloc.paradiff import paradiff_apply
from microloc.waterwave import ramp_surface
from oracles import (SurfaceDerivatives, TaylorDivergenceError, dn_symbols, dn_taylor,
                     lattice_multiplier_apply, random_field, rough_field_family,
                     shape_derivative_check, surface_from_field, weighted_norm)


B_DEPTH = 1.0


def flat_domain(grid, nz=64):
    return FluidDomain(grid, Field(grid, np.zeros(grid.n, dtype=complex)), B_DEPTH, nz)


@pytest.fixture(scope="module")
def val_grid():
    # validation box: low-frequency modes keep the z-discretization error
    # below the 1e-6 target at nz = 64
    return Grid(256, 20 * np.pi)


@pytest.fixture(scope="module")
def unit_grid():
    return Grid(256, 2 * np.pi)


def val_psi(grid):
    x = grid.axis_points()
    xi1 = 2 * np.pi / grid.length
    return Field(grid, (np.sin(xi1 * x) + 0.5 * np.cos(2 * xi1 * x)).astype(complex))


def test_domain_invariant():
    g = Grid(64, 10.0)
    deep = Field(g, np.full(g.n, -2.0, dtype=complex))
    with pytest.raises(DomainError):
        FluidDomain(g, deep, 1.0, 64)


def test_taylor_flat_exact(val_grid):
    dom = flat_domain(val_grid)
    psi = val_psi(val_grid)
    out = dn_taylor(dom, psi, M=3)
    oracle = multiplier_apply(psi, lambda xi: np.abs(xi) * np.tanh(B_DEPTH * np.abs(xi)))
    assert np.max(np.abs(out.values - oracle.values)) < 1e-10


def test_taylor_constant_psi(unit_grid):
    x = unit_grid.axis_points()
    eta = Field(unit_grid, (0.1 * np.cos(x)).astype(complex))
    dom = FluidDomain(unit_grid, eta, B_DEPTH, 64)
    psi = Field(unit_grid, np.full(unit_grid.n, 3.7, dtype=complex))
    out = dn_taylor(dom, psi, M=4)
    assert l2_norm(out) < 1e-10


def test_taylor_divergence_detected(unit_grid):
    x = unit_grid.axis_points()
    eta = Field(unit_grid, (0.9 * np.cos(x)).astype(complex))  # too steep for Taylor
    dom = FluidDomain(unit_grid, eta, B_DEPTH, 64)
    psi = Field(unit_grid, np.sin(x).astype(complex))
    with pytest.raises(TaylorDivergenceError):
        dn_taylor(dom, psi, M=8)


def test_taylor_order_of_convergence(unit_grid):
    # M=2 vs M=4 difference scales like ||eta||^3
    x = unit_grid.axis_points()
    psi = Field(unit_grid, np.sin(x).astype(complex))

    def diff(amp):
        eta = Field(unit_grid, (amp * np.cos(x)).astype(complex))
        dom = FluidDomain(unit_grid, eta, B_DEPTH, 64)
        d = dn_taylor(dom, psi, M=4).values - dn_taylor(dom, psi, M=2).values
        return l2_norm(Field(unit_grid, d))

    ratio = diff(0.05) / diff(0.025)
    assert ratio == pytest.approx(8.0, rel=0.15)


def test_elliptic_flat_multiplier(val_grid):
    # criterion: <= 1e-6 relative at nz = 64 with O(nz^-2) convergence
    psi = val_psi(val_grid)
    oracle = multiplier_apply(psi, lambda xi: np.abs(xi) * np.tanh(B_DEPTH * np.abs(xi)))
    errs = {}
    for nz in (16, 32, 64):
        G = dn_elliptic(flat_domain(val_grid, nz), psi)
        errs[nz] = l2_norm(Field(val_grid, G.values - oracle.values)) / l2_norm(oracle)
    assert errs[64] <= 1e-6
    slope = np.polyfit(np.log([16, 32, 64]), np.log([errs[16], errs[32], errs[64]]), 1)[0]
    assert abs(-slope - 2.0) <= 0.4
    print(f"flat DN errors {errs}, slope {-slope:.2f}")


def test_elliptic_constant_psi(unit_grid):
    x = unit_grid.axis_points()
    eta = Field(unit_grid, (0.1 * np.cos(x)).astype(complex))
    dom = FluidDomain(unit_grid, eta, B_DEPTH, 64)
    psi = Field(unit_grid, np.full(unit_grid.n, 2.0, dtype=complex))
    assert l2_norm(dn_elliptic(dom, psi)) < 1e-10
    # Krylov stage, warm-started from other data: psi minus its mean is 0, so
    # the flat lift solves the strip equations exactly and must be the start
    g = Grid(256, 64.0)
    ramp = FluidDomain(g, ramp_surface(g, 0.5, 1.0), B_DEPTH, 64)
    ws = dno._StripWorkspace(ramp)
    dn_elliptic(ramp, random_field(g, seed=2, decay=3.0, real=True), workspace=ws)
    G = dn_elliptic(ramp, Field(g, np.full(g.n, 2.0, dtype=complex)), workspace=ws)
    assert ws.stats.fixed_point_iters == 0 and ws.stats.krylov_iters == 0
    assert l2_norm(G) < 1e-10


def test_cross_method_agreement(unit_grid):
    # criterion: <= 1e-5 relative L2 for eta = 0.05 cos x
    x = unit_grid.axis_points()
    eta = Field(unit_grid, (0.05 * np.cos(x)).astype(complex))
    psi = Field(unit_grid, np.sin(x).astype(complex))
    dom = FluidDomain(unit_grid, eta, B_DEPTH, 256)
    Ge = dn_elliptic(dom, psi)
    Gt = dn_taylor(dom, psi, M=4)
    rel = l2_norm(Field(unit_grid, Ge.values - Gt.values)) / l2_norm(Gt)
    assert rel <= 1e-5
    print(f"cross-method relative L2: {rel:.3e}")


def test_elliptic_self_adjoint(unit_grid):
    x = unit_grid.axis_points()
    eta = Field(unit_grid, (0.05 * np.cos(x)).astype(complex))
    dom = FluidDomain(unit_grid, eta, B_DEPTH, 512)
    for seeds in [(1, 2), (3, 4), (5, 6)]:
        p1 = random_field(unit_grid, seed=seeds[0], decay=5.0, real=True)
        p2 = random_field(unit_grid, seed=seeds[1], decay=5.0, real=True)
        lhs = inner(dn_elliptic(dom, p1), p2).real
        rhs = inner(p1, dn_elliptic(dom, p2)).real
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs))


def test_elliptic_positive(unit_grid):
    x = unit_grid.axis_points()
    eta = Field(unit_grid, (0.1 * np.cos(x)).astype(complex))
    dom = FluidDomain(unit_grid, eta, B_DEPTH, 128)
    for seed in range(5):
        psi = random_field(unit_grid, seed=seed, decay=4.0, real=True)
        q = inner(dn_elliptic(dom, psi), psi).real
        assert q >= -1e-8 * weighted_norm(psi, 0.5, 0.0) ** 2


def test_elliptic_galilean(unit_grid):
    x = unit_grid.axis_points()
    eta = Field(unit_grid, (0.1 * np.cos(x)).astype(complex))
    dom = FluidDomain(unit_grid, eta, B_DEPTH, 128)
    psi = Field(unit_grid, np.sin(x).astype(complex))
    G1 = dn_elliptic(dom, psi)
    G2 = dn_elliptic(dom, Field(unit_grid, psi.values + 1.0))
    assert np.max(np.abs(G1.values - G2.values)) < 1e-10


def test_elliptic_translation_equivariant(unit_grid):
    x = unit_grid.axis_points()
    eta = np.real(0.08 * np.cos(x) + 0.03 * np.sin(2 * x))
    psi = np.real(random_field(unit_grid, seed=4, decay=4.0, real=True).values)
    dom = FluidDomain(unit_grid, Field(unit_grid, eta.astype(complex)), B_DEPTH, 128)
    G = dn_elliptic(dom, Field(unit_grid, psi.astype(complex)))
    shift = 17
    dom_s = FluidDomain(unit_grid, Field(unit_grid, np.roll(eta, shift).astype(complex)),
                        B_DEPTH, 128)
    G_s = dn_elliptic(dom_s, Field(unit_grid, np.roll(psi, shift).astype(complex)))
    assert np.max(np.abs(G_s.values - np.roll(G.values, shift))) < 1e-12


def test_elliptic_steep_surface_converges(unit_grid):
    # steep bump: fixed point stalls, GMRES path must deliver
    x = unit_grid.axis_points()
    eta = Field(unit_grid, (0.3 * np.exp(-((x / 0.35) ** 2) / 2)).astype(complex))
    dom = FluidDomain(unit_grid, eta, B_DEPTH, 128)
    psi = Field(unit_grid, np.sin(x).astype(complex))
    G = dn_elliptic(dom, psi)
    # Galilean invariance still holds on the hard path
    G2 = dn_elliptic(dom, Field(unit_grid, psi.values + 1.0))
    assert np.max(np.abs(G.values - G2.values)) < 1e-8


def test_elliptic_complex_plane_waves_flat(unit_grid):
    # a complex psi is two real solves; on the flat strip e^{ikx} is an
    # eigenfunction with the scheme's own discrete symbol as eigenvalue
    dom = flat_domain(unit_grid)
    sym = discrete_flat_symbol(unit_grid, B_DEPTH, 64)
    x = unit_grid.axis_points()
    xi = unit_grid.axis_frequencies()
    for idx in (1, 3, 17, 60, unit_grid.n - 5, unit_grid.n // 2 + 1):
        psi = Field(unit_grid, np.exp(1j * xi[idx] * x))
        G = dn_elliptic(dom, psi)
        err = np.max(np.abs(G.values - sym[idx] * psi.values))
        assert err <= 1e-12 * max(1.0, abs(sym[idx]))


def _dn_and_solution(monkeypatch, dom, psi, ws):
    """dn_elliptic(dom, psi, workspace=ws) of a real psi, and the strip
    solution v that its _strip_solve returned."""
    solutions, strip_solve = [], dno._strip_solve

    def keeping(*args):
        flux, v = strip_solve(*args)
        solutions.append(v)
        return flux, v

    monkeypatch.setattr(dno, "_strip_solve", keeping)
    return dn_elliptic(dom, psi, workspace=ws), solutions[-1]


def _strip_equation_residual(dom, v):
    """Relative L2 residual of the discrete flattened strip equations, scaled
    by the largest of its four terms."""
    terms = _strip_equation_terms(dom, v)
    return np.linalg.norm(sum(terms)) / max(np.linalg.norm(t) for t in terms)


def _strip_equation_terms(dom, v):
    """The four terms of the discrete flattened strip equations on rows
    0..nz-1, written out.

    With J = 1 + eta/b and Z = 1 + z/b the flattened Laplacian is
    c_zz v_zz + v_xx + c_z v_z + c_xz v_xz with c_zz = (1 + Z^2 eta'^2)/J^2,
    c_z = Z (2 eta'^2/(b J^2) - eta''/J), c_xz = -2 Z eta'/J: second-order
    differences in z, spectral in x, ghost-eliminated Neumann bottom (row 0).
    """
    b, nz = dom.b, dom.nz
    dz = b / nz
    eta = np.real(dom.eta.values)
    etap = np.real(multiplier_apply(dom.eta, lambda xi: 1j * xi).values)
    etapp = np.real(multiplier_apply(dom.eta, lambda xi: -(xi ** 2)).values)
    J = 1.0 + eta / b
    Z = (1.0 + (-b + dz * np.arange(nz + 1)) / b)[:, None]
    c_zz = (1.0 + Z ** 2 * etap ** 2) / J ** 2
    c_z = Z * (2.0 * etap ** 2 / (b * J ** 2) - etapp / J)
    c_xz = -2.0 * Z * etap / J

    def dx(rows, m):
        return np.real(np.fft.ifft(m * np.fft.fft(rows, axis=1), axis=1))

    xi = dom.grid.axis_frequencies()
    ixi = 1j * xi
    ixi[dom.grid.n // 2] = 0.0  # odd multiplier: Nyquist zeroed
    v_zz = np.empty((nz, dom.grid.n))
    v_zz[0] = 2.0 * (v[1] - v[0]) / dz ** 2
    v_zz[1:] = (v[2:] - 2.0 * v[1:nz] + v[:nz - 1]) / dz ** 2
    v_z = np.zeros((nz, dom.grid.n))
    v_z[1:] = (v[2:] - v[:nz - 1]) / (2.0 * dz)
    v_xx = dx(v[:nz], -(xi ** 2))
    return [c_zz[:nz] * v_zz, v_xx, c_z[:nz] * v_z, c_xz[:nz] * dx(v_z, ixi)]


def _physical(ws, r):
    """strip_op's residual coordinates decoded into physical rows."""
    return np.fft.irfft(r * ws._to_rfft, n=ws.n, axis=1)


def _coordinates(ws, r):
    """Physical rows encoded into strip_op's residual coordinates."""
    return np.fft.rfft(r, axis=1) / ws._to_rfft


def test_strip_op_is_the_written_out_strip_operator():
    # strip_op takes v_xz from z-differences of the v spectra; the
    # written-out equations, decoded from its residual coordinates, are its
    # oracle.  The flat lift, which depends on (grid, b, nz) alone, solves
    # the flat strip equations d_zz + d_xx, strip_op on the flat surface, to
    # the rounding of its eigen-solve (1.4e-11 of the largest term here)
    g = Grid(256, 64.0)
    nz = 64
    dom = FluidDomain(g, ramp_surface(g, 0.5, 1.0), B_DEPTH, nz)
    ws = dno._StripWorkspace(dom)
    v = np.random.default_rng(6).standard_normal((nz + 1, g.n))
    terms = _strip_equation_terms(dom, v)
    scale = max(np.max(np.abs(t)) for t in terms)
    assert np.max(np.abs(_physical(ws, ws.strip_op(v)) - sum(terms))) <= 1e-14 * scale
    psi_half = np.fft.rfft(np.real(random_field(g, seed=2, decay=3.0, real=True).values))
    flat = dno._StripWorkspace(flat_domain(g, nz))
    lift = flat.lift(psi_half)
    assert np.array_equal(lift, ws.lift(psi_half))
    scale = max(np.max(np.abs(t)) for t in _strip_equation_terms(flat.dom, lift))
    assert np.max(np.abs(_physical(flat, flat.strip_op(lift)))) <= 1e-10 * scale


@pytest.mark.parametrize("n", [256, 64])
def test_strip_op_coordinates_are_unitary(n):
    # the residual's half-spectrum coordinates keep the physical 2-norm
    # (the zero and Nyquist columns carry weight 1, the others 2; Grid keeps
    # n even), so GMRES stops on the strip residual itself
    g = Grid(n, 64.0)
    nz = 64
    dom = FluidDomain(g, ramp_surface(g, 0.5, 1.0), B_DEPTH, nz)
    ws = dno._StripWorkspace(dom)
    v = np.random.default_rng(6).standard_normal((nz + 1, g.n))
    want = np.linalg.norm(sum(_strip_equation_terms(dom, v)))
    assert abs(np.linalg.norm(ws.strip_op(v)) - want) <= 1e-13 * want
    r = np.random.default_rng(7).standard_normal((nz, g.n))
    assert np.linalg.norm(_coordinates(ws, r)) == pytest.approx(np.linalg.norm(r), rel=1e-13)


def _basis_orthogonality(basis, u, errors):
    """When u is Arnoldi row j of basis, append max |Q Q^T - I| over the
    rows 0..j-1, which are final when step j applies the operator."""
    if np.shares_memory(u, basis):
        j = (u.__array_interface__["data"][0] - basis.__array_interface__["data"][0]) // basis.strides[0]
        Q = basis[:j]
        errors.append(float(np.max(np.abs(Q @ Q.T - np.eye(j)))) if j else 0.0)


def test_elliptic_stalled_fixed_point_solves_strip_equations(monkeypatch):
    # the slope-0.5 ramp of the smoothing experiment: a = 1/J^2 varies 9x, so
    # the fixed point is skipped and the Krylov stage (three preconditioner
    # nodes) delivers the answer, checked against the equations themselves;
    # its Arnoldi basis stays orthonormal
    g = Grid(256, 64.0)
    dom = FluidDomain(g, ramp_surface(g, 0.5, 1.0), B_DEPTH, 64)
    psi = random_field(g, seed=2, decay=3.0, real=True)
    ws = dno._StripWorkspace(dom)
    errors, krylov_op = [], ws.krylov_op

    def recording(y, out):
        _basis_orthogonality(ws.basis, y, errors)
        krylov_op(y, out)

    monkeypatch.setattr(ws, "krylov_op", recording)
    G, v = _dn_and_solution(monkeypatch, dom, psi, ws)
    assert ws.stats.nodes == 3
    assert ws.stats.fixed_point_iters == 0 and ws.stats.krylov_iters > 0
    assert np.isrealobj(v) and v.shape == (65, g.n)
    assert np.max(np.abs(v[-1] - np.real(psi.values))) < 1e-12
    assert _strip_equation_residual(dom, v) <= 1e-8
    assert len(errors) == ws.stats.krylov_iters and max(errors) <= 1e-12


def test_elliptic_starts_from_the_span_of_recent_solves(monkeypatch):
    # G is linear and the surface is the same: the solve of 0.3 psi1 - 2 psi2
    # after those of psi1 and psi2 starts at their combination, which the
    # data-space fit recovers, and the Krylov stage has next to nothing to do
    g = Grid(256, 64.0)
    dom = FluidDomain(g, ramp_surface(g, 0.5, 1.0), B_DEPTH, 64)
    ws = dno._StripWorkspace(dom)
    psi1 = random_field(g, seed=2, decay=3.0, real=True)
    psi2 = random_field(g, seed=5, decay=3.0, real=True)
    dn_elliptic(dom, psi1, workspace=ws)
    assert ws.stats.start_residual == 1.0  # an empty history: the flat lift
    dn_elliptic(dom, psi2, workspace=ws)
    G, v = _dn_and_solution(monkeypatch, dom, Field(g, 0.3 * psi1.values - 2.0 * psi2.values), ws)
    assert ws.stats.start_residual <= 1e-8
    assert ws.stats.krylov_iters <= 2
    assert _strip_equation_residual(dom, v) <= 1e-8


def test_workspace_of_another_strip_geometry_is_rejected():
    g = Grid(256, 64.0)
    ws = dno._StripWorkspace(FluidDomain(g, ramp_surface(g, 0.5, 1.0), B_DEPTH, 32))
    dom = FluidDomain(g, ramp_surface(g, 0.5, 1.0), B_DEPTH, 64)
    with pytest.raises(DomainError, match="different strip geometry"):
        dn_elliptic(dom, random_field(g, seed=2, decay=3.0, real=True), workspace=ws)


def test_elliptic_slope_one_and_a_half_ramp(monkeypatch):
    # A = 0.75, w = 0.5 at depth 1: the column runs from depth 0.25 to 1.75,
    # a varies 49x (five nodes); the Krylov stage meets the strip equations
    g = Grid(256, 64.0)
    dom = FluidDomain(g, ramp_surface(g, 0.75, 0.5), B_DEPTH, 64)
    psi = random_field(g, seed=2, decay=3.0, real=True)
    ws = dno._StripWorkspace(dom)
    G, v = _dn_and_solution(monkeypatch, dom, psi, ws)
    assert ws.stats.nodes == 5 and ws.stats.fixed_point_iters == 0
    assert _strip_equation_residual(dom, v) <= 1e-8
    assert 0 < ws.stats.krylov_iters <= 45
    assert ws.stats.residual <= 1e-10  # dno.TOL


def _gmres_on(A, b, atol, stats, steps, errors=None):
    """dno._gmres on the matrix A; steps records, per product, whether it
    multiplied a basis vector (an Arnoldi step) or the iterate, and errors,
    when given, the orthogonality of the final basis rows at each step."""
    basis = np.empty((dno.RESTART + 1, len(b)))

    def apply(u, out):
        steps.append(np.shares_memory(u, basis))
        if errors is not None:
            _basis_orthogonality(basis, u, errors)
        np.matmul(A, u, out=out)

    return dno._gmres(apply, b, atol, basis, stats)


def test_gmres_small_nonsymmetric_system():
    rng = np.random.default_rng(0)
    n = 30
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    stats, steps = dno.StripSolveStats(nodes=0), []
    x, res = _gmres_on(A, b, 1e-13 * np.linalg.norm(b), stats, steps)
    exact = np.linalg.solve(A, b)
    assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)
    assert res == pytest.approx(np.linalg.norm(b - A @ x), rel=1e-12)
    assert stats.krylov_iters == sum(steps) and 0 < sum(steps) <= n


def test_gmres_restarts():
    # eigenvalues 1..100: more than RESTART steps to reach 1e-12; the
    # residual is recomputed once per cycle, at its restart or at exit, and
    # the Arnoldi basis stays orthonormal
    rng = np.random.default_rng(1)
    n = 200
    A = np.diag(np.linspace(1.0, 100.0, n)) + np.diag(np.full(n - 1, 0.5), 1)
    b = rng.standard_normal(n)
    stats, steps, errors = dno.StripSolveStats(nodes=0), [], []
    x, res = _gmres_on(A, b, 1e-12 * np.linalg.norm(b), stats, steps, errors)
    exact = np.linalg.solve(A, b)
    assert stats.krylov_iters == sum(steps) and dno.RESTART < sum(steps) < dno.MAXITER
    assert len(steps) - sum(steps) == -(-sum(steps) // dno.RESTART)
    assert len(errors) == sum(steps) and max(errors) <= 1e-12
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)


@pytest.mark.parametrize("b, steps_taken", [
    (np.eye(8)[2] * 3.0, 1),  # an eigenvector of A
    (np.r_[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0], 2),  # two eigenvalues of A
])
def test_gmres_lucky_breakdown(b, steps_taken):
    # b in an invariant subspace of A: the Arnoldi vector after steps_taken
    # steps vanishes exactly (the entries are exact in binary), and the cycle
    # ends with the answer, to rounding, without dividing by its zero norm
    A = np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 5.0, 6.0, 7.0])
    stats, steps = dno.StripSolveStats(nodes=0), []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, res = _gmres_on(A, b, 1e-14 * np.linalg.norm(b), stats, steps)
    assert stats.krylov_iters == sum(steps) == steps_taken
    exact = b / np.diag(A)
    assert res <= 1e-15 * np.linalg.norm(b)
    assert np.linalg.norm(x - exact) <= 1e-15 * np.linalg.norm(exact) and np.all(x[b == 0] == 0)


def test_gmres_stagnation_raises():
    # the cyclic shift with b = e_0: no Krylov space shorter than n reduces
    # the residual, so restarted GMRES stagnates at 1
    n = dno.RESTART + 10
    A = np.roll(np.eye(n), 1, axis=0)
    b = np.zeros(n)
    b[0] = 1.0
    stats, steps = dno.StripSolveStats(nodes=0), []
    with pytest.raises(EllipticSolveError, match="did not converge"):
        _gmres_on(A, b, 1e-10, stats, steps)
    assert stats.krylov_iters == sum(steps) == dno.MAXITER


def test_krylov_operator_allocates_no_strip_array():
    # after a warm-up solve on the ww_ramp surface, L P^-1 runs in the
    # workspace's buffers: ten applies trace less than one (nz, n) array
    g = Grid(256, 64.0)
    nz = 64
    dom = FluidDomain(g, ramp_surface(g, 0.5, 1.0), B_DEPTH, nz)
    ws = dno._StripWorkspace(dom)
    dn_elliptic(dom, random_field(g, seed=2, decay=3.0, real=True), workspace=ws)
    y = np.random.default_rng(4).standard_normal(2 * nz * ws.nh)
    out = np.empty_like(y)
    tracemalloc.start()
    try:
        for _ in range(10):
            ws.krylov_op(y, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nz * g.n * 8


def test_fixed_point_sweep_allocates_no_strip_array(unit_grid, monkeypatch):
    # after a warm-up solve that ends in the fixed point, one sweep runs in
    # the workspace's buffers: it traces less than one (nz, n) array
    nz = 64
    x = unit_grid.axis_points()
    dom = FluidDomain(unit_grid, Field(unit_grid, (0.1 * np.cos(x)).astype(complex)), B_DEPTH, nz)
    ws = dno._StripWorkspace(dom)
    psi = random_field(unit_grid, seed=2, decay=3.0, real=True)
    _, v = _dn_and_solution(monkeypatch, dom, psi, ws)
    assert ws.stats.fixed_point_iters > 0 and ws.stats.krylov_iters == 0
    v = v - np.mean(np.real(psi.values))  # the stages solve for psi minus its mean
    out = np.empty_like(v)
    tracemalloc.start()
    try:
        delta = ws.fixed_point_sweep(v, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nz * unit_grid.n * 8
    # the converged solve is a fixed point of the sweep
    assert delta <= 1e-9 * np.max(np.abs(v))


def test_fixed_point_solves_strip_equations(unit_grid, monkeypatch):
    # the near-flat surface of the sweep tests: the fixed point's answer
    # meets the strip equations themselves, and its G is the Krylov stage's,
    # which NODE_RATIO 1.2 forces (four preconditioner nodes)
    x = unit_grid.axis_points()
    dom = FluidDomain(unit_grid, Field(unit_grid, (0.1 * np.cos(x)).astype(complex)), B_DEPTH, 64)
    psi = random_field(unit_grid, seed=2, decay=3.0, real=True)
    ws = dno._StripWorkspace(dom)
    G, v = _dn_and_solution(monkeypatch, dom, psi, ws)
    assert ws.stats.fixed_point_iters > 0 and ws.stats.krylov_iters == 0
    assert _strip_equation_residual(dom, v) <= 1e-8
    monkeypatch.setattr(dno._StripWorkspace, "NODE_RATIO", 1.2)
    krylov = dno._StripWorkspace(dom)
    G_krylov = dn_elliptic(dom, psi, workspace=krylov)
    assert krylov.stats.nodes == 4
    assert krylov.stats.fixed_point_iters == 0 and krylov.stats.krylov_iters > 0
    assert np.linalg.norm(G.values - G_krylov.values) <= 1e-9 * np.linalg.norm(G_krylov.values)


def _ramp_workspace(tol=dno.TOL):
    g = Grid(256, 64.0)
    return dno._StripWorkspace(FluidDomain(g, ramp_surface(g, 0.5, 1.0), B_DEPTH, 64), tol=tol)


def test_workspace_tolerance_stops_the_krylov_stage():
    # a workspace carries its own stopping tolerance: on the ww_ramp surface
    # a cold solve at 1e-7 ends below 1e-7 in fewer iterations (10 against
    # 14) than one on a default workspace, which still ends below dno.TOL
    psi = random_field(Grid(256, 64.0), seed=2, decay=3.0, real=True)
    loose, default = _ramp_workspace(tol=1e-7), _ramp_workspace()
    assert (loose.tol, default.tol) == (1e-7, dno.TOL)
    for ws in (loose, default):
        dn_elliptic(ws.dom, psi, workspace=ws)
        assert ws.stats.residual <= ws.tol
    assert 0 < loose.stats.krylov_iters < default.stats.krylov_iters


def test_frozen_depth_preconditioner_two_bands_on_the_ramp():
    # the ww_ramp surface: three nodes blend on the K = 6 modes with
    # min(a) |lam_k| < xi_N^2; every higher mode k is inverted at a0 =
    # sqrt(min a max a) and scaled by a0/a(x)
    ws = _ramp_workspace()
    g, nz = ws.dom.grid, ws.nz
    lam = ws._lam[:, 0]
    assert np.all(np.diff(np.abs(lam)) > 0)
    a = 1.0 / ws.J ** 2
    a0 = np.sqrt(np.min(a) * np.max(a))
    K = ws.low_modes
    assert len(ws.nodes) == 3 and K == 6
    assert np.min(a) * abs(lam[K - 1]) < g.nyquist ** 2 <= np.min(a) * abs(lam[K])
    xi2 = (2.0 * np.pi * np.fft.rfftfreq(g.n, d=g.spacing)) ** 2
    f = np.real(random_field(g, seed=7, decay=1.0, real=True).values)
    f_hat = np.fft.rfft(f)
    for k in range(K, nz):
        # input in mode k alone; its mode-k coefficient after P^-1
        got = ws._QTs[k] @ ws.precondition(_coordinates(ws, np.outer(ws._Qd[:, k], f)))
        want = (a0 / a) * np.fft.irfft(f_hat / (a0 * lam[k] - xi2), n=g.n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_krylov_solve_reuses_the_last_preconditioner_apply(monkeypatch):
    # on the ww_ramp surface the answer v0 + P^-1 y takes P^-1 y from the
    # exit residual's L P^-1 y: precondition runs only inside krylov_op
    ws = _ramp_workspace()
    calls = {"precondition": 0, "krylov_op": 0}

    def counting(name):
        method = getattr(ws, name)

        def wrapped(*args, **kw):
            calls[name] += 1
            return method(*args, **kw)

        return wrapped

    for name in calls:
        monkeypatch.setattr(ws, name, counting(name))
    psi = random_field(ws.dom.grid, seed=2, decay=3.0, real=True)
    _, v = _dn_and_solution(monkeypatch, ws.dom, psi, ws)
    assert ws.stats.krylov_iters > 0
    assert calls["precondition"] == calls["krylov_op"] > ws.stats.krylov_iters
    assert _strip_equation_residual(ws.dom, v) <= 1e-8


def _count_fft_rows(monkeypatch):
    """Patch np.fft.rfft and irfft to record each call's number of rows."""
    rows = []

    def counting(fft):
        def wrapped(a, *args, axis=-1, **kw):
            rows.append(a.size // a.shape[axis])
            return fft(a, *args, axis=axis, **kw)

        return wrapped

    monkeypatch.setattr(np.fft, "rfft", counting(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counting(np.fft.irfft))
    return rows


def test_krylov_operator_transforms_269_rows(monkeypatch):
    # one L P^-1 on the ww_ramp surface (nz = 64, m = 3, K = 6), in the
    # residual's half-spectrum coordinates: irfft of m K + nz - K node rows,
    # rfft of the nz + 1 rows of v, irfft of the nz rows of v_xz, rfft of
    # the nz residual rows
    ws = _ramp_workspace()
    nz = ws.nz
    y = np.random.default_rng(4).standard_normal(2 * nz * ws.nh)
    rows = _count_fft_rows(monkeypatch)
    ws.krylov_op(y, np.empty_like(y))
    m, K = len(ws.nodes), ws.low_modes
    assert sum(rows) == m * K + (nz - K) + (nz + 1) + nz + nz == 269


def test_fixed_point_sweep_transforms_258_rows(monkeypatch, unit_grid):
    # one sweep at nz = 64: rfft of the nz + 1 rows of v, irfft of the nz
    # rows of v_xz, rfft of the nz rows of L v and irfft of the nz + 1 rows
    # of the flat solve's correction
    nz = 64
    x = unit_grid.axis_points()
    dom = FluidDomain(unit_grid, Field(unit_grid, (0.1 * np.cos(x)).astype(complex)), B_DEPTH, nz)
    ws = dno._StripWorkspace(dom)
    assert len(ws.nodes) == 1
    v = np.random.default_rng(3).standard_normal((nz + 1, unit_grid.n))
    rows = _count_fft_rows(monkeypatch)
    ws.fixed_point_sweep(v, np.empty_like(v))
    assert sum(rows) == 4 * nz + 2 == 258


def test_elliptic_constant_elevation_is_the_deeper_flat_strip(unit_grid):
    # eta = 0.3 stretches z uniformly: the scheme is the flat scheme of depth
    # b + 0.3 on its uniform nz grid, so its discrete symbol is the oracle
    nz = 64
    dom = FluidDomain(unit_grid, Field(unit_grid, np.full(unit_grid.n, 0.3 + 0j)), B_DEPTH, nz)
    psi = random_field(unit_grid, seed=3, decay=3.0, real=True)
    G = dn_elliptic(dom, psi)
    sym = discrete_flat_symbol(unit_grid, B_DEPTH + 0.3, nz)
    oracle = np.fft.ifft(sym * np.fft.fft(psi.values))
    assert np.linalg.norm(G.values - oracle) <= 1e-9 * np.linalg.norm(oracle)


def test_frozen_depth_preconditioner_is_exact_for_constant_depth(unit_grid):
    # constant a: P is the strip operator itself, so P^-1 L v = v for any v
    # with zero Dirichlet data; precondition reads strip_op's residual
    # coordinates as they come
    nz = 64
    dom = FluidDomain(unit_grid, Field(unit_grid, np.full(unit_grid.n, 0.3 + 0j)), B_DEPTH, nz)
    ws = dno._StripWorkspace(dom)
    rng = np.random.default_rng(5)
    v = np.zeros((nz + 1, unit_grid.n))
    v[:nz] = rng.standard_normal((nz, unit_grid.n))
    v[:nz] = np.fft.irfft(np.fft.rfft(v[:nz], axis=1), axis=1, n=unit_grid.n)
    back = ws.precondition(ws.strip_op(v))
    assert np.max(np.abs(back - v[:nz])) <= 1e-12 * np.max(np.abs(v))


def test_b_v_fields_flat(val_grid):
    dom = flat_domain(val_grid, nz=128)
    psi = val_psi(val_grid)
    B, V = b_v_fields(dom, psi)
    G0 = dn_elliptic(dom, psi)
    assert np.max(np.abs(B.values - G0.values)) < 1e-12
    psix = multiplier_apply(psi, lambda xi: 1j * xi)
    assert np.max(np.abs(V.values - psix.values)) < 1e-12


def test_b_v_deep_water_plane_wave():
    # b = 20 proxy for infinite depth: B = cos(x) tanh(20) ~ cos(x)
    g = Grid(256, 2 * np.pi)
    x = g.axis_points()
    dom = FluidDomain(g, Field(g, np.zeros(g.n, dtype=complex)), 20.0, 512)
    psi = Field(g, np.cos(x).astype(complex))
    B, _ = b_v_fields(dom, psi)
    assert np.max(np.abs(B.values - np.cos(x))) < 1e-3


def test_b_v_kinetic_identity(unit_grid):
    # (1+eta'^2) B - eta' psi' reproduces G(eta) psi
    x = unit_grid.axis_points()
    eta = Field(unit_grid, (0.07 * np.cos(x)).astype(complex))
    dom = FluidDomain(unit_grid, eta, B_DEPTH, 128)
    psi = Field(unit_grid, np.sin(x).astype(complex))
    B, V = b_v_fields(dom, psi)
    G = dn_elliptic(dom, psi)
    etap = np.real(multiplier_apply(eta, lambda xi: 1j * xi).values)
    psip = np.real(multiplier_apply(psi, lambda xi: 1j * xi).values)
    recomposed = (1.0 + etap ** 2) * np.real(B.values) - etap * psip
    assert np.max(np.abs(recomposed - np.real(G.values))) < 1e-10


def test_shape_derivative(unit_grid):
    x = unit_grid.axis_points()
    eta = Field(unit_grid, (0.05 * np.cos(x)).astype(complex))
    psi = Field(unit_grid, np.sin(x).astype(complex))
    phi = Field(unit_grid, np.cos(2 * x).astype(complex))
    dom = FluidDomain(unit_grid, eta, B_DEPTH, 128)
    err = shape_derivative_check(dom, psi, phi, h_fd=1e-4)
    assert err <= 1e-3
    # phi = 0 gives zero exactly
    zero = Field(unit_grid, np.zeros(unit_grid.n, dtype=complex))
    assert shape_derivative_check(dom, psi, zero, h_fd=1e-4) < 1e-12


def test_shape_derivative_quadratic_in_h(unit_grid):
    x = unit_grid.axis_points()
    eta = Field(unit_grid, (0.05 * np.cos(x)).astype(complex))
    psi = Field(unit_grid, np.sin(x).astype(complex))
    phi = Field(unit_grid, np.cos(2 * x).astype(complex))
    dom = FluidDomain(unit_grid, eta, B_DEPTH, 256)
    # below h ~ 3e-3 the centered difference hits the solver floor; the
    # quadratic regime is checked on the window above it
    hs = [3e-2, 1e-2, 3e-3]
    errs = [shape_derivative_check(dom, psi, phi, h_fd=h) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.4


# -- boundary symbols ------------------------------------------------------------


def test_symbols_flat():
    g = Grid(128, 2 * np.pi)
    surf = surface_from_field(Field(g, np.zeros(g.n, dtype=complex)))
    syms = dn_symbols(surf)
    xi = np.array([-4.0, -1.0, 2.0, 8.0])
    x = np.zeros_like(xi)
    assert np.allclose(syms["lambda1"](x, xi), np.abs(xi))
    assert np.allclose(syms["lambda0"](x, xi), 0.0)
    assert np.allclose(syms["a_plus"][1](x, xi), np.abs(xi))
    assert np.allclose(syms["a_minus"][1](x, xi), -np.abs(xi))


def test_symbols_identities():
    g = Grid(256, 2 * np.pi)
    x = g.axis_points()
    eta = Field(g, (0.15 * np.cos(x) + 0.05 * np.sin(2 * x)).astype(complex))
    surf = surface_from_field(eta)
    syms = dn_symbols(surf)
    xs = np.linspace(-3, 3, 13)
    xis = np.array([-8.0, -2.0, 0.0, 1.5, 4.0, 16.0])
    X, XI = np.meshgrid(xs, xis)
    a1p = syms["a_plus"][1](X, XI)
    a1m = syms["a_minus"][1](X, XI)
    gp = surf.etap(X)
    c = 1.0 / (1.0 + gp ** 2)
    # top-order identity a_+ + a_- = 2 i c grad(eta) . xi
    assert np.max(np.abs(a1p + a1m - 2j * c * gp * XI)) < 1e-12
    # lambda = (1+|grad eta|^2) a_+ - i grad(eta) . xi at top order
    lam = (1.0 + gp ** 2) * a1p - 1j * gp * XI
    assert np.max(np.abs(lam - syms["lambda1"](X, XI))) < 1e-12
    # sub-principal consistency of the two constructions
    lam0 = syms["lambda0"](X, XI)
    assert np.max(np.abs(lam0 - (1.0 + gp ** 2) * syms["a_plus"][0](X, XI))) < 1e-10


def test_a_pm_are_the_roots_of_the_principal_symbol():
    # a_pm^(1) solve (1+eta'^2) a^2 - 2 i eta' xi a - xi^2 = 0, the principal
    # symbol of the flattened Laplacian, as its two distinct roots (Vieta:
    # product -xi^2/(1+eta'^2)), at off-grid (x, xi) where eta' != 0
    surf = SurfaceDerivatives(lambda x: 0.4 * np.cos(1.3 * x) + 0.6,
                              lambda x: -0.52 * np.sin(1.3 * x))
    syms = dn_symbols(surf)
    rng = np.random.default_rng(4)
    x, xi = rng.uniform(-5.0, 5.0, 200), rng.uniform(-40.0, 40.0, 200)
    gp = surf.etap(x)
    assert np.min(np.abs(gp)) >= 0.2
    a_p, a_m = syms["a_plus"][1](x, xi), syms["a_minus"][1](x, xi)
    for a in (a_p, a_m):
        residual = (1.0 + gp ** 2) * a ** 2 - 2j * gp * xi * a - xi ** 2
        assert np.max(np.abs(residual) / xi ** 2) <= 1e-12
    assert np.max(np.abs(a_p * a_m * (1.0 + gp ** 2) / xi ** 2 + 1.0)) <= 1e-12


def test_high_frequency_paralinearization_structure():
    # G(eta) psi_k ~ T_lambda(psi_k - T_B eta) - T_V d_x(eta) + discrete-defect
    # correction; the residual decays in k with slope <= -0.8 for a surface of
    # limited smoothness (smooth eta buries the remainder under solver floors)
    g = Grid(1024, 4 * np.pi)
    fam = rough_field_family(2.0, g.length, seed=7, n_max=1024)
    eta_r = fam(1024)
    lp = lattice_multiplier_apply(eta_r, lambda xi: np.exp(-((xi / (g.nyquist / 3)) ** 8)))
    prof = np.real(lp.values)
    eta = Field(g, (0.1 * prof / np.max(np.abs(prof))).astype(complex))
    surf = surface_from_field(eta)
    syms = dn_symbols(surf)
    lam_sym = lambda xx, xi: syms["lambda1"](xx, xi) + syms["lambda0"](xx, xi)
    axi = np.abs(g.axis_frequencies())
    etax = np.real(multiplier_apply(eta, lambda xi: 1j * xi).values)
    errs, ks = [], [8.0, 16.0, 32.0]
    for k in ks:
        nz = int(64 * k)
        dom = FluidDomain(g, eta, B_DEPTH, nz)
        # one workspace per nz: its z-eigenfactors are the bulk of a solve's
        # cost here, and b_v_fields's solve starts from dn_elliptic's
        ws = dno._StripWorkspace(dom)
        defect = ws.flat_symbol() - axi * np.tanh(B_DEPTH * axi)
        psi = wave_packet(g, 0.0, k, 1.5, normalize=True)
        psi = Field(g, np.real(psi.values).astype(complex))
        Gp = dn_elliptic(dom, psi, workspace=ws)
        B, V = b_v_fields(dom, psi, workspace=ws)
        good = Field(g, psi.values - paradiff_apply(B, eta).values)
        Tlam = paradiff_apply(lam_sym, good)
        TV = paradiff_apply(V, Field(g, etax.astype(complex)))
        corr = lattice_multiplier_apply(psi, lambda xi, defect=defect: defect)
        r = Field(g, Gp.values - (Tlam.values - TV.values) - corr.values)
        errs.append(l2_norm(r) / weighted_norm(psi, 1.0, 0.0))
    slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
    print(f"paralinearization residuals {errs}, slope {slope:.2f}")
    assert slope <= -0.8


def test_flat_symbol_does_not_depend_on_the_surface():
    # integrate reads g0 off its own workspace: the flat solve uses only the
    # strip geometry, so a ramp workspace gives discrete_flat_symbol exactly
    ws = _ramp_workspace()
    assert np.array_equal(ws.flat_symbol(), discrete_flat_symbol(ws.dom.grid, B_DEPTH, ws.nz))


def test_discrete_flat_symbol_convergence():
    g = Grid(256, 20 * np.pi)
    axi = np.abs(g.axis_frequencies())
    target = axi * np.tanh(B_DEPTH * axi)
    errs = []
    for nz in (32, 64, 128):
        sym = discrete_flat_symbol(g, B_DEPTH, nz)
        sel = axi > 0
        errs.append(np.max(np.abs((sym[sel] - target[sel]) / target[sel])))
    assert errs[2] < errs[1] < errs[0]
