"""Stokes operator blocks, semigroup, phi-1, resolvent, spectrum."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm, null_space

import hydrostokes.semigroup

from hydrostokes.basis import Grid, VerticalBasis
from hydrostokes.fields import SpectralField, hermitian_part
from hydrostokes.projection import project_hydrostatic
from hydrostokes.sampling import random_field, single_mode_field
from hydrostokes.semigroup import SemigroupCache, SingularityError, StokesOperator, spectral_bound


# -- operator blocks ------------------------------------------------------


def test_vertical_block_origin_mode():
    op = StokesOperator(Grid(4, 1, 1.0))
    # xi = 0: pure vertical heat, eigenvalue -lambda_0^2 = -pi^2/4
    c = np.zeros((2, 4, 4, 1), dtype=complex)
    c[0, 0, 0, 0] = 1.0
    out = op.apply_A(SpectralField.from_full(c, op.grid))
    assert out.coeffs[0, 0, 0, 0] == pytest.approx(-np.pi**2 / 4, abs=1e-13)


def test_parallel_block_hand_value():
    # K=1, h=1, xi=(2 pi, 0): the rank-one correction R~_{00} = 2/sigma_1
    # cancels against itself and the block is exactly -4 pi^2
    grid = Grid(4, 1, 1.0)
    op = StokesOperator(grid)
    Mz = op.Mz
    assert Mz.shape == (1, 1)
    # R~_{00} = beta~_0 lambda_0 / h = pi^2/4 cancels -lambda_0^2
    assert Mz[0, 0] == pytest.approx(0.0, abs=1e-13)
    # parallel sine coefficient at xi=(2 pi, 0): c_par has eigenvalue -4 pi^2
    c = np.zeros((2, 4, 4, 1), dtype=complex)
    c[0, 1, 0, 0] = 1.0
    c[0, -1, 0, 0] = 1.0
    out = op.apply_A(SpectralField.from_full(c, grid))
    assert out.coeffs[0, 1, 0, 0] == pytest.approx(-4 * np.pi**2, abs=1e-11)


def test_rank_one_correction_brute_force():
    grid = Grid(4, 8, 0.7)
    op = StokesOperator(grid)
    basis = VerticalBasis(grid)
    R = np.outer(basis.betas_t / grid.h, basis.lambdas)
    assert np.allclose(op.Mz - np.diag(-basis.lambdas**2), R, atol=1e-13)


def test_apply_A_perpendicular_mode(grid8):
    op = StokesOperator(grid8)
    basis = VerticalBasis(grid8)
    for k in (0, 3):
        # xi = (2 pi, 0) with velocity along e_y is perpendicular: diagonal
        c = np.zeros((2, 8, 8, 8), dtype=complex)
        c[1, 1, 0, k] = 1.0
        c[1, -1, 0, k] = 1.0
        out = op.apply_A(SpectralField.from_full(c, grid8))
        mu = 4 * np.pi**2 + basis.lambdas[k] ** 2
        assert np.abs(out.full() + mu * c).max() <= 1e-11


def test_apply_A_assembly_oracle(grid8):
    op = StokesOperator(grid8)
    basis = VerticalBasis(grid8)
    v = random_field(grid8, ncomp=2, seed=8)
    out = op.apply_A(v)
    # independent dense assembly, looping over horizontal modes
    xix, xiy = grid8.xi_vectors()
    lam2 = basis.lambdas**2
    R = np.outer(basis.betas_t / grid8.h, basis.lambdas)
    expect = np.empty_like(v.full())
    for i in range(8):
        for j in range(8):
            s = xix[i, j] ** 2 + xiy[i, j] ** 2
            c = v.full()[:, i, j, :]
            if s == 0:
                expect[:, i, j, :] = -lam2 * c
                continue
            e = np.array([xix[i, j], xiy[i, j]]) / np.sqrt(s)
            cpar = e @ c
            cperp = c - np.outer(e, cpar)
            apar = -s * cpar + (np.diag(-lam2) + R) @ cpar
            aperp = -(s + lam2) * cperp
            expect[:, i, j, :] = aperp + np.outer(e, apar)
    assert np.abs(out.full() - expect).max() <= 1e-12 * np.abs(expect).max()


# -- semigroup ------------------------------------------------------------


def test_semigroup_identity_at_zero(grid8):
    op = StokesOperator(grid8)
    v = random_field(grid8, ncomp=2, seed=1)
    out = op.semigroup_apply(0.0, v)
    assert np.array_equal(out.coeffs, v.coeffs)


@pytest.mark.parametrize("ncomp", [1, 3])
@pytest.mark.parametrize(
    "apply",
    [
        lambda op, v: op.apply_A(v),
        lambda op, v: op.semigroup_apply(0.1, v),
        lambda op, v: op.semigroup_apply(0.0, v),
        lambda op, v: op.phi1_apply(0.1, v),
        lambda op, v: op.resolvent_apply(0.3 + 2.0j, v),
    ],
    ids=["apply_A", "semigroup", "semigroup_t0", "phi1", "resolvent"],
)
def test_operator_rejects_other_component_counts(grid8, apply, ncomp):
    v = random_field(grid8, ncomp=ncomp, seed=4)
    with pytest.raises(ValueError, match="ncomp=2"):
        apply(grid8.stokes, v)


def test_semigroup_rejects_negative_time(grid8):
    op = StokesOperator(grid8)
    v = random_field(grid8, ncomp=2, seed=1)
    with pytest.raises(ValueError):
        op.semigroup_apply(-0.1, v)


def test_semigroup_origin_mode_decay(grid8):
    op = StokesOperator(grid8)
    basis = VerticalBasis(grid8)
    for k in (0, 5):
        c = np.zeros((2, 8, 8, 8), dtype=complex)
        c[0, 0, 0, k] = 1.0
        out = op.semigroup_apply(0.2, SpectralField.from_full(c, grid8))
        assert out.coeffs[0, 0, 0, k] == pytest.approx(
            np.exp(-basis.lambdas[k] ** 2 * 0.2), rel=1e-12
        )


def test_semigroup_matches_ode_oracle():
    # K=8, xi=(2 pi, 2 pi), random parallel coefficients: adaptive ODE
    # integration of dc/dt = Mz c - |xi|^2 c must match expm to 1e-8
    grid = Grid(8, 8, 1.0)
    op = StokesOperator(grid)
    rng = np.random.default_rng(42)
    c0 = rng.standard_normal(8)
    s = 8 * np.pi**2
    M = op.Mz - s * np.eye(8)
    sol = solve_ivp(lambda t, y: M @ y, (0, 0.1), c0, rtol=1e-12, atol=1e-14)
    # drive the same coefficients through semigroup_apply
    e = np.array([1.0, 1.0]) / np.sqrt(2)
    c = np.zeros((2, 8, 8, 8), dtype=complex)
    c[:, 1, 1, :] = np.outer(e, c0)
    c[:, -1, -1, :] = np.outer(e, c0)
    out = op.semigroup_apply(0.1, SpectralField.from_full(c, grid))
    got = (e @ out.coeffs[:, 1, 1, :]).real
    assert np.abs(got - sol.y[:, -1]).max() <= 1e-8


def test_semigroup_law(grid8):
    op = StokesOperator(grid8)
    v = random_field(grid8, ncomp=2, seed=2)
    ab = op.semigroup_apply(0.07, op.semigroup_apply(0.05, v))
    direct = op.semigroup_apply(0.12, v)
    assert np.abs(ab.coeffs - direct.coeffs).max() <= 1e-10 * np.abs(v.coeffs).max()


def test_generator_consistency_order(grid8):
    op = StokesOperator(grid8)
    v = random_field(grid8, ncomp=2, seed=3, decay=4.0)
    av = op.apply_A(v)
    errs = []
    for tau in (5e-4, 2.5e-4):
        fd = (op.semigroup_apply(tau, v).coeffs - v.coeffs) / tau
        errs.append(np.abs(fd - av.coeffs).max())
    order = np.log2(errs[0] / errs[1])
    assert order >= 0.9


# -- phi-1 ----------------------------------------------------------------


def test_phi1_scalar_closed_form(grid8):
    op = StokesOperator(grid8)
    basis = VerticalBasis(grid8)
    # perpendicular single mode: phi_1(t A) acts as (1 - e^{-t mu})/(t mu)
    c = np.zeros((2, 8, 8, 8), dtype=complex)
    c[1, 1, 0, 2] = 1.0
    c[1, -1, 0, 2] = 1.0
    mu = 4 * np.pi**2 + basis.lambdas[2] ** 2
    out = op.phi1_apply(1.0, SpectralField.from_full(c, grid8))
    assert out.coeffs[1, 1, 0, 2] == pytest.approx((1 - np.exp(-mu)) / mu, rel=1e-12)


def test_phi1_small_time_limit(grid8):
    op = StokesOperator(grid8)
    g = random_field(grid8, ncomp=2, seed=4)
    ag = op.apply_A(g)
    t = 1e-6
    out = op.phi1_apply(t, g)
    assert np.abs(out.coeffs - g.coeffs).max() <= t * np.abs(ag.coeffs).max()


def test_exponential_euler_exact_for_constant_forcing(grid8):
    # v(t) = e^{tA} v0 + t phi_1(tA) f solves dv/dt = Av + f exactly
    op = StokesOperator(grid8)
    v0 = random_field(grid8, ncomp=2, seed=5)
    f = random_field(grid8, ncomp=2, seed=6)
    t = 0.05
    got = op.semigroup_apply(t, v0).coeffs + t * op.phi1_apply(t, f).coeffs

    def rhs(_, y):
        c = (y[: y.size // 2] + 1j * y[y.size // 2 :]).reshape(v0.coeffs.shape)
        a = op.apply_A(SpectralField(c, grid8)).coeffs + f.coeffs
        return np.concatenate([a.real.ravel(), a.imag.ravel()])

    y0 = np.concatenate([v0.coeffs.real.ravel(), v0.coeffs.imag.ravel()])
    sol = solve_ivp(rhs, (0, t), y0, rtol=1e-11, atol=1e-13)
    yend = sol.y[:, -1]
    expect = (yend[: yend.size // 2] + 1j * yend[yend.size // 2 :]).reshape(v0.coeffs.shape)
    assert np.abs(got - expect).max() <= 1e-9 * np.abs(expect).max()


def _phi1_matrix(A):
    """phi1(A) = A^{-1}(e^A - I) via the augmented-matrix exponential."""
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n), dtype=complex)
    aug[:n, :n] = A
    aug[:n, n:] = np.eye(n)
    return expm(aug)[:n, n:]


def _mode_unit_vectors(grid):
    """(i, j, s, e) per stored horizontal mode, e = xi/|xi| (zero at the origin)."""
    xix, xiy = grid.xi_vectors()
    for i in range(grid.N):
        for j in range(grid.N // 2 + 1):
            s = xix[i, j] ** 2 + xiy[i, j] ** 2
            e = np.array([xix[i, j], xiy[i, j]]) / np.sqrt(s) if s > 0 else np.zeros(2)
            yield i, j, s, e


def _phi1_relative_error(N, K, h, t):
    grid = Grid(N, K, h)
    op = StokesOperator(grid)
    basis = VerticalBasis(grid)
    lam2 = basis.lambdas**2
    Mz = np.diag(-lam2) + np.outer(basis.betas_t / h, basis.lambdas)
    g = random_field(grid, ncomp=2, seed=10)
    got = op.phi1_apply(t, g).coeffs
    blocks = {}
    expect = np.empty_like(g.coeffs)
    for i, j, s, e in _mode_unit_vectors(grid):
        c = g.coeffs[:, i, j, :]
        perp_phi1 = -np.expm1(-t * (s + lam2)) / (t * (s + lam2))
        if s == 0:
            expect[:, i, j, :] = perp_phi1 * c
            continue
        if s not in blocks:
            blocks[s] = _phi1_matrix(t * (Mz - s * np.eye(K)))
        cpar = e @ c
        cperp = c - np.outer(e, cpar)
        expect[:, i, j, :] = perp_phi1 * cperp + np.outer(e, blocks[s] @ cpar)
    return np.abs(got - expect).max() / np.abs(expect).max()


@pytest.mark.parametrize("N,K,h", [(8, 8, 1.0), (16, 64, 0.7)])
@pytest.mark.parametrize("t", [1e-6, 1e-3, 0.005, 1.0])
def test_phi1_matches_augmented_expm(N, K, h, t):
    assert _phi1_relative_error(N, K, h, t) <= 1e-11


@pytest.mark.parametrize("N,K,h", [(8, 8, 1.0), (16, 64, 0.7)])
def test_phi1_small_time_free_of_cancellation(N, K, h):
    # phi1 is elementwise in the rotated basis, with no (e^{tB} - I) / t to cancel
    assert _phi1_relative_error(N, K, h, 1e-6) <= 1e-13


@pytest.mark.parametrize("K,h", [(1, 1.0), (8, 0.7), (16, 1.0), (64, 1e-3), (8, 1e-14), (8, 1e-20)])
def test_parallel_eigendecomposition(K, h):
    # theta, Q diagonalize the symmetrized block -diag(lambda^2) + c 1 1^T:
    # theta <= 0 with one exact zero, whose column is 1/lambda^2 normalized
    basis = VerticalBasis(Grid(4, K, h))
    lam, theta, Q = basis.lambdas, basis.theta, basis.Q
    assert theta.max() == 0.0 and np.count_nonzero(theta == 0.0) == 1
    H = 2.0 / (h**2 * basis.sigmaK) - np.diag(lam**2)
    null = Q[:, theta == 0.0][:, 0]
    assert np.allclose(null * np.linalg.norm(lam**-2.0), lam**-2.0, rtol=1e-15, atol=0)
    assert np.abs(H @ null).max() <= 1e-15 * K * np.abs(H).max()
    assert np.abs(Q.T @ Q - np.eye(K)).max() <= 1e-14 * K
    # and M_z = diag(1/lambda) Q Theta Q^T diag(lambda)
    Mz = StokesOperator(Grid(4, K, h)).Mz
    rebuilt = (Q * theta / lam[:, None]) @ (Q.T * lam)
    assert np.abs(rebuilt - Mz).max() <= 1e-14 * K * np.abs(Mz).max()


@pytest.mark.parametrize("h,tol", [(1.0, 1e-13), (1e-3, 5e-9)])
def test_parallel_exp_matches_40_digit_expm(h, tol):
    # oracle: M_z from the closed-form lambda_k and sigma_K in 40 digits,
    # exponentiated by mpmath (at h = 1e-3 scipy's Pade expm is off by 5e-8)
    mp = pytest.importorskip("mpmath")
    K = 16
    basis = Grid(4, K, h).basis
    with mp.workdps(40):
        depth = mp.mpf(h)
        lam = [(2 * k + 1) * mp.pi / (2 * depth) for k in range(K)]
        c = 1 / sum(x**-2 for x in lam)  # lambda_k b_k = 2 / (h^2 sigma_K)
        Mz = mp.matrix(K, K)
        for i in range(K):
            for j in range(K):
                Mz[i, j] = c * lam[j] / lam[i] - (lam[i] ** 2 if i == j else 0)
        for t in (1e-4, 2.5e-3, 0.1, 1.0):
            expect = np.array(mp.expm(t * Mz).tolist(), dtype=float)
            err = np.abs(hydrostokes.semigroup.expm(basis, t) - expect).max()
            assert err <= tol * np.abs(expect).max(), t


@pytest.mark.parametrize("N,K,h", [(8, 8, 1.0), (16, 12, 0.7), (8, 32, 0.7)])
@pytest.mark.parametrize("t", [1e-6, 1e-3, 0.005, 1.0])
def test_semigroup_matches_dense_expm(N, K, h, t):
    # per mode, A acts on the 2K coefficients (both components) as
    # -(s + lambda^2) plus e e^T (x) R; every stored mode carries data, the
    # origin and the Nyquist row and column included (a dense 2K x 2K expm
    # per mode, so the K = 32 case keeps N small)
    grid = Grid(N, K, h)
    op = StokesOperator(grid)
    basis = VerticalBasis(grid)
    lam2 = basis.lambdas**2
    R = np.outer(basis.betas_t / h, basis.lambdas)
    rng = np.random.default_rng(13)
    shape = (2, N, N // 2 + 1, K)
    v = SpectralField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), grid)
    got = op.semigroup_apply(t, v).coeffs
    expect = np.empty_like(v.coeffs)
    for i, j, s, e in _mode_unit_vectors(grid):
        A = -np.diag(np.tile(s + lam2, 2)) + np.kron(np.outer(e, e), R)
        expect[:, i, j, :] = (expm(t * A) @ v.coeffs[:, i, j, :].ravel()).reshape(2, K)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


# -- resolvent ------------------------------------------------------------


@pytest.mark.parametrize("N,K,h", [(8, 8, 1.0), (16, 64, 0.7)])
@pytest.mark.parametrize("lam", [1.0, 0.3 + 2.0j, 100 * np.exp(0.9j * np.pi), -2.0 + 0.5j])
def test_resolvent_matches_dense_solve(N, K, h, lam):
    # per mode, A acts on the 2K coefficients (both components) as
    # -(s + lambda^2) plus e e^T (x) R; the real part of the dense inverse of
    # lam - A, applied to f, gives the real field Re (lam - A)^{-1} f
    grid = Grid(N, K, h)
    op = StokesOperator(grid)
    basis = VerticalBasis(grid)
    lam2 = basis.lambdas**2
    R = np.outer(basis.betas_t / h, basis.lambdas)
    f = random_field(grid, ncomp=2, seed=11)
    got = op.resolvent_apply(lam, f).coeffs
    expect = np.empty_like(f.coeffs)
    for i, j, s, e in _mode_unit_vectors(grid):
        A = -np.diag(np.tile(s + lam2, 2)) + np.kron(np.outer(e, e), R)
        x = np.linalg.inv(lam * np.eye(2 * K) - A).real @ f.coeffs[:, i, j, :].ravel()
        expect[:, i, j, :] = x.reshape(2, K)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_real_part_of_complex_resolvent(grid8):
    # A is real, so the real field Re (lam - A)^{-1} f has the Hermitian part of
    # the complex field's coefficients; oracle: dense per-mode solves over the full plane
    op = StokesOperator(grid8)
    lam2 = op.basis.lambdas**2
    R = np.outer(op.basis.betas_t / grid8.h, op.basis.lambdas)
    f = random_field(grid8, ncomp=2, seed=11)
    lam = 0.3 + 2.0j
    xix, xiy = grid8.xi_vectors()
    complex_full = np.empty_like(f.full())
    for i in range(8):
        for j in range(8):
            s = xix[i, j] ** 2 + xiy[i, j] ** 2
            e = np.array([xix[i, j], xiy[i, j]]) / np.sqrt(s) if s > 0 else np.zeros(2)
            A = -np.diag(np.tile(s + lam2, 2)) + np.kron(np.outer(e, e), R)
            x = np.linalg.solve(lam * np.eye(16) - A, f.full()[:, i, j, :].ravel())
            complex_full[:, i, j, :] = x.reshape(2, 8)
    expect = hermitian_part(complex_full)[:, :, :5]
    got = op.resolvent_apply(lam, f).coeffs
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("grid", [Grid(8, 8, 1.0), Grid(16, 16, 1.0), Grid(16, 64, 0.7)])
@pytest.mark.parametrize("lam", [0.3 + 2.0j, 100 * np.exp(0.9j * np.pi), -2.0 + 0.5j])
def test_resolvent_conjugate_pair_bitwise_equal(grid, lam):
    # the real part is the same at lam and conj lam, to the last bit: the
    # scan solves each pair once, at psi >= 0
    f = random_field(grid, ncomp=2, seed=5)
    a, b = (grid.stokes.resolvent_apply(z, f).coeffs for z in (lam, np.conj(lam)))
    assert np.array_equal(a, b)


def test_resolvent_diagonal_mode(grid8):
    op = StokesOperator(grid8)
    basis = VerticalBasis(grid8)
    c = np.zeros((2, 8, 8, 8), dtype=complex)
    c[1, 1, 0, 1] = 1.0
    c[1, -1, 0, 1] = 1.0
    out = op.resolvent_apply(1.0, SpectralField.from_full(c, grid8))
    mu = 4 * np.pi**2 + basis.lambdas[1] ** 2
    assert out.coeffs[1, 1, 0, 1] == pytest.approx(1.0 / (1.0 + mu), rel=1e-12)


def test_resolvent_residual(grid8):
    op = StokesOperator(grid8)
    f = random_field(grid8, ncomp=2, seed=7)
    v = op.resolvent_apply(1.0, f)
    res = v.coeffs - op.apply_A(v).coeffs - f.coeffs
    assert np.abs(res).max() <= 1e-12 * np.abs(f.coeffs).max()
    # u = Re (lam - A)^{-1} f solves the real equation
    # (|lam|^2 - 2 Re lam A + A^2) u = (Re lam - A) f
    lam = 0.3 + 2.0j
    u = op.resolvent_apply(lam, f)
    Au = op.apply_A(u)
    AAu = op.apply_A(Au).coeffs
    lhs = abs(lam) ** 2 * u.coeffs - 2 * lam.real * Au.coeffs + AAu
    rhs = lam.real * f.coeffs - op.apply_A(f).coeffs
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_resolvent_singular_at_eigenvalue(grid8):
    op = StokesOperator(grid8)
    f = random_field(grid8, ncomp=2, seed=7)
    with pytest.raises(SingularityError):
        op.resolvent_apply(-np.pi**2 / 4, f)


# -- spectrum -------------------------------------------------------------


def test_solenoidal_bound_h1():
    bound, _ = spectral_bound(Grid(8, 8, 1.0), "solenoidal")
    assert bound == pytest.approx(-np.pi**2 / 4, abs=1e-8)


def test_bound_negative_sweep():
    for N, K in ((8, 8), (16, 16), (8, 32)):
        for h in (0.5, 1.0, 2.0):
            bound, _ = spectral_bound(Grid(N, K, h), "solenoidal")
            assert bound < 0
            assert bound == pytest.approx(-((np.pi / (2 * h)) ** 2), abs=1e-8)


def test_full_bound_dominates_solenoidal():
    grid = Grid(8, 8, 1.0)
    bf, _ = spectral_bound(grid, "full")
    bs, _ = spectral_bound(grid, "solenoidal")
    assert bf >= bs - 1e-12


def test_bound_monotone_in_h():
    bounds = [spectral_bound(Grid(8, 8, h), "solenoidal")[0] for h in (0.5, 1.0, 2.0)]
    assert bounds[0] < bounds[1] < bounds[2] < 0


def test_origin_rows_are_vertical_heat():
    grid = Grid(8, 8, 1.0)
    op = StokesOperator(grid)
    basis = VerticalBasis(grid)
    rows = [r for r in op.eigenvalue_report("full") if r[0] == 0 and r[1] == 0]
    evs = sorted(r[3].real for r in rows)
    expect = sorted(np.concatenate([-basis.lambdas**2] * 2))
    assert np.allclose(evs, expect, atol=1e-10)


def _per_mode_report_loop(op, subspace):
    """The per-mode double loop eigenvalue_report replaced, as an oracle."""
    N, lam2 = op.grid.N, op.lam2
    par_eigs = op.basis.theta
    if subspace == "solenoidal":
        par_eigs = np.delete(par_eigs, np.argmin(np.abs(par_eigs)))
    rows = []
    ms = np.fft.fftfreq(N, d=1.0 / N).astype(int)
    xix, xiy = op.grid.xi_vectors()
    for im, m in enumerate(ms):
        for jn, n in enumerate(ms):
            s = xix[im, jn] ** 2 + xiy[im, jn] ** 2
            if im == 0 and jn == 0:
                eigs = np.concatenate([-lam2, -lam2])
            else:
                eigs = np.concatenate([par_eigs - s, -lam2 - s])
            for idx, ev in enumerate(eigs):
                rows.append((m, n, idx, complex(ev)))
    return rows


@pytest.mark.parametrize("grid", [Grid(8, 8, 1.0), Grid(6, 3, 0.7), Grid(4, 1, 2.0)])
@pytest.mark.parametrize("subspace", ["full", "solenoidal"])
def test_eigenvalue_report_matches_per_mode_loop(grid, subspace):
    rows = grid.stokes.eigenvalue_report(subspace)
    want = _per_mode_report_loop(grid.stokes, subspace)
    assert len(rows) == len(want)
    for name, i in (("m", 0), ("n", 1), ("index", 2), ("ev", 3)):
        assert np.array_equal(rows[name], [r[i] for r in want]), name
    assert spectral_bound(grid, subspace)[0] == max(r[3].real for r in want)


@pytest.mark.parametrize("K", [1, 8, 64])
@pytest.mark.parametrize("h", [0.7, 1.0])
def test_solenoidal_eigenvalues_match_deflation(K, h):
    # oracle: M_z restricted to an orthonormal basis of {sum c_k/lambda_k = 0}
    op = StokesOperator(Grid(4, K, h))
    W = null_space(np.atleast_2d(1.0 / op.basis.lambdas))
    expect = np.sort_complex(np.linalg.eigvals(W.T @ op.Mz @ W)) if K > 1 else np.array([])
    rows = op.eigenvalue_report("solenoidal")
    # mode (m, n) = (1, 0): K - 1 parallel rows, then K perpendicular ones
    par = [ev for m, n, idx, ev in rows if (m, n) == (1, 0) and idx < K - 1]
    got = np.sort_complex(np.array(par) + op.xi2[1, 0])
    assert len([r for r in rows if (r[0], r[1]) == (1, 0)]) == 2 * K - 1
    assert got.shape == expect.shape
    if K > 1:
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("N, K, h", [(8, 8, 1.0), (16, 12, 0.7)])
def test_apply_A_matches_dense_coupling(N, K, h):
    # oracle: the stored dense coupling R = b lambda^T, contracted by einsum
    grid = Grid(N, K, h)
    op = StokesOperator(grid)
    v = random_field(grid, ncomp=2, seed=N + K)
    c = v.coeffs
    R = np.outer(op.basis.betas_t / h, op.basis.lambdas)
    expect = -(grid.xi2[None, :, :, None] + op.basis.lambdas**2) * c
    cpar = np.einsum("cmn,cmnk->mnk", grid.xi_hat, c)
    expect += np.einsum("cmn,mnk->cmnk", grid.xi_hat, np.einsum("kj,mnj->mnk", R, cpar))
    got = op.apply_A(v).coeffs
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


def test_split_assemble_round_trip(grid8):
    # f(A) v = diag * v + xi_hat (x) corr(c_par): a zero correction with a
    # unit diagonal returns v exactly, and a zero diagonal with the identity
    # correction leaves the xi-parallel part xi_hat (c_par), which is 0 at xi = 0
    op = StokesOperator(grid8)
    v = random_field(grid8, ncomp=2, seed=21)
    ones = np.ones(op.xi2.shape + (grid8.K,))
    assert np.array_equal(op._per_mode(v, np.zeros_like, ones).coeffs, v.coeffs)
    par = op._per_mode(v, lambda cpar: cpar, np.zeros_like(ones)).coeffs
    expect = np.empty_like(v.coeffs)
    for i, j, _, e in _mode_unit_vectors(grid8):
        expect[:, i, j, :] = np.outer(e, e @ v.coeffs[:, i, j, :])
    assert np.abs(par - expect).max() <= 1e-15 * np.abs(v.coeffs).max()
    assert not par[:, 0, 0, :].any()


def test_one_exponential_block_per_time(grid8, monkeypatch):
    # the semigroup builds one block e^{t M_z} per time; phi1 and the
    # resolvent work elementwise in the rotated basis, so they build none
    calls = []
    build = hydrostokes.semigroup.expm

    def counting_expm(basis, t):
        calls.append(t)
        return build(basis, t)

    monkeypatch.setattr(hydrostokes.semigroup, "expm", counting_expm)
    op = StokesOperator(grid8)
    v = random_field(grid8, ncomp=2, seed=12)
    op.phi1_apply(0.02, v)
    op.resolvent_apply(0.3 + 2.0j, v)
    assert calls == []
    op.semigroup_apply(0.02, v)
    op.semigroup_apply(0.02, v)
    op.semigroup_apply(0.03, v)
    assert calls == [0.02, 0.03]


def test_semigroup_cache_is_a_plain_memo(grid8, monkeypatch):
    # each t is built once and kept for the operator's lifetime: no eviction,
    # and nothing to size, so the memo takes no argument
    calls = []
    build = hydrostokes.semigroup.expm

    def counting_expm(basis, t):
        calls.append(t)
        return build(basis, t)

    monkeypatch.setattr(hydrostokes.semigroup, "expm", counting_expm)
    op = StokesOperator(grid8)
    v = random_field(grid8, ncomp=2, seed=3)
    for t in (0.01, 0.01, 0.04, 0.01, 0.04):
        op.semigroup_apply(t, v)
    assert calls == [0.01, 0.04]
    SemigroupCache()
    with pytest.raises(TypeError):
        SemigroupCache(4096)
    with pytest.raises(TypeError):
        SemigroupCache(maxsize=4096)


def test_semigroup_cache_reuse(grid8):
    op = StokesOperator(grid8)
    v = random_field(grid8, ncomp=2, seed=9)
    a = op.semigroup_apply(0.03, v)
    b = op.semigroup_apply(0.03, v)
    assert np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize(
    "h,bound",
    [(1.0, -np.pi**2 / 4), (1e-14, -4 * np.pi**2), (1e-16, -4 * np.pi**2), (1e-20, -4 * np.pi**2)],
)
def test_full_spectral_bound_down_to_tiny_depth(h, bound):
    # M_z's zero eigenvalue (left null vector 1/lambda) is set exactly, so at a
    # tiny depth the full bound is the first nonzero horizontal mode's,
    # -|xi|^2 = -4 pi^2, however large the vertical eigenvalues
    assert spectral_bound(Grid(8, 8, h), "full")[0] == pytest.approx(bound, rel=1e-12)
