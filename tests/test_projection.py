"""Helmholtz projection, hydrostatic Leray projection, pressure recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrostokes.basis import Grid, VerticalBasis
from hydrostokes.fields import SpectralField, vertical_mean
from hydrostokes.projection import check_solenoidal, helmholtz_2d, project_hydrostatic
from hydrostokes.sampling import random_field, single_mode_field
from hydrostokes.semigroup import StokesOperator
from oracles import recover_pressure, recover_pressure_gradient


def fourier_2d(func_x, func_y, N):
    import scipy.fft as sfft

    x = np.arange(N) / N
    gx = func_x(x[:, None], x[None, :])
    gy = func_y(x[:, None], x[None, :])
    return np.stack([sfft.fft2(gx) / N**2, sfft.fft2(gy) / N**2])


# -- 2-d Helmholtz --------------------------------------------------------


def test_helmholtz_annihilates_gradients(grid8):
    ghat = fourier_2d(
        lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x) * np.ones_like(y),
        lambda x, y: np.zeros_like(x + y),
        8,
    )
    out = helmholtz_2d(ghat, grid8)
    assert np.abs(out).max() <= 1e-14


def test_helmholtz_fixes_divergence_free(grid8):
    # g = (-dy psi, dx psi), psi = sin(2 pi x) sin(2 pi y)
    ghat = fourier_2d(
        lambda x, y: -2 * np.pi * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
        lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y),
        8,
    )
    out = helmholtz_2d(ghat, grid8)
    assert np.abs(out - ghat).max() <= 1e-13 * np.abs(ghat).max()


def test_helmholtz_keeps_constants(grid8):
    ghat = np.zeros((2, 8, 8), dtype=complex)
    ghat[0, 0, 0] = 3.0
    ghat[1, 0, 0] = -1.0
    out = helmholtz_2d(ghat, grid8)
    assert np.allclose(out, ghat)


# -- hydrostatic projection -----------------------------------------------


def test_projection_identity_on_mean_free(grid16):
    f = random_field(grid16, ncomp=2, seed=4)
    # remove the vertical mean mode by mode: c -> c - mean * betas_t
    basis = VerticalBasis(grid16)
    m = vertical_mean(f)
    c = f.coeffs - m[..., None] * basis.betas_t
    f0 = SpectralField(c, grid16)
    assert np.abs(vertical_mean(f0)).max() <= 1e-14
    pf = project_hydrostatic(f0)
    assert np.abs(pf.coeffs - f0.coeffs).max() <= 1e-13 * np.abs(f0.coeffs).max()


def test_projection_keeps_perpendicular_constant(grid8):
    # f = (sin 2 pi y, 0) x (z-constant): horizontal mean is divergence-free
    basis = VerticalBasis(grid8)
    c = np.zeros((2, 8, 8, 8), dtype=complex)
    c[0, 0, 1, :] = -0.5j * basis.betas_t
    c[0, 0, -1, :] = 0.5j * basis.betas_t
    f = SpectralField.from_full(c, grid8)
    pf = project_hydrostatic(f)
    assert np.abs(pf.coeffs - f.coeffs).max() <= 1e-14


def test_projection_kills_parallel_mean(grid8):
    # f = (sin 2 pi x, 0) x (z-constant) is a pure pressure gradient
    basis = VerticalBasis(grid8)
    c = np.zeros((2, 8, 8, 8), dtype=complex)
    c[0, 1, 0, :] = -0.5j * basis.betas_t
    c[0, -1, 0, :] = 0.5j * basis.betas_t
    f = SpectralField.from_full(c, grid8)
    pf = project_hydrostatic(f)
    # the parallel vertical mean vanishes exactly; the residual is the
    # truncation remainder of the constant's renormalized expansion
    assert np.abs(vertical_mean(pf)).max() <= 1e-15
    brute = f.coeffs - vertical_mean(f)[..., None] * basis.betas_t
    assert np.abs(pf.coeffs - brute).max() <= 1e-14


def test_projection_idempotent_sample(grid16):
    for seed in range(5):
        f = random_field(grid16, ncomp=2, seed=seed)
        pf = project_hydrostatic(f)
        ppf = project_hydrostatic(pf)
        scale = np.abs(pf.coeffs).max()
        assert np.abs(ppf.coeffs - pf.coeffs).max() <= 1e-13 * scale
        assert check_solenoidal(pf) <= 1e-13


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), ktag=st.sampled_from([4, 8, 12]))
def test_projection_idempotent_property(seed, ktag):
    grid = Grid(8, ktag, 1.0)
    f = random_field(grid, ncomp=2, seed=seed)
    pf = project_hydrostatic(f)
    ppf = project_hydrostatic(pf)
    scale = max(np.abs(pf.coeffs).max(), 1e-30)
    assert np.abs(ppf.coeffs - pf.coeffs).max() <= 1e-12 * scale
    assert check_solenoidal(pf) <= 1e-12


# -- solenoidal defect ----------------------------------------------------


def test_check_solenoidal_zero(grid8):
    f = SpectralField.from_full(np.zeros((2, 8, 8, 8), complex), grid8)
    assert check_solenoidal(f) == 0.0


@pytest.mark.parametrize("h", [1.0, 1e-4, 1e-8, 1e-14, 1e-20])
def test_check_solenoidal_depth_invariant(h):
    # the defect of exactly projected data is round-off at every depth
    pf = project_hydrostatic(random_field(Grid(8, 8, h), ncomp=2, seed=0))
    assert check_solenoidal(pf) <= 1e-13


def test_check_solenoidal_hand_value(grid8):
    # f = (cos 2 pi x, 0) x phi_0: defect |xi| |mean phi_0| / ||f||_{L^2}
    # = 2 pi (2/pi) / (2 ||f||) with ||f|| = 1/2, giving exactly 4
    f = single_mode_field(grid8, m=1, n=0, k=0, component=0)
    assert check_solenoidal(f) == pytest.approx(4.0, rel=1e-12)


# -- pressure recovery ----------------------------------------------------


def test_pressure_gradient_zero_for_mean_free(grid8):
    f = random_field(grid8, ncomp=2, seed=6)
    basis = VerticalBasis(grid8)
    c = f.coeffs - vertical_mean(f)[..., None] * basis.betas_t
    f0 = SpectralField(c, grid8)
    v0 = SpectralField(np.zeros_like(c), grid8)
    gp = recover_pressure_gradient(v0, f0)
    assert np.abs(gp).max() <= 1e-13 * np.abs(c).max()


def test_pressure_gradient_recovers_forcing_gradient(grid8):
    # v = 0, f = (sin 2 pi x, 0) x 1: the whole forcing is a pressure gradient
    basis = VerticalBasis(grid8)
    c = np.zeros((2, 8, 8, 8), dtype=complex)
    c[0, 1, 0, :] = -0.5j * basis.betas_t
    c[0, -1, 0, :] = 0.5j * basis.betas_t
    f = SpectralField.from_full(c, grid8)
    v0 = SpectralField.from_full(np.zeros_like(c), grid8)
    gp = recover_pressure_gradient(v0, f)
    expect = np.zeros((2, 8, 8), dtype=complex)
    expect[0, 1, 0] = -0.5j
    expect[0, -1, 0] = 0.5j
    assert np.abs(gp - expect[:, :, :5]).max() <= 1e-13


def test_resolvent_residual_with_pressure(grid8):
    # lambda v - Delta v + grad pi - f = 0 in the truncated span
    op = StokesOperator(grid8)
    basis = VerticalBasis(grid8)
    f = random_field(grid8, ncomp=2, seed=11)
    pf = project_hydrostatic(f)
    lam = 1.7
    v = op.resolvent_apply(lam, pf)
    gp = recover_pressure_gradient(v, f)
    laplacian = -(op.xi2[None, :, :, None] + basis.lambdas**2) * v.coeffs
    res = lam * v.coeffs - laplacian + gp[..., None] * basis.betas_t - f.coeffs
    assert np.abs(res).max() <= 1e-10 * np.abs(f.coeffs).max()


def test_recover_pressure_from_gradient(grid8):
    # forcing = grad_H psi (z-constant): recovered pi equals psi up to constant
    psi = random_field(grid8, ncomp=1, seed=13)
    basis = VerticalBasis(grid8)
    psibar = vertical_mean(psi)[0]
    # build f = grad_H of the z-constant field with 2-d spectrum psibar
    xi = grid8.xi
    c = np.zeros((2, 8, 5, 8), dtype=complex)
    fx = 1j * xi[:, None] * psibar
    fy = 1j * xi[None, :5] * psibar
    c[0] = fx[..., None] * basis.betas_t
    c[1] = fy[..., None] * basis.betas_t
    f = SpectralField(c, grid8)
    v0 = SpectralField(np.zeros_like(c), grid8)
    pihat = recover_pressure(v0, f)
    target = psibar.copy()
    target[0, 0] = 0.0
    assert np.abs(pihat - target).max() <= 1e-12 * max(np.abs(target).max(), 1)


def test_recover_pressure_zero_for_divergence_free(grid8):
    psi = random_field(grid8, ncomp=1, seed=14)
    basis = VerticalBasis(grid8)
    psibar = vertical_mean(psi)[0]
    xi = grid8.xi
    c = np.zeros((2, 8, 5, 8), dtype=complex)
    c[0] = (-1j * xi[None, :5] * psibar)[..., None] * basis.betas_t
    c[1] = (1j * xi[:, None] * psibar)[..., None] * basis.betas_t
    f = SpectralField(c, grid8)
    v0 = SpectralField(np.zeros_like(c), grid8)
    pihat = recover_pressure(v0, f)
    assert np.abs(pihat).max() <= 1e-13 * max(np.abs(psibar).max(), 1)
