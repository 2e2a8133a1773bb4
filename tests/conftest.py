"""Shared fixtures and independent oracles for the test suite.

The key oracle here evaluates spectral fields on a fine continuum quadrature
grid (Gauss-Legendre in z, zero-padded FFT nodes in x, y) so that integrals of
products of fields can be computed without any discrete-transform aliasing.
"""

import numpy as np
import pytest
import scipy.fft as sfft
from numpy.polynomial.legendre import leggauss

from hydrostokes.basis import Grid, VerticalBasis
from hydrostokes.fields import SpectralField


@pytest.fixture
def grid16():
    return Grid(16, 16, 1.0)


@pytest.fixture
def grid8():
    return Grid(8, 8, 1.0)


def gauss_legendre_z(h: float, n: int):
    """Gauss-Legendre nodes and weights on (-h, 0)."""
    zs, ws = leggauss(n)
    return -h / 2 + (h / 2) * zs, (h / 2) * ws


def eval_fine(field: SpectralField, zq: np.ndarray, nx: int) -> np.ndarray:
    """Evaluate a spectral field at (fine horizontal grid) x (arbitrary z).

    Returns an array of shape (ncomp, nx, nx, len(zq)).  Horizontal evaluation
    zero-pads the Fourier coefficients to an nx-point grid; vertical evaluation
    sums the sine series exactly at the quadrature nodes.
    """
    grid = field.grid
    basis = VerticalBasis(grid)
    phi = np.sin(basis.lambdas[None, :] * (zq[:, None] + grid.h))  # (nq, K)
    c = field.full()
    vals_z = np.einsum("smnk,qk->smnq", c, phi)
    # embed the N modes into an nx-point spectrum (no Nyquist issues: the
    # fields under test have the unpaired mode zeroed already)
    N = grid.N
    out = np.zeros((c.shape[0], nx, nx, len(zq)), dtype=complex)
    idx = sfft.fftfreq(N, 1.0 / N).astype(int)
    out[:, np.ix_(idx, idx)[0], np.ix_(idx, idx)[1], :] = vals_z
    return sfft.ifft2(out, axes=(1, 2)).real * nx**2


def fine_inner_product(a, b, wq, nx):
    """integral over the layer of sum_i a_i b_i using the fine evaluation."""
    return np.einsum("sxyq,sxyq,q->", a, b, wq) / nx**2


def continuum_energy_pairing(v: SpectralField, w: SpectralField, nq=160, pad=3):
    """<(v . grad)w + w3 dz w, w> evaluated on the continuum (no aliasing).

    v must be a 2-component solenoidal field; w is 2-component.  Returns the
    pairing and the L2 norm of w for forming a relative measure.
    """
    from oracles import divergence_h, horizontal_derivative

    grid = v.grid
    nx = pad * grid.N
    zq, wq = gauss_legendre_z(grid.h, nq)
    basis = VerticalBasis(grid)

    vf = eval_fine(v, zq, nx)
    wf = eval_fine(w, zq, nx)
    dxw = eval_fine(horizontal_derivative(w, "x"), zq, nx)
    dyw = eval_fine(horizontal_derivative(w, "y"), zq, nx)

    # vertical velocity and vertical derivative on the continuum: w3(z) =
    # -int_{-h}^z div_H v and dz w via the cosine series, both evaluated
    # exactly at the quadrature nodes
    div = divergence_h(v).full()[0]
    lam = basis.lambdas
    prim = (1.0 - np.cos(lam[None, :] * (zq[:, None] + grid.h))) / lam[None, :]
    w3 = -np.einsum("mnk,qk->mnq", div, prim)
    w3_fine = np.zeros((1, nx, nx, len(zq)), dtype=complex)
    idx = sfft.fftfreq(grid.N, 1.0 / grid.N).astype(int)
    w3_fine[0][np.ix_(idx, idx)] = w3
    w3_fine = sfft.ifft2(w3_fine, axes=(1, 2)).real * nx**2

    psi = np.cos(lam[None, :] * (zq[:, None] + grid.h)) * lam[None, :]
    dzw = np.einsum("smnk,qk->smnq", w.full(), psi)
    dzw_fine = np.zeros((w.ncomp, nx, nx, len(zq)), dtype=complex)
    dzw_fine[:, np.ix_(idx, idx)[0], np.ix_(idx, idx)[1], :] = dzw
    dzw_fine = sfft.ifft2(dzw_fine, axes=(1, 2)).real * nx**2

    adv = vf[0:1] * dxw + vf[1:2] * dyw + w3_fine * dzw_fine
    pairing = fine_inner_product(adv, wf, wq, nx)
    norm_w = np.sqrt(fine_inner_product(wf, wf, wq, nx))
    return pairing, norm_w
