"""Helmholtz projections on the layer.

Q is the 2-d periodic Helmholtz projection acting on vertical averages; the
hydrostatic projection P f = f - (1-Q) fbar removes, per horizontal
wavenumber, the component of the vertical mean parallel to xi, lifted as a
z-constant field.  In the K-mode truncation the constant is represented by
the renormalized expansion betas/sigma_K so that P is exactly idempotent and
the projected mean is exactly divergence-free.
"""

import numpy as np

from .basis import Grid, unit_wavevectors
from .fields import SpectralField, vertical_mean


def helmholtz_2d(ghat: np.ndarray, grid: Grid) -> np.ndarray:
    """2-d periodic Helmholtz projection of full-plane Fourier coefficients (2, N, N).

    Per wavenumber xi != 0 removes the component along xi; the zero mode is
    untouched (constants are divergence-free).
    """
    xi_hat = unit_wavevectors(*grid.xi_vectors())
    par = np.einsum("cmn,cmn->mn", xi_hat, ghat)
    return ghat - xi_hat * par[None, :, :]


def project_hydrostatic(f: SpectralField) -> SpectralField:
    """Hydrostatic Helmholtz projection P f = f - (1-Q) fbar.

    Subtracts, per wavenumber xi != 0, the xi-parallel part of the vertical
    mean, expanded as a z-constant via the renormalized betas so the new
    parallel mean is exactly zero.  Idempotent to round-off.
    """
    if f.ncomp != 2:
        raise ValueError(f"hydrostatic projection needs ncomp=2, got {f.ncomp}")
    xi_hat = f.grid.xi_hat
    mean = vertical_mean(f)  # (2, N, N)
    mpar = np.einsum("cmn,cmn->mn", xi_hat, mean)
    out = f.coeffs - np.einsum("cmn,k->cmnk", xi_hat * mpar[None], f.grid.basis.betas_t)
    return SpectralField(out, f.grid)


def check_solenoidal(f: SpectralField) -> float:
    """Max over wavenumbers of |xi . mean| over ||f||_{L^2} / sqrt(h), which carries no h."""
    if f.ncomp != 2:
        raise ValueError(f"solenoidality check needs ncomp=2, got {f.ncomp}")
    g = f.grid
    mean = vertical_mean(f)
    div = np.abs(np.sqrt(g.xi2) * np.einsum("cmn,cmn->mn", g.xi_hat, mean)).max()
    scale = f.norm2()
    if scale == 0.0:
        return 0.0
    return float(div * np.sqrt(g.h) / scale)


def recover_pressure_gradient(v: SpectralField, f: SpectralField) -> np.ndarray:
    """Surface-pressure gradient from Delta_H pi = div_H fbar - div_H (dz v at bottom)/h.

    Returns Fourier coefficients of grad_H pi, shape (2, N, N/2+1).  The bottom
    shear per mode is sum_k lambda_k c_k since phi_k'(-h) = lambda_k.
    """
    g = v.grid
    shear = np.sum(v.coeffs * g.basis.lambdas, axis=3) / g.h  # (2, N, N/2+1)
    rhs = vertical_mean(f) - shear
    par = np.einsum("cmn,cmn->mn", g.xi_hat, rhs)
    return g.xi_hat * par[None, :, :]


def recover_pressure(v: SpectralField, f: SpectralField) -> np.ndarray:
    """Fourier coefficients of pi itself, zero-mean normalized, shape (N, N/2+1)."""
    g = v.grid
    grad = recover_pressure_gradient(v, f)
    norm = np.sqrt(g.xi2)
    norm[0, 0] = 1.0
    # grad = i xi pihat  =>  pihat = -i xi . grad / |xi|^2 = -i xi_hat . grad / |xi|
    pihat = -1j * np.einsum("cmn,cmn->mn", g.xi_hat, grad) / norm
    pihat[0, 0] = 0.0
    return pihat
