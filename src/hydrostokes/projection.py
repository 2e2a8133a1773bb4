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
