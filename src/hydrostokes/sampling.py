"""Reproducible generators for test and scan fields."""

import numpy as np

from .basis import Grid
from .fields import SpectralField, hermitian_part, zero_nyquist
from .projection import project_hydrostatic


def random_field(
    grid: Grid,
    ncomp: int = 2,
    seed: int = 0,
    decay: float = 2.0,
    rough_amplitude: float = 0.0,
    solenoidal: bool = False,
    amplitude: float = 1.0,
) -> SpectralField:
    """Random real field with algebraically decaying spectrum.

    Amplitudes fall off like (1 + |xi|^2 + lambda_k^2)^{-decay/2}; an optional
    flat-spectrum component of size ``rough_amplitude`` models rough data.
    The full plane is drawn and its Hermitian part kept.  Raises ValueError
    when that envelope overflows somewhere or underflows to 0 everywhere.
    """
    rng = np.random.default_rng(seed)
    xix, xiy = grid.xi_vectors()
    wave2 = (xix**2 + xiy**2)[:, :, None] + grid.basis.lambdas**2
    with np.errstate(over="ignore"):
        envelope = (1.0 + wave2 / wave2.min()) ** (-decay / 2.0)
    if not (np.all(np.isfinite(envelope)) and envelope.any()):
        raise ValueError(f"decay = {decay} puts the spectral envelope out of floating-point range")
    shape = (ncomp, grid.N, grid.N, grid.K)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    full = c * envelope
    if rough_amplitude != 0:  # drawn last, so the other draws do not depend on it
        full += rough_amplitude * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    full = hermitian_part(full)  # exactly Hermitian
    f = SpectralField(full[:, :, : grid.N // 2 + 1].copy(), grid)
    zero_nyquist(f)
    if solenoidal:
        if ncomp != 2:
            raise ValueError("solenoidal sampling needs ncomp=2")
        f = project_hydrostatic(f)
    scale = np.abs(f.coeffs).max()
    if scale > 0:
        f.coeffs *= amplitude / scale
    return f


def single_mode_field(
    grid: Grid, m: int = 1, n: int = 0, k: int = 0, component: int = 0, amplitude: float = 1.0
) -> SpectralField:
    """Real field amplitude * sin-type single mode: e^{i xi x} + c.c. times phi_k."""
    c = np.zeros((2, grid.N, grid.N, grid.K), dtype=complex)
    c[component, m % grid.N, n % grid.N, k] = 0.5 * amplitude
    c[component, -m % grid.N, -n % grid.N, k] += 0.5 * amplitude
    return SpectralField.from_full(c, grid)
