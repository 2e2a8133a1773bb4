"""Reproducible generators for test and scan fields."""

import numpy as np

from .basis import Grid
from .fields import SpectralField, zero_nyquist
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
    """
    rng = np.random.default_rng(seed)
    wave2 = grid.xi2[:, :, None] + grid.basis.lambdas**2
    envelope = (1.0 + wave2 / wave2.min()) ** (-decay / 2.0)
    shape = (ncomp, grid.N, grid.N, grid.K)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rough = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = SpectralField(c * envelope + rough_amplitude * rough, grid)
    zero_nyquist(f)
    f.enforce_reality()
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
    f = SpectralField.zeros(grid, ncomp=2)
    f.coeffs[component, m % grid.N, n % grid.N, k] = 0.5 * amplitude
    f.coeffs[component, -m % grid.N, -n % grid.N, k] += 0.5 * amplitude
    return f
