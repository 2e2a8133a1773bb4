"""Vertical velocity reconstruction and the advective nonlinearity.

Products are formed pointwise on a 3/2-padded collocation grid and the
result is truncated back to the working resolution (2/3 rule in all three
directions).  The vertical velocity w lives in the cosine/constant span and
is carried as node values only.
"""

from functools import cache

import numpy as np
import scipy.fft as sfft

from .basis import Grid
from .fields import (
    PhysicalField,
    SpectralField,
    forward_transform,
    horizontal_derivative,
    inverse_transform,
    vertical_derivative,
    vertical_integral_from_bottom,
    zero_nyquist,
)


@cache
def padded_grid(grid: Grid) -> Grid:
    Np = 3 * grid.N // 2
    Np += Np % 2
    Kp = (3 * grid.K + 1) // 2
    return Grid(Np, Kp, grid.h)


def _pad_axis(a: np.ndarray, axis: int, N: int, Np: int) -> np.ndarray:
    """Embed FFT-ordered coefficients along one axis, splitting the Nyquist
    mode -N/2 symmetrically onto +-N/2 so Hermitian symmetry is preserved."""
    if Np == N:
        return a
    shape = list(a.shape)
    shape[axis] = Np
    out = np.zeros(shape, dtype=a.dtype)
    half = N // 2
    src = np.moveaxis(a, axis, 0)
    dst = np.moveaxis(out, axis, 0)
    dst[:half] = src[:half]
    dst[Np - half + 1 :] = src[half + 1 :]
    dst[half] = 0.5 * src[half]
    dst[Np - half] = 0.5 * src[half]
    return out


def _truncate_axis(a: np.ndarray, axis: int, Np: int, N: int) -> np.ndarray:
    """Inverse of :func:`_pad_axis`: fold +-N/2 back into the -N/2 slot."""
    if Np == N:
        return a
    half = N // 2
    src = np.moveaxis(a, axis, 0)
    shape = list(a.shape)
    shape[axis] = N
    out = np.zeros(shape, dtype=a.dtype)
    dst = np.moveaxis(out, axis, 0)
    dst[:half] = src[:half]
    dst[half + 1 :] = src[Np - half + 1 :]
    dst[half] = src[half] + src[Np - half]
    return out


def pad_coeffs(c: SpectralField, target: Grid) -> SpectralField:
    """Embed coefficients into a finer grid (coefficients are grid-free)."""
    g = c.grid
    out = _pad_axis(c.coeffs, 1, g.N, target.N)
    out = _pad_axis(out, 2, g.N, target.N)
    if target.K > g.K:
        pad = np.zeros(out.shape[:3] + (target.K - g.K,), dtype=complex)
        out = np.concatenate([out, pad], axis=3)
    return SpectralField(out, target)


def truncate_coeffs(c: SpectralField, target: Grid) -> SpectralField:
    """Restrict coefficients to a coarser grid (drop high modes)."""
    g = c.grid
    out = _truncate_axis(c.coeffs, 1, g.N, target.N)
    out = _truncate_axis(out, 2, g.N, target.N)
    field = SpectralField(np.ascontiguousarray(out[:, :, :, : target.K]), target)
    return zero_nyquist(field)


def divergence_h(v: SpectralField) -> SpectralField:
    """Horizontal divergence of a 2-component field, as a spectral scalar."""
    dx = horizontal_derivative(v, "x").coeffs[0:1]
    dy = horizontal_derivative(v, "y").coeffs[1:2]
    return SpectralField(dx + dy, v.grid)


def vertical_velocity(v: SpectralField) -> PhysicalField:
    """w = -int_{-h}^z div_H v; vanishes identically at the bottom."""
    if v.ncomp != 2:
        raise ValueError(f"vertical velocity needs ncomp=2, got {v.ncomp}")
    w = vertical_integral_from_bottom(divergence_h(v))
    w.values = -w.values
    return w


def vertical_velocity_top(v: SpectralField) -> np.ndarray:
    """w evaluated exactly at z = 0, shape (N, N).

    Per mode w(0) = -sum_k d_k / lambda_k with d the divergence coefficients,
    which vanishes identically on solenoidal fields.
    """
    d = divergence_h(v)
    top = -np.sum(d.coeffs[0] / v.grid.basis.lambdas, axis=2)
    return sfft.ifft2(top * v.grid.N**2).real


def _advective_product(v1: SpectralField, v2: SpectralField) -> np.ndarray:
    """Node values of (v1 . grad_H) v2 + w1 dz v2 on v1's grid."""
    V1 = inverse_transform(v1).values
    dxV2 = inverse_transform(horizontal_derivative(v2, "x")).values
    dyV2 = inverse_transform(horizontal_derivative(v2, "y")).values
    dzV2 = vertical_derivative(v2).values
    w1 = vertical_velocity(v1).values[0]
    return V1[0] * dxV2 + V1[1] * dyV2 + w1 * dzV2


def advection(
    v1: SpectralField, v2: SpectralField | None = None, dealias: bool = True
) -> SpectralField:
    """Dealiased (u1 . grad) v2 in convective form; v2 defaults to v1."""
    if v2 is None:
        v2 = v1
    if v1.ncomp != 2 or v2.ncomp != 2:
        raise ValueError("advection needs two 2-component fields")
    gp = padded_grid(v1.grid) if dealias else v1.grid
    v1p, v2p = pad_coeffs(v1, gp), pad_coeffs(v2, gp)
    prod = PhysicalField(_advective_product(v1p, v2p), gp)
    return truncate_coeffs(forward_transform(prod), v1.grid)


def divergence_form(
    v1: SpectralField, v2: SpectralField | None = None, dealias: bool = True
) -> SpectralField:
    """Dealiased (u1 . grad) v2 assembled conservatively.

    Horizontal part: grad_H . (v1 (x) v2) from pointwise tensor products.
    Vertical part: dz(w1 v2) = -(div_H v1) v2 + w1 dz v2, using that the
    z-derivative of w1 is exactly -div_H v1 by construction (the product
    w1 v2 itself has no exact representation in the mixed basis).
    """
    if v2 is None:
        v2 = v1
    if v1.ncomp != 2 or v2.ncomp != 2:
        raise ValueError("divergence_form needs two 2-component fields")
    grid = v1.grid
    gp = padded_grid(grid) if dealias else grid
    v1p, v2p = pad_coeffs(v1, gp), pad_coeffs(v2, gp)
    V1 = inverse_transform(v1p).values
    V2 = inverse_transform(v2p).values
    out = np.zeros((2, gp.N, gp.N, gp.K), dtype=complex)
    for i, axis in enumerate(("x", "y")):
        flux = forward_transform(PhysicalField(V1[i] * V2, gp))
        out += horizontal_derivative(flux, axis).coeffs
    divV1 = inverse_transform(divergence_h(v1p)).values[0]
    dzV2 = vertical_derivative(v2p).values
    w1 = vertical_velocity(v1p).values[0]
    vert = forward_transform(PhysicalField(-divV1 * V2 + w1 * dzV2, gp))
    out += vert.coeffs
    return truncate_coeffs(SpectralField(out, gp), grid)
