"""The advective nonlinearity.

Every product is dealiased: formed pointwise on a 3/2-padded collocation
grid and truncated back to the working resolution (2/3 rule in all three
directions); there is no aliased path.  fields.NodeValues with the padded
grid's basis takes each working-grid field to the padded nodes: its passes
pad along m and n by transform length, and the first K rows of the padded
grid's tables pad in z.  The product is formed and truncated slab by slab
over the padded grid's node rows m (NodeValues.slabs): the first K columns
of the padded grid's analysis table truncate each slab in z, into lanes
[comp, i, k, j], so the real DFT along n runs on the last axis, a matmul
against the working grid's ``padded_columns.forward`` table that forms
only the working columns, into one array of every row's columns.  One DFT
along m, numpy.fft's, then runs on those alone.  The vertical velocity w
lives in the cosine/constant span and is carried as node values only.  The
solver forms every transport term, the Picard forcing F(v_ref + V) - F(v_ref)
included, from one :func:`advection` product per field.  pad_coeffs embeds
coefficients in a finer grid; the tests check the products' passes against
it.
"""

import numpy as np

from .basis import Grid
from .fields import (
    NodeValues,
    NonFiniteFieldError,
    SpectralField,
    _pad_half_spectrum,
    zero_nyquist,
)


def _truncate_rows(a: np.ndarray, Np: int, N: int) -> np.ndarray:
    """The N of Np FFT-ordered rows along m (axis 1) that a grid of N keeps:
    m = 0..N/2-1, then -N/2..-1.  Row -N/2 is the finer grid's -N/2 alone,
    a Nyquist row that the callers zero."""
    half = N // 2
    return np.concatenate([a[:, :half], a[:, Np - half :]], axis=1)


def pad_coeffs(c: SpectralField, target: Grid) -> SpectralField:
    """Embed coefficients into a finer grid (coefficients are grid-free):
    rows and columns as ``fields._pad_half_spectrum`` pads them, a prefix copy in k."""
    g = c.grid
    out = SpectralField.zeros(target, c.ncomp)
    padded = _pad_half_spectrum(c.coeffs, g.N, target.N).swapaxes(-1, -2)
    out.coeffs[:, :, : g.N // 2 + 1, : g.K] = padded
    return out


def _advective_product(a: dict, b: dict) -> np.ndarray:
    """Node values of (u_a . grad_H) v_b + w_a dz v_b on one slab, from the
    slabs a and b of NodeValues, summed in place term by term; dx and dy are
    multiplied in their own buffers."""
    out = b["dz"] * a["w"]
    term = b["dx"]
    term *= a["u"][0]
    out += term
    term = b["dy"]
    term *= a["u"][1]
    out += term
    return out


def _slab_pairs(v1: SpectralField, v2: SpectralField | None, gp: Grid):
    """(rows, a, b) slab by slab over gp's node rows: the slab of v1's node
    values that the product reads (u, w) and that of v2's (dx, dy, dz), one
    shared slab when v2 is v1 or None.  The row passes die with the
    generator, before the caller's DFT along m."""

    def nodes(v):
        if v.ncomp != 2:
            raise ValueError(f"products need 2-component velocity fields, got ncomp={v.ncomp}")
        return NodeValues(v, gp.basis)

    a = nodes(v1)
    if v2 is None or v2 is v1:
        for rows, s in a.slabs(("u", "w", "dx", "dy", "dz")):
            yield rows, s, s
    else:
        b = nodes(v2)
        for (rows, sa), (_, sb) in zip(a.slabs(("u", "w")), b.slabs(("dx", "dy", "dz"))):
            yield rows, sa, sb


def advection(v1: SpectralField, v2: SpectralField | None = None) -> SpectralField:
    """Dealiased (u1 . grad) v2 in convective form; v2 defaults to v1.

    Each slab of the product is truncated in z and along n as it is formed,
    into the (2, Np, K, N/2+1) columns of every padded row; one DFT along m
    follows.  Raises NonFiniteFieldError on a slab that is not all finite,
    and on output coefficients that are not: the sums of the truncation and
    of the DFT along m can overflow on a finite product.
    """
    grid = v1.grid
    gp = grid.padded
    analysis = gp.basis.analysis[:, : grid.K].T
    forward = grid.padded_columns.forward
    cols = np.empty((2, gp.N, grid.K, grid.N // 2 + 1), dtype=complex)
    for rows, a, b in _slab_pairs(v1, v2, gp):
        prod = _advective_product(a, b)
        if not np.all(np.isfinite(prod)):
            raise NonFiniteFieldError("field contains non-finite entries")
        np.matmul(analysis @ prod.swapaxes(-1, -2), forward, out=cols[:, rows].view(float))
    rows = _truncate_rows(np.fft.fft(cols, axis=1, norm="forward"), gp.N, grid.N)
    out = zero_nyquist(SpectralField(rows.swapaxes(-1, -2).copy(), grid))
    if not np.all(np.isfinite(out.coeffs)):
        raise NonFiniteFieldError("field contains non-finite entries")
    return out
