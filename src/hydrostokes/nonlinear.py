"""The advective nonlinearity.

Every product is dealiased: formed pointwise on a 3/2-padded collocation
grid and truncated back to the working resolution (2/3 rule in all three
directions); there is no aliased path.  fields.NodeValues with the padded
grid's basis takes each working-grid field to the padded nodes: its passes
pad along m and n by transform length, and the first K rows of the padded
grid's tables pad in z.  Back, the first K columns of the padded grid's
analysis table truncate in z first, into lanes [comp, i, k, j], so the real
DFT along n runs on the last axis, a matmul against the working grid's
``padded_columns.forward`` table that forms only the working columns; a
DFT along m, numpy.fft's, runs on those alone.  The vertical velocity w
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
    PhysicalField,
    SpectralField,
    _columns,
    _forward_columns,
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


def _advective_product(a: NodeValues, b: NodeValues) -> np.ndarray:
    """Node values of (u_a . grad_H) v_b + w_a dz v_b, summed in place term by
    term; dx and dy are multiplied in their own buffers, and each quantity is
    dropped from a and b once it is used."""
    out = b.dz * a.w
    del b.dz, a.w
    term = b.dx
    del b.dx
    term *= a.u[0]
    out += term
    term = b.dy
    del b.dy
    term *= a.u[1]
    out += term
    del term, a.u
    return out


def _node_sets(v1: SpectralField, v2: SpectralField | None):
    """Product grid gp and the node values there of v1 and v2, shared when v2
    is v1 or None.  NodeValues pads each field along m and n in its
    transforms, and gp's tables take its K modes to gp's nodes in z."""
    gp = v1.grid.padded

    def nodes(v):
        if v.ncomp != 2:
            raise ValueError(f"products need 2-component velocity fields, got ncomp={v.ncomp}")
        return NodeValues(v, gp.basis)

    n1 = nodes(v1)
    return gp, n1, n1 if v2 is None or v2 is v1 else nodes(v2)


def _truncated(prod: np.ndarray, gp: Grid, grid: Grid) -> SpectralField:
    """Coefficients of product node values on gp, truncated to grid.

    The first K columns of gp's analysis table give the K modes kept, as
    lanes [comp, i, k, j]; the real DFT along n, a matmul on the last axis
    against grid's forward column table for gp's nodes, forms only the N/2+1
    columns of grid, so the DFT along m runs on those alone.  The
    truncated rows are swapped back to [comp, m, n, k] once.  Raises
    ValueError on non-finite products.
    """
    nodes = PhysicalField(prod, gp).values.swapaxes(-1, -2)
    lanes = gp.basis.analysis[:, : grid.K].T @ nodes
    cols = _forward_columns(lanes, _columns(grid, gp.N).forward)
    rows = _truncate_rows(np.fft.fft(cols, axis=1, norm="forward"), gp.N, grid.N)
    return zero_nyquist(SpectralField(rows.swapaxes(-1, -2).copy(), grid))


def advection(v1: SpectralField, v2: SpectralField | None = None) -> SpectralField:
    """Dealiased (u1 . grad) v2 in convective form; v2 defaults to v1."""
    gp, n1, n2 = _node_sets(v1, v2)
    return _truncated(_advective_product(n1, n2), gp, v1.grid)
