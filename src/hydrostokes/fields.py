"""Spectral and collocation fields, transforms and calculus on the layer.

Normalization table (tested in tests/test_basis_fields.py); along m the
transforms are numpy.fft's, along n and z they are matmuls against tables:

  horizontal forward   @ columns.forward along n (rfft / N), then fft along m / N
                                             -> classical Fourier coefficients
  horizontal inverse   ifft along m * N, then @ columns.inverse along n of the
                       half spectrum (irfft * N)
  y derivative         @ columns.dy in place of columns.inverse (irfft of i xi_n c, * N)
  vertical forward     @ basis.analysis      -> coefficients of phi_k      (DST-IV / K)
  vertical inverse     @ basis.sine          -> node values                (DST-IV / 2)
  vertical derivative  @ basis.dsine         -> sum a_k lambda_k cos(lambda_k (z_j+h))
  integral from -h     @ basis.antideriv     -> sum a_k (1 - cos(lambda_k (z_j+h))) / lambda_k
                                                (NodeValues.w only)

The vertical transforms are matmuls against K x K tables on Grid.basis (see
VerticalBasis), and the real DFT along n is one against the 2(N/2+1) x M
tables of Grid.columns (own nodes) or Grid.padded_columns (see
ColumnTables), which read the complex lanes as (re, im) pairs with no copy.
With these scalings coefficients are independent of the grid size, so
padding/truncation for dealiasing is plain index embedding, and in z it is
a table slice: K modes go to a finer grid's nodes through the first K rows
of its tables.

The horizontal inverse is two 1-D passes: a row pass (np.fft's inverse DFT
along m) and a column pass (the table's inverse real DFT along n, which
zero-pads the N/2+1 stored columns onto the target grid).  NodeValues is
the one path to several node quantities of a field (u, its first
derivatives and w), sharing the passes between them: the products, the
S(T)-norms and the lab scans read it, and inverse_transform and
vertical_derivative are two of its quantities.  NodeValues
holds its row passes whole and runs every pass after them slab by slab
over the node rows m (_SLAB_BYTES of a quantity at a time), so a norm
gathers its column norms, and a product its truncated columns, one slab
at a time.  Every mixed norm L^q_H L^p_z of node values goes through
column_norms, which takes the components as a list of node arrays
(grad = [dx, dy, dz]), sums their squares one at a time and raises the sum
to p/2 (the max at p = inf).  Only the columns whose squares or powers leave the normal
floats are formed again, from their components divided by the column's
max |c|.  A column norm is non-finite only for a non-finite node value or a
norm beyond the float range, and then raises NonFiniteFieldError, the
norm's breakdown check.

Layout: every field is real, c(-m,-n) = conj c(m,n), so a SpectralField
stores only the columns n = 0..N/2, as real-data FFTs do, and reality holds
by construction.  Full-plane arrays enter through SpectralField.from_full,
the one place that checks the symmetry, and leave through .full().
Coefficients are c[comp, m, n, k] and node values f[comp, i, j, j_z].
Between the horizontal and the vertical transforms (inside NodeValues,
forward_transform and the products' truncation) the lanes are laid out
(comp, m, k, n), m and n standing for the node indices i and j once their
pass has run, so every real DFT runs on the last axis, one contiguous
matmul.  The z tables reach the lanes through a swapaxes(-1, -2) view,
which BLAS reads as a transpose without a copy.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import ColumnTables, Grid, VerticalBasis

REALITY_TOL = 1e-12
# bytes of one node quantity in a slab: NodeValues runs every pass after its
# row passes on this many bytes of node rows at a time, a share of a 2 MiB
# per-core L2 cache (a 16^3 field on its own grid is one slab)
_SLAB_BYTES = 128 * 1024
# smallest normal float: a sum of powers below it has lost precision
_TINY = np.finfo(float).tiny


class NonFiniteFieldError(ValueError):
    """Node values that are not all finite: a computation broke down."""


@dataclass
class SpectralField:
    """Coefficients c[comp, m, n, k] in the Fourier x sine basis, columns n = 0..N/2."""

    coeffs: np.ndarray  # complex, shape (ncomp, N, N/2+1, K)
    grid: Grid

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        expect = (self.ncomp, self.grid.N, self.grid.N // 2 + 1, self.grid.K)
        if self.coeffs.shape != expect:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match grid {expect}"
            )

    @property
    def ncomp(self):
        return self.coeffs.shape[0]

    @classmethod
    def zeros(cls, grid: Grid, ncomp: int = 2):
        return cls(np.zeros((ncomp, grid.N, grid.N // 2 + 1, grid.K), dtype=complex), grid)

    def copy(self):
        return SpectralField(self.coeffs.copy(), self.grid)

    @classmethod
    def from_full(cls, c: np.ndarray, grid: Grid):
        """The field of full-plane coefficients c, shape (ncomp, N, N, K), which
        must be Hermitian to within REALITY_TOL times max|c| (else ValueError)."""
        c = np.asarray(c, dtype=complex)
        N = grid.N
        if c.ndim != 4 or c.shape[1:] != (N, N, grid.K):
            raise ValueError(f"full-plane shape {c.shape} does not match grid {(N, N, grid.K)}")
        defect = float(np.abs(c - _mirror(c)).max())
        scale = float(np.abs(c).max())
        if defect > REALITY_TOL * scale:
            raise ValueError(
                "coefficients violate the reality constraint: Hermitian defect "
                f"{defect:.3e} vs coefficient scale {scale:.3e}"
            )
        return cls(c[:, :, : N // 2 + 1].copy(), grid)

    def full(self) -> np.ndarray:
        """Full-plane coefficients (ncomp, N, N, K), the columns n > N/2 as conj c(-m,-n)."""
        N = self.grid.N
        mirror = np.conj(self.coeffs[:, -np.arange(N) % N, N // 2 - 1 : 0 : -1])
        return np.concatenate([self.coeffs, mirror], axis=2)

    def norm2(self):
        """L^2(Omega) norm computed from coefficients (Parseval)."""
        a2 = np.abs(self.coeffs) ** 2
        # the columns 0 < n < N/2 also stand for their mirrors -n
        total = 2.0 * a2.sum() - a2[:, :, 0].sum() - a2[:, :, -1].sum()
        return float(np.sqrt(self.grid.h / 2.0 * total))


@dataclass
class PhysicalField:
    """Node values f[comp, i, j, j_z] on the collocation grid."""

    values: np.ndarray  # real, shape (ncomp, N, N, K)
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = (self.ncomp, self.grid.N, self.grid.N, self.grid.K)
        if self.values.shape != expect:
            raise ValueError(
                f"value shape {self.values.shape} does not match grid {expect}"
            )
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteFieldError("field contains non-finite entries")

    @property
    def ncomp(self):
        return self.values.shape[0]


def _mirror(c: np.ndarray) -> np.ndarray:
    """conj c(-m,-n) at (m, n), for full-plane coefficients c[comp, m, n, ...]."""
    return np.conj(np.roll(c[:, ::-1, ::-1], shift=(1, 1), axis=(1, 2)))


def hermitian_part(c: np.ndarray) -> np.ndarray:
    """Full-plane coefficients of the real part of the field: (c(m,n) + conj c(-m,-n)) / 2."""
    return 0.5 * (c + _mirror(c))


def zero_nyquist(c: SpectralField) -> SpectralField:
    """Zero the unpaired horizontal Nyquist modes m or n = -N/2 in place.

    The Nyquist frequency has no conjugate partner on the grid, so
    direction-dependent operators (projectors, odd derivatives) cannot act on
    it in a reality-preserving way; solver pipelines keep it empty.
    """
    half = c.grid.N // 2
    c.coeffs[:, half, :, :] = 0.0
    c.coeffs[:, :, half, :] = 0.0
    return c


def forward_transform(f: PhysicalField) -> SpectralField:
    """Horizontal real DFT composed with the vertical DST-IV projection.

    The analysis table makes lanes [comp, i, k, j], so the real DFT along n
    is one matmul on the last axis (``Grid.columns.forward``); the DFT along
    m follows, and the coefficients are swapped back to [comp, m, n, k] once."""
    g = f.grid
    lanes = g.basis.analysis.T @ f.values.swapaxes(-1, -2)
    coeffs = np.fft.fft(_forward_columns(lanes, g.columns.forward), axis=1, norm="forward")
    return SpectralField(coeffs.swapaxes(-1, -2).copy(), g)


def _pad_half_spectrum(a: np.ndarray, N: int, Np: int) -> np.ndarray:
    """Half-spectrum coefficients a[comp, m, n, k] of a grid of N embedded in
    the rows of one of Np >= N, as a new array laid out [comp, m, k, n].
    Past N the Nyquist row -N/2 is split onto +-N/2 and the Nyquist column,
    which stood for +-N/2 together, is halved, so Hermitian symmetry is
    preserved."""
    a = a.swapaxes(-1, -2)
    if Np == N:
        return a.copy()
    half = N // 2
    out = np.zeros((a.shape[0], Np) + a.shape[2:], dtype=a.dtype)
    out[:, :half] = a[:, :half]
    out[:, Np - half + 1 :] = a[:, half + 1 :]
    out[:, half] = 0.5 * a[:, half]
    out[:, Np - half] = 0.5 * a[:, half]
    out[..., half] *= 0.5
    return out


def _row_pass(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unscaled inverse DFT along m (axis 1) of half-spectrum coefficients,
    into ``out`` (which may be a) or a new array laid out as its C-contiguous
    input (numpy >= 2; numpy 1 returned a strided view), whose last axis
    :func:`_column_pass` reads as (re, im) pairs."""
    return np.fft.ifft(a, axis=1, norm="forward", out=out)


def _columns(grid: Grid, M: int) -> ColumnTables:
    """The column tables between grid's stored columns and M nodes along n:
    those of its own grid or of its padded grid (ValueError otherwise)."""
    if M == grid.N:
        return grid.columns
    if M == grid.padded.N:
        return grid.padded_columns
    raise ValueError(
        f"a grid of N = {grid.N} has column tables for {grid.N} and {grid.padded.N} nodes, not {M}"
    )


def _column_pass(a: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Unscaled inverse real DFT along n (the last axis) of the stored
    columns: their (re, im) pairs @ ``table`` (a ``ColumnTables.inverse``
    or ``.dy``), whose columns are the nodes."""
    return a.view(float) @ table


def _forward_columns(lanes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Real DFT along n (the last axis) of real lanes, / M, cut to the
    stored columns: lanes @ a ``ColumnTables.forward``, whose (re, im)
    pairs are the complex columns, with no copy."""
    return (lanes @ table).view(complex)


def inverse_transform(c: SpectralField) -> PhysicalField:
    """Exact inverse of :func:`forward_transform`: ``NodeValues(c).u``."""
    return PhysicalField(NodeValues(c).u, c.grid)


def vertical_derivative(c: SpectralField) -> PhysicalField:
    """d/dz evaluated at the nodes via the cosine series: ``NodeValues(c).dz``.

    The derivative of a sine series lives in the cosine span, so the result
    is returned as node values, not re-projected.
    """
    return PhysicalField(NodeValues(c).dz, c.grid)


def vertical_mean(c: SpectralField) -> np.ndarray:
    """Per-mode vertical average (1/h) * integral over (-h,0).

    Exact: the integral of phi_k is 1/lambda_k.  Returns shape (ncomp, N, N/2+1).
    """
    return np.sum(c.coeffs / c.grid.basis.lambdas, axis=3) / c.grid.h


class NodeValues:
    """Node values u of a field c on ``basis.grid`` (default: c's own grid),
    and of dx, dy, dz and w = -int_{-h}^z div_H c.

    c's K modes go to the nodes of basis.grid as lanes [comp, m, k, n], in
    two 1-D passes: an inverse DFT along m of the rows, padded as pad_coeffs
    pads them, then an inverse real DFT along n, on the last axis, of the
    N/2+1 stored columns, a matmul against c's column tables for the target
    grid (``columns``), which zero-pads them onto it.  basis.grid must have
    c's N or its padded grid's.  The first K rows of the basis's tables take
    the lanes to the nodes in z, through a ``swapaxes(-1, -2)`` view that
    BLAS reads as it lies.  u, dz and dy share the row pass of c (dy's table
    multiplies the columns by i xi_n), dx has the row pass of i xi_m c, with
    the target grid's wavenumbers, formed in the padded rows' own buffer once
    c's row pass has read them, and the lanes of div_H c are
    (dx lanes)_0 + (dy lanes)_1: for a two-component field, two row passes
    and three column passes give all five quantities.

    The two row passes are held whole.  Every pass after them runs slab by
    slab over the target grid's node rows m (:meth:`slabs`), _SLAB_BYTES of
    a quantity at a time, so the column passes, the z tables and what a
    caller forms from a slab stay in a cache-sized working set: the norms
    gather their column norms slab by slab (:meth:`norm_columns`), and the
    products truncate each slab of theirs as it is formed.  The attributes
    u, dx, dy, dz and w are whole quantities, each formed as one slab on
    first use; a slab of a quantity already formed whole is a slice of it.
    The products pass the padded grid's basis.
    """

    def __init__(self, c: SpectralField, basis: VerticalBasis | None = None):
        basis = c.grid.basis if basis is None else basis
        K = c.grid.K
        self.c, self.grid = c, basis.grid
        self.columns = _columns(c.grid, basis.grid.N)
        self.sine, self.dsine, self.antideriv = (
            t[:K] for t in (basis.sine, basis.dsine, basis.antideriv)
        )

    @cached_property
    def _padded(self):
        return _pad_half_spectrum(self.c.coeffs, self.c.grid.N, self.grid.N)

    @cached_property
    def _rows(self):
        return _row_pass(self._padded)

    @cached_property
    def _dx_rows(self):
        """The row pass of i xi_m c, formed in the padded rows' buffer."""
        self._rows  # c's own row pass reads the padded rows before they change
        rows = self.__dict__.pop("_padded")
        rows *= 1j * self.grid.xi[:, None, None]
        return _row_pass(rows, rows)

    def _slab(self, rows: slice, names) -> dict:
        """{name: node values on the target grid's node rows ``rows``} for
        each of ``names``: a slice of the quantity if it is formed whole, else
        formed from the row passes, u and dz sharing one column pass, dx and
        w one, dy and w one."""
        out = {n: self.__dict__[n][..., rows, :, :] for n in names if n in self.__dict__}
        need = set(names) - out.keys()
        if need & {"u", "dz"}:
            lanes = _column_pass(self._rows[:, rows], self.columns.inverse).swapaxes(-1, -2)
            for name, table in (("u", self.sine), ("dz", self.dsine)):
                if name in need:
                    out[name] = lanes @ table
        if need & {"dx", "w"}:
            dx = _column_pass(self._dx_rows[:, rows], self.columns.inverse)
        if need & {"dy", "w"}:
            dy = _column_pass(self._rows[:, rows], self.columns.dy)
        if "dx" in need:
            out["dx"] = dx.swapaxes(-1, -2) @ self.sine
        if "dy" in need:
            out["dy"] = dy.swapaxes(-1, -2) @ self.sine
        if "w" in need:
            out["w"] = -((dx[0] + dy[1]).swapaxes(-1, -2) @ self.antideriv)
        return out

    def slabs(self, names):
        """Yield (rows, {name: node values on rows}) for the quantities
        ``names`` (of u, dx, dy, dz and w), slab by slab over the target
        grid's node rows m, max(1, _SLAB_BYTES // bytes of one node row of
        u) rows at a time, the last slab shorter where that does not divide
        the rows.  A slab's arrays are dropped before the next is formed."""
        M = self.grid.N
        height = max(1, _SLAB_BYTES // (self.c.ncomp * M * self.grid.K * 8))
        for start in range(0, M, height):
            rows = slice(start, min(start + height, M))
            values = self._slab(rows, names)
            yield rows, values
            values.clear()

    # whole quantities, each formed as one slab on first use
    u, dx, dy, dz, w = (
        cached_property(lambda self, name=name: self._slab(slice(None), (name,))[name])
        for name in ("u", "dx", "dy", "dz", "w")
    )

    def norm_columns(self, groups, p) -> list:
        """:func:`column_norms` of each group of quantity names, e.g.
        ("dx", "dy", "dz"): (N, N) arrays gathered slab by slab in one sweep,
        whose slabs the groups share."""
        N = self.grid.N
        out = [np.empty((N, N)) for _ in groups]
        for rows, values in self.slabs({name for group in groups for name in group}):
            for cols, group in zip(out, groups):
                cols[rows] = column_norms([values[name] for name in group], self.grid, p)
        return out

    def norms(self, names, q, p) -> list:
        """Mixed norms L^q_H L^p_z of quantities, "grad" standing for
        (dx, dy, dz), from one sweep over the slabs."""
        groups = [("dx", "dy", "dz") if name == "grad" else (name,) for name in names]
        weight = 1.0 / self.grid.N**2
        return [float(weighted_lp(cols, q, weight)) for cols in self.norm_columns(groups, p)]

    def norm(self, name: str, q, p) -> float:
        """Mixed norm L^q_H L^p_z of one quantity, or of "grad" = (dx, dy, dz)."""
        return self.norms([name], q, p)[0]


def _max_scaled_lp(a: np.ndarray, p, weight: float, axis=None):
    """(sum weight * a^p)^{1/p} along axis, formed as max a times that of
    a / max a, so no power of finite a underflows to 0 or overflows; a zero
    or non-finite max is left unscaled."""
    top = a.max(axis=axis, keepdims=True)
    top[~((top > 0) & (top < np.inf))] = 1.0
    out = top * (np.sum((a / top) ** p, axis=axis, keepdims=True) * weight) ** (1.0 / p)
    return out.squeeze(axis)


def weighted_lp(a: np.ndarray, p, weight: float):
    """(sum weight * a^p)^{1/p} of non-negative values a; the max for p = inf.

    Where weight * sum a^p falls below the normal floats or overflows, it is
    summed again scaled by max a (:func:`_max_scaled_lp`), so a large p
    reads neither 0 nor inf for finite nonzero a.
    """
    if p == np.inf:
        return a.max()
    if p < 1:
        raise ValueError(f"exponents must be in [1, inf], got {p}")
    with np.errstate(over="ignore"):
        inner = np.sum(a**p) * weight
    if not _TINY <= inner < np.inf:
        return _max_scaled_lp(a, p, weight)[()]
    return inner ** (1.0 / p)


def column_norms(parts, grid: Grid, p) -> np.ndarray:
    """L^p_z norm of each column of the pointwise magnitude, shape (N, N).

    ``parts`` lists node arrays whose components together make one field;
    their squares are summed one at a time, with no stacked copy.  Vertical
    integrals use the midpoint rule (weight h/K), raising the summed squares
    to p/2: one power per node, and a square for p = 4; p = inf takes the
    max.  A column whose weighted sum of powers (or max square) falls below
    the normal floats or overflows is formed again from its components
    divided by the column's max |c|, so no square or power of it leaves the
    float range (:func:`_max_scaled_lp`).  A column norm is non-finite only
    for a NaN or inf node value or a norm beyond the float range, and then
    raises NonFiniteFieldError; the overflow itself is not also warned about.
    """
    if p < 1:
        raise ValueError(f"exponents must be in [1, inf], got {p}")
    w = grid.h / grid.K
    comps = [c for a in parts for c in a]
    with np.errstate(over="ignore"):
        sq = np.square(comps[0])
        for c in comps[1:]:
            sq += np.square(c)
        inner = sq.max(axis=2) if p == np.inf else np.sum(sq ** (p / 2), axis=2) * w
        cols = np.sqrt(inner) if p == np.inf else inner ** (1.0 / p)
        if inner.min() >= _TINY and inner.max() < np.inf:
            return cols
        redo = ~((inner >= _TINY) & (inner < np.inf))
        comps = [c[redo] for c in comps]
        top = np.max([np.abs(c).max(axis=1) for c in comps], axis=0)
        top[~((top > 0) & (top < np.inf))] = 1.0
        mag = np.sqrt(sum((c / top[:, None]) ** 2 for c in comps))
        scaled = mag.max(axis=1) if p == np.inf else _max_scaled_lp(mag, p, w, axis=1)
        cols[redo] = top * scaled
    if not np.all(np.isfinite(cols)):
        raise NonFiniteFieldError("a node value or a column norm is non-finite")
    return cols


def norm_anisotropic(f: PhysicalField, q, p) -> float:
    """Mixed norm L^q_H L^p_z: vertical L^p per column, then horizontal L^q.

    Horizontal integrals use the node rule (weight 1/N^2); infinite exponents
    take node maxima.
    """
    return float(weighted_lp(column_norms([f.values], f.grid, p), q, 1.0 / f.grid.N**2))
