"""Reference implementations that only the tests call.

Each is a second path to something the package computes another way, or a
trend the paper states but the commands do not check: the spectral calculus
the product oracles are written in, the sine basis at arbitrary points, the
surface-pressure recovery, coefficient truncation, the vertical velocity,
the products on whole node arrays with no slabs and their divergence form,
the Stokes operator A itself and its parallel block M_z, the forcing
F(v) formed afresh from a trajectory's snapshots, and the lab's small-time
and L^inf trends.
"""

import numpy as np
import scipy.fft as sfft

from hydrostokes.basis import Grid, VerticalBasis
from hydrostokes.fields import (
    NodeValues,
    PhysicalField,
    SpectralField,
    _column_pass,
    _columns,
    _forward_columns,
    _pad_half_spectrum,
    _row_pass,
    column_norms,
    vertical_mean,
    weighted_lp,
    zero_nyquist,
)
from hydrostokes.lab import ScanReport, _disk_mask, _draw_2d, _phys2d, _sup_2d
from hydrostokes.nonlinear import _truncate_rows, advection
from hydrostokes.projection import helmholtz_2d
from hydrostokes.sampling import random_field
from hydrostokes.semigroup import StokesOperator
from hydrostokes.solver import _forcing, grad_mixed_norm

# -- spectral calculus -----------------------------------------------------


def horizontal_derivative(c: SpectralField, axis: str) -> SpectralField:
    """d/dx or d/dy: coefficient-wise multiplication by i*xi."""
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    xi = c.grid.xi
    mult = xi[:, None, None] if axis == "x" else xi[: c.grid.N // 2 + 1, None]
    return SpectralField(c.coeffs * (1j * mult), c.grid)


def vertical_integral_from_bottom(c: SpectralField) -> PhysicalField:
    """Antiderivative int_{-h}^z of a scalar field, as node values.

    Per mode the antiderivative of phi_k is (1 - cos(lambda_k (z+h)))/lambda_k,
    so the result vanishes identically at z = -h.
    """
    if c.ncomp != 1:
        raise ValueError(f"expected a scalar field, got ncomp={c.ncomp}")
    g = c.grid
    rows = _row_pass(_pad_half_spectrum(c.coeffs, g.N, g.N))
    lanes = _column_pass(rows, g.columns.inverse).swapaxes(-1, -2)
    return PhysicalField(lanes @ g.basis.antideriv, g)


def divergence_h(v: SpectralField) -> SpectralField:
    """Horizontal divergence i xi . c of a 2-component field, as a spectral scalar."""
    xi = v.grid.xi
    xix, xiy = xi[:, None, None], xi[: v.grid.N // 2 + 1, None]
    return SpectralField(1j * (xix * v.coeffs[0] + xiy * v.coeffs[1])[None], v.grid)


def sample(basis: VerticalBasis, z):
    """phi_k evaluated at points z, shape (K, len(z))."""
    return np.sin(np.outer(basis.lambdas, np.asarray(z) + basis.grid.h))


# -- surface pressure ------------------------------------------------------


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


# -- products --------------------------------------------------------------


def node_sets(v1: SpectralField, v2: SpectralField | None):
    """Product grid gp and the whole node values there of v1 and v2, shared
    when v2 is v1 or None."""
    gp = v1.grid.padded
    n1 = NodeValues(v1, gp.basis)
    return gp, n1, n1 if v2 is None or v2 is v1 else NodeValues(v2, gp.basis)


def advective_product(a: NodeValues, b: NodeValues) -> np.ndarray:
    """Whole node values of (u_a . grad_H) v_b + w_a dz v_b, the terms summed
    in the order ``nonlinear.advection`` sums each slab."""
    out = b.dz * a.w
    out += b.dx * a.u[0]
    out += b.dy * a.u[1]
    return out


def truncated(prod: np.ndarray, gp: Grid, grid: Grid) -> SpectralField:
    """Coefficients of whole product node values on gp, truncated to grid by
    the passes ``nonlinear.advection`` runs slab by slab: gp's analysis table
    cut to K columns, grid's forward column table for gp's nodes, then the
    DFT along m.  Raises ValueError on non-finite products."""
    nodes = PhysicalField(prod, gp).values.swapaxes(-1, -2)
    lanes = gp.basis.analysis[:, : grid.K].T @ nodes
    cols = _forward_columns(lanes, _columns(grid, gp.N).forward)
    rows = _truncate_rows(np.fft.fft(cols, axis=1, norm="forward"), gp.N, grid.N)
    return zero_nyquist(SpectralField(rows.swapaxes(-1, -2).copy(), grid))


def whole_advection(v1: SpectralField, v2: SpectralField | None = None) -> SpectralField:
    """``nonlinear.advection`` on whole node arrays, with no slabs: its
    bitwise reference."""
    gp, n1, n2 = node_sets(v1, v2)
    return truncated(advective_product(n1, n2), gp, v1.grid)


def truncate_coeffs(c: SpectralField, target: Grid) -> SpectralField:
    """Restrict coefficients to a coarser grid (drop high modes)."""
    out = _truncate_rows(c.coeffs[:, :, : target.N // 2 + 1, : target.K], c.grid.N, target.N)
    return zero_nyquist(SpectralField(out, target))


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
    return sfft.irfft2(top, s=(v.grid.N, v.grid.N), norm="forward")


def whole_norm(v: SpectralField, name: str, q, p) -> float:
    """``NodeValues.norm`` on whole node arrays, with no slabs: column_norms
    of the whole quantity on v's own grid ("grad" = dx, dy, dz), then
    weighted_lp."""
    nodes = NodeValues(v)
    parts = [nodes.dx, nodes.dy, nodes.dz] if name == "grad" else [getattr(nodes, name)]
    return float(weighted_lp(column_norms(parts, v.grid, p), q, 1.0 / v.grid.N**2))


def divergence_form(v: SpectralField) -> SpectralField:
    """Dealiased (u . grad) v assembled conservatively, the reference form
    that tests compare ``nonlinear.advection`` with.

    Horizontal part: grad_H . (v (x) v) from pointwise tensor products.
    Vertical part: dz(w v) = -(div_H v) v + w dz v, using that the
    z-derivative of w is exactly -div_H v by construction (the product
    w v itself has no exact representation in the mixed basis).
    """
    gp, n, _ = node_sets(v, None)
    out = truncated(-(n.dx[0] + n.dy[1]) * n.u + n.w * n.dz, gp, v.grid)
    for i, axis in enumerate(("x", "y")):
        flux = truncated(n.u[i] * n.u, gp, v.grid)
        out.coeffs += horizontal_derivative(flux, axis).coeffs
    return out


# -- the mild residual -----------------------------------------------------


def with_forcing(snapshots) -> list:
    """The pairs (v, F(v)) that solver.mild_residual reads, each F(v) =
    -P (u . grad) v formed afresh from its snapshot."""
    return [(v, _forcing(advection(v))) for v in snapshots]


# -- the Stokes operator ---------------------------------------------------


def parallel_block(grid: Grid) -> np.ndarray:
    """M_z = diag(-lambda^2) + b lambda^T, b = betas_t / h: the parallel block
    of A at xi = 0, the generator of the ODE oracles."""
    lam = grid.basis.lambdas
    return np.diag(-(lam**2)) + np.outer(grid.basis.betas_t / grid.h, lam)


def apply_A(op: StokesOperator, v: SpectralField) -> SpectralField:
    """Delta v plus the bottom-shear coupling b (lambda . c_par) on the parallel part."""
    b = op.basis.betas_t / op.grid.h
    corr = lambda cpar: (cpar @ op.basis.lambdas)[:, :, None] * b
    return op._per_mode(v, corr, -(op.xi2[:, :, None] + op.lam2))


# -- lab trends ------------------------------------------------------------


def smoothing_trend(grid: Grid, p: float, seed: int = 0):
    """t^{1/2} ||grad e^{tA} f|| on a geometric small-t grid, smooth solenoidal f.

    For data in the solenoidal space this quantity tends to 0 with t.
    """
    op = grid.stokes
    t_grid = np.geomspace(1e-5, 1e-1, 9)
    f = random_field(grid, seed=seed, decay=4.0, solenoidal=True)
    return t_grid, np.array(
        [np.sqrt(t) * grad_mixed_norm(op.semigroup_apply(t, f), p) for t in t_grid]
    )


def q_linfty_growth(N_list, seed: int = 0, n_samples: int = 10):
    """sup ||Qf||_inf / ||f||_inf per resolution.

    The 2-d Helmholtz projection is unbounded on L^inf, so this grows with N;
    reported as a trend, not asserted.
    """
    out = []
    for N in N_list:
        grid = Grid(N, 1, 1.0)
        rng = np.random.default_rng(seed)
        sup = 0.0
        for _ in range(n_samples):
            # rough sample: flat spectrum stresses the unboundedness
            ghat = _draw_2d(rng, N)
            sup = max(sup, _sup_2d(helmholtz_2d(ghat, grid), N) / _sup_2d(ghat, N))
        # deterministic checkerboard of sign jumps: the known worst case, with
        # Riesz-transform log divergence along the discontinuity lines
        sq = np.sign(np.sin(2 * np.pi * grid.x))
        f1 = sq[:, None] * sq[None, :]
        ghat = np.stack([sfft.fft2(f1) / N**2, np.zeros((N, N), complex)])
        sup = max(sup, _sup_2d(helmholtz_2d(ghat, grid), N) / np.abs(f1).max())
        out.append((N, sup))
    return out


def log_riesz_ratio(n_samples: int, p: float, r_grid, N: int = 32, seed: int = 0) -> ScanReport:
    """||grad_H pi||_{L^p(B_r)} / (r^{2/p}(1+|log r|) ||F||_inf), Delta_H pi = div_H F."""
    grid = Grid(N, 1, 1.0)
    rng = np.random.default_rng(seed)
    ratios, params = [], []
    xix, xiy = grid.xi_vectors()
    env = (1.0 + (xix**2 + xiy**2) / (2 * np.pi) ** 2) ** (-0.75)
    for i in range(n_samples):
        Fhat = _draw_2d(rng, N, env)
        # grad_H pi is the xi-parallel part of F
        grad = Fhat - helmholtz_2d(Fhat, grid)
        gphys = np.linalg.norm(_phys2d(grad, N).real, axis=0)
        finf = _sup_2d(Fhat, N)
        center = rng.random(2)
        for r in r_grid:
            mask = _disk_mask(grid, center, r)
            if not mask.any():  # a small disk can hold no node
                continue
            lhs = weighted_lp(gphys[mask], p, 1.0 / N**2)
            ratios.append(lhs / (r ** (2.0 / p) * (1.0 + abs(np.log(r))) * finf))
            params.append((i, r))
    return ScanReport("log_riesz", params, ratios)
