"""Dealiased advection, vertical velocity, and the divergence form."""

import tracemalloc

import numpy as np
import pytest

import hydrostokes.fields
from conftest import continuum_energy_pairing
from hydrostokes.basis import Grid, VerticalBasis
from hydrostokes.fields import (
    NodeValues,
    NonFiniteFieldError,
    PhysicalField,
    SpectralField,
    forward_transform,
    hermitian_part,
    inverse_transform,
    vertical_derivative,
)
from hydrostokes.nonlinear import advection, pad_coeffs
from hydrostokes.projection import project_hydrostatic
from hydrostokes.sampling import random_field, single_mode_field
from hydrostokes.solver import _node_norms
from oracles import (
    advective_product,
    divergence_form,
    horizontal_derivative,
    node_sets,
    truncated,
    truncate_coeffs,
    vertical_velocity,
    vertical_velocity_top,
    whole_advection,
    whole_norm,
)


# -- padding --------------------------------------------------------------


def test_padded_grid_sizes():
    assert Grid(16, 16, 1.0).padded == Grid(24, 24, 1.0)
    assert Grid(8, 5, 0.5).padded == Grid(12, 8, 0.5)


def test_pad_truncate_round_trip(grid16):
    f = random_field(grid16, ncomp=2, seed=0)
    big = grid16.padded
    padded = pad_coeffs(f, big)
    back = truncate_coeffs(padded, grid16)
    assert np.abs(back.coeffs - f.coeffs).max() <= 1e-15


@pytest.mark.parametrize("N,K", [(8, 8), (12, 5), (16, 16)])
def test_truncate_keeps_rows_below_nyquist_bitwise(N, K):
    # the padded rows +-N/2 hold arbitrary values; truncation keeps every
    # mode |m|, n < N/2 as it is and leaves the Nyquist row and column empty
    grid = Grid(N, K, 1.0)
    big = grid.padded
    rng = np.random.default_rng(N + K)
    shape = (2, big.N, big.N // 2 + 1, big.K)
    c = SpectralField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), big)
    got = truncate_coeffs(c, grid).coeffs
    half = N // 2
    m = np.r_[0:half, big.N - half : big.N]
    keep = np.ones(N, bool)
    keep[half] = False
    want = c.coeffs[:, m][:, :, : half + 1, :K]
    assert np.array_equal(got[:, keep, :half], want[:, keep, :half])
    assert not got[:, half].any() and not got[:, :, half].any()


def test_pad_preserves_physical_values(grid8):
    from hydrostokes.fields import inverse_transform

    f = random_field(grid8, ncomp=1, seed=2)
    big = grid8.padded
    fb = pad_coeffs(f, big)
    coarse = inverse_transform(f).values
    fine = inverse_transform(fb).values
    # the padded field interpolates the same function: compare vertical means
    # via the shared Fourier modes instead of grid values (nodes differ)
    from hydrostokes.fields import vertical_mean

    m_coarse = vertical_mean(f)
    m_fine = vertical_mean(fb)
    assert np.abs(m_fine[:, :4, :4] - m_coarse[:, :4, :4]).max() <= 1e-14
    assert np.isfinite(fine).all() and np.isfinite(coarse).all()


def test_pad_keeps_reality(grid8):
    f = random_field(grid8, ncomp=2, seed=3)
    fb = pad_coeffs(f, grid8.padded)
    assert np.array_equal(SpectralField.from_full(fb.full(), fb.grid).coeffs, fb.coeffs)


def test_pad_keeps_node_values_with_nyquist_modes(grid8):
    # the coarse nodes are every other node of the doubled grid; the Nyquist
    # row and column, split onto +-N/2, still take the coarse node values
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((2, 8, 8, 8))
    fine = pad_coeffs(forward_transform(PhysicalField(vals, grid8)), Grid(16, 8, 1.0))
    got = inverse_transform(fine).values[:, ::2, ::2, :]
    assert np.abs(got - vals).max() <= 1e-13 * np.abs(vals).max()


@pytest.mark.parametrize("grid", [Grid(16, 16, 1.0), Grid(12, 5, 0.7)])
@pytest.mark.parametrize("padded", [True, False])
def test_node_sets_match_padded_transforms(grid, padded):
    # the products' node values pad only along m and n and reach the product
    # nodes through table rows; the reference pads in z too and transforms on
    # the product grid.  Unpadded: NodeValues on the field's own grid.
    v = random_field(grid, ncomp=2, seed=6, solenoidal=True)
    gp, nodes = node_sets(v, None)[:2] if padded else (grid, NodeValues(v))
    big = pad_coeffs(v, gp)
    ref = {
        "u": inverse_transform(big).values,
        "dx": inverse_transform(horizontal_derivative(big, "x")).values,
        "dy": inverse_transform(horizontal_derivative(big, "y")).values,
        "dz": vertical_derivative(big).values,
        "w": vertical_velocity(big).values[0],
    }
    for name, want in ref.items():
        got = getattr(nodes, name)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name
    prod = nodes.u[0] * nodes.dx + nodes.w * nodes.dz
    want = truncate_coeffs(forward_transform(PhysicalField(prod, gp)), grid).coeffs
    got = truncated(prod, gp, grid).coeffs
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _hermitian_field(grid, seed):
    # random real field with nonzero Nyquist rows and columns
    rng = np.random.default_rng(seed)
    shape = (2, grid.N, grid.N, grid.K)
    c = hermitian_part(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    v = SpectralField.from_full(c, grid)
    half = grid.N // 2
    assert np.abs(v.coeffs[:, half]).min() > 0 and np.abs(v.coeffs[:, :, half]).min() > 0
    return v


@pytest.mark.parametrize(
    "grid", [Grid(4, 1, 1.0), Grid(8, 8, 1.0), Grid(12, 5, 1.0), Grid(16, 16, 0.7)]
)
def test_padded_node_values_equal_padded_coeffs(grid):
    # NodeValues pads the rows and the Nyquist column in its passes, as
    # pad_coeffs pads the coefficients it is given on the padded horizontal grid
    v = _hermitian_field(grid, seed=grid.N + grid.K)
    gp = grid.padded
    nodes = NodeValues(v, gp.basis)
    ref = NodeValues(pad_coeffs(v, Grid(gp.N, grid.K, grid.h)), gp.basis)
    for name in ("u", "dx", "dy", "dz", "w"):
        want = getattr(ref, name)
        got = getattr(nodes, name)
        assert got.shape[-3:] == (gp.N, gp.N, gp.K), name
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name


@pytest.mark.parametrize(
    "grid, gp", [(Grid(8, 8, 1.0), Grid(8, 8, 1.0)), (Grid(8, 5, 1.0), Grid(12, 8, 1.0)),
                 (Grid(16, 16, 0.7), Grid(24, 24, 0.7))]
)
def test_truncated_equals_truncated_full_transform(grid, gp):
    # the real DFT along n keeps grid's columns before the DFT along m
    rng = np.random.default_rng(grid.N + grid.K)
    prod = rng.standard_normal((2, gp.N, gp.N, gp.K))
    want = truncate_coeffs(forward_transform(PhysicalField(prod, gp)), grid).coeffs
    got = truncated(prod, gp, grid).coeffs
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    prod[1, 2, 3, 0] = np.nan
    with pytest.raises(ValueError):
        truncated(prod, gp, grid)


# -- vertical velocity ----------------------------------------------------


def test_vertical_velocity_zero(grid8):
    v = SpectralField.from_full(np.zeros((2, 8, 8, 8), complex), grid8)
    assert np.all(vertical_velocity(v).values == 0)


def test_vertical_velocity_rejects_scalar(grid8):
    v = SpectralField.from_full(np.zeros((1, 8, 8, 8), complex), grid8)
    with pytest.raises(ValueError):
        vertical_velocity(v)


def test_vertical_velocity_closed_form(grid8):
    # v = (cos(2 pi x) phi_0(z), 0):
    # w = -int_{-h}^z div_H v = 2 pi sin(2 pi x) (1 - cos(lam_0 (z+1)))/lam_0
    v = single_mode_field(grid8, m=1, n=0, k=0, component=0)
    w = vertical_velocity(v)
    lam = np.pi / 2
    x = grid8.x
    expect = (
        2 * np.pi * np.sin(2 * np.pi * x)[:, None, None]
        * ((1 - np.cos(lam * (grid8.z + 1.0))) / lam)[None, None, :]
    )
    assert np.abs(w.values[0] - expect).max() <= 1e-13


def test_vertical_velocity_vanishes_at_surface(grid16):
    # solenoidal v has div_H vbar = 0, so the total vertical integral is 0
    v = random_field(grid16, ncomp=2, seed=4, solenoidal=True)
    wtop = vertical_velocity_top(v)
    assert np.abs(wtop).max() <= 1e-11 * np.abs(v.coeffs).max()


# -- advection ------------------------------------------------------------


def test_advection_of_zero(grid8):
    v = SpectralField.from_full(np.zeros((2, 8, 8, 8), complex), grid8)
    assert np.all(advection(v).coeffs == 0)
    assert np.all(divergence_form(v).coeffs == 0)


def test_advection_energy_orthogonality():
    # <(u . grad) v, v> = 0 for solenoidal u=v, checked against a continuum
    # quadrature oracle (Gauss-Legendre in z, zero-padded horizontally)
    grid = Grid(12, 10, 1.0)
    v = random_field(grid, ncomp=2, seed=5, solenoidal=True)
    pairing, norm = continuum_energy_pairing(v, v, nq=160, pad=3)
    assert abs(pairing) <= 1e-8 * norm**2


def test_advection_matches_divergence_form(grid16):
    for seed in range(3):
        v = random_field(grid16, ncomp=2, seed=seed, solenoidal=True)
        a = advection(v)
        d = divergence_form(v)
        scale = np.abs(a.coeffs).max()
        assert np.abs(a.coeffs - d.coeffs).max() <= 1e-9 * scale


@pytest.mark.parametrize("amplitude", [1e-1, 1e-3, 1e-6])
def test_advection_difference_matches_three_terms(grid16, amplitude):
    # the Picard forcing subtracts B(r, r) from B(r + V, r + V); the
    # cancellation costs no more than the round-off of B(r, r) itself, even
    # when V is small against r
    V = random_field(grid16, ncomp=2, seed=11, solenoidal=True, amplitude=amplitude)
    r = random_field(grid16, ncomp=2, seed=12, solenoidal=True)
    base = advection(r).coeffs
    diff = advection(SpectralField(r.coeffs + V.coeffs, grid16)).coeffs - base
    ref = advection(V, V).coeffs + advection(V, r).coeffs + advection(r, V).coeffs
    assert np.abs(diff - ref).max() <= 1e-14 * np.abs(base).max()


def test_advection_of_one_field_equals_two_field_form(grid16):
    # one product routine: a shared node set, or one per slot
    v = random_field(grid16, ncomp=2, seed=13, solenoidal=True)
    want = advection(v).coeffs
    assert np.array_equal(advection(v, v).coeffs, want)
    assert np.array_equal(advection(v, v.copy()).coeffs, want)


def test_advection_transient_memory():
    # the product is formed and truncated slab by slab over the padded rows:
    # what it holds whole is the two row passes and the truncated columns
    grid = Grid(32, 32, 1.0)
    v = random_field(grid, ncomp=2, seed=14, solenoidal=True)
    advection(v)  # the padded grid's tables, outside the measurement
    tracemalloc.start()
    try:
        advection(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


# -- slabs ----------------------------------------------------------------


def _slab_height(monkeypatch, height, grid):
    """Budget the slabs of 2-component node values on grid's nodes to
    ``height`` node rows each (None: one slab of every row)."""
    row = 2 * grid.N * grid.K * 8
    monkeypatch.setattr(hydrostokes.fields, "_SLAB_BYTES", row * (height or grid.N))


@pytest.mark.parametrize("height", [1, 2, 3, 5, None])
@pytest.mark.parametrize(
    "grid", [Grid(8, 8, 1.0), Grid(12, 5, 0.7), Grid(16, 12, 0.3), Grid(32, 32, 1.0)]
)
def test_slabbed_products_and_norms_equal_whole_arrays(monkeypatch, grid, height):
    # every pass after the row passes runs slab by slab, the last slab
    # shorter where the height does not divide the rows: the products and
    # the norms are those of whole node arrays, bit for bit
    v = random_field(grid, ncomp=2, seed=grid.N + grid.K, solenoidal=True)
    u = random_field(grid, ncomp=2, seed=grid.N + grid.K + 1)
    gp = grid.padded
    _slab_height(monkeypatch, height, gp)
    slabs = [rows for rows, _ in NodeValues(v, gp.basis).slabs(("u",))]
    assert len(slabs) == -(-gp.N // (height or gp.N))
    assert np.array_equal(advection(v).coeffs, whole_advection(v).coeffs)
    assert np.array_equal(advection(u, v).coeffs, whole_advection(u, v).coeffs)
    _slab_height(monkeypatch, height, grid)
    for name in ("u", "grad", "dx"):
        for q in (np.inf, 2):
            assert NodeValues(u).norm(name, q, 4.0) == whole_norm(u, name, q, 4.0), (name, q)
    want = (whole_norm(u, "u", np.inf, 4.0), np.sqrt(0.01) * whole_norm(u, "grad", np.inf, 4.0))
    assert _node_norms(u, 0.01, 4.0) == want


def test_product_finiteness_is_checked_on_every_slab(monkeypatch):
    # u = A cos(2 pi x) phi_0: on node row 0 dx u and w vanish, so the
    # product is 0 there, and it overflows on later rows; at one row per
    # slab, a check of the first slab alone would pass it
    grid = Grid(8, 4, 1.0)
    v = single_mode_field(grid, m=1, amplitude=1.3e154)
    gp, a, b = node_sets(v, None)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = advective_product(a, b)
    assert np.isfinite(prod[:, 0]).all() and not np.isfinite(prod).all()
    _slab_height(monkeypatch, 1, gp)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteFieldError):
        advection(v)


def test_coefficient_overflow_of_a_finite_product_raises():
    # the hydrostatic projection shrinks the node values of this mode, so
    # its product is finite; the sums that take it to coefficients overflow
    v = project_hydrostatic(single_mode_field(Grid(8, 4, 1.0), amplitude=1.3e154))
    _, a, b = node_sets(v, None)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(advective_product(a, b)).all()
        with pytest.raises(NonFiniteFieldError):
            advection(v)


def test_advection_bilinear_consistency(grid8):
    # advection(v1, v2) is linear in each slot
    v1 = random_field(grid8, ncomp=2, seed=7, solenoidal=True)
    v2 = random_field(grid8, ncomp=2, seed=8, solenoidal=True)
    both = advection(v1, v2)
    scaled = advection(SpectralField(2.0 * v1.coeffs, grid8), v2)
    assert np.abs(scaled.coeffs - 2.0 * both.coeffs).max() <= 1e-12 * np.abs(both.coeffs).max()


def test_dealiasing_reduces_error(grid16):
    # reference: compute on a doubled grid and truncate back
    v = random_field(grid16, ncomp=2, seed=9, solenoidal=True, decay=3.0)
    fine_grid = Grid(32, 32, 1.0)
    ref = truncate_coeffs(advection(pad_coeffs(v, fine_grid)), grid16)
    with_da = advection(v)
    # the aliased product: formed at the working nodes, no padding
    n = NodeValues(v)
    without = truncated(advective_product(n, n), grid16, grid16)
    den = np.abs(ref.coeffs).max()
    err_da = np.abs(with_da.coeffs - ref.coeffs).max() / den
    err_no = np.abs(without.coeffs - ref.coeffs).max() / den
    assert err_da < 1e-3
    assert err_da < 0.1 * err_no


def test_advection_real_output(grid16):
    v = random_field(grid16, ncomp=2, seed=10, solenoidal=True)
    out = advection(v)
    assert np.array_equal(SpectralField.from_full(out.full(), grid16).coeffs, out.coeffs)
