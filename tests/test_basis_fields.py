"""Grid, vertical basis, transforms, derivatives, and mixed norms."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import hydrostokes.basis
from hydrostokes.basis import Grid, VerticalBasis
from hydrostokes.fields import (
    NodeValues,
    NonFiniteFieldError,
    PhysicalField,
    SpectralField,
    column_norms,
    forward_transform,
    hermitian_part,
    inverse_transform,
    norm_anisotropic,
    vertical_derivative,
    vertical_mean,
    zero_nyquist,
    _columns,
)
from hydrostokes.projection import project_hydrostatic
from hydrostokes.sampling import random_field
from hydrostokes.semigroup import StokesOperator
from hydrostokes.nonlinear import advection
from oracles import divergence_h, horizontal_derivative, sample, vertical_integral_from_bottom


# -- grid validation ------------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [
        dict(N=15),
        dict(N=2),
        dict(K=0),
        dict(h=0.0),
        dict(h=-1.0),
        dict(h=np.inf),
        dict(h=1e-200),  # lambda_{K-1}^2 overflows
        dict(h=1e200),  # h^2 overflows
    ],
)
def test_grid_rejects_bad_parameters(bad):
    kw = dict(N=8, K=8, h=1.0)
    kw.update(bad)
    with pytest.raises(ValueError):
        Grid(**kw)


@pytest.mark.parametrize(
    "N,K,ok",
    [
        (2**28, 1, True),  # eigenvalue report: 80 N^2 K = 5.8e18 bytes
        (2**29, 1, False),  # 2.3e19 bytes, past intp max
        (2**62, 16, False),
        (4, 2**30 - 1, True),  # K x K tables: 8 K^2 just below 2^63 bytes
        (4, 2**30, False),
    ],
)
def test_grid_refuses_arrays_numpy_cannot_index(N, K, ok):
    # the check is arithmetic: making a Grid allocates none of its arrays
    if ok:
        assert Grid(N, K, 1.0).N == N
    else:
        with pytest.raises(ValueError, match="too large for numpy to index"):
            Grid(N, K, 1.0)


def test_grid_nodes(grid8):
    assert np.allclose(grid8.x, np.arange(8) / 8)
    # vertical midpoints: z_j = -h + (2j+1)h/(2K)
    assert np.allclose(grid8.z, -1.0 + (2 * np.arange(8) + 1) / 16)


def test_grid_tables_built_once_and_read_only(monkeypatch):
    builds = []

    class CountingBasis(VerticalBasis):
        def __init__(self, grid):
            builds.append(grid)
            super().__init__(grid)

    monkeypatch.setattr(hydrostokes.basis, "VerticalBasis", CountingBasis)
    g = Grid(8, 4, 1.0)
    f = random_field(g, seed=0)
    vertical_mean(f)
    vertical_derivative(f)
    project_hydrostatic(f)
    op = StokesOperator(g)
    assert builds == [g]
    assert g.basis is op.basis and g.xi2 is g.xi2 is op.xi2 and g.xi_hat is g.xi_hat
    assert g.xi is g.xi
    assert g.padded is g.padded
    assert g.doubled is g.doubled and g.doubled == Grid(16, 8, 1.0)
    assert g.columns is g.columns and g.padded_columns is g.padded_columns
    b = g.basis
    tables = (g.xi, g.xi2, g.xi_hat, b.lambdas, b.betas, b.betas_t)
    tables += (b.sine, b.dsine, b.antideriv, b.analysis)
    for cols in (g.columns, g.padded_columns):
        tables += (cols.inverse, cols.dy, cols.forward)
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_vertical_basis_eigenvalues_and_orthogonality():
    grid = Grid(4, 12, 0.7)
    basis = VerticalBasis(grid)
    k = np.arange(12)
    assert np.allclose(basis.lambdas, (2 * k + 1) * np.pi / (2 * 0.7))
    # discrete orthogonality of phi_k at the midpoint nodes: sum = (K/2) delta
    phi = sample(basis, grid.z)  # (K_nodes, K_modes)
    gram = phi.T @ phi
    assert np.allclose(gram, 6.0 * np.eye(12), atol=1e-12)


def test_constant_expansion_sum_is_h_independent():
    # sigma_K = (2/h^2) sum lambda_k^{-2} does not depend on h; K=1 gives 8/pi^2
    for h in (0.5, 1.0, 2.0):
        basis = VerticalBasis(Grid(4, 1, h))
        assert basis.sigmaK == pytest.approx(8 / np.pi**2, abs=1e-14)
    s16 = VerticalBasis(Grid(4, 16, 0.5)).sigmaK
    s16b = VerticalBasis(Grid(4, 16, 2.0)).sigmaK
    assert s16 == pytest.approx(s16b, abs=1e-14)


# -- forward/inverse transforms -------------------------------------------


def test_forward_of_single_vertical_mode(grid8):
    basis = VerticalBasis(grid8)
    vals = np.sin(basis.lambdas[0] * (grid8.z + 1.0))
    f = PhysicalField(np.broadcast_to(vals, (1, 8, 8, 8)).copy(), grid8)
    c = forward_transform(f)
    expect = np.zeros((1, 8, 8, 8))
    expect[0, 0, 0, 0] = 1.0
    assert np.allclose(c.full(), expect, atol=1e-13)


def test_forward_of_zero_field(grid8):
    f = PhysicalField(np.zeros((2, 8, 8, 8)), grid8)
    assert np.all(forward_transform(f).coeffs == 0)


def test_round_trip_random(grid8):
    rng = np.random.default_rng(0)
    f = PhysicalField(rng.standard_normal((2, 8, 8, 8)), grid8)
    g = inverse_transform(forward_transform(f))
    assert np.abs(g.values - f.values).max() <= 1e-12 * np.abs(f.values).max()


def test_inverse_of_unit_coefficient(grid8):
    c = np.zeros((1, 8, 8, 8), dtype=complex)
    c[0, 0, 0, 0] = 1.0
    f = inverse_transform(SpectralField.from_full(c, grid8))
    basis = VerticalBasis(grid8)
    expect = np.sin(basis.lambdas[0] * (grid8.z + 1.0))
    assert np.allclose(f.values[0], np.broadcast_to(expect, (8, 8, 8)), atol=1e-13)


def test_from_full_rejects_reality_violation(grid8):
    c = np.zeros((1, 8, 8, 8), dtype=complex)
    c[0, 1, 0, 0] = 1.0  # no conjugate partner at (-1, 0)
    with pytest.raises(ValueError):
        SpectralField.from_full(c, grid8)


@pytest.mark.parametrize("column", [7, 4], ids=["n=N-1", "n=N/2"])
def test_from_full_rejects_violation_in_one_column(grid8, column):
    # c(1, N-1) sits where the half spectrum is not stored; c(1, N/2) in the
    # Nyquist column, whose partner (-1, -N/2) is the same column
    c = np.zeros((1, 8, 8, 8), dtype=complex)
    c[0, 1, column, 0] = 1.0
    with pytest.raises(ValueError):
        SpectralField.from_full(c, grid8)


def _oracle_horizontal(c, N):
    """Real part of the complex inverse DFT, the transform before half spectra."""
    return scipy.fft.ifft2(c * N**2, axes=(1, 2)).real


@pytest.mark.parametrize("N", [8, 12, 16, 24])
def test_half_spectrum_transforms_match_complex_oracle(N):
    grid = Grid(N, 6, 0.8)
    rng = np.random.default_rng(N)
    # forward transforms of real node values: every column, Nyquist included
    f = forward_transform(PhysicalField(rng.standard_normal((2, N, N, 6)), grid))
    lam = grid.basis.lambdas

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    close(
        inverse_transform(f).values,
        scipy.fft.dst(_oracle_horizontal(f.full(), N), type=4, axis=3) / 2.0,
    )
    close(
        vertical_derivative(f).values,
        scipy.fft.dct(_oracle_horizontal(f.full() * lam, N), type=4, axis=3) / 2.0,
    )
    b = f.full()[:1] / lam
    prof = np.sum(b, axis=3, keepdims=True) - scipy.fft.dct(b, type=4, axis=3) / 2.0
    close(
        vertical_integral_from_bottom(SpectralField(f.coeffs[:1], grid)).values,
        _oracle_horizontal(prof, N),
    )


@pytest.mark.parametrize(
    "N, M", [(4, 4), (4, 6), (8, 8), (8, 12), (12, 18), (16, 24), (32, 32), (32, 48)]
)
def test_column_tables_match_numpy_real_dft(N, M):
    # a grid's column tables onto its own (M = N) or its padded nodes against
    # np.fft's real DFTs; every column of the lanes, column 0 and the Nyquist
    # column N/2 included, carries an imaginary part
    grid, L = Grid(N, 3, 1.0), N // 2 + 1
    target = grid if M == N else grid.padded
    assert target.N == M
    tables = _columns(grid, M)
    rng = np.random.default_rng(N + M)
    a = rng.standard_normal((2, 5, L)) + 1j * rng.standard_normal((2, 5, L))
    assert np.abs(a.imag[..., [0, -1]]).min() > 0
    f = rng.standard_normal((2, 5, M))

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    # irfft ignores Im of column 0, and of column M/2 on a grid's own nodes
    close(a.view(float) @ tables.inverse, np.fft.irfft(a, n=M, norm="forward"))
    close(a.view(float) @ tables.dy, np.fft.irfft(1j * target.xi[:L] * a, n=M, norm="forward"))
    close((f @ tables.forward).view(complex), np.fft.rfft(f, norm="forward")[..., :L])
    # the sines of those columns are exact zeros, not round-off
    ignored = [1, 2 * L - 1] if M == N else [1]
    assert not tables.inverse[ignored].any() and not tables.forward[:, ignored].any()


def test_node_values_only_on_own_or_padded_nodes(grid8):
    # the column tables cover a grid's own nodes and its padded grid's
    v = random_field(grid8, ncomp=2, seed=1)
    with pytest.raises(ValueError):
        NodeValues(v, grid8.doubled.basis)


def _embedded(c, target):
    """Full-plane coefficients c (ncomp, N, N, K), Nyquist modes empty, at
    their wavenumbers in target's (Np, Np, Kp) spectrum."""
    N = c.shape[1]
    idx = np.fft.fftfreq(N, 1.0 / N).astype(int)
    out = np.zeros((c.shape[0], target.N, target.N, target.K), dtype=complex)
    out[:, idx[:, None], idx[None, :], : c.shape[3]] = c
    return out


def _oracle_nodes(v, target):
    """u, dx, dy, dz and w of v at target's nodes, by complex inverse DFTs
    of the embedded full plane and scipy's DST-IV / DCT-IV of length Kp."""
    Np, lam, xi = target.N, target.basis.lambdas, target.xi
    c = _embedded(v.full(), target)
    # w = -int_{-h}^z div_H v = sum_k b_k (cos(lambda_k (z+h)) - 1), b = div_H v / lambda
    b = _embedded(divergence_h(v).full(), target) / lam
    w = scipy.fft.dct(b, type=4, axis=3) / 2.0 - b.sum(axis=3, keepdims=True)

    def sine(a):
        return scipy.fft.dst(_oracle_horizontal(a, Np), type=4, axis=3) / 2.0

    return {
        "u": sine(c),
        "dx": sine(1j * xi[:, None, None] * c),
        "dy": sine(1j * xi[None, :, None] * c),
        "dz": scipy.fft.dct(_oracle_horizontal(c * lam, Np), type=4, axis=3) / 2.0,
        "w": _oracle_horizontal(w, Np)[0],
    }


LAYOUT_GRIDS = [Grid(8, 8, 1.0), Grid(16, 12, 0.3), Grid(12, 5, 2.0)]


@pytest.mark.parametrize("grid", LAYOUT_GRIDS)
@pytest.mark.parametrize("padded", [False, True])
def test_node_value_lanes_match_complex_oracle(grid, padded):
    # the lanes run (comp, m, k, n) with every real pass on the last axis;
    # the node values they give are those of the complex full-plane oracle,
    # on the field's own grid and on its padded grid
    v = random_field(grid, ncomp=2, seed=grid.N + grid.K, solenoidal=True)
    target = grid.padded if padded else grid
    nodes = NodeValues(v, target.basis)
    for name, want in _oracle_nodes(v, target).items():
        got = getattr(nodes, name)
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


@pytest.mark.parametrize("grid", LAYOUT_GRIDS)
def test_advection_matches_complex_oracle(grid):
    # the product of the oracle's padded node values, analysed by a complex
    # forward DFT and DST-IV on the padded grid and cut to grid's modes
    # without the Nyquist row and column, is advection's result
    v = random_field(grid, ncomp=2, seed=grid.N + grid.K, solenoidal=True)
    gp, N = grid.padded, grid.N
    n = _oracle_nodes(v, gp)
    prod = n["u"][0] * n["dx"] + n["u"][1] * n["dy"] + n["w"] * n["dz"]
    full = scipy.fft.fft2(scipy.fft.dst(prod, type=4, axis=3) / gp.K, axes=(1, 2)) / gp.N**2
    idx = np.fft.fftfreq(N, 1.0 / N).astype(int)
    want = full[:, idx[:, None], idx[None, :], : grid.K]
    want[:, N // 2] = want[:, :, N // 2] = 0.0
    got = advection(v).full()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("K", [1, 2, 3, 8, 24, 48])
def test_vertical_tables_match_dst_dct_oracle(K):
    # each table applied to coefficients (node values for analysis) against
    # scipy's DST-IV / DCT-IV, over 20 draws
    b = Grid(4, K, 0.7).basis
    rng = np.random.default_rng(K)
    for _ in range(20):
        a = rng.standard_normal((3, K))
        cases = [
            (a @ b.sine, scipy.fft.dst(a, type=4, axis=1) / 2.0),
            (a @ b.dsine, scipy.fft.dct(a * b.lambdas, type=4, axis=1) / 2.0),
            (
                a @ b.antideriv,
                np.sum(a / b.lambdas, axis=1, keepdims=True)
                - scipy.fft.dct(a / b.lambdas, type=4, axis=1) / 2.0,
            ),
            (a @ b.analysis, scipy.fft.dst(a, type=4, axis=1) / K),
        ]
        for got, want in cases:
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("grid", [Grid(8, 8, 1.0), Grid(8, 5, 0.5), Grid(16, 16, 1.3)])
def test_padded_tables_are_base_modes_at_padded_nodes(grid):
    # rows k < K of the padded grid's tables are the base grid's K modes at
    # the padded nodes; so are the first K columns of its analysis table
    gp, K = grid.padded, grid.K
    lam = grid.basis.lambdas[:, None]
    t = lam * (gp.z + grid.h)
    closed = {
        "sine": np.sin(t),
        "dsine": lam * np.cos(t),
        "antideriv": (1.0 - np.cos(t)) / lam,
        "analysis": 2.0 / gp.K * np.sin(t).T,
    }
    for name, want in closed.items():
        got = getattr(gp.basis, name)
        got = got[:, :K] if name == "analysis" else got[:K]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name


def test_enforced_reality_round_trips(grid8):
    f = random_field(grid8, ncomp=2, seed=5)
    assert np.array_equal(SpectralField.from_full(f.full(), grid8).coeffs, f.coeffs)
    phys = inverse_transform(f)
    assert np.isrealobj(phys.values)
    back = forward_transform(phys)
    assert np.abs(back.coeffs - f.coeffs).max() <= 1e-13 * np.abs(f.coeffs).max()


def test_half_spectrum_layout(grid8):
    # the stored columns n = 0..N/2 are those of the complex-FFT spectrum,
    # full() restores the rest, and norm2 counts the mirrored columns twice
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((2, 8, 8, 8))
    f = forward_transform(PhysicalField(vals, grid8))
    expect = scipy.fft.fft2(scipy.fft.dst(vals, type=4, axis=3) / 8, axes=(1, 2)) / 8**2
    assert f.coeffs.shape == (2, 8, 5, 8)
    assert np.abs(f.full() - expect).max() <= 1e-15 * np.abs(expect).max()
    assert np.array_equal(SpectralField.from_full(f.full(), grid8).coeffs, f.coeffs)
    assert f.norm2() == pytest.approx(np.sqrt(0.5 * np.sum(np.abs(expect) ** 2)), rel=1e-13)


def test_spectral_field_rejects_full_plane_shape(grid8):
    with pytest.raises(ValueError):
        SpectralField(np.zeros((2, 8, 8, 8), complex), grid8)
    with pytest.raises(ValueError):
        SpectralField.from_full(np.zeros((2, 8, 5, 8), complex), grid8)


def test_parseval(grid8):
    f = random_field(grid8, ncomp=2, seed=9)
    phys = inverse_transform(f)
    quad = np.sqrt(np.sum(phys.values**2) / 8**2 * (1.0 / 8))
    assert f.norm2() == pytest.approx(quad, rel=1e-13)


def _random_field_through_from_full(grid, seed, rough_amplitude, solenoidal):
    """random_field's draw taken through SpectralField.from_full's Hermitian check.

    The flat rough component is drawn whatever its amplitude, so the amplitude-0
    case checks that random_field, which skips that last draw, draws the rest alike.
    """
    rng = np.random.default_rng(seed)
    xix, xiy = grid.xi_vectors()
    wave2 = (xix**2 + xiy**2)[:, :, None] + grid.basis.lambdas**2
    envelope = (1.0 + wave2 / wave2.min()) ** -1.0
    shape = (2, grid.N, grid.N, grid.K)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rough = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    full = hermitian_part(c * envelope + rough_amplitude * rough)
    f = zero_nyquist(SpectralField.from_full(full, grid))
    if solenoidal:
        f = project_hydrostatic(f)
    f.coeffs *= 1.0 / np.abs(f.coeffs).max()
    return f


@pytest.mark.parametrize("shape", [(8, 8), (16, 16), (12, 5)])
@pytest.mark.parametrize(
    "rough_amplitude, solenoidal", [(0.0, False), (0.5, True), (0.1, False)]
)
def test_random_field_draws_unchanged(shape, rough_amplitude, solenoidal):
    grid = Grid(*shape, 1.0)
    for seed in (0, 3):
        want = _random_field_through_from_full(grid, seed, rough_amplitude, solenoidal)
        got = random_field(grid, seed=seed, rough_amplitude=rough_amplitude, solenoidal=solenoidal)
        assert np.array_equal(got.coeffs, want.coeffs)


# -- derivatives ----------------------------------------------------------


def test_horizontal_derivative_eigenmode(grid8):
    c = np.zeros((1, 8, 8, 8), dtype=complex)
    c[0, 1, 0, 0] = 1.0
    c[0, -1, 0, 0] = 1.0
    f = SpectralField.from_full(c, grid8)
    d = horizontal_derivative(f, "x")
    assert d.coeffs[0, 1, 0, 0] == pytest.approx(2j * np.pi)
    assert d.coeffs[0, -1, 0, 0] == pytest.approx(-2j * np.pi)


def test_horizontal_derivative_of_constant(grid8):
    c = np.zeros((1, 8, 8, 8), dtype=complex)
    c[0, 0, 0, 2] = 3.0
    d = horizontal_derivative(SpectralField.from_full(c, grid8), "y")
    assert np.all(d.coeffs == 0)


def test_horizontal_derivative_physical(grid8):
    vals = np.sin(2 * np.pi * grid8.x)[:, None, None] * np.ones((8, 8, 8))
    f = forward_transform(PhysicalField(vals[None], grid8))
    d = inverse_transform(horizontal_derivative(f, "x"))
    expect = 2 * np.pi * np.cos(2 * np.pi * grid8.x)[:, None, None]
    assert np.abs(d.values[0] - expect).max() <= 1e-12 * 2 * np.pi


def test_vertical_derivative_single_mode(grid8):
    c = np.zeros((1, 8, 8, 8), dtype=complex)
    c[0, 0, 0, 0] = 1.0
    d = vertical_derivative(SpectralField.from_full(c, grid8))
    expect = (np.pi / 2) * np.cos((np.pi / 2) * (grid8.z + 1.0))
    assert np.allclose(d.values[0], np.broadcast_to(expect, (8, 8, 8)), atol=1e-13)


def test_vertical_derivative_zero(grid8):
    d = vertical_derivative(SpectralField.from_full(np.zeros((2, 8, 8, 8), complex), grid8))
    assert np.all(d.values == 0)


def test_vertical_derivative_finite_difference_order():
    # centered finite differences of the continuum field converge to the
    # spectral derivative at 2nd order in the stencil width
    grid = Grid(4, 16, 1.0)
    f = random_field(grid, ncomp=1, seed=3)
    damp = (1.0 + np.arange(16)) ** -4.0
    f = SpectralField(f.coeffs * damp, grid)
    d = vertical_derivative(f)
    basis = VerticalBasis(grid)
    import scipy.fft as sfft

    errs = []
    for eps in (1e-2, 5e-3):
        phi_p = sample(basis, grid.z + eps)
        phi_m = sample(basis, grid.z - eps)
        fd = np.einsum("smnk,kj->smnj", f.full(), (phi_p - phi_m) / (2 * eps))
        fd = sfft.ifft2(fd, axes=(1, 2)).real * grid.N**2
        errs.append(np.abs(fd - d.values).max())
    assert errs[1] < errs[0]
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.8


# -- node values ----------------------------------------------------------


@pytest.mark.parametrize("grid", [Grid(8, 8, 1.0), Grid(12, 5, 0.7)])
def test_node_values_equal_separate_transforms(grid):
    # one row pass feeds u, dz and dy: u, dx and dz are the same numbers as
    # the separate transforms; dy takes its multiplier after the row pass
    v = random_field(grid, ncomp=2, seed=21)
    nodes = NodeValues(v)
    assert np.array_equal(nodes.u, inverse_transform(v).values)
    assert np.array_equal(nodes.dx, inverse_transform(horizontal_derivative(v, "x")).values)
    dy = inverse_transform(horizontal_derivative(v, "y")).values
    assert np.abs(nodes.dy - dy).max() <= 1e-15 * np.abs(dy).max()
    assert np.array_equal(nodes.dz, vertical_derivative(v).values)


# -- vertical mean and integral -------------------------------------------


def test_vertical_mean_single_mode(grid8):
    c = np.zeros((1, 8, 8, 8), dtype=complex)
    c[0, 0, 0, 0] = 1.0
    m = vertical_mean(SpectralField.from_full(c, grid8))
    assert m[0, 0, 0] == pytest.approx(2 / np.pi, abs=1e-14)


def test_vertical_mean_constructed_null(grid8):
    basis = VerticalBasis(grid8)
    w = np.array([1.0, -2.0, 1.0, 0, 0, 0, 0, 0])
    c = np.zeros((1, 8, 8, 8), dtype=complex)
    c[0, 0, 0, :] = basis.lambdas * w
    m = vertical_mean(SpectralField.from_full(c, grid8))
    assert abs(m[0, 0, 0]) <= 1e-14


def test_vertical_mean_quadrature_oracle(grid8):
    f = random_field(grid8, ncomp=1, seed=12)
    m = vertical_mean(f)
    # fine midpoint quadrature of the sine series over (-h, 0)
    M = 200000
    zq = -1.0 + (2 * np.arange(M) + 1) / (2 * M)
    basis = VerticalBasis(grid8)
    vals = np.einsum("smnk,kj->smnj", f.coeffs, sample(basis, zq))
    quad = vals.mean(axis=3)[0]
    assert np.abs(m[0] - quad).max() <= 1e-9


def test_vertical_integral_zero(grid8):
    out = vertical_integral_from_bottom(
        SpectralField.from_full(np.zeros((1, 8, 8, 8), complex), grid8)
    )
    assert np.all(out.values == 0)


def test_vertical_integral_single_mode(grid8):
    c = np.zeros((1, 8, 8, 8), dtype=complex)
    c[0, 0, 0, 0] = 1.0
    out = vertical_integral_from_bottom(SpectralField.from_full(c, grid8))
    lam = np.pi / 2
    expect = (1 - np.cos(lam * (grid8.z + 1.0))) / lam
    assert np.allclose(out.values[0], np.broadcast_to(expect, (8, 8, 8)), atol=1e-13)
    # value extrapolated to z=0 is 2/pi (closed-form antiderivative)
    assert (1 - np.cos(lam * 1.0)) / lam == pytest.approx(2 / np.pi)


def test_vertical_integral_quadrature_convergence():
    # cumulative midpoint sums of node values approach the exact primitive at
    # 2nd order in the node spacing
    errs = []
    for K in (32, 64):
        grid = Grid(4, K, 1.0)
        c = np.zeros((1, 4, 4, K), dtype=complex)
        c[0, 0, 0, 0] = 1.0
        exact = vertical_integral_from_bottom(SpectralField.from_full(c, grid)).values[0, 0, 0]
        vals = np.sin((np.pi / 2) * (grid.z + 1.0))
        cumul = np.cumsum(vals) * (1.0 / K) - vals * (0.5 / K)
        errs.append(np.abs(cumul - exact).max())
    assert errs[0] <= 1e-3
    assert errs[0] / errs[1] >= 3.0  # 2nd order: factor ~4 per doubling


# -- anisotropic norms ----------------------------------------------------


@pytest.mark.parametrize("q,p", [(np.inf, 4), (2, 2), (1, np.inf), (np.inf, np.inf)])
def test_norm_of_unit_constant(grid8, q, p):
    f = PhysicalField(np.ones((1, 8, 8, 8)), grid8)
    assert norm_anisotropic(f, q, p) == pytest.approx(1.0, abs=1e-13)


def test_norm_tensor_factorization(grid8):
    gvals = np.cos(2 * np.pi * grid8.x) + 2.0
    f = PhysicalField(np.broadcast_to(gvals[:, None, None], (1, 8, 8, 8)).copy(), grid8)
    for q, p in ((2, 4), (np.inf, 2), (3, np.inf)):
        if q == np.inf:
            gq = np.abs(gvals).max()
        else:
            gq = (np.mean(np.abs(np.broadcast_to(gvals[:, None], (8, 8))) ** q)) ** (1 / q)
        hp = 1.0  # h = 1 so h^{1/p} = 1
        assert norm_anisotropic(f, q, p) == pytest.approx(gq * hp, rel=1e-13)


def test_norm_sine_sup(grid8):
    vals = np.sin(2 * np.pi * grid8.x)[:, None, None] * np.ones((8, 8, 8))
    f = PhysicalField(vals[None], grid8)
    # N divisible by 4 puts a node at the crest
    assert norm_anisotropic(f, np.inf, 2) == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1000),
    p1=st.sampled_from([2.0, 3.0, 4.0, 8.0]),
    p2=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_vertical_norm_monotonicity(seed, p1, p2):
    # Hoelder on the unit-height layer: ||f||_{q,p2} <= h^{1/p2-1/p1} ||f||_{q,p1}
    if p2 > p1:
        p1, p2 = p2, p1
    grid = Grid(8, 8, 1.0)
    f = inverse_transform(random_field(grid, ncomp=2, seed=seed))
    lo = norm_anisotropic(f, np.inf, p2)
    hi = norm_anisotropic(f, np.inf, p1)
    assert lo <= hi * (1 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000))
def test_holder_product_bound(seed):
    # ||fg||_{L^1 L^2} <= ||f||_{L^2 L^4} ||g||_{L^2 L^4}
    grid = Grid(8, 8, 1.0)
    f = inverse_transform(random_field(grid, ncomp=1, seed=seed))
    g = inverse_transform(random_field(grid, ncomp=1, seed=seed + 7777))
    prod = PhysicalField(f.values * g.values, grid)
    lhs = norm_anisotropic(prod, 1, 2)
    rhs = norm_anisotropic(f, 2, 4) * norm_anisotropic(g, 2, 4)
    assert lhs <= rhs * (1 + 1e-12)


def _stacked_columns(arrays, grid, p):
    """Column norms as a stacked formula: concatenate the components, sum
    their squares along the stack, sqrt, then the weighted vertical sum."""
    mag = np.sqrt(np.sum(np.concatenate(arrays, axis=0) ** 2, axis=0))
    if p == np.inf:
        return mag.max(axis=2)
    return (np.sum(mag**p, axis=2) * (grid.h / grid.K)) ** (1.0 / p)


def _stacked_mixed_norm(arrays, grid, q, p):
    cols = _stacked_columns(arrays, grid, p)
    return float(cols.max() if q == np.inf else (np.sum(cols**q) * (1.0 / grid.N**2)) ** (1.0 / q))


@pytest.mark.parametrize("grid", [Grid(8, 8, 1.0), Grid(12, 5, 0.7)])
@pytest.mark.parametrize("q", [np.inf, 2])
@pytest.mark.parametrize("p", [4, np.inf])
def test_mixed_norms_equal_stacked_formula(grid, q, p):
    # the squares are summed one component at a time, in the stacking order;
    # at p = inf the column max commutes with the sqrt, so the norms are the
    # stacked formula's numbers, and at finite p the one power sq^(p/2) per
    # node agrees with sqrt then ^p to round-off
    nodes = NodeValues(random_field(grid, ncomp=2, seed=5))
    grad = [nodes.dx, nodes.dy, nodes.dz]
    got = [
        nodes.norm("u", q, p),
        nodes.norm("grad", q, p),
        norm_anisotropic(PhysicalField(nodes.u, grid), q, p),
    ]
    want = [_stacked_mixed_norm(parts, grid, q, p) for parts in ([nodes.u], grad, [nodes.u])]
    cols, want_cols = column_norms(grad, grid, p), _stacked_columns(grad, grid, p)
    if p == np.inf:
        assert got == want
        assert np.array_equal(cols, want_cols)
    else:
        assert got == pytest.approx(want, rel=1e-14, abs=0)
        assert np.abs(cols - want_cols).max() <= 1e-14 * np.abs(want_cols).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("p", [4, np.inf])
def test_grad_norm_raises_on_one_non_finite_dz_node(grid8, bad, p):
    nodes = NodeValues(random_field(grid8, ncomp=2, seed=5))
    dz = nodes.dz.copy()
    dz[1, 2, 3, 4] = bad
    nodes.dz = dz
    assert np.isfinite(nodes.norm("u", np.inf, p))
    with pytest.raises(NonFiniteFieldError):
        nodes.norm("grad", np.inf, p)


def test_norm_rescales_when_squares_overflow(grid8):
    # finite node values whose squared magnitude overflows are divided by the
    # column's max before squaring: each column's norm is sqrt(2) * 1e200
    f = PhysicalField(np.full((2, 8, 8, 8), 1e200), grid8)
    assert norm_anisotropic(f, np.inf, np.inf) == pytest.approx(np.sqrt(2) * 1e200, rel=1e-15)


def test_norm_rescales_when_column_powers_overflow(grid8):
    # finite squares whose powers overflow are rescaled, with no numpy
    # warning: each column's norm is sqrt(2) * 1e100 on the unit-depth layer
    f = PhysicalField(np.full((2, 8, 8, 8), 1e100), grid8)
    assert norm_anisotropic(f, np.inf, 4) == pytest.approx(np.sqrt(2) * 1e100, rel=1e-15)
    assert norm_anisotropic(f, 1000, 4) == pytest.approx(np.sqrt(2) * 1e100, rel=1e-15)
    # squares that overflow are rescaled too, at finite p as at p = inf
    f = PhysicalField(np.full((2, 8, 8, 8), 1e200), grid8)
    assert norm_anisotropic(f, np.inf, 4) == pytest.approx(np.sqrt(2) * 1e200, rel=1e-15)


@pytest.mark.parametrize("p", [np.inf, 4, 2, 1])
@pytest.mark.parametrize("name", ["u", "grad"])
def test_norm_is_homogeneous_at_any_scale(name, p):
    # ||amp f|| = amp ||f|| from amplitudes whose squares underflow to ones
    # whose squares overflow: no column reads 0 or raises
    f = random_field(Grid(8, 4, 1.0), ncomp=2, seed=0)
    want = NodeValues(f).norm(name, np.inf, p)
    for amp in 10.0 ** np.arange(-300, 301, 50):
        got = NodeValues(SpectralField(amp * f.coeffs, f.grid)).norm(name, np.inf, p)
        assert got == pytest.approx(amp * want, rel=1e-14), amp


def _oracle_mixed_norm(u, grid, q, p):
    """L^q_H L^p_z of node values u (ncomp, N, N, K) in 50-digit arithmetic.

    Powers are exp(e log x): mpmath's exponent range does not underflow, and
    the root 1/e divides the error of e log x by e.
    """
    mp = pytest.importorskip("mpmath")

    def lp(values, e, weight):
        if e == np.inf:
            return max(values)
        return (weight * sum(mp.exp(e * mp.log(v)) for v in values)) ** (1 / mp.mpf(e))

    with mp.workdps(50):
        mag = [
            [mp.sqrt(sum(mp.mpf(float(c)) ** 2 for c in u[:, i, j, k])) for k in range(grid.K)]
            for i in range(grid.N)
            for j in range(grid.N)
        ]
        cols = [lp(col, p, mp.mpf(grid.h) / grid.K) for col in mag]
        return float(lp(cols, q, mp.mpf(1) / grid.N**2))


@pytest.mark.parametrize("q", [np.inf, 2, 1000])
@pytest.mark.parametrize("p", [4, 200, 1000, 1e308])
def test_mixed_norm_large_exponents_match_50_digit_sum(grid8, q, p):
    # powers of node values near 0.05 underflow from p ~ 240 on: the kernels
    # rescale by the max, so the norm neither reads 0 nor overflows
    nodes = NodeValues(random_field(grid8, seed=0, amplitude=0.02))
    got = nodes.norm("u", q, p)
    assert got == pytest.approx(_oracle_mixed_norm(nodes.u, grid8, q, p), rel=1e-12, abs=0)
