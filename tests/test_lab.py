"""Estimate-verification laboratory: kernels, Young, decay scans, recursion."""

import numpy as np
import pytest

from hydrostokes.basis import Grid
from hydrostokes.fields import NodeValues
from hydrostokes.lab import (
    RESOLVENT_THETA,
    SEMIGROUP_COMBOS,
    ScanReport,
    _boundary_flat_sample,
    _disk_mask,
    _draw_2d,
    _phys2d,
    _sup_2d,
    horizontal_multiplier_scan,
    interpolation_ratio,
    kernel_l1_norm,
    nonlinear_estimate_scan,
    recursion_bound_check,
    resolution_stability,
    resolvent_scan,
    semigroup_decay_scan,
    young_anisotropic_test,
)
from hydrostokes.projection import helmholtz_2d, project_hydrostatic
from hydrostokes.sampling import random_field
from hydrostokes.semigroup import StokesOperator, spectral_bound
from hydrostokes.solver import grad_mixed_norm, mixed_norm
from oracles import horizontal_derivative, log_riesz_ratio, q_linfty_growth, smoothing_trend


# -- one-dimensional kernel -----------------------------------------------


def test_kernel_identity_at_zero_angle():
    res = kernel_l1_norm(1.0)
    assert res["kernel_numeric"] == pytest.approx(1.0, abs=1e-6)
    assert res["kernel_exact"] == pytest.approx(1.0, abs=1e-14)


def test_kernel_identity_right_angle():
    res = kernel_l1_norm(np.exp(1j * np.pi / 2))
    assert res["kernel_exact"] == pytest.approx(2.0, abs=1e-13)
    assert res["kernel_numeric"] == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("psi", [0.0, np.pi / 4, -np.pi / 4, np.pi / 3, -np.pi / 3])
def test_kernel_identity_sweep(psi):
    res = kernel_l1_norm(np.exp(1j * psi))
    assert abs(res["kernel_numeric"] - 1.0 / np.cos(psi / 2) ** 2) <= 1e-6


@pytest.mark.parametrize(
    "psi", [0.0, np.pi / 4, -np.pi / 4, np.pi / 3, -np.pi / 3, np.pi / 2, 0.9 * np.pi]
)
def test_kernel_gauss_laguerre_matches_closed_form(psi):
    res = kernel_l1_norm(np.exp(1j * psi))
    sec = 1.0 / np.cos(psi / 2)
    assert abs(res["kernel_numeric"] - sec**2) <= 1e-12
    assert abs(res["grad_numeric"] - (sec + sec**2)) <= 1e-12


def test_kernel_scale_invariance():
    psi = np.pi / 3
    a = kernel_l1_norm(0.1 * np.exp(1j * psi))
    b = kernel_l1_norm(10.0 * np.exp(1j * psi))
    assert a["kernel_numeric"] == pytest.approx(b["kernel_numeric"], abs=1e-8)


def test_kernel_gradient_bound():
    for psi in (0.0, np.pi / 3):
        res = kernel_l1_norm(np.exp(1j * psi))
        sec = 1.0 / np.cos(psi / 2)
        assert res["grad_numeric"] <= (sec + sec**2) * (1 + 1e-6)


# -- anisotropic Young ----------------------------------------------------


@pytest.mark.parametrize("q,p", [(np.inf, 4), (2, 2), (1, np.inf)])
def test_young_convolution_bound(q, p):
    rep = young_anisotropic_test(20, q, p, seed=1)
    assert rep.sup_ratio <= 1 + 1e-10
    assert len(rep.ratios) == 20


def test_scan_report_rows():
    rep = ScanReport("demo", [(0,)], [0.5])
    assert rep.sup_ratio == 0.5


# -- semigroup decay scans ------------------------------------------------


def test_semigroup_decay_scan_finite(grid8):
    t_grid = np.geomspace(1e-2, 1.0, 5)
    reports = semigroup_decay_scan(t_grid, 3, 4.0, grid8, seed=0)
    for combo in SEMIGROUP_COMBOS:
        rep = reports[combo]
        assert np.isfinite(rep.sup_ratio)
        assert rep.sup_ratio > 0


def test_decay_scan_builds_one_operator_per_grid(monkeypatch):
    # the scan's semigroup and its spectral bound share the grid's operator
    builds = []
    init = StokesOperator.__init__

    def counted(self, grid):
        builds.append(grid)
        init(self, grid)

    monkeypatch.setattr(StokesOperator, "__init__", counted)
    grid = Grid(8, 4, 1.0)
    semigroup_decay_scan(np.array([0.1]), 1, 4.0, grid)
    assert builds == [grid]
    assert grid.stokes is grid.stokes


def test_resolution_studies_share_one_doubled_grid(monkeypatch):
    # every study on one base grid runs its fine scan on the same doubled grid
    builds = []
    init = StokesOperator.__init__

    def counted(self, grid):
        builds.append(grid)
        init(self, grid)

    monkeypatch.setattr(StokesOperator, "__init__", counted)
    grid = Grid(8, 4, 1.0)
    base = semigroup_decay_scan(np.array([0.1]), 1, 4.0, grid)
    fine = semigroup_decay_scan(np.array([0.1]), 1, 4.0, grid.doubled)
    for combo in SEMIGROUP_COMBOS:
        resolution_stability(base[combo], fine[combo])
    assert builds == [grid, grid.doubled]


def test_semigroup_decay_scan_keys_follow_combos(grid8):
    reports = semigroup_decay_scan(np.array([0.1]), 1, 4.0, grid8)
    assert list(reports) == list(SEMIGROUP_COMBOS)
    assert [rep.estimate for rep in reports.values()] == list(SEMIGROUP_COMBOS)


def test_semigroup_decay_scan_one_apply_per_family_sample_and_time(monkeypatch):
    # the four combos share two data: one semigroup sweep per sample and datum
    times = []
    apply = StokesOperator.semigroup_apply

    def counted(self, t, v):
        times.append(t)
        return apply(self, t, v)

    monkeypatch.setattr(StokesOperator, "semigroup_apply", counted)
    t_grid = np.geomspace(1e-2, 1.0, 3)
    grid = Grid(8, 4, 1.0)
    for g in (grid, grid.doubled):
        times.clear()
        reports = semigroup_decay_scan(t_grid, 2, 4.0, g)
        assert len(times) == 2 * 2 * len(t_grid)
        assert all(len(rep.ratios) == 2 * len(t_grid) for rep in reports.values())


def test_semigroup_decay_scan_ratios_follow_their_formulas():
    # each combo's numerator over its own denominator, bit for bit
    grid, p, seed, t_grid = Grid(8, 4, 1.0), 4.0, 3, np.array([0.01, 0.3])
    reports = semigroup_decay_scan(t_grid, 2, p, grid, seed=seed)
    params = [(i, t) for i in range(2) for t in t_grid]
    want = {c: [] for c in SEMIGROUP_COMBOS}
    beta, sg = spectral_bound(grid)[0], grid.stokes.semigroup_apply
    for i, t in params:
        f0 = random_field(grid, seed=seed + i)
        pf0 = project_hydrostatic(f0)
        grad = np.sqrt(t) * grad_mixed_norm(sg(t, pf0), p)
        want["grad_sg"].append(grad / (np.exp(beta * t) * mixed_norm(pf0, p)))
        want["grad_sg_proj"].append(grad / (np.exp(beta * t) * mixed_norm(f0, p)))
        f, dzf = _boundary_flat_sample(grid, seed + i)
        nodes = NodeValues(sg(t, project_hydrostatic(dzf)))
        fn = mixed_norm(f, p)
        want["sg_proj_dz"].append(np.sqrt(t) * nodes.norm("u", np.inf, p) / (np.exp(beta * t) * fn))
        want["grad_sg_proj_dz"].append(t * nodes.norm("grad", np.inf, p) / (np.exp(beta * t) * fn))
    for combo, rep in reports.items():
        assert rep.params == params
        assert list(rep.ratios) == want[combo]


def test_smoothing_trend_decreasing(grid8):
    t_grid, vals = smoothing_trend(grid8, 4.0, seed=0)
    vals = np.asarray(vals)
    assert np.all(np.diff(vals) >= -1e-14)  # nondecreasing in t
    assert vals[0] <= 0.05 * vals[-1]  # tends to 0 as t -> 0+


def test_decay_scan_resolution_stability(grid8):
    t_grid = np.geomspace(1e-2, 1.0, 4)
    base = semigroup_decay_scan(t_grid, 3, 4.0, grid8, seed=0)
    fine = semigroup_decay_scan(t_grid, 3, 4.0, grid8.doubled, seed=0)
    rep, _ = resolution_stability(base["grad_sg"], fine["grad_sg"])
    assert rep.stable


# -- resolvent and multiplier scans ---------------------------------------


def test_resolvent_scan_finite(grid8):
    rep = resolvent_scan(np.geomspace(0.1, 10, 4), 3, 4.0, grid8, seed=0)["resolvent"]
    assert np.isfinite(rep.sup_ratio)
    assert len(rep.ratios) == 3 * 4 * 3  # samples x moduli x psi


def test_resolvent_scan_derivative_datum(grid8):
    rep = resolvent_scan(np.geomspace(0.1, 10, 4), 3, 4.0, grid8, seed=0)["resolvent_dz"]
    assert np.isfinite(rep.sup_ratio)
    assert len(rep.ratios) == 3 * 4 * 3  # samples x moduli x psi


def test_resolvent_scan_solves_each_conjugate_pair_once(grid8, monkeypatch):
    # psi in {0, 0.45 pi, 0.81 pi}: one solve and one row per psi >= 0,
    # since Re (lam - A)^{-1} f is the same at conj lam
    solves = []
    apply = StokesOperator.resolvent_apply

    def counted(self, lam, f):
        solves.append(lam)
        return apply(self, lam, f)

    monkeypatch.setattr(StokesOperator, "resolvent_apply", counted)
    moduli = np.geomspace(0.1, 10, 3)
    rep = resolvent_scan(moduli, 2, 4.0, grid8, seed=0)["resolvent"]
    assert len(solves) == 3 * 2 * len(moduli)
    assert len(rep.ratios) == 3 * 2 * len(moduli)
    assert all(psi >= 0 for _, _, psi in rep.params)
    ratio = dict(zip(rep.params, rep.ratios))
    # the ratio solved at -psi itself equals the +psi row
    monkeypatch.setattr(StokesOperator, "resolvent_apply", apply)
    f = random_field(grid8, seed=0, solenoidal=True)
    mod, psi = moduli[1], 0.9 * RESOLVENT_THETA
    lam = mod * np.exp(-1j * psi)
    nodes = NodeValues(grid8.stokes.resolvent_apply(lam, f))
    lhs = abs(lam) * nodes.norm("u", np.inf, 4.0) + np.sqrt(abs(lam)) * nodes.norm(
        "grad", np.inf, 4.0
    )
    assert ratio[(0, mod, psi)] == lhs / NodeValues(f).norm("u", np.inf, 4.0)


def test_resolvent_scan_one_solve_feeds_both_reports(grid8, monkeypatch):
    # dx commutes with the per-mode resolvent, so the dz ratio is read from
    # the solve of f: it equals the ratio solved from dx f itself
    solves = []
    apply = StokesOperator.resolvent_apply

    def counted(self, lam, f):
        solves.append(lam)
        return apply(self, lam, f)

    monkeypatch.setattr(StokesOperator, "resolvent_apply", counted)
    n_samples, moduli, p = 3, np.geomspace(0.1, 100, 4), 4.0
    reps = resolvent_scan(moduli, n_samples, p, grid8, seed=5)
    assert len(solves) == n_samples * 3 * len(moduli)
    monkeypatch.setattr(StokesOperator, "resolvent_apply", apply)
    assert list(reps) == ["resolvent", "resolvent_dz"]
    base, dz = reps.values()
    assert dz.estimate == "resolvent_dz"
    assert len(base.params) == len(solves) and dz.params == base.params
    for (i, mod, psi), r, r_dz in zip(base.params, base.ratios, dz.ratios):
        f = random_field(grid8, seed=5 + i, solenoidal=True)
        fn = NodeValues(f).norm("u", np.inf, p)
        lam = mod * np.exp(1j * psi)
        nodes = NodeValues(grid8.stokes.resolvent_apply(lam, f))
        lhs = abs(lam) * nodes.norm("u", np.inf, p) + np.sqrt(abs(lam)) * nodes.norm(
            "grad", np.inf, p
        )
        assert r == lhs / fn
        v_dx = grid8.stokes.resolvent_apply(lam, horizontal_derivative(f, "x"))
        ref = np.sqrt(abs(lam)) * NodeValues(v_dx).norm("u", np.inf, p) / fn
        assert r_dz == pytest.approx(ref, rel=1e-13, abs=0)


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.inf, np.nan])
def test_resolvent_scan_rejects_bad_modulus(grid8, bad):
    # a modulus that is not positive and finite is rejected before any solve
    with pytest.raises(ValueError, match="positive and finite"):
        resolvent_scan([0.1, bad], 2, 4.0, grid8)


def test_multiplier_scan_finite():
    rep = horizontal_multiplier_scan(np.geomspace(1e-2, 1.0, 4), 4, N=16, seed=0)
    assert np.isfinite(rep.sup_ratio)


def test_multiplier_scan_rejects_bad_sector():
    # the sector's half-angle is pi/3: arg tau = 1.0 is inside, 1.1 is not
    horizontal_multiplier_scan([np.exp(1.0j)], 1, N=8)
    with pytest.raises(ValueError, match="sector"):
        horizontal_multiplier_scan([np.exp(1.1j)], 1, N=8)


@pytest.mark.parametrize("tau", [2j, np.nan, complex(0.1, np.nan), np.inf])
@pytest.mark.parametrize("n_samples", [0, 2])
def test_multiplier_scan_checks_tau_before_drawing(tau, n_samples):
    # the whole tau grid is checked up front, so no draw is needed to reject it
    with pytest.raises(ValueError, match="sector"):
        horizontal_multiplier_scan([0.1, tau], n_samples, N=8)


def test_q_growth_trend():
    out = q_linfty_growth([8, 16, 32], seed=0, n_samples=3)
    sups = [s for _, s in out]
    # the projection is L^inf-unbounded: the disc sample drives growth in N
    assert sups[-1] > sups[0]


# -- interpolation and log-Riesz ------------------------------------------


def test_interpolation_requires_p_above_two(grid8):
    with pytest.raises(ValueError):
        interpolation_ratio(2, 2.0, (0.2,), grid8)


def test_interpolation_ratio_finite(grid8):
    rep = interpolation_ratio(5, 4.0, (0.15, 0.3), grid8, seed=0)
    assert np.isfinite(rep.sup_ratio)
    assert rep.sup_ratio > 0


def test_log_riesz_ratio_finite():
    rep = log_riesz_ratio(5, 4.0, (0.15, 0.3), N=16, seed=0)
    assert np.isfinite(rep.sup_ratio)


def test_log_riesz_ratio_sums_by_weighted_lp():
    # every power gphys^p overflows at p = 1000 and 1e5; the rescaled L^p
    # norm does not
    for p, sup in ((1000.0, 0.29242), (1e5, 0.29333)):
        rep = log_riesz_ratio(5, p, (0.15, 0.3), N=16, seed=0)
        assert np.all(np.isfinite(rep.ratios))
        assert rep.sup_ratio == pytest.approx(sup, abs=1e-5)
    # at p = 4 the rescue path is idle and 1/N^2 is a power of two: the
    # ratios are those of the plain sum, bit for bit
    N, p, r_grid = 16, 4.0, (0.15, 0.3)
    grid = Grid(N, 1, 1.0)
    rng = np.random.default_rng(0)
    xix, xiy = grid.xi_vectors()
    env = (1.0 + (xix**2 + xiy**2) / (2 * np.pi) ** 2) ** (-0.75)
    want = []
    for _ in range(5):
        Fhat = _draw_2d(rng, N, env)
        gphys = np.linalg.norm(_phys2d(Fhat - helmholtz_2d(Fhat, grid), N).real, axis=0)
        finf = _sup_2d(Fhat, N)
        center = rng.random(2)
        for r in r_grid:
            lhs = (np.sum(gphys[_disk_mask(grid, center, r)] ** p) / N**2) ** (1.0 / p)
            want.append(lhs / (r ** (2.0 / p) * (1.0 + abs(np.log(r))) * finf))
    rep = log_riesz_ratio(5, p, r_grid, N=N, seed=0)
    assert np.array_equal(rep.ratios, want)


# -- nonlinear scan -------------------------------------------------------


def test_nonlinear_scan_four_ratio_families(grid8):
    rep = nonlinear_estimate_scan(2, np.geomspace(0.05, 0.5, 3), 4.0, grid8, seed=0)
    tags = {t for (*_, t) in rep.params}
    assert tags == {"i", "ii", "iii", "iv"}
    assert np.isfinite(rep.sup_ratio)


# -- tiny depth -----------------------------------------------------------


def test_scans_keep_every_sample_at_tiny_depth():
    # at h = 1e-20 and p = 1 every denominator is of order h, and none is
    # dropped: each scan returns all its rows
    g = Grid(8, 8, 1e-20)
    with np.errstate(all="ignore"):
        nl = nonlinear_estimate_scan(2, [0.1, 1.0], 1.0, g)
        res = resolvent_scan([0.1, 10.0], 2, 1.0, g)
        sg = semigroup_decay_scan([1e-3, 1.0], 2, 1.0, g)
    assert len(nl.ratios) == 16 and np.all(np.isfinite(nl.ratios))
    for rep in res.values():
        assert len(rep.ratios) == 12 and np.all(np.isfinite(rep.ratios))
    assert list(sg) == list(SEMIGROUP_COMBOS)
    for rep in sg.values():
        assert len(rep.ratios) == len(rep.params) == 4


# -- recursion lemma ------------------------------------------------------


def test_recursion_standard_case():
    seq, bound, ok = recursion_bound_check(0.1, 1.0, 0.25)
    assert ok
    assert bound == pytest.approx(2 * 0.1 / (1 - 0.25))
    assert bound == pytest.approx(0.26667, abs=1e-4)
    assert max(seq) < bound


def test_recursion_zero_data():
    seq, bound, ok = recursion_bound_check(0.0, 1.0, 0.5)
    assert ok
    assert all(a == 0.0 for a in seq)
    assert bound == 0.0


def test_recursion_precondition_violation():
    with pytest.raises(ValueError):
        recursion_bound_check(0.2, 1.0, 0.25)


def test_recursion_third_parameter_set():
    # 4 c1 a0 = 0.4 < (1 - c2)^2 = 0.81
    seq, bound, ok = recursion_bound_check(0.05, 2.0, 0.1)
    assert ok
    assert max(seq) < bound
