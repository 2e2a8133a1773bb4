"""Estimate-verification laboratory: kernels, Young, decay scans, recursion."""

import numpy as np
import pytest

from hydrostokes.basis import Grid
from hydrostokes.fields import NodeValues
from hydrostokes.lab import (
    SEMIGROUP_COMBOS,
    ScanReport,
    horizontal_multiplier_scan,
    interpolation_ratio,
    kernel_l1_norm,
    log_riesz_ratio,
    nonlinear_estimate_scan,
    q_linfty_growth,
    recursion_bound_check,
    resolution_stability,
    resolvent_scan,
    semigroup_decay_scan,
    smoothing_trend,
    young_anisotropic_test,
)
from hydrostokes.sampling import random_field
from hydrostokes.semigroup import StokesOperator


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
    assert rep.skipped == 0


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
    # the four combos share two data: one semigroup sweep per sample family
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
    rep = resolvent_scan(0.9 * np.pi, np.geomspace(0.1, 10, 4), 3, np.inf, 4.0, grid8, seed=0)
    assert np.isfinite(rep.sup_ratio)
    assert rep.skipped == 0


def test_resolvent_scan_derivative_datum(grid8):
    rep = resolvent_scan(
        0.9 * np.pi, np.geomspace(0.1, 10, 4), 3, np.inf, 4.0, grid8, seed=0,
        derivative_datum=True,
    )
    assert np.isfinite(rep.sup_ratio)


def test_resolvent_scan_solves_each_conjugate_pair_once(grid8, monkeypatch):
    # psi in {0, 0.45 theta, 0.81 theta}: one solve and one row per psi >= 0,
    # since Re (lam - A)^{-1} f is the same at conj lam
    solves = []
    apply = StokesOperator.resolvent_apply

    def counted(self, lam, f):
        solves.append(lam)
        return apply(self, lam, f)

    monkeypatch.setattr(StokesOperator, "resolvent_apply", counted)
    theta, moduli = 0.9 * np.pi, np.geomspace(0.1, 10, 3)
    rep = resolvent_scan(theta, moduli, 2, np.inf, 4.0, grid8, seed=0)
    assert len(solves) == 3 * 2 * len(moduli)
    assert len(rep.ratios) == 3 * 2 * len(moduli)
    assert all(psi >= 0 for _, _, psi in rep.params)
    ratio = dict(zip(rep.params, rep.ratios))
    # the ratio solved at -psi itself equals the +psi row
    monkeypatch.setattr(StokesOperator, "resolvent_apply", apply)
    f = random_field(grid8, seed=0, solenoidal=True)
    mod, psi = moduli[1], 0.9 * theta
    lam = mod * np.exp(-1j * psi)
    nodes = NodeValues(grid8.stokes.resolvent_apply(lam, f))
    lhs = abs(lam) * nodes.norm("u", np.inf, 4.0) + np.sqrt(abs(lam)) * nodes.norm(
        "grad", np.inf, 4.0
    )
    assert ratio[(0, mod, psi)] == lhs / NodeValues(f).norm("u", np.inf, 4.0)


def test_multiplier_scan_finite():
    rep = horizontal_multiplier_scan(np.geomspace(1e-2, 1.0, 4), 4, N=16, seed=0)
    assert np.isfinite(rep.sup_ratio)


def test_multiplier_scan_rejects_bad_sector():
    with pytest.raises(ValueError):
        horizontal_multiplier_scan(np.array([0.1]), 2, theta=1.8)


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
        interpolation_ratio(2, 2.0, 2, (0.2,), grid8)


def test_interpolation_ratio_finite(grid8):
    rep = interpolation_ratio(5, 4.0, 2, (0.15, 0.3), grid8, seed=0)
    assert np.isfinite(rep.sup_ratio)
    assert rep.sup_ratio > 0


def test_log_riesz_ratio_finite():
    rep = log_riesz_ratio(5, 4.0, (0.15, 0.3), N=16, seed=0)
    assert np.isfinite(rep.sup_ratio)


# -- nonlinear scan -------------------------------------------------------


def test_nonlinear_scan_four_ratio_families(grid8):
    rep = nonlinear_estimate_scan(2, np.geomspace(0.05, 0.5, 3), 4.0, grid8, seed=0)
    tags = {t for (*_, t) in rep.params}
    assert tags == {"i", "ii", "iii", "iv"}
    assert np.isfinite(rep.sup_ratio)


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
