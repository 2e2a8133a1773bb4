"""Estimate-verification laboratory: kernels, Young, decay scans, recursion."""

import numpy as np
import pytest

from hydrostokes.basis import Grid
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
    assert len(list(rep.rows())) == 1


# -- semigroup decay scans ------------------------------------------------


def test_semigroup_decay_scan_finite(grid8):
    t_grid = np.geomspace(1e-2, 1.0, 5)
    for combo in SEMIGROUP_COMBOS:
        rep = semigroup_decay_scan(combo, t_grid, 3, 4.0, grid8, seed=0)
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
    semigroup_decay_scan("grad_sg", np.array([0.1]), 1, 4.0, grid)
    assert builds == [grid]
    assert grid.stokes is grid.stokes


def test_semigroup_decay_unknown_combo(grid8):
    with pytest.raises(ValueError):
        semigroup_decay_scan("nонsense", np.array([0.1]), 1, 4.0, grid8)


def test_smoothing_trend_decreasing(grid8):
    t_grid, vals = smoothing_trend(grid8, 4.0, seed=0)
    vals = np.asarray(vals)
    assert np.all(np.diff(vals) >= -1e-14)  # nondecreasing in t
    assert vals[0] <= 0.05 * vals[-1]  # tends to 0 as t -> 0+


def test_decay_scan_resolution_stability(grid8):
    t_grid = np.geomspace(1e-2, 1.0, 4)
    rep, _ = resolution_stability(
        lambda g: semigroup_decay_scan("grad_sg", t_grid, 3, 4.0, g, seed=0), grid8
    )
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


def test_multiplier_scan_finite():
    rep = horizontal_multiplier_scan(np.geomspace(1e-2, 1.0, 4), 4, N=16, seed=0)
    assert np.isfinite(rep.sup_ratio)


def test_multiplier_scan_rejects_bad_sector():
    with pytest.raises(ValueError):
        horizontal_multiplier_scan(np.array([0.1]), 2, theta=1.8)


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
