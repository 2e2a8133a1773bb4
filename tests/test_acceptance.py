"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single pass line on success; a pytest failure is the fail
line.  Criteria cover the closed-form kernel identity, the anisotropic Young
inequality, projection exactness, semigroup consistency, spectral stability,
decay-estimate scans, Picard contraction, solver physics, the recursion
lemma, and the rough-data gradient trend.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hydrostokes.basis import Grid, VerticalBasis
from hydrostokes.fields import SpectralField
from hydrostokes.lab import (
    SEMIGROUP_COMBOS,
    kernel_l1_norm,
    recursion_bound_check,
    resolution_stability,
    semigroup_decay_scan,
    smoothing_trend,
    young_anisotropic_test,
)
from hydrostokes.projection import check_solenoidal, project_hydrostatic
from hydrostokes.nonlinear import advection, divergence_form
from hydrostokes.sampling import random_field
from hydrostokes.semigroup import StokesOperator, spectral_bound
from hydrostokes.solver import (
    SolverConfig,
    full_solve,
    mixed_norm,
    picard_iterate,
    reference_solve,
    split_data,
)

GRID16 = Grid(16, 16, 1.0)


def _ok(n, name):
    print(f"criterion {n} ({name}): PASS")


def test_criterion_01_kernel_identity():
    # |lambda| ||K_lambda||_1 = sec^2(psi/2) within 1e-6 on the angle sweep
    for psi in (0.0, np.pi / 4, -np.pi / 4, np.pi / 3, -np.pi / 3):
        res = kernel_l1_norm(np.exp(1j * psi))
        assert abs(res["kernel_numeric"] - 1.0 / np.cos(psi / 2) ** 2) <= 1e-6
    _ok(1, "kernel identity")


def test_criterion_02_anisotropic_young():
    # 200 random pairs across three (q, p) exponent pairs, zero failures
    for q, p in ((np.inf, 4), (2, 2), (1, np.inf)):
        rep = young_anisotropic_test(67, q, p, seed=0)
        assert len(rep.ratios) >= 67
        assert rep.sup_ratio <= 1 + 1e-10
    _ok(2, "anisotropic Young inequality")


def test_criterion_03_projection_exactness():
    # idempotence and divergence-freeness to 1e-13 on 100 random fields
    for seed in range(100):
        f = random_field(GRID16, ncomp=2, seed=seed)
        pf = project_hydrostatic(f)
        ppf = project_hydrostatic(pf)
        scale = np.abs(pf.coeffs).max()
        assert np.abs(ppf.coeffs - pf.coeffs).max() <= 1e-13 * scale
        assert check_solenoidal(pf) <= 1e-13
    _ok(3, "projection exactness")


def test_criterion_04_semigroup_consistency():
    op = StokesOperator(GRID16)
    v = random_field(GRID16, ncomp=2, seed=1)
    # (a) semigroup law to 1e-10
    ab = op.semigroup_apply(0.07, op.semigroup_apply(0.05, v))
    direct = op.semigroup_apply(0.12, v)
    assert np.abs(ab.coeffs - direct.coeffs).max() <= 1e-10 * np.abs(v.coeffs).max()
    # (b) generator consistency: first-order difference quotient, order >= 0.9
    smooth = random_field(GRID16, ncomp=2, seed=3, decay=4.0)
    damp = (1.0 + np.arange(16)) ** -4.0
    smooth = SpectralField(smooth.coeffs * damp, GRID16)
    av = op.apply_A(smooth)
    errs = []
    for tau in (5e-4, 2.5e-4):
        fd = (op.semigroup_apply(tau, smooth).coeffs - smooth.coeffs) / tau
        errs.append(np.abs(fd - av.coeffs).max())
    assert np.log2(errs[0] / errs[1]) >= 0.9
    # (c) per-mode expm against adaptive ODE integration to 1e-8
    grid = Grid(8, 8, 1.0)
    op8 = StokesOperator(grid)
    rng = np.random.default_rng(42)
    c0 = rng.standard_normal(8)
    M = op8.Mz - 8 * np.pi**2 * np.eye(8)
    sol = solve_ivp(lambda t, y: M @ y, (0, 0.1), c0, rtol=1e-12, atol=1e-14)
    e = np.array([1.0, 1.0]) / np.sqrt(2)
    c = np.zeros((2, 8, 8, 8), dtype=complex)
    c[:, 1, 1, :] = np.outer(e, c0)
    c[:, -1, -1, :] = np.outer(e, c0)
    out = op8.semigroup_apply(0.1, SpectralField(c, grid))
    got = (e @ out.coeffs[:, 1, 1, :]).real
    assert np.abs(got - sol.y[:, -1]).max() <= 1e-8
    _ok(4, "semigroup law / generator / expm-vs-ODE")


def test_criterion_05_spectral_stability():
    for N, K in ((8, 8), (16, 16), (32, 32), (64, 64)):
        for h in (0.5, 1.0, 2.0):
            bound, _ = spectral_bound(Grid(N, K, h), "solenoidal")
            assert bound < 0
            assert bound == pytest.approx(-((np.pi / (2 * h)) ** 2), abs=1e-8)
    _ok(5, "spectral stability sweep")


def test_criterion_06_decay_scans():
    t_grid = np.geomspace(1e-3, 1.0, 6)
    for combo in SEMIGROUP_COMBOS:
        rep, _ = resolution_stability(
            lambda g, c=combo: semigroup_decay_scan(c, t_grid, 5, 4.0, g, seed=0),
            GRID16,
        )
        assert np.isfinite(rep.sup_ratio)
        assert rep.stable, f"{combo} sup ratio moved more than 10% under doubling"
    # smooth solenoidal data: t^{1/2} ||grad e^{tA} f|| decreasing toward 0
    _, vals = smoothing_trend(GRID16, 4.0, seed=0)
    vals = np.asarray(vals)
    assert np.all(np.diff(vals) >= -1e-14)
    assert vals[0] <= 0.05 * vals[-1]
    _ok(6, "decay-estimate scans")


def test_criterion_07_picard_contraction():
    cfg = SolverConfig(N=16, K=16, h=1.0, p=4.0, dt=0.005, T=0.1)
    a = random_field(GRID16, ncomp=2, seed=6, solenoidal=True)
    a_ref, a0 = split_data(a, cfg.delta)
    scale = 0.01 / mixed_norm(a0, cfg.p)
    a0 = SpectralField(a0.coeffs * scale, GRID16)
    a_ref = SpectralField(a_ref.coeffs * scale, GRID16)
    vref = reference_solve(a_ref, cfg)
    _, report = picard_iterate(a0, vref, cfg)
    assert report.converged
    assert report.iterations <= 8
    assert all(r <= 0.5 for r in report.ratios[1:])
    _ok(7, "Picard contraction")


def test_criterion_08_solver_physics():
    cfg = SolverConfig(dt=0.005, T=0.05)
    a = random_field(
        GRID16, ncomp=2, seed=8, solenoidal=True, amplitude=0.02, rough_amplitude=0.005
    )
    traj = full_solve(a, cfg)
    energy = np.asarray(traj.diagnostics["energy"])
    rel_growth = np.diff(energy) / energy[:-1]
    assert rel_growth.max() <= 1e-10
    assert max(traj.diagnostics["sol_drift"]) <= 1e-10
    for seed in range(3):
        v = random_field(GRID16, ncomp=2, seed=seed, solenoidal=True)
        adv = advection(v)
        div = divergence_form(v)
        assert np.abs(adv.coeffs - div.coeffs).max() <= 1e-9 * np.abs(adv.coeffs).max()
    _ok(8, "solver physics")


def test_criterion_09_recursion_lemma():
    seq, bound, ok = recursion_bound_check(0.1, 1.0, 0.25)
    assert ok and max(seq) < bound and bound == pytest.approx(0.26667, abs=1e-4)
    seq, bound, ok = recursion_bound_check(0.0, 1.0, 0.5)
    assert ok and bound == 0.0
    seq, bound, ok = recursion_bound_check(0.05, 2.0, 0.1)
    assert ok and max(seq) < bound
    with pytest.raises(ValueError):
        recursion_bound_check(0.2, 1.0, 0.25)
    _ok(9, "recursion lemma thresholds")


def test_criterion_10_rough_amplitude_trend():
    # the small-time plateau of t^{1/2} ||grad v|| scales with the rough-part
    # amplitude: plateau/rho constant to within a factor 2 over one octave
    cfg = SolverConfig(dt=0.0025, T=0.05, delta=0.01)
    base = random_field(GRID16, ncomp=2, seed=12, solenoidal=True, rough_amplitude=1.0)
    levels = {}
    for rho in (0.01, 0.02, 0.04):
        a = SpectralField(base.coeffs * rho, GRID16)
        traj = full_solve(a, cfg)
        g = np.asarray(traj.diagnostics["t_sqrt_grad_norm"])
        levels[rho] = g[1:9].max()  # small-time plateau
    scaled = [levels[r] / r for r in (0.01, 0.02, 0.04)]
    assert max(scaled) <= 2.0 * min(scaled)
    _ok(10, "rough-amplitude gradient trend")
