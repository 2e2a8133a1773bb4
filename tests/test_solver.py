"""Data splitting, reference integrator, Picard iteration, full solve."""

import numpy as np
import pytest

import hydrostokes.solver
from hydrostokes.basis import Grid
from hydrostokes.fields import SpectralField
from hydrostokes.sampling import random_field, single_mode_field
from hydrostokes.semigroup import StokesOperator
from hydrostokes.solver import (
    SolverConfig,
    SolverDivergenceError,
    Trajectory,
    _duhamel,
    full_solve,
    grad_mixed_norm,
    mild_residual,
    mixed_norm,
    picard_iterate,
    reference_solve,
    split_data,
)


@pytest.fixture(scope="module")
def op16():
    return StokesOperator(Grid(16, 16, 1.0))


# -- configuration --------------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [
        dict(p=3.0),
        dict(p=2.0),
        dict(dt=0.2, T=0.1),
        dict(dt=0.0),
        dict(delta=-1.0),
        dict(snapshot_every=0),
        dict(dt=0.003, T=0.01),
        dict(dt=0.0035, T=0.01, delta=0.0),
        dict(N=5),
        dict(h=np.inf),
        dict(T=np.inf),
        dict(dt=1e-320),
        dict(delta=np.nan),
        dict(eps0=np.nan),
        dict(picard_tol=np.nan),
        dict(dt=1.0, T=1e300),
    ],
)
def test_config_validation(bad):
    with pytest.raises(ValueError):
        SolverConfig(**bad)


def test_config_grid():
    cfg = SolverConfig(N=8, K=4, h=0.5)
    assert cfg.grid() == Grid(8, 4, 0.5)


# -- splitting ------------------------------------------------------------


def test_split_zero_delta(op16):
    a = random_field(op16.grid, ncomp=2, seed=0, solenoidal=True)
    a_ref, a0 = split_data(a, 0.0)
    assert np.array_equal(a_ref.coeffs, a.coeffs)
    assert np.abs(a0.coeffs).max() == 0.0


def test_split_large_delta(op16):
    a = random_field(op16.grid, ncomp=2, seed=0, solenoidal=True)
    a_ref, a0 = split_data(a, 50.0)
    assert np.abs(a_ref.coeffs).max() <= 1e-12 * np.abs(a.coeffs).max()
    assert np.abs(a0.coeffs - a.coeffs).max() <= 1e-12 * np.abs(a.coeffs).max()


def test_split_single_mode_scalar_formula(op16):
    a = single_mode_field(op16.grid, m=1, n=0, k=0, component=1)
    delta = 0.3
    a_ref, a0 = split_data(a, delta)
    mu = 4 * np.pi**2 + (np.pi / 2) ** 2
    assert a0.norm2() == pytest.approx((1 - np.exp(-mu * delta)) * a.norm2(), rel=1e-12)


# -- reference integrator -------------------------------------------------


def test_reference_solve_zero(op16):
    a = SpectralField(np.zeros((2, 16, 16, 16), complex), op16.grid)
    cfg = SolverConfig(dt=0.01, T=0.05)
    traj = reference_solve(a, cfg)
    assert all(np.abs(s.coeffs).max() == 0.0 for s in traj.snapshots)


def test_reference_solve_linear_regime(op16):
    # tiny amplitude: the nonlinearity is quadratically negligible and the
    # trajectory reduces to the semigroup
    a = random_field(op16.grid, ncomp=2, seed=2, solenoidal=True, amplitude=1e-10)
    cfg = SolverConfig(dt=0.005, T=0.05)
    traj = reference_solve(a, cfg)
    ref = op16.semigroup_apply(0.05, a)
    err = np.abs(traj.snapshots[-1].coeffs - ref.coeffs).max()
    assert err <= 1e-12 * np.abs(ref.coeffs).max()


def test_reference_solve_self_convergence(op16):
    a = random_field(op16.grid, ncomp=2, seed=3, solenoidal=True, amplitude=0.5, decay=3.0)
    cfg = SolverConfig(dt=0.02, T=0.08)
    end = {}
    for dt in (0.02, 0.01, 0.005):
        c = SolverConfig(dt=dt, T=0.08)
        end[dt] = reference_solve(a, c).snapshots[-1].coeffs
    e1 = np.abs(end[0.02] - end[0.005]).max()
    e2 = np.abs(end[0.01] - end[0.005]).max()
    order = np.log2(e1 / e2) - 0.0
    assert order >= 1.0  # exponential Euler is at least first order


def test_trajectory_times_strictly_increasing(op16):
    a = random_field(op16.grid, ncomp=2, seed=2, solenoidal=True, amplitude=0.01)
    cfg = SolverConfig(dt=0.01, T=0.05)
    traj = reference_solve(a, cfg)
    assert np.all(np.diff(traj.times) > 0)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0, 0.1]), traj.snapshots[:3])


# -- Picard iteration -----------------------------------------------------


def _zero_traj(op, times):
    zero = SpectralField(np.zeros((2, 16, 16, 16), complex), op.grid)
    return Trajectory(np.asarray(times), [zero] * len(times))


def test_picard_zero_data_zero_reference(op16):
    cfg = SolverConfig(dt=0.01, T=0.05)
    a0 = SpectralField(np.zeros((2, 16, 16, 16), complex), op16.grid)
    vref = _zero_traj(op16, np.arange(6) * 0.01)
    traj, report = picard_iterate(a0, vref, cfg)
    assert report.converged
    assert all(np.abs(s.coeffs).max() == 0.0 for s in traj.snapshots)


def test_picard_zero_data_nonzero_reference(op16):
    # all coupling terms contain the iterate: a0 = 0 is a fixed point at once
    cfg = SolverConfig(dt=0.01, T=0.05)
    a0 = SpectralField(np.zeros((2, 16, 16, 16), complex), op16.grid)
    avr = random_field(op16.grid, ncomp=2, seed=5, solenoidal=True, amplitude=0.1)
    vref = reference_solve(avr, cfg)
    traj, report = picard_iterate(a0, vref, cfg)
    assert report.converged
    assert report.iterations <= 2
    assert all(np.abs(s.coeffs).max() == 0.0 for s in traj.snapshots)


def test_picard_contraction_small_data(op16):
    cfg = SolverConfig(dt=0.005, T=0.1)
    a = random_field(op16.grid, ncomp=2, seed=6, solenoidal=True)
    a_ref, a0 = split_data(a, cfg.delta)
    scale = 0.01 / mixed_norm(a0, cfg.p)
    a0 = SpectralField(a0.coeffs * scale, op16.grid)
    a_ref = SpectralField(a_ref.coeffs * scale, op16.grid)
    vref = reference_solve(a_ref, cfg)
    traj, report = picard_iterate(a0, vref, cfg)
    assert report.converged
    assert all(r <= 0.5 for r in report.ratios[1:])


def test_picard_rejects_non_uniform_reference(op16):
    # the Duhamel recurrence assumes one step size; a non-uniform grid must
    # raise rather than give silently wrong sums
    cfg = SolverConfig(dt=0.01, T=0.05)
    a0 = random_field(op16.grid, ncomp=2, seed=12, solenoidal=True, amplitude=0.01)
    vref = _zero_traj(op16, [0.0, 0.01, 0.02, 0.035, 0.05])
    with pytest.raises(ValueError, match="uniformly spaced"):
        picard_iterate(a0, vref, cfg)


def test_picard_semigroup_applies_linear_in_nodes(monkeypatch):
    # one apply per node for the free part, one per node per iteration: the
    # old from-scratch Duhamel sums made O(n^2) applies per iteration
    op = StokesOperator(Grid(8, 8, 1.0))
    calls = []
    apply = StokesOperator.semigroup_apply

    def counted(self, t, v):
        calls.append(t)
        return apply(self, t, v)

    monkeypatch.setattr(StokesOperator, "semigroup_apply", counted)
    n = 11
    cfg = SolverConfig(N=8, K=8, dt=0.01, T=0.1, max_picard=3, picard_tol=0.0)
    a0 = random_field(op.grid, ncomp=2, seed=13, solenoidal=True, amplitude=0.01)
    vref = Trajectory(np.arange(n) * 0.01, [SpectralField.zeros(op.grid)] * n)
    _, report = picard_iterate(a0, vref, cfg)
    m = report.iterations
    assert m == 3
    assert len(calls) <= (m + 2) * n


def test_picard_divergence_raises(op16):
    cfg = SolverConfig(dt=0.02, T=0.4, max_picard=6)
    a0 = random_field(op16.grid, ncomp=2, seed=1, solenoidal=True, amplitude=50.0)
    vref = _zero_traj(op16, np.arange(21) * 0.02)
    with pytest.raises(SolverDivergenceError):
        picard_iterate(a0, vref, cfg)


# -- full solve and residual ----------------------------------------------


def test_full_solve_zero(op16):
    cfg = SolverConfig(dt=0.01, T=0.05)
    a = SpectralField(np.zeros((2, 16, 16, 16), complex), op16.grid)
    traj = full_solve(a, cfg)
    assert all(np.abs(s.coeffs).max() == 0.0 for s in traj.snapshots)
    assert np.all(np.asarray(traj.diagnostics["energy"]) == 0.0)


def test_full_solve_smooth_degenerate_split(op16):
    # smooth data with delta = 0: the rough part vanishes identically and the
    # composite solve reduces to the reference integrator
    cfg = SolverConfig(dt=0.01, T=0.05, delta=0.0)
    a = random_field(op16.grid, ncomp=2, seed=7, solenoidal=True, amplitude=0.01)
    traj = full_solve(a, cfg)
    ref = reference_solve(a, cfg)
    err = np.abs(traj.snapshots[-1].coeffs - ref.snapshots[-1].coeffs).max()
    assert err <= 1e-12 * np.abs(ref.snapshots[-1].coeffs).max()


def test_full_solve_rough_diagnostics(op16):
    cfg = SolverConfig(dt=0.005, T=0.05)
    a = random_field(
        op16.grid, ncomp=2, seed=8, solenoidal=True, amplitude=0.02, rough_amplitude=0.005
    )
    traj = full_solve(a, cfg)
    diag = traj.diagnostics
    energy = np.asarray(diag["energy"])
    rel_growth = np.diff(energy) / energy[:-1]
    assert rel_growth.max() <= 1e-10
    assert max(diag["sol_drift"]) <= 1e-10
    assert np.all(np.isfinite(diag["residual"]))


def test_full_solve_rejects_data_on_another_grid():
    # same N and K, other depth: the config's operator would not be the data's
    a = random_field(Grid(16, 16, 0.5), ncomp=2, seed=7, solenoidal=True, amplitude=0.01)
    with pytest.raises(ValueError, match="config"):
        full_solve(a, SolverConfig(dt=0.01, T=0.05))


def test_duhamel_recurrence_matches_direct_sum(op16):
    # oracle: the trapezoid sum written out, each term its own semigroup apply
    n, dt = 9, 0.0125
    times = dt * np.arange(n)
    a = random_field(op16.grid, ncomp=2, seed=14, solenoidal=True)
    F = [random_field(op16.grid, ncomp=2, seed=20 + j, solenoidal=True) for j in range(n)]
    sums = list(_duhamel(a, F, times))
    assert len(sums) == n
    assert np.array_equal(sums[0].coeffs, a.coeffs)
    for k in range(1, n):
        direct = op16.semigroup_apply(times[k], a).coeffs.copy()
        for j in range(k + 1):
            w = 0.5 * dt if j in (0, k) else dt
            direct += w * op16.semigroup_apply(times[k] - times[j], F[j]).coeffs
        err = np.abs(sums[k].coeffs - direct).max()
        assert err <= 1e-12 * np.abs(direct).max()


def test_mild_residual_linear_trajectory(op16):
    # semigroup snapshots at tiny amplitude: the defect is quadratically small
    a = random_field(op16.grid, ncomp=2, seed=9, solenoidal=True, amplitude=1e-8)
    times = np.arange(6) * 0.01
    snaps = [op16.semigroup_apply(t, a) for t in times]
    traj = Trajectory(times, snaps)
    cfg = SolverConfig(dt=0.01, T=0.05)
    res = mild_residual(traj)
    # the defect is quadratic in the amplitude: ~1e-10 relative at 1e-8
    assert res.max() <= 1e-9 * a.norm2()


def test_mild_residual_detects_corruption(op16):
    cfg = SolverConfig(dt=0.01, T=0.05)
    a = random_field(op16.grid, ncomp=2, seed=10, solenoidal=True, amplitude=0.05)
    traj = reference_solve(a, cfg)
    clean = mild_residual(traj)
    k = 3
    snaps = list(traj.snapshots)
    snaps[k] = SpectralField(np.zeros_like(snaps[k].coeffs), op16.grid)
    bad = mild_residual(Trajectory(traj.times, snaps))
    assert bad[k] > 100 * max(clean[k], 1e-30)


def test_mixed_norm_positive_homogeneous(op16):
    v = random_field(op16.grid, ncomp=2, seed=11)
    assert mixed_norm(SpectralField(3.0 * v.coeffs, op16.grid), 4.0) == pytest.approx(
        3.0 * mixed_norm(v, 4.0), rel=1e-12
    )
    assert grad_mixed_norm(v, 4.0) > 0


def test_smooth_full_solve_forms_each_nonlinearity_once(monkeypatch):
    # delta = 0 leaves no rough part, so the residual reuses the reference F
    cfg = SolverConfig(N=8, K=8, dt=0.01, T=0.05, delta=0.0)
    a = random_field(cfg.grid(), ncomp=2, seed=4, solenoidal=True, amplitude=0.05)
    calls = []
    real_advection = hydrostokes.solver.advection

    def counted(*args, **kwargs):
        calls.append(1)
        return real_advection(*args, **kwargs)

    monkeypatch.setattr(hydrostokes.solver, "advection", counted)
    traj = full_solve(a, cfg)
    assert len(calls) == len(traj.times)
    assert np.array_equal(traj.diagnostics["residual"], mild_residual(traj))
