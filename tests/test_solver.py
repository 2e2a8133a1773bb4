"""Data splitting, reference integrator, Picard iteration, full solve."""

import numpy as np
import pytest

import hydrostokes.fields
import hydrostokes.solver
from hydrostokes.basis import Grid
from hydrostokes.fields import SpectralField, inverse_transform
from hydrostokes.sampling import random_field, single_mode_field
from hydrostokes.semigroup import StokesOperator
from hydrostokes.solver import (
    IterationReport,
    SolverConfig,
    SolverDivergenceError,
    Trajectory,
    _duhamel,
    _node_norms,
    _shrink_delta,
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
        dict(max_picard=0),
        dict(max_picard=-3),
        dict(dt=1.0, T=1e300),
        dict(delta=np.inf),  # e^{-inf |xi|^2} at xi = 0 would be NaN
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


@pytest.mark.parametrize("delta,eps0", [(2.0**62, 0.0), (1.0, None)])
def test_shrink_delta_returns_the_delta_of_its_split(delta, eps0):
    # (2^62, 0): all 60 smoothing times leave a rough part above eps0 = 0, and
    # the split returned is the last one tried, at 2^62 / 2^59 = 8; (1, None):
    # the halving stops at the first delta whose rough part is small enough
    cfg = SolverConfig(N=8, K=8, dt=0.005, T=0.01, delta=delta, eps0=eps0)
    a = random_field(
        cfg.grid(), seed=0, decay=2.0, rough_amplitude=1.0, solenoidal=True, amplitude=0.02
    )
    a_ref, a0, got = _shrink_delta(a, cfg)
    b_ref, b0 = split_data(a, got)
    assert np.array_equal(a_ref.coeffs, b_ref.coeffs)
    assert np.array_equal(a0.coeffs, b0.coeffs)
    if eps0 == 0.0:
        assert got == 8.0
    else:
        eps = 0.05 * mixed_norm(a, cfg.p)
        assert got < delta and mixed_norm(a0, cfg.p) <= eps
        assert mixed_norm(split_data(a, 2 * got)[1], cfg.p) > eps


# -- reference integrator -------------------------------------------------


def test_reference_solve_zero(op16):
    a = SpectralField.from_full(np.zeros((2, 16, 16, 16), complex), op16.grid)
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
    zero = SpectralField.from_full(np.zeros((2, 16, 16, 16), complex), op.grid)
    return Trajectory(np.asarray(times), [zero] * len(times))


def test_picard_zero_data_zero_reference(op16):
    cfg = SolverConfig(dt=0.01, T=0.05)
    a0 = SpectralField.from_full(np.zeros((2, 16, 16, 16), complex), op16.grid)
    vref = _zero_traj(op16, np.arange(6) * 0.01)
    traj, report = picard_iterate(a0, vref, cfg)
    assert report.converged
    assert all(np.abs(s.coeffs).max() == 0.0 for s in traj.snapshots)


def test_picard_zero_data_nonzero_reference(op16):
    # all coupling terms contain the iterate: a0 = 0 is a fixed point at once
    cfg = SolverConfig(dt=0.01, T=0.05)
    a0 = SpectralField.from_full(np.zeros((2, 16, 16, 16), complex), op16.grid)
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


def test_picard_rejects_non_uniform_reference(op16, monkeypatch):
    # the Duhamel recurrence assumes one step size; a non-uniform grid must
    # raise rather than give silently wrong sums
    cfg = SolverConfig(dt=0.01, T=0.05)
    a0 = random_field(op16.grid, ncomp=2, seed=12, solenoidal=True, amplitude=0.01)
    vref = _zero_traj(op16, [0.0, 0.01, 0.02, 0.035, 0.05])
    advected = []
    real_advection = hydrostokes.solver.advection

    def counted(*args, **kwargs):
        advected.append(1)
        return real_advection(*args, **kwargs)

    monkeypatch.setattr(hydrostokes.solver, "advection", counted)
    with pytest.raises(ValueError, match="uniformly spaced"):
        picard_iterate(a0, vref, cfg)
    # the first iterate is already a Duhamel recurrence: the check fires
    # before any product is formed
    assert advected == []


def test_picard_semigroup_applies_linear_in_nodes(monkeypatch):
    # one e^{dt A} apply per step, for the free part and for each iteration:
    # from-scratch Duhamel sums would make O(n^2) applies per iteration
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
    assert len(calls) == (m + 1) * (n - 1)
    # the whole iteration asks the operator for one exponential, e^{dt A}
    assert set(calls) == {cfg.dt}


def _small_rough_split(cfg, seed=13):
    """A reference solve on smooth data and a small rough remainder, on cfg's grid."""
    a = random_field(cfg.grid(), ncomp=2, seed=seed, solenoidal=True, amplitude=0.05)
    a_ref, _ = split_data(a, cfg.delta)
    a0 = random_field(cfg.grid(), ncomp=2, seed=seed + 1, solenoidal=True, amplitude=0.01)
    return a0, reference_solve(a_ref, cfg)


def test_picard_known_forcing_is_bitwise_equal():
    # F(v_ref) handed over from the reference solve, or formed afresh
    cfg = SolverConfig(N=8, K=8, dt=0.01, T=0.05, max_picard=4, picard_tol=0.0)
    a0, vref = _small_rough_split(cfg)
    F_ref = vref.diagnostics["F"]
    assert len(F_ref) == len(vref.times)
    given, report_given = picard_iterate(a0, vref, cfg, F_ref)
    afresh, report = picard_iterate(a0, vref, cfg)
    assert report_given.diff_S == report.diff_S
    for a, b in zip(given.snapshots, afresh.snapshots):
        assert np.array_equal(a.coeffs, b.coeffs)
    for a, b in zip(given.diagnostics["F"], afresh.diagnostics["F"]):
        assert np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("short", [True, False], ids=["short", "long"])
def test_picard_rejects_forcing_of_wrong_length(short):
    # F(v_ref) is a list over every node, or nothing
    cfg = SolverConfig(N=8, K=8, dt=0.01, T=0.05, max_picard=2, picard_tol=0.0)
    a0, vref = _small_rough_split(cfg)
    F_ref = vref.diagnostics["F"]
    F_ref = F_ref[:-1] if short else F_ref + F_ref[-1:]
    with pytest.raises(ValueError, match="forcing list"):
        picard_iterate(a0, vref, cfg, F_ref)
    with pytest.raises(ValueError, match="forcing list"):
        mild_residual(vref, F_ref)


def test_reference_solve_keeps_the_forcing_at_every_node():
    # the last node's F as well: no caller forms F(v_ref) again
    cfg = SolverConfig(N=8, K=8, dt=0.01, T=0.05)
    _, vref = _small_rough_split(cfg)
    F = vref.diagnostics["F"]
    assert len(F) == len(vref.times)
    last = hydrostokes.solver._forcings(vref.snapshots[-1:])[0]
    assert np.array_equal(F[-1].coeffs, last.coeffs)
    assert np.array_equal(mild_residual(vref, F), mild_residual(vref))


@pytest.mark.parametrize("given", [False, True], ids=["formed", "given"])
def test_picard_forms_one_product_per_node_per_iteration(monkeypatch, given):
    # F(v_ref) at every node unless it is given, then one product
    # F(v_ref + V) per node and iteration
    cfg = SolverConfig(N=8, K=8, dt=0.01, T=0.05, max_picard=3, picard_tol=0.0)
    a0, vref = _small_rough_split(cfg)
    F_ref = vref.diagnostics["F"] if given else None
    calls = []
    real_advection = hydrostokes.solver.advection

    def counted(*args, **kwargs):
        calls.append(len(args))
        return real_advection(*args, **kwargs)

    monkeypatch.setattr(hydrostokes.solver, "advection", counted)
    _, report = picard_iterate(a0, vref, cfg, F_ref)
    nodes = len(vref.times)
    assert report.iterations == 3
    assert len(calls) == report.iterations * nodes + (0 if given else nodes)
    # each is the self-product B(v, v) of one field
    assert set(calls) == {1}


def test_picard_takes_one_s_norm_per_iteration(monkeypatch):
    # the S(T)-norm of each difference, and of nothing else
    op = StokesOperator(Grid(8, 8, 1.0))
    calls = []
    s_norm = hydrostokes.solver._s_norm

    def counted(v_list, times, p):
        v_list = list(v_list)  # the differences may come as a generator
        calls.append(len(v_list))
        return s_norm(v_list, times, p)

    monkeypatch.setattr(hydrostokes.solver, "_s_norm", counted)
    n = 6
    cfg = SolverConfig(N=8, K=8, dt=0.01, T=0.05, max_picard=3, picard_tol=0.0)
    a0 = random_field(op.grid, ncomp=2, seed=13, solenoidal=True, amplitude=0.01)
    vref = Trajectory(np.arange(n) * 0.01, [SpectralField.zeros(op.grid)] * n)
    _, report = picard_iterate(a0, vref, cfg)
    assert report.iterations == 3
    assert calls == [n] * report.iterations


def test_iteration_report_derives_count_and_ratios():
    report = IterationReport(diff_S=[1.0, 0.5, 0.0, 0.0])
    assert report.iterations == 4
    # a zero difference is no denominator: 0.0 / 0.0 is skipped
    assert report.ratios == [0.5, 0.0]
    smooth = IterationReport(converged=True)
    assert smooth.iterations == 0 and smooth.ratios == []


def test_picard_divergence_raises(op16):
    cfg = SolverConfig(dt=0.02, T=0.4, max_picard=6)
    a0 = random_field(op16.grid, ncomp=2, seed=1, solenoidal=True, amplitude=50.0)
    vref = _zero_traj(op16, np.arange(21) * 0.02)
    with pytest.raises(SolverDivergenceError):
        picard_iterate(a0, vref, cfg)


# -- full solve and residual ----------------------------------------------


def test_full_solve_raises_when_picard_stops_at_its_cap(op16):
    # one iteration cannot reach the tolerance: stopping there is a failure
    cfg = SolverConfig(dt=0.005, T=0.02, max_picard=1)
    a = random_field(
        op16.grid, ncomp=2, seed=8, solenoidal=True, amplitude=0.02, rough_amplitude=0.005
    )
    with pytest.raises(SolverDivergenceError, match="cap") as err:
        full_solve(a, cfg)
    report = err.value.report
    assert report.iterations == 1 and not report.converged
    assert report.diff_S[-1] >= cfg.picard_tol


def test_full_solve_reports_step_size_number(op16):
    cfg = SolverConfig(dt=0.005, T=0.02)
    a = random_field(op16.grid, ncomp=2, seed=7, solenoidal=True, amplitude=0.01)
    traj = full_solve(a, cfg)
    max_u = np.sqrt(np.sum(inverse_transform(a).values ** 2, axis=0)).max()
    assert traj.diagnostics["step_number"] == pytest.approx(cfg.dt * max_u * np.pi * 16, rel=1e-14)


@pytest.mark.parametrize("stage", ["reference_solve", "picard_iterate"])
def test_full_solve_divergence_names_step_size_number(op16, monkeypatch, stage):
    # a blow-up of the reference solve or a diverging Picard iteration is
    # passed on with the step-size number appended and the report kept
    report = IterationReport()

    def diverge(*args):
        raise SolverDivergenceError("blew up", report=report)

    monkeypatch.setattr(hydrostokes.solver, stage, diverge)
    a = random_field(
        op16.grid, ncomp=2, seed=8, solenoidal=True, amplitude=0.02, rough_amplitude=0.005
    )
    with pytest.raises(SolverDivergenceError, match=r"^blew up \(step-size number") as err:
        full_solve(a, SolverConfig(dt=0.005, T=0.02))
    assert err.value.report is report


def test_full_solve_zero(op16):
    cfg = SolverConfig(dt=0.01, T=0.05)
    a = SpectralField.from_full(np.zeros((2, 16, 16, 16), complex), op16.grid)
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


def test_duhamel_reads_the_forcing_in_node_order(op16):
    # a generator gives the list's sums bit for bit, and S_n is yielded
    # once F has been read up to node n, no further
    n, dt = 5, 0.0125
    times = dt * np.arange(n)
    a = random_field(op16.grid, ncomp=2, seed=14, solenoidal=True)
    F = [random_field(op16.grid, ncomp=2, seed=20 + j, solenoidal=True) for j in range(n)]
    read = []

    def stream():
        for j, f in enumerate(F):
            read.append(j)
            yield f

    for k, (s, t) in enumerate(zip(_duhamel(a, stream(), times), _duhamel(a, F, times))):
        assert np.array_equal(s.coeffs, t.coeffs)
        assert read == list(range(k + 1)) if k else read == []
    assert read == list(range(n))


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


def test_node_norms_equal_mixed_norms(op16):
    vs = [random_field(op16.grid, ncomp=2, seed=s) for s in (14, 15, 16)]
    times = [0.0, 0.01, 0.02]
    want = [
        (mixed_norm(v, 4.0), np.sqrt(t) * grad_mixed_norm(v, 4.0) if t > 0 else 0.0)
        for v, t in zip(vs, times)
    ]
    assert _node_norms(vs, times, 4.0) == want


def test_node_norms_transform_passes_per_node(monkeypatch):
    # t > 0: the row passes of v and dx v, and the column passes of v (for v
    # and dz v), dx v and dy v; t = 0: one row and one column pass for v
    calls = []
    for name in ("_row_pass", "_column_pass"):

        def counted(*args, name=name, run=getattr(hydrostokes.fields, name)):
            calls.append(name)
            return run(*args)

        monkeypatch.setattr(hydrostokes.fields, name, counted)
    grid = Grid(8, 8, 1.0)
    vs = [random_field(grid, ncomp=2, seed=s) for s in (17, 18, 19)]
    _node_norms(vs[:1], [0.0], 4.0)
    assert sorted(calls) == ["_column_pass", "_row_pass"]
    calls.clear()
    _node_norms(vs, [0.0, 0.01, 0.02], 4.0)
    assert calls.count("_row_pass") == 1 + 2 + 2
    assert calls.count("_column_pass") == 1 + 3 + 3


def test_smooth_full_solve_is_first_order_in_time():
    # exponential Euler: halving dt halves the difference between the final
    # snapshots of successive step sizes
    grid = Grid(8, 8, 1.0)
    a = random_field(grid, ncomp=2, seed=4, solenoidal=True, amplitude=0.05)
    finals = [
        full_solve(a, SolverConfig(N=8, K=8, dt=dt, T=0.05, delta=0.0)).snapshots[-1].coeffs
        for dt in (0.01, 0.005, 0.0025, 0.00125)
    ]
    diffs = [SpectralField(b - c, grid).norm2() for b, c in zip(finals, finals[1:])]
    orders = np.log2(np.array(diffs[:-1]) / np.array(diffs[1:]))
    assert np.all((0.9 <= orders) & (orders <= 1.3)), orders


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


def test_rough_full_solve_forms_each_nonlinearity_once(monkeypatch):
    # the reference solve's F(v_ref), then the totals F(v_ref + V_m) of
    # each Picard iteration, the last of which the residual reuses; the
    # rough benchmark's data and time grid, at 8^3
    cfg = SolverConfig(N=8, K=8, dt=0.0025, T=0.05)
    a = random_field(
        cfg.grid(), seed=3, decay=2.0, rough_amplitude=1.0, solenoidal=True, amplitude=0.02
    )
    calls = []
    real_advection = hydrostokes.solver.advection

    def counted(*args, **kwargs):
        calls.append(1)
        return real_advection(*args, **kwargs)

    monkeypatch.setattr(hydrostokes.solver, "advection", counted)
    traj = full_solve(a, cfg)
    m, nodes = traj.diagnostics["picard"].iterations, len(traj.times)
    assert m >= 2
    assert len(calls) == (m + 1) * nodes
    assert "F" not in traj.diagnostics
    # against F(v_ref + V_{m+1}) formed from the snapshots: a Picard lag
    # below the tolerance
    afresh = mild_residual(traj)
    res = traj.diagnostics["residual"]
    assert np.abs(res - afresh).max() <= 1e-10 * afresh.max()
