"""Data splitting, reference integrator, Picard iteration, full solve."""

import tracemalloc
import weakref

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

from oracles import with_forcing


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


@pytest.mark.parametrize("delta,eps0,norms", [(0.0, None, 0), (1.0, 1e9, 1)])
def test_shrink_delta_measures_only_what_it_reads(monkeypatch, delta, eps0, norms):
    # delta = 0 leaves a rough part that is zero by construction, and a given
    # eps0 needs no norm of the data: only a0 at delta = 1 is measured
    cfg = SolverConfig(N=8, K=8, dt=0.005, T=0.01, delta=delta, eps0=eps0)
    a = random_field(cfg.grid(), seed=0, decay=2.0, rough_amplitude=1.0, solenoidal=True)
    measured = []

    def counted(f, p):
        measured.append(f)
        return mixed_norm(f, p)

    monkeypatch.setattr(hydrostokes.solver, "mixed_norm", counted)
    a_ref, a0, got = _shrink_delta(a, cfg)
    assert got == delta and len(measured) == norms
    b_ref, b0 = split_data(a, delta)
    assert np.array_equal(a_ref.coeffs, b_ref.coeffs)
    assert np.array_equal(a0.coeffs, b0.coeffs)


# -- reference integrator -------------------------------------------------


def test_reference_solve_zero(op16):
    a = SpectralField.from_full(np.zeros((2, 16, 16, 16), complex), op16.grid)
    cfg = SolverConfig(dt=0.01, T=0.05)
    ref = reference_solve(a, cfg)
    assert len(ref) == 6
    assert all(np.abs(v.coeffs).max() == 0.0 == np.abs(f.coeffs).max() for v, f in ref)


def test_reference_solve_linear_regime(op16):
    # tiny amplitude: the nonlinearity is quadratically negligible and the
    # trajectory reduces to the semigroup
    a = random_field(op16.grid, ncomp=2, seed=2, solenoidal=True, amplitude=1e-10)
    cfg = SolverConfig(dt=0.005, T=0.05)
    end, _ = reference_solve(a, cfg)[-1]
    ref = op16.semigroup_apply(0.05, a)
    err = np.abs(end.coeffs - ref.coeffs).max()
    assert err <= 1e-12 * np.abs(ref.coeffs).max()


def test_reference_solve_self_convergence(op16):
    a = random_field(op16.grid, ncomp=2, seed=3, solenoidal=True, amplitude=0.5, decay=3.0)
    cfg = SolverConfig(dt=0.02, T=0.08)
    end = {}
    for dt in (0.02, 0.01, 0.005):
        c = SolverConfig(dt=dt, T=0.08)
        end[dt] = reference_solve(a, c)[-1][0].coeffs
    e1 = np.abs(end[0.02] - end[0.005]).max()
    e2 = np.abs(end[0.01] - end[0.005]).max()
    order = np.log2(e1 / e2) - 0.0
    assert order >= 1.0  # exponential Euler is at least first order


def test_trajectory_times_strictly_increasing(op16):
    a = random_field(op16.grid, ncomp=2, seed=2, solenoidal=True, amplitude=0.01)
    cfg = SolverConfig(dt=0.01, T=0.05)
    traj = full_solve(a, cfg)
    assert np.all(np.diff(traj.times) > 0)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0, 0.1]), traj.snapshots[:3])


# -- Picard iteration -----------------------------------------------------


def _zero_ref(grid, n):
    """The pairs (v_ref, F(v_ref)) of a zero reference solve over n nodes."""
    zero = SpectralField.zeros(grid)
    return [(zero, zero)] * n


def test_picard_zero_data_zero_reference(op16):
    cfg = SolverConfig(dt=0.01, T=0.05)
    a0 = SpectralField.from_full(np.zeros((2, 16, 16, 16), complex), op16.grid)
    V, report = picard_iterate(a0, _zero_ref(op16.grid, 6), cfg)
    assert report.converged
    assert len(V) == 6 and all(np.abs(s.coeffs).max() == 0.0 for s in V)


def test_picard_zero_data_nonzero_reference(op16):
    # all coupling terms contain the iterate: a0 = 0 is a fixed point at once
    cfg = SolverConfig(dt=0.01, T=0.05)
    a0 = SpectralField.from_full(np.zeros((2, 16, 16, 16), complex), op16.grid)
    avr = random_field(op16.grid, ncomp=2, seed=5, solenoidal=True, amplitude=0.1)
    ref = reference_solve(avr, cfg)
    V, report = picard_iterate(a0, ref, cfg)
    assert report.converged
    assert report.iterations <= 2
    assert all(np.abs(s.coeffs).max() == 0.0 for s in V)


def test_picard_contraction_small_data(op16):
    cfg = SolverConfig(dt=0.005, T=0.1)
    a = random_field(op16.grid, ncomp=2, seed=6, solenoidal=True)
    a_ref, a0 = split_data(a, cfg.delta)
    scale = 0.01 / mixed_norm(a0, cfg.p)
    a0 = SpectralField(a0.coeffs * scale, op16.grid)
    a_ref = SpectralField(a_ref.coeffs * scale, op16.grid)
    ref = reference_solve(a_ref, cfg)
    _, report = picard_iterate(a0, ref, cfg)
    assert report.converged
    assert all(r <= 0.5 for r in report.ratios[1:])


@pytest.mark.parametrize("pairs", [5, 7])
def test_picard_and_residual_run_over_the_given_pairs(pairs):
    # the reference pairs alone set the node count, whatever T/dt says: a
    # 6-node config given 5 or 7 pairs gives 5 or 7 nodes back
    cfg = SolverConfig(N=8, K=8, dt=0.01, T=0.05)
    a0, ref = _small_rough_split(SolverConfig(N=8, K=8, dt=0.01, T=0.01 * (pairs - 1)))
    assert len(ref) == pairs
    V, report = picard_iterate(a0, ref, cfg)
    assert report.converged and len(V) == pairs
    residual = mild_residual(ref, cfg.dt)
    assert len(residual) == pairs
    # each defect reads its nodes up to its own: the common nodes agree bit for bit
    six = mild_residual(reference_solve(ref[0][0], cfg), cfg.dt)
    assert np.array_equal(residual[:5], six[:5])


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
    _, report = picard_iterate(a0, _zero_ref(op.grid, n), cfg)
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


def test_reference_solve_keeps_the_forcing_at_every_node():
    # the last node's F as well: no caller forms F(v_ref) again
    cfg = SolverConfig(N=8, K=8, dt=0.01, T=0.05)
    _, ref = _small_rough_split(cfg)
    assert len(ref) == 6
    for (_, F), (_, afresh) in zip(ref, with_forcing(v for v, _ in ref)):
        assert np.array_equal(F.coeffs, afresh.coeffs)


@pytest.mark.parametrize("given", [True], ids=["given"])  # F(v_ref) comes with the pairs
def test_picard_forms_one_product_per_node_per_iteration(monkeypatch, given):
    # F(v_ref) comes with the reference pairs: F(v_ref(0) + a_0) once,
    # then one product F(v_ref + V) per node past t = 0 and iteration
    cfg = SolverConfig(N=8, K=8, dt=0.01, T=0.05, max_picard=3, picard_tol=0.0)
    a0, ref = _small_rough_split(cfg)
    calls = []
    real_advection = hydrostokes.solver.advection

    def counted(*args, **kwargs):
        calls.append(len(args))
        return real_advection(*args, **kwargs)

    monkeypatch.setattr(hydrostokes.solver, "advection", counted)
    _, report = picard_iterate(a0, ref, cfg)
    nodes = len(ref)
    assert report.iterations == 3
    assert len(calls) == 1 + report.iterations * (nodes - 1)
    # each is the self-product B(v, v) of one field
    assert set(calls) == {1}


def test_picard_holds_a_few_totals_at_once(monkeypatch):
    # each iteration streams its totals F(v_ref + V_m) into the Duhamel
    # recurrence: alive are F(v_ref(0) + a_0), the total last read and the
    # one being formed, not one per node
    cfg = SolverConfig(N=8, K=8, dt=0.01, T=0.1, max_picard=2, picard_tol=0.0)
    a0, ref = _small_rough_split(cfg)
    totals, alive = [], []
    real_forcing = hydrostokes.solver._forcing

    def tracked(f):
        out = real_forcing(f)
        totals.append(weakref.ref(out))
        alive.append(sum(r() is not None for r in totals))
        return out

    monkeypatch.setattr(hydrostokes.solver, "_forcing", tracked)
    _, report = picard_iterate(a0, ref, cfg)
    assert report.iterations == 2 and len(totals) == 1 + 2 * (len(ref) - 1)
    assert max(alive) <= 3, alive


def test_picard_takes_one_s_norm_per_iteration(monkeypatch):
    # the S(T)-norm of each difference, and of nothing else; every
    # difference is exactly 0 at t = 0, so it is taken over the n - 1 later nodes
    op = StokesOperator(Grid(8, 8, 1.0))
    calls = []
    s_norm = hydrostokes.solver._s_norm

    def counted(diffs, dt, p):
        diffs = list(diffs)  # the differences may come as a generator
        calls.append(len(diffs))
        return s_norm(diffs, dt, p)

    monkeypatch.setattr(hydrostokes.solver, "_s_norm", counted)
    n = 6
    cfg = SolverConfig(N=8, K=8, dt=0.01, T=0.05, max_picard=3, picard_tol=0.0)
    a0 = random_field(op.grid, ncomp=2, seed=13, solenoidal=True, amplitude=0.01)
    _, report = picard_iterate(a0, _zero_ref(op.grid, n), cfg)
    assert report.iterations == 3
    assert calls == [n - 1] * report.iterations


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
    with pytest.raises(SolverDivergenceError):
        picard_iterate(a0, _zero_ref(op16.grid, 21), cfg)


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
    end, _ = reference_solve(a, cfg)[-1]
    err = np.abs(traj.snapshots[-1].coeffs - end.coeffs).max()
    assert err <= 1e-12 * np.abs(end.coeffs).max()


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


@pytest.mark.parametrize("branch", ["smooth", "rough"])
def test_full_solve_holds_only_the_due_snapshots(branch):
    # the held snapshots and every diagnostic are the same nodes, bit for
    # bit, whatever the interval; the slots in between are None
    grid = Grid(8, 8, 1.0)
    if branch == "smooth":
        a, delta = random_field(grid, ncomp=2, seed=4, solenoidal=True, amplitude=0.05), 0.0
    else:
        a = random_field(
            grid, seed=3, decay=2.0, rough_amplitude=1.0, solenoidal=True, amplitude=0.02
        )
        delta = 0.01
    every_node, thinned = (
        full_solve(a, SolverConfig(N=8, K=8, dt=0.0025, T=0.02, delta=delta, snapshot_every=k))
        for k in (1, 3)
    )
    assert (thinned.diagnostics["picard"].iterations >= 2) == (branch == "rough")
    assert np.array_equal(thinned.times, every_node.times) and len(thinned.times) == 9
    assert all(s is not None for s in every_node.snapshots)
    held = [n for n, s in enumerate(thinned.snapshots) if s is not None]
    assert held == [0, 3, 6, 8]
    for n in held:
        assert np.array_equal(thinned.snapshots[n].coeffs, every_node.snapshots[n].coeffs)
    for key in ("energy", "sol_drift", "norm_inf_p", "t_sqrt_grad_norm", "residual"):
        assert np.array_equal(thinned.diagnostics[key], every_node.diagnostics[key]), key
    assert thinned.diagnostics["picard"].diff_S == every_node.diagnostics["picard"].diff_S


def test_smooth_full_solve_memory_does_not_grow_with_the_horizon():
    # one snapshot per end, so what a longer smooth solve holds more is
    # one row of diagnostics per node: its traced peak stays put
    a = random_field(Grid(16, 16, 1.0), ncomp=2, seed=3, solenoidal=True, amplitude=0.05)
    peaks = []
    for steps in (10, 40):
        cfg = SolverConfig(dt=0.005, T=0.005 * steps, delta=0.0, snapshot_every=steps)
        full_solve(a, cfg)  # the grid's tables and exponential blocks, built once
        tracemalloc.start()
        try:
            full_solve(a, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_smooth_full_solve_blow_up_names_step_size_number():
    # the smooth branch steps as its diagnostics are formed: a blow-up there
    # is still passed on with the step-size number appended
    cfg = SolverConfig(N=8, K=8, dt=0.01, T=0.2, delta=0.0)
    a = random_field(cfg.grid(), ncomp=2, seed=4, solenoidal=True, amplitude=50.0)
    with pytest.raises(SolverDivergenceError, match=r"^reference solve blew up.*step-size number"):
        full_solve(a, cfg)


def test_full_solve_rejects_data_on_another_grid():
    # same N and K, other depth: the config's operator would not be the data's
    a = random_field(Grid(16, 16, 0.5), ncomp=2, seed=7, solenoidal=True, amplitude=0.01)
    with pytest.raises(ValueError, match="config"):
        full_solve(a, SolverConfig(dt=0.01, T=0.05))


def test_duhamel_reads_the_forcing_in_node_order(op16):
    # a generator gives the list's sums bit for bit, and F_n is read just
    # before S_n is yielded: F up to node n, no further
    n, dt = 5, 0.0125
    a = random_field(op16.grid, ncomp=2, seed=14, solenoidal=True)
    F = [random_field(op16.grid, ncomp=2, seed=20 + j, solenoidal=True) for j in range(n)]
    read = []

    def stream():
        for j, f in enumerate(F):
            read.append(j)
            yield f

    for k, (s, t) in enumerate(zip(_duhamel(a, stream(), dt), _duhamel(a, F, dt))):
        assert np.array_equal(s.coeffs, t.coeffs)
        assert read == list(range(k + 1))
    assert read == list(range(n))


@pytest.mark.parametrize("k", [0, 1, 2, 7])
def test_duhamel_yields_one_sum_per_forcing_entry(k):
    # the forcing stream alone sets the number of sums: S_0 = a, then one per further entry
    grid = Grid(8, 8, 1.0)
    a = random_field(grid, ncomp=2, seed=14, solenoidal=True)
    F = [random_field(grid, ncomp=2, seed=20 + j, solenoidal=True) for j in range(k)]
    sums = list(_duhamel(a, iter(F), 0.01))
    assert len(sums) == k
    assert all(np.array_equal(s.coeffs, a.coeffs) for s in sums[:1])


def test_duhamel_recurrence_matches_direct_sum(op16):
    # oracle: the trapezoid sum written out, each term its own semigroup apply
    n, dt = 9, 0.0125
    times = dt * np.arange(n)
    a = random_field(op16.grid, ncomp=2, seed=14, solenoidal=True)
    F = [random_field(op16.grid, ncomp=2, seed=20 + j, solenoidal=True) for j in range(n)]
    sums = list(_duhamel(a, F, dt))
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
    res = mild_residual(with_forcing(snaps), 0.01)
    # the defect is quadratic in the amplitude: ~1e-10 relative at 1e-8
    assert res.max() <= 1e-9 * a.norm2()


def test_mild_residual_detects_corruption(op16):
    cfg = SolverConfig(dt=0.01, T=0.05)
    a = random_field(op16.grid, ncomp=2, seed=10, solenoidal=True, amplitude=0.05)
    ref = reference_solve(a, cfg)
    clean = mild_residual(ref, cfg.dt)
    k = 3
    snaps = [v for v, _ in ref]
    snaps[k] = SpectralField(np.zeros_like(snaps[k].coeffs), op16.grid)
    bad = mild_residual(with_forcing(snaps), cfg.dt)
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
    assert [_node_norms(v, t, 4.0) for v, t in zip(vs, times)] == want


def test_node_norms_transient_memory():
    # the column norms are gathered slab by slab: what one node's norms
    # hold whole is the two row passes and the (N, N) column norms
    v = random_field(Grid(32, 32, 1.0), ncomp=2, seed=14, solenoidal=True)
    _node_norms(v, 0.1, 4.0)  # the grid's tables, outside the measurement
    tracemalloc.start()
    try:
        _node_norms(v, 0.1, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


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
    _node_norms(vs[0], 0.0, 4.0)
    assert sorted(calls) == ["_column_pass", "_row_pass"]
    calls.clear()
    for v, t in zip(vs, [0.0, 0.01, 0.02]):
        _node_norms(v, t, 4.0)
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
    residual = mild_residual(with_forcing(traj.snapshots), cfg.dt)
    assert np.array_equal(traj.diagnostics["residual"], residual)


def test_rough_full_solve_forms_each_nonlinearity_once(monkeypatch):
    # the reference solve's F(v_ref), which the residual reuses, then the
    # totals F(v_ref + V_m) of each Picard iteration; the total at t = 0 is
    # F(v_ref(0) + a_0) in every iteration and is formed once; the rough
    # benchmark's data and time grid, at 8^3
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
    assert len(calls) == nodes + 1 + m * (nodes - 1)
    assert "F" not in traj.diagnostics
    # against F(v_ref + V_{m+1}) formed from the snapshots: a Picard lag
    # below the tolerance
    afresh = mild_residual(with_forcing(traj.snapshots), cfg.dt)
    res = traj.diagnostics["residual"]
    assert np.abs(res - afresh).max() <= 1e-10 * afresh.max()
    # by linearity of the Duhamel sums it is v_ref's own defect, bit for bit
    a_ref, _, _ = _shrink_delta(a, cfg)
    assert np.array_equal(res, mild_residual(reference_solve(a_ref, cfg), cfg.dt))
