"""Mild-solution machinery: data splitting, reference solve, Picard iteration.

Rough initial data a is split as a = a_ref + a_0 with a_ref = e^{delta A} a
smooth and a_0 small.  The reference part is advanced by an exponential-Euler
integrator whose nodes travel as pairs (v_n, F(v_n)); the remainder
V = v - v_ref is constructed by Picard iteration on the Duhamel integral
with forcing F(v_ref + V) - F(v_ref), starting from e^{tA} a_0, applying
only e^{dt A} and streaming each iteration's totals F(v_ref + V) into the
recurrence.  The iteration is monitored through the S(T)-norm
max(sup ||D||, sup t^{1/2} ||grad D||) of each difference D = V_{m+1} - V_m,
with mixed L^inf_H L^p_z norms; :class:`IterationReport` keeps those norms
and nothing else.  Every nonlinear term is dealiased (2/3 rule) and every
forcing and reference step is re-projected.  :class:`SolverConfig` is the
one source of parameters: the grid, the step dt and horizon T, the split
and Picard settings and the snapshot interval.  Each function takes the
Stokes operator from the grid of the field it is given (``Grid.stokes``).
The step dt is the time grid, t_n = n dt: the reference solve yields T/dt + 1
nodes, and every Duhamel sum, defect and S(T)-norm runs as long as its stream.

:func:`full_solve` is the reference solve plus V, and its residual is
v_ref's own defect on both branches: the Duhamel sums are linear, so the
defect of v_ref + V_{m+1} against F(v_ref + V_m) is v_ref's against
F(v_ref).  With no rough part it steps v = v_ref one node at a time, so its
memory does not grow with the horizon; the Picard branch holds v_ref,
F(v_ref) and V over every node.
"""

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .basis import Grid
from .fields import NodeValues, SpectralField
from .nonlinear import advection
from .projection import check_solenoidal, project_hydrostatic

# Most time steps round(T/dt) a solve may take.  The Picard branch holds
# every node's fields; at 16^3 (74 kB each, half a spectrum) this many
# snapshots alone already take 7.4 GB.
MAX_TIME_STEPS = 100_000

# The per-node columns of Trajectory.diagnostics, in the order simulate writes them
DIAGNOSTICS = ("energy", "sol_drift", "norm_inf_p", "t_sqrt_grad_norm", "residual")


class SolverDivergenceError(RuntimeError):
    """Blow-up guard tripped, or Picard iteration diverged or stopped at its cap unconverged."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass
class SolverConfig:
    N: int = 16
    K: int = 16
    h: float = 1.0
    p: float = 4.0
    dt: float = 0.005
    T: float = 0.1
    delta: float = 0.01
    eps0: float | None = None  # rough-part threshold; default 0.05 * ||a||
    max_picard: int = 20
    picard_tol: float = 1e-10
    snapshot_every: int = 1

    def __post_init__(self):
        self.grid()  # raises ValueError on an invalid grid
        if not self.p > 3:
            raise ValueError(f"norm exponent p must be > 3, got {self.p}")
        if not 0 < self.dt <= self.T:
            raise ValueError(f"need 0 < dt <= T, got dt={self.dt}, T={self.T}")
        # the time nodes are the multiples of dt, and the last one must be T
        steps = self.T / self.dt
        if not np.isfinite(steps) or abs(round(steps) * self.dt - self.T) > 1e-9 * self.T:
            raise ValueError(f"T must be a finite multiple of dt, got dt={self.dt}, T={self.T}")
        if round(steps) > MAX_TIME_STEPS:
            raise ValueError(f"T/dt = {round(steps)} steps exceeds the limit of {MAX_TIME_STEPS}")
        # comparisons written so that NaN fails them
        if not 0 <= self.delta < np.inf:
            raise ValueError(f"smoothing time must be finite and >= 0, got {self.delta}")
        if self.eps0 is not None and not self.eps0 >= 0:
            raise ValueError(f"rough-part threshold must be >= 0, got {self.eps0}")
        if self.max_picard < 1:
            raise ValueError(f"Picard iteration cap must be >= 1, got {self.max_picard}")
        if not self.picard_tol >= 0:
            raise ValueError(f"Picard tolerance must be >= 0, got {self.picard_tol}")
        if self.snapshot_every < 1:
            raise ValueError(f"snapshot interval must be >= 1, got {self.snapshot_every}")

    def grid(self) -> Grid:
        return Grid(self.N, self.K, self.h)


@dataclass
class Trajectory:
    times: np.ndarray
    snapshots: list  # per node: a SpectralField, or None where full_solve keeps none
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("trajectory time nodes must be strictly increasing")


@dataclass
class IterationReport:
    """The S(T)-norm ||V_{m+1} - V_m||_{S(T)} of each Picard difference, in order.

    The iteration count and the contraction ratios are read off ``diff_S``:
    a report with no differences (the smooth branch of :func:`full_solve`)
    has made 0 iterations.
    """

    diff_S: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.diff_S)

    @property
    def ratios(self) -> list:
        """Contraction factors diff_S[m+1] / diff_S[m], skipping a zero denominator."""
        return [b / a for a, b in zip(self.diff_S, self.diff_S[1:]) if a > 0]


def mixed_norm(v: SpectralField, p: float) -> float:
    """||v||_{L^inf_H L^p_z} from node values."""
    return NodeValues(v).norm("u", np.inf, p)


def grad_mixed_norm(v: SpectralField, p: float) -> float:
    """||grad v||_{L^inf_H L^p_z}, the magnitude of all six first derivatives."""
    return NodeValues(v).norm("grad", np.inf, p)


def _node_norms(v, t, p):
    """(||v||, t^{1/2} ||grad v||) of one node, from one sweep over the slabs
    of one NodeValues; the second is 0 at t = 0."""
    nodes = NodeValues(v)
    if not t > 0:
        return nodes.norm("u", np.inf, p), 0.0
    norm, grad = nodes.norms(("u", "grad"), np.inf, p)
    return norm, np.sqrt(t) * grad


def _s_norm(diffs, dt, p):
    """S(T)-norm max(sup ||v||, sup t^{1/2} ||grad v||) of a discrete trajectory
    on the nodes t_n = n dt, n >= 1.

    ``diffs`` may be a generator: it is read once, in node order.
    """
    s = 0.0
    for n, v in enumerate(diffs, 1):
        s = max(s, *_node_norms(v, n * dt, p))
    return s


def split_data(a: SpectralField, delta: float):
    """a = a_ref + a_0 with a_ref = e^{delta A} a in the operator's domain."""
    a_ref = a.grid.stokes.semigroup_apply(delta, a)
    a0 = SpectralField(a.coeffs - a_ref.coeffs, a.grid)
    return a_ref, a0


def _forcing(f: SpectralField) -> SpectralField:
    """-P f, the forcing that the transport term f contributes to the mild equation."""
    return project_hydrostatic(SpectralField(-f.coeffs, f.grid))


def _duhamel(a: SpectralField, F, dt):
    """Trapezoidal Duhamel sums S_n = e^{t_n A} a + int_0^{t_n} e^{(t_n-s)A} F(s) ds.

    F holds one entry per node t_n = n dt, read in node order; yields S_0 = a,
    then one sum S_n for each further entry, reading F_n just before it
    yields S_n.  The trapezoid weights obey the recurrence

        G_0 = a,  G_n = e^{dt A}(G_{n-1} + w_{n-1} F_{n-1}),  S_n = G_n + (dt/2) F_n

    with w_0 = dt/2 and w_j = dt for j >= 1, so all n sums together cost one
    semigroup apply per node.
    """
    grid, G, w, F = a.grid, a.coeffs, 0.5 * dt, iter(F)
    prev = next(F, None)
    if prev is not None:
        yield a.copy()
    for f in F:
        G = grid.stokes.semigroup_apply(dt, SpectralField(G + w * prev.coeffs, grid)).coeffs
        w, prev = dt, f
        yield SpectralField(G + 0.5 * dt * f.coeffs, grid)


def _time_nodes(config: SolverConfig) -> np.ndarray:
    """The multiples of ``config.dt`` up to ``config.T``."""
    return config.dt * np.arange(int(round(config.T / config.dt)) + 1)


def _reference_nodes(a_ref: SpectralField, config: SolverConfig):
    """Exponential-Euler integration v_{n+1} = P(e^{dtA} v_n + dt phi1(dtA) F(v_n))
    from a_ref, with F(v) = -P (u . grad) v: the pairs (v_n, F(v_n)) on
    :func:`_time_nodes`, node by node.

    Raises SolverDivergenceError, when it reaches the node, once ||v_n|| is
    non-finite or above 1e6 ||a_ref||.
    """
    dt, op = config.dt, a_ref.grid.stokes
    v = a_ref.copy()
    e0 = v.norm2()
    guard = max(e0, 1e-300) * 1e6
    F = _forcing(advection(v))
    yield v, F
    for _ in _time_nodes(config)[1:]:
        v = project_hydrostatic(SpectralField(
            op.semigroup_apply(dt, v).coeffs + dt * op.phi1_apply(dt, F).coeffs, op.grid
        ))
        e = v.norm2()
        if not np.isfinite(e) or e > guard:
            raise SolverDivergenceError(
                f"reference solve blew up: ||v|| = {e:.3e} vs initial {e0:.3e}"
            )
        F = _forcing(advection(v))
        yield v, F


def reference_solve(a_ref: SpectralField, config: SolverConfig) -> list:
    """Every pair (v_n, F(v_n)) of :func:`_reference_nodes`, the last one included."""
    return list(_reference_nodes(a_ref, config))


def picard_iterate(a0: SpectralField, ref: list, config: SolverConfig):
    """Duhamel fixed-point iteration for the rough remainder V.

    V_{m+1}(t) = e^{tA} a_0 + int_0^t e^{(t-s)A} F_m(s) ds with
    F_m = F(v_ref + V_m) - F(v_ref), the integral by trapezoidal quadrature at
    step ``config.dt`` over the nodes of ``ref``, the pairs (v_ref, F(v_ref)) of
    :func:`reference_solve`.  The first iterate e^{t_n A} a_0 is the same
    recurrence with zero forcing, so the whole iteration applies only
    e^{dt A}.  Each iteration streams its totals F(v_ref + V_m), one
    :func:`advection` per node past t = 0 (V_m(0) = a_0 in every iteration,
    so the total there is formed once), into :func:`_duhamel` and takes one
    S(T)-norm, of V_{m+1} - V_m over the nodes t > 0 (it is 0 at t = 0).
    Returns (V, report), V the list of V(t_n), one per pair of ``ref``.  Stopping at
    ``config.max_picard`` returns the report with ``converged`` False;
    :func:`full_solve` treats that as a failure.
    """
    grid = a0.grid
    V = list(_duhamel(a0, repeat(SpectralField.zeros(grid), len(ref)), config.dt))
    report = IterationReport()
    # every iterate starts at V_m(0) = a_0, bit for bit, so F(v_ref(0) + V_m(0))
    # is one field and each difference V_{m+1} - V_m is exactly 0 at t = 0
    F0 = _forcing(advection(SpectralField(ref[0][0].coeffs + a0.coeffs, grid)))

    for _ in range(config.max_picard):
        totals = chain([F0], (
            _forcing(advection(SpectralField(r.coeffs + v.coeffs, grid)))
            for (r, _), v in zip(ref[1:], V[1:])
        ))
        diffs = (SpectralField(t.coeffs - f.coeffs, grid) for t, (_, f) in zip(totals, ref))
        Vnew = list(_duhamel(a0, diffs, config.dt))
        diff = (SpectralField(a.coeffs - b.coeffs, grid) for a, b in zip(Vnew[1:], V[1:]))
        dS = _s_norm(diff, config.dt, config.p)
        report.diff_S.append(dS)
        V = Vnew
        if dS < config.picard_tol:
            report.converged = True
            break
        if len(report.diff_S) >= 3 and all(
            report.diff_S[-i] > 2.0 * report.diff_S[-i - 1] for i in (1, 2)
        ):
            raise SolverDivergenceError(
                "Picard iteration diverging: S-norm of differences doubled twice",
                report=report,
            )
    return V, report


def _shrink_delta(a, config):
    """Halve the smoothing time until the rough part is below the threshold.

    Tries at most 60 smoothing times, the last one untested, and returns
    (a_ref, a_0, delta) with (a_ref, a_0) = split_data(a, delta).
    """
    delta = config.delta
    a_ref, a0 = split_data(a, delta)
    if delta == 0.0:  # no rough part to measure
        return a_ref, a0, delta
    eps0 = config.eps0 if config.eps0 is not None else 0.05 * mixed_norm(a, config.p)
    for _ in range(59):
        if mixed_norm(a0, config.p) <= eps0:
            break
        delta /= 2.0
        a_ref, a0 = split_data(a, delta)
    return a_ref, a0, delta


def full_solve(a: SpectralField, config: SolverConfig):
    """Reference solve plus Picard remainder: v = v_ref + V on [0, T].

    Every node's diagnostics are formed; ``snapshots[n]`` is v(t_n) where a
    snapshot is due (node 0, every ``config.snapshot_every``-th node and the
    last) and None elsewhere.  With no rough part (a_0 = 0 exactly)
    v = v_ref, stepped one node at a time.
    ``diagnostics["step_number"]`` is the step-size number dt * max|a| * k_max
    of the data, with k_max = pi N the largest horizontal wavenumber.  Raises
    SolverDivergenceError, carrying the report and naming that number, when
    the reference solve blows up or the Picard iteration diverges or stops at
    ``config.max_picard`` unconverged.
    """
    if a.grid != config.grid():
        raise ValueError(f"initial data on {a.grid}, but the config is for {config.grid()}")
    step_number = config.dt * NodeValues(a).norm("u", np.inf, np.inf) * np.pi * config.N
    a_ref, a0, delta = _shrink_delta(a, config)
    try:
        if float(np.abs(a0.coeffs).max()) == 0.0:
            # no rough part: v = v_ref
            report = IterationReport(converged=True)
            nodes = _defects(_reference_nodes(a_ref, config), config.dt)
        else:
            ref = reference_solve(a_ref, config)
            V, report = picard_iterate(a0, ref, config)
            if not report.converged:
                raise SolverDivergenceError(
                    f"Picard iteration stopped at its cap of {config.max_picard} iterations: "
                    f"S-norm of the last difference {report.diff_S[-1]:.3e} >= tol "
                    f"{config.picard_tol:.3e}",
                    report=report,
                )
            # v = v_ref + V, whose defect against the last totals is v_ref's own
            v = (SpectralField(r.coeffs + s.coeffs, a.grid) for (r, _), s in zip(ref, V))
            nodes = zip(v, mild_residual(ref, config.dt))
        traj = _diagnosed(nodes, config)
    except SolverDivergenceError as exc:
        raise SolverDivergenceError(
            f"{exc} (step-size number dt*max|u|*k_max = {step_number:.3e})", report=exc.report
        ) from exc
    traj.diagnostics.update(delta=delta, step_number=step_number, picard=report)
    return traj


def _diagnosed(nodes, config: SolverConfig) -> Trajectory:
    """The trajectory of (v_n, residual_n) on :func:`_time_nodes`, read once in node order.

    Each node's :data:`DIAGNOSTICS` are formed as it arrives, and v_n is held
    only where a snapshot is due.
    """
    times = _time_nodes(config)
    last = len(times) - 1
    snaps, rows = [], []
    for n, (v, residual) in enumerate(nodes):
        energy = v.norm2()
        if n == 0:
            e0 = energy or 1.0
        # each node's defect relative to the data, not to a field decayed to round-off
        drift = check_solenoidal(v) * energy / e0
        rows.append((energy, drift, *_node_norms(v, times[n], config.p), residual))
        snaps.append(v if n % config.snapshot_every == 0 or n == last else None)
    return Trajectory(times, snaps, dict(zip(DIAGNOSTICS, map(np.array, zip(*rows)))))


def _defects(nodes, dt):
    """(v_n, ||v_n - S_n||) for the pairs (v_n, F(v_n)) of ``nodes``, node by node.

    S_n are the Duhamel sums of :func:`_duhamel` from v_0 with forcing F(v_n)
    and step ``dt``.  The pair of node n is yielded once node n has been
    read, no further; the deque holds each F until the recurrence reads it,
    and the recurrence drops it after the next step.
    """
    forcing = deque()
    sums = None
    for v, f in nodes:
        forcing.append(f)
        if sums is None:
            sums = _duhamel(v, iter(forcing.popleft, None), dt)
        yield v, SpectralField(v.coeffs - next(sums).coeffs, v.grid).norm2()


def mild_residual(nodes, dt) -> np.ndarray:
    """Defect in the Duhamel identity per time node, in L^2, of the pairs
    (v_n, F(v_n)) of ``nodes`` at step ``dt`` (:func:`_defects`, the Picard
    iteration's quadrature and recurrence); one entry per pair, residual[0] = 0.
    """
    return np.array([r for _, r in _defects(nodes, dt)])
