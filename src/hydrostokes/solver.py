"""Mild-solution machinery: data splitting, reference solve, Picard iteration.

Rough initial data a is split as a = a_ref + a_0 with a_ref = e^{delta A} a
smooth and a_0 small.  The reference part is advanced by an exponential-Euler
integrator; the remainder V = v - v_ref is constructed by Picard iteration on
the Duhamel integral with forcing F(v_ref + V) - F(v_ref), starting from e^{tA} a_0
and applying only e^{dt A}.  Each F(v) is formed once per solve and passed along
as a list over the time nodes.  The iteration is monitored through the S(T)-norm
max(sup ||D||, sup t^{1/2} ||grad D||) of each difference D = V_{m+1} - V_m,
with mixed L^inf_H L^p_z norms; :class:`IterationReport` keeps those norms
and nothing else.  Every nonlinear term is dealiased (2/3 rule) and every
forcing and reference step is re-projected.  :class:`SolverConfig` is the
one source of parameters: the grid, the uniform time grid (dt, T) and the
split and Picard settings.  Each function takes the Stokes operator from the
grid of the field it is given (``Grid.stokes``).
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import Grid
from .fields import NodeValues, SpectralField
from .nonlinear import advection
from .projection import check_solenoidal, project_hydrostatic

# Most time steps round(T/dt) a solve may take.  The trajectory keeps every
# node's snapshot; at 16^3 (74 kB each, half a spectrum) this many already
# take 7.4 GB.
MAX_TIME_STEPS = 100_000


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
    snapshots: list  # SpectralField per node
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


def _node_norms(v_list, times, p):
    """(||v_n||, t_n^{1/2} ||grad v_n||) per node, one NodeValues each; the second is 0 at t = 0."""
    out = []
    for v, t in zip(v_list, times):
        nodes = NodeValues(v)
        out.append((
            nodes.norm("u", np.inf, p),
            np.sqrt(t) * nodes.norm("grad", np.inf, p) if t > 0 else 0.0,
        ))
    return out


def _s_norm(v_list, times, p):
    """S(T)-norm max(sup ||v||, sup_{t>0} t^{1/2} ||grad v||) of a discrete trajectory.

    ``v_list`` may be a generator: it is read once, in node order.
    """
    s = 0.0
    for norm, grad in _node_norms(v_list, times, p):
        s = max(s, norm, grad)
    return s


def split_data(a: SpectralField, delta: float):
    """a = a_ref + a_0 with a_ref = e^{delta A} a in the operator's domain."""
    a_ref = a.grid.stokes.semigroup_apply(delta, a)
    a0 = SpectralField(a.coeffs - a_ref.coeffs, a.grid)
    return a_ref, a0


def _forcing(f: SpectralField) -> SpectralField:
    """-P f, the forcing that the transport term f contributes to the mild equation."""
    return project_hydrostatic(SpectralField(-f.coeffs, f.grid))


def _forcings(snaps, F=None):
    """F(v) = -P (u . grad) v at every node: ``F``, one entry per node, or formed when None."""
    if F is not None and len(F) != len(snaps):
        raise ValueError(f"forcing list has {len(F)} entries for {len(snaps)} time nodes")
    return [_forcing(advection(s)) for s in snaps] if F is None else F


def _duhamel(a: SpectralField, F, times):
    """Trapezoidal Duhamel sums S_n = e^{t_n A} a + int_0^{t_n} e^{(t_n-s)A} F(s) ds.

    F, one entry per node of the uniform grid ``times``, is read in node order;
    yields S_n for every node in turn, S_0 = a.  The trapezoid weights obey the recurrence

        G_0 = a,  G_n = e^{dt A}(G_{n-1} + w_{n-1} F_{n-1}),  S_n = G_n + (dt/2) F_n

    with w_0 = dt/2 and w_j = dt for j >= 1, so all n sums together cost one
    semigroup apply per node.  Raises ValueError, when iteration starts,
    unless the steps agree to 1e-9 dt: on a non-uniform grid the recurrence
    would be silently wrong.
    """
    steps = np.diff(times)
    dt = steps[0] if len(steps) else 0.0
    if np.any(np.abs(steps - dt) > 1e-9 * dt):
        raise ValueError("Duhamel sums need uniformly spaced time nodes")
    yield a.copy()
    grid, G, F = a.grid, a.coeffs, iter(F)
    w, f = 0.5 * dt, next(F)
    for _ in times[1:]:
        G = grid.stokes.semigroup_apply(dt, SpectralField(G + w * f.coeffs, grid)).coeffs
        w, f = dt, next(F)
        yield SpectralField(G + 0.5 * dt * f.coeffs, grid)


def reference_solve(a_ref: SpectralField, config: SolverConfig) -> Trajectory:
    """Exponential-Euler integration v_{n+1} = P(e^{dtA} v_n + dt phi1(dtA) F(v_n)).

    F(v) = -P (u . grad) v; the nodes are the multiples of ``config.dt`` up to
    ``config.T``.  ``diagnostics["F"]`` keeps F(v_n) at every node, the last one
    included, which :func:`picard_iterate` and :func:`mild_residual` reuse.
    """
    dt, op = config.dt, a_ref.grid.stokes
    nsteps = int(round(config.T / dt))
    times = dt * np.arange(nsteps + 1)
    v = a_ref.copy()
    snaps = [v]
    e0 = v.norm2()
    guard = max(e0, 1e-300) * 1e6
    F_list = [_forcing(advection(v))]
    for _ in range(nsteps):
        stepped = op.semigroup_apply(dt, v).coeffs + dt * op.phi1_apply(dt, F_list[-1]).coeffs
        v = project_hydrostatic(SpectralField(stepped, op.grid))
        e = v.norm2()
        if not np.isfinite(e) or e > guard:
            raise SolverDivergenceError(
                f"reference solve blew up: ||v|| = {e:.3e} vs initial {e0:.3e}"
            )
        snaps.append(v)
        F_list.append(_forcing(advection(v)))
    return Trajectory(times, snaps, {"F": F_list})


def picard_iterate(a0: SpectralField, v_ref: Trajectory, config: SolverConfig, F_ref=None):
    """Duhamel fixed-point iteration for the rough remainder V.

    V_{m+1}(t) = e^{tA} a_0 + int_0^t e^{(t-s)A} F_m(s) ds with
    F_m = F(v_ref + V_m) - F(v_ref) and F(v) = -P (u . grad) v,
    the integral by trapezoidal quadrature on the time grid ``v_ref.times``,
    which must be uniform.  The first iterate e^{t_n A} a_0 is the same
    recurrence with zero forcing, so the whole iteration applies only
    e^{dt A}.  ``F_ref`` is F(v_ref) at every node, formed after the first
    iterate when None.  Each iteration forms the totals F(v_ref + V_m), one
    :func:`advection` per node past t = 0 (V_m(0) = a_0 in every iteration,
    so the total there is formed once), kept in ``diagnostics["F"]``,
    streams their differences from F_ref into :func:`_duhamel` and takes one
    S(T)-norm, of V_{m+1} - V_m over the nodes t > 0 (it is 0 at t = 0).
    Stopping at ``config.max_picard`` returns the report with ``converged``
    False; :func:`full_solve` treats that as a failure.
    """
    times, refs, grid = v_ref.times, v_ref.snapshots, a0.grid
    V = list(_duhamel(a0, [SpectralField.zeros(grid)] * len(times), times))
    F_ref = _forcings(refs, F_ref)
    report = IterationReport()
    # every iterate starts at V_m(0) = a_0, bit for bit, so F(v_ref(0) + V_m(0))
    # is one field and each difference V_{m+1} - V_m is exactly 0 at t = 0
    F0 = _forcing(advection(SpectralField(refs[0].coeffs + a0.coeffs, grid)))

    for _ in range(config.max_picard):
        totals = (SpectralField(r.coeffs + v.coeffs, grid) for r, v in zip(refs[1:], V[1:]))
        F = [F0] + _forcings(totals)
        diffs = (SpectralField(t.coeffs - f.coeffs, grid) for t, f in zip(F, F_ref))
        Vnew = list(_duhamel(a0, diffs, times))
        diff = (SpectralField(a.coeffs - b.coeffs, grid) for a, b in zip(Vnew[1:], V[1:]))
        dS = _s_norm(diff, times[1:], config.p)
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
    return Trajectory(times, V, {"F": F}), report


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
        vref = reference_solve(a_ref, config)
        snaps, F = vref.snapshots, vref.diagnostics.pop("F")
        if float(np.abs(a0.coeffs).max()) == 0.0:
            # no rough part: v = v_ref
            report = IterationReport(converged=True)
        else:
            V, report = picard_iterate(a0, vref, config, F)
            F = V.diagnostics.pop("F")  # F(v_ref + V_m), the last iteration's totals
            if not report.converged:
                raise SolverDivergenceError(
                    f"Picard iteration stopped at its cap of {config.max_picard} iterations: "
                    f"S-norm of the last difference {report.diff_S[-1]:.3e} >= tol "
                    f"{config.picard_tol:.3e}",
                    report=report,
                )
            snaps = [SpectralField(r.coeffs + s.coeffs, a.grid) for r, s in zip(snaps, V.snapshots)]
    except SolverDivergenceError as exc:
        raise SolverDivergenceError(
            f"{exc} (step-size number dt*max|u|*k_max = {step_number:.3e})", report=exc.report
        ) from exc
    traj = Trajectory(vref.times, snaps)
    norm_inf_p, t_sqrt_grad_norm = np.array(_node_norms(snaps, traj.times, config.p)).T
    energy = np.array([s.norm2() for s in snaps])
    traj.diagnostics = {
        "energy": energy,
        # each node's defect relative to the data, not to a field decayed to round-off
        "sol_drift": np.array([check_solenoidal(s) for s in snaps]) * energy / (energy[0] or 1.0),
        "norm_inf_p": norm_inf_p,
        "t_sqrt_grad_norm": t_sqrt_grad_norm,
        "residual": mild_residual(traj, F),
        "delta": delta,
        "step_number": step_number,
        "picard": report,
    }
    return traj


def mild_residual(traj: Trajectory, F=None) -> np.ndarray:
    """Defect in the Duhamel identity per time node, in L^2.

    Uses the same trapezoidal quadrature, and the same O(n) recurrence, as
    the Picard iteration, with F(v) = -P (u . grad) v at every node, formed
    when None.  The time nodes must be uniform; residual[0] is 0.  On the
    rough branch :func:`full_solve` passes F(v_ref + V_m) for v_ref + V_{m+1}:
    by linearity that residual is v_ref's own defect (to 4e-16 relative), the
    exponential-Euler step against the trapezoid sums, blind to the Picard lag
    (bounded through ``diff_S[-1]``); it still catches a wrong v_ref + V sum.
    """
    snaps = traj.snapshots
    S = _duhamel(snaps[0], _forcings(snaps, F), traj.times)
    return np.array([SpectralField(v.coeffs - s.coeffs, v.grid).norm2() for v, s in zip(snaps, S)])
