"""Mild-solution machinery: data splitting, reference solve, Picard iteration.

Rough initial data a is split as a = a_ref + a_0 with a_ref = e^{delta A} a
smooth and a_0 small.  The reference part is advanced by an exponential-Euler
integrator; the remainder V = v - v_ref is constructed by Picard iteration on
the Duhamel integral with the coupling nonlinearity, monitored in the
S(T)-norm max(sup ||V||, sup t^{1/2} ||grad V||) with mixed L^inf_H L^p_z
norms.  Every nonlinear term is dealiased (2/3 rule) and every forcing and
reference step is re-projected.  :class:`SolverConfig` is the one source of
parameters: the grid, the uniform time grid (dt, T) and the split and Picard
settings.  Each function takes the Stokes operator from the grid of the
field it is given (``Grid.stokes``).
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import Grid
from .fields import SpectralField, gradient, inverse_transform, norm_anisotropic
from .nonlinear import advection, coupled_advection
from .projection import check_solenoidal, project_hydrostatic

# Most time steps round(T/dt) a solve may take.  The trajectory keeps every
# node's snapshot; at 16^3 (131 kB each) this many already take 13 GB.
MAX_TIME_STEPS = 100_000


class SolverDivergenceError(RuntimeError):
    """Blow-up guard tripped or Picard iteration diverged."""

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
        if not self.delta >= 0:
            raise ValueError(f"smoothing time must be >= 0, got {self.delta}")
        if self.eps0 is not None and not self.eps0 >= 0:
            raise ValueError(f"rough-part threshold must be >= 0, got {self.eps0}")
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
    """Per-Picard-iteration S(T)-norm bookkeeping."""

    S_m: list = field(default_factory=list)  # scalars, S(T)-norm per iterate
    diff_S: list = field(default_factory=list)  # ||V_{m+1} - V_m||_{S(T)}
    ratios: list = field(default_factory=list)  # contraction factors, m >= 1
    converged: bool = False
    iterations: int = 0


def mixed_norm(v: SpectralField, p: float) -> float:
    """||v||_{L^inf_H L^p_z} from node values."""
    return norm_anisotropic(inverse_transform(v), np.inf, p)


def grad_mixed_norm(v: SpectralField, p: float) -> float:
    """||grad v||_{L^inf_H L^p_z}, full gradient stacked componentwise."""
    return norm_anisotropic(gradient(v), np.inf, p)


def _node_norms(v_list, times, p):
    """(||v_n||, t_n^{1/2} ||grad v_n||) per node; the second is 0 at t = 0."""
    return [
        (mixed_norm(v, p), np.sqrt(t) * grad_mixed_norm(v, p) if t > 0 else 0.0)
        for v, t in zip(v_list, times)
    ]


def _s_norm(v_list, times, p):
    """S(T)-norm max(sup ||v||, sup_{t>0} t^{1/2} ||grad v||) of a discrete trajectory."""
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


def _duhamel(a: SpectralField, F, times):
    """Trapezoidal Duhamel sums S_n = e^{t_n A} a + int_0^{t_n} e^{(t_n-s)A} F(s) ds.

    F is given at every node of the uniform grid ``times``; yields S_n for
    every node in turn, S_0 = a.  The trapezoid weights obey the recurrence

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
    grid, G = a.grid, a.coeffs
    for n in range(1, len(times)):
        w = 0.5 * dt if n == 1 else dt
        G = grid.stokes.semigroup_apply(dt, SpectralField(G + w * F[n - 1].coeffs, grid)).coeffs
        yield SpectralField(G + 0.5 * dt * F[n].coeffs, grid)


def reference_solve(a_ref: SpectralField, config: SolverConfig) -> Trajectory:
    """Exponential-Euler integration v_{n+1} = P(e^{dtA} v_n + dt phi1(dtA) F(v_n)).

    F(v) = -P (u . grad) v; the nodes are the multiples of ``config.dt`` up to
    ``config.T``.  ``diagnostics["F"]`` keeps F(v_n) for the nodes 0..n-1,
    which :func:`mild_residual` can reuse instead of forming them again.
    """
    dt, op = config.dt, a_ref.grid.stokes
    nsteps = int(round(config.T / dt))
    times = dt * np.arange(nsteps + 1)
    v = a_ref.copy()
    snaps = [v.copy()]
    energy = [v.norm2()]
    guard = max(energy[0], 1e-300) * 1e6
    F_list = []
    for _ in range(nsteps):
        F = _forcing(advection(v))
        F_list.append(F)
        stepped = op.semigroup_apply(dt, v).coeffs + dt * op.phi1_apply(dt, F).coeffs
        v = project_hydrostatic(SpectralField(stepped, op.grid))
        e = v.norm2()
        if not np.isfinite(e) or e > guard:
            raise SolverDivergenceError(
                f"reference solve blew up: ||v|| = {e:.3e} vs initial {energy[0]:.3e}"
            )
        snaps.append(v.copy())
        energy.append(e)
    return Trajectory(times, snaps, {"energy": np.array(energy), "F": F_list})


def picard_iterate(a0: SpectralField, v_ref: Trajectory, config: SolverConfig):
    """Duhamel fixed-point iteration for the rough remainder V.

    V_{m+1}(t) = e^{tA} a_0 + int_0^t e^{(t-s)A} F_m(s) ds with
    F_m = -P( (U_m.grad)V_m + (U_m.grad)v_ref + (u_ref.grad)V_m ),
    the integral by trapezoidal quadrature on the time grid ``v_ref.times``,
    which must be uniform.  Per iteration each node costs one
    :func:`coupled_advection` call and one semigroup apply (the recurrence
    in :func:`_duhamel`); v_ref's node values are rebuilt every iteration
    rather than held, which keeps peak memory flat.
    """
    times = v_ref.times
    p = config.p

    V = [a0.grid.stokes.semigroup_apply(t, a0) for t in times]

    report = IterationReport(S_m=[_s_norm(V, times, p)])

    for m in range(config.max_picard):
        F = [_forcing(coupled_advection(v, r)) for v, r in zip(V, v_ref.snapshots)]
        Vnew = list(_duhamel(a0, F, times))

        diff = [SpectralField(a.coeffs - b.coeffs, a0.grid) for a, b in zip(Vnew, V)]
        dS = _s_norm(diff, times, p)
        report.diff_S.append(dS)
        if len(report.diff_S) >= 2 and report.diff_S[-2] > 0:
            report.ratios.append(dS / report.diff_S[-2])
        V = Vnew
        report.S_m.append(_s_norm(V, times, p))
        report.iterations = m + 1
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
    return Trajectory(times, V), report


def _shrink_delta(a, config):
    """Halve the smoothing time until the rough part is below the threshold."""
    scale = mixed_norm(a, config.p)
    eps0 = config.eps0 if config.eps0 is not None else 0.05 * scale
    delta = config.delta
    for _ in range(60):
        a_ref, a0 = split_data(a, delta)
        if mixed_norm(a0, config.p) <= eps0 or delta == 0.0:
            return a_ref, a0, delta
        delta /= 2.0
    return a_ref, a0, delta


def full_solve(a: SpectralField, config: SolverConfig):
    """Reference solve plus Picard remainder: v = v_ref + V on [0, T]."""
    if a.grid != config.grid():
        raise ValueError(f"initial data on {a.grid}, but the config is for {config.grid()}")
    a_ref, a0, delta = _shrink_delta(a, config)
    vref = reference_solve(a_ref, config)
    known_F = vref.diagnostics.pop("F")
    if float(np.abs(a0.coeffs).max()) == 0.0:
        # no rough part: v = v_ref, whose F is already known
        snaps = vref.snapshots
        report = IterationReport(converged=True)
    else:
        known_F = ()  # F(v_ref + V) must be formed from the sum
        V, report = picard_iterate(a0, vref, config)
        snaps = [
            SpectralField(r.coeffs + s.coeffs, a.grid) for r, s in zip(vref.snapshots, V.snapshots)
        ]
    traj = Trajectory(vref.times, snaps)
    norm_inf_p, t_sqrt_grad_norm = np.array(_node_norms(snaps, traj.times, config.p)).T
    traj.diagnostics = {
        "energy": np.array([s.norm2() for s in snaps]),
        "sol_drift": np.array([check_solenoidal(s) for s in snaps]),
        "norm_inf_p": norm_inf_p,
        "t_sqrt_grad_norm": t_sqrt_grad_norm,
        "residual": mild_residual(traj, known_F),
        "delta": delta,
        "picard": report,
    }
    return traj


def mild_residual(traj: Trajectory, known_F=()) -> np.ndarray:
    """Defect in the Duhamel identity per time node, in L^2.

    Uses the same trapezoidal quadrature, and the same O(n) recurrence, as
    the Picard iteration, with F(v) = -P (u . grad) v.  ``known_F`` holds F
    at the first nodes when the caller has formed it already (as
    :func:`reference_solve` does); only the remaining nodes are computed.
    The time nodes must be uniform; residual[0] is 0 by construction.
    """
    F = list(known_F) + [_forcing(advection(s)) for s in traj.snapshots[len(known_F) :]]
    sums = _duhamel(traj.snapshots[0], F, traj.times)
    return np.array(
        [SpectralField(v.coeffs - s.coeffs, v.grid).norm2() for v, s in zip(traj.snapshots, sums)]
    )
