"""Per-mode hydrostatic Stokes operator, its semigroup and resolvent.

For each horizontal wavenumber xi the operator is the Laplacian,
-(|xi|^2 + lambda_k^2) on every component, plus the bottom-shear coupling
b lambda^T on the xi-parallel component c_par = xi_hat . c alone, where
b_k = betas_t_k / h truncates (1/h)(1-Q) dz v at z = -h.  With
M_z = diag(-lambda^2) + b lambda^T, every function f of A is therefore

    f(A) v = f(Delta) v + xi_hat (x) [f(M_z - |xi|^2) - f(-lambda^2 - |xi|^2)] c_par,

the one assembly (``_per_mode``) of e^{tA}, phi1 and the resolvent; at
xi = 0, xi_hat = 0 leaves the vertical heat block.  No command applies A
itself or forms M_z as a matrix.

lambda_k b_k is one constant, so diag(lambda) M_z diag(lambda)^{-1} is
symmetric, and its one eigendecomposition Theta, Q per grid (on
``VerticalBasis``) gives f(M_z - s) = diag(1/lambda) Q f(Theta - s) Q^T
diag(lambda) for every shift s = |xi|^2.  In this rotated basis a function
of the parallel block is elementwise: phi1 applies phi1(t(Theta - |xi|^2))
to all modes at once, and the semigroup uses one K x K block e^{t M_z},
shared by all wavenumbers at time t and scaled by exp(-t |xi|^2).  Theta <= 0,
so no block overflows, whatever the depth.  That block is built by
``basis.parallel_exp``, bound here as ``expm`` and memoized per t in
``SemigroupCache``, a plain dict with no lock and no eviction: a solve asks
for dt and each smoothing time it tries, a scan for its time grid, and no
caller uses threads.  The benchmark's tracer counts block builds at
``semigroup.expm`` and requests at ``SemigroupCache.get_or_compute``, so
both names stay until the benchmark retargets those spans (ROADMAP item 1).

1/lambda is a left null vector of M_z, so M_z maps into the solenoidal space
{sum c_k/lambda_k = 0}, which is therefore invariant, and acts as 0 on the
one-dimensional quotient.  The solenoidal spectrum of the parallel block is
Theta with its exact zero removed (Golub, SIAM Rev. 1973).

The resolvent is the same elementwise recipe at f(z) = 1/(lambda - z), with
denominators d = lambda + |xi|^2 + lambda_k^2 (the heat block) and
e = lambda + |xi|^2 - Theta (the rotated parallel block).  A is real, so the
real field Re (lambda - A)^{-1} f has the multipliers Re 1/d and Re 1/e;
that is what ``resolvent_apply`` returns, the resolvent itself for real
lambda, and it is the same for lambda and conj lambda.  There is one
operator per grid, ``Grid.stokes``, shared with its exponential memo by
every caller.  eigenvalue_report builds the spectrum of every mode at once,
by broadcasting Theta against |xi|^2.
"""

import numpy as np

from .basis import Grid
from .basis import parallel_exp as expm  # the benchmark counts block builds here (ROADMAP item 1)
from .fields import SpectralField

SINGULARITY_TOL = 1e-10


class SingularityError(ValueError):
    """Resolvent parameter within tolerance of a mode eigenvalue."""


class SemigroupCache:
    """Memo of the exponential blocks e^{t M_z}: a dict keyed by t.

    A block costs two K x K products, so the memo saves little; it stays
    because the benchmark's tracer wraps this class by name (ROADMAP item 1).
    """

    def __init__(self):
        self._blocks = {}

    def get_or_compute(self, key, fn):
        if key not in self._blocks:
            self._blocks[key] = fn()
        return self._blocks[key]


class StokesOperator:
    """Discrete hydrostatic Stokes operator A = Delta + B on a grid."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.basis = grid.basis
        self.lam2 = self.basis.lambdas**2
        self.xi2 = grid.xi2
        self.xi_hat = grid.xi_hat
        self.cache = SemigroupCache()

    # -- per-mode structure -------------------------------------------------

    def _split(self, v: SpectralField):
        """c_par = xi_hat . c of a two-component field, per mode."""
        if v.ncomp != 2:
            raise ValueError(f"the Stokes operator acts on ncomp=2 fields, got {v.ncomp}")
        x, y = self.xi_hat[:, :, :, None]
        return x * v.coeffs[0] + y * v.coeffs[1]

    def _per_mode(self, v: SpectralField, corr, diag) -> SpectralField:
        """f(A) v = diag * v + xi_hat (x) corr(c_par), mode by mode.

        diag (N, N/2+1, K) is f(-|xi|^2 - lambda^2) and corr(c_par) the
        parallel block's departure from it; xi_hat = 0 at xi = 0, so there
        corr is discarded, but must be finite.
        """
        c = corr(self._split(v))  # c_par is freed before the output exists
        out = diag * v.coeffs
        for out_k, xi_k in zip(out, self.xi_hat):
            out_k += xi_k[:, :, None] * c
        return SpectralField(out, v.grid)

    def _rotated(self, g, diag):
        """The correction of f(A) for _per_mode, from g = f(Theta - |xi|^2) and diag.

        f(M_z - s) = diag(1/lambda) Q f(Theta - s) Q^T diag(lambda), applied
        to c_par, minus the heat multiplier diag = f(-lambda^2 - s).
        """
        lam, Q = self.basis.lambdas, self.basis.Q
        return lambda cpar: ((cpar * lam) @ Q * g) @ Q.T / lam - diag * cpar

    # -- operator ----------------------------------------------------------

    def semigroup_apply(self, t: float, v: SpectralField) -> SpectralField:
        """e^{tA} v via per-mode exponentials."""
        if t < 0:
            raise ValueError(f"semigroup time must be >= 0, got {t}")
        if t == 0:
            self._split(v)  # the same ncomp check as every other time
            return v.copy()
        decay_h = np.exp(-t * self.xi2)[:, :, None]
        decay_z = np.exp(-t * self.lam2)
        block = self.cache.get_or_compute(t, lambda: expm(self.basis, t))
        excess = (block - np.diag(decay_z)).T
        corr = lambda cpar: decay_h * (cpar @ excess)
        return self._per_mode(v, corr, decay_h * decay_z)

    def phi1_apply(self, t: float, g: SpectralField) -> SpectralField:
        """phi1(tA) g = (tA)^{-1}(e^{tA} - I) g, exponential-Euler weight."""
        if t <= 0:
            raise ValueError(f"phi1 time must be > 0, got {t}")
        s = self.xi2[:, :, None]
        diag = _phi1(-t * (s + self.lam2))
        return self._per_mode(g, self._rotated(_phi1(t * (self.basis.theta - s)), diag), diag)

    def resolvent_apply(self, lam: complex, f: SpectralField) -> SpectralField:
        """Re (lam - A)^{-1} f, a real field; the resolvent itself for real lam.

        Raises SingularityError when lam is within SINGULARITY_TOL of an
        eigenvalue of some mode block.
        """
        s = self.xi2[:, :, None]
        d = lam + s + self.lam2
        e = lam + s - self.basis.theta
        dist = min(np.abs(d).min(), np.abs(e).min())
        if dist < SINGULARITY_TOL:
            raise SingularityError(
                f"lambda = {lam} is within {dist:.2e} of the discrete spectrum"
            )
        diag = (1.0 / d).real
        return self._per_mode(f, self._rotated((1.0 / e).real, diag), diag)

    # -- spectrum ----------------------------------------------------------

    def eigenvalue_report(self, subspace: str = "solenoidal") -> np.ndarray:
        """Eigenvalues of every mode block, one row per eigenvalue.

        A structured array with fields m, n, index and ev: the 2K heat
        eigenvalues -lambda^2 of xi = 0 first, then for each other (m, n) of
        the full plane (FFT order, n fastest) the parallel eigenvalues and
        -lambda^2, each minus |xi|^2.  For the solenoidal subspace the
        parallel block is restricted to {sum c_k/lambda_k = 0}, whose spectrum
        is that of M_z without its zero eigenvalue (the one of least modulus);
        the perpendicular diagonal and the xi = 0 block are solenoidal as is.
        """
        if subspace not in ("full", "solenoidal"):
            raise ValueError(f"unknown subspace {subspace!r}")
        N = self.grid.N
        par_eigs = self.basis.theta
        if subspace == "solenoidal":
            par_eigs = np.delete(par_eigs, np.argmin(np.abs(par_eigs)))
        xix, xiy = self.grid.xi_vectors()  # every (m, n), not only the stored half
        s = (xix**2 + xiy**2).reshape(-1, 1)[1:]  # (m, n) row-major, origin dropped
        evs = np.concatenate([par_eigs - s, -self.lam2 - s], axis=1)
        heat = np.concatenate([-self.lam2, -self.lam2])
        width = evs.shape[1]
        mode = np.concatenate([np.zeros(heat.size, int), np.repeat(np.arange(1, N * N), width)])
        ms = np.fft.fftfreq(N, d=1.0 / N).astype(int)
        rows = np.empty(mode.size, dtype=[("m", int), ("n", int), ("index", int), ("ev", complex)])
        rows["m"], rows["n"] = ms[mode // N], ms[mode % N]
        rows["index"] = np.concatenate([np.arange(heat.size), np.tile(np.arange(width), N * N - 1)])
        rows["ev"] = np.concatenate([heat, evs.ravel()])
        return rows


def _phi1(z: np.ndarray) -> np.ndarray:
    """phi1(z) = (e^z - 1) / z elementwise, with phi1(0) = 1."""
    return np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0)


def spectral_bound(grid: Grid, subspace: str = "solenoidal"):
    """Max real part of the discrete spectrum plus the per-mode report."""
    rows = grid.stokes.eigenvalue_report(subspace)
    return float(rows["ev"].real.max()), rows
