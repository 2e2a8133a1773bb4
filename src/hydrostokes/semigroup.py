"""Per-mode hydrostatic Stokes operator, its semigroup and resolvent.

For each horizontal wavenumber xi the operator is the Laplacian,
-(|xi|^2 + lambda_k^2) on every component, plus the bottom-shear coupling
b lambda^T on the xi-parallel component c_par = xi_hat . c alone, where
b_k = betas_t_k / h truncates (1/h)(1-Q) dz v at z = -h.  With
M_z = diag(-lambda^2) + b lambda^T, every function f of A is therefore

    f(A) v = f(Delta) v + xi_hat (x) [f(M_z - |xi|^2) - f(-lambda^2 - |xi|^2)] c_par,

the one assembly (``_per_mode``) of A, e^{tA}, phi1 and the resolvent; at
xi = 0, xi_hat = 0 leaves the vertical heat block.  M_z does not depend on
xi, so one K x K exponential e^{t M_z} serves all wavenumbers at time t,
scaled by exp(-t |xi|^2).

1/lambda is a left null vector of M_z, so M_z maps into the solenoidal space
{sum c_k/lambda_k = 0}, which is therefore invariant, and acts as 0 on the
one-dimensional quotient.  The solenoidal spectrum of the parallel block is
the spectrum of M_z with one zero eigenvalue removed (Golub, SIAM Rev. 1973).

Because M_z is diagonal plus rank one, the shifted system (mu - M_z) x = y
has the Sherman-Morrison solution, evaluated for all modes at once.  The
resolvent's correction is its rank-one term at mu = lambda + |xi|^2, and
phi1 follows from the identity t phi1(t B) = B^{-1}(e^{t B} - I) with
B = M_z - |xi|^2, which needs only the same exponential block as the
semigroup.  There is one operator per grid, ``Grid.stokes``, shared with its
exponential memo by every caller.  eigenvalue_report builds the spectrum of
every mode at once, by broadcasting the block eigenvalues against |xi|^2.
"""

import threading
from collections import OrderedDict

import numpy as np
from scipy.linalg import expm

from .basis import Grid
from .fields import SpectralField

SINGULARITY_TOL = 1e-10


class SingularityError(ValueError):
    """Resolvent parameter within tolerance of a mode eigenvalue."""


class SemigroupCache:
    """Thread-safe LRU memo for the exponential blocks e^{t M_z}, keyed by t."""

    def __init__(self, maxsize: int = 4096):
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get_or_compute(self, key, fn):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
        val = fn()
        with self._lock:
            self._data[key] = val
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
        return val


class StokesOperator:
    """Discrete hydrostatic Stokes operator A = Delta + B on a grid."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.basis = grid.basis
        lam = self.basis.lambdas
        self.lam2 = lam**2
        # rank-one bottom-shear coupling b lambda^T, parallel component only
        self.b = self.basis.betas_t / grid.h
        self.Mz = np.diag(-self.lam2) + np.outer(self.b, lam)
        self.Mz_eigs = np.linalg.eigvals(self.Mz)
        # 1/lambda is an exact left null vector of M_z, but eigvals resolves
        # that zero only to eps * ||M_z||, which at tiny depth is huge
        self.Mz_eigs[np.argmin(np.abs(self.Mz_eigs))] = 0.0

        self.xi2 = grid.xi2
        self.xi_hat = grid.xi_hat
        self.s_values = np.unique(self.xi2)
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

    # -- operator ----------------------------------------------------------

    def apply_A(self, v: SpectralField) -> SpectralField:
        """Delta v plus the bottom-shear coupling b (lambda . c_par) on the parallel part."""
        corr = lambda cpar: (cpar @ self.basis.lambdas)[:, :, None] * self.b
        return self._per_mode(v, corr, -(self.xi2[:, :, None] + self.lam2))

    def _exp_block(self, t: float) -> np.ndarray:
        return self.cache.get_or_compute(t, lambda: expm(t * self.Mz))

    def _rank_one(self, d, y):
        """(mu - M_z)^{-1} y - y / d per mode, d = mu + lambda^2; d and y are (N, N/2+1, K).

        mu - M_z = diag(d) - b lambda^T, and this is the Sherman-Morrison
        rank-one term of its inverse.  The caller keeps mu off the spectrum.
        The relative round-off grows like eps / min|d|, so mu within 1e-8 of
        some -lambda_k^2 (a heat eigenvalue) costs about 8 digits.
        """
        lam = self.basis.lambdas
        bd = self.b / d
        return bd * (((y / d) @ lam) / (1.0 - bd @ lam))[:, :, None]

    def semigroup_apply(self, t: float, v: SpectralField) -> SpectralField:
        """e^{tA} v via per-mode exponentials."""
        if t < 0:
            raise ValueError(f"semigroup time must be >= 0, got {t}")
        if t == 0:
            self._split(v)  # the same ncomp check as every other time
            return v.copy()
        decay_h = np.exp(-t * self.xi2)[:, :, None]
        decay_z = np.exp(-t * self.lam2)
        excess = (self._exp_block(t) - np.diag(decay_z)).T
        corr = lambda cpar: decay_h * (cpar @ excess)
        return self._per_mode(v, corr, decay_h * decay_z)

    def phi1_apply(self, t: float, g: SpectralField) -> SpectralField:
        """phi1(tA) g = (tA)^{-1}(e^{tA} - I) g, exponential-Euler weight."""
        if t <= 0:
            raise ValueError(f"phi1 time must be > 0, got {t}")
        decay_h = np.exp(-t * self.xi2)[:, :, None]
        a = -t * (self.xi2[:, :, None] + self.lam2)
        diag = np.expm1(a) / a
        # at s = 0 the block is singular (M_z has a zero eigenvalue); the
        # origin's correction is discarded, but must stay finite, so it gets
        # a dummy unit shift
        shift = self.xi2.copy()
        shift[0, 0] = 1.0
        d = shift[:, :, None] + self.lam2

        def corr(cpar):
            # with B = M_z - s, t phi1(tB) y = (s - M_z)^{-1}(y - e^{-ts} e^{t M_z} y)
            rhs = cpar - decay_h * (cpar @ self._exp_block(t).T)
            return (rhs / d + self._rank_one(d, rhs)) / t - diag * cpar

        return self._per_mode(g, corr, diag)

    def resolvent_apply(self, lam: complex, f: SpectralField) -> SpectralField:
        """(lam - A)^{-1} f, closed-form on every mode block.

        For complex lam these are the columns n <= N/2 of a complex field;
        A is real, so its real part is the mean of this and conj lam's.
        """
        self._check_not_spectrum(lam)
        d = lam + self.xi2[:, :, None] + self.lam2
        return self._per_mode(f, lambda cpar: self._rank_one(d, cpar), 1.0 / d)

    def _check_not_spectrum(self, lam: complex):
        shifts = self.s_values[:, None]
        par = self.Mz_eigs[None, :] - shifts
        diag = -self.lam2[None, :] - shifts
        dist = min(np.abs(lam - par).min(), np.abs(lam - diag).min())
        if dist < SINGULARITY_TOL:
            raise SingularityError(
                f"lambda = {lam} is within {dist:.2e} of the discrete spectrum"
            )

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
        par_eigs = self.Mz_eigs
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


def spectral_bound(grid: Grid, subspace: str = "solenoidal"):
    """Max real part of the discrete spectrum plus the per-mode report."""
    rows = grid.stokes.eigenvalue_report(subspace)
    return float(rows["ev"].real.max()), rows
