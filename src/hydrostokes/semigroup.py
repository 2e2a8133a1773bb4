"""Per-mode hydrostatic Stokes operator, its semigroup and resolvent.

For each horizontal wavenumber xi the operator acts on the K sine
coefficients of the xi-parallel and xi-perpendicular velocity components,
c_par = x c_0 + y c_1 and c_perp = x c_1 - y c_0 with xi/|xi| = (x, y).
The perpendicular part is diagonal, -(|xi|^2 + lambda_k^2).  The parallel
part additionally carries the rank-one bottom-shear coupling b lambda^T,

    b_k = betas_t_k / h,

the truncated form of (1/h)(1-Q) dz v at z = -h, applied as the rank-one
update b (lambda . c_par).  Since it is independent of xi and the diagonal
shift is a multiple of the identity, a single K x K matrix exponential of
M_z = diag(-lambda^2) + b lambda^T serves all wavenumbers at a given time,
scaled by exp(-t |xi|^2).

1/lambda is a left null vector of M_z, so M_z maps into the solenoidal space
{sum c_k/lambda_k = 0}, which is therefore invariant, and acts as 0 on the
one-dimensional quotient.  The solenoidal spectrum of the parallel block is
the spectrum of M_z with one zero eigenvalue removed (Golub, SIAM Rev. 1973).

Because M_z is diagonal plus rank one, the shifted system (mu - M_z) x = y
has the Sherman-Morrison solution, evaluated for all modes at once.  The
resolvent is that solve at mu = lambda + |xi|^2, and phi1 follows from the
identity t phi1(t B) = B^{-1}(e^{t B} - I) with B = M_z - |xi|^2, which needs
only the same exponential block as the semigroup.  There is one operator per
grid, ``Grid.stokes``, shared with its exponential memo by every caller.
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

        self.xi2 = grid.xi2
        self.xi_hat = grid.xi_hat
        self.s_values = np.unique(self.xi2)
        self.cache = SemigroupCache()

    # -- component split ---------------------------------------------------

    def _split(self, coeffs):
        x, y = self.xi_hat[:, :, :, None]
        return x * coeffs[0] + y * coeffs[1], x * coeffs[1] - y * coeffs[0]

    def _assemble(self, cpar, cperp, origin):
        x, y = self.xi_hat[:, :, :, None]
        out = np.stack([x * cpar - y * cperp, y * cpar + x * cperp])
        out[:, 0, 0, :] = origin
        return out

    # -- operator ----------------------------------------------------------

    def apply_A(self, v: SpectralField) -> SpectralField:
        """Delta v plus the bottom-shear coupling on the parallel part."""
        if v.ncomp != 2:
            raise ValueError(f"apply_A needs ncomp=2, got {v.ncomp}")
        c = v.coeffs
        out = -(self.xi2[None, :, :, None] + self.lam2) * c
        cpar, _ = self._split(c)
        bpar = (cpar @ self.basis.lambdas)[:, :, None] * self.b
        out += self.xi_hat[:, :, :, None] * bpar
        return SpectralField(out, v.grid)

    def _exp_block(self, t: float) -> np.ndarray:
        return self.cache.get_or_compute(("exp", t), lambda: expm(t * self.Mz))

    def _solve_parallel(self, mu, y):
        """(mu - M_z)^{-1} y per mode by Sherman-Morrison; mu is (N, N), y (N, N, K).

        With d = mu + lambda^2, mu - M_z = diag(d) - b lambda^T.  The caller
        keeps mu off the spectrum; the origin is assembled separately.  The
        relative round-off grows like eps / min|d|, so mu within 1e-8 of some
        -lambda_k^2 (a perpendicular eigenvalue) costs about 8 digits here.
        """
        lam = self.basis.lambdas
        d = mu[:, :, None] + self.lam2
        yd = y / d
        bd = self.b / d
        return yd + bd * ((yd @ lam) / (1.0 - bd @ lam))[:, :, None]

    def semigroup_apply(self, t: float, v: SpectralField) -> SpectralField:
        """e^{tA} v via per-mode exponentials."""
        if t < 0:
            raise ValueError(f"semigroup time must be >= 0, got {t}")
        if v.ncomp != 2:
            raise ValueError(f"semigroup_apply needs ncomp=2, got {v.ncomp}")
        if t == 0:
            return v.copy()
        c = v.coeffs
        cpar, cperp = self._split(c)
        E = self._exp_block(t)
        decay_h = np.exp(-t * self.xi2)[:, :, None]
        cpar = decay_h * (cpar @ E.T)
        cperp = decay_h * np.exp(-t * self.lam2) * cperp
        origin = c[:, 0, 0, :] * np.exp(-t * self.lam2)
        return SpectralField(self._assemble(cpar, cperp, origin), v.grid)

    def phi1_apply(self, t: float, g: SpectralField) -> SpectralField:
        """phi1(tA) g = (tA)^{-1}(e^{tA} - I) g, exponential-Euler weight."""
        if t <= 0:
            raise ValueError(f"phi1 time must be > 0, got {t}")
        if g.ncomp != 2:
            raise ValueError(f"phi1_apply needs ncomp=2, got {g.ncomp}")
        c = g.coeffs
        cpar, cperp = self._split(c)
        # with B = M_z - s, t phi1(tB) y = (s - M_z)^{-1}(y - e^{-ts} e^{t M_z} y)
        decay_h = np.exp(-t * self.xi2)[:, :, None]
        rhs = cpar - decay_h * (cpar @ self._exp_block(t).T)
        # at s = 0 the block is singular (M_z has a zero eigenvalue); the
        # origin is assembled below, so it gets a dummy unit shift
        shift = self.xi2.copy()
        shift[0, 0] = 1.0
        out_par = self._solve_parallel(shift, rhs) / t
        a = -t * (self.xi2[:, :, None] + self.lam2)
        out_perp = np.expm1(a) / a * cperp
        a0 = -t * self.lam2
        origin = np.expm1(a0) / a0 * c[:, 0, 0, :]
        return SpectralField(self._assemble(out_par, out_perp, origin), g.grid)

    def resolvent_apply(self, lam: complex, f: SpectralField) -> SpectralField:
        """(lam - A)^{-1} f, closed-form on every mode block."""
        if f.ncomp != 2:
            raise ValueError(f"resolvent_apply needs ncomp=2, got {f.ncomp}")
        self._check_not_spectrum(lam)
        c = f.coeffs
        cpar, cperp = self._split(c)
        out_par = self._solve_parallel(lam + self.xi2, cpar)
        out_perp = cperp / (lam + self.xi2[:, :, None] + self.lam2)
        origin = c[:, 0, 0, :] / (lam + self.lam2)
        return SpectralField(self._assemble(out_par, out_perp, origin), f.grid)

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

    def eigenvalue_report(self, subspace: str = "solenoidal"):
        """Eigenvalues of every mode block.

        Returns a list of rows (m, n, index, eigenvalue).  For the solenoidal
        subspace the parallel block is restricted to {sum c_k/lambda_k = 0},
        whose spectrum is that of M_z without its zero eigenvalue (the one of
        least modulus); the perpendicular diagonal and the xi = 0 block are
        solenoidal as is.
        """
        if subspace not in ("full", "solenoidal"):
            raise ValueError(f"unknown subspace {subspace!r}")
        N = self.grid.N
        par_eigs = self.Mz_eigs
        if subspace == "solenoidal":
            par_eigs = np.delete(par_eigs, np.argmin(np.abs(par_eigs)))
        rows = []
        ms = np.fft.fftfreq(N, d=1.0 / N).astype(int)
        for im, m in enumerate(ms):
            for jn, n in enumerate(ms):
                s = self.xi2[im, jn]
                if im == 0 and jn == 0:
                    eigs = np.concatenate([-self.lam2, -self.lam2])
                else:
                    eigs = np.concatenate([par_eigs - s, -self.lam2 - s])
                for idx, ev in enumerate(eigs):
                    rows.append((m, n, idx, complex(ev)))
        return rows


def spectral_bound(grid: Grid, subspace: str = "solenoidal"):
    """Max real part of the discrete spectrum plus the per-mode report."""
    rows = grid.stokes.eigenvalue_report(subspace)
    return max(ev.real for _, _, _, ev in rows), rows
