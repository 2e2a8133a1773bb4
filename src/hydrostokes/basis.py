"""Grid geometry and the mixed Dirichlet/Neumann vertical sine basis."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Collocation grid on the layer (0,1)^2 x (-h, 0).

    N horizontal nodes per direction (Fourier), K vertical sine modes with
    collocation at the DST-IV midpoints, so the discrete sine transform is
    exactly orthogonal and vertical quadrature is the midpoint rule.

    The spectral tables ``basis``, ``columns``, ``padded_columns``, ``xi``,
    ``xi2`` and ``xi_hat``, the Stokes operator ``stokes`` and the grids
    ``doubled`` and ``padded`` depend only on the grid; each is built on
    first use, then shared by every caller holding this grid.  The tables'
    arrays are read-only: copy before modifying.  ``xi2`` and ``xi_hat``
    cover the half plane n <= N/2 that a SpectralField stores.
    """

    N: int
    K: int
    h: float

    def __post_init__(self):
        if self.N < 4 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 4, got {self.N}")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if not 0 < self.h < np.inf:
            raise ValueError(f"h must be positive and finite, got {self.h}")
        # products, not **: a Python float ** raises OverflowError instead of giving inf
        lam = (2 * self.K - 1) * np.pi / (2 * self.h)  # the largest lambda_k
        if not (lam * lam < np.inf and 0 < self.h * self.h < np.inf):
            raise ValueError(f"h = {self.h} puts the vertical tables out of floating-point range")

    @property
    def x(self):
        return np.arange(self.N) / self.N

    @property
    def z(self):
        return -self.h + (2 * np.arange(self.K) + 1) * self.h / (2 * self.K)

    @cached_property
    def xi(self) -> np.ndarray:
        """Horizontal wavenumbers 2*pi*m in FFT order, shape (N,)."""
        return _read_only(2.0 * np.pi * np.fft.fftfreq(self.N, d=1.0 / self.N))

    def xi_vectors(self):
        """Wavenumber components (xi_x, xi_y) broadcast to (N, N)."""
        xi = self.xi
        return xi[:, None] * np.ones(self.N), np.ones(self.N)[:, None] * xi

    @cached_property
    def basis(self) -> "VerticalBasis":
        return VerticalBasis(self)

    @cached_property
    def columns(self) -> "ColumnTables":
        """The real DFT along n between the stored columns and this grid's nodes."""
        return ColumnTables(self.N, self)

    @cached_property
    def padded_columns(self) -> "ColumnTables":
        """The real DFT along n between the stored columns and the padded grid's nodes."""
        return ColumnTables(self.N, self.padded)

    @cached_property
    def stokes(self) -> "StokesOperator":
        # imported here: semigroup imports this module, so a top-level import is circular
        from .semigroup import StokesOperator

        return StokesOperator(self)

    @cached_property
    def doubled(self) -> "Grid":
        """The grid (2N, 2K, h), for resolution studies."""
        return Grid(2 * self.N, 2 * self.K, self.h)

    @cached_property
    def padded(self) -> "Grid":
        """The 3/2-padded grid on which products are formed and dealiased."""
        Np = 3 * self.N // 2
        return Grid(Np + Np % 2, (3 * self.K + 1) // 2, self.h)

    def _half_xi_vectors(self):
        return (a[:, : self.N // 2 + 1] for a in self.xi_vectors())

    @cached_property
    def xi2(self) -> np.ndarray:
        """|xi|^2 per horizontal wavenumber of the half plane, shape (N, N/2+1)."""
        xix, xiy = self._half_xi_vectors()
        return _read_only(xix**2 + xiy**2)

    @cached_property
    def xi_hat(self) -> np.ndarray:
        """Unit wavevectors xi/|xi| of the half plane, shape (2, N, N/2+1)."""
        return _read_only(unit_wavevectors(*self._half_xi_vectors()))


def unit_wavevectors(xix: np.ndarray, xiy: np.ndarray) -> np.ndarray:
    """xi/|xi| stacked, shape (2, *xix.shape); the zero vector at xi = 0 (entry [0, 0])."""
    norm = np.sqrt(xix**2 + xiy**2)
    norm[0, 0] = 1.0  # unused at xi = 0
    xi_hat = np.stack([xix / norm, xiy / norm])
    xi_hat[:, 0, 0] = 0.0
    return xi_hat


def _sin_pi(p: np.ndarray, q: int) -> np.ndarray:
    """sin(pi p / q) for integer p, reduced exactly to an angle in [0, pi/2].

    Reducing the integer phase, not the float angle, keeps each entry within
    an ulp or so; applied to data, np.sin(np.outer(lambdas, z + h)) is off
    the DST-IV by up to ~1e-14 relative at K = 48.
    """
    p = p % (2 * q)
    sign = np.where(p >= q, -1.0, 1.0)
    p = p % q
    return sign * np.sin(np.pi * np.minimum(p, q - p) / q)


class ColumnTables:
    """The real DFT along n between the N/2+1 stored columns of a grid of N
    and the M >= N nodes of ``target``, as real tables applied along the
    last axis.

    Complex lanes a[..., n] are read as their (re, im) pairs, a.view(float),
    so each table has 2(N/2+1) rows (or columns), the pair of column n at
    2n and 2n+1.  With theta = 2 pi n j / M:

      inverse  [2n, j], [2n+1, j] = w_n cos theta, -w_n sin theta
               (irfft(a, n=M, norm="forward") of the stored columns)
      dy       [2n, j], [2n+1, j] = -w_n xi_n sin theta, -w_n xi_n cos theta
               (the same of i xi_n a_n, xi the target's wavenumbers)
      forward  [j, 2n], [j, 2n+1] = cos theta / M, -sin theta / M
               (rfft(f, norm="forward") cut to the stored columns)

    w_n is 1 for column 0 and for the Nyquist column n = M/2 of a grid's
    own nodes, and 2 for every column that stands for its mirror too.  On a
    finer grid the Nyquist column N/2 is such a column, weight 2, because
    ``fields._pad_half_spectrum`` has halved it.  The phases come from the
    integer n j mod M, as in :func:`_sin_pi`, so the sines of column 0 and
    of an own-grid Nyquist column are exact zeros: like irfft, ``inverse``
    ignores the imaginary parts of those columns.
    """

    def __init__(self, N: int, target: "Grid"):
        M, L = target.N, N // 2 + 1
        n = np.arange(L)[:, None]
        p = n * np.arange(M) % M  # theta = 2 pi p / M
        cos, sin = _sin_pi(M - 4 * p, 2 * M), _sin_pi(4 * p, 2 * M)
        w = np.where((n == 0) | (2 * n == M), 1.0, 2.0)
        xi = target.xi[:L, None]

        def pairs(re, im):
            return np.stack([re, im], axis=1).reshape(2 * L, M)

        self.inverse = _read_only(pairs(w * cos, -w * sin))
        self.dy = _read_only(pairs(-w * xi * sin, -w * xi * cos))
        self.forward = _read_only(np.ascontiguousarray(pairs(cos, -sin).T) / M)


class VerticalBasis:
    """Sine modes phi_k(z) = sin(lambda_k (z+h)), lambda_k = (2k+1)pi/(2h).

    Each phi_k vanishes at z = -h and has vanishing derivative at z = 0.
    ``betas`` expands the constant 1 in the (infinite) basis; its truncation
    to K modes has vertical mean sigma_K < 1, which downstream code corrects
    by dividing out sigma_K.

    The vertical transforms are K x K tables, applied as ``a @ table`` along
    the last axis.  Mode-to-node tables are indexed [k, j], node j at z_j:

      sine       phi_k(z_j)                           (DST-IV / 2)
      dsine      phi_k'(z_j) = lambda_k cos(...)      (lambda * DCT-IV / 2)
      antideriv  int_{-h}^{z_j} phi_k = (1 - cos(...)) / lambda_k

    and ``analysis`` [j, k] takes node values to coefficients (DST-IV / K).
    Since lambda_k (z_j + h) = pi (2k+1)(2j+1) / (4K) whatever h and K are,
    rows k < K' of a finer grid's tables are the first K' modes at the finer
    nodes, and columns k < K' of its ``analysis`` give those modes' coefficients.

    The Stokes operator's parallel block M_z = -diag(lambda^2) + b lambda^T,
    b = betas_t / h, has lambda_k b_k = c = 2 / (h^2 sigma_K) for every k, so
    diag(lambda) M_z diag(lambda)^{-1} = -diag(lambda^2) + c 1 1^T is
    symmetric (Golub, SIAM Rev. 1973).  ``theta`` (ascending) and the
    orthogonal ``Q`` are its eigendecomposition, so that

      f(M_z) = diag(1/lambda) Q f(Theta) Q^T diag(lambda).

    1/lambda^2 is its exact null vector (1/lambda is M_z's left one), so the
    eigenvalue nearest 0 is set to exactly 0 and its column to 1/lambda^2
    normalized; the others lie in (-lambda_k^2, -lambda_{k-1}^2) by interlacing.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        k = np.arange(grid.K)
        self.lambdas = _read_only((2 * k + 1) * np.pi / (2 * grid.h))
        self.betas = _read_only(2.0 / (grid.h * self.lambdas))
        self.sigmaK = (2.0 / grid.h**2) * np.sum(self.lambdas ** (-2.0))
        # renormalized expansion of 1: unit vertical mean in the truncation
        self.betas_t = _read_only(self.betas / self.sigmaK)
        K = grid.K
        phase = np.outer(2 * k + 1, 2 * k + 1)  # lambda_k (z_j + h) = pi * phase / (4K)
        lam = self.lambdas[:, None]
        self.sine = _read_only(_sin_pi(phase, 4 * K))
        self.dsine = _read_only(lam * _sin_pi(phase + 2 * K, 4 * K))
        # 1 - cos(t) = 2 sin(t/2)^2, free of cancellation near the bottom
        self.antideriv = _read_only(2.0 * _sin_pi(phase, 8 * K) ** 2 / lam)
        self.analysis = _read_only(self.sine.T * (2.0 / K))
        theta, Q = np.linalg.eigh(2.0 / (grid.h**2 * self.sigmaK) - np.diag(self.lambdas**2))
        zero = np.argmin(np.abs(theta))
        theta[zero] = 0.0
        null = (self.lambdas[0] / self.lambdas) ** 2  # 1/lambda^2, scaled to stay in range
        Q[:, zero] = null / np.linalg.norm(null)
        self.theta = _read_only(theta)
        self.Q = _read_only(Q)


def parallel_exp(basis: VerticalBasis, t: float) -> np.ndarray:
    """e^{t M_z} = diag(1/lambda) Q e^{t Theta} Q^T diag(lambda), for t >= 0.

    Theta <= 0, so the block cannot overflow at any depth.
    """
    lam = basis.lambdas
    return (basis.Q * (np.exp(t * basis.theta) / lam[:, None])) @ (basis.Q.T * lam)
