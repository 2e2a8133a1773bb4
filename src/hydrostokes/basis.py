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

    The spectral tables ``basis``, ``xi2`` and ``xi_hat`` and the Stokes
    operator ``stokes`` depend only on the grid; each is built on first use,
    then shared by every caller holding this grid.  The tables' arrays are
    read-only: copy before modifying.
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

    @property
    def x(self):
        return np.arange(self.N) / self.N

    @property
    def z(self):
        return -self.h + (2 * np.arange(self.K) + 1) * self.h / (2 * self.K)

    @property
    def xi(self):
        """Horizontal wavenumbers 2*pi*m in FFT order, shape (N,)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=1.0 / self.N)

    def xi_vectors(self):
        """Wavenumber components (xi_x, xi_y) broadcast to (N, N)."""
        xi = self.xi
        return xi[:, None] * np.ones(self.N), np.ones(self.N)[:, None] * xi

    @cached_property
    def basis(self) -> "VerticalBasis":
        return VerticalBasis(self)

    @cached_property
    def stokes(self) -> "StokesOperator":
        # imported here: semigroup imports this module, so a top-level import is circular
        from .semigroup import StokesOperator

        return StokesOperator(self)

    @cached_property
    def xi2(self) -> np.ndarray:
        """|xi|^2 per horizontal wavenumber, shape (N, N)."""
        xix, xiy = self.xi_vectors()
        return _read_only(xix**2 + xiy**2)

    @cached_property
    def xi_hat(self) -> np.ndarray:
        """Unit wavevectors xi/|xi|, shape (2, N, N); the zero vector at xi = 0."""
        xix, xiy = self.xi_vectors()
        norm = np.sqrt(self.xi2)
        norm[0, 0] = 1.0  # unused at xi = 0
        xi_hat = np.stack([xix / norm, xiy / norm])
        xi_hat[:, 0, 0] = 0.0
        return _read_only(xi_hat)


class VerticalBasis:
    """Sine modes phi_k(z) = sin(lambda_k (z+h)), lambda_k = (2k+1)pi/(2h).

    Each phi_k vanishes at z = -h and has vanishing derivative at z = 0.
    ``betas`` expands the constant 1 in the (infinite) basis; its truncation
    to K modes has vertical mean sigma_K < 1, which downstream code corrects
    by dividing out sigma_K.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        k = np.arange(grid.K)
        self.lambdas = _read_only((2 * k + 1) * np.pi / (2 * grid.h))
        self.betas = _read_only(2.0 / (grid.h * self.lambdas))
        self.sigmaK = (2.0 / grid.h**2) * np.sum(self.lambdas ** (-2.0))
        # renormalized expansion of 1: unit vertical mean in the truncation
        self.betas_t = _read_only(self.betas / self.sigmaK)

    def sample(self, z):
        """phi_k evaluated at points z, shape (K, len(z))."""
        return np.sin(np.outer(self.lambdas, np.asarray(z) + self.grid.h))

    def sample_derivative(self, z):
        """phi_k' evaluated at points z, shape (K, len(z))."""
        lam = self.lambdas
        return lam[:, None] * np.cos(np.outer(lam, np.asarray(z) + self.grid.h))
