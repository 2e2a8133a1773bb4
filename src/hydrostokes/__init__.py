"""Pseudospectral tools for the 3-d primitive equations on a periodic layer.

The horizontal directions are discretized by Fourier modes on the unit torus,
the vertical direction by the sine modes sin(lambda_k (z+h)) with
lambda_k = (2k+1) pi / (2h), which satisfy a homogeneous Dirichlet condition
at the bottom z = -h and a Neumann condition at the surface z = 0.  On top of
this basis the package provides the hydrostatic Helmholtz projection, the
per-mode hydrostatic Stokes semigroup with exact matrix exponentials, the
advective nonlinearity with 2/3-rule dealiasing, a mild-solution solver that
splits rough data into a smooth reference part plus a small remainder handled
by Picard iteration, and a laboratory of numerical checks for the linear and
nonlinear estimates the construction rests on.
"""

from .basis import Grid, VerticalBasis
from .fields import (
    PhysicalField,
    SpectralField,
    forward_transform,
    horizontal_derivative,
    inverse_transform,
    norm_anisotropic,
    vertical_derivative,
    vertical_integral_from_bottom,
    vertical_mean,
)
from .projection import (
    check_solenoidal,
    helmholtz_2d,
    project_hydrostatic,
    recover_pressure_gradient,
)
from .semigroup import StokesOperator, spectral_bound
from .nonlinear import advection, divergence_form, vertical_velocity
from .solver import (
    IterationReport,
    SolverConfig,
    Trajectory,
    full_solve,
    mild_residual,
    picard_iterate,
    reference_solve,
    split_data,
)

__all__ = [
    "Grid",
    "VerticalBasis",
    "PhysicalField",
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "horizontal_derivative",
    "vertical_derivative",
    "vertical_mean",
    "vertical_integral_from_bottom",
    "norm_anisotropic",
    "helmholtz_2d",
    "project_hydrostatic",
    "check_solenoidal",
    "recover_pressure_gradient",
    "StokesOperator",
    "spectral_bound",
    "vertical_velocity",
    "advection",
    "divergence_form",
    "SolverConfig",
    "Trajectory",
    "IterationReport",
    "split_data",
    "reference_solve",
    "picard_iterate",
    "full_solve",
    "mild_residual",
]
