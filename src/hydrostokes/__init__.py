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
