"""Numerical verification of the linear and nonlinear estimates.

Each scan evaluates the ratio (left-hand side) / (right-hand side without
the unknown constant) over a parameter grid and random sample fields, and
reports the empirical supremum.  The constants in the underlying inequalities
are existential, so scans assert only finiteness and stability under
resolution doubling; the few closed-form identities (kernel norms, the
discrete Young inequality, the recursion bound) are checked exactly.  No
sample is dropped for a small denominator: each denominator is a norm of a
random sample of unit amplitude, and column_norms rescales rather than
underflowing, so it is positive at any depth and exponent.  The one point
a scan drops is a disk of the interpolation scan that holds no node.

The semigroup scan propagates two data in turn, one sample at a time: P f0
of a random f0, then P dz f of a boundary-flat f.

These are the scans that ``hydrostokes verify`` runs.  The paper's two L^inf
facts, that Q is unbounded on L^inf and the log-Riesz bound, and the
small-time smoothing trend are checked by the tests alone, with their
reference implementations (tests/oracles.py).
"""

from dataclasses import dataclass

import numpy as np

from .basis import Grid
from .fields import (
    NodeValues,
    PhysicalField,
    SpectralField,
    forward_transform,
    hermitian_part,
    inverse_transform,
    norm_anisotropic,
    vertical_derivative,
    weighted_lp,
)
from .nonlinear import advection
from .projection import helmholtz_2d, project_hydrostatic
from .sampling import random_field
from .semigroup import spectral_bound
from .solver import grad_mixed_norm, mixed_norm

# floor of resolution_stability's relative drift, for a sup ratio of 0
DENOM_FLOOR = 1e-14
# half-angles of the sectors the resolvent scan samples lambda and the
# multiplier scan accepts tau in; e^{tau Delta_H} is analytic below pi/2
RESOLVENT_THETA = 0.9 * np.pi
MULTIPLIER_THETA = np.pi / 3
# side of the periodic cube the Young samples live on (even, >= 4)
YOUNG_GRID = 8
# iterations of the recursion a_{m+1} = a0 + c1 a_m^2 + c2 a_m that are checked
RECURSION_STEPS = 50
# largest relative change of a sup ratio under resolution doubling that counts as stable
STABILITY_REL_TOL = 0.10
# Gauss-Laguerre nodes of the kernel norms: the rule is exact for polynomials
# of degree <= 3 times e^{-x}, and both radial integrands are of degree 1, so
# its error is round-off (which more nodes only increase)
KERNEL_QUAD_NODES = 2


@dataclass
class ScanReport:
    """A scan's ratios and their sup; ``stable`` is set by
    resolution_stability: whether the sup held under resolution doubling."""

    estimate: str
    params: list  # one entry per sample point (tuples or scalars)
    ratios: np.ndarray
    sup_ratio: float = 0.0
    stable: bool | None = None

    def __post_init__(self):
        self.ratios = np.asarray(self.ratios, dtype=float)
        if len(self.ratios):
            self.sup_ratio = float(self.ratios.max())


# -- kernel identity -------------------------------------------------------


def kernel_l1_norm(lam: complex):
    """L^1 norms of the resolvent kernel e^{-sqrt(lam)|x|}/(4 pi |x|).

    Returns numeric and exact values of |lam| * ||K||_1 (exact sec^2(psi/2))
    and of the upper bound for |lam|^{1/2} * ||grad K||_1 (sec + sec^2).
    The numeric values integrate the radial profiles r e^{-rho r} and
    (1 + |lam|^{1/2} r) e^{-rho r}, rho = Re sqrt(lam), over r > 0 by
    Gauss-Laguerre quadrature after the substitution x = rho r.
    """
    lam = complex(lam)
    psi = np.angle(lam)
    if not (abs(psi) < np.pi) or lam == 0:
        raise ValueError(f"lambda must lie in the open sector |arg| < pi, got {lam}")
    rho = np.sqrt(abs(lam)) * np.cos(psi / 2.0)
    x, w = np.polynomial.laguerre.laggauss(KERNEL_QUAD_NODES)
    val = w @ x / rho**2
    grad = w @ (1 + np.sqrt(abs(lam)) * x / rho) / rho
    sec = 1.0 / np.cos(psi / 2.0)
    return {
        "kernel_numeric": abs(lam) * val,
        "kernel_exact": sec**2,
        "grad_numeric": np.sqrt(abs(lam)) * grad,
        "grad_exact": sec + sec**2,
    }


# -- anisotropic Young -----------------------------------------------------


def young_anisotropic_test(n_samples: int, q, p, seed: int = 0) -> ScanReport:
    """Discrete periodic convolution: ||g*f||_{q,p} <= ||g||_1 ||f||_{q,p}.

    Scalar samples live on the unit 3-torus, viewed as the unit-depth layer.
    """
    rng = np.random.default_rng(seed)
    ratios = []
    vol = 1.0 / YOUNG_GRID**3
    cube = Grid(YOUNG_GRID, YOUNG_GRID, 1.0)
    # one draw holds every sample's f and g, in the order per-sample draws
    # take them, and one transform each way serves all samples: an 8^3 FFT
    # alone costs mostly its call overhead
    fg = rng.standard_normal((n_samples, 2) + (YOUNG_GRID,) * 3)
    fg_hat = np.fft.fftn(fg, axes=(2, 3, 4))
    convs = np.fft.ifftn(fg_hat[:, 0] * fg_hat[:, 1], axes=(1, 2, 3)).real * vol
    for (f, g), conv in zip(fg, convs):
        denom = np.sum(np.abs(g)) * vol * norm_anisotropic(PhysicalField(f[None], cube), q, p)
        ratios.append(norm_anisotropic(PhysicalField(conv[None], cube), q, p) / denom)
    return ScanReport("young", list(range(n_samples)), ratios)


# -- semigroup decay scans -------------------------------------------------

SEMIGROUP_COMBOS = ("grad_sg", "grad_sg_proj", "sg_proj_dz", "grad_sg_proj_dz")


def _boundary_flat_sample(grid: Grid, seed: int):
    """Smooth field vanishing at both vertical boundaries, and its dz.

    f = bump(z) * G with bump = sin^2(pi (z+h)/h); both factors and their
    z-derivatives are evaluated exactly at the nodes, so dz f is exact and
    P dz f = dz f holds for the continuum field it samples.
    """
    G = random_field(grid, ncomp=2, seed=seed, decay=3.0)
    Gphys = inverse_transform(G).values
    dzG = vertical_derivative(G).values
    z = grid.z
    bump = np.sin(np.pi * (z + grid.h) / grid.h) ** 2
    dbump = 2 * np.pi / grid.h * np.sin(np.pi * (z + grid.h) / grid.h) * np.cos(
        np.pi * (z + grid.h) / grid.h
    )
    f = forward_transform(PhysicalField(bump * Gphys, grid))
    dzf = forward_transform(PhysicalField(dbump * Gphys + bump * dzG, grid))
    return f, dzf


def _sup_norms(v: SpectralField, p: float):
    """(||v||, ||grad v||) in L^inf_H L^p_z, from one sweep over the slabs of one NodeValues."""
    return tuple(NodeValues(v).norms(("u", "grad"), np.inf, p))


def semigroup_decay_scan(t_grid, n_samples: int, p: float, grid: Grid, seed: int = 0) -> dict:
    """Weighted decay ratios of every derivative/projection/semigroup combo.

    Returns {combo: ScanReport} in SEMIGROUP_COMBOS order, params (i, t)
    with samples outermost, every ratio divided by e^{beta t}.  One sweep per
    sample propagates P f0 for grad_sg (over ||P f0||) and grad_sg_proj
    (over ||f0||); after every sample of it, one per sample propagates P dz f,
    f boundary-flat, for sg_proj_dz and grad_sg_proj_dz (over ||f||).  Each
    datum dies before the next draw.
    """
    beta = spectral_bound(grid)[0]
    op = grid.stokes
    t_grid = np.asarray(t_grid, dtype=float)
    params = [(i, t) for i in range(n_samples) for t in t_grid]
    ratios = {c: [] for c in SEMIGROUP_COMBOS}
    # the ratios are scale-invariant, so P f0 stands for the solenoidal sample
    for i in range(n_samples):
        f = random_field(grid, seed=seed + i)
        datum = project_hydrostatic(f)
        pn, fn = mixed_norm(datum, p), mixed_norm(f, p)
        del f
        for t in t_grid:
            lhs = np.sqrt(t) * grad_mixed_norm(op.semigroup_apply(t, datum), p)
            weight = np.exp(beta * t)
            ratios["grad_sg"].append(lhs / (weight * pn))
            ratios["grad_sg_proj"].append(lhs / (weight * fn))
        del datum  # before the next sample draws
    for i in range(n_samples):
        f, dzf = _boundary_flat_sample(grid, seed + i)
        fn = mixed_norm(f, p)
        datum = project_hydrostatic(dzf)
        del f, dzf
        for t in t_grid:
            a, b = _sup_norms(op.semigroup_apply(t, datum), p)
            weight = np.exp(beta * t)
            ratios["sg_proj_dz"].append(np.sqrt(t) * a / (weight * fn))
            ratios["grad_sg_proj_dz"].append(t * b / (weight * fn))
        del datum
    return {c: ScanReport(c, params, ratios[c]) for c in SEMIGROUP_COMBOS}


# -- resolvent scans -------------------------------------------------------


def resolvent_scan(lam_moduli, n_samples: int, p, grid: Grid, seed: int = 0) -> dict:
    """Sectorial resolvent ratios over lambda = |lambda| e^{i psi}, |psi| < RESOLVENT_THETA.

    Returns {"resolvent": ..., "resolvent_dz": ...}: with v = Re (lambda - A)^{-1} f
    and norms in L^inf_H L^p_z, (|lambda| ||v|| + |lambda|^{1/2} ||grad v||) / ||f||
    and |lambda|^{1/2} ||dx v|| / ||f||, both from one solve per sample and
    lambda (dx commutes with the per-mode resolvent).  As |Re v| <= |v|, complex
    lambda can understate the sectorial bound.  A is real, so Re v is the same
    at conj lambda: the scan covers psi in {0, 0.5, 0.9} RESOLVENT_THETA.
    No scanned lambda is near the spectrum: d and e of resolvent_apply are
    lambda plus a real mu >= 0, so |d|, |e| >= |lambda| sin(0.19 pi) > 0.56
    |lambda| at psi = 0.81 pi, and >= |lambda| at the other two angles.
    Raises ValueError unless every modulus is positive and finite.
    """
    mods = np.asarray(lam_moduli, dtype=float)
    if not np.all(np.isfinite(mods) & (mods > 0)):
        raise ValueError(f"lambda moduli must be positive and finite, got {lam_moduli}")
    op = grid.stokes
    psis = np.array([0.0, 0.5, 0.9]) * RESOLVENT_THETA
    params, ratios, dz_ratios = [], [], []
    for i in range(n_samples):
        f = random_field(grid, seed=seed + i, solenoidal=True)
        fn = NodeValues(f).norm("u", np.inf, p)
        for mod in lam_moduli:
            for psi in psis:
                lam = mod * np.exp(1j * psi)
                nodes = NodeValues(op.resolvent_apply(lam, f))
                norm, grad, dx = nodes.norms(("u", "grad", "dx"), np.inf, p)
                root = np.sqrt(abs(lam))
                ratios.append((abs(lam) * norm + root * grad) / fn)
                dz_ratios.append(root * dx / fn)
                params.append((i, mod, psi))
    return {
        "resolvent": ScanReport("resolvent", params, ratios),
        "resolvent_dz": ScanReport("resolvent_dz", params, dz_ratios),
    }


# -- 2-d multiplier scan ---------------------------------------------------


def _phys2d(ghat: np.ndarray, N: int) -> np.ndarray:
    return np.fft.ifft2(ghat * N**2, axes=(-2, -1))


def _draw_2d(rng, N: int, env=1.0) -> np.ndarray:
    """Hermitian part of env times a complex Gaussian (2, N, N), real part drawn first."""
    z = rng.standard_normal((2, N, N)) + 1j * rng.standard_normal((2, N, N))
    return hermitian_part(z * env)


def _sup_2d(ghat: np.ndarray, N: int) -> float:
    """Node sup of |f|, f the real 2-vector field of full-plane coefficients ghat."""
    return np.linalg.norm(_phys2d(ghat, N).real, axis=0).max()


def horizontal_multiplier_scan(tau_grid, n_samples: int, N: int = 32, seed: int = 0) -> ScanReport:
    """|tau|^{1/2} ||grad_H e^{tau Delta_H} Q f||_inf / ||f||_inf on the 2-torus,
    tau finite with |arg tau| < MULTIPLIER_THETA (ValueError otherwise)."""
    taus = np.asarray(tau_grid, dtype=complex)
    if not np.all(np.isfinite(taus) & (np.abs(np.angle(taus)) < MULTIPLIER_THETA)):
        raise ValueError("tau must be finite and lie in the sector |arg tau| < pi/3")
    grid = Grid(N, 1, 1.0)
    xix, xiy = grid.xi_vectors()
    xi2 = xix**2 + xiy**2
    rng = np.random.default_rng(seed)
    ratios, params = [], []
    env = (1.0 + xi2 / (2 * np.pi) ** 2) ** (-1.0)
    for i in range(n_samples):
        ghat = _draw_2d(rng, N, env)
        fn = _sup_2d(ghat, N)
        heat = np.exp(-taus[:, None, None] * xi2)[:, None] * helmholtz_2d(ghat, grid)
        # d/dx and d/dy of the sample under every tau in one inverse transform
        gx, gy = _phys2d(1j * np.stack([xix, xiy])[:, None, None] * heat, N)
        mags = np.sqrt((np.abs(gx) ** 2 + np.abs(gy) ** 2).sum(axis=1)).max(axis=(1, 2))
        for tau, mag in zip(taus, mags):
            ratios.append(np.sqrt(abs(tau)) * mag / fn)
            params.append((i, complex(tau)))
    return ScanReport("multiplier", params, ratios)


# -- interpolation and log-Riesz scans ------------------------------------


def _disk_mask(grid: Grid, center, r: float) -> np.ndarray:
    x = grid.x
    dx = np.abs(x[:, None] - center[0])
    dy = np.abs(x[None, :] - center[1])
    dx = np.minimum(dx, 1.0 - dx)
    dy = np.minimum(dy, 1.0 - dy)
    return dx**2 + dy**2 <= r**2


def interpolation_ratio(n_samples: int, p: float, r_grid, grid: Grid, seed: int = 0) -> ScanReport:
    """Local sup bound via r^{-2/p}(||v|| + r ||grad_H v||) on horizontal disks,
    each column measured in L^2_z."""
    if not p > 2:
        raise ValueError(f"interpolation scan needs p > 2, got {p}")
    rng = np.random.default_rng(seed)
    ratios, params = [], []
    for i in range(n_samples):
        nodes = NodeValues(random_field(grid, seed=seed + i, decay=2.5))
        vcol, gcol = nodes.norm_columns([("u",), ("dx", "dy")], 2)
        center = rng.random(2)
        for r in r_grid:
            mask = _disk_mask(grid, center, r)
            if not mask.any():  # a small disk can hold no node
                continue
            lhs = vcol[mask].max()
            vp = weighted_lp(vcol[mask], p, 1.0 / grid.N**2)
            gp = weighted_lp(gcol[mask], p, 1.0 / grid.N**2)
            ratios.append(lhs / (r ** (-2.0 / p) * (vp + r * gp)))
            params.append((i, r))
    return ScanReport("interpolation", params, ratios)


# -- nonlinear estimate scans ----------------------------------------------


def nonlinear_estimate_scan(
    n_pairs: int, t_grid, p: float, grid: Grid, seed: int = 0
) -> ScanReport:
    """Ratios for the four semigroup-nonlinearity estimates."""
    op = grid.stokes
    ratios, params = [], []
    for i in range(n_pairs):
        v1 = random_field(grid, seed=seed + 2 * i, solenoidal=True)
        v2 = random_field(grid, seed=seed + 2 * i + 1, solenoidal=True)
        (n1, g1), (n2, g2) = _sup_norms(v1, p), _sup_norms(v2, p)
        nl = project_hydrostatic(advection(v1, v2))
        for t in np.asarray(t_grid, dtype=float):
            a, b = _sup_norms(op.semigroup_apply(t, nl), p)
            ratios.append(np.sqrt(t) * a / (g1 * n2))
            params.append((i, t, "i"))
            ratios.append(np.sqrt(t) * b / (g1 * g2))
            params.append((i, t, "ii"))
            ratios.append(t * b / (g1 * n2))
            params.append((i, t, "iii"))
            denom4 = min(g1 * n2, g2 * n1) / np.sqrt(t) + g1 * g2
            ratios.append(a / denom4)
            params.append((i, t, "iv"))
    return ScanReport("nonlinear", params, ratios)


# -- recursion lemma -------------------------------------------------------


def recursion_bound_check(a0: float, c1: float, c2: float):
    """Iterate a_{m+1} = a0 + c1 a_m^2 + c2 a_m and check a_m < 2 a0/(1-c2)."""
    if not c1 > 0:
        raise ValueError(f"c1 must be positive, got {c1}")
    if not 0 < c2 < 1:
        raise ValueError(f"c2 must lie in (0,1), got {c2}")
    if not 4 * c1 * a0 < (1 - c2) ** 2:
        raise ValueError(
            f"hypothesis violated: 4*c1*a0 = {4 * c1 * a0:.6g} >= (1-c2)^2 = {(1 - c2) ** 2:.6g}"
        )
    seq = [a0]
    for _ in range(RECURSION_STEPS):
        a = seq[-1]
        seq.append(a0 + c1 * a * a + c2 * a)
    bound = 2.0 * a0 / (1.0 - c2)
    ok = all(a < bound + 1e-12 for a in seq)
    return np.array(seq), bound, ok


# -- stability helper ------------------------------------------------------


def resolution_stability(base: ScanReport, fine: ScanReport):
    """Compare the sups of one scan at (N,K) and at (2N,2K).

    Marks ``base`` stable when its sup ratio moved by at most
    STABILITY_REL_TOL and returns (base, fine).
    """
    drift = abs(fine.sup_ratio - base.sup_ratio) / max(base.sup_ratio, DENOM_FLOOR)
    base.stable = drift <= STABILITY_REL_TOL
    return base, fine
