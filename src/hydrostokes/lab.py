"""Numerical verification of the linear and nonlinear estimates.

Each scan evaluates the ratio (left-hand side) / (right-hand side without
the unknown constant) over a parameter grid and random sample fields, and
reports the empirical supremum.  The constants in the underlying inequalities
are existential, so scans assert only finiteness and stability under
resolution doubling; the few closed-form identities (kernel norms, the
discrete Young inequality, the recursion bound) are checked exactly.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .basis import Grid
from .fields import (
    NodeValues,
    PhysicalField,
    SpectralField,
    column_norms,
    forward_transform,
    hermitian_part,
    horizontal_derivative,
    inverse_transform,
    norm_anisotropic,
    vertical_derivative,
    weighted_lp,
)
from .nonlinear import advection
from .projection import helmholtz_2d, project_hydrostatic
from .sampling import random_field
from .semigroup import SingularityError, spectral_bound
from .solver import grad_mixed_norm, mixed_norm

DENOM_FLOOR = 1e-14
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
    estimate: str
    params: list  # one entry per sample point (tuples or scalars)
    ratios: np.ndarray
    sup_ratio: float = 0.0
    resolutions: tuple = ()
    stable: bool | None = None
    skipped: int = 0
    notes: str = ""

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
    ratios, params, skipped = [], [], 0
    vol = 1.0 / YOUNG_GRID**3
    cube = Grid(YOUNG_GRID, YOUNG_GRID, 1.0)
    for i in range(n_samples):
        f = rng.standard_normal((YOUNG_GRID,) * 3)
        g = rng.standard_normal((YOUNG_GRID,) * 3)
        conv = sfft.ifftn(sfft.fftn(f) * sfft.fftn(g)).real * vol
        denom = np.sum(np.abs(g)) * vol * norm_anisotropic(PhysicalField(f[None], cube), q, p)
        if denom < DENOM_FLOOR:
            skipped += 1
            continue
        ratios.append(norm_anisotropic(PhysicalField(conv[None], cube), q, p) / denom)
        params.append(i)
    return ScanReport("young", params, ratios, skipped=skipped, notes=f"(q,p)=({q},{p})")


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


def _projected_datum(grid: Grid, seed: int, p: float):
    """Datum P f0 of grad_sg and grad_sg_proj, f0 = random_field(grid, seed).

    random_field(solenoidal=True) draws the same f0 and rescales P f0.  Each
    ratio is homogeneous of degree 0 in the field, so grad_sg's is that of
    P f0 over ||P f0||, and one propagation serves both.
    """
    f = random_field(grid, seed=seed)
    g = project_hydrostatic(f)
    return g, {"grad_sg": mixed_norm(g, p), "grad_sg_proj": mixed_norm(f, p)}


def _projected_lhs(t, v: SpectralField, p: float):
    lhs = np.sqrt(t) * grad_mixed_norm(v, p)
    return {"grad_sg": lhs, "grad_sg_proj": lhs}


def _boundary_flat_datum(grid: Grid, seed: int, p: float):
    """Datum P dz f of sg_proj_dz and grad_sg_proj_dz, f boundary-flat."""
    f, dzf = _boundary_flat_sample(grid, seed)
    fn = mixed_norm(f, p)
    return project_hydrostatic(dzf), {"sg_proj_dz": fn, "grad_sg_proj_dz": fn}


def _boundary_flat_lhs(t, v: SpectralField, p: float):
    nodes = NodeValues(v)
    return {
        "sg_proj_dz": np.sqrt(t) * nodes.norm("u", np.inf, p),
        "grad_sg_proj_dz": t * nodes.norm("grad", np.inf, p),
    }


# sample families: (combos sharing one datum,
#   sample(grid, seed, p) -> (datum, {combo: ||f||}),
#   lhs(t, e^{tA} datum, p) -> {combo: left-hand side})
_FAMILIES = (
    (("grad_sg", "grad_sg_proj"), _projected_datum, _projected_lhs),
    (("sg_proj_dz", "grad_sg_proj_dz"), _boundary_flat_datum, _boundary_flat_lhs),
)


def _family_reports(combos, sample, lhs, t_grid, n_samples, p, grid: Grid, seed, beta):
    """One ScanReport per combo of a family, one semigroup_apply per sample and t.

    A sample's intermediate fields die when ``sample`` returns, its datum
    before the next sample draws, and the family's fields with this call,
    before the next family draws.
    """
    op = grid.stokes
    params = {c: [] for c in combos}
    ratios = {c: [] for c in combos}
    skipped = dict.fromkeys(combos, 0)
    for i in range(n_samples):
        datum, denoms = sample(grid, seed + i, p)
        live = []
        for c in combos:
            if denoms[c] < DENOM_FLOOR:
                skipped[c] += 1
            else:
                live.append(c)
        if not live:
            continue
        for t in t_grid:
            vals = lhs(t, op.semigroup_apply(t, datum), p)
            weight = np.exp(beta * t)
            for c in live:
                ratios[c].append(vals[c] / (weight * denoms[c]))
                params[c].append((i, t))
        del datum  # before the next sample draws
    return {
        c: ScanReport(c, params[c], ratios[c], resolutions=(grid.N, grid.K), skipped=skipped[c])
        for c in combos
    }


def semigroup_decay_scan(t_grid, n_samples: int, p: float, grid: Grid, seed: int = 0) -> dict:
    """Weighted decay ratios of every derivative/projection/semigroup combo.

    Returns {combo: ScanReport} in SEMIGROUP_COMBOS order.  Combos that
    propagate the same datum share one semigroup sweep per sample: the
    projected family (grad_sg, grad_sg_proj) and the boundary-flat family
    (sg_proj_dz, grad_sg_proj_dz).
    """
    beta = spectral_bound(grid)[0]
    t_grid = np.asarray(t_grid, dtype=float)
    reports = {}  # _FAMILIES lists the combos in SEMIGROUP_COMBOS order
    for combos, sample, lhs in _FAMILIES:
        reports.update(_family_reports(combos, sample, lhs, t_grid, n_samples, p, grid, seed, beta))
    return reports


def smoothing_trend(grid: Grid, p: float, seed: int = 0):
    """t^{1/2} ||grad e^{tA} f|| on a geometric small-t grid, smooth solenoidal f.

    For data in the solenoidal space this quantity tends to 0 with t.
    """
    op = grid.stokes
    t_grid = np.geomspace(1e-5, 1e-1, 9)
    f = random_field(grid, seed=seed, decay=4.0, solenoidal=True)
    return t_grid, np.array(
        [np.sqrt(t) * grad_mixed_norm(op.semigroup_apply(t, f), p) for t in t_grid]
    )


# -- resolvent scans -------------------------------------------------------


def resolvent_scan(
    theta: float,
    lam_moduli,
    n_samples: int,
    q,
    p,
    grid: Grid,
    seed: int = 0,
    derivative_datum: bool = False,
) -> ScanReport:
    """Sectorial resolvent estimate ratios over lambda = |lambda| e^{i psi} in Sigma_theta.

    The left-hand side measures the real field Re (lambda - A)^{-1} f that
    ``resolvent_apply`` returns, and |Re v| <= |v| pointwise, so for complex
    lambda the ratios can understate the sectorial bound.  A is real, so that
    real part is the same for lambda and conj lambda: the scan covers the
    sector's upper half, psi in {0, 0.5 theta, 0.9 theta}, one solve per
    conjugate pair.
    """
    op = grid.stokes
    psis = np.array([0.0, 0.5, 0.9]) * theta
    ratios, params, skipped = [], [], 0
    for i in range(n_samples):
        f = random_field(grid, seed=seed + i, solenoidal=True)
        fn = NodeValues(f).norm("u", q, p)
        if fn < DENOM_FLOOR:
            skipped += 1
            continue
        datum = horizontal_derivative(f, "x") if derivative_datum else f
        for mod in lam_moduli:
            for psi in psis:
                lam = mod * np.exp(1j * psi)
                try:
                    nodes = NodeValues(op.resolvent_apply(lam, datum))
                except SingularityError:
                    skipped += 1
                    continue
                un = nodes.norm("u", q, p)
                if derivative_datum:
                    lhs = np.sqrt(abs(lam)) * un
                else:
                    lhs = abs(lam) * un + np.sqrt(abs(lam)) * nodes.norm("grad", q, p)
                ratios.append(lhs / fn)
                params.append((i, mod, psi))
    name = "resolvent_dz" if derivative_datum else "resolvent"
    return ScanReport(name, params, ratios, resolutions=(grid.N, grid.K), skipped=skipped)


# -- 2-d multiplier scan ---------------------------------------------------


def _phys2d(ghat: np.ndarray, N: int) -> np.ndarray:
    return sfft.ifft2(ghat * N**2, axes=(-2, -1))


def horizontal_multiplier_scan(
    tau_grid, n_samples: int, N: int = 32, seed: int = 0, theta: float = np.pi / 3
) -> ScanReport:
    """|tau|^{1/2} ||grad_H e^{tau Delta_H} Q f||_inf / ||f||_inf on the 2-torus."""
    taus = np.asarray(tau_grid, dtype=complex)
    if not (theta < np.pi / 2 and np.all(np.isfinite(taus) & (np.abs(np.angle(taus)) < theta))):
        raise ValueError("tau must be finite and lie in a sector of half-angle theta < pi/2")
    grid = Grid(N, 1, 1.0)
    xix, xiy = grid.xi_vectors()
    xi2 = xix**2 + xiy**2
    rng = np.random.default_rng(seed)
    ratios, params, skipped = [], [], 0
    env = (1.0 + xi2 / (2 * np.pi) ** 2) ** (-1.0)
    for i in range(n_samples):
        ghat = (rng.standard_normal((2, N, N)) + 1j * rng.standard_normal((2, N, N))) * env
        # enforce reality of the sample field
        ghat = hermitian_part(ghat)
        fn = np.abs(np.linalg.norm(_phys2d(ghat, N).real, axis=0)).max()
        if fn < DENOM_FLOOR:
            skipped += 1
            continue
        qf = helmholtz_2d(ghat, grid)
        for tau in taus:
            heat = np.exp(-tau * xi2) * qf
            gx = _phys2d(1j * xix * heat, N)
            gy = _phys2d(1j * xiy * heat, N)
            mag = np.sqrt((np.abs(gx) ** 2 + np.abs(gy) ** 2).sum(axis=0)).max()
            ratios.append(np.sqrt(abs(tau)) * mag / fn)
            params.append((i, complex(tau)))
    return ScanReport("multiplier", params, ratios, resolutions=(N,), skipped=skipped)


def q_linfty_growth(N_list, seed: int = 0, n_samples: int = 10):
    """sup ||Qf||_inf / ||f||_inf per resolution.

    The 2-d Helmholtz projection is unbounded on L^inf, so this grows with N;
    reported as a trend, not asserted.
    """
    out = []
    for N in N_list:
        grid = Grid(N, 1, 1.0)
        rng = np.random.default_rng(seed)
        sup = 0.0
        for _ in range(n_samples):
            # rough sample: flat spectrum stresses the unboundedness
            ghat = rng.standard_normal((2, N, N)) + 1j * rng.standard_normal((2, N, N))
            ghat = hermitian_part(ghat)
            f = np.linalg.norm(_phys2d(ghat, N).real, axis=0).max()
            qf = np.linalg.norm(_phys2d(helmholtz_2d(ghat, grid), N).real, axis=0).max()
            sup = max(sup, qf / f)
        # deterministic checkerboard of sign jumps: the known worst case, with
        # Riesz-transform log divergence along the discontinuity lines
        sq = np.sign(np.sin(2 * np.pi * grid.x))
        f1 = sq[:, None] * sq[None, :]
        ghat = np.stack([sfft.fft2(f1) / N**2, np.zeros((N, N), complex)])
        qf = np.linalg.norm(_phys2d(helmholtz_2d(ghat, grid), N).real, axis=0).max()
        sup = max(sup, qf / np.abs(f1).max())
        out.append((N, sup))
    return out


# -- interpolation and log-Riesz scans ------------------------------------


def _disk_mask(grid: Grid, center, r: float) -> np.ndarray:
    x = grid.x
    dx = np.abs(x[:, None] - center[0])
    dy = np.abs(x[None, :] - center[1])
    dx = np.minimum(dx, 1.0 - dx)
    dy = np.minimum(dy, 1.0 - dy)
    return dx**2 + dy**2 <= r**2


def interpolation_ratio(
    n_samples: int, p: float, q, r_grid, grid: Grid, seed: int = 0
) -> ScanReport:
    """Local sup bound via r^{-2/p}(||v|| + r ||grad_H v||) on horizontal disks."""
    if not p > 2:
        raise ValueError(f"interpolation scan needs p > 2, got {p}")
    rng = np.random.default_rng(seed)
    ratios, params, skipped = [], [], 0
    for i in range(n_samples):
        nodes = NodeValues(random_field(grid, seed=seed + i, decay=2.5))
        vcol = column_norms([nodes.u], grid, q)
        gcol = column_norms([nodes.dx, nodes.dy], grid, q)
        center = rng.random(2)
        for r in r_grid:
            mask = _disk_mask(grid, center, r)
            if not mask.any():
                skipped += 1
                continue
            lhs = vcol[mask].max()
            vp = weighted_lp(vcol[mask], p, 1.0 / grid.N**2)
            gp = weighted_lp(gcol[mask], p, 1.0 / grid.N**2)
            denom = r ** (-2.0 / p) * (vp + r * gp)
            if denom < DENOM_FLOOR:
                skipped += 1
                continue
            ratios.append(lhs / denom)
            params.append((i, r))
    return ScanReport("interpolation", params, ratios, resolutions=(grid.N, grid.K), skipped=skipped)


def log_riesz_ratio(n_samples: int, p: float, r_grid, N: int = 32, seed: int = 0) -> ScanReport:
    """||grad_H pi||_{L^p(B_r)} / (r^{2/p}(1+|log r|) ||F||_inf), Delta_H pi = div_H F."""
    grid = Grid(N, 1, 1.0)
    rng = np.random.default_rng(seed)
    ratios, params, skipped = [], [], 0
    xix, xiy = grid.xi_vectors()
    env = (1.0 + (xix**2 + xiy**2) / (2 * np.pi) ** 2) ** (-0.75)
    for i in range(n_samples):
        Fhat = (rng.standard_normal((2, N, N)) + 1j * rng.standard_normal((2, N, N))) * env
        Fhat = hermitian_part(Fhat)
        # grad_H pi is the xi-parallel part of F
        grad = Fhat - helmholtz_2d(Fhat, grid)
        gphys = np.linalg.norm(_phys2d(grad, N).real, axis=0)
        finf = np.linalg.norm(_phys2d(Fhat, N).real, axis=0).max()
        if finf < DENOM_FLOOR:
            skipped += 1
            continue
        center = rng.random(2)
        for r in r_grid:
            mask = _disk_mask(grid, center, r)
            if not mask.any():
                skipped += 1
                continue
            lhs = (np.sum(gphys[mask] ** p) / N**2) ** (1.0 / p)
            denom = r ** (2.0 / p) * (1.0 + abs(np.log(r))) * finf
            ratios.append(lhs / denom)
            params.append((i, r))
    return ScanReport("log_riesz", params, ratios, resolutions=(N,), skipped=skipped)


# -- nonlinear estimate scans ----------------------------------------------


def _sup_norms(v: SpectralField, p: float):
    """(||v||, ||grad v||) in L^inf_H L^p_z, from one NodeValues."""
    nodes = NodeValues(v)
    return nodes.norm("u", np.inf, p), nodes.norm("grad", np.inf, p)


def nonlinear_estimate_scan(
    n_pairs: int, t_grid, p: float, grid: Grid, seed: int = 0
) -> ScanReport:
    """Ratios for the four semigroup-nonlinearity estimates."""
    op = grid.stokes
    ratios, params, skipped = [], [], 0
    for i in range(n_pairs):
        v1 = random_field(grid, seed=seed + 2 * i, solenoidal=True)
        v2 = random_field(grid, seed=seed + 2 * i + 1, solenoidal=True)
        (n1, g1), (n2, g2) = _sup_norms(v1, p), _sup_norms(v2, p)
        if min(n1, n2, g1, g2) < DENOM_FLOOR:
            skipped += 1
            continue
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
    return ScanReport("nonlinear", params, ratios, resolutions=(grid.N, grid.K), skipped=skipped)


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
    STABILITY_REL_TOL, notes the drift, and returns (base, fine).
    """
    drift = abs(fine.sup_ratio - base.sup_ratio) / max(base.sup_ratio, DENOM_FLOOR)
    base.stable = drift <= STABILITY_REL_TOL
    base.notes = (base.notes + f" drift={drift:.3f} vs ({fine.resolutions})").strip()
    return base, fine
