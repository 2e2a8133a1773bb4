"""Batch entry point: hydrostokes <simulate|verify|norms|spectrum>."""

import argparse
import csv
import os
import sys

import numpy as np

from .basis import Grid
from .fields import inverse_transform, norm_anisotropic
from .lab import (
    SEMIGROUP_COMBOS,
    ScanReport,
    horizontal_multiplier_scan,
    interpolation_ratio,
    kernel_l1_norm,
    nonlinear_estimate_scan,
    recursion_bound_check,
    resolution_stability,
    resolvent_scan,
    semigroup_decay_scan,
    young_anisotropic_test,
)
from .semigroup import spectral_bound
from .solver import SolverDivergenceError, full_solve
from .workbench import (
    ConfigError,
    initial_data,
    parse_config,
    read_snapshot,
    solver_config,
    write_snapshot,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

VERIFY_SUITES = (
    "kernel",
    "young",
    "semigroup",
    "resolvent",
    "multiplier",
    "interpolation",
    "nonlinear",
    "recursion",
    "all",
)


def _err(msg: str):
    print(f"error: {msg}", file=sys.stderr)


def _write_csv(path: str, header, rows):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    os.replace(tmp, path)


def _config_grid(cfg: dict) -> Grid:
    """The grid a config names; ConfigError when it is not a valid grid."""
    try:
        return Grid(cfg.get("grid.n", 16), cfg.get("grid.k", 16), cfg.get("grid.h", 1.0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _output_dir(cfg: dict) -> str:
    """Create the config's output directory; ConfigError when that fails."""
    outdir = cfg.get("output.dir", ".")
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.dir {outdir!r}: {exc}") from exc
    return outdir


def _exponent(text: str) -> float:
    """A norm exponent given on the command line: a number >= 1 or 'inf'."""
    try:
        if float(text) >= 1:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"exponent must be a number >= 1 or 'inf', got {text!r}")


def _report_csv(path: str, report: ScanReport) -> bool:
    """Write the report's ratios; return True when its sup ratio is not finite."""
    rows = [(report.estimate, repr(p), f"{r:.12e}") for p, r in zip(report.params, report.ratios)]
    _write_csv(path, ["estimate", "params", "ratio"], rows)
    return not np.isfinite(report.sup_ratio)


def cmd_simulate(args) -> int:
    try:
        cfg = parse_config(args.config)
        sc = solver_config(cfg)
        grid = sc.grid()
        a = initial_data(cfg, grid)
        outdir = _output_dir(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        _err(f"config: {exc}")
        return EXIT_CONFIG
    try:
        traj = full_solve(a, sc)
    except SolverDivergenceError as exc:
        _err(f"diverged: {exc}")
        return EXIT_DIVERGED
    d = traj.diagnostics
    rows = [
        (
            f"{t:.10g}",
            f"{d['energy'][n]:.12e}",
            f"{d['sol_drift'][n]:.12e}",
            f"{d['norm_inf_p'][n]:.12e}",
            f"{d['t_sqrt_grad_norm'][n]:.12e}",
            f"{d['residual'][n]:.12e}",
        )
        for n, t in enumerate(traj.times)
    ]
    _write_csv(
        os.path.join(outdir, "diagnostics.csv"),
        ["t", "energy", "sol_drift", "norm_inf_p", "t_sqrt_grad_norm", "residual"],
        rows,
    )
    every = sc.snapshot_every
    for n, t in enumerate(traj.times):
        if n % every == 0 or n == len(traj.times) - 1:
            write_snapshot(os.path.join(outdir, f"snapshot_{n:05d}.hstk"), traj.snapshots[n], t)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in VERIFY_SUITES:
        _err(f"unknown suite {args.suite!r}; choose from {VERIFY_SUITES}")
        return EXIT_CONFIG
    try:
        cfg = parse_config(args.config) if args.config else {}
        grid = _config_grid(cfg)
        p = cfg.get("norm.p", 4.0)
        if not p >= 1:
            raise ConfigError(f"norm.p must be >= 1, got {p}")
        outdir = _output_dir(cfg)
    except (ConfigError, OSError) as exc:
        _err(f"config: {exc}")
        return EXIT_CONFIG
    suites = VERIFY_SUITES[:-1] if args.suite == "all" else (args.suite,)
    seed = cfg.get("seed", 0)
    failed = False
    for suite in suites:
        suite_failed = failed
        if suite == "kernel":
            rows = []
            for psi in (0.0, np.pi / 4, -np.pi / 4, np.pi / 3, -np.pi / 3):
                res = kernel_l1_norm(np.exp(1j * psi))
                err = abs(res["kernel_numeric"] - res["kernel_exact"])
                rows.append((psi, res["kernel_numeric"], res["kernel_exact"], err))
                if err > 1e-6:
                    failed = True
            _write_csv(
                os.path.join(outdir, "kernel.csv"),
                ["psi", "numeric", "exact", "abs_err"],
                rows,
            )
        elif suite == "young":
            for q, pp in ((np.inf, 4), (2, 2), (1, np.inf)):
                rep = young_anisotropic_test(67, q, pp, seed=seed)
                if rep.sup_ratio > 1 + 1e-10:
                    failed = True
                failed |= _report_csv(os.path.join(outdir, f"young_{q}_{pp}.csv"), rep)
        elif suite == "semigroup":
            t_grid = np.geomspace(1e-3, 1.0, 7)
            for combo in SEMIGROUP_COMBOS:
                rep, _ = resolution_stability(
                    lambda g, c=combo: semigroup_decay_scan(c, t_grid, 5, p, g, seed=seed),
                    grid,
                )
                failed |= _report_csv(os.path.join(outdir, f"semigroup_{combo}.csv"), rep)
        elif suite == "resolvent":
            rep = resolvent_scan(0.9 * np.pi, np.geomspace(0.1, 100, 7), 5, np.inf, p, grid, seed=seed)
            failed |= _report_csv(os.path.join(outdir, "resolvent.csv"), rep)
            rep = resolvent_scan(
                0.9 * np.pi, np.geomspace(0.1, 100, 7), 5, np.inf, p, grid, seed=seed,
                derivative_datum=True,
            )
            failed |= _report_csv(os.path.join(outdir, "resolvent_dz.csv"), rep)
        elif suite == "multiplier":
            rep = horizontal_multiplier_scan(np.geomspace(1e-3, 1.0, 7), 10, seed=seed)
            failed |= _report_csv(os.path.join(outdir, "multiplier.csv"), rep)
        elif suite == "interpolation":
            rep = interpolation_ratio(10, max(p, 2.5), 2, (0.1, 0.2, 0.3), grid, seed=seed)
            failed |= _report_csv(os.path.join(outdir, "interpolation.csv"), rep)
        elif suite == "nonlinear":
            rep = nonlinear_estimate_scan(5, np.geomspace(1e-2, 1.0, 5), p, grid, seed=seed)
            failed |= _report_csv(os.path.join(outdir, "nonlinear.csv"), rep)
        elif suite == "recursion":
            cases = [(0.1, 1.0, 0.25), (0.0, 1.0, 0.5), (0.05, 2.0, 0.1)]
            if "recursion.a0" in cfg:
                cases = [(cfg["recursion.a0"], cfg.get("recursion.c1", 1.0), cfg.get("recursion.c2", 0.25))]
            rows = []
            for a0, c1, c2 in cases:
                try:
                    seq, bound, ok = recursion_bound_check(a0, c1, c2)
                except ValueError as exc:
                    rows.append((a0, c1, c2, "error", str(exc)))
                    failed = True
                    continue
                rows.append((a0, c1, c2, bound, "ok" if ok else "violated"))
                if not ok:
                    failed = True
            _write_csv(os.path.join(outdir, "recursion.csv"), ["a0", "c1", "c2", "bound", "status"], rows)
        status = "FAIL" if failed and not suite_failed else "ok"
        print(f"verify {suite}: {status}")
    return EXIT_FAIL if failed else EXIT_OK


def cmd_norms(args) -> int:
    try:
        field, time = read_snapshot(args.snapshot)
    except (ConfigError, OSError) as exc:
        _err(f"snapshot: {exc}")
        return EXIT_CONFIG
    phys = inverse_transform(field)
    print(f"time = {time:.10g}")
    print(f"L^{args.q:g}_H L^{args.p:g}_z = {norm_anisotropic(phys, args.q, args.p):.12e}")
    print(f"L^2 = {field.norm2():.12e}")
    print(f"sup = {norm_anisotropic(phys, np.inf, np.inf):.12e}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    try:
        cfg = parse_config(args.config) if args.config else {}
        grid = _config_grid(cfg)
        outdir = _output_dir(cfg)
    except (ConfigError, OSError) as exc:
        _err(f"config: {exc}")
        return EXIT_CONFIG
    rows = []
    for subspace in ("full", "solenoidal"):
        bound, report = spectral_bound(grid, subspace)
        print(f"{subspace} spectral bound = {bound:.12e}")
        for m, n, idx, ev in report:
            rows.append((m, n, idx, f"{ev.real:.12e}", f"{ev.imag:.12e}", subspace))
    _write_csv(os.path.join(outdir, "spectrum.csv"), ["m", "n", "index", "re", "im", "subspace"], rows)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hydrostokes",
        description="Pseudospectral workbench for the hydrostatic Stokes semigroup",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the mild solver from a config file")
    p_sim.add_argument("--config", required=True)
    p_sim.set_defaults(fn=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run an estimate-verification suite")
    p_ver.add_argument("suite", help="|".join(VERIFY_SUITES))
    p_ver.add_argument("--config", default=None)
    p_ver.set_defaults(fn=cmd_verify)

    p_norm = sub.add_parser("norms", help="print norms of a snapshot file")
    p_norm.add_argument("snapshot")
    p_norm.add_argument("--q", default="inf", type=_exponent, help="horizontal, >= 1 or inf")
    p_norm.add_argument("--p", default="2", type=_exponent, help="vertical, >= 1 or inf")
    p_norm.set_defaults(fn=cmd_norms)

    p_spec = sub.add_parser("spectrum", help="eigenvalue report per mode")
    p_spec.add_argument("--config", default=None)
    p_spec.set_defaults(fn=cmd_spectrum)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
