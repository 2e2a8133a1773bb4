"""Batch entry point: hydrostokes <simulate|verify|norms|spectrum>.

``verify`` runs the suites of :data:`VERIFY_SUITES` and prints one
``verify <suite>: ok|FAIL`` line per suite.  A scan fails on a non-finite sup
ratio or one above its closed-form bound (``young`` only), ``kernel`` on an
error above 1e-6, ``recursion`` on a violated or invalid case; any suite
fails when one of its fields turns non-finite.  A failed suite first prints
its reasons on one ``error: verify <suite>:`` line to stderr; exit 1.

The commands only read their config, compute and write.  :func:`main` maps
what they raise to an exit code and one ``error: <label>: ...`` line, in order:

  ConfigError                                 2  config:  bad or unreadable config, bad grid
  SolverDivergenceError, NonFiniteFieldError  3  solver:  the solve blew up or diverged
  MemoryError                                 2  memory:  an array that does not fit
  OSError                                     2  output:  an output file not written

``norms`` maps its own failures, to 2 with ``snapshot:``.  A breakdown (a scan
whose ratios are all inf at a tiny depth, say) shows up as a non-finite field
or sup, so numpy's floating-point warnings are switched off.

On glibc, :func:`main` first raises the allocator's mmap and trim thresholds
to 32 MiB, so the 0.1-2 MB node arrays that every product and norm frees stay
in the process for the next allocation instead of being returned to the
kernel and faulted back in.  Only the command-line process, which owns its
heap, does this: importing the package changes no allocator setting.
"""

import argparse
import csv
import ctypes
import os
import sys

import numpy as np

from .fields import NodeValues, NonFiniteFieldError
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
from .solver import DIAGNOSTICS, SolverConfig, SolverDivergenceError, full_solve
from .workbench import (
    ConfigError,
    _atomic_open,
    config_grid,
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

# glibc's mallopt parameters (malloc.h) and the largest M_MMAP_THRESHOLD it
# documents for 64-bit.  Both are set: setting either switches off glibc's
# dynamic thresholds, and with only the trim threshold raised the arrays
# above the 128 KiB default mmap threshold are still unmapped on free
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_KEEP_BYTES = 32 << 20


def _keep_freed_heap():
    """Keep freed heap memory in the process; a no-op where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no libc handle (Windows) or no mallopt (macOS)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _HEAP_KEEP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _HEAP_KEEP_BYTES)


def _err(msg: str):
    print(f"error: {msg}", file=sys.stderr)


def _write_csv(path: str, header, rows):
    """CSV written whole or not at all, as snapshots are (``workbench._atomic_open``)."""
    with _atomic_open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


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


# A suite function takes (cfg, grid, p, seed) and yields one (csv name,
# header, rows, failure) per CSV it writes, failure being "" or the reason
# the CSV fails.  It looks the lab scans up in this module's globals at call
# time, so rebinding one here (as tests and the benchmark's probes do)
# reaches every suite.

# ||g*f||_{q,p} <= ||g||_1 ||f||_{q,p} holds exactly; the slack is round-off
YOUNG_BOUND = 1 + 1e-10


def _param_text(p) -> str:
    """repr of a scan's sample point, numpy scalars written as Python ones: (0, 0.1, 0.0)."""
    if isinstance(p, tuple):
        return repr(tuple(x.item() if isinstance(x, np.generic) else x for x in p))
    return repr(p.item() if isinstance(p, np.generic) else p)


def _scan(csv_name: str, report: ScanReport, bound: float = np.inf):
    """A scan report's CSV; it fails when its sup ratio is not finite or above bound."""
    rows = [
        (report.estimate, _param_text(p), f"{r:.12e}") for p, r in zip(report.params, report.ratios)
    ]
    sup = report.sup_ratio
    failure = ""
    if not np.isfinite(sup):
        failure = f"non-finite sup ratio {sup} in {csv_name}"
    elif sup > bound:
        failure = f"sup ratio {sup:.12e} above {bound} in {csv_name}"
    return csv_name, ["estimate", "params", "ratio"], rows, failure


def _verify_kernel(cfg, grid, p, seed):
    rows = []
    for psi in (0.0, np.pi / 4, -np.pi / 4, np.pi / 3, -np.pi / 3):
        res = kernel_l1_norm(np.exp(1j * psi))
        err = abs(res["kernel_numeric"] - res["kernel_exact"])
        rows.append((psi, res["kernel_numeric"], res["kernel_exact"], err))
    failed = any(not err <= 1e-6 for *_, err in rows)  # a NaN error fails too
    failure = "a kernel norm is off its closed form by more than 1e-6" if failed else ""
    yield "kernel.csv", ["psi", "numeric", "exact", "abs_err"], rows, failure


def _verify_young(cfg, grid, p, seed):
    for q, pp in ((np.inf, 4), (2, 2), (1, np.inf)):
        rep = young_anisotropic_test(67, q, pp, seed=seed)
        yield _scan(f"young_{q}_{pp}.csv", rep, YOUNG_BOUND)


def _verify_semigroup(cfg, grid, p, seed):
    t_grid = np.geomspace(1e-3, 1.0, 7)
    base = semigroup_decay_scan(t_grid, 5, p, grid, seed=seed)
    fine = semigroup_decay_scan(t_grid, 5, p, grid.doubled, seed=seed)
    # in SEMIGROUP_COMBOS order: the benchmark pins the stable flags by position
    for combo in SEMIGROUP_COMBOS:
        rep, _ = resolution_stability(base[combo], fine[combo])
        yield _scan(f"semigroup_{combo}.csv", rep)


def _verify_resolvent(cfg, grid, p, seed):
    reports = resolvent_scan(np.geomspace(0.1, 100, 7), 5, p, grid, seed=seed)
    for name, rep in reports.items():
        yield _scan(f"{name}.csv", rep)


def _verify_multiplier(cfg, grid, p, seed):
    rep = horizontal_multiplier_scan(np.geomspace(1e-3, 1.0, 7), 10, seed=seed)
    yield _scan("multiplier.csv", rep)


def _verify_interpolation(cfg, grid, p, seed):
    rep = interpolation_ratio(10, max(p, 2.5), (0.1, 0.2, 0.3), grid, seed=seed)
    yield _scan("interpolation.csv", rep)


def _verify_nonlinear(cfg, grid, p, seed):
    rep = nonlinear_estimate_scan(5, np.geomspace(1e-2, 1.0, 5), p, grid, seed=seed)
    yield _scan("nonlinear.csv", rep)


def _verify_recursion(cfg, grid, p, seed):
    cases = [(0.1, 1.0, 0.25), (0.0, 1.0, 0.5), (0.05, 2.0, 0.1)]
    # any recursion.* key makes one case; the keys not given default to the first case's
    if any(k.startswith("recursion.") for k in cfg):
        cases = [tuple(cfg.get(f"recursion.{k}", d) for k, d in zip(("a0", "c1", "c2"), cases[0]))]
    rows = []
    for a0, c1, c2 in cases:
        try:
            _, bound, ok = recursion_bound_check(a0, c1, c2)
        except ValueError as exc:
            rows.append((a0, c1, c2, "error", str(exc)))
            continue
        rows.append((a0, c1, c2, bound, "ok" if ok else "violated"))
    failed = any(status != "ok" for *_, status in rows)
    failure = "a case violates the bound or the lemma's hypotheses" if failed else ""
    yield "recursion.csv", ["a0", "c1", "c2", "bound", "status"], rows, failure


# suite name -> suite function, in the order `verify all` runs them
VERIFY_SUITES = {
    "kernel": _verify_kernel,
    "young": _verify_young,
    "semigroup": _verify_semigroup,
    "resolvent": _verify_resolvent,
    "multiplier": _verify_multiplier,
    "interpolation": _verify_interpolation,
    "nonlinear": _verify_nonlinear,
    "recursion": _verify_recursion,
}


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    sc = solver_config(cfg)
    a = initial_data(cfg, sc.grid())
    outdir = _output_dir(cfg)
    traj = full_solve(a, sc)
    columns = [traj.diagnostics[name] for name in DIAGNOSTICS]
    rows = [(f"{t:.10g}", *(f"{c[n]:.12e}" for c in columns)) for n, t in enumerate(traj.times)]
    _write_csv(os.path.join(outdir, "diagnostics.csv"), ["t", *DIAGNOSTICS], rows)
    for n, (t, snap) in enumerate(zip(traj.times, traj.snapshots)):
        if snap is not None:  # the solve keeps the snapshots that snapshot.every asks for
            write_snapshot(os.path.join(outdir, f"snapshot_{n:05d}.hstk"), snap, t)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = parse_config(args.config) if args.config else {}
    grid = config_grid(cfg)
    p = cfg.get("norm.p", SolverConfig.p)
    if not p >= 1:
        raise ConfigError(f"norm.p must be >= 1, got {p}")
    outdir = _output_dir(cfg)
    seed = cfg.get("seed", 0)
    failed = False
    for name in VERIFY_SUITES if args.suite == "all" else [args.suite]:
        failures = []
        try:
            for csv_name, header, rows, failure in VERIFY_SUITES[name](cfg, grid, p, seed):
                _write_csv(os.path.join(outdir, csv_name), header, rows)
                if failure:
                    failures.append(failure)
        except NonFiniteFieldError as exc:
            failures.append(str(exc))
        if failures:
            _err(f"verify {name}: {'; '.join(failures)}")
        print(f"verify {name}: {'FAIL' if failures else 'ok'}")
        failed |= bool(failures)
    return EXIT_FAIL if failed else EXIT_OK


def cmd_norms(args) -> int:
    try:
        field, time = read_snapshot(args.snapshot)
        nodes = NodeValues(field)
        # every norm before any output: one beyond the float range is an error
        mixed, sup = nodes.norm("u", args.q, args.p), nodes.norm("u", np.inf, np.inf)
        l2 = field.norm2()
        if not np.all(np.isfinite([mixed, l2, sup])):
            raise NonFiniteFieldError("a norm is beyond the float range")
    except (ConfigError, OSError, NonFiniteFieldError) as exc:
        _err(f"snapshot: {exc}")
        return EXIT_CONFIG
    print(f"time = {time:.10g}")
    print(f"L^{args.q:g}_H L^{args.p:g}_z = {mixed:.12e}")
    print(f"L^2 = {l2:.12e}")
    print(f"sup = {sup:.12e}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = parse_config(args.config) if args.config else {}
    grid = config_grid(cfg)
    outdir = _output_dir(cfg)
    rows = []
    for subspace in ("full", "solenoidal"):
        bound, report = spectral_bound(grid, subspace)
        print(f"{subspace} spectral bound = {bound:.12e}")
        for m, n, idx, ev in report:
            rows.append((m, n, idx, f"{ev.real:.12e}", f"{ev.imag:.12e}", subspace))
    _write_csv(os.path.join(outdir, "spectrum.csv"), ["m", "n", "index", "re", "im", "subspace"], rows)
    return EXIT_OK


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = argparse.ArgumentParser(
        prog="hydrostokes",
        description="Pseudospectral workbench for the hydrostatic Stokes semigroup",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the mild solver from a config file")
    p_sim.add_argument("--config", required=True)
    p_sim.set_defaults(fn=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run an estimate-verification suite")
    p_ver.add_argument("suite", choices=[*VERIFY_SUITES, "all"])
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
    with np.errstate(all="ignore"):
        try:
            return args.fn(args)
        except ConfigError as exc:
            _err(f"config: {exc}")
            return EXIT_CONFIG
        except (SolverDivergenceError, NonFiniteFieldError) as exc:
            _err(f"solver: {exc}")
            return EXIT_DIVERGED
        except MemoryError as exc:
            _err(f"memory: {str(exc) or 'out of memory'}")  # a bare MemoryError has no text
            return EXIT_CONFIG
        except OSError as exc:  # config and output.dir raise ConfigError: an output file
            _err(f"output: {exc}")
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
