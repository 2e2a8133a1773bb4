"""Correctness fingerprint of one unit of work, and the gate against the pins.

A solve is pinned by its final energy E(T) and maximum mild residual (read
from ``diagnostics.csv``), its Picard iteration count, and its exit code.
The final snapshot must read back with the same energy.  A verify run is
pinned by each report's sup ratio (read from the CSVs), each
resolution-stability flag, and its exit code; every ratio must be finite.
``verify`` cannot be trusted to fail on its own, so the gate checks the
sup ratios itself.
"""

import csv
import glob
import math
import os

# beyond round-off: the pins are 13 significant digits, the solver's
# round-off is ~1e-13 relative; the residual is a difference, so looser
RTOL = 1e-8
RTOL_RESIDUAL = 1e-6


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def solve_fingerprint(outdir, exit_code, picard_iterations, read_snapshot):
    rows = _rows(os.path.join(outdir, "diagnostics.csv"))
    energy = float(rows[-1]["energy"])
    snaps = sorted(glob.glob(os.path.join(outdir, "snapshot_*.hstk")))
    field, time = read_snapshot(snaps[-1])
    return {
        "exit_code": exit_code,
        "energy_T": energy,
        "max_residual": max(float(r["residual"]) for r in rows),
        "picard_iterations": picard_iterations,
        "snapshots": len(snaps),
        "snapshot_energy_matches": math.isclose(field.norm2(), energy, rel_tol=1e-11)
        and math.isclose(time, float(rows[-1]["t"]), rel_tol=1e-9),
    }


def verify_fingerprint(outdir, exit_code, stable_flags):
    fp = {"exit_code": exit_code, "all_finite": True}
    for path in sorted(glob.glob(os.path.join(outdir, "*.csv"))):
        name = os.path.basename(path)[:-4]
        rows = _rows(path)
        if name == "kernel":
            values = [float(r["numeric"]) for r in rows]
            fp["kernel.errors_below_1e-6"] = all(float(r["abs_err"]) <= 1e-6 for r in rows)
        elif name == "recursion":
            values = [float(r["bound"]) for r in rows]
            fp["recursion.statuses"] = ",".join(r["status"] for r in rows)
        else:
            values = [float(r["ratio"]) for r in rows]
        fp["all_finite"] = fp["all_finite"] and all(math.isfinite(v) for v in values)
        fp[f"{name}.sup"] = max(values)
    for i, stable in enumerate(stable_flags):
        fp[f"stable.{i}"] = stable
    return fp


def mismatches(fp, ref):
    """Keys whose value differs from the pinned one beyond round-off."""
    bad = []
    for key in sorted(set(fp) | set(ref)):
        got, want = fp.get(key), ref.get(key)
        if isinstance(want, float) and isinstance(got, float):
            rtol = RTOL_RESIDUAL if "residual" in key else RTOL
            ok = math.isclose(got, want, rel_tol=rtol)
        else:
            ok = got == want
        if not ok:
            bad.append(f"{key}: got {got!r}, pinned {want!r}")
    return bad
