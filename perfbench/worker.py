"""One benchmark process: set up a workload, then time ``hydrostokes.cli.main``.

``worker.py setup ...`` stops once the workload is ready; ``worker.py run
...`` then calls ``cli.main`` in-process until the time budget is spent,
gating each call on its fingerprint.  With ``--trace 1`` it alternates
untraced and traced calls, so the tracing overhead is measured in the same
process.  The last line of standard output is a JSON result for run.py.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import ExitStack, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import fingerprint  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def setup(args):
    """Everything before the first unit of work; returns what the units need."""
    import hydrostokes.cli as cli
    from hydrostokes import workbench

    outdir = os.path.join(args.workdir, "out")
    os.makedirs(outdir, exist_ok=True)
    config = os.path.join(args.workdir, "run.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(workloads.config_text(args.workload, args.size, args.data_seed, outdir))
    cfg = workbench.parse_config(config)
    if workloads.is_solve(args.workload):
        workbench.initial_data(cfg, workbench.solver_config(cfg).grid())
    return cli, workbench, config, outdir


def _blas_threads():
    """Thread count of each OpenBLAS the process has loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def provenance():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


class Units:
    """Runs units of work (one ``cli.main`` call each) and gates them."""

    def __init__(self, args, cli, workbench, config, outdir, reference):
        self.args, self.cli, self.workbench = args, cli, workbench
        self.argv = workloads.argv(args.workload, config)
        self.outdir = outdir
        self.reference = reference
        self.attempted = self.failed = 0
        self.errors = []
        self.fingerprint = None

    def _probes(self, seen):
        """Keep the Picard count and stability flags, which cli.main drops."""
        pick = {
            "full_solve": lambda traj: traj.diagnostics["picard"].iterations,
            "resolution_stability": lambda out: out[0].stable,
        }

        def probe(name, fn):
            def kept(*a, **kw):
                out = fn(*a, **kw)
                seen.setdefault(name, []).append(pick[name](out))
                return out

            return kept

        return spans.rebind([(self.cli, name, name) for name in pick], probe)

    def run(self, recorder=None):
        """One timed unit; returns its wall and main-thread CPU seconds and its Picard count."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        os.makedirs(self.outdir)
        seen = {}
        self.attempted += 1
        with ExitStack() as stack, open(os.devnull, "w") as devnull:
            if recorder is not None:
                stack.enter_context(recorder.installed())
            stack.enter_context(self._probes(seen))
            stack.enter_context(redirect_stdout(devnull))
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                code = self.cli.main(self.argv)
            except Exception:
                code = traceback.format_exc()
            wall, cpu = time.perf_counter() - t0, time.thread_time() - c0
        try:
            fp = self._fingerprint(code, seen)
            if self.reference is None:  # pinning: later units must repeat the first
                self.reference = fp
            bad = fingerprint.mismatches(fp, self.reference)
        except Exception:
            fp, bad = None, [traceback.format_exc()]
        if self.fingerprint is None:
            self.fingerprint = fp
        if bad:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(bad)
        return wall, cpu, seen.get("full_solve", [0])[-1]

    def _fingerprint(self, code, seen):
        if not isinstance(code, int):
            return {"exit_code": code}
        if workloads.is_solve(self.args.workload):
            (iterations,) = seen["full_solve"]
            return fingerprint.solve_fingerprint(
                self.outdir, code, iterations, self.workbench.read_snapshot
            )
        return fingerprint.verify_fingerprint(self.outdir, code, seen["resolution_stability"])


def run(args, units):
    """Call units until the budget is spent; with tracing, alternate the two kinds."""
    recorder = spans.Recorder() if args.trace else None
    times = {"wall": [], "cpu": [], "traced_wall": [], "traced_cpu": []}
    layers = []
    start = time.monotonic()
    rounds = 0
    while True:
        kinds = [None] if recorder is None else [None, recorder]
        if rounds % 2:
            kinds.reverse()
        for rec in kinds:
            wall, cpu, iterations = units.run(rec)
            prefix = "" if rec is None else "traced_"
            times[prefix + "wall"].append(wall)
            times[prefix + "cpu"].append(cpu)
            if rec is not None:
                mine = [s for s in rec.spans if s[0] == rec.call]
                layers.append(spans.layer_metrics(mine, iterations))
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds > args.seconds:
            break
    result = times
    if recorder is not None:
        result["layers"] = {
            name: statistics.median(m[name] for m in layers) for name in layers[0]
        }
        # in CPU time, which hypervisor steal does not inflate
        result["layers"]["trace.overhead_s"] = (
            statistics.median(times["traced_cpu"]) - statistics.median(times["cpu"])
        )
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["call", "name", "parent", "start", "end", "self_s", "bytes"],
                       "spans": recorder.spans}, fh)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    ap.add_argument("--data-seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--reference")
    ap.add_argument("--spans")
    args = ap.parse_args()

    cli, workbench, config, outdir = setup(args)
    # CPU time of the main thread since the process started
    result = {"ready": time.monotonic(), "setup_cpu": time.thread_time()}
    if args.mode == "run":
        reference = None
        if args.reference:
            with open(args.reference, encoding="utf-8") as fh:
                reference = json.load(fh)[args.workload][args.size][str(args.data_seed)]
        units = Units(args, cli, workbench, config, outdir, reference)
        result.update(run(args, units))
        result.update(
            attempted=units.attempted,
            failed=units.failed,
            errors=units.errors,
            fingerprint=units.fingerprint,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            provenance=provenance(),
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
