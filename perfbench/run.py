"""hydrostokes benchmark: time, set-up time and memory of the CLI.

    python3 perfbench/run.py --workload solve-rough-16 --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; nothing needs installing.  Each run
starts fresh Python processes (perfbench/worker.py): several that only set
the workload up, for ``setup_s``, then one that calls
``hydrostokes.cli.main`` in-process until ``--seconds`` are spent.  Every
call is gated on a correctness fingerprint pinned in reference.json.
Times are CPU times, which hypervisor steal on a shared machine does not
inflate: ``cpu_s`` of the calling thread per call, ``setup_s`` of the main
thread from process start to ready; the summary lines print the wall times
too.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run alternates untraced and traced calls and reports per-layer metrics
from spans recorded around the program's public functions.  The last line
of standard output is one JSON object; a fuller record, with provenance,
goes to ``.bench_out/``.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUP_SAMPLES = 3  # set-up processes per run, the run process included
DEADLINE_S = 170.0


def spawn(mode, workload, size, dseed, workdir, deadline, *extra):
    """Run one worker process to completion; returns (spawn time, its JSON result)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), mode,
        "--workload", workload, "--size", size,
        "--data-seed", str(dseed), "--workdir", workdir, *extra,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(deadline - t0, 1.0), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def machine():
    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "hydrostokes", "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "commit": commit,
            "source_sha256": src.hexdigest()}


def measure(args, workdir):
    deadline = time.monotonic() + DEADLINE_S
    dseed = workloads.data_seed(args.workload, args.seed)
    setup_wall, setup_cpu = [], []
    for _ in range(SETUP_SAMPLES - 1):
        t0, res = spawn("setup", args.workload, args.size, dseed, workdir, deadline)
        setup_wall.append(res["ready"] - t0)
        setup_cpu.append(res["setup_cpu"])
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    span_file = os.path.join(ROOT, ".bench_out", f"{tag}-spans.json")
    t0, res = spawn("run", args.workload, args.size, dseed, workdir, deadline,
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--reference", args.reference, "--spans", span_file)
    setup_wall.append(res["ready"] - t0)
    setup_cpu.append(res["setup_cpu"])
    res.update(setup_wall=setup_wall, setup_cpu=setup_cpu, data_seed=dseed, seed=args.seed,
               workload=args.workload, size=args.size, trace=args.trace)
    res["provenance"].update(machine())
    with open(os.path.join(ROOT, ".bench_out", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    return res


def report(res, trace):
    """Print a readable summary, then the JSON line."""
    print(f"workload {res['workload']} ({res['size']}), seed {res['seed']} -> data seed "
          f"{res['data_seed']}, trace {trace}")
    print("provenance " + json.dumps(res["provenance"], sort_keys=True))
    samples = {"cpu_s": res["cpu"], "wall_s": res["wall"], "setup_s": res["setup_cpu"],
               "setup_wall_s": res["setup_wall"]}
    for name, values in samples.items():
        q1, q3 = quartiles(values)
        print(f"{name:12s} median {statistics.median(values):.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"n {len(values)}")
    print(f"{'peak_rss_mb':12s} {res['peak_rss_mb']:.1f} MB")
    print(f"{'fail_frac':12s} {res['failed'] / res['attempted']:.4g}  "
          f"({res['failed']} of {res['attempted']} units)")
    for err in res["errors"]:
        print("mismatch: " + "; ".join(err), file=sys.stderr)
    if trace:
        units = dict(spans.PER_LAYER)
        metrics = {name: {"value": res["layers"][name], "unit": units[name]} for name in units}
    else:
        values = {
            "cpu_s": statistics.median(res["cpu"]),
            "setup_s": statistics.median(res["setup_cpu"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="'tiny' shrinks every workload, for the self-test")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                    help="pinned fingerprints (the self-test passes a perturbed copy)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hydrostokes", "__init__.py")):
        print(f"error: no hydrostokes sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        res = measure(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(res, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
