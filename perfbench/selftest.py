"""Self-test of the benchmark itself, at a tiny size.

    python3 perfbench/selftest.py

Checks that:
- the metric lists in the code match BENCHMARK.json, names, units and sense;
- every workload runs traced and untraced, passes its gate, and prints
  exactly the metrics BENCHMARK.json names, with their units;
- every per-layer metric is nonzero on some workload, so no span name is
  misspelt;
- per-layer counts repeat exactly between two traced runs;
- a perturbed reference fingerprint fails every unit, so the gate can fail;
- without the program's sources the benchmark exits nonzero and prints no
  result.
Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import spans
import workloads


def check(failures, ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, seed, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if proc.returncode == 0 else None)


def main():
    failures = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check(
        failures,
        [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
        == [(n, u, "lower") for n, u in run.END_TO_END],
        "end_to_end in BENCHMARK.json matches run.END_TO_END",
    )
    check(
        failures,
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        == [(n, u, "higher" if n in spans.HIGHER_IS_BETTER else "lower")
            for n, u in spans.PER_LAYER],
        "per_layer in BENCHMARK.json matches spans.PER_LAYER",
    )
    check(failures, [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "workloads in BENCHMARK.json match workloads.WORKLOADS")

    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    layers = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            code, out = bench(workload, 0, trace)
            check(failures, code == 0 and out["correct"] and out["failed"] == 0,
                  f"{workload} trace {trace}: exit 0, correct, no failed unit")
            got = {k: v["unit"] for k, v in out["metrics"].items()} if out else {}
            check(failures, got == expected[trace],
                  f"{workload} trace {trace}: metric names and units")
            if trace and out:
                layers[workload] = {k: v["value"] for k, v in out["metrics"].items()}
        # seed 0 and this seed pick the same data seed, so the inputs are equal
        code, out = bench(workload, len(workloads.DATA_SEEDS[workload]), 1)
        counts = [n for n, u in spans.PER_LAYER if u == "count"]
        check(failures, out is not None and workload in layers
              and all(out["metrics"][n]["value"] == layers[workload][n] for n in counts),
              f"{workload}: per-layer counts repeat exactly in a second traced run")
    for name, _ in spans.PER_LAYER:
        if name != "trace.overhead_s":
            check(failures, any(m.get(name) for m in layers.values()),
                  f"{name} is nonzero on some workload")

    work = os.path.join(run.ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        with open(os.path.join(run.HERE, "reference.json"), encoding="utf-8") as fh:
            ref = json.load(fh)
        for workload, key in (("solve-rough-16", "energy_T"), ("verify-all-16", "nonlinear.sup")):
            for pin in ref[workload]["tiny"].values():
                pin[key] *= 1 + 1e-6
        perturbed = os.path.join(work, "reference.json")
        with open(perturbed, "w", encoding="utf-8") as fh:
            json.dump(ref, fh)
        for workload in ("solve-rough-16", "verify-all-16"):
            code, out = bench(workload, 0, 0, "--reference", perturbed)
            check(failures, code == 0 and not out["correct"] and out["failed"] == out["attempted"],
                  f"{workload}: a reference perturbed by 1e-6 fails every unit")

        bare = os.path.join(work, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-all-16", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
        check(failures, proc.returncode != 0 and "{" not in proc.stdout,
              "without the program's sources: nonzero exit, no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
