"""Pin the reference fingerprints in reference.json.

    python3 perfbench/pin.py

Runs one unit of every workload, at both sizes, for every tabled data seed,
and records its fingerprint.  Run it only on a commit whose results are
known good: the gate compares every later commit against these pins.
"""

import json
import os
import shutil
import time

import run
import workloads


def main():
    ref = {}
    workdir = os.path.join(run.ROOT, ".bench_work", f"pin-{os.getpid()}")
    try:
        for workload in workloads.WORKLOADS:
            for size in workloads.SIZES:
                for dseed in workloads.DATA_SEEDS[workload]:
                    os.makedirs(workdir)
                    _, res = run.spawn("run", workload, size, dseed, workdir,
                                       time.monotonic() + run.DEADLINE_S)
                    shutil.rmtree(workdir)
                    pins = ref.setdefault(workload, {}).setdefault(size, {})
                    pins[str(dseed)] = res["fingerprint"]
                    print(workload, size, dseed, json.dumps(res["fingerprint"]), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
