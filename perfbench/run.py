"""Benchmark entry point.

    python3 perfbench/run.py --workload tubes1d --seed 0 --seconds 30 --trace 0

Runs one workload in a child process with every BLAS/OpenMP thread
variable pinned to 1, then times the workload's set-up in four more fresh
processes and reports the median of the five set-up times.  Prints a few
report lines and, as the last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; writes the full record
(environment, per-operation figures, state and parameter hashes) to
`perfbench/out/`.  Exits with 2, printing no result, when the checkout
holds no program to measure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("tubes1d", "quadrant2d", "train")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# glibc's allocator raises its mmap threshold to the largest block freed so
# far, so without these a scheme's cost would depend on which schemes ran
# earlier in the process (on a 2-vCPU Xeon VM a 200x200 weno3-z step took
# 50% longer before the first CADNN step of the process than after it).
# Pinning both thresholds makes every large temporary come from a heap that
# is never trimmed, whatever ran before.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
REQUIRED = (ROOT / "src" / "wenocad" / "__init__.py", ROOT / "configs" / "cadnn2.cfg")
RUN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 10
EXTRA_SETUPS = 4


def missing_program():
    """Files of the program that this checkout lacks."""
    return [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]


def child(args, timeout):
    """Run bench.py single-threaded and return its last stdout line as JSON."""
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"), **MALLOC_ENV)
    proc = subprocess.run([sys.executable, str(HERE / "bench.py"), *args], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"bench.py {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="wenocad benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    missing = missing_program()
    if missing:
        print(f"perfbench: no program to measure, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        record = child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                       RUN_TIMEOUT_S)
        if not args.trace:
            setups = [record["metrics"]["setup_s"]]
            for _ in range(EXTRA_SETUPS):
                setups.append(child(common + ["--seconds", "0", "--setup-only"],
                                    SETUP_TIMEOUT_S)["setup_s"])
            record["setup_samples_s"] = setups
            record["metrics"]["setup_s"] = statistics.median(setups)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    if record["failures"]:
        print("\n".join(record["failures"]), file=sys.stderr)
    units = record["units"]
    for k, v in record["metrics"].items():
        print(f"{k:34s} {v:.6g} {units[k]}")
    for line in record["report"]:
        print(line)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
