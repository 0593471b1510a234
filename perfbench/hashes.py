"""Print the sha256 of every operation's final conserved state and of the
trained parameter arrays, for one round of each workload.

    python3 perfbench/hashes.py [--seed N]

The hashes are reported, not compared with a stored copy: run this on two
commits and compare the output to show that a change kept the results
bit-identical.
"""

import argparse
import json
import sys

from run import RUN_TIMEOUT_S, WORKLOADS, child, missing_program


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    missing = missing_program()
    if missing:
        print(f"hashes: no program to measure, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    out = {}
    for w in WORKLOADS:
        record = child(["--workload", w, "--seed", str(args.seed), "--seconds", "1",
                        "--trace", "0"], RUN_TIMEOUT_S)
        if not record["correct"]:
            print(f"{w}: " + "; ".join(record["failures"]), file=sys.stderr)
            return 1
        out[w] = record["hashes"]
    print(json.dumps({"seed": args.seed, "source_sha256": record["environment"]["source_sha256"],
                      "hashes": out}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
