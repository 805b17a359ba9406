"""Record the outputs of the default seed's passes into reference.json.

    python3 perfbench/record_reference.py [--workload NAME]

Run it only when a change to the program is meant to change these outputs,
and say so in the change: the benchmark compares every pass of the default
seed with what this script records.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the src path above)
from worker import DEFAULT_SEED  # noqa: E402

PASSES = {"bench": 16, "smoke": 8}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="re-record one workload only (default: all)")
    args = parser.parse_args(argv)
    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for size, n_passes in PASSES.items():
        for name in names:
            workload = workloads.WORKLOADS[name](size)
            outputs = {}
            for index in range(n_passes):
                ops = workload.run(workloads.pass_seed(DEFAULT_SEED, index))
                _, failed, misses = workloads.score(workload, ops, None)
                if failed:
                    raise SystemExit(f"{name} {size} pass {index}: {misses}")
                outputs[str(index)] = ops
            ref.setdefault(size, {})[name] = outputs
            path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
            print(f"recorded {size} {name}: {n_passes} passes", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
