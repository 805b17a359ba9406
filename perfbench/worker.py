"""One workload in one fresh process: set-up, timed passes, JSON result.

Started by ``run.py``; prints a single JSON object on its last stdout line.
The workload runs as a closed loop: one pass at a time, each pass calling
the program one operation after another, for about ``--seconds``: a new
pass starts only if it is expected to end less than half a pass after
that.  This process runs passes ``offset``, ``offset + stride``, ... of the
run; pass ``i`` uses inputs generated from ``pass_seed(seed, i)``.

With ``--trace 1`` every pass runs twice on the same inputs, untraced and
then traced; the per-layer numbers come from the traced copies and the
tracing overhead is the median difference of the two.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_SEED = 1  # the seed whose outputs reference.json records


def environment(seed: int) -> dict:
    import ctypes
    import glob
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "seed": seed}


def run_passes(workload, args, references):
    from tracing import Tracer
    from workloads import pass_seed, score

    tracer = Tracer() if args.trace else None
    walls, traced_walls, misses = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        index = args.pass_offset + len(walls) * args.pass_stride
        seed = pass_seed(args.seed, index)
        pass_start = t0 = time.perf_counter()
        ops = workload.run(seed)
        walls.append(time.perf_counter() - t0)
        ref = references.get(str(index)) if args.seed == DEFAULT_SEED else None
        n, k, pass_misses = score(workload, ops, ref)
        attempted, failed = attempted + n, failed + k
        misses += [f"pass {index}: {miss}" for miss in pass_misses]
        if tracer is not None:
            tracer.install()
            try:
                t0 = time.perf_counter()
                workload.run(seed)
                traced_walls.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 > args.seconds:
            return (tracer, walls, traced_walls,
                    {"attempted": attempted, "failed": failed,
                     "misses": misses[:20]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "smoke"), default="bench")
    parser.add_argument("--pass-offset", type=int, default=0)
    parser.add_argument("--pass-stride", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads  # imports invlearn, numpy and scipy
    workload = workloads.WORKLOADS[args.workload](args.size)
    setup_s = time.perf_counter() - t0

    references = json.loads((HERE / "reference.json").read_text())
    references = references[args.size].get(args.workload, {})
    tracer, walls, traced_walls, counts = run_passes(workload, args,
                                                     references)
    result = {
        "setup_s": setup_s, "passes": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        **counts,
        "environment": environment(args.seed),
    }
    if tracer is not None:
        from tracing import layer_metrics
        overhead = statistics.median(
            t - u for t, u in zip(traced_walls, walls))
        result["layers"] = layer_metrics(
            tracer, len(traced_walls), overhead,
            workloads.RatesScalar.SIZES["bench"]["m_grid"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
