"""Benchmark of invlearn: seeded workloads, each in its own fresh process.

    python3 perfbench/run.py [--workload all|NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

For each workload it starts fresh ``worker.py`` processes one after
another: with ``--trace 0``, three that each set up and time passes for a
third of ``--seconds`` (one with ``--smoke``); with ``--trace 1``, one that
runs every pass untraced and traced for ``--seconds``.  It prints the
environment and every metric with its unit, then, as the last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rates_scalar", "verify_suite", "bounds_cover", "holder_erm")
# Timing in several fresh processes averages over what differs between
# processes (memory layout, page faults); each one also times set-up.
TIMED_PROCESSES = 3
WORKLOAD_DEADLINE_S = 170
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(worker_args, deadline) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *worker_args],
            stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {worker_args} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {worker_args} exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"worker {worker_args} printed no result") from exc


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if "_ms" in name:
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def measure(workload, args) -> dict:
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    n = 1 if args.trace or args.smoke else TIMED_PROCESSES
    runs = [run_worker(["--workload", workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds / n),
                        "--size", "smoke" if args.smoke else "bench",
                        "--trace", str(args.trace),
                        "--pass-offset", str(k), "--pass-stride", str(n)],
                       deadline)
            for k in range(n)]
    result = {
        "workload": workload, "environment": runs[0]["environment"],
        "passes": [w for r in runs for w in r["passes"]],
        "setup_samples": [r["setup_s"] for r in runs],
        "misses": [miss for r in runs for miss in r["misses"]],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    if args.trace:
        values = runs[0]["layers"]
    else:
        values = {
            "wall_s": statistics.median(result["passes"]),
            "setup_s": statistics.median(result["setup_samples"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
    result["metrics"] = {k: {"value": v, "unit": unit_of(k)}
                         for k, v in values.items()}
    return result


def report(result):
    name = result["workload"]
    print(f"== {name}")
    print("environment " + json.dumps(
        {**result["environment"], "workload": name, "git_sha": git_sha()}))
    walls = result["passes"]
    print(f"{name} passes n={len(walls)} min={min(walls):.4f} s "
          f"median={statistics.median(walls):.4f} s max={max(walls):.4f} s")
    setups = ", ".join(f"{s:.4f}" for s in result["setup_samples"])
    print(f"{name} set-up samples {setups} s")
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    print(f"{name} failed_ratio {result['failed'] / result['attempted']:.6g} "
          f"ratio ({result['failed']}/{result['attempted']} operations)")
    for miss in result["misses"]:
        print(f"{name} FAILED {miss}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("all",) + WORKLOADS,
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes that run in seconds; no timings "
                             "worth comparing")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "invlearn" / "__init__.py").is_file():
        print(f"error: no invlearn sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(name, args) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
