"""Smoke test of the benchmark: every metric BENCHMARK.json names is emitted.

Runs every workload once at its reduced size, untraced and traced, and
checks metric names, units and the correctness gate.  It asserts no
timings.
"""

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in SPEC[kind]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
