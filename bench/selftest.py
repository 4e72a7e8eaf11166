#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes (about a minute).

Run from the root of a checkout:

    python3 bench/selftest.py

It checks that every workload, untraced and traced, emits exactly the
metrics that ``BENCHMARK.json`` names, each with its unit and a finite value,
with no failed operation; that a deliberately corrupted output is counted as
failed; and that the runner exits non-zero, printing no result, in a
directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("envelope", "verify", "pointwise")


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metrics(result: dict, expected: dict, label: str) -> None:
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing, extra = set(expected) - set(metrics), set(metrics) - set(expected)
        raise AssertionError(f"{label}: missing {sorted(missing)}, unexpected {sorted(extra)}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit:
            raise AssertionError(f"{label}: {name} has unit {metrics[name]['unit']!r}, not {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{label}: {name} = {value!r} is not a finite number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads do not match the benchmark's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, out = run(["--workload", workload, "--seed", "7", "--seconds", "0.1",
                             "--trace", str(trace), "--size", "tiny"])
            if code != 0:
                raise AssertionError(f"{label}: exit code {code}")
            result = json.loads(out[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{label}: {result['failed']} of {result['attempted']} failed")
            check_metrics(result, units[trace], label)
            print(f"ok   {label}: {result['attempted']} operations, all metrics present")
        code, out = run(["--workload", workload, "--seed", "7", "--seconds", "0.1",
                         "--trace", "0", "--size", "tiny", "--perturb"])
        result = json.loads(out[-1])
        error_frac = json.loads(out[-2])["detail"]["error_frac"]
        if code != 0 or result["correct"] or result["failed"] < 1 or error_frac <= 0.0:
            raise AssertionError(f"{workload}: a corrupted output was not counted")
        print(f"ok   {workload} --perturb: error_frac = {error_frac:.3g}")
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in spec["paths"]:
                shutil.copytree(ROOT / path, Path(bare) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            code, out = run(["--workload", "pointwise", "--seed", "7", "--seconds", "1",
                             "--trace", "0"], cwd=Path(bare))
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    if code == 0 or any(line.startswith('{"correct"') for line in out):
        raise AssertionError("the benchmark ran in a directory without capra's sources")
    print(f"ok   without sources: exit code {code}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
