#!/usr/bin/env python3
"""capra benchmark: one seeded workload, measured end to end or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {envelope,verify,pointwise} --seed N \
        --seconds S --trace {0,1}

The runner starts worker processes with the BLAS/OpenMP pools capped at one
thread.  One worker sets up (spawn, interpreter start, ``import capra``,
input generation) and then runs the workload; set-up-only workers before and
after it add more set-up samples, and ``setup_s`` is their median.  The second-to-last stdout line is a JSON
record with every figure, the machine and the per-operation details; the
last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.  ``--size
tiny`` and ``--perturb`` serve the self-test (``bench/selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP_ROOT = ROOT / ".bench_tmp"
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "CAPRA_THREADS")

E2E_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, extra: list[str]) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--tmp-root", str(TMP_ROOT), *extra]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def probe_setup(args, count: int) -> list[float]:
    """Set-up times of ``count`` set-up-only workers, taking turns on the CPUs
    (each CPU of this host has slow spells of its own)."""
    cpus = sorted(os.sched_getaffinity(0))
    out = []
    for i in range(count):
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})  # the worker inherits it
        try:
            out.append(spawn(args, ["--setup-only"])["setup_s"])
        finally:
            os.sched_setaffinity(0, cpus)
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(args, numpy_version: str) -> dict:
    env = worker_env()
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(), "numpy": numpy_version,
        "threads": {var: env[var] for var in THREAD_VARS}, "git_commit": git_commit(),
        "seed": args.seed, "platform": platform.platform(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("envelope", "verify", "pointwise"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt the first output before its check (self-test)")
    args = parser.parse_args(argv)
    args.seed &= (1 << 63) - 1
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "capra" / "__init__.py").is_file():
        print(f"error: no capra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    made_tmp = not TMP_ROOT.exists()
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        # Set-up probes before and after the measured worker, so that the
        # median spans more than one of the host's fast and slow spells.
        setups = probe_setup(args, SETUP_PROBES // 2)
        rec = spawn(args, ["--perturb"] if args.perturb else [])
        setups += probe_setup(args, SETUP_PROBES // 2)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if made_tmp:
            shutil.rmtree(TMP_ROOT, ignore_errors=True)
    setups.append(rec["setup_s"])
    attempted = rec["attempted"] + rec.get("traced_attempted", 0)
    failed = rec["failed"] + rec.get("traced_failed", 0)
    e2e = {"wall_s": rec["wall_s"], "op_p50_s": rec["op_p50_s"],
           "op_tail_s": rec["op_tail"]["value"], "setup_s": statistics.median(setups),
           "peak_rss_mb": rec["peak_rss_mb"]}
    if args.trace:
        metrics = rec["per_layer"]
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
    detail = {
        "workload": args.workload, "size": args.size, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(args, rec["numpy"]),
        "end_to_end": e2e, "error_frac": failed / attempted, "op_tail": rec["op_tail"],
        "setup_samples_s": setups, "passes": rec["passes"], "ops_per_pass": rec["ops"],
        "reps_per_op": rec["reps_per_op"], "loop_s": rec["loop_s"],
        "kind_p50_s": rec["kind_p50_s"],
    }
    if args.trace:
        detail.update(traced_wall_s=rec["traced_wall_s"], traced_passes=rec["traced_passes"],
                      transform_by_kind=rec["transform_by_kind"],
                      per_layer={k: v["value"] for k, v in rec["per_layer"].items()})
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
