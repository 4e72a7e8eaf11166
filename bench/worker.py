"""One benchmark worker process: set up one workload, then run it.

Started by ``run.py`` with the BLAS/OpenMP pools already capped in its
environment.  It imports capra, builds the workload's inputs from the seed,
and runs its operations one after another (a closed loop with one client)
for about ``--seconds``, at least one whole pass.  With ``--trace 1`` it
spends half that time on the untraced loop and half on whole passes under
span tracing.  Its last stdout line is a JSON record.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from time import perf_counter


def run_passes(ops, seconds: float, perturb: bool, tracer=None, whole_passes=False,
               min_reps=1) -> dict:
    """Run the operations in order, over and over, for about ``seconds``.

    Every operation runs at least ``min_reps`` times.  After that, the next
    operation starts only if it should end within the time given, judged by
    its own last latency; with ``whole_passes`` the loop stops only between
    passes.  Passes take turns on the CPUs the process may use: each CPU of
    this host has slow spells of its own, tens of seconds long at times, and
    a process left on one CPU can spend a whole run in one.
    """
    cpus = sorted(os.sched_getaffinity(0))
    n = len(ops)
    reps: list[list[float]] = [[] for _ in ops]
    failed = 0
    done = 0
    begin = perf_counter()
    while True:
        k = done % n
        if done >= n * min_reps:
            elapsed = perf_counter() - begin
            if whole_passes:
                if k == 0 and elapsed + elapsed / (done // n) > seconds:
                    break
            elif elapsed + reps[k][-1] > seconds:
                break
        if k == 0 and len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[(done // n) % len(cpus)]})
        op = ops[k]
        if tracer is not None:
            tracer.op_id += 1
            span = tracer.open("bench.op")
        t0 = perf_counter()
        try:
            raw, raised = op.call(), False
        except Exception:
            traceback.print_exc(file=sys.stderr)
            raw, raised = None, True
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        ok = False
        if not raised:
            try:
                ok = bool(op.check(raw, perturb and done == 0))
            except Exception:
                traceback.print_exc(file=sys.stderr)
        reps[k].append(dt)
        failed += not ok
        done += 1
    os.sched_setaffinity(0, cpus)
    # This host's speed switches between a fast and a ~40 % slower state for
    # seconds at a time, so each operation counts at its fastest repetition.
    best = [min(r) for r in reps]
    return {"reps": reps, "best": best, "kinds": [op.kind for op in ops], "attempted": done,
            "failed": failed, "passes": done / n, "loop_s": perf_counter() - begin}


def kind_medians(run: dict) -> dict:
    by_kind: dict[str, list[float]] = {}
    for kind, dt in zip(run["kinds"], run["best"]):
        by_kind.setdefault(kind, []).append(dt)
    return {kind: statistics.median(v) for kind, v in sorted(by_kind.items())}


def tail(latencies: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return {"value": ordered[-1], "percentile": 100.0, "beyond": 0, "samples": n,
                "note": "fewer than 20 operations: the slowest operation"}
    return {"value": ordered[n - 11], "percentile": round(100.0 * (n - 10) / n, 3),
            "beyond": 10, "samples": n}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    parser.add_argument("--tmp-root", required=True)
    args = parser.parse_args(argv)

    import numpy as np

    import capra.cli  # noqa: F401  (set-up covers importing the whole library)
    import capra.verification  # noqa: F401
    import workloads

    with tempfile.TemporaryDirectory(dir=args.tmp_root) as tmpdir:
        workload = workloads.make_workload(args.workload, args.seed, args.size, tmpdir)
        ops = workload.ops()
        setup_s = time.monotonic() - args.spawned_at
        record = {"setup_s": setup_s}
        if not args.setup_only:
            # A traced run splits its time between the untraced and the traced loop.
            seconds = args.seconds / 2.0 if args.trace else args.seconds
            # Two repetitions at least, so that even an operation longer than
            # a fast spell has two chances to meet one.
            run = run_passes(ops, seconds, args.perturb, min_reps=1 if args.trace else 2)
            record.update(
                attempted=run["attempted"], failed=run["failed"], passes=run["passes"],
                reps_per_op=[min(map(len, run["reps"])), max(map(len, run["reps"]))],
                wall_s=sum(run["best"]), op_p50_s=statistics.median(run["best"]),
                op_tail=tail(run["best"]),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                ops=len(ops), kind_p50_s=kind_medians(run), loop_s=run["loop_s"],
                numpy=np.__version__,
            )
            if args.trace:
                import tracing

                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = run_passes(ops, seconds, False, tracer, whole_passes=True)
                finally:
                    tracer.uninstall()
                passes = int(traced["passes"])
                layers = tracing.summarize(tracer, passes)
                traced_wall = sum(traced["best"])
                layers["trace.overhead_s"] = traced_wall - record["wall_s"]
                layers["trace.bench_overhead_s"] = (
                    traced["loop_s"] / passes - layers["trace.op_spans_s"])
                op_kinds = traced["kinds"] * passes
                record.update(
                    per_layer={name: {"value": layers[name], "unit": unit}
                               for name, unit, _ in tracing.per_layer_spec()},
                    traced_wall_s=traced_wall,
                    traced_passes=passes,
                    traced_attempted=traced["attempted"], traced_failed=traced["failed"],
                    transform_by_kind=tracing.transform_by_kind(tracer, op_kinds, passes),
                )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
