"""Span tracing of capra from outside, and the per-layer metrics it yields.

``install`` rebinds the functions that capra's modules call across module
boundaries to timing wrappers.  A name is rebound in every capra module that
holds it (``envelope`` and ``verification`` keep their own references to
``conjugacy._conjugate_values``, for instance), and methods are rebound on
their class.  ``src/`` is never modified; ``uninstall`` restores every
binding.

Spans live in memory in flat arrays (name, start, end, parent span, op id)
and are summarised once the traced run ends.  A layer's self time is its
spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

MODULES = ("conjugacy", "envelope", "norms", "oracle", "verification", "numerics", "cli")

# The suites and checks that the verify workload runs; the conjugacy suite is
# left out (see VerifyWorkload).
SUITES = ("norms", "envelope")

CHECKS = (
    "table1-identities", "topk-monotone-in-k-and-full-k-is-lp",
    "ksupport-topk-duality-pairing", "dual-coordinate-enumerate-vs-sort",
    "custom-source-sampled-dual-vs-exact", "phi-gauge-collapse-under-ratio-gate",
    "topk-permutation-sign-invariance", "norm-object-invariants",
    "envelope-minorizes-f-on-ball", "envelope-equals-subset-oracle",
    "pos-hom-positive-homogeneity", "pos-hom-below-convex-envelope",
    "subset-vs-hull-envelopes-differ", "best-norm-object-invariants",
)

# Callers whose transforms run over a whole product grid; every other caller
# (conjugate_at_points, the sphere route, the suites' scattered duals) is a
# points transform.
_GRID_CALLERS = {"fenchel_conjugate", "tightest_convex_on_ball"}


def _rows(a) -> int:
    return int(getattr(a, "shape", (len(a),))[0])


# (module, function, span name, attributes from (args, kwargs, result)).
FUNCTIONS = [
    ("conjugacy", "_conjugate_values", "conjugacy.transform", None),
    ("conjugacy", "fenchel_conjugate", "conjugacy.fenchel_conjugate", None),
    ("conjugacy", "fenchel_biconjugate", "conjugacy.fenchel_biconjugate", None),
    ("conjugacy", "conjugate_at_points", "conjugacy.conjugate_at_points", None),
    ("conjugacy", "build_sphere_sample", "conjugacy.build_sphere_sample", None),
    ("conjugacy", "capra_conjugate", "conjugacy.capra_conjugate", None),
    ("conjugacy", "capra_conjugate_direct", "conjugacy.capra_conjugate_direct", None),
    ("conjugacy", "capra_conjugate_l0_analytic", "conjugacy.capra_conjugate_l0_analytic", None),
    ("conjugacy", "capra_conjugate_l0_analytic_batch",
     "conjugacy.capra_conjugate_l0_analytic_batch", lambda a, k, r: {"rows": _rows(a[0])}),
    ("conjugacy", "capra_subdiff_contains", "conjugacy.capra_subdiff_contains", None),
    ("conjugacy", "capra_subdiff_at_zero", "conjugacy.capra_subdiff_at_zero", None),
    ("envelope", "tightest_convex_on_ball", "envelope.tightest_convex_on_ball", None),
    ("oracle", "support_function_bruteforce", "oracle.support_function_bruteforce", None),
    ("envelope", "tightest_pos_hom_on_ball", "envelope.tightest_pos_hom_on_ball", None),
    ("envelope", "best_cvx_on_subset", "envelope.best_cvx_on_subset", None),
    ("envelope", "best_pos_hom_on_subset", "envelope.best_pos_hom_on_subset", None),
    ("envelope", "l0_envelope_linf", "envelope.l0_envelope_linf", None),
    ("envelope", "ball_box_grid", "envelope.ball_box_grid", None),
    ("envelope", "write_surface_json", "envelope.write_surface_json", None),
    ("norms", "lp_value", "norms.lp_value", None),
    ("norms", "lp_value_batch", "norms.lp_value_batch", None),
    ("norms", "top_k_norm", "norms.top_k_norm", None),
    ("norms", "top_k_norm_table", "norms.top_k_norm_table",
     lambda a, k, r: {"rows": _rows(a[0])}),
    ("norms", "k_support_norm", "norms.k_support_norm", None),
    ("norms", "dual_coordinate_k_norm", "norms.dual_coordinate_k_norm", None),
    ("norms", "phi_dual_gauge", "norms.phi_dual_gauge", None),
    ("norms", "best_norm_object", "norms.best_norm_object", None),
    ("oracle", "naive_conjugate", "oracle.naive_conjugate",
     lambda a, k, r: {"pairs": a[0].grid.node_count * a[1].node_count}),
    ("oracle", "convex_envelope_2d", "oracle.convex_envelope_2d", None),
    ("oracle", "k_support_bruteforce", "oracle.k_support_bruteforce",
     lambda a, k, r: {"directions": _rows(a[3])}),
    ("oracle", "default_direction_set", "oracle.default_direction_set", None),
    ("verification", "run_suite", "verification.run_suite", None),
    ("verification", "report_dict", "verification.report_dict", None),
    ("numerics", "write_sample_csv", "numerics.write_sample_csv",
     lambda a, k, r: {"rows": a[0].grid.node_count}),
    ("numerics", "default_dual_grid", "numerics.default_dual_grid", None),
    ("cli", "main", "cli.main", None),
]

# (module, class, method, span name)
METHODS = [
    ("norms", "NormObject", "value", "norms.best_norm_object.value"),
    ("norms", "NormObject", "dual_value", "norms.best_norm_object.dual_value"),
    ("norms", "NormalizationSpec", "value", "norms.NormalizationSpec.value"),
    ("norms", "NormalizationSpec", "batch", "norms.NormalizationSpec.batch"),
    ("conjugacy", "ZeroHomFnSpec", "batch", "conjugacy.ZeroHomFnSpec.batch"),
    ("numerics", "FunctionSample", "value_near", "numerics.FunctionSample.value_near"),
]


class Tracer:
    """In-memory spans of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.attrs: dict[int, dict] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def rename(self, idx: int, name: str) -> None:
        self.name_id[idx] = self._intern(name)

    def wrap(self, fn, name: str, describe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if describe is not None:
                tracer.attrs[idx] = describe(args, kwargs, out)
            return out
        return wrapper

    # -- special wrappers

    def _wrap_transform(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(points, values, duals):
            caller = sys._getframe(1).f_code.co_name
            kind = "grid" if caller in _GRID_CALLERS else "points"
            idx = tracer.open("conjugacy.transform." + kind)
            try:
                return fn(points, values, duals)
            finally:
                tracer.close(idx)
                rows = _rows(points)
                kept = rows - int(np.isposinf(values).sum())
                tracer.attrs[idx] = {"pairs": rows * _rows(duals), "rows": rows, "kept": kept,
                                     "duals": _rows(duals)}
        return wrapper

    def _wrap_tightest_convex(self, fn, analytic_applicable):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, nu, eval_grid, dual_grid=None, route="auto"):
            if route == "auto":
                route = "analytic" if analytic_applicable(f, nu) else "ball"
            idx = tracer.open("envelope.tightest_convex_on_ball." + route)
            try:
                return fn(f, nu, eval_grid, dual_grid, route)
            finally:
                tracer.close(idx)
                tracer.attrs[idx] = {"primal": eval_grid.node_count}
        return wrapper

    def _wrap_support_bruteforce(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(x, membership, candidates):
            tally = [0, 0]

            def counted(y):
                hit = membership(y)
                tally[0] += 1
                tally[1] += bool(hit)
                return hit
            idx = tracer.open("oracle.support_function_bruteforce")
            try:
                return fn(x, counted, candidates)
            finally:
                tracer.close(idx)
                tracer.attrs[idx] = {"candidates": _rows(candidates), "tested": tally[0],
                                     "accepted": tally[1]}
        return wrapper

    def _wrap_check(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open("verification.check")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.rename(idx, "verification.check." + result.name)
            return result
        return wrapper

    # -- installation

    def _rebind(self, original, wrapped, modules) -> None:
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        import capra.cli  # noqa: F401  (load every module before rebinding)
        import capra.oracle  # noqa: F401
        import capra.verification as vf
        from capra.conjugacy import _analytic_applicable

        modules = [m for n, m in sys.modules.items() if n == "capra" or n.startswith("capra.")]
        mod = {name: sys.modules["capra." + name] for name in MODULES}
        special = {
            "_conjugate_values": self._wrap_transform,
            "tightest_convex_on_ball":
                lambda fn: self._wrap_tightest_convex(fn, _analytic_applicable),
            "support_function_bruteforce": self._wrap_support_bruteforce,
        }
        for modname, attr, span, describe in FUNCTIONS:
            original = getattr(mod[modname], attr)
            if attr in special:
                wrapped = special[attr](original)
            else:
                wrapped = self.wrap(original, span, describe)
            self._rebind(original, wrapped, modules)
        for name, value in list(vars(vf).items()):
            if name.startswith("_check_") and callable(value):
                self._rebind(value, self._wrap_check(value), [vf])
        for name in SUITES:
            original = vf.SUITES[name]
            self._patches.append((vf.SUITES, name, original))
            vf.SUITES[name] = self.wrap(original, "verification.suite." + name)
        for modname, cls_name, method, span in METHODS:
            cls = getattr(mod[modname], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self.wrap(original, span))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    s, n, lo, hi = "s", "count", "lower", "higher"
    spec = [
        ("conjugacy.transform.grid.s", s, lo), ("conjugacy.transform.grid.pairs", n, lo),
        ("conjugacy.transform.grid.gpairs_per_s", "Gpairs/s", hi),
        ("conjugacy.transform.grid.kept_frac", "ratio", hi),
        ("conjugacy.transform.points.s", s, lo), ("conjugacy.transform.points.pairs", n, lo),
        ("conjugacy.transform.points.gpairs_per_s", "Gpairs/s", hi),
        ("conjugacy.capra_conjugate_l0_analytic_batch.s", s, lo),
        ("conjugacy.capra_conjugate_l0_analytic_batch.rows", n, lo),
        ("conjugacy.build_sphere_sample.s", s, lo), ("conjugacy.build_sphere_sample.calls", n, lo),
        ("conjugacy.capra_conjugate.call_us", "us", lo),
        ("conjugacy.capra_subdiff_contains.call_us", "us", lo),
        ("conjugacy.capra_subdiff_at_zero.s", s, lo),
        ("envelope.tightest_convex_on_ball.analytic.s", s, lo),
        ("envelope.tightest_convex_on_ball.ball.s", s, lo),
        ("envelope.tightest_convex_on_ball.self_s", s, lo),
        ("envelope.primal_nodes", n, lo), ("envelope.hull_nodes", n, lo),
        ("envelope.dual_nodes", n, lo),
        ("envelope.tightest_pos_hom_on_ball.call_ms", "ms", lo),
        ("envelope.best_cvx_on_subset.s", s, lo),
        ("norms.lp_value_batch.s", s, lo),
        ("norms.top_k_norm_table.s", s, lo), ("norms.top_k_norm_table.rows", n, lo),
        ("norms.phi_dual_gauge.calls", n, lo), ("norms.phi_dual_gauge.call_us", "us", lo),
        ("norms.top_k_norm.call_us", "us", lo), ("norms.k_support_norm.call_us", "us", lo),
        ("norms.dual_coordinate_k_norm.call_us", "us", lo),
        ("norms.best_norm_object.value.call_ms", "ms", lo),
        ("oracle.naive_conjugate.s", s, lo), ("oracle.naive_conjugate.pairs", n, lo),
        ("oracle.support_function_bruteforce.s", s, lo),
        ("oracle.support_function_bruteforce.candidates", n, lo),
        ("oracle.support_function_bruteforce.accept_frac", "ratio", hi),
        ("oracle.k_support_bruteforce.s", s, lo),
        ("oracle.k_support_bruteforce.directions", n, lo),
    ]
    spec += [(f"verification.suite.{name}.s", s, lo) for name in SUITES]
    spec += [(f"verification.check.{name}.s", s, lo) for name in CHECKS]
    spec += [("numerics.write_sample_csv.s", s, lo), ("numerics.write_sample_csv.rows", n, lo)]
    spec += [(f"{m}.self_s", s, lo) for m in MODULES + ("bench",)]
    spec += [("trace.spans", n, lo), ("trace.op_spans_s", s, lo),
             ("trace.bench_overhead_s", s, lo), ("trace.overhead_s", s, lo)]
    return spec


def summarize(tr: Tracer, passes: int) -> dict:
    """Per-pass totals of every per-layer metric, keyed by metric name."""
    count = len(tr.start)
    dur = [tr.end[i] - tr.start[i] for i in range(count)]
    child = [0.0] * count
    for i in range(count):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_module: dict[str, float] = {}
    attrs: dict[str, dict[str, float]] = {}
    last_transform: dict[int, dict] = {}
    for i in range(count):
        name = tr.names[tr.name_id[i]]
        total[name] = total.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        module = "bench" if name == "bench.op" else name.split(".", 1)[0]
        self_by_module[module] = self_by_module.get(module, 0.0) + dur[i] - child[i]
        if name.startswith("envelope.tightest_convex_on_ball"):
            self_by_module["envelope.tightest_convex_on_ball"] = (
                self_by_module.get("envelope.tightest_convex_on_ball", 0.0) + dur[i] - child[i])
        extra = tr.attrs.get(i)
        if extra:
            acc = attrs.setdefault(name, {})
            for key, value in extra.items():
                acc[key] = acc.get(key, 0) + value
            if name.startswith("conjugacy.transform") and tr.parent[i] >= 0:
                last_transform[tr.parent[i]] = extra
    hull = dual = 0
    for i in range(count):
        if tr.names[tr.name_id[i]].startswith("envelope.tightest_convex_on_ball") \
                and i in last_transform:
            hull += last_transform[i]["duals"]
            dual += last_transform[i]["rows"]

    per = 1.0 / max(passes, 1)

    def tot(name):
        return total.get(name, 0.0) * per

    def attr(name, key):
        return attrs.get(name, {}).get(key, 0) * per

    def mean(name, scale):
        return total[name] / calls[name] * scale if calls.get(name) else 0.0

    def rate(name):
        t = total.get(name, 0.0)
        return attrs.get(name, {}).get("pairs", 0) / t / 1e9 if t > 0 else 0.0

    grid_rows = attr("conjugacy.transform.grid", "rows")
    tested = attr("oracle.support_function_bruteforce", "tested")
    m = {
        "conjugacy.transform.grid.s": tot("conjugacy.transform.grid"),
        "conjugacy.transform.grid.pairs": attr("conjugacy.transform.grid", "pairs"),
        "conjugacy.transform.grid.gpairs_per_s": rate("conjugacy.transform.grid"),
        "conjugacy.transform.grid.kept_frac":
            attr("conjugacy.transform.grid", "kept") / grid_rows if grid_rows else 0.0,
        "conjugacy.transform.points.s": tot("conjugacy.transform.points"),
        "conjugacy.transform.points.pairs": attr("conjugacy.transform.points", "pairs"),
        "conjugacy.transform.points.gpairs_per_s": rate("conjugacy.transform.points"),
        "conjugacy.capra_conjugate_l0_analytic_batch.s":
            tot("conjugacy.capra_conjugate_l0_analytic_batch"),
        "conjugacy.capra_conjugate_l0_analytic_batch.rows":
            attr("conjugacy.capra_conjugate_l0_analytic_batch", "rows"),
        "conjugacy.build_sphere_sample.s": tot("conjugacy.build_sphere_sample"),
        "conjugacy.build_sphere_sample.calls": calls.get("conjugacy.build_sphere_sample", 0) * per,
        "conjugacy.capra_conjugate.call_us": mean("conjugacy.capra_conjugate", 1e6),
        "conjugacy.capra_subdiff_contains.call_us": mean("conjugacy.capra_subdiff_contains", 1e6),
        "conjugacy.capra_subdiff_at_zero.s": tot("conjugacy.capra_subdiff_at_zero"),
        "envelope.tightest_convex_on_ball.analytic.s":
            tot("envelope.tightest_convex_on_ball.analytic"),
        "envelope.tightest_convex_on_ball.ball.s": tot("envelope.tightest_convex_on_ball.ball"),
        "envelope.tightest_convex_on_ball.self_s":
            self_by_module.get("envelope.tightest_convex_on_ball", 0.0) * per,
        "envelope.primal_nodes": (attr("envelope.tightest_convex_on_ball.analytic", "primal")
                                  + attr("envelope.tightest_convex_on_ball.ball", "primal")),
        "envelope.hull_nodes": hull * per,
        "envelope.dual_nodes": dual * per,
        "envelope.tightest_pos_hom_on_ball.call_ms":
            mean("envelope.tightest_pos_hom_on_ball", 1e3),
        "envelope.best_cvx_on_subset.s": tot("envelope.best_cvx_on_subset"),
        "norms.lp_value_batch.s": tot("norms.lp_value_batch"),
        "norms.top_k_norm_table.s": tot("norms.top_k_norm_table"),
        "norms.top_k_norm_table.rows": attr("norms.top_k_norm_table", "rows"),
        "norms.phi_dual_gauge.calls": calls.get("norms.phi_dual_gauge", 0) * per,
        "norms.phi_dual_gauge.call_us": mean("norms.phi_dual_gauge", 1e6),
        "norms.top_k_norm.call_us": mean("norms.top_k_norm", 1e6),
        "norms.k_support_norm.call_us": mean("norms.k_support_norm", 1e6),
        "norms.dual_coordinate_k_norm.call_us": mean("norms.dual_coordinate_k_norm", 1e6),
        "norms.best_norm_object.value.call_ms": mean("norms.best_norm_object.value", 1e3),
        "oracle.naive_conjugate.s": tot("oracle.naive_conjugate"),
        "oracle.naive_conjugate.pairs": attr("oracle.naive_conjugate", "pairs"),
        "oracle.support_function_bruteforce.s": tot("oracle.support_function_bruteforce"),
        "oracle.support_function_bruteforce.candidates":
            attr("oracle.support_function_bruteforce", "candidates"),
        "oracle.support_function_bruteforce.accept_frac":
            attr("oracle.support_function_bruteforce", "accepted") / tested if tested else 0.0,
        "oracle.k_support_bruteforce.s": tot("oracle.k_support_bruteforce"),
        "oracle.k_support_bruteforce.directions": attr("oracle.k_support_bruteforce",
                                                       "directions"),
        "numerics.write_sample_csv.s": tot("numerics.write_sample_csv"),
        "numerics.write_sample_csv.rows": attr("numerics.write_sample_csv", "rows"),
        "trace.spans": count * per,
        "trace.op_spans_s": tot("bench.op"),
    }
    for name in SUITES:
        m[f"verification.suite.{name}.s"] = tot(f"verification.suite.{name}")
    for name in CHECKS:
        m[f"verification.check.{name}.s"] = tot(f"verification.check.{name}")
    for module in MODULES + ("bench",):
        m[f"{module}.self_s"] = self_by_module.get(module, 0.0) * per
    return {k: float(v) for k, v in m.items()}


def transform_by_kind(tr: Tracer, kinds: list[str], passes: int) -> dict:
    """Per pass, transform seconds and pairs under each kind of operation."""
    out: dict[str, dict[str, float]] = {}
    for i in range(len(tr.start)):
        if tr.names[tr.name_id[i]].startswith("conjugacy.transform."):
            acc = out.setdefault(kinds[tr.op[i]], {"transform_s": 0.0, "pairs": 0})
            acc["transform_s"] += tr.end[i] - tr.start[i]
            acc["pairs"] += tr.attrs[i]["pairs"]
    return {kind: {key: value / passes for key, value in acc.items()}
            for kind, acc in out.items()}
