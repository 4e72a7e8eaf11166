"""Verification suites: per-module property checks and the acceptance gate.

Every check returns a :class:`CheckResult` with the tolerance it enforces
and the worst observed deviation, so reports are machine-readable and runs
with the same seed are reproducible bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from . import conjugacy as cj
from . import envelope as ev
from . import norms as nm
from . import numerics as nx
from . import oracle as orc

__all__ = ["CheckResult", "SUITES", "run_suite", "report_dict"]

DEFAULT_SEED = 0x5EED


@dataclass
class CheckResult:
    name: str
    passed: bool
    tolerance: float | None = None
    observed: float | None = None
    details: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"[{status}] {self.name}"]
        if self.tolerance is not None:
            parts.append(f"tol={self.tolerance:.3g}")
        if self.observed is not None:
            parts.append(f"observed={self.observed:.6g}")
        if self.details:
            parts.append(f"({self.details})")
        return " ".join(parts)


# Results of the run_suite call in progress, keyed by (check, seed); None
# outside a call, so no result outlives the run that computed it.
_RUN_MEMO: ContextVar[dict | None] = ContextVar("capra_run_memo", default=None)


def _once_per_run(check):
    """Run the seed-only ``check`` once per seed within one
    :func:`run_suite` call (``--suite all`` runs four conjugacy checks again
    in criterion 7).  Each caller gets its own copy of the result."""

    @functools.wraps(check)
    def wrapper(seed: int) -> CheckResult:
        memo = _RUN_MEMO.get()
        if memo is None:
            return check(seed)
        key = (check, seed)
        if key not in memo:
            memo[key] = check(seed)
        return dataclasses.replace(memo[key])
    return wrapper


# ---------------------------------------------------------------------------
# norms suite


def _check_table1_identities(seed: int, n_vectors: int, dims) -> CheckResult:
    rng = np.random.default_rng(seed)
    t0 = time.monotonic()
    worst = 0.0
    for d in dims:
        X = rng.uniform(-10.0, 10.0, size=(n_vectors, d))
        linf = nm.lp_value_batch(X, math.inf)
        l1 = nm.lp_value_batch(X, 1.0)
        # top-(inf, k) = linf for every k
        worst = max(worst, float(np.abs(nm.top_k_norm_table(X, math.inf) - linf[:, None]).max()))
        # top-(q, 1) = linf for q in {1, 2, inf}
        for q in (1.0, 2.0, math.inf):
            worst = max(worst, float(np.abs(nm.top_k_norm_table(X, q)[:, 0] - linf).max()))
        # scalar-path spot checks across all k
        for x in X[:50]:
            xl1 = nm.lp_value(x, 1.0)
            xlinf = nm.lp_value(x, math.inf)
            for k in range(1, d + 1):
                worst = max(worst, abs(nm.top_k_norm(x, math.inf, k) - xlinf))
                worst = max(worst, abs(nm.k_support_norm(x, 1.0, k) - xl1))
                worst = max(
                    worst,
                    abs(nm.k_support_norm(x, math.inf, k) - max(xl1 / k, xlinf)),
                )
            # sp-(p, 1) = l1 and top-(q, 1) = linf, p in {1, 2, inf}
            for p in (1.0, 2.0, math.inf):
                worst = max(worst, abs(nm.k_support_norm(x, p, 1) - xl1))
                worst = max(worst, abs(nm.top_k_norm(x, nm.conj_exponent(p), 1) - xlinf))
    elapsed = time.monotonic() - t0
    # Details stay deterministic (no measured seconds): reports for a fixed
    # seed must be byte-identical.
    return CheckResult(
        name="table1-identities",
        passed=worst <= 1e-12 and elapsed < 1.0,
        tolerance=1e-12,
        observed=worst,
        details=f"runtime under 1 s: {elapsed < 1.0}",
    )


def _check_topk_monotone(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for d in (2, 4, 7):
        for q in (1.0, 1.5, 2.0, math.inf):
            X = rng.standard_normal((100, d)) * 3.0
            table = nm.top_k_norm_table(X, q)
            worst = max(worst, float(np.max(table[:, :-1] - table[:, 1:])))
            worst = max(worst, float(np.abs(table[:, -1] - nm.lp_value_batch(X, q)).max()))
    return CheckResult("topk-monotone-in-k-and-full-k-is-lp", worst <= 1e-12, 1e-12, worst)


def _check_duality_pairing(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 2)
    worst = -math.inf
    for p in (1.0, 2.0, math.inf):
        q = nm.conj_exponent(p)
        for d in (2, 3, 5):
            for _ in range(50):
                x = rng.standard_normal(d) * 2.0
                y = rng.standard_normal(d) * 2.0
                k = int(rng.integers(1, d + 1))
                lhs = float(np.dot(x, y))
                rhs = nm.k_support_norm(x, p, k) * nm.top_k_norm(y, q, k)
                worst = max(worst, lhs - rhs)
    return CheckResult("ksupport-topk-duality-pairing", worst <= 1e-9, 1e-9, worst)


def _check_enumeration_route(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        for d in range(2, 9):
            src = nm.SourceNormSpec.lp(p, d)
            for _ in range(5):
                y = rng.standard_normal(d) * 3.0
                k = int(rng.integers(1, d + 1))
                a = nm.dual_coordinate_k_norm(y, src, k, method="sort")
                b = nm.dual_coordinate_k_norm(y, src, k, method="enumerate")
                worst = max(worst, abs(a - b))
    return CheckResult("dual-coordinate-enumerate-vs-sort", worst <= 1e-12, 1e-12, worst)


def _check_custom_source_duals(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 4)
    worst = 0.0
    for p in (1.0, 2.0, math.inf):
        exact = nm.SourceNormSpec.lp(p, 2)
        wrapped = nm.SourceNormSpec.custom(lambda x, p=p: nm.lp_value(x, p), 2)
        for _ in range(10):
            y = rng.standard_normal(2) * 2.0
            for k in (1, 2):
                a = nm.dual_coordinate_k_norm(y, exact, k)
                b = nm.dual_coordinate_k_norm(y, wrapped, k)
                worst = max(worst, abs(a - b))
    return CheckResult("custom-source-sampled-dual-vs-exact", worst <= 1e-3, 1e-3, worst)


def _check_gauge_collapse(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 5)
    worst = 0.0
    for p in (1.0, 2.0, math.inf):
        for d in (2, 4, 6):
            src = nm.SourceNormSpec.lp(p, d)
            if p == 1.0:
                steps = np.cumsum(rng.uniform(0.2, 1.0, size=d))
                phi = nm.PhiSpec.from_values(np.concatenate([[0.0], steps]))
            else:
                q = nm.conj_exponent(p)
                # phi(l) = (c * l)^(1/q) gives a constant ratio phi^q / l.
                c = float(rng.uniform(0.5, 2.0))
                phi = nm.PhiSpec.from_values(
                    np.concatenate([[0.0], (c * np.arange(1, d + 1)) ** (1.0 / q)])
                )
            assert nm.lp_gauge_collapses(phi, p)
            for _ in range(25):
                y = rng.standard_normal(d) * 3.0
                g = nm.phi_dual_gauge(y, phi, src)
                worst = max(worst, abs(g - nm.lp_value(y, math.inf) / phi(1)))
                # the per-level ratio is nonincreasing in l under the gate
                q = nm.conj_exponent(p)
                ratios = [nm.top_k_norm(y, q, l) / phi(l) for l in range(1, d + 1)]
                worst = max(worst, float(np.max(np.diff(ratios))) if d > 1 else 0.0)
    return CheckResult("phi-gauge-collapse-under-ratio-gate", worst <= 1e-12, 1e-12, worst)


def _check_permutation_invariance(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 6)
    worst = 0.0
    for _ in range(40):
        d = int(rng.integers(2, 7))
        y = rng.standard_normal(d) * 2.0
        k = int(rng.integers(1, d + 1))
        q = float(rng.choice([1.0, 2.0, math.inf]))
        base = nm.top_k_norm(y, q, k)
        perm = rng.permutation(d)
        signs = rng.choice([-1.0, 1.0], size=d)
        worst = max(worst, abs(nm.top_k_norm(signs * y[perm], q, k) - base))
    return CheckResult("topk-permutation-sign-invariance", worst <= 1e-12, 1e-12, worst)


def norm_object_violations(obj: nm.NormObject, dim: int, seed: int) -> float:
    """Worst violation of homogeneity, subadditivity and the pairing
    inequality ``<x, y> <= eval(x) * dual(y)`` over 60 random samples."""
    rng = np.random.default_rng(seed)
    slack = 1e-9 if obj.exact else 1e-6
    worst = -math.inf
    for _ in range(60):
        x = rng.standard_normal(dim) * 2.0
        z = rng.standard_normal(dim) * 2.0
        rho = float(rng.uniform(-3.0, 3.0))
        if rho == 0.0:
            rho = 1.0
        vx, vz = obj.value(x), obj.value(z)
        worst = max(worst, abs(obj.value(rho * x) - abs(rho) * vx) - slack * (1 + abs(rho) * vx))
        worst = max(worst, obj.value(x + z) - (vx + vz) - slack * (1 + vx + vz))
        y = rng.standard_normal(dim) * 2.0
        pair = float(np.dot(x, y))
        worst = max(worst, pair - vx * obj.dual_value(y) - slack * (1 + abs(pair)))
    return worst


def _check_norm_object_invariants(seed: int) -> CheckResult:
    worst = -math.inf
    for p in (1.0, 2.0, math.inf):
        obj = nm.best_norm_object(nm.PhiSpec.identity(3), nm.SourceNormSpec.lp(p, 3))
        worst = max(worst, norm_object_violations(obj, 3, seed + 7))
    # non-collapsing weights: dual ball from the l = 2 level only
    phi = nm.PhiSpec.from_values([0.0, math.inf, 1.0])
    obj = nm.best_norm_object(phi, nm.SourceNormSpec.lp(math.inf, 2), n_directions=512)
    worst = max(worst, norm_object_violations(obj, 2, seed + 8))
    return CheckResult("norm-object-invariants", worst <= 0.0, 0.0, worst,
                       details="homogeneity, subadditivity, pairing")


def norms_suite(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [
        _check_table1_identities(seed, 200, dims=(2, 3, 5)),
        _check_topk_monotone(seed),
        _check_duality_pairing(seed),
        _check_enumeration_route(seed),
        _check_custom_source_duals(seed),
        _check_gauge_collapse(seed),
        _check_permutation_invariance(seed),
        _check_norm_object_invariants(seed),
    ]


# ---------------------------------------------------------------------------
# conjugacy suite


def _l0_and_doubled(dim: int):
    return (
        cj.ZeroHomFnSpec.l0(dim),
        cj.ZeroHomFnSpec.phi_l0(nm.PhiSpec.scaled_identity(2.0, dim)),
    )


def _l0_on_lp_ball(p: float, grid: nx.Grid, dual: nx.Grid | None = None):
    """l0 and the lp ball on ``grid``: the tightest convex envelope, the ball
    mask, and l0 on the ball (+inf off it)."""
    f, nu = cj.ZeroHomFnSpec.l0(grid.dim), nm.NormalizationSpec.lp(p)
    return (ev.tightest_convex_on_ball(f, nu, grid, dual), *ev._on_ball(f, nu, grid))


def _check_two_route(seed: int, grid_count: int = 101, n_duals: int = 20) -> CheckResult:
    rng = np.random.default_rng(seed + 10)
    grid = ev.ball_box_grid(2, grid_count)
    h = grid.steps[0]
    worst = 0.0
    for p in (1.0, 2.0, math.inf, 0.5):
        nu = nm.NormalizationSpec.lp(p)
        samp = cj.build_sphere_sample(nu, 2, 10_000)
        for f in _l0_and_doubled(2):
            fvals = ev._on_ball(f, nu, grid)[1]
            Y = rng.uniform(-3.0, 3.0, size=(n_duals, 2))
            # Stress duals: diagonal-corner and near-axis regions, where the
            # binding sparsity stratum switches.
            Y = np.vstack([Y, [[3.0, 3.0], [-2.9, 2.8], [3.0, 0.25],
                               [0.2, -2.7], [2.2, 2.0]]])
            ball_route = cj._conjugate_values(grid.nodes, fvals, Y)
            direct_route = cj.capra_conjugate_direct(f, cj.CouplingSpec(nu), Y, grid)
            sphere_route = cj._sphere_route(f, nu, Y, samp)
            for y, bv, dv, sv in zip(Y, ball_route, direct_route, sphere_route):
                tol = 5.0 * h * (1.0 + float(np.linalg.norm(y)))
                worst = max(worst, abs(bv - sv) / tol, abs(dv - sv) / tol)
    return CheckResult("two-route-capra-conjugate", bool(worst <= 1.0), 1.0, float(worst),
                       details="max |route difference| / (5h(1+|y|))")


def _conjugacy_test_functions(rng: np.random.Generator):
    """The conjugacy fixtures as (name, sample, dual grid) triples; each dual
    grid is the step-1/8 default sized by its sample's values."""
    g1 = nx.build_grid([(-2.0, 2.0)], [81])
    g2 = nx.build_grid([(-1.5, 1.5), (-1.5, 1.5)], [41, 41])
    rand1 = rng.uniform(0.0, 3.0, g1.node_count)
    rand1[rng.random(g1.node_count) < 0.1] = math.inf
    l0_ball = ev._on_ball(cj.ZeroHomFnSpec.l0(2), nm.NormalizationSpec.lp(2.0), g2)[1]
    fns = [
        ("halfsq-1d", g1, 0.5 * g1.nodes[:, 0] ** 2),
        ("abs-1d", g1, np.abs(g1.nodes[:, 0])),
        ("random-1d", g1, rand1),
        ("l1-2d", g2, nm.lp_value_batch(g2.nodes, 1.0)),
        ("l0-ball-2d", g2, l0_ball),
    ]
    return [(name, nx.FunctionSample(g, v),
             nx.default_dual_grid(g.dim, nx._finite_scale(v), step=0.125))
            for name, g, v in fns]


@_once_per_run
def _check_biconjugate_below(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 11)
    worst = -math.inf
    for name, f, dual in _conjugacy_test_functions(rng):
        bic = cj.fenchel_biconjugate(f, dual).values
        gap = bic - f.values
        gap = gap[~(np.isinf(f.values) & np.isinf(bic))]
        worst = max(worst, float(gap.max()))
    return CheckResult("biconjugate-below-f", worst <= 1e-12, 1e-12, worst)


@_once_per_run
def _check_triple_conjugate(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 12)
    worst = 0.0
    for name, f, dual in _conjugacy_test_functions(rng):
        c1 = cj.fenchel_conjugate(f, dual)
        c3 = cj.fenchel_biconjugate(c1, f.grid)
        worst = max(worst, float(np.abs(c3.values - c1.values).max()))
    return CheckResult("triple-conjugate-idempotence", worst <= 1e-10, 1e-10, worst)


@_once_per_run
def _check_order_reversal(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 13)
    g = nx.build_grid([(-1.0, 1.0), (-1.0, 1.0)], [15, 15])
    # Order reversal holds for any dual grid; a coarse one keeps this cheap.
    dual = nx.default_dual_grid(2, 3.0, step=0.25)
    worst = -math.inf
    for _ in range(100):
        fv = rng.uniform(-2.0, 2.0, g.node_count)
        gv = fv + rng.uniform(0.0, 2.0, g.node_count)
        cf = cj.fenchel_conjugate(nx.FunctionSample(g, fv), dual).values
        cg = cj.fenchel_conjugate(nx.FunctionSample(g, gv), dual).values
        worst = max(worst, float((cg - cf).max()))
    return CheckResult("conjugate-order-reversal", worst <= 0.0, 0.0, worst,
                       details="f <= g implies f* >= g*")


def _midpoint_violation(sample: nx.FunctionSample) -> float:
    vals = sample.values.reshape(sample.grid.counts)
    worst = -math.inf
    for axis in range(vals.ndim):
        v = np.moveaxis(vals, axis, 0)
        chord = v[:-2] + v[2:] - 2.0 * v[1:-1]
        if chord.size:
            worst = max(worst, -float(chord.min()))
    return worst


@_once_per_run
def _check_conjugate_convexity(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 14)
    worst = -math.inf
    for name, f, dual in _conjugacy_test_functions(rng):
        c = cj.fenchel_conjugate(f, dual)
        worst = max(worst, _midpoint_violation(c))
    return CheckResult("conjugate-midpoint-convexity", worst <= 1e-10, 1e-10, worst)


def _check_analytic_vs_sphere(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 15)
    worst = 0.0
    for p in (1.0, 2.0, math.inf):
        for d in (1, 2, 3):
            nu = nm.NormalizationSpec.lp(p)
            src = nm.SourceNormSpec.lp(p, d)
            samp = cj.build_sphere_sample(nu, d, 10_000)
            for f in _l0_and_doubled(d):
                rows = []
                for _ in range(40):
                    u = rng.standard_normal(d)
                    u /= max(np.linalg.norm(u), 1e-12)
                    rows.append(u * rng.uniform(0.0, 4.0))
                Y = np.array(rows)
                a = cj.capra_conjugate_l0_analytic_batch(Y, f.phi, src)
                s = cj._sphere_route(f, nu, Y, samp)
                worst = max(worst, float(np.abs(a - s).max()))
    return CheckResult("analytic-vs-sphere-route", worst <= 1e-3, 1e-3, worst)


def _check_subdiff_zero_convexity(seed: int) -> CheckResult:
    # Accepted candidate sets are midpoint-convex, checked exhaustively on a
    # dual lattice (criterion-8 style but for the suite's smaller grid).
    worst = 0
    for p in (1.0, 2.0, math.inf):
        nu = nm.NormalizationSpec.lp(p)
        f = cj.ZeroHomFnSpec.l0(2)
        grid = nx.build_grid([(-2.0, 2.0), (-2.0, 2.0)], [33, 33])
        accepted = cj.capra_subdiff_at_zero(f, cj.CouplingSpec(nu), grid.nodes)
        worst = max(worst, _midpoint_gap_count(grid, accepted))
    return CheckResult("subdiff-at-zero-midpoint-convex", worst == 0, 0.0, float(worst),
                       details="pairs whose node midpoint is rejected")


def _node_mask(grid: nx.Grid, rows: np.ndarray) -> np.ndarray:
    """Boolean array of shape ``grid.counts``, True at ``rows`` (which are
    nodes of ``grid``)."""
    rows = np.asarray(rows, dtype=float).reshape(-1, grid.dim)
    idx = np.rint((rows - np.array(grid.lowers)) / np.array(grid.steps)).astype(np.int64)
    mask = np.zeros(grid.counts, dtype=bool)
    mask[tuple(idx.T)] = True
    return mask


def _midpoint_gap_count(grid: nx.Grid, accepted: np.ndarray) -> int:
    """Number of accepted-node pairs whose exact node midpoint is rejected.

    The midpoint of the nodes with multi-indices I and J is a node exactly
    when I + J is even on every axis, i.e. when I and J have the same parity
    on every axis; it is then the node (I + J) / 2.
    """
    member = _node_mask(grid, accepted)
    idx = np.argwhere(member)
    count = 0
    parity = idx % 2
    for key in np.unique(parity, axis=0):
        group = idx[np.all(parity == key, axis=1)]
        for i in range(group.shape[0] - 1):
            mids = (group[i] + group[i + 1:]) // 2
            count += int(np.count_nonzero(~member[tuple(mids.T)]))
    return count


def _check_sphere_point_membership(seed: int) -> CheckResult:
    # At a sparse sphere point where the convex envelope matches f, Capra
    # membership coincides with the Fenchel-Young test run on a grid
    # estimate of the conjugate.
    nu = nm.NormalizationSpec.lp(2.0)
    f = cj.ZeroHomFnSpec.l0(2)
    s = np.array([1.0, 0.0])
    grid = ev.ball_box_grid(2, 101)
    h = grid.steps[0]
    env, _, masked = _l0_on_lp_ball(2.0, grid)
    premise = abs(env.value_near(s) - f.value(s))
    if premise > 2.0 * h:
        return CheckResult("sphere-point-membership-crosscheck", False, 2.0 * h, premise,
                           details="envelope does not match f at the sparse point")
    mismatches = 0
    rng = np.random.default_rng(seed + 16)
    for _ in range(60):
        y = rng.uniform(-3.0, 3.0, size=2)
        member = cj.capra_subdiff_contains(y, s, f, cj.CouplingSpec(nu))
        conj_grid = float(cj._conjugate_values(grid.nodes, masked, y[None, :])[0])
        tol = 5.0 * h * (1.0 + float(np.linalg.norm(y)))
        fy = abs(conj_grid - (float(np.dot(s, y)) - f.value(s))) <= tol
        # The analytic membership test is 1e-9-sharp while the grid test is
        # 5h(1+|y|)-wide, so duals whose exact Fenchel-Young margin falls
        # between the two tolerances disagree by design.  Keep exact members
        # (margin ~ 0) and clear non-members (margin >> grid tol).
        margin = abs(cj.capra_conjugate_l0_analytic(y, f.phi, nm.SourceNormSpec.lp(2.0, 2))
                     - (float(np.dot(s, y)) - 1.0))
        if 1e-9 * (1.0 + float(np.linalg.norm(y))) < margin < 3.0 * tol:
            continue
        if member != fy:
            mismatches += 1
    return CheckResult("sphere-point-membership-crosscheck", mismatches == 0, 0.0,
                       float(mismatches), details="disagreements off the boundary band")


def conjugacy_suite(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [
        _check_two_route(seed),
        _check_biconjugate_below(seed),
        _check_triple_conjugate(seed),
        _check_order_reversal(seed),
        _check_conjugate_convexity(seed),
        _check_analytic_vs_sphere(seed),
        _check_subdiff_zero_convexity(seed),
        _check_sphere_point_membership(seed),
    ]


# ---------------------------------------------------------------------------
# envelope suite


def _check_minorization(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 20)
    grid = ev.ball_box_grid(2, 81)
    worst = -math.inf
    for p in (1.0, 2.0, math.inf):
        env, ball, fvals = _l0_on_lp_ball(p, grid)
        worst = max(worst, float((env.values[ball] - fvals[ball]).max()))
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, size=3)
        worst = max(worst, ev.l0_envelope_linf(x) - float(np.count_nonzero(x)))
    return CheckResult("envelope-minorizes-f-on-ball", worst <= 1e-12, 1e-12, worst)


def _check_maximality_vs_oracle(seed: int) -> CheckResult:
    worst = 0.0
    details = []
    for dim, count in ((1, 81), (2, 41)):
        grid = ev.ball_box_grid(dim, count)
        h = grid.steps[0]
        dual = nx.default_dual_grid(dim, float(dim))
        for p in (2.0, math.inf):
            env, ball, fvals = _l0_on_lp_ball(p, grid, dual)
            ref = orc.convex_envelope_2d(nx.FunctionSample(grid, fvals), dual)
            diff = np.abs(env.values[ball] - ref.values[ball])
            worst = max(worst, float(diff.max()) / h)
            details.append(f"d={dim},p={p:g}: {float(diff.max()):.2e}")
    # The analytic route's Capra conjugate is exact while the oracle's is a
    # grid sup; the node-wise gap stays within a few grid steps.
    return CheckResult("envelope-equals-subset-oracle", worst <= 5.0, 5.0, worst,
                       details="max node diff in units of h; " + "; ".join(details))


def _check_pos_hom(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 21)
    cand = nx.build_grid([(-1.5, 1.5), (-1.5, 1.5)], [25, 25]).nodes
    f = cj.ZeroHomFnSpec.l0(2)
    worst = -math.inf
    for p in (1.0, 2.0, math.inf):
        nu = nm.NormalizationSpec.lp(p)
        draws = [(rng.standard_normal(2), float(rng.uniform(0.1, 3.0))) for _ in range(25)]
        x, rho = map(np.array, zip(*draws))
        v1 = ev.tightest_pos_hom_on_ball(f, nu, x, cand)
        v2 = ev.tightest_pos_hom_on_ball(f, nu, rho[:, None] * x, cand)
        worst = max(worst, float((np.abs(v2 - rho * v1) - 1e-9 * (1 + np.abs(v1))).max()))
    return CheckResult("pos-hom-positive-homogeneity", worst <= 0.0, 0.0, worst)


def _check_ordering(seed: int) -> CheckResult:
    grid = ev.ball_box_grid(2, 41)
    cand = nx.build_grid([(-1.5, 1.5), (-1.5, 1.5)], [25, 25]).nodes
    f = cj.ZeroHomFnSpec.l0(2)
    worst = -math.inf
    for p in (2.0, math.inf):
        env, ball, _ = _l0_on_lp_ball(p, grid)
        idx = np.flatnonzero(ball)[::7]
        ph = ev.tightest_pos_hom_on_ball(f, nm.NormalizationSpec.lp(p), grid.nodes[idx], cand)
        worst = max(worst, float((ph - env.values[idx]).max()))
    return CheckResult("pos-hom-below-convex-envelope", worst <= 1e-9, 1e-9, worst)


def _two_interval_envelopes(count: int):
    """|x| on ``count`` nodes of [-2, 2]: the nodes, its envelopes on U =
    {|x| >= 1} and on the whole grid, and their gap at 0."""
    grid = nx.build_grid([(-2.0, 2.0)], [count])
    f = nx.FunctionSample(grid, np.abs(grid.nodes[:, 0]))
    dual = nx.default_dual_grid(1, 2.0)
    env_u = ev.best_cvx_on_subset(f, lambda x: abs(x[0]) >= 1.0, dual).values
    env_hull = ev.best_cvx_on_subset(f, lambda x: True, dual).values
    i0 = grid.nearest_index(np.array([0.0]))
    return grid.nodes[:, 0], env_u, env_hull, float(env_u[i0] - env_hull[i0])


def _check_hull_subtlety(seed: int) -> CheckResult:
    gap = _two_interval_envelopes(201)[3]
    return CheckResult("subset-vs-hull-envelopes-differ", abs(gap - 1.0) <= 1e-9, 1e-9,
                       abs(gap - 1.0), details="gap at 0 must be exactly 1")


def _check_best_norm_envelope(seed: int) -> CheckResult:
    worst = -math.inf
    rng = np.random.default_rng(seed + 22)
    for p in (1.0, 2.0, math.inf):
        src = nm.SourceNormSpec.lp(p, 3)
        obj = nm.best_norm_object(nm.PhiSpec.identity(3), src)
        worst = max(worst, norm_object_violations(obj, 3, seed + 23))
        # minorization on the source ball: eval(x) <= phi(l0(x))
        for _ in range(50):
            x = rng.standard_normal(3)
            x /= max(nm.lp_value(x, p), 1.0)
            worst = max(worst, obj.value(x) - float(np.count_nonzero(x)))
    return CheckResult("best-norm-object-invariants", worst <= 1e-9, 1e-9, worst)


def envelope_suite(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [
        _check_minorization(seed),
        _check_maximality_vs_oracle(seed),
        _check_pos_hom(seed),
        _check_ordering(seed),
        _check_hull_subtlety(seed),
        _check_best_norm_envelope(seed),
    ]


# ---------------------------------------------------------------------------
# acceptance criteria


def criterion_1(seed: int = DEFAULT_SEED) -> CheckResult:
    res = _check_table1_identities(seed, 1000, dims=range(1, 9))
    res.name = "criterion-1-table1-identities"
    return res


def criterion_2(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = np.random.default_rng(seed + 30)
    worst_gauge = 0.0
    worst_best = 0.0
    worst_brute = 0.0
    for p in (1.0, 2.0, math.inf):
        for d in range(1, 7):
            src = nm.SourceNormSpec.lp(p, d)
            phi = nm.PhiSpec.identity(d)
            Y = rng.uniform(-5.0, 5.0, size=(1000, d))
            gauge = nm.phi_dual_gauge_batch(Y, phi, src)
            worst_gauge = max(worst_gauge, float(np.abs(gauge - nm.lp_value_batch(Y, math.inf)).max()))
            for y in Y[:25]:
                worst_gauge = max(worst_gauge, abs(
                    nm.phi_dual_gauge(y, phi, src) - nm.lp_value(y, math.inf)))
            obj = nm.best_norm_object(phi, src)
            for _ in range(25):
                x = rng.standard_normal(d) * 2.0
                worst_best = max(worst_best, abs(obj.value(x) - nm.lp_value(x, 1.0)))
        for d in (2, 3, 4):
            src = nm.SourceNormSpec.lp(p, d)
            phi = nm.PhiSpec.identity(d)
            for _ in range(5):
                x = rng.standard_normal(d) * 2.0
                sup = orc._phi_dual_support(x, phi, src)
                worst_brute = max(worst_brute, abs(sup - nm.lp_value(x, 1.0)))
    passed = worst_gauge <= 1e-12 and worst_best <= 1e-9 and worst_brute <= 1e-3
    return CheckResult(
        "criterion-2-lp-gauge-collapse-and-best-norm", passed, 1e-12, worst_gauge,
        details=f"best-norm err={worst_best:.3g} (tol 1e-9); "
                f"bruteforce err={worst_brute:.3g} (tol 1e-3)",
    )


def criterion_3(seed: int = DEFAULT_SEED) -> CheckResult:
    t0 = time.monotonic()
    grid = ev.ball_box_grid(2, 201)
    h = grid.steps[0]
    env, ball, _ = _l0_on_lp_ball(math.inf, grid)
    elapsed = time.monotonic() - t0
    l1 = nm.lp_value_batch(grid.nodes, 1.0)
    err = float(np.abs(env.values[ball] - l1[ball]).max())
    outside_ok = bool(np.all(np.isposinf(env.values[~ball])))
    passed = err <= 2.0 * h and outside_ok and elapsed < 60.0
    return CheckResult(
        "criterion-3-linf-ball-envelope-is-l1", passed, 2.0 * h, err,
        details=f"outside=+inf: {outside_ok}; runtime under 60 s: {elapsed < 60.0}",
    )


def criterion_4(seed: int = DEFAULT_SEED) -> CheckResult:
    grid = ev.ball_box_grid(2, 201)
    h = grid.steps[0]
    env = _l0_on_lp_ball(2.0, grid)[0]
    v_sparse = env.value_near([1.0, 0.0])
    diag = 1.0 / math.sqrt(2.0)
    v_diag = env.value_near([diag, diag])
    v_zero = env.value_near([0.0, 0.0])
    dev = max(abs(v_sparse - 1.0) - 2.0 * h, 0.0)
    dev = max(dev, 2.0 - 4.0 * h - v_diag, v_diag - 2.0)
    dev = max(dev, abs(v_zero))
    mono_ok = True
    for ray in ((1.0, 0.0), (diag, diag)):
        vals = [env.value_near([t * ray[0], t * ray[1]]) for t in np.linspace(0.0, 1.0, 201)]
        mono_ok = mono_ok and bool(np.all(np.diff(vals) >= -1e-12))
    passed = dev <= 0.0 and mono_ok
    return CheckResult(
        "criterion-4-l2-ball-envelope-checkpoints", passed, 0.0, dev,
        details=f"v(1,0)={v_sparse:.6f}, v(diag)={v_diag:.6f}, v(0)={v_zero:.1e}, "
                f"rays monotone: {mono_ok}",
    )


def criterion_5(seed: int = DEFAULT_SEED) -> CheckResult:
    x, env_u, env_hull, gap = _two_interval_envelopes(401)
    err_u = float(np.abs(env_u - np.maximum(1.0, np.abs(x))).max())
    err_hull = float(np.abs(env_hull - np.abs(x)).max())
    err = max(err_u, err_hull, abs(gap - 1.0))
    return CheckResult(
        "criterion-5-subset-vs-hull-envelope", err <= 1e-9, 1e-9, err,
        details=f"U-env err={err_u:.2e}; hull-env err={err_hull:.2e}; gap at 0={gap:.12g}",
    )


def criterion_6(seed: int = DEFAULT_SEED) -> CheckResult:
    res = _check_two_route(seed, grid_count=201, n_duals=50)
    res.name = "criterion-6-two-route-capra-conjugate"
    return res


def criterion_7(seed: int = DEFAULT_SEED) -> CheckResult:
    checks = [
        _check_biconjugate_below(seed),
        _check_triple_conjugate(seed),
        _check_order_reversal(seed),
        _check_conjugate_convexity(seed),
    ]
    worst = max(c.observed for c in checks)
    passed = all(c.passed for c in checks)
    return CheckResult(
        "criterion-7-conjugacy-invariants", passed, 1e-10, worst,
        details="; ".join(f"{c.name}={c.observed:.2e}" for c in checks),
    )


def criterion_8(seed: int = DEFAULT_SEED) -> CheckResult:
    grid = nx.build_grid([(-2.0, 2.0), (-2.0, 2.0)], [65, 65])  # step 1/16
    h = grid.steps[0]
    worst_boundary = 0.0
    gaps = 0
    for p in (1.0, 2.0, math.inf):
        nu = nm.NormalizationSpec.lp(p)
        f = cj.ZeroHomFnSpec.l0(2)
        accepted = cj.capra_subdiff_at_zero(f, cj.CouplingSpec(nu), grid.nodes)
        linf = nm.lp_value_batch(grid.nodes, math.inf)
        off = (linf <= 1.0) != _node_mask(grid, accepted).reshape(-1)
        if off.any():
            worst_boundary = max(worst_boundary, float(np.abs(linf[off] - 1.0).max()))
        gaps += _midpoint_gap_count(grid, accepted)
    passed = worst_boundary <= h + 1e-12 and gaps == 0
    return CheckResult(
        "criterion-8-subdiff-at-zero-is-linf-ball", passed, h, worst_boundary,
        details=f"disagreements within one cell of |y|inf=1; midpoint gaps={gaps}",
    )


def acceptance_suite(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [
        criterion_1(seed),
        criterion_2(seed),
        criterion_3(seed),
        criterion_4(seed),
        criterion_5(seed),
        criterion_6(seed),
        criterion_7(seed),
        criterion_8(seed),
    ]


SUITES = {
    "norms": norms_suite,
    "conjugacy": conjugacy_suite,
    "envelope": envelope_suite,
    "acceptance": acceptance_suite,
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown-suite: unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)} or 'all'")
    names = ("norms", "conjugacy", "envelope", "acceptance") if name == "all" else (name,)
    token = _RUN_MEMO.set({})
    try:
        return [result for key in names for result in SUITES[key](seed)]
    finally:
        _RUN_MEMO.reset(token)


def _plain(value: float | None) -> float | None:
    return None if value is None else float(value)


def report_dict(suite: str, seed: int, results: list[CheckResult]) -> dict:
    # Plain bool/float only, so that a check returning numpy scalars cannot
    # break the JSON report.
    checks = [
        {
            "name": r.name,
            "passed": bool(r.passed),
            "tolerance": _plain(r.tolerance),
            "observed": _plain(r.observed),
            "details": r.details,
        }
        for r in results
    ]
    passed = sum(c["passed"] for c in checks)
    return {
        "suite": suite,
        "seed": seed,
        "passed": passed == len(checks),
        "counts": {"passed": passed, "failed": len(checks) - passed},
        "checks": checks,
    }
