"""The benchmark's three workloads: inputs, operations and output checks.

A workload builds, from its seed, the list of operations of one pass.  Each
operation has a ``call`` (the timed part: one CLI request or one library
call) and a ``check`` that decides, untimed and from an independent
reference, whether the output is right.  ``check(raw, perturb=True)``
corrupts the output before checking it; the self-test uses this to show
that a wrong output is counted.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

WORKLOADS = ("envelope", "verify", "pointwise")


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object, bool], bool]


def make_workload(name: str, seed: int, size: str, tmpdir: str):
    if name == "envelope":
        return EnvelopeWorkload(seed, size, tmpdir)
    if name == "verify":
        return VerifyWorkload(seed, size, tmpdir)
    if name == "pointwise":
        return PointwiseWorkload(seed, size)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _quiet_main(argv) -> int:
    from capra.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


# ---------------------------------------------------------------------------
# envelope: whole CLI requests over product grids


def _read_csv(path: str):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        d = len(header) - 1
        rows = [line.split(",") for line in fh]
    X = np.array([[float(c) for c in r[:d]] for r in rows])
    v = np.array([float(r[d]) for r in rows])  # float() reads +inf / -inf
    return X, v


class _Surface:
    """A written envelope surface on a symmetric product grid."""

    def __init__(self, X: np.ndarray, v: np.ndarray):
        self.X, self.v = X, v
        self.dim = X.shape[1]
        self.axis = np.unique(X[:, 0])
        self.n = self.axis.size
        self.h = float(self.axis[1] - self.axis[0])

    def near(self, point) -> float:
        idx = 0
        for c in point:
            idx = idx * self.n + int(np.argmin(np.abs(self.axis - c)))
        return float(self.v[idx])


class EnvelopeWorkload:
    """``capra envelope`` requests, run in process through ``cli.main``.

    The seed draws the weight phi(1) of the ``phi:`` request; phi(2) stays
    2, so the dual grid (sized from max |phi|) never changes with the seed.
    """

    def __init__(self, seed: int, size: str, tmpdir: str):
        rng = np.random.default_rng(seed)
        w1 = float(rng.uniform(0.5, 1.5))
        # Grids small enough that every request repeats several times in a run.
        # At 83 (and 21) nodes per axis the node nearest the criterion-4
        # checkpoint (1, 1)/sqrt(2) lies inside the l2 ball; at 81 it does not.
        l2, ball, linf, line = (83, 51, 41, 201) if size == "full" else (21, 21, 21, 41)
        self.csv = os.path.join(tmpdir, "surface.csv")
        self.json = os.path.join(tmpdir, "surface.json")
        # (label, argv, nu exponent, phi weights, extra check)
        self.requests = [
            ("lp2-flagship", ["--nu", "lp:2", "--grid", str(l2)], 2.0, [0.0, 1.0, 2.0],
             self._criterion4),
            ("lp0.5-ball", ["--nu", "lp:0.5", "--grid", str(ball)], 0.5, [0.0, 1.0, 2.0], None),
            ("linf-l1", ["--nu", "lp:inf", "--grid", str(linf)], math.inf, [0.0, 1.0, 2.0],
             self._l1_on_linf_ball),
            ("phi-lp1.5", ["--f", f"phi:0,{w1!r},2", "--nu", "lp:1.5", "--grid", str(ball)], 1.5,
             [0.0, w1, 2.0], None),
            ("dim1", ["--nu", "lp:2", "--grid", str(line), "--dim", "1"], 2.0, [0.0, 1.0], None),
        ]

    def ops(self) -> list[Op]:
        out = []
        for label, argv, p, phi, extra in self.requests:
            full = ["envelope", *argv, "--out", self.csv, "--json", self.json]
            out.append(Op(label, lambda full=full: _quiet_main(full),
                          lambda rc, perturb, p=p, phi=phi, extra=extra:
                          self._check(rc, perturb, p, np.array(phi), extra)))
        return out

    def _check(self, rc, perturb: bool, p: float, phi: np.ndarray, extra) -> bool:
        if rc != 0:
            return False
        X, v = _read_csv(self.csv)
        if perturb:
            v[np.flatnonzero(np.all(X == 0.0, axis=1))] = 1e-3
        if np.isnan(v).any():
            return False
        ball = ref.lp_rows(X, p) <= 1.0 + 1e-9
        hull = ball if p >= 1.0 else ref.lp_rows(X, 1.0) <= 1.0 + 1e-9
        if not np.array_equal(np.isposinf(v), ~hull):
            return False
        fvals = phi[np.count_nonzero(X, axis=1)]
        if np.any(v[ball] > fvals[ball] + 1e-12):
            return False
        s = _Surface(X, v)
        if abs(s.near(np.zeros(s.dim))) > 1e-12:
            return False
        with open(self.json, "r", encoding="ascii") as fh:
            summary = json.load(fh)
        # float() also reads the "+inf" / "-inf" literals of the summary
        if float(summary["min"]) != v.min() or float(summary["max"]) != v.max():
            return False
        for item in summary["values_at"]:
            if float(item["v"]) != s.near(item["x"]):
                return False
        return extra is None or extra(s, ball)

    @staticmethod
    def _l1_on_linf_ball(s: _Surface, ball) -> bool:
        return bool(np.all(np.abs(s.v[ball] - ref.lp_rows(s.X[ball], 1.0)) <= 2.0 * s.h))

    @staticmethod
    def _criterion4(s: _Surface, ball) -> bool:
        h = s.h
        diag = 1.0 / math.sqrt(2.0)
        v_diag = s.near([diag, diag])
        if abs(s.near([1.0, 0.0]) - 1.0) > 2.0 * h or not 2.0 - 4.0 * h <= v_diag <= 2.0:
            return False
        for ray in ((1.0, 0.0), (diag, diag)):
            vals = [s.near([t * ray[0], t * ray[1]]) for t in np.linspace(0.0, 1.0, 201)]
            if np.any(np.diff(vals) < -1e-12):
                return False
        return True


# ---------------------------------------------------------------------------
# verify: whole verification suites through the CLI


class VerifyWorkload:
    """``capra verify --suite s --seed <seed>`` for the norms and envelope
    suites.  Besides exit 0 and every check passing, each report must be
    byte-identical to the report of the same suite from an earlier pass of
    this invocation (the determinism contract).

    The conjugacy suite is left out: its checks pass, but ``--report`` then
    raises TypeError, because ``two-route-capra-conjugate`` yields a numpy
    bool that ``json.dump`` cannot write.  Add it back once that is fixed.
    """

    def __init__(self, seed: int, size: str, tmpdir: str):
        self.seed = str(seed)
        self.suites = ("norms", "envelope") if size == "full" else ("norms",)
        self.report = os.path.join(tmpdir, "report.json")
        self.digests: dict[str, str] = {}

    def ops(self) -> list[Op]:
        out = []
        for suite in self.suites:
            argv = ["verify", "--suite", suite, "--seed", self.seed, "--report", self.report]
            out.append(Op(suite, lambda argv=argv: _quiet_main(argv),
                          lambda rc, perturb, suite=suite: self._check(rc, perturb, suite)))
        return out

    def _check(self, rc, perturb: bool, suite: str) -> bool:
        with open(self.report, "rb") as fh:
            data = fh.read()
        if perturb:
            data = data.replace(b'"failed": 0', b'"failed": 1', 1)
        report = json.loads(data)
        digest = hashlib.sha256(data).hexdigest()
        same = self.digests.setdefault(suite, digest) == digest
        return (rc == 0 and same and report["passed"] is True
                and report["counts"]["failed"] == 0
                and all(c["passed"] for c in report["checks"]))


# ---------------------------------------------------------------------------
# pointwise: a seeded stream of single library calls


def _sparse_point(rng, d: int) -> np.ndarray:
    x = rng.standard_normal(d) * 2.0
    x[rng.permutation(d)[: int(rng.integers(0, d))]] = 0.0
    if not np.any(x):
        x[0] = 1.0
    return x


def _phi_weights(rng, d: int) -> np.ndarray:
    w = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.5, d))])
    if d > 2 and rng.random() < 0.3:
        w[int(rng.integers(1, d + 1))] = math.inf
    if not np.isfinite(w[1:]).any():
        w[1] = 1.0
    return w


class PointwiseWorkload:
    """Thousands of single library calls, d in 2..8, in a seeded order.

    The metrics rank the operations by their fastest repetition.  Eighteen
    of the 24 10k-direction k-support oracles (p = 2 or inf, ~85 ms; the
    four at p = 2, d = 2 take ~130 ms) are the slowest calls, so the tail
    (the 11th slowest) falls inside that class.  Cheap norm calls sit on
    either side of the 700 phi_dual_gauge calls, so the median falls inside
    that class.  Heavy classes follow fixed (p, d) schedules, so every pass
    costs the same.
    """

    COUNTS = {
        "top_k_norm": 150, "k_support_norm": 100, "dck_sort": 60, "dck_enumerate": 70,
        "dck_custom": 6, "phi_dual_gauge": 700, "l0_analytic": 100,
        "subdiff_analytic": 200, "subdiff_sphere": 10, "capra_conjugate_sample": 40,
        "conjugate_at_points": 8, "pos_hom_lp2": 20, "pos_hom_lp0.5": 4,
        "best_norm_value": 1, "k_support_bruteforce": 24,
    }

    def __init__(self, seed: int, size: str):
        import capra
        from capra import conjugacy as cj, envelope as ev, norms as nm, oracle as orc

        self.cj, self.ev, self.nm, self.orc = cj, ev, nm, orc
        rng = np.random.default_rng(seed)
        self._samples = {}
        # Prebuilt inputs: 201^2 ball-masked l0 samples and the candidate cloud.
        grid = ev.ball_box_grid(2, 201 if size == "full" else 41)
        X = grid.nodes
        self.masked = {}
        for p in (2.0, 0.5):
            vals = np.where(ref.lp_rows(X, p) <= 1.0 + 1e-9,
                            np.count_nonzero(X, axis=1).astype(float), math.inf)
            self.masked[p] = capra.FunctionSample(grid, vals)
        axis = np.linspace(-1.5, 1.5, 25)
        self.cand = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        self.dirs = {}
        n_dirs = 10_000 if size == "full" else 500
        for d in range(2, 7):
            z = rng.standard_normal((n_dirs, d))
            signs = np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * d, indexing="ij")).reshape(d, -1).T
            self.dirs[d] = np.vstack([z / np.linalg.norm(z, axis=1)[:, None],
                                      signs[np.any(signs != 0.0, axis=1)]])
        counts = self.COUNTS if size == "full" else {k: 1 for k in self.COUNTS}
        self._ops = [getattr(self, "_" + kind.replace(".", "_"))(rng, i)
                     for kind, n in counts.items() for i in range(n)]
        order = rng.permutation(len(self._ops))
        self._ops = [self._ops[i] for i in order]

    def ops(self) -> list[Op]:
        return self._ops

    @staticmethod
    def _num(kind, call, expected: Callable[[float], bool]) -> Op:
        def check(out, perturb):
            out = float(out)
            if perturb:
                out += 1e-3 * (1.0 + abs(out))
            return not math.isnan(out) and expected(out)
        return Op(kind, call, check)

    @staticmethod
    def _flag(kind, call, expected: bool) -> Op:
        return Op(kind, call, lambda out, perturb: (bool(out) != perturb) == expected)

    def _sphere_sample(self, p: float, d: int):
        key = (p, d)
        if key not in self._samples:
            self._samples[key] = self.cj.build_sphere_sample(self.nm.NormalizationSpec.lp(p), d,
                                                             10_000)
        return self._samples[key]

    # -- norms

    def _top_k_norm(self, rng, i) -> Op:
        d = int(rng.integers(2, 9))
        y, q, k = rng.standard_normal(d) * 3.0, float(rng.choice([1.0, 1.5, 2.0, math.inf])), \
            int(rng.integers(1, d + 1))
        want = ref.top_k(y, q, k)
        return self._num("top_k_norm", lambda: self.nm.top_k_norm(y, q, k),
                         lambda v: ref.close(v, want, 1e-12))

    def _k_support_norm(self, rng, i) -> Op:
        d = int(rng.integers(2, 9))
        x, p, k = rng.standard_normal(d) * 3.0, float(rng.choice([1.0, 2.0, math.inf])), \
            int(rng.integers(1, d + 1))
        want = ref.k_support(x, p, k)
        return self._num("k_support_norm", lambda: self.nm.k_support_norm(x, p, k),
                         lambda v: ref.close(v, want, 1e-12 if p != 2.0 else 1e-9))

    def _dck(self, rng, kind: str, method: str, dims, i=None) -> Op:
        d = int(rng.choice(dims))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, math.inf]))
        y, k = rng.standard_normal(d) * 3.0, int(rng.integers(1, d + 1))
        if i is not None:
            # a fixed (p, k) schedule keeps the cost of a pass seed-independent
            p, k = [1.0, 2.0, math.inf][i % 3], 1 + i % 2
        want = ref.top_k(y, ref.conj_exp(p), k)
        if method == "custom":
            src = self.nm.SourceNormSpec.custom(lambda z, p=p: ref.lp(z, p), d)
            return self._num(kind, lambda: self.nm.dual_coordinate_k_norm(y, src, k),
                             lambda v: abs(v - want) <= 1e-3)
        src = self.nm.SourceNormSpec.lp(p, d)
        return self._num(kind, lambda: self.nm.dual_coordinate_k_norm(y, src, k, method=method),
                         lambda v: ref.close(v, want, 1e-12))

    def _dck_sort(self, rng, i) -> Op:
        return self._dck(rng, "dck_sort", "sort", range(2, 9))

    def _dck_enumerate(self, rng, i) -> Op:
        return self._dck(rng, "dck_enumerate", "enumerate", range(2, 9))

    def _dck_custom(self, rng, i) -> Op:
        # The sampled restricted duals (512 directions per subset) meet the
        # 1e-3 tolerance of the custom-source suite check at d = 2.
        return self._dck(rng, "dck_custom", "custom", (2,), i)

    def _phi_dual_gauge(self, rng, i) -> Op:
        d = int(rng.integers(2, 9))
        y, p = rng.standard_normal(d) * 3.0, float(rng.choice([1.0, 1.5, 2.0, math.inf]))
        w = _phi_weights(rng, d)
        phi, src = self.nm.PhiSpec(w), self.nm.SourceNormSpec.lp(p, d)
        want = ref.phi_gauge(y, w, ref.conj_exp(p))
        return self._num("phi_dual_gauge", lambda: self.nm.phi_dual_gauge(y, phi, src),
                         lambda v: ref.close(v, want, 1e-12))

    def _best_norm_value(self, rng, i) -> Op:
        # phi = (0, inf, c): the dual ball is {lq <= c}, so the norm is c * lp
        # exactly, while the gauge-collapse gate fails and the value is sampled.
        p, c = [2.0, 1.5, 3.0, math.inf, 1.0][i % 5], float(rng.uniform(0.5, 2.0))
        x = rng.standard_normal(2) * 2.0
        obj = self.nm.best_norm_object(self.nm.PhiSpec(np.array([0.0, math.inf, c])),
                                       self.nm.SourceNormSpec.lp(p, 2), n_directions=1024)
        want = c * ref.lp(x, p)
        return self._num("best_norm_value", lambda: obj.value(x),
                         lambda v: want * (1.0 - 1e-4) <= v <= want * (1.0 + 1e-9) + 1e-12)

    # -- conjugacy

    def _l0_analytic(self, rng, i) -> Op:
        d = int(rng.integers(2, 9))
        y, p = rng.standard_normal(d) * 2.0, float(rng.choice([1.0, 1.5, 2.0, math.inf]))
        w = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.5, d))])
        phi, src = self.nm.PhiSpec(w), self.nm.SourceNormSpec.lp(p, d)
        want = ref.capra_l0_conj(y, w, ref.conj_exp(p))
        return self._num("l0_analytic", lambda: self.cj.capra_conjugate_l0_analytic(y, phi, src),
                         lambda v: ref.close(v, want, 1e-9))

    def _subdiff_analytic(self, rng, i) -> Op:
        # l0 with an lp normalization, p >= 1: analytic conjugate, 1e-9 test.
        while True:
            d = int(rng.integers(2, 9))
            p = float(rng.choice([1.0, 2.0, math.inf]))
            x = _sparse_point(rng, d)
            if rng.random() < 0.5:
                # a member: a dominant coordinate on x's support, small elsewhere
                i = int(rng.choice(np.flatnonzero(x)))
                x = np.zeros(d)
                x[i] = float(rng.uniform(0.5, 3.0)) * float(rng.choice([-1.0, 1.0]))
                y = rng.uniform(-0.5, 0.5, d) / d
                y[i] = np.sign(x[i]) * float(rng.uniform(1.0, 3.0))
            else:
                y = rng.uniform(-3.0, 3.0, d)
            phi = np.arange(d + 1, dtype=float)
            margin = abs(ref.capra_l0_conj(y, phi, ref.conj_exp(p))
                         - (float(x @ y) / ref.lp(x, p) - np.count_nonzero(x)))
            if margin <= 1e-11 or margin >= 1e-6:
                break
        f, cp = self.cj.ZeroHomFnSpec.l0(d), self.cj.CouplingSpec(self.nm.NormalizationSpec.lp(p))
        return self._flag("subdiff_analytic", lambda: self.cj.capra_subdiff_contains(y, x, f, cp),
                          margin <= 1e-11)

    def _subdiff_sphere(self, rng, i) -> Op:
        # lp:0.5 has no analytic route: the call builds a sphere sample.  Its
        # conjugate of l0 is max(0, linf(y) - 1) (attained on the axes).
        while True:
            i = int(rng.integers(0, 2))
            if rng.random() < 0.5:
                x = np.zeros(2)
                x[i] = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
            else:
                x = rng.uniform(0.2, 1.0, 2) * rng.choice([-1.0, 1.0], 2)
            if rng.random() < 0.5:
                y = rng.uniform(-0.9, 0.9, 2)
                y[i] = np.sign(x[i] if x[i] else 1.0) * float(rng.uniform(1.0, 3.0))
            else:
                y = rng.uniform(-3.0, 3.0, 2)
            margin = abs(max(0.0, ref.lp(y, math.inf) - 1.0)
                         - (float(x @ y) / ref.lp(x, 0.5) - np.count_nonzero(x)))
            # 0.05 (1 + |y|) bounds the route's tolerance 5 gap (1 + |y|) with
            # room to spare; margins near it are not generated.
            if margin <= 1e-11 or margin >= 0.15 * (1.0 + float(np.linalg.norm(y))):
                break
        f = self.cj.ZeroHomFnSpec.l0(2)
        cp = self.cj.CouplingSpec(self.nm.NormalizationSpec.lp(0.5))
        return self._flag("subdiff_sphere", lambda: self.cj.capra_subdiff_contains(y, x, f, cp),
                          margin <= 1e-11)

    def _capra_conjugate_sample(self, rng, i) -> Op:
        # The analytic-vs-sphere suite check: 10k-point samples, |y| <= 4, 1e-3.
        d, p = int(rng.choice([2, 3])), float(rng.choice([1.0, 2.0, math.inf]))
        scale = float(rng.choice([1.0, 2.0]))
        u = rng.standard_normal(d)
        y = u / max(np.linalg.norm(u), 1e-12) * float(rng.uniform(0.0, 4.0))
        sample = self._sphere_sample(p, d)
        f = self.cj.ZeroHomFnSpec.phi_l0(self.nm.PhiSpec.scaled_identity(scale, d))
        cp = self.cj.CouplingSpec(self.nm.NormalizationSpec.lp(p))
        want = ref.capra_l0_conj(y, scale * np.arange(d + 1.0), ref.conj_exp(p))
        return self._num("capra_conjugate_sample",
                         lambda: self.cj.capra_conjugate(f, cp, y, sample),
                         lambda v: abs(v - want) <= 1e-3)

    def _conjugate_at_points(self, rng, i) -> Op:
        # Scattered duals: exact +-inf pattern, finite values within a few ulp
        # of the literal row-at-a-time conjugate.
        sample = self.masked[(2.0, 0.5)[i % 2]]
        Y = rng.uniform(-3.0, 3.0, (64, 2))
        X, vals = sample.grid.nodes, sample.values
        fmax = float(np.abs(vals[np.isfinite(vals)]).max())
        tol = 8.0 * ref.EPS * (np.abs(X).max() * np.abs(Y).sum(axis=1) + fmax + 1.0)
        want = []  # the reference, computed at the first check

        def check(out, perturb):
            if not want:
                want.append(ref.conjugate_rows(np.asarray(X), np.asarray(vals), Y))
            out = np.array(out, dtype=float)
            if perturb:
                out[0] += 1e-3
            return ref.same_extended(out, want[0], tol)
        return Op("conjugate_at_points", lambda: self.cj.conjugate_at_points(sample, Y), check)

    # -- envelope and oracle

    def _pos_hom(self, rng, kind: str, p: float) -> Op:
        # The Capra subdifferential of l0 at 0 is the linf unit ball for every
        # lp normalization (criterion 8); over the 25^2 candidate grid, whose
        # step is 1/8, its support function is exactly l1(x).
        x = rng.standard_normal(2)
        f, nu = self.cj.ZeroHomFnSpec.l0(2), self.nm.NormalizationSpec.lp(p)
        want = ref.lp(x, 1.0)
        return self._num(kind, lambda: self.ev.tightest_pos_hom_on_ball(f, nu, x, self.cand),
                         lambda v: ref.close(v, want, 1e-9))

    def _pos_hom_lp2(self, rng, i) -> Op:
        return self._pos_hom(rng, "pos_hom_lp2", 2.0)

    def _pos_hom_lp0_5(self, rng, i) -> Op:
        return self._pos_hom(rng, "pos_hom_lp0.5", 0.5)

    def _k_support_bruteforce(self, rng, i) -> Op:
        # p = 1 and p = inf are attained on the sign patterns, so the lower
        # estimate is exact; p = 2 is a lower estimate that never exceeds the
        # closed form, within twice the d-dependent tolerance of the
        # 20k-direction test (this cloud has half as many directions).
        # (p, d) follow a fixed schedule so that every pass costs the same:
        # half the calls use p = 2 (d = 2, 3, 4), a quarter each p = inf and
        # p = 1 (d = 2..6).  The p = 2 and p = inf calls set the tail.
        p = (2.0, math.inf, 2.0, 1.0)[i % 4]
        d = 2 + (i // 2) % 3 if p == 2.0 else 2 + (i // 4) % 5
        x, k = rng.standard_normal(d) * 2.0, int(rng.integers(1, d + 1))
        dirs = self.dirs[d]
        want = ref.k_support(x, p, k)
        low = {2: 2e-4, 3: 1e-2, 4: 4e-2}.get(d, 0.0) if p == 2.0 else 1e-12
        return self._num("k_support_bruteforce",
                         lambda: self.orc.k_support_bruteforce(x, p, k, dirs),
                         lambda v: want - low * (1.0 + want) <= v <= want * (1.0 + 1e-12) + 1e-12)
