"""Fenchel and Capra conjugation, biconjugation, and subdifferentials.

The coupling here is "constant along primal rays" (Capra): the scalar
product divided by a normalization function of the primal argument,
``<x, y> / nu(x)`` for x != 0 and 0 at x = 0.  For 0-homogeneous functions
the Capra conjugate coincides with the Fenchel conjugate of the function
restricted to the unit ball (equivalently, sphere-plus-origin) of nu, which
gives two independently computable routes to the same value.

Transforms between product grids (:func:`_grid_transform`, a chain of one
or two) are separable: one pass per axis, about
``(primal nodes) x (dual count of an axis)`` updates instead of primal x
dual pairs.  An axis is folded when it is sign-symmetric on every grid of
the chain (``ax == -ax[::-1]``, as on every grid with ``lower == -upper``)
and the values equal their flip along it: its passes run on the
non-negative halves of the axes, and the output is mirrored once at the
end.  A transform with every axis folded makes about ``2^(d+1)`` times
fewer updates (a 201x201 envelope takes about 12-16 ms), and the work cap
counts the updates that run.  Folding changes no value, only, at times, the
sign of a zero.  Grid transforms match the pairwise oracle
:func:`capra.oracle.naive_conjugate` in the +-inf pattern exactly and in
finite values within ``4 eps (max|x| |y|_1 + max|f|)``.  Transforms to
scattered dual points keep one sum per pair, accumulated axis-ascending as
the oracle's are, and equal the oracle in value, with an exact +-inf
pattern; only the sign of a zero can differ (a max over a tie of +0.0 and
-0.0 depends on where the tied scores fall in a block: on the ``l0``
samples of the verify suite, at 1 of 33 zeros at d = 1 and at 16 of 1,089
at d = 2).  Both run in blocks of at most ``_BLOCK_FLOATS`` floats
(512 KB, within a core's L2 cache), whose size never changes a value; so
the point transform needs a copy of the finite primal rows and one block,
whatever the number of duals.  Both are deterministic, and both refuse
work above ``numerics.MAX_TRANSFORM_WORK``.

The analytic Capra conjugate of phi∘l0 depends on |y| only.  On a dual grid
it is evaluated on one |y| orthant, the product of each axis's distinct
magnitudes, in blocks of rows, bit-identical to the batch over the nodes
and without building them; on equal axes only the rows with sorted
magnitudes are evaluated, and on sign-symmetric axes the orthant is the
folded input of the envelope transform, whose fold and work are decided
there, once.  NaN dual points raise ``nan-input``; the point transform
refuses infinite ones with ``nonfinite-input``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._directions import sign_patterns, unit_directions
from .norms import (
    NormalizationSpec,
    PhiSpec,
    SourceNormSpec,
    _check_homogeneous,
    _check_phi_dim,
    _check_spec,
    _finite_columns,
    _finite_level_norms,
    conj_exponent,
    top_k_norm_table,
)
from .numerics import (FunctionSample, Grid, _as_rows, _axis_extent, _axis_magnitudes,
                       _block_rows, _check_pairing, _check_work, _count_nonzero_rows,
                       _evaluate_rows, _finite_scale, _fold_axes, _half_index, _nonzero_rows,
                       _on_magnitudes, _refuse_nan, _refuse_nonfinite, _unfold, low_add)

__all__ = [
    "CouplingSpec",
    "ZeroHomFnSpec",
    "capra_coupling",
    "fenchel_conjugate",
    "fenchel_biconjugate",
    "conjugate_at_points",
    "build_sphere_sample",
    "capra_conjugate",
    "capra_conjugate_direct",
    "capra_conjugate_l0_analytic",
    "capra_conjugate_l0_analytic_batch",
    "capra_subdiff_contains",
    "capra_subdiff_at_zero",
    "ANALYTIC_TOL",
]

ANALYTIC_TOL = 1e-9


def _check_grid_work(grids, fold, what: str = "grid transform", dual: int = 1) -> int:
    """The updates of the chain of transforms through ``grids`` with the axes
    in ``fold`` folded; grids of two dimensions raise ``dimension-mismatch``
    (``grids[dual]`` is the dual one), and each transform, last first, is
    refused above ``MAX_TRANSFORM_WORK``.  Pass k updates the target counts
    of the axes before k, both counts of axis k and the source counts of
    the axes after k, with ``n - n // 2`` of the n nodes of a folded axis."""
    if any(grid.dim != grids[dual].dim for grid in grids):
        raise ValueError(f"dimension-mismatch: dual grid dimension {grids[dual].dim} != "
                         f"primal grid dimension {grids[1 - dual].dim}")
    counts = [[n - n // 2 if f else n for n, f in zip(grid.counts, fold)] for grid in grids]
    work = [sum(math.prod(dst[:k + 1]) * math.prod(src[k:]) for k in range(len(src)))
            for src, dst in zip(counts, counts[1:])]
    for w in reversed(work):
        _check_work(w, what)
    return sum(work)


def _axis_pass(g: np.ndarray, x: np.ndarray, y: np.ndarray,
               negate: bool = False) -> np.ndarray:
    """``out[a, j, b] = max over i of g[a, i, b] + x[i] * y[j]``, or of
    ``x[i] * y[j] - g[a, i, b]`` when ``negate`` (the same sum of ``-g``, bit
    for bit, without a negated copy of g), chunked along a, j and b (the
    contiguous b first) so no broadcast exceeds _BLOCK_FLOATS elements.
    Every block spans the whole axis i, so the block size does not change
    the outputs."""
    A, n, B = g.shape
    m = y.size
    out = np.empty((A, m, B))
    bc = _block_rows(B, n)
    mc = _block_rows(m, n * bc)
    ac = _block_rows(A, n * mc * bc)
    for j in range(0, m, mc):
        xy = np.multiply.outer(x, y[j:j + mc])[:, :, None]
        for b in range(0, B, bc):
            for a in range(0, A, ac):
                part = g[a:a + ac, :, None, b:b + bc]
                block = xy - part if negate else part + xy
                out[a:a + ac, j:j + mc, b:b + bc] = block.max(axis=1)
    return out


def _grid_transform(grids, values, fold=None) -> np.ndarray:
    """Discrete conjugate of ``values`` on ``grids[0]`` onto ``grids[1]``,
    then of that onto ``grids[2]`` if given: the flat values on the last
    grid.  Flat ``values`` over the nodes of ``grids[0]`` get their fold
    decided here and checked by :func:`_check_grid_work` (which also refuses
    grids of two dimensions); with ``fold``, ``values`` is the folded input
    of a checked chain (:func:`_capra_conjugate_l0_analytic_grid`).
    :func:`_check_pairing` refuses each transform before the first pass.

    On a product grid the max over primal nodes factors by axis (the
    separability behind Lucet's discrete Legendre transform), e.g. in 2-d
    ``f*(y1, y2) = max_x1 [x1 y1 + max_x2 (x2 y2 - f(x1, x2))]``.  Pass k
    replaces primal axis k by dual axis k.  Pairings are finite, so the
    infinities follow the lower addition as in :func:`_conjugate_values`: a
    value of -inf makes every output +inf, and +inf values never attain the
    max (all +inf gives -inf).  Outputs differ from the one-sum-per-pair
    transform only by rounding: the ±inf pattern is identical and finite
    values agree within ``4 eps (max|x| |y|_1 + max|f|)``.

    Axis k folds when it is sign-symmetric (``ax == -ax[::-1]``) on every
    grid of the chain and the values are even along it (a conjugate of even
    values is even, so one decision serves the whole chain).  Its passes
    run on the non-negative halves of the axes, and the result is mirrored
    once at the end.  For y >= 0 some maximizer has x >= 0, and
    ``fl(-a b) = -fl(a b)``, so a folded output equals the unfolded one in
    value; only the sign of a zero can differ (the max of sums that tie at
    +0.0 and -0.0).
    """
    g = values
    if fold is None:
        g = np.asarray(values, dtype=float).reshape(grids[0].counts)
        fold = _fold_axes(grids, g)
        _check_grid_work(grids, fold)
        g = g[_half_index(g.shape, fold)]
    bound = _finite_scale(g)
    for src, dst in zip(grids, grids[1:]):
        bound = _check_pairing(_axis_extent(src)[0], _axis_extent(dst)[1], bound, "grid transform")
    for src, dst in zip(grids, grids[1:]):
        for k, (x, y) in enumerate(zip(src.axes, dst.axes)):
            if fold[k]:
                x, y = x[x.size // 2:], y[y.size // 2:]
            shape = g.shape
            # The first pass of each transform pairs with -g.
            g = _axis_pass(g.reshape(math.prod(shape[:k]), shape[k], -1), x, y, k == 0)
            g = g.reshape(shape[:k] + (y.size,) + shape[k + 1:])
    if any(fold):
        g = _unfold(g, grids[-1].counts, fold)
    return g.reshape(-1)


def _conjugate_values(points: np.ndarray, values: np.ndarray,
                      duals: np.ndarray) -> np.ndarray:
    """For each dual row y: max over i of ``<points[i], y> - values[i]``.

    The transform for scattered dual points.  The pairing is finite (finite
    points and duals, bounded by :func:`_check_pairing`), so the subtraction
    realizes the lower addition for values of +-inf.  A value of -inf makes
    every output +inf; rows with value +inf never attain the max, and if no
    other row exists the output is -inf.  Work runs in blocks of dual rows x
    primal rows of at most _BLOCK_FLOATS scores, folded into the output by a
    running max.  Each pair's sum is accumulated axis-ascending and a max is
    exact, so the output is equal in value, with an exact +-inf pattern, to
    the row-at-a-time evaluation and to :func:`capra.oracle.naive_conjugate`
    on the same points, whatever the blocking; only the sign of a zero can
    differ.  A NaN dual coordinate raises ``nan-input`` and an infinite one
    ``nonfinite-input`` (its pairing with a zero coordinate would be NaN).
    """
    duals = _as_rows(duals)
    if duals.shape[1] != points.shape[1]:
        raise ValueError(f"dimension-mismatch: dual points must have dimension {points.shape[1]} "
                         f"(got {duals.shape[1]})")
    _refuse_nonfinite(duals, "a dual point")
    _check_work(len(points) * duals.shape[0], "point transform")
    out = np.full(duals.shape[0], -math.inf)
    if np.isneginf(values).any():
        out.fill(math.inf)
        return out
    keep = ~np.isposinf(values)
    # One contiguous row per axis, copied column by column: several times
    # faster than a transposing copy of the short rows, and a boolean index
    # of one column is faster than np.compress of rows.
    rows = slice(None) if keep.all() else keep
    vals = values[rows]
    cols = np.empty((points.shape[1], vals.size))
    for k in range(points.shape[1]):
        cols[k] = points[:, k][rows]
    with np.errstate(over="ignore"):  # an overflowing |y|_1 is refused
        ymax1 = np.abs(duals).sum(axis=1).max(initial=0.0)
    _check_pairing(max(cols.max(initial=0.0), -cols.min(initial=0.0)), ymax1,
                   max(vals.max(initial=0.0), -vals.min(initial=0.0)), "point transform")
    d, n = cols.shape
    pc = _block_rows(n, 1)
    dc = _block_rows(duals.shape[0], pc)
    for j in range(0, duals.shape[0], dc):
        yc = duals[j:j + dc]
        best = out[j:j + dc]
        for i in range(0, n, pc):
            scores = yc[:, 0, None] * cols[0, None, i:i + pc]
            for k in range(1, d):
                scores += yc[:, k, None] * cols[k, None, i:i + pc]
            scores -= vals[None, i:i + pc]
            np.maximum(best, scores.max(axis=1), out=best)
    return out


def fenchel_conjugate(f: FunctionSample, dual_grid: Grid) -> FunctionSample:
    """Discrete Fenchel conjugate: ``f*(y) = max_x (<x, y> - f(x))`` with the
    max over the primal grid nodes and lower-addition rules for infinities.
    """
    return FunctionSample(dual_grid, _grid_transform((f.grid, dual_grid), f.values))


def fenchel_biconjugate(f: FunctionSample, dual_grid: Grid) -> FunctionSample:
    """Conjugate twice through ``dual_grid``; result is <= f at every node and
    is the grid-restricted closed convex envelope of the samples (for dual
    grids covering the supporting slopes)."""
    return FunctionSample(f.grid, _grid_transform((f.grid, dual_grid, f.grid), f.values))


def conjugate_at_points(f: FunctionSample, points) -> np.ndarray:
    """Values of the discrete conjugate of ``f`` at arbitrary dual points
    (:func:`_conjugate_values` of one point or an (n, d) array of them)."""
    return _conjugate_values(f.grid.nodes, f.values, np.atleast_2d(points))


@dataclass
class CouplingSpec:
    """Constant-along-primal-rays coupling generated by a normalization
    function: ``<x, y> / nu(x)`` for x != 0, and 0 at x = 0."""

    nu: NormalizationSpec


# A plain <x, y> of d coordinates cannot overflow while d max|x| max|y| is
# below this: no product or partial sum is larger than about that.
_DOT_SAFE = 2.0 ** 1022


def capra_coupling(x, y, coupling: CouplingSpec) -> float:
    """``<x, y> / nu(x)``, and 0 at x = 0.

    The plain ``<x, y>`` keeps its bits whenever it does not overflow.  On
    finite points where it does, the coupling is taken at ``x / max|x|`` and
    ``y / max|y|`` and multiplied back by max|y| (it is 0-homogeneous in x
    and 1-homogeneous in y), so it is finite wherever its value is, and
    +-inf without a warning beyond the largest float.  The bound
    ``d max|x| max|y|`` that tells when the plain product may overflow is
    taken in Python floats, so below it the call pays for no
    ``np.errstate``.  x and y that are not 1-d points of one size raise
    ``dimension-mismatch``, also at x = 0.  A NaN coordinate raises
    ``nan-input`` and an infinite one ``nonfinite-input`` (x's first).  Off
    x = 0 they are looked for only when the product is not finite, which it
    is exactly when a coordinate is not or, above the bound, when it
    overflows.  :func:`capra_subdiff_contains` relies on these checks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValueError(f"dimension-mismatch: x and y must be points of one dimension "
                         f"(got shapes {x.shape} and {y.shape})")
    xs = x.tolist()
    if not any(xs):  # no nonzero coordinate (a NaN is one)
        _refuse_nonfinite(y, "a dual point")
        return 0.0
    xmax = max(map(abs, xs))
    ymax = max(map(abs, y.tolist()), default=0.0)
    # Python's max passes over a NaN after the first entry, never over an
    # inf: below the bound every coordinate is finite or NaN, and a NaN
    # product raises no warning.
    if xmax * ymax * len(xs) <= _DOT_SAFE:
        dot = float(np.dot(x, y))
        if dot == dot:
            return dot / coupling.nu.value(x)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            dot = float(np.dot(x, y))
        if math.isfinite(dot):
            return dot / coupling.nu.value(x)
    _refuse_nonfinite(x, "a point")
    _refuse_nonfinite(y, "a dual point")
    x = x / xmax
    return float(np.dot(x, y / ymax)) / coupling.nu.value(x) * ymax


@dataclass
class ZeroHomFnSpec:
    """A 0-homogeneous function f (f(rho * x) = f(x) for rho != 0).

    The main family is ``phi_l0``: f(x) = phi(number of nonzeros of x).
    Custom callables are accepted; 0-homogeneity is the caller's contract
    and is spot-checked by the test suite.  A spec given both ``fn`` (one
    point) and ``batch`` ((n, d) points) must have them agree at every point.
    """

    kind: str
    phi: PhiSpec | None = None
    fn: Callable | None = None
    batch_fn: Callable | None = None

    def __post_init__(self):
        _check_spec(self, {"phi_l0": "phi", "custom": "fn"})

    @classmethod
    def l0(cls, dim: int) -> "ZeroHomFnSpec":
        return cls.phi_l0(PhiSpec.identity(dim))

    @classmethod
    def phi_l0(cls, phi: PhiSpec) -> "ZeroHomFnSpec":
        return cls(kind="phi_l0", phi=phi)

    @classmethod
    def constant_zero(cls) -> "ZeroHomFnSpec":
        return cls.custom(lambda x: 0.0, batch=lambda X: np.zeros(X.shape[0]))

    @classmethod
    def custom(cls, fn: Callable, batch: Callable | None = None) -> "ZeroHomFnSpec":
        return cls(kind="custom", fn=fn, batch_fn=batch)

    def value(self, x) -> float:
        """f(x): phi of the nonzero count, or for a custom f the one-row case
        of :meth:`batch`."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if self.kind == "phi_l0":
            _check_phi_dim(self.phi, x.size)
            return self.phi(int(np.count_nonzero(x)))
        return float(self.batch(x[None])[0])

    def batch(self, X: np.ndarray) -> np.ndarray:
        """f at each row of the (n, d) array X.  The one place a custom f is
        evaluated, by :func:`capra.numerics._evaluate_rows`; a NaN value
        raises ``nan-input``."""
        X = _as_rows(X)
        if self.kind == "phi_l0":
            _check_phi_dim(self.phi, X.shape[1])
            return self.phi.values[_count_nonzero_rows(X)]
        vals = _evaluate_rows(self.fn, self.batch_fn, X, "f")
        _refuse_nan(vals, "a value of f")
        return vals


def build_sphere_sample(nu: NormalizationSpec, dim: int,
                        count: int = 8192) -> np.ndarray:
    """Deterministic sample of the unit sphere of nu, plus the origin, as a
    fresh, writable (rows, dim) array; dim < 1 raises ``invalid-dim``.

    Every sparse coordinate subspace is represented (signed axes exactly;
    low-discrepancy directions within larger supports), so functions whose
    level sets are tied to support size have all strata covered.  One array
    holds the origin, the signed axes, the other sign patterns and each
    stratum's directions on each support (above ``MAX_TRANSFORM_WORK``
    floats, ``work-too-large`` before it is built); one ``nu.batch`` maps
    its nonzero rows to the sphere, x -> x / nu(x).  The sphere route of
    :func:`_capra_route`, taken only for a custom f or a custom nu, builds
    its sample on every call.
    """
    if dim < 1:
        raise ValueError(f"invalid-dim: a sphere sample needs dim >= 1 (got {dim})")
    _check_homogeneous(nu, dim)
    # The origin and the 3^dim - 1 sign patterns, then the strata's rows.
    rows = 3**dim
    strata = []
    for m in range(2, dim + 1):
        if m == dim:
            per = max(2 * dim, count - rows)
        else:
            per = max(4 * m, 2 * int(round(count ** ((m - 1) / (dim - 1)))))
        strata.append((m, per))
        rows += per * math.comb(dim, m)
    _check_work(rows * dim, "sphere sample", "floats")
    sample = np.zeros((rows, dim))
    # +1 and -1 placed into zeros: a negated identity row would hold -0.0.
    axes = np.arange(dim)
    sample[1 + 2 * axes, axes] = 1.0
    sample[2 + 2 * axes, axes] = -1.0
    at = 1 + 2 * dim
    if dim >= 2:
        # Sign patterns: for polyhedral spheres (l1, linf) the normalized
        # patterns are where the per-stratum maxima of linear forms sit.
        corners = sign_patterns(dim)
        corners = corners[_count_nonzero_rows(corners) >= 2]
        sample[at:at + len(corners)] = corners
        at += len(corners)
    for m, per in strata:
        dirs = unit_directions(per, m)
        for K in itertools.combinations(range(dim), m):
            sample[at:at + per, list(K)] = dirs
            at += per
    sample[1:] /= nu.batch(sample[1:])[:, None]
    return sample


def capra_conjugate(f: ZeroHomFnSpec, coupling: CouplingSpec, y,
                    sphere_sample: np.ndarray) -> float | np.ndarray:
    """Capra conjugate of a 0-homogeneous f by the sphere route: the max
    over the sample points s of ``low_add(<s, y>, -f(s))``.

    ``y`` is one dual point, which gives a float, or an (n, d) array of
    them, which gives one value per row from a single evaluation of f on the
    sample.  The sample must be a nonempty 2-d array (else
    ``empty-sample``) that holds the origin and whose first 64 nonzero rows
    lie on the unit sphere of the coupling's normalization function (else
    ``invalid-sample``); with dense samples this converges to the Fenchel
    conjugate of f restricted to the unit ball.  This is the one entry that
    takes a caller's sample, so these checks, and the homogeneity spot check
    of a custom nu, run here and not in the transform.
    """
    sample = np.asarray(sphere_sample, dtype=float)
    if sample.ndim != 2 or sample.shape[0] == 0:
        raise ValueError("empty-sample: sphere sample must be a nonempty 2-d array")
    _check_homogeneous(coupling.nu, sample.shape[1])
    nonzero = _nonzero_rows(sample)
    if nonzero.all():
        raise ValueError("invalid-sample: sphere sample must contain the origin")
    # Spot-check membership of the sphere on a few nonzero rows.
    idx = np.flatnonzero(nonzero)[:64]
    if idx.size and np.any(np.abs(coupling.nu.batch(sample[idx]) - 1.0) > 1e-6):
        raise ValueError("invalid-sample: sphere sample contains points off the unit "
                         "sphere of nu")
    return _sample_conjugate(f, sample, y)


def _sample_conjugate(f: ZeroHomFnSpec, sample: np.ndarray, y):
    """The one sampled Capra conjugate, with no check of the sample (points
    of the unit sphere of nu and the origin): the max over its rows s of
    ``low_add(<s, y>, -f(s))``, a float for one dual point y."""
    y = np.asarray(y, dtype=float)
    conj = _conjugate_values(sample, f.batch(sample), y[None, :] if y.ndim == 1 else y)
    return float(conj[0]) if y.ndim == 1 else conj


def capra_conjugate_direct(f: ZeroHomFnSpec, coupling: CouplingSpec, y,
                           grid: Grid) -> float | np.ndarray:
    """Capra conjugate straight from the definition: the max over grid
    nodes x of ``low_add(coupling(x, y), -f(x))``.

    That is :func:`_sample_conjugate` over the grid's normalized nodes: one
    ``nu.batch`` maps the nonzero nodes x to x / nu(x), the zero node stays
    0, and f is 0-homogeneous.  ``y`` is one dual point, which gives a
    float, or an (n, d) array of them, one value per row, each equal to
    that of a call with the row alone.
    """
    _check_homogeneous(coupling.nu, grid.dim)
    X = grid.nodes
    nonzero = _nonzero_rows(X)
    points = np.zeros_like(X)
    points[nonzero] = X[nonzero] / coupling.nu.batch(X[nonzero])[:, None]
    return _sample_conjugate(f, points, y)


def _analytic_applicable(f: ZeroHomFnSpec, nu: NormalizationSpec) -> bool:
    return f.kind == "phi_l0" and nu.kind == "lp"


def _lp_source(nu: NormalizationSpec, dim: int) -> SourceNormSpec:
    """The source norm of an lp nu on R^dim, ``lp(max(p, 1))``: its ball is
    the closed convex hull of nu's (for p < 1, star-shaped with the signed
    axes as extreme points, the l1 ball), so on each support K both give
    the same sup of a linear form, ``|y_K|_inf`` for p < 1."""
    return SourceNormSpec.lp(max(nu.p, 1.0), dim)


def capra_conjugate_l0_analytic(y, phi: PhiSpec, source: SourceNormSpec) -> float:
    """Capra conjugate of ``phi(l0(.))`` for an lp source norm, p in [1, inf]:
    ``max over l in [0, d] of (top-(q, l)(y) - phi(l))`` with the l = 0 term
    equal to 0 and 1/p + 1/q = 1: the batch's row, bit for bit."""
    if source.kind != "lp":
        raise ValueError("unsupported-source: analytic conjugate requires an lp source norm")
    norms, w = _finite_level_norms(y, phi, source)
    return max(0.0, *(n - c for n, c in zip(norms, w)))


def capra_conjugate_l0_analytic_batch(Y: np.ndarray, phi: PhiSpec,
                                      source: SourceNormSpec) -> np.ndarray:
    """:func:`capra_conjugate_l0_analytic` at each row of the (n, d) array
    ``Y``; a NaN coordinate raises ``nan-input``."""
    if source.kind != "lp":
        raise ValueError("unsupported-source: analytic conjugate requires an lp source norm")
    Y = _as_rows(Y)
    _check_phi_dim(phi, Y.shape[1])
    table = _finite_columns(top_k_norm_table(Y, conj_exponent(source.p)), phi)
    return np.maximum(0.0, (table - phi._weights).max(axis=1))


def _sorted_index_columns(rows: np.ndarray, m: int, d: int) -> list:
    """The index tuples ``i_1 >= ... >= i_d`` over ``range(m)`` at positions
    ``rows`` of their lexicographic order, as d columns.

    ``math.comb(i + d - 1, d)`` tuples have ``i_1 < i``, and the tails of
    those with ``i_1 = i`` are the first tuples of length d - 1 in the same
    order, so each position splits into a first index and a tail position.
    """
    if d == 1:
        return [rows]
    before = np.array([math.comb(i + d - 1, d) for i in range(m + 1)])
    first = np.searchsorted(before, rows, side="right") - 1
    return [first, *_sorted_index_columns(rows - before[first], m, d - 1)]


def _capra_conjugate_l0_analytic_grid(chain, phi: PhiSpec, source: SourceNormSpec) -> tuple:
    """:func:`capra_conjugate_l0_analytic_batch` on the dual grid of the
    chain ``(dual_grid, eval_grid)`` as the folded input of
    :func:`_grid_transform`, ``(values, fold)``, without building its nodes.
    The chain is refused (:func:`_check_grid_work`, every axis folded that
    is sign-symmetric on both grids) before any row is evaluated.

    The conjugate depends on the magnitudes |y_i| only, and
    :func:`top_k_norm_table` takes them before anything else.  So it is
    evaluated once, bit for bit, on the product of each axis's distinct
    magnitudes, ascending: on a sign-symmetric axis its non-negative half,
    the folded input (a quarter of a symmetric 2-d grid).  Each axis that
    does not fold is then gathered onto the whole axis.

    The table also sorts the magnitudes, so a row and its permutations give
    the same value.  When every axis has the same magnitudes, only the rows
    whose indices do not increase are evaluated, ``C(m + d - 1, d)`` of the
    ``m^d`` (4,753 of 9,409 on the 193^2 default dual grid, about 366k of
    2.15M on the 257^3 one), and each value is written to every permutation
    of its index tuple.  Rows are built and evaluated in blocks of
    ``_BLOCK_FLOATS``; each row is computed on its own, so neither the
    blocking nor the permuting changes a value.
    """
    fold = _fold_axes(chain)
    _check_grid_work(chain, fold, "envelope transform", 0)
    mags, inverses = _axis_magnitudes(chain[0].axes)
    if not all(np.array_equal(m, mags[0]) for m in mags):
        conj = _on_magnitudes(lambda Y: capra_conjugate_l0_analytic_batch(Y, phi, source),
                              mags, 1)
    else:
        shape = tuple(m.size for m in mags)
        conj = np.empty(math.prod(shape))
        d = len(shape)
        strides = [math.prod(shape[k + 1:]) for k in range(d)]
        # Flat orthant position of an index tuple: its dot with the strides,
        # permuted over every order of the tuple.
        orders = list(itertools.permutations(strides))
        total = math.comb(shape[0] + d - 1, d)
        step = _block_rows(total, 1)
        for start in range(0, total, step):
            index = _sorted_index_columns(np.arange(start, min(start + step, total)), shape[0], d)
            Y = np.stack([m[i] for m, i in zip(mags, index)], axis=1)
            values = capra_conjugate_l0_analytic_batch(Y, phi, source)
            for order in orders:
                conj[sum(s * i for s, i in zip(order, index))] = values
        conj = conj.reshape(shape)
    if not all(fold):
        conj = conj[np.ix_(*(np.arange(n) if f else inv
                             for n, f, inv in zip(conj.shape, fold, inverses)))]
    return conj, fold


def _capra_route(f: ZeroHomFnSpec, nu: NormalizationSpec, Y: np.ndarray):
    """Capra conjugate of f at the rows of Y (or at the 1-d point Y), and
    the tolerance it is tested with: ``(values, tol)``.

    The route is analytic for phi∘l0 with any lp normalization, p > 0, from
    the source of :func:`_lp_source` (exact up to rounding; tolerance
    ``ANALYTIC_TOL``).  Only a custom f or a custom nu takes the sphere
    route over ``build_sphere_sample(nu, d)``, built (a custom nu's
    homogeneity spot-checked) on every call and passed to the transform
    unchecked: it holds the origin and lies on the sphere by construction.
    A sup over a sample of the sphere misses the optimum by the coverage gap
    ``count^(-1/(d-1))`` times a Lipschitz factor of order ``1 + |y|``, so
    the tolerance is ``5 gap (1 + |y|)`` per row (``ANALYTIC_TOL`` for
    d = 1, where the sample holds the whole sphere).
    """
    dim = Y.shape[-1]
    if _analytic_applicable(f, nu):
        analytic = capra_conjugate_l0_analytic if Y.ndim == 1 else capra_conjugate_l0_analytic_batch
        return analytic(Y, f.phi, _lp_source(nu, dim)), ANALYTIC_TOL
    sample = build_sphere_sample(nu, dim)
    conj = _sample_conjugate(f, sample, Y)
    if dim <= 1:
        return conj, ANALYTIC_TOL
    gap = float(len(sample)) ** (-1.0 / (dim - 1))
    return conj, 5.0 * gap * (1.0 + np.linalg.norm(Y, axis=-1))


def capra_subdiff_contains(y, x, f: ZeroHomFnSpec, coupling: CouplingSpec) -> bool:
    """Membership of y in the Capra subdifferential of f at x: equality of
    the conjugate value with ``low_add(coupling(x, y), -f(x))``, up to the
    route tolerance of :func:`_capra_route` (sampled for a custom f or nu
    only).  The coupling is taken first, so :func:`capra_coupling` refuses x
    and y that are not finite points of one dimension
    (``dimension-mismatch``, ``nan-input`` or ``nonfinite-input``), on
    either route.
    """
    pairing = capra_coupling(x, y, coupling)
    fx = f.value(x)
    if not math.isfinite(fx):
        raise ValueError(f"infinite-f-at-x: f(x) = {fx}")
    conj, tol = _capra_route(f, coupling.nu, np.asarray(y, dtype=float))
    return bool(abs(conj - low_add(pairing, -fx)) <= tol)


def capra_subdiff_at_zero(f: ZeroHomFnSpec, coupling: CouplingSpec,
                          candidates) -> np.ndarray:
    """Candidates belonging to the Capra subdifferential of f at 0, i.e.
    those with conjugate value <= 0 (up to the route tolerance of
    :func:`_capra_route`).

    This is the Rockafellar-Moreau subdifferential at 0 of f plus the
    indicator of the unit ball of nu, filtered to the candidate set.  The
    candidates must be finite (else ``nan-input`` or ``nonfinite-input``),
    on either route.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    _refuse_nonfinite(candidates, "a dual point")
    f0 = f.value(np.zeros(candidates.shape[1]))
    if f0 != 0.0:
        raise ValueError(f"f-at-zero-nonzero: f(0) = {f0}")
    conj, tol = _capra_route(f, coupling.nu, candidates)
    return candidates[conj <= tol]
