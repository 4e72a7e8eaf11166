"""Brute-force reference implementations.

These are the independent baselines every optimized path is validated
against.  They favor transparency over speed: the conjugate takes each
output as one max over every primal node, with no separable, compress or
hull shortcut, in blocks of dual rows.  Its one saving is an output fold
over the orbits of the grids' symmetries: sign flips and, in the plane,
the swap of axes 0 and 1.  On an axis that is sign-symmetric on both
grids, with values even along it, a dual node and its mirror image score
the same values (a sign flip permutes the primal nodes, and
``fl((-a)(-b)) = fl(ab)``), so only the nodes with ``y_k >= 0`` are
scored.  With equal axes on both grids and values equal to their
transpose, a node and its swap ``(y_1, y_0)`` score the same values too
(the swap permutes the primal nodes, and ``fl(a + b) = fl(b + a)``), so
only the nodes with ``y_0 >= y_1`` are scored.  The rest are copied.  A
max other than zero has one bit pattern; the sign of a zero max depends
on the order of the reduction, so copied zeros are scored again.  The
output keeps every bit, signed zeros included.  Norms are estimated by
maximizing over explicit candidate clouds, the k-support norm in one
vectorized pass over its direction cloud, and the support function tests
membership with one mask over the whole candidate array.  All direction
sets are deterministic (fixed seed).  The referee shares only the norm
primitives of :mod:`capra.norms` with the code it checks; it never imports
:mod:`capra.conjugacy` or :mod:`capra.envelope`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._directions import sign_patterns
from .numerics import (FunctionSample, Grid, _axis_extent, _block_rows, _check_pairing,
                       _check_work, _finite_scale, _fold_axes, _half_index, _unfold, build_grid,
                       default_dual_grid)
from .norms import PhiSpec, SourceNormSpec, conj_exponent, phi_dual_gauge_batch, top_k_norm_table

__all__ = [
    "SEED",
    "naive_conjugate",
    "convex_envelope_2d",
    "support_function_bruteforce",
    "k_support_bruteforce",
    "default_direction_set",
]

SEED = 0x5EED


def naive_conjugate(f: FunctionSample, dual_grid: Grid) -> FunctionSample:
    """Reference discrete conjugate: for each dual node y, the max over all
    primal nodes x of ``<x, y> - f(x)`` with lower-addition rules.

    Pairwise, O(primal x dual): each pair's score is ``x_0 y_0``, then
    ``+ x_k y_k`` for k ascending, then ``- f(x)``, and each dual node takes
    the exact max over every primal node in one ``np.max``.  The dual
    indices of all axes but the last form the heads; each head's partial
    sum of the leading terms is a 1-d array over the primal nodes.  Dual
    nodes run in blocks of ``r`` values of the last dual axis, about
    ``_BLOCK_FLOATS`` scores:

    - ``r > 1`` (at most ``_BLOCK_FLOATS // 2`` primal nodes): a block's
      products with the last primal coordinate are formed once and each
      head's partial sum is added to them, so a pair costs a broadcast
      add, a subtract of ``f`` tiled to the block, and its share of a row
      max;
    - ``r = 1``: heads run outermost, so each partial sum is built once,
      and a pair costs a multiply, an add and a subtract, each in place in
      one score row, and its share of the row max.

    Every product and sum is the same IEEE operation whatever the regime
    or blocking, so the output does not depend on it, signed zeros
    included.  Only the dual grid's axes are read; its node array is never
    built.

    One dual node of each orbit of the grids' symmetries is scored.  An
    axis k folds when it is sign-symmetric (``ax == -ax[::-1]``) on both
    grids and the values are even along it in value (``-0.0 == 0.0``).
    Then only the dual nodes with ``y_k >= 0`` on every folded axis are
    scored, and each other node is copied from its mirror image, as
    :func:`capra.numerics._unfold` maps them.  At d = 2, axes 0 and 1 swap
    when they are equal on each grid and the values equal their transpose
    in value (the two axes then fold alike).  Then, of those nodes, only
    the ones with ``y_0 >= y_1`` are scored (head h takes the last-axis
    values up to h) and the others are copied from the transpose before the
    sign unfold.  Either map permutes the primal nodes and keeps every
    product's bits, and a swap only reorders the one IEEE sum
    ``x_0 y_0 + x_1 y_1``, which commutes; so a node scores the same values
    as its image but for the sign of a zero.  A copied zero is scored
    again, in one blocked pass of flat rows (:func:`_score_rows`), with the
    same operations in the same order.  The work cap still counts every
    primal x dual pair.  The envelope suite's four oracle envelopes took
    0.31-0.40 s scoring every dual node, 0.10-0.12 s with the sign fold
    alone, and take 0.065-0.070 s with the swap as well (in process, 2-vCPU
    VM, numpy 2.4).

    The point transform equals this output in value, with the same +-inf
    pattern; only the sign of a zero can differ.  The separable grid
    transform sums the same terms in another order, so it must match the
    +-inf pattern exactly and finite values within
    ``4 eps (max|x| |y|_1 + max|f|)``.  Refuses more than
    ``MAX_TRANSFORM_WORK`` pairs (``work-too-large``) and scores beyond the
    largest float (``pairing-overflow``) before it builds a node.
    """
    d = f.grid.dim
    if dual_grid.dim != d:
        raise ValueError(f"dimension-mismatch: dual grid dimension {dual_grid.dim} != {d}")
    _check_work(f.grid.node_count * dual_grid.node_count, "conjugate oracle", "pairs")
    _check_pairing(_axis_extent(f.grid)[0], _axis_extent(dual_grid)[1], _finite_scale(f.values),
                   "conjugate oracle")
    cols = np.ascontiguousarray(f.grid.nodes.T)
    vals = f.values
    grid_vals = vals.reshape(f.grid.counts)
    fold = _fold_axes((f.grid, dual_grid), grid_vals)
    swap = (d == 2 and np.array_equal(grid_vals, grid_vals.T)
            and all(np.array_equal(*grid.axes) for grid in (f.grid, dual_grid)))
    half = _half_index(dual_grid.counts, fold)
    axes = [ax[s] for ax, s in zip(dual_grid.axes, half)]
    out = _score_product(cols, vals, axes, swap).reshape([ax.size for ax in axes])
    if swap:
        upper = np.triu_indices(len(out), 1)
        out[upper] = out.T[upper]
    if any(fold):
        out = _unfold(out, dual_grid.counts, fold)
    if swap or any(fold):
        # A copied node keeps its image's max unless that max is a zero,
        # whose sign the order of the reduction sets: rescore those.
        redo = out == 0.0
        redo[half] = np.triu(redo[half], 1) if swap else False
        redo = np.nonzero(redo)
        out[redo] = _score_rows(cols, vals, np.stack(
            [ax[i] for ax, i in zip(dual_grid.axes, redo)], axis=1))
    return FunctionSample(dual_grid, out.reshape(-1))


def _score_product(cols: np.ndarray, vals: np.ndarray, axes, swap: bool) -> np.ndarray:
    """The scores of :func:`naive_conjugate` maxed over every primal node
    (the columns ``cols``, with values ``vals``), at each node of the
    product of the dual ``axes``, flat in row-major order.  With ``swap``
    (two equal axes) only the nodes with ``y_0 >= y_1`` are scored, head h
    up to last-axis node h; the others are NaN."""
    *head_axes, ylast = axes
    n, m = cols.shape[1], ylast.size
    out = np.full((math.prod(ax.size for ax in head_axes), m), np.nan)
    r = _block_rows(m, n)
    base = np.empty(n)
    # Scores are finite, so score - vals realizes the lower addition
    # low_add(<x,y>, -f(x)) including both infinite branches.  At d = 1
    # there is one empty head and no add: 0.0 + t would turn -0.0 into 0.0.
    if r == 1:
        row = np.empty(n)
        for h, head in enumerate(itertools.product(*head_axes)):
            if head:
                _partial_sum(head, cols, base)
            for j, y in enumerate(ylast[:h + 1] if swap else ylast):
                np.multiply(cols[-1], y, out=row)
                if head:
                    np.add(row, base, out=row)  # t + base has the bits of base + t
                np.subtract(row, vals, out=row)
                out[h, j] = row.max()
        return out.reshape(-1)
    scores = np.empty((r, n))
    term = np.empty((r, n))
    tiled = np.tile(vals, (r, 1))
    for j in range(0, m, r):
        t = term[:min(r, m - j)]
        np.multiply(ylast[j:j + r, None], cols[-1], out=t)
        # Heads below the block start score none of it; head h scores its
        # last-axis values up to h.
        for h, head in itertools.islice(enumerate(itertools.product(*head_axes)),
                                        j if swap else 0, None):
            k = min(len(t), h + 1 - j) if swap else len(t)
            if head:
                _partial_sum(head, cols, base)
                s = np.add(base, t[:k], out=scores[:k])
            else:
                s = t
            s -= tiled[:k]
            np.max(s, axis=1, out=out[h, j:j + k])
    return out.reshape(-1)


def _score_rows(cols: np.ndarray, vals: np.ndarray, duals: np.ndarray) -> np.ndarray:
    """:func:`_score_product` at the rows of ``duals``, in blocks of flat
    rows: ``y_0 x_0``, then ``+ y_k x_k`` for k ascending, then ``- f(x)``,
    and one row max, so each row has the bits of its node in
    :func:`_score_product`."""
    n = cols.shape[1]
    out = np.empty(len(duals))
    r = _block_rows(len(duals), n)
    scores = np.empty((r, n))
    term = np.empty((r, n))
    for j in range(0, len(duals), r):
        yb = duals[j:j + r]
        s, t = scores[:len(yb)], term[:len(yb)]
        np.multiply(yb[:, 0, None], cols[0], out=s)
        for k in range(1, cols.shape[0]):
            np.multiply(yb[:, k, None], cols[k], out=t)
            s += t
        s -= vals
        np.max(s, axis=1, out=out[j:j + len(yb)])
    return out


def _partial_sum(head, cols, out) -> None:
    """``head[0] x_0 + head[1] x_1 + ...`` over the leading primal
    coordinates, summed in that order into ``out``."""
    np.multiply(head[0], cols[0], out=out)
    for k in range(1, len(head)):
        out += head[k] * cols[k]


def convex_envelope_2d(f: FunctionSample, dual_grid: Grid | None = None) -> FunctionSample:
    """Grid-restricted closed convex envelope: :func:`naive_conjugate` twice.

    Idempotent (to rounding) when re-applied with the same dual grid; the
    auto-selected grid depends on the value range, so pass ``dual_grid``
    explicitly when closure stability matters.
    """
    if f.grid.dim > 2:
        raise ValueError(
            f"dimension-too-large: envelope oracle supports d <= 2 (got {f.grid.dim})"
        )
    if dual_grid is None:
        dual_grid = default_dual_grid(f.grid.dim, _finite_scale(f.values))
    return naive_conjugate(naive_conjugate(f, dual_grid), f.grid)


def support_function_bruteforce(x, membership, candidates) -> float:
    """``max <x, y>`` over the candidates passing the membership predicate.

    ``membership`` maps the (n, d) candidate array to a boolean mask of
    length n.  The pairing is ``np.vecdot`` over the members, which rounds
    each row as ``np.dot`` of that row does (bit for bit for d >= 2; at
    d = 1 a zero product is +0.0 where ``np.dot`` gives -0.0), and the
    first maximal member wins.  If a pairing overflows, every member is
    paired with ``x / max|x|`` instead and the max is scaled back, to +inf
    without a warning when it lies beyond the largest float (as ``lp_value``
    gives an overflowing norm).  NaN or infinite entries in x or in the
    candidates raise ``nonfinite-input``; an empty candidate set, or one
    with no member, raises ``no-member-found``.
    """
    candidates = np.asarray(candidates, dtype=float)
    if candidates.ndim != 2 or candidates.shape[0] == 0:
        raise ValueError("no-member-found: candidate set is empty")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"nonfinite-input: x must be finite (got {x})")
    if not np.isfinite(candidates).all():
        raise ValueError("nonfinite-input: every candidate must be finite")
    mask = np.asarray(membership(candidates), dtype=bool)
    if mask.shape != candidates.shape[:1]:
        raise ValueError(f"invalid-shape: membership must return a mask of shape "
                         f"{candidates.shape[:1]} (got {mask.shape})")
    if not mask.any():
        raise ValueError("no-member-found: no candidate passed membership")
    members = candidates[mask]
    with np.errstate(over="ignore", invalid="ignore"):
        dots = np.vecdot(members, x)
        if not np.isfinite(dots).all():
            # A pairing overflowed: pair with x / max|x| and scale back.  Huge
            # members can overflow that pairing too; its max is then +inf.
            scale = float(np.abs(x).max())
            dots = np.vecdot(members, x / scale)
            return float(dots[np.argmax(dots)]) * scale
    return float(dots[np.argmax(dots)])


def _phi_dual_support(x, phi: PhiSpec, source: SourceNormSpec) -> float:
    """:func:`support_function_bruteforce` of the dual unit ball of the best
    norm below ``phi(l0(.))``, over the step-0.25 lattice on
    ``[-1.25, 1.25]^d`` (corners included): its members have
    ``phi_dual_gauge <= 1 + 1e-12``."""
    lattice = build_grid([(-1.25, 1.25)] * source.dim, [11] * source.dim).nodes
    return support_function_bruteforce(
        x, lambda Y: phi_dual_gauge_batch(Y, phi, source) <= 1.0 + 1e-12, lattice)


def default_direction_set(dim: int, count: int, seed: int = SEED) -> np.ndarray:
    """Seeded Gaussian directions plus every sign pattern in {-1,0,1}^dim.

    The sign patterns make polyhedral support maxima exact; the random bulk
    covers generic directions.  Deterministic for a fixed seed.  A negative
    ``count`` raises ``invalid-count``, and more than ``MAX_TRANSFORM_WORK``
    coordinates ``work-too-large``.
    """
    if count < 0:
        raise ValueError(f"invalid-count: direction count must be >= 0 (got {count})")
    _check_work(count * dim, "direction set", "floats")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, dim))
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    return np.vstack([z / norms[:, None], sign_patterns(dim)])


def _check_bruteforce_dim(d: int) -> None:
    """``dimension-too-large`` above d = 6, before any direction is built."""
    if d > 6:
        raise ValueError(f"dimension-too-large: brute force supports d <= 6 (got {d})")


def k_support_bruteforce(x, p: float, k: int, directions) -> float:
    """Lower estimate of the coordinate-k norm for an lp source by duality.

    Each direction y is rescaled onto the dual-ball boundary
    ``y / top_k_norm(y, q, k)`` and the pairing with x is maximized, in one
    pass over the cloud: ``max(0, max over rows with t > 0 of (Y @ x) / t)``
    with ``t = top_k_norm_table(Y, q)[:, k - 1]``.  Zero rows are skipped;
    an empty or all-zero cloud gives 0.0.  Never exceeds the true norm (up
    to rounding); converges from below with direction count.  The result is
    within ``4 eps |value|`` of a per-direction loop of ``top_k_norm`` and
    ``np.dot``, which rounds the pairing and the cumulative sum in another
    order.  The table of a large cloud sorts its columns with a comparator
    network (:func:`capra.norms.top_k_norm_table`): a call on 10k directions
    at d = 2..6 takes about 0.4 ms, against 1.1-1.2 ms with a sort of each
    row, with the same bits.  If a pairing overflows, the directions are
    paired with ``x / max|x|`` and the max is scaled back, as in
    :func:`support_function_bruteforce`.  NaN or infinite entries in x or in
    the directions raise ``nonfinite-input``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    d = x.size
    _check_bruteforce_dim(d)
    if not 1 <= k <= d:
        raise ValueError(f"k-out-of-range: need 1 <= k <= {d} (got k={k})")
    q = conj_exponent(p)
    if not np.isfinite(x).all():
        raise ValueError(f"nonfinite-input: x must be finite (got {x})")
    Y = np.asarray(directions, dtype=float)
    if Y.size == 0:
        return 0.0
    if Y.ndim != 2 or Y.shape[1] != d:
        raise ValueError(f"invalid-shape: directions must be an (n, {d}) array "
                         f"(got shape {Y.shape})")
    if not np.isfinite(Y).all():
        raise ValueError("nonfinite-input: every direction must be finite")
    t = top_k_norm_table(Y, q)[:, k - 1]
    pos = t > 0.0
    Y, t = Y[pos], t[pos]
    with np.errstate(over="ignore", invalid="ignore"):
        best = float(np.max((Y @ x) / t, initial=0.0))
        if not math.isfinite(best):
            # A pairing overflowed: pair with x / max|x| and scale back.
            scale = float(np.abs(x).max())
            best = float(np.max((Y @ (x / scale)) / t, initial=0.0)) * scale
    return best
