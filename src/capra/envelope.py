"""Tightest convex, positively 1-homogeneous, and norm lower approximations.

Three constructions for a 0-homogeneous f on the unit ball of a
normalization function nu:

* the tightest closed convex minorant, computed as the Fenchel conjugate of
  the Capra conjugate (equivalently, the biconjugate of f plus the ball
  indicator);
* the tightest closed convex positively 1-homogeneous minorant, the support
  function of the Capra subdifferential at 0;
* the tightest norm below ``phi(l0(.))``, characterized by its dual unit
  ball (an intersection of scaled dual coordinate-k balls); it lives in
  :func:`capra.norms.best_norm_object`.

The subset variants (arbitrary U instead of a ball) are the grid-level
primitives the ball constructions reduce to.  f on the ball (+inf off it)
is built in one place, :func:`_on_ball`; a subset's restriction in another,
:func:`_restricted`.  The default dual grid is sized by the largest finite
|f| on the ball: phi's weights for phi∘l0, else f's values on the ball.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

from .conjugacy import (
    CouplingSpec,
    ZeroHomFnSpec,
    _analytic_applicable,
    _capra_conjugate_l0_analytic_grid,
    _check_grid_work,
    _grid_transform,
    _lp_source,
    capra_subdiff_at_zero,
    conjugate_at_points,
    fenchel_biconjugate,
)
from .norms import (
    NormalizationSpec,
    PhiSpec,
    _check_homogeneous,
    _check_phi_dim,
    lp_value,
    lp_value_batch,
)
from .numerics import (FunctionSample, Grid, _axis_magnitudes, _finite_scale, _on_magnitudes,
                       default_dual_grid, format_extreal)

__all__ = [
    "BALL_TOL",
    "ball_box_grid",
    "tightest_convex_on_ball",
    "l0_envelope_linf",
    "tightest_pos_hom_on_ball",
    "best_cvx_on_subset",
    "best_pos_hom_on_subset",
    "surface_summary",
    "write_surface_json",
]

# Relative slack of ball membership on grids; absorbs the <= 1-ulp rounding
# of node coordinates without ever admitting nodes a full cell outside.
BALL_TOL = 1e-9


def ball_box_grid(dim: int, count: int) -> Grid:
    """Symmetric grid over the unit-ball bounding box ``[-1, 1]^dim`` inflated
    by one cell.

    The step is ``2 / (count - 3)``, so the sphere's axis points sit exactly
    one cell inside the box boundary and are grid nodes.
    """
    if dim < 1:
        raise ValueError(f"invalid-dim: a ball grid needs dim >= 1 (got {dim})")
    if count < 5 or count % 2 == 0:
        raise ValueError(f"invalid-grid: ball grid needs an odd count >= 5 (got {count})")
    h = 2.0 / (count - 3)
    half = (count - 1) // 2
    hi = half * h
    return Grid((-hi,) * dim, (hi,) * dim, (count,) * dim)


def _ball_mask(nu: NormalizationSpec, grid: Grid) -> np.ndarray:
    """The nodes of ``grid`` in the unit ball of nu, up to ``BALL_TOL``.

    A custom nu is evaluated at the node rows.  lp reads |x|, so an lp ball
    is evaluated once on the product of each axis's distinct magnitudes
    (:func:`capra.numerics._on_magnitudes`, in blocks, so no node array is
    built) and gathered back to the nodes: each node gets the arithmetic of
    its own row."""
    if nu.kind != "lp":
        _check_homogeneous(nu, grid.dim)
        return nu.batch(grid.nodes) <= 1.0 + BALL_TOL
    mags, inverses = _axis_magnitudes(grid.axes)
    orthant = _on_magnitudes(lambda rows: lp_value_batch(rows, nu.p) <= 1.0 + BALL_TOL,
                             mags, grid.dim, dtype=bool)
    return orthant[np.ix_(*inverses)].reshape(-1)


def _on_ball(f: ZeroHomFnSpec, nu: NormalizationSpec,
             grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The ball mask of nu on the nodes of ``grid``, and f restricted to the
    ball: f at the ball's nodes, +inf off it (one ``f.batch`` over the
    nodes, built first, so an oversized grid is refused before any mask)."""
    nodes = grid.nodes
    ball = _ball_mask(nu, grid)
    return ball, np.where(ball, f.batch(nodes), math.inf)


def _hull_mask(nu: NormalizationSpec, grid: Grid, ball: np.ndarray | None,
               dual_grid: Grid) -> np.ndarray:
    """Nodes inside the closed convex hull of the unit ball of nu, whose
    mask on ``grid`` is ``ball`` (None when not built).  An lp nu's hull is
    the ball of its source (:func:`capra.conjugacy._lp_source`), masked by
    :func:`_ball_mask` from the axes, so the analytic route never builds the
    node array; a custom nu's hull is the biconjugate of its ball's
    indicator."""
    if nu.kind == "lp":
        p = _lp_source(nu, grid.dim).p
        if ball is None or p != nu.p:
            ball = _ball_mask(NormalizationSpec.lp(p), grid)
        return ball
    _, indicator = _restricted(FunctionSample(grid, np.zeros(grid.node_count)), ball)
    return fenchel_biconjugate(indicator, dual_grid).values <= 1e-7


def tightest_convex_on_ball(f: ZeroHomFnSpec, nu: NormalizationSpec,
                            eval_grid: Grid, dual_grid: Grid | None = None,
                            route: str = "auto") -> FunctionSample:
    """Tightest closed convex function below the 0-homogeneous f on the unit
    ball of nu, sampled on ``eval_grid``.

    Computed as the Fenchel conjugate (over ``dual_grid``) of the Capra
    conjugate.  The Capra conjugate itself is analytic for phi∘l0 with any
    lp normalization, from the source of
    :func:`capra.conjugacy._lp_source` (``route="analytic"``); for a custom
    f or a custom nu it is the grid conjugate of f masked to the ball
    (``route="ball"``).  Nodes outside the closed convex hull of the ball
    are set to +inf by predicate.
    """
    dim = eval_grid.dim
    if route == "auto":
        route = "analytic" if _analytic_applicable(f, nu) else "ball"
    if route not in ("analytic", "ball"):
        raise ValueError(f"unknown-route: unknown route {route!r}")
    if route == "analytic" and not _analytic_applicable(f, nu):
        raise ValueError("unsupported-route: analytic route requires phi∘l0 and an lp "
                         "normalization")
    # A custom f is evaluated once: when its values on the ball size the dual
    # grid, they feed the transform too.
    sized = dual_grid is None and f.kind != "phi_l0"
    ball, values = _on_ball(f, nu, eval_grid) if sized else (None, None)
    if dual_grid is None:
        dual_grid = default_dual_grid(dim, _finite_scale(values if sized else f.phi.values))
    chain = (dual_grid, eval_grid) if route == "analytic" else (eval_grid, dual_grid, eval_grid)
    if route == "analytic":
        values, fold = _capra_conjugate_l0_analytic_grid(chain, f.phi, _lp_source(nu, dim))
    else:
        # Refused before f on the ball is built (unless it sized the dual
        # grid), so with no axis folded: f is not known to be even yet.
        _check_grid_work(chain, [False] * dim, "envelope transform")
        fold = None
        if values is None:
            ball, values = _on_ball(f, nu, eval_grid)
    out = _grid_transform(chain, values, fold)
    out[~_hull_mask(nu, eval_grid, ball, dual_grid)] = math.inf
    return FunctionSample(eval_grid, out)


def l0_envelope_linf(x, phi: PhiSpec | None = None) -> float:
    """Closed form of the convex envelope of ``phi(l0(.))`` on the linf unit
    ball: ``phi(1) * l1(x)`` inside the ball, +inf outside.

    The separable computation behind this identity needs phi proportional to
    the identity; other weight profiles are rejected (use
    :func:`tightest_convex_on_ball`).  Defaults to the identity, for which
    the envelope is exactly the l1 norm on the ball.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if phi is None:
        phi = PhiSpec.identity(x.size)
    _check_phi_dim(phi, x.size)
    c = phi(1)
    for l in range(1, phi.dim + 1):
        if not math.isfinite(phi(l)) or abs(phi(l) - c * l) > 1e-12 * max(1.0, c * l):
            raise ValueError("unsupported-phi: closed form requires phi proportional to the "
                             "identity; use tightest_convex_on_ball for general weights")
    if lp_value(x, math.inf) <= 1.0:
        return c * lp_value(x, 1.0)
    return math.inf


def _support(accepted: np.ndarray, x) -> float | np.ndarray:
    """``max <y, x>`` over the accepted rows y, -inf when there is none: a
    float for one point x, an array with one value per row for an (n, d)
    array of points.  The stacked product ``accepted @ x[..., None]`` runs
    one matrix-vector product per point, so each row gets the bits of the
    point passed alone."""
    x = np.asarray(x, dtype=float)
    best = np.max((accepted @ x[..., None])[..., 0], axis=-1, initial=-math.inf)
    return float(best) if x.ndim == 1 else best


def tightest_pos_hom_on_ball(f: ZeroHomFnSpec, nu: NormalizationSpec, x,
                             dual_candidates) -> float | np.ndarray:
    """Tightest closed convex positively 1-homogeneous minorant of f on the
    unit ball of nu, evaluated at x as the support function of the Capra
    subdifferential at 0 (:func:`capra.conjugacy.capra_subdiff_at_zero`, at
    its route tolerance) over the candidate cloud.

    ``x`` is one point (the value is a float) or an (n, d) array of points
    (an array of n values); the subdifferential is computed once per call,
    whatever n is, and each row gets the bits of its single-point call.

    A lower bound of the true support function; exact when the accepted set
    is analytic and the candidates contain its extreme points.
    """
    return _support(capra_subdiff_at_zero(f, CouplingSpec(nu), dual_candidates), x)


def _restricted(f: FunctionSample, subset) -> tuple[np.ndarray, FunctionSample]:
    """The node mask of the subset U (a node predicate or a boolean mask),
    and f plus the indicator of U (f on U, +inf off it); a mask of another
    length raises ``invalid-shape`` and an empty U ``empty-subset``."""
    grid = f.grid
    if callable(subset):
        mask = np.fromiter((bool(subset(x)) for x in grid.nodes), dtype=bool,
                           count=grid.node_count)
    else:
        mask = np.asarray(subset, dtype=bool).reshape(-1)
        if mask.shape[0] != grid.node_count:
            raise ValueError("invalid-shape: subset mask length does not match node count")
    if not mask.any():
        raise ValueError("empty-subset: subset contains no grid node")
    return mask, FunctionSample(grid, np.where(mask, f.values, math.inf))


def best_cvx_on_subset(f: FunctionSample, subset, dual_grid: Grid) -> FunctionSample:
    """Best closed convex lower approximation of f on the node subset U:
    the biconjugate of f plus the indicator of U.

    ``subset`` is a node predicate (callable on points) or a boolean mask.
    """
    return fenchel_biconjugate(_restricted(f, subset)[1], dual_grid)


def best_pos_hom_on_subset(f: FunctionSample, subset, x, dual_candidates,
                           tol: float | None = None) -> float | np.ndarray:
    """Best closed convex positively 1-homogeneous approximation of f on U,
    evaluated at x: the support function over candidates y accepted by the
    Fenchel-Young membership test ``(f + indicator_U)*(y) <= 0``.

    ``x`` is one point (a float) or an (n, d) array of points (n values),
    as for :func:`tightest_pos_hom_on_ball`: the accepted set is built once
    per call.  Requires 0 in U and f(0) = 0.  The default membership
    tolerance is ``5 h (1 + |y|)`` per candidate (grid conjugates
    under-estimate by a step times a Lipschitz factor).
    """
    mask, masked = _restricted(f, subset)
    zero_rows = np.flatnonzero(np.all(f.grid.nodes == 0.0, axis=1))
    if zero_rows.size == 0 or not mask[zero_rows[0]]:
        raise ValueError("zero-not-in-subset: the origin must be a subset node")
    f0 = float(f.values[zero_rows[0]])
    if f0 != 0.0:
        raise ValueError(f"f-at-zero-nonzero: f(0) = {f0}")
    candidates = np.atleast_2d(np.asarray(dual_candidates, dtype=float))
    conj = conjugate_at_points(masked, candidates)
    if tol is None:
        h = max(f.grid.steps)
        tol = 5.0 * h * (1.0 + np.linalg.norm(candidates, axis=1))
    return _support(candidates[conj <= tol], x)


def surface_summary(sample: FunctionSample, checkpoints: Sequence = ()) -> dict:
    """Summary dict of a surface sample with pinned checkpoint values."""
    vals = sample.values
    return {
        "min": format_extreal(vals.min(), float),
        "max": format_extreal(vals.max(), float),
        "values_at": [
            {"x": [float(c) for c in np.asarray(pt, dtype=float)],
             "v": format_extreal(sample.value_near(pt), float)}
            for pt in checkpoints
        ],
    }


def write_surface_json(sample: FunctionSample, path, checkpoints: Sequence = ()) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(surface_summary(sample, checkpoints), fh, indent=2, sort_keys=True)
        fh.write("\n")
