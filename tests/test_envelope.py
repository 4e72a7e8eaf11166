import json
import math
import warnings

import numpy as np
import pytest

from capra import conjugacy, envelope, norms, numerics
from capra.conjugacy import CouplingSpec, ZeroHomFnSpec, capra_subdiff_at_zero
from capra.envelope import (
    BALL_TOL,
    ball_box_grid,
    best_cvx_on_subset,
    best_pos_hom_on_subset,
    l0_envelope_linf,
    surface_summary,
    tightest_convex_on_ball,
    tightest_pos_hom_on_ball,
    write_surface_json,
)
from capra.norms import (
    NormalizationSpec,
    PhiSpec,
    SourceNormSpec,
    best_norm_object,
    lp_gauge_collapses,
    lp_value,
    lp_value_batch,
)
from capra.numerics import FunctionSample, build_grid, default_dual_grid
from capra.oracle import convex_envelope_2d, support_function_bruteforce

RNG = np.random.default_rng(0x5EED)


def test_ball_box_grid_nodes():
    g = ball_box_grid(2, 201)
    assert g.axes[0][100] == 0.0
    assert g.axes[0][199] == 1.0  # sphere axis point is an exact interior node
    with pytest.raises(ValueError, match="odd"):
        ball_box_grid(2, 200)


def test_l0_envelope_linf_examples():
    assert l0_envelope_linf([0.5, -0.25]) == 0.75
    assert l0_envelope_linf([1.5, 0.0]) == math.inf
    assert l0_envelope_linf([0.0, 0.0]) == 0.0
    assert l0_envelope_linf([0.5, 0.5], PhiSpec.scaled_identity(3.0, 2)) == 3.0


def test_l0_envelope_linf_rejects_nonlinear_phi():
    with pytest.raises(ValueError, match="proportional to the identity"):
        l0_envelope_linf([0.5, 0.5], PhiSpec.from_values([0.0, 1.0, 1.5]))


def test_envelope_l2_checkpoints_small_grid():
    g = ball_box_grid(2, 41)
    h = g.steps[0]
    env = tightest_convex_on_ball(ZeroHomFnSpec.l0(2), NormalizationSpec.lp(2.0), g)
    assert abs(env.value_near([1.0, 0.0]) - 1.0) <= 2.0 * h
    d = 1.0 / math.sqrt(2.0)
    assert 2.0 - 4.0 * h <= env.value_near([d, d]) <= 2.0
    assert env.value_near([0.0, 0.0]) == 0.0
    # frozen from the 201x201 oracle run (convex_envelope_2d of the masked
    # sample, default dual grid): node nearest (0.4, 0.3) carries its l1 value
    g201 = ball_box_grid(2, 201)
    i = g201.nearest_index(np.array([0.4, 0.3]))
    assert math.isclose(lp_value(g201.nodes[i], 1.0), 0.7070707070707072,
                        rel_tol=1e-12)


def test_envelope_l2_interior_value_matches_oracle_201():
    # Frozen from: capra verify --oracle envelope2d --f l0 --nu lp:2
    #   --grid 201 --at 0.4,0.3   ->  0.7070707070707072
    g = ball_box_grid(2, 201)
    env = tightest_convex_on_ball(ZeroHomFnSpec.l0(2), NormalizationSpec.lp(2.0), g)
    assert math.isclose(env.value_near([0.4, 0.3]), 0.7070707070707072,
                        rel_tol=0, abs_tol=1e-9)


def test_envelope_linf_is_l1_small_grid():
    g = ball_box_grid(2, 41)
    env = tightest_convex_on_ball(ZeroHomFnSpec.l0(2), NormalizationSpec.lp(math.inf), g)
    linf = lp_value_batch(g.nodes, math.inf)
    l1 = lp_value_batch(g.nodes, 1.0)
    ball = linf <= 1.0 + BALL_TOL
    assert np.max(np.abs(env.values[ball] - l1[ball])) <= 1e-12
    assert np.all(np.isposinf(env.values[~ball]))


def test_envelope_linf_is_l1_in_3d():
    # 61^3 primal and 65^3 dual nodes: about 2.5e8 pairs for one brute
    # transform, a few 1e7 updates for the separable one.
    g = ball_box_grid(3, 61)
    h = g.steps[0]
    env = tightest_convex_on_ball(ZeroHomFnSpec.l0(3), NormalizationSpec.lp(math.inf), g,
                                  dual_grid=default_dual_grid(3, 3.0, step=0.25))
    linf = lp_value_batch(g.nodes, math.inf)
    l1 = lp_value_batch(g.nodes, 1.0)
    ball = linf <= 1.0 + BALL_TOL
    assert np.max(np.abs(env.values[ball] - l1[ball])) <= 2.0 * h
    assert np.all(np.isposinf(env.values[~ball]))
    rng = np.random.default_rng(0x5EED)
    for idx in rng.choice(g.node_count, 200, replace=False):
        want = l0_envelope_linf(g.nodes[idx])
        got = float(env.values[idx])
        assert got == want if math.isinf(want) else abs(got - want) <= 2.0 * h


def test_envelope_matches_subset_oracle():
    g = ball_box_grid(2, 41)
    h = g.steps[0]
    dual = default_dual_grid(2, 2.0)
    nu = NormalizationSpec.lp(2.0)
    f = ZeroHomFnSpec.l0(2)
    env = tightest_convex_on_ball(f, nu, g, dual_grid=dual)
    ball = nu.batch(g.nodes) <= 1.0 + BALL_TOL
    masked = FunctionSample(g, np.where(ball, f.batch(g.nodes), math.inf))
    ref = convex_envelope_2d(masked, dual)
    assert np.max(np.abs(env.values[ball] - ref.values[ball])) <= 5.0 * h


def test_envelope_refuses_oversized_work_before_building_nodes(monkeypatch):
    # A dual grid longer along its first axis makes the eval -> dual
    # transform (15750 updates) heavier than dual -> eval (8694).  The ball
    # route runs both, counted unfolded because f on the ball does not exist
    # yet, and must refuse from the first alone.  The analytic route runs
    # only the second, on the folded orthant: 13*11*5 + 11*5*11 = 1320.
    # Neither builds a grid's nodes first.
    def grids():
        return ball_box_grid(2, 21), build_grid([(-3.0, 3.0), (-3.0, 3.0)], [25, 9])

    # l0 as a custom f takes the ball route.
    custom_l0 = ZeroHomFnSpec.custom(lambda x: float(np.count_nonzero(x)),
                                     batch=lambda X: 1.0 * np.count_nonzero(X, axis=1))
    cases = ((15749, custom_l0, NormalizationSpec.lp(0.5), "ball"),
             (1319, ZeroHomFnSpec.l0(2), NormalizationSpec.lp(2.0), "analytic"),
             (1319, ZeroHomFnSpec.l0(2), NormalizationSpec.lp(0.5), "analytic"))
    for cap, f, nu, route in cases:
        monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", cap)
        eval_grid, dual_grid = grids()
        with pytest.raises(ValueError, match="work-too-large"):
            tightest_convex_on_ball(f, nu, eval_grid, dual_grid, route=route)
        assert eval_grid._nodes is None and dual_grid._nodes is None
        # One update more and the route runs.
        monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", cap + 1)
        tightest_convex_on_ball(f, nu, *grids(), route=route)


def test_envelope_half_ball_is_finite_on_hull():
    # l1/2 normalization: the ball is star-shaped, its hull is the l1 ball
    g = ball_box_grid(2, 41)
    nu = NormalizationSpec.lp(0.5)
    env = tightest_convex_on_ball(ZeroHomFnSpec.l0(2), nu, g)
    x = np.array([0.45, 0.45])  # in the l1 ball but far outside the l1/2 ball
    assert nu.value(x) > 1.0
    assert math.isfinite(env.value_near(x))
    assert math.isinf(env.value_near([0.9, 0.9]))


def test_envelope_minorizes_on_ball():
    g = ball_box_grid(2, 41)
    f = ZeroHomFnSpec.l0(2)
    for p in (1.0, 2.0, math.inf):
        nu = NormalizationSpec.lp(p)
        env = tightest_convex_on_ball(f, nu, g)
        ball = nu.batch(g.nodes) <= 1.0 + BALL_TOL
        assert np.all(env.values[ball] <= f.batch(g.nodes)[ball] + 1e-12)
    # A custom f is evaluated once per envelope, over all the nodes, whether
    # or not its values on the ball size the dual grid.
    rows = []

    def batch(X):
        rows.append(len(X))
        return 1.0 * (X[:, 0] != 0.0)

    custom = ZeroHomFnSpec.custom(lambda x: float(x[0] != 0.0), batch=batch)
    for p, dual in ((1.5, None), (0.5, None), (1.5, default_dual_grid(2, 1.0))):
        nu = NormalizationSpec.lp(p)
        rows.clear()
        env = tightest_convex_on_ball(custom, nu, g, dual)
        assert rows == [g.node_count]
        ball = nu.batch(g.nodes) <= 1.0 + BALL_TOL
        assert np.all(env.values[ball] <= batch(g.nodes)[ball] + 1e-12)


def test_custom_normalization_hull_matches_lp_ball():
    # A custom nu takes its hull from the biconjugate of the ball's
    # indicator; wrapping a convex lp ball, that hull is the ball itself.
    g = ball_box_grid(2, 41)
    for p in (1.0, 1.5, math.inf):
        lp = NormalizationSpec.lp(p)
        wrapped = NormalizationSpec.custom(lp.value, batch=lp.batch)
        for f in (ZeroHomFnSpec.l0(2), ZeroHomFnSpec.constant_zero()):
            want = tightest_convex_on_ball(f, lp, g, route="ball").values
            assert np.array_equal(tightest_convex_on_ball(f, wrapped, g).values, want)


# d = 3 stops at 61 nodes per axis: the node-row reference at 201^3 needs
# about 1 GB.
MASK_COUNTS = {1: range(5, 202, 2), 2: range(5, 202, 6), 3: range(5, 62, 8)}


def test_lp_ball_mask_on_magnitudes_equals_the_node_row_mask():
    # lp reads |x|, so the rows of distinct magnitudes get each node's own
    # arithmetic, also at the nodes that only BALL_TOL admits, e.g.
    # (+-1, +-0.0404) at lp:6 on 201^2.
    tol_only = 0
    for p in (0.5, 1.0, 1.5, 2.0, 3.0, 6.0, math.inf):
        nu = NormalizationSpec.lp(p)
        for d, counts in MASK_COUNTS.items():
            for n in counts:
                g = ball_box_grid(d, n)
                v = lp_value_batch(g.nodes, p)
                assert np.array_equal(envelope._ball_mask(nu, g), v <= 1.0 + BALL_TOL), (p, d, n)
                tol_only += np.count_nonzero((v > 1.0) & (v <= 1.0 + BALL_TOL))
    assert tol_only > 1000
    g = ball_box_grid(2, 201)
    mask = envelope._ball_mask(NormalizationSpec.lp(6.0), g)
    for pt in ([1.0, 0.0404], [-1.0, 0.0404], [1.0, -0.0404], [-1.0, -0.0404]):
        k = g.nearest_index(pt)
        assert 1.0 < lp_value(g.nodes[k], 6.0) <= 1.0 + BALL_TOL and mask[k]


@pytest.mark.parametrize("grid", [
    build_grid([(-1.2, 1.3), (-0.7, 0.9)], [9, 7]),      # no magnitude shared by two nodes
    build_grid([(-1.25, 1.25), (-0.5, 1.5)], [11, 9]),   # the second axis shares 0.25 and 0.5
    build_grid([(-1.2, 1.2), (-1.0, 1.0)], [8, 6]),      # even counts: no node at 0
    build_grid([(-1.0, 1.0), (0.0, 1.0), (-1.0, 1.0)], [7, 5, 9]),
], ids=["asymmetric", "partly-symmetric", "even", "d3"])
def test_lp_ball_mask_equals_the_node_row_mask_on_any_axes(grid, monkeypatch):
    # Only magnitudes that two nodes of an axis share are evaluated once.
    want = {p: lp_value_batch(grid.nodes, p) <= 1.0 + BALL_TOL for p in (0.5, 1.0, 2.0, math.inf)}
    monkeypatch.setattr(numerics.Grid, "nodes", property(lambda self: pytest.fail("node array")))
    for p, mask in want.items():
        assert np.array_equal(envelope._ball_mask(NormalizationSpec.lp(p), grid), mask), p


@pytest.mark.parametrize("d, n", [(1, 201), (2, 83), (3, 11)])
def test_analytic_envelope_builds_no_node_array(d, n, monkeypatch):
    # The analytic route masks the hull from the axes (at lp:0.5 the l1
    # ball, a second mask): neither grid's node array is built.
    g = ball_box_grid(d, n)
    want = {p: tightest_convex_on_ball(ZeroHomFnSpec.l0(d), NormalizationSpec.lp(p), g).values
            for p in (0.5, 1.5, 2.0, math.inf)}
    monkeypatch.setattr(numerics.Grid, "nodes", property(lambda self: pytest.fail("node array")))
    g = ball_box_grid(d, n)
    for p, values in want.items():
        env = tightest_convex_on_ball(ZeroHomFnSpec.l0(d), NormalizationSpec.lp(p), g)
        assert env.values.tobytes() == values.tobytes(), p


def test_pos_hom_examples():
    cand = build_grid([(-1.5, 1.5), (-1.5, 1.5)], [25, 25]).nodes
    f = ZeroHomFnSpec.l0(2)
    v = tightest_pos_hom_on_ball(f, NormalizationSpec.lp(math.inf), [1.0, -1.0], cand)
    assert abs(v - 2.0) <= 1e-12
    v2 = tightest_pos_hom_on_ball(f, NormalizationSpec.lp(2.0), [1.0, 0.0], cand)
    assert abs(v2 - 1.0) <= 1e-12
    vz = tightest_pos_hom_on_ball(ZeroHomFnSpec.constant_zero(),
                                  NormalizationSpec.lp(2.0), [0.7, 0.2], cand)
    assert abs(vz) <= 1e-12


def test_pos_hom_homogeneity_and_ordering():
    cand = build_grid([(-1.5, 1.5), (-1.5, 1.5)], [25, 25]).nodes
    f = ZeroHomFnSpec.l0(2)
    nu = NormalizationSpec.lp(2.0)
    g = ball_box_grid(2, 41)
    env = tightest_convex_on_ball(f, nu, g)
    ball = np.flatnonzero(nu.batch(g.nodes) <= 1.0 + BALL_TOL)
    for idx in ball[::17]:
        x = g.nodes[idx]
        ph = tightest_pos_hom_on_ball(f, nu, x, cand)
        assert ph <= env.values[idx] + 1e-9
        assert abs(tightest_pos_hom_on_ball(f, nu, 2.5 * x, cand) - 2.5 * ph) <= 1e-9


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


# Scattered candidates put the support's maximum off the exact products of a
# grid's vertices, where the rounding of the dot product shows.
ROW_POINTS = np.vstack([RNG.standard_normal((12, 2)), [[0.0, 0.0], [-1.0, 0.5]]])
ROW_CANDIDATES = RNG.uniform(-1.5, 1.5, (600, 2))
# Points whose pairings overflow, paired again at x / max|x|, and points
# with an infinite coordinate, whose value the referee refuses.
HUGE_POINTS = np.vstack([1.7e308 * RNG.uniform(-1.0, 1.0, (6, 2)), [[1.7e308, -1.7e308]]])
INF_POINTS = np.array([[math.inf, 0.5], [-0.3, math.inf], [math.inf, math.inf]])


def _referee(points, member, candidates) -> list:
    """:func:`capra.oracle.support_function_bruteforce` at each point."""
    return [support_function_bruteforce(x, member, candidates) for x in points]


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf, 0.5])
def test_pos_hom_rows_match_single_points_bit_for_bit(p):
    # A custom f takes the sphere route of the Capra conjugate.
    nu = NormalizationSpec.lp(p)
    points = np.vstack([ROW_POINTS, HUGE_POINTS, INF_POINTS])
    finite = len(points) - len(INF_POINTS)
    for f in (ZeroHomFnSpec.l0(2), ZeroHomFnSpec.constant_zero()):
        rows = tightest_pos_hom_on_ball(f, nu, points, ROW_CANDIDATES)
        single = [tightest_pos_hom_on_ball(f, nu, x, ROW_CANDIDATES) for x in points]
        assert rows.shape == (len(points),) and isinstance(single[0], float)
        assert np.array_equal(_bits(rows), _bits(single))
        # ... and each finite row is the referee's support over the accepted
        # set, when it has a member (f = 0 has none here: every row is -inf).
        accepted = capra_subdiff_at_zero(f, CouplingSpec(nu), ROW_CANDIDATES)
        if accepted.size == 0:
            assert f.kind == "custom" and np.all(rows == -math.inf)
            continue
        direct = _referee(points[:finite], lambda Y: np.ones(len(Y), bool), accepted)
        assert np.array_equal(_bits(rows[:finite]), _bits(direct))
        assert np.all(rows[finite:] == math.inf)


def test_best_pos_hom_on_subset_rows_match_single_points_bit_for_bit():
    g = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [21, 21])
    f = FunctionSample(g, lp_value_batch(g.nodes, 2.0) ** 2)
    points = np.vstack([ROW_POINTS, HUGE_POINTS, INF_POINTS])
    finite = len(points) - len(INF_POINTS)
    # On x[0] >= 0 at a tight tolerance the accepted set is about
    # [-1.5, 0.1] x [-0.1, 0.1]: a huge point's pairings overflow below and
    # its max stays finite.
    for subset, tol in ((lambda x: True, None), (lambda x: abs(x[0]) <= 0.5, None),
                        (lambda x: x[0] >= 0.0, 1e-9)):
        rows = best_pos_hom_on_subset(f, subset, points, ROW_CANDIDATES, tol)
        single = [best_pos_hom_on_subset(f, subset, x, ROW_CANDIDATES, tol) for x in points]
        assert rows.shape == (len(points),) and np.isfinite(rows[:len(ROW_POINTS)]).all()
        assert np.array_equal(_bits(rows), _bits(single))
        # ... and each finite row is the referee's support over the members of
        # the documented test (f + indicator_U)*(y) <= tol, by default
        # 5 h (1 + |y|) with h = 0.1.
        masked = FunctionSample(g, np.where([subset(x) for x in g.nodes], f.values, math.inf))

        def member(Y):
            bound = 0.5 * (1.0 + np.linalg.norm(Y, axis=1)) if tol is None else tol
            return conjugacy.conjugate_at_points(masked, Y) <= bound

        direct = _referee(points[:finite], member, ROW_CANDIDATES)
        assert np.array_equal(_bits(rows[:finite]), _bits(direct))
        assert np.all(rows[finite:] == math.inf)
    assert np.isfinite(rows[len(ROW_POINTS):finite]).any()


def test_pos_hom_empty_accepted_set_is_minus_inf_in_every_row():
    far = np.array([[5.0, 5.0], [3.0, -4.0]])
    f, nu = ZeroHomFnSpec.l0(2), NormalizationSpec.lp(2.0)
    assert capra_subdiff_at_zero(f, CouplingSpec(nu), far).size == 0
    assert np.all(tightest_pos_hom_on_ball(f, nu, ROW_POINTS, far) == -math.inf)
    assert tightest_pos_hom_on_ball(f, nu, ROW_POINTS[0], far) == -math.inf
    g = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [21, 21])
    fs = FunctionSample(g, np.count_nonzero(g.nodes, axis=1).astype(float))
    rows = best_pos_hom_on_subset(fs, lambda x: True, ROW_POINTS, far, tol=1e-9)
    assert rows.shape == (len(ROW_POINTS),) and np.all(rows == -math.inf)


def test_pos_hom_refuses_nan_skips_nan_pairings_and_rescales_an_overflow():
    # The support function, which best_norm_object shares: a NaN coordinate
    # raises, an infinite one gives +inf (its NaN pairings with a zero
    # coordinate are skipped), and a finite point whose pairing overflows is
    # paired at x / max|x| and scaled back, all without a warning.
    cand = build_grid([(-1.5, 1.5), (-1.5, 1.5)], [25, 25]).nodes
    f, nu = ZeroHomFnSpec.l0(2), NormalizationSpec.lp(2.0)
    points = np.array([[math.inf, 1.0], [1e308, 1e308], [3.0, 4.0], [-1.5e308, 2.5e307]])
    g = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [21, 21])
    fs = FunctionSample(g, np.count_nonzero(g.nodes, axis=1).astype(float))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = tightest_pos_hom_on_ball(f, nu, points, cand)
        single = [tightest_pos_hom_on_ball(f, nu, x, cand) for x in points]
        assert rows.tolist() == single == [math.inf, math.inf, 7.0, 1.5e308 + 2.5e307]
        on_subset = best_pos_hom_on_subset(fs, lambda x: True, points, cand, tol=1e-9)
        assert on_subset.tolist() == rows.tolist()
        for x in ([math.nan, 1.0], [[1.0, 2.0], [math.inf, math.nan]]):
            with pytest.raises(ValueError, match="^nan-input"):
                tightest_pos_hom_on_ball(f, nu, x, cand)
            with pytest.raises(ValueError, match="^nan-input"):
                best_pos_hom_on_subset(fs, lambda x: True, x, cand, tol=1e-9)
        # The first two terms overflow, and the third brings the sum back.
        assert norms._cloud_support(np.ones((1, 3)), [1.7e308, 1.7e308, -1.7e308]) == 1.7e308


def test_monotone_ratio_check_examples():
    assert lp_gauge_collapses(PhiSpec.identity(3), 2.0)
    assert not lp_gauge_collapses(PhiSpec.from_values([0.0, 2.0, 1.0]), 1.0)
    root = PhiSpec.from_values([0.0, 1.0, math.sqrt(2.0), math.sqrt(3.0)])
    assert lp_gauge_collapses(root, 2.0)
    with pytest.raises(ValueError, match="requires p"):
        lp_gauge_collapses(PhiSpec.identity(2), 0.5)


def test_best_cvx_on_subset_two_interval_u():
    g = build_grid([(-2.0, 2.0)], [81])
    f = FunctionSample(g, np.abs(g.nodes[:, 0]))
    dual = default_dual_grid(1, 2.0)
    env = best_cvx_on_subset(f, lambda x: abs(x[0]) >= 1.0, dual)
    target = np.maximum(1.0, np.abs(g.nodes[:, 0]))
    assert np.max(np.abs(env.values - target)) <= 1e-9
    # over the hull of U the construction collapses back to |x|
    env_hull = best_cvx_on_subset(f, lambda x: True, dual)
    assert np.max(np.abs(env_hull.values - np.abs(g.nodes[:, 0]))) <= 1e-10
    i0 = g.nearest_index(np.array([0.0]))
    assert env.values[i0] - env_hull.values[i0] == 1.0


def test_best_cvx_on_subset_empty_error():
    g = build_grid([(-1.0, 1.0)], [11])
    f = FunctionSample(g, np.zeros(11))
    with pytest.raises(ValueError, match="empty-subset"):
        best_cvx_on_subset(f, lambda x: False, default_dual_grid(1, 1.0))
    for mask in (np.ones(10, dtype=bool), np.ones(12, dtype=bool)):
        with pytest.raises(ValueError, match="^invalid-shape: subset mask length does not match"):
            best_cvx_on_subset(f, mask, default_dual_grid(1, 1.0))


@pytest.mark.parametrize("f", [ZeroHomFnSpec.l0(2), ZeroHomFnSpec.constant_zero()],
                         ids=["analytic", "ball"])
@pytest.mark.parametrize("dual_dim", [1, 3])
def test_envelope_refuses_a_dual_grid_of_another_dimension(f, dual_dim, monkeypatch):
    # Both routes refuse before any node is built or any f or phi is read:
    # the analytic one read phi on the dual grid first (invalid-phi), and
    # its hand-off refuses before it evaluates any conjugate row.
    eval_grid, dual_grid = ball_box_grid(2, 21), default_dual_grid(dual_dim, 2.0)
    monkeypatch.setattr(envelope, "_on_ball", lambda *a: pytest.fail("f read on the ball"))
    monkeypatch.setattr(conjugacy, "capra_conjugate_l0_analytic_batch",
                        lambda *a: pytest.fail("an analytic conjugate row ran"))
    with pytest.raises(ValueError, match=rf"^dimension-mismatch: dual grid dimension {dual_dim} "
                                         r"!= primal grid dimension 2$"):
        tightest_convex_on_ball(f, NormalizationSpec.lp(2.0), eval_grid, dual_grid)
    assert eval_grid._nodes is None and dual_grid._nodes is None


def test_envelope_refuses_unknown_and_unsupported_routes():
    g = ball_box_grid(2, 11)
    with pytest.raises(ValueError, match="^unknown-route: unknown route 'sphere'"):
        tightest_convex_on_ball(ZeroHomFnSpec.l0(2), NormalizationSpec.lp(2.0), g, route="sphere")
    l1 = NormalizationSpec.custom(lambda v: float(np.abs(v).sum()))
    for f, nu in ((ZeroHomFnSpec.constant_zero(), NormalizationSpec.lp(2.0)),
                  (ZeroHomFnSpec.l0(2), l1)):
        with pytest.raises(ValueError, match="^unsupported-route: analytic route requires"):
            tightest_convex_on_ball(f, nu, g, route="analytic")


def test_best_pos_hom_on_subset_examples():
    # l0 on the linf unit ball grid: support over {|y|inf <= 1} gives l1
    g = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [21, 21])
    l0 = np.count_nonzero(g.nodes, axis=1).astype(float)
    f = FunctionSample(g, l0)
    cand = build_grid([(-2.0, 2.0), (-2.0, 2.0)], [17, 17]).nodes
    v = best_pos_hom_on_subset(f, lambda x: True, [1.0, 1.0], cand, tol=1e-9)
    assert abs(v - 2.0) <= 1e-9
    # |x| on [-1, 1]: the subgradient set at 0 is [-1, 1]
    g1 = build_grid([(-1.5, 1.5)], [61])
    f1 = FunctionSample(g1, np.abs(g1.nodes[:, 0]))
    cand1 = build_grid([(-2.0, 2.0)], [17]).nodes
    v1 = best_pos_hom_on_subset(f1, lambda x: abs(x[0]) <= 1.0, [1.0], cand1, tol=1e-9)
    assert abs(v1 - 1.0) <= 1e-9
    # A scalar is a point of one coordinate.
    assert best_pos_hom_on_subset(f1, lambda x: abs(x[0]) <= 1.0, 1.0, cand1, tol=1e-9) == v1
    nu = NormalizationSpec.lp(2.0)
    assert (tightest_pos_hom_on_ball(ZeroHomFnSpec.l0(1), nu, 0.7, cand1)
            == tightest_pos_hom_on_ball(ZeroHomFnSpec.l0(1), nu, [0.7], cand1))
    # f = 0 on the whole grid: support is 0 everywhere
    f0 = FunctionSample(g, np.zeros(g.node_count))
    assert best_pos_hom_on_subset(f0, lambda x: True, [0.3, -0.8], cand, tol=1e-9) == 0.0


def test_best_pos_hom_on_subset_errors():
    g = build_grid([(-1.0, 1.0)], [11])
    f = FunctionSample(g, np.abs(g.nodes[:, 0]))
    cand = np.array([[0.0]])
    with pytest.raises(ValueError, match="zero-not-in-subset"):
        best_pos_hom_on_subset(f, lambda x: abs(x[0]) > 0.5, [1.0], cand)
    f_bad = FunctionSample(g, np.abs(g.nodes[:, 0]) + 1.0)
    with pytest.raises(ValueError, match="f-at-zero-nonzero"):
        best_pos_hom_on_subset(f_bad, lambda x: True, [1.0], cand)


def test_tightest_norm_below_phi_l0():
    for p in (1.0, 2.0, math.inf):
        obj = best_norm_object(PhiSpec.identity(3), SourceNormSpec.lp(p, 3))
        for _ in range(20):
            x = RNG.standard_normal(3)
            assert math.isclose(obj.value(x), lp_value(x, 1.0), rel_tol=1e-12)
            xb = x / max(lp_value(x, p), 1.0)
            assert obj.value(xb) <= np.count_nonzero(xb) + 1e-12


def test_surface_summary_and_json(tmp_path):
    g = build_grid([(-1.0, 1.0)], [5])
    vals = np.array([math.inf, 1.0, 0.0, 1.0, math.inf])
    s = FunctionSample(g, vals)
    summary = surface_summary(s, checkpoints=[[0.0], [1.0]])
    assert summary["min"] == 0.0
    assert summary["max"] == "+inf"
    assert summary["values_at"][0] == {"x": [0.0], "v": 0.0}
    path = tmp_path / "summary.json"
    write_surface_json(s, path, checkpoints=[[0.0]])
    back = json.loads(path.read_text())
    assert back["max"] == "+inf" and back["values_at"][0]["v"] == 0.0
