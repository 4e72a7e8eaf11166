import math
import warnings

import numpy as np
import pytest

from capra import numerics, oracle
from capra.conjugacy import conjugate_at_points, fenchel_biconjugate, fenchel_conjugate
from capra.norms import conj_exponent, k_support_norm, lp_value, lp_value_batch, top_k_norm
from capra.numerics import FunctionSample, build_grid, default_dual_grid, low_add
from capra.oracle import (
    convex_envelope_2d,
    default_direction_set,
    k_support_bruteforce,
    naive_conjugate,
    support_function_bruteforce,
)

RNG = np.random.default_rng(0x5EED)


def _python_conjugate(f, dual_grid):
    """Scalar-loop reference, used to pin down the vectorized oracles."""
    out = []
    for y in dual_grid.nodes:
        best = -math.inf
        for x, v in zip(f.grid.nodes, f.values):
            s = x[0] * y[0]
            for k in range(1, y.size):
                s += x[k] * y[k]
            best = max(best, low_add(s, -v))
        out.append(best)
    return np.array(out)


def _python_k_support(x, p, k, directions):
    """Per-direction loop, used to pin down the vectorized k-support oracle."""
    q = conj_exponent(p)
    best = 0.0
    for y in directions:
        t = top_k_norm(y, q, k)
        if t > 0.0:
            best = max(best, float(np.dot(x, y)) / t)
    return best


def _random_sample(grid, inf_fraction=0.2):
    vals = RNG.uniform(-2.0, 2.0, grid.node_count)
    vals[RNG.random(grid.node_count) < inf_fraction] = math.inf
    return FunctionSample(grid, vals)


def _fold_cases():
    """(grid, dual grid, values) on which the referee folds some axes and
    not others.  An axis folds when it is sign-symmetric on both grids and
    the values are even along it in value."""
    sym, dual = build_grid([(-1.0, 1.0)] * 2, [7, 7]), build_grid([(-2.0, 2.0)] * 2, [9, 9])
    x = sym.nodes
    ball = np.where(np.abs(x).sum(axis=1) <= 1.0, 0.0, math.inf)
    origin = np.full(sym.node_count, math.inf)
    origin[sym.node_count // 2] = -math.inf
    even = build_grid([(-1.0, 1.0), (-1.5, 1.5)], [8, 6])  # no zero node
    g3 = build_grid([(-1.0, 1.0), (-0.5, 1.0), (-1.0, 1.0)], [5, 4, 5])
    sym3 = build_grid([(-1.0, 1.0)] * 3, [5, 5, 5])
    l1_3 = np.abs(sym3.nodes).sum(axis=1)
    return [
        (even, build_grid([(-2.0, 2.0)] * 2, [10, 4]), 2.0 * np.abs(even.nodes).sum(axis=1)),
        (even, build_grid([(-2.0, 2.0)] * 2, [9, 5]), np.zeros(even.node_count)),
        # a symmetric primal axis 0 against an asymmetric dual one, and the
        # reverse on axis 1: axis 1, then axis 0 folds
        (sym, build_grid([(-2.0, 2.5), (-2.0, 2.0)], [9, 9]), ball),
        (build_grid([(-1.0, 1.0), (-0.5, 1.5)], [7, 9]), dual, np.zeros(63)),
        # even along axis 0 only
        (sym, dual, np.abs(x[:, 0]) + x[:, 1]),
        (sym, dual, np.where(x[:, 1] <= 0.0, ball, math.inf)),
        # even in value, with 0.0 and -0.0 swapped across the mirror of axis 0
        (sym, dual, np.where((x[:, 0] < 0.0) & (ball == 0.0), -0.0, ball)),
        (sym, dual, np.full(sym.node_count, math.inf)),
        (sym, dual, origin),
        (g3, build_grid([(-2.0, 2.0), (-2.0, 2.0), (-1.0, 3.0)], [5, 5, 4]),
         np.count_nonzero(g3.nodes, axis=1).astype(float)),
        (sym3, build_grid([(-2.0, 2.0)] * 3, [5, 5, 5]),
         np.where(l1_3 > 1.0, 1.0 + l1_3, np.where(sym3.nodes[:, 2] < 0.0, -0.0, 0.0))),
    ]


def test_naive_matches_python_reference(monkeypatch):
    # The oracle's blocks of last-axis dual values change no output bit:
    # blocks of unequal size, one value each, and one block larger than the
    # last axis.
    cases = [
        ([(-1.0, 1.0)], [13], [(-2.0, 2.0)], [11]),
        ([(-1.0, 1.0), (-0.5, 1.5)], [7, 9], [(-2.0, 2.0), (-2.0, 2.0)], [8, 6]),
        ([(-0.7, 1.2), (-1.0, 0.4), (-1.5, 1.5)], [4, 3, 5],
         [(-2.0, 2.5), (-3.0, 1.0), (-1.0, 2.0)], [3, 4, 3]),
    ]
    for bounds, counts, dual_bounds, dual_counts in cases:
        g = build_grid(bounds, counts)
        gd = build_grid(dual_bounds, dual_counts)
        n = g.node_count
        samples = [_random_sample(g), FunctionSample(g, np.full(n, math.inf))]
        vals = _random_sample(g).values.copy()
        vals[n // 3] = -math.inf
        samples.append(FunctionSample(g, vals))
        m_last = gd.counts[-1]
        ragged = next(r for r in range(2, m_last) if m_last % r)
        for f in samples:
            want = _python_conjugate(f, gd)
            for budget in (1, n * ragged, n * (m_last + 5)):
                monkeypatch.setattr(numerics, "_BLOCK_FLOATS", budget)
                assert np.array_equal(naive_conjugate(f, gd).values, want), (counts, budget)
        assert np.all(np.isneginf(naive_conjugate(samples[1], gd).values))
        assert np.all(np.isposinf(naive_conjugate(samples[2], gd).values))
    # Folded axes change no value either (the sign of a zero is pinned by
    # the flat-row test below).
    for g, gd, vals in _fold_cases():
        f = FunctionSample(g, vals)
        assert np.array_equal(naive_conjugate(f, gd).values, _python_conjugate(f, gd)), g.counts


def _flat_row_conjugate(f, dual_grid, block_floats=1 << 15):
    """The oracle kernel as it was before its blocks ran along the last dual
    axis: blocks of flattened dual rows, each scored as multiply, multiply,
    add, subtract, then one row max."""
    d = f.grid.dim
    cols = np.ascontiguousarray(f.grid.nodes.T)
    vals = f.values
    duals = dual_grid.nodes
    n, m = cols.shape[1], duals.shape[0]
    out = np.empty(m)
    rows = max(1, min(m, block_floats // max(n, 1)))
    scores = np.empty((rows, n))
    term = np.empty((rows, n))
    for j in range(0, m, rows):
        yb = duals[j:j + rows]
        s, t = scores[:len(yb)], term[:len(yb)]
        np.multiply(yb[:, 0, None], cols[0], out=s)
        for k in range(1, d):
            np.multiply(yb[:, k, None], cols[k], out=t)
            s += t
        s -= vals
        np.max(s, axis=1, out=out[j:j + rows])
    return out


def test_naive_keeps_flat_row_bits_signed_zeros_included(monkeypatch):
    # np.array_equal reads -0.0 == 0.0; the bit patterns do not.  On
    # sign-symmetric grids the max of a dual row often ties a +0.0 score
    # with a -0.0 one, so the sign of a zero output shows the order of the
    # reduction: each dual row must still take one np.max over every primal
    # node, whatever the blocking.
    # The referee scores one node of each sign orbit of the folded axes and
    # rescores the mirrored zeros: the fold cases pin that as well.
    zeros = {False: 0, True: 0}
    cases = []
    for d, n, m in ((1, 9, 13), (2, 7, 9), (3, 5, 5)):
        g = build_grid([(-1.0, 1.0)] * d, [n] * d)
        gd = build_grid([(-2.0, 2.0)] * d, [m] * d)
        l1 = np.abs(g.nodes).sum(axis=1)
        cases += [(g, gd, vals) for vals in (np.zeros(g.node_count),
                                             np.count_nonzero(g.nodes, axis=1).astype(float),
                                             2.0 * l1,
                                             3.0 * np.abs(g.nodes).max(axis=1),
                                             np.where(l1 <= 1.0, 0.0, math.inf))]
    for g, gd, vals in cases + _fold_cases():
        f = FunctionSample(g, vals)
        want = _flat_row_conjugate(f, gd)
        back = FunctionSample(gd, want)
        want_back = _flat_row_conjugate(back, g)
        for budget in (1, 2 * g.node_count + 1, 1 << 16):
            monkeypatch.setattr(numerics, "_BLOCK_FLOATS", budget)
            got = naive_conjugate(f, gd).values
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), g.counts
            got = naive_conjugate(back, g).values
            assert np.array_equal(got.view(np.uint64), want_back.view(np.uint64)), g.counts
        for z in (want, want_back):
            zeros[False] += int(np.count_nonzero((z == 0.0) & ~np.signbit(z)))
            zeros[True] += int(np.count_nonzero((z == 0.0) & np.signbit(z)))
    # Both signs of zero occur, so the pin sees a flipped sign.
    assert zeros[False] > 0 and zeros[True] > 0


def _swap_cases():
    """(grid, dual grid, values, swaps) on which the referee's swap fold
    (y0 <-> y1) must or must not engage: it does at d = 2 when axes 0 and 1
    are equal on both grids and the values equal their transpose in value."""
    sym, dual = build_grid([(-1.0, 1.0)] * 2, [7, 7]), build_grid([(-2.0, 2.0)] * 2, [9, 9])
    skew = build_grid([(-0.5, 1.5)] * 2, [7, 7])  # no sign fold
    skew_dual = build_grid([(-1.0, 2.0)] * 2, [11, 11])
    x, s = sym.nodes, skew.nodes
    ball = np.where(np.abs(x).sum(axis=1) <= 1.0, 0.0, math.inf)
    sym3 = build_grid([(-1.0, 1.0)] * 3, [5, 5, 5])
    # At y = (-1, -0.5) the scores tie at the -0.0 of the origin and the +0.0
    # of (-0.25, 0); at (-0.5, -1) at the same -0.0 and the +0.0 of
    # (0, -0.25).  On numpy 2.4 (x86-64) the reduction's order makes the
    # first max -0.0 and the second +0.0: the copied zeros must be rescored.
    tie = build_grid([(-0.25, 1.5)] * 2, [8, 8])
    t = tie.nodes
    return [
        (tie, dual, np.maximum(0.0, -t[:, 0]) + np.maximum(0.0, -t[:, 1]) + 0.0, True),
        (sym, dual, ball, True),
        (sym, dual, 2.0 * np.abs(x).sum(axis=1), True),
        (sym, dual, np.count_nonzero(x, axis=1).astype(float), True),
        (sym, dual, 3.0 * np.abs(x).max(axis=1), True),
        (skew, skew_dual, s.sum(axis=1) + np.abs(s[:, 0] - s[:, 1]), True),
        (skew, skew_dual, np.where(s.max(axis=1) <= 0.5, 0.0, math.inf), True),
        # equal in value, with 0.0 and -0.0 swapped across the diagonal
        (sym, dual, np.where((x[:, 0] < x[:, 1]) & (ball == 0.0), -0.0, ball), True),
        (skew, skew_dual, np.where(s[:, 0] > s[:, 1], -0.0, 0.0), True),
        # equal counts, unequal bounds on the dual grid, then on the primal
        (sym, build_grid([(-2.0, 2.0), (-2.5, 2.5)], [9, 9]), ball, False),
        (build_grid([(-1.0, 1.0), (-1.5, 1.5)], [7, 7]), dual, ball, False),
        # not symmetric
        (sym, dual, np.abs(x[:, 0]) + 2.0 * np.abs(x[:, 1]), False),
        (skew, skew_dual, np.where(s[:, 0] <= 0.5, 0.0, math.inf), False),
        (build_grid([(-1.0, 1.0)], [9]), build_grid([(-2.0, 2.0)], [13]),
         np.where(np.linspace(-1.0, 1.0, 9) == 0.0, 0.0, 1.0), False),
        (sym3, build_grid([(-2.0, 2.0)] * 3, [5, 5, 5]), np.abs(sym3.nodes).sum(axis=1), False),
    ]


def test_swap_fold_keeps_flat_row_bits(monkeypatch):
    # The swap fold scores one node of each orbit of the square's symmetry
    # group (sign flips and the swap of axes 0 and 1) and rescores the
    # copied zeros; under every blocking, one value per block or blocks
    # that straddle the diagonal, the bits are those of flat rows.
    real = oracle._score_product
    scored = []

    def counting(cols, vals, axes, swap):
        out = real(cols, vals, axes, swap)
        scored.append(([ax.size for ax in axes], int(np.count_nonzero(~np.isnan(out)))))
        return out

    monkeypatch.setattr(oracle, "_score_product", counting)
    signs = set()
    for g, gd, vals, swaps in _swap_cases():
        f = FunctionSample(g, vals)
        want = _flat_row_conjugate(f, gd)
        back = FunctionSample(gd, want)
        want_back = _flat_row_conjugate(back, g)
        for h, grid, want in ((f, gd, want), (back, g, want_back)):
            n = h.grid.node_count
            for budget in (1, 2 * n, 3 * n, 1 << 16):
                monkeypatch.setattr(numerics, "_BLOCK_FLOATS", budget)
                scored.clear()
                got = naive_conjugate(h, grid).values
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), g.axes
                (sizes, count), = scored
                if h is f:
                    m = sizes[0]
                    assert count == (m * (m + 1) // 2 if swaps else math.prod(sizes)), g.axes
            signs |= set(np.signbit(want[want == 0.0]).tolist())
    # Both signs of zero occur, so the pin sees a flipped sign.
    assert signs == {False, True}


@pytest.mark.parametrize("d, n", [(1, 40001), (2, 183), (3, 33)])
def test_naive_keeps_flat_row_bits_in_both_loop_regimes(d, n):
    # More than _BLOCK_FLOATS // 2 primal nodes: one last-axis value per
    # block, heads outermost.  Back onto that grid from the small dual grid
    # (d <= 2, to keep each case fast): blocks of many last-axis values.
    # Same bits as flat rows either way.
    g = build_grid([(-1.0, 1.0)] * d, [n] * d)
    gd = build_grid([(-2.0, 2.0)] * d, [5] * d)
    assert g.node_count > numerics._BLOCK_FLOATS // 2 >= 2 * gd.node_count
    l1 = np.abs(g.nodes).sum(axis=1)
    samples = [np.zeros(g.node_count),
               np.count_nonzero(g.nodes, axis=1).astype(float),
               2.0 * l1,
               3.0 * np.abs(g.nodes).max(axis=1),
               np.where(l1 <= 1.0, 0.0, math.inf)]
    signs = set()
    for vals in samples:
        f = FunctionSample(g, vals)
        want = _flat_row_conjugate(f, gd)
        cases = [(f, gd, want)]
        if d <= 2:
            back = FunctionSample(gd, want)
            cases.append((back, g, _flat_row_conjugate(back, g)))
        for h, grid, want in cases:
            got = naive_conjugate(h, grid).values
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), grid.counts
            signs |= set(np.signbit(want[want == 0.0]).tolist())
    assert signs == {False, True}


def _assert_transform_contract(f, dual_grid):
    """The grid transform against the referee: identical +-inf pattern, and
    finite values within 4 eps (max|x| |y|_1 + max|f|) of it."""
    got = fenchel_conjugate(f, dual_grid).values
    want = naive_conjugate(f, dual_grid).values
    assert np.array_equal(np.isposinf(got), np.isposinf(want))
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite_f = f.values[np.isfinite(f.values)]
    fmax = float(np.abs(finite_f).max()) if finite_f.size else 0.0
    xmax = float(np.abs(f.grid.nodes).max())
    bound = 4.0 * np.finfo(float).eps * (xmax * np.abs(dual_grid.nodes).sum(axis=1) + fmax)
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= bound[fin])
    return got


def test_grid_transform_within_ulp_bound_of_naive():
    # d = 1, 2, 3; non-square counts and asymmetric bounds on both sides.
    cases = [
        ([(-1.0, 1.0)], [9], [(-2.0, 2.0)], [11]),
        ([(-1.3, 0.9), (-1.0, 1.0)], [17, 19], [(-2.0, 2.0), (-2.0, 2.0)], [21, 23]),
        ([(-0.6, 1.4), (-2.0, 0.5)], [12, 7], [(-1.5, 3.0), (-2.5, 0.5)], [9, 14]),
        ([(-0.7, 1.2), (-1.0, 0.4), (-1.5, 1.5)], [7, 9, 6],
         [(-2.0, 2.5), (-3.0, 1.0), (-1.0, 2.0)], [5, 8, 7]),
    ]
    for bounds, counts, dual_bounds, dual_counts in cases:
        g = build_grid(bounds, counts)
        gd = build_grid(dual_bounds, dual_counts)
        for _ in range(5):
            _assert_transform_contract(_random_sample(g), gd)
        # All +inf: the max is over an empty set, -inf everywhere.
        empty = _assert_transform_contract(
            FunctionSample(g, np.full(g.node_count, math.inf)), gd)
        assert np.all(np.isneginf(empty))
        # One -inf entry: +inf everywhere.
        vals = _random_sample(g).values.copy()
        vals[g.node_count // 2] = -math.inf
        top = _assert_transform_contract(FunctionSample(g, vals), gd)
        assert np.all(np.isposinf(top))


def _ragged_budgets(n, m):
    """Block budgets under which the point transform splits n primal rows
    into several blocks of unequal size, then m dual rows likewise (a block
    of several dual rows holds every primal row), plus the 1x1 extreme."""
    pc = next(b for b in range(max(2, n // 3), n) if n % b)
    dc = next(c for c in range(2, m) if m % c)
    return (1, pc, n * dc + n // 2)


def test_point_transform_equals_naive_in_value(monkeypatch):
    # Any block split gives the oracle's output in value, +-inf included:
    # each pair keeps the axis-ascending sum, and a running max is exact.
    # (np.array_equal reads -0.0 == 0.0: the sign of a zero can differ.)
    cases = [
        ([(-1.0, 1.0)], [23], [(-2.0, 2.0)], [17]),
        ([(-1.3, 0.9), (-1.0, 1.0)], [9, 11], [(-2.0, 2.0), (-2.5, 1.5)], [7, 5]),
        ([(-0.7, 1.2), (-1.0, 0.4), (-1.5, 1.5)], [5, 4, 6],
         [(-2.0, 2.5), (-3.0, 1.0), (-1.0, 2.0)], [3, 5, 3]),
    ]
    for bounds, counts, dual_bounds, dual_counts in cases:
        g = build_grid(bounds, counts)
        gd = build_grid(dual_bounds, dual_counts)
        samples = [_random_sample(g) for _ in range(3)]
        samples.append(FunctionSample(g, RNG.uniform(-2.0, 2.0, g.node_count)))
        samples.append(FunctionSample(g, np.full(g.node_count, math.inf)))
        vals = _random_sample(g).values.copy()
        vals[g.node_count // 3] = -math.inf
        samples.append(FunctionSample(g, vals))
        for f in samples:
            want = naive_conjugate(f, gd).values
            kept = int(np.count_nonzero(~np.isposinf(f.values)))
            for budget in _ragged_budgets(max(kept, 3), gd.node_count):
                monkeypatch.setattr(numerics, "_BLOCK_FLOATS", budget)
                got = conjugate_at_points(f, gd.nodes)
                assert np.array_equal(got, want), (counts, budget)
        assert np.all(np.isneginf(conjugate_at_points(samples[-2], gd.nodes)))
        assert np.all(np.isposinf(conjugate_at_points(samples[-1], gd.nodes)))


def test_overflowing_pairings_refused_by_every_transform():
    # The l1-ball indicator on a 3x3 grid onto duals near the largest float:
    # |y|_1 overflows.  The referee used to raise the untagged "sample values
    # must not contain NaN" (inf - inf at the +inf nodes), the point
    # transform to warn of an overflow, and the grid transforms returned
    # values.  A huge finite f overflows the scores as well.
    g = build_grid([(-1.0, 1.0)] * 2, [3, 3])
    ball = np.abs(g.nodes).sum(axis=1) <= 1.0
    big = build_grid([(-1.7e308, 1.7e308)] * 2, [3, 3])
    indicator = FunctionSample(g, np.where(ball, 0.0, math.inf))
    low = FunctionSample(g, np.where(ball, -1.7e308, math.inf))
    near = build_grid([(-1e308, 1e308)] * 2, [3, 3])
    calls = [
        lambda: naive_conjugate(indicator, big),
        lambda: fenchel_conjugate(indicator, big),
        lambda: fenchel_biconjugate(indicator, big),
        lambda: conjugate_at_points(indicator, [[1.7e308, 1.7e308]]),
        lambda: naive_conjugate(low, near),
        lambda: fenchel_conjugate(low, near),
        lambda: conjugate_at_points(low, [[1e308, 0.0]]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="^pairing-overflow: "):
                call()
        # Scores that fit a float are scored, the same by all three.
        dual = build_grid([(-8e307, 8e307)] * 2, [3, 3])
        ref = naive_conjugate(indicator, dual).values
        assert np.array_equal(fenchel_conjugate(indicator, dual).values, ref)
        assert np.array_equal(conjugate_at_points(indicator, dual.nodes), ref)
        assert ref.max() == 8e307


def test_naive_conjugate_of_origin_indicator():
    g = build_grid([(-1.0, 1.0)], [5])
    ind = FunctionSample(g, np.where(g.nodes[:, 0] == 0.0, 0.0, math.inf))
    dual = build_grid([(-3.0, 3.0)], [13])
    c = naive_conjugate(ind, dual)
    assert np.allclose(c.values, 0.0)
    assert dual._nodes is None  # the oracle reads the dual axes only
    for dual in (build_grid([(-3.0, 3.0)] * 2, [5, 5]), build_grid([(-3.0, 3.0)] * 3, [3] * 3)):
        with pytest.raises(ValueError, match=rf"^dimension-mismatch: dual grid dimension "
                                             rf"{dual.dim} != 1$"):
            naive_conjugate(ind, dual)


def test_naive_conjugate_of_linear_function():
    a = np.array([0.5, -0.25])
    g = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [9, 9])
    f = FunctionSample(g, g.nodes @ a)
    gd = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [9, 9])
    c = naive_conjugate(f, gd)
    i = gd.nearest_index(a)
    assert abs(c.values[i]) <= 1e-12  # exact at y = a (a is a node)
    assert np.all(c.values >= -1e-12)


def test_envelope_idempotent_with_fixed_dual_grid():
    g = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [15, 15])
    dual = default_dual_grid(2, 3.0, step=0.125)
    f = FunctionSample(g, RNG.uniform(0.0, 3.0, g.node_count))
    e1 = convex_envelope_2d(f, dual)
    e2 = convex_envelope_2d(e1, dual)
    assert np.max(np.abs(e1.values - e2.values)) <= 1e-12


def test_envelope_fixes_convex_sample():
    g = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [15, 15])
    f = FunctionSample(g, np.sum(g.nodes**2, axis=1))
    e = convex_envelope_2d(f, default_dual_grid(2, 2.0))
    assert np.max(np.abs(e.values - f.values)) <= 1e-10


def test_envelope_of_single_finite_node():
    # f finite only at the origin: the envelope tends to the origin indicator
    # as the dual range grows (values away from 0 scale with the range).
    g = build_grid([(-1.0, 1.0)], [9])
    f = FunctionSample(g, np.where(g.nodes[:, 0] == 0.0, 0.0, math.inf))
    small = convex_envelope_2d(f, default_dual_grid(1, 1.0))   # range 4
    large = convex_envelope_2d(f, default_dual_grid(1, 3.0))   # range 8
    assert small.value_near([0.0]) == 0.0 and large.value_near([0.0]) == 0.0
    x = np.abs(g.nodes[:, 0]) > 0
    assert np.allclose(small.values[x], 4.0 * np.abs(g.nodes[x, 0]))
    assert np.allclose(large.values[x], 8.0 * np.abs(g.nodes[x, 0]))
    # The default dual grid is sized by the largest finite |f|, here 0.
    auto = convex_envelope_2d(f)
    assert np.array_equal(auto.values, convex_envelope_2d(f, default_dual_grid(1, 0.0)).values)


def test_envelope_dimension_guard():
    g = build_grid([(-1.0, 1.0)] * 3, [3, 3, 3])
    f = FunctionSample(g, np.zeros(27))
    with pytest.raises(ValueError, match="dimension-too-large"):
        convex_envelope_2d(f)


def test_support_function_bruteforce():
    cand = build_grid([(-1.5, 1.5), (-1.5, 1.5)], [25, 25]).nodes
    inside_l2 = lambda Y: lp_value_batch(Y, 2.0) <= 1.0
    v = support_function_bruteforce([1.0, 0.0], inside_l2, cand)
    assert abs(v - 1.0) <= 1e-12
    assert support_function_bruteforce([0.0, 0.0], inside_l2, cand) == 0.0
    # Equal to a per-row np.dot loop over the members, bit for bit.
    rng = np.random.default_rng(9)
    cand3 = build_grid([(-1.25, 1.25)] * 3, [11] * 3).nodes
    inside_l1 = lambda Y: lp_value_batch(Y, 1.0) <= 1.0 + 1e-12
    for grid, inside in ((cand, inside_l2), (cand3, inside_l1)):
        members = grid[inside(grid)]
        for _ in range(20):
            x = rng.standard_normal(grid.shape[1]) * 10.0 ** rng.integers(-3, 4)
            want = max(float(np.dot(x, y)) for y in members)
            assert support_function_bruteforce(x, inside, grid) == want
    with pytest.raises(ValueError, match="no-member-found"):
        support_function_bruteforce([1.0, 0.0], lambda Y: np.zeros(len(Y), bool), cand)
    with pytest.raises(ValueError, match="no-member-found"):
        support_function_bruteforce([1.0], lambda Y: np.ones(len(Y), bool), np.empty((0, 1)))
    with pytest.raises(ValueError, match="mask of shape"):
        support_function_bruteforce([1.0, 0.0], lambda Y: True, cand)


def test_support_function_bruteforce_rejects_nonfinite_input():
    # A pairing with an infinite coordinate can be nan (inf * 0): refused
    # rather than returned.
    cand = np.array([[0.0, 1.0], [1.0, 0.0]])
    every = lambda Y: np.ones(len(Y), bool)
    for x in ([math.inf, 1.0], [math.nan, 1.0], [1.0, -math.inf]):
        with pytest.raises(ValueError, match="nonfinite-input"):
            support_function_bruteforce(x, every, cand)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="nonfinite-input"):
            support_function_bruteforce([1.0, 1.0], every, [[0.0, 1.0], [bad, 0.0]])


def test_support_function_bruteforce_rescales_overflowing_pairings():
    # 1.25 * 1.7e308 overflows, although the support value, 1.7e308 at the
    # member (0, 1), is finite: the pairing is redone with x / max|x|.
    cand = np.array([[1.25, -1.25], [0.0, 1.0]])
    every = lambda Y: np.ones(len(Y), bool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert support_function_bruteforce([1.7e308, 1.7e308], every, cand) == 1.7e308
        assert support_function_bruteforce([-1e308, 1e308], every, cand) == 1e308
        # a support value beyond the largest float is +inf
        assert support_function_bruteforce([1e308, -1e308], every, cand) == math.inf
        # Members so large that the rescaled pairing overflows as well: +inf,
        # as lp_value gives for their l1 norm, and no warning.
        huge = np.array([[1e308, 1e308]])
        assert support_function_bruteforce([1.0, 1.0], every, huge) == math.inf
        assert lp_value([1e308, 1e308], 1.0) == math.inf


def test_k_support_bruteforce_examples():
    dirs3 = default_direction_set(3, 100_000)
    v = k_support_bruteforce([1.0, 1.0, 1.0], 1.0, 2, dirs3)
    assert abs(v - 3.0) <= 1e-6  # p = 1 gives the l1 norm
    v2 = k_support_bruteforce([1.0, 1.0, 1.0], math.inf, 2, dirs3)
    assert abs(v2 - 1.5) <= 1e-3
    dirs2 = default_direction_set(2, 20_000)
    v3 = k_support_bruteforce([3.0, 4.0], 2.0, 1, dirs2)
    assert abs(v3 - 7.0) <= 1e-3


def test_k_support_bruteforce_never_exceeds_closed_form():
    for _ in range(20):
        d = int(RNG.integers(2, 5))
        dirs = default_direction_set(d, 2000)
        x = RNG.standard_normal(d) * 2.0
        k = int(RNG.integers(1, d + 1))
        p = float(RNG.choice([1.0, 2.0, math.inf]))
        brute = k_support_bruteforce(x, p, k, dirs)
        exact = k_support_norm(x, p, k)
        assert brute <= exact * (1.0 + 1e-12) + 1e-12


def test_k_support_bruteforce_dimension_guard():
    with pytest.raises(ValueError, match="dimension-too-large"):
        k_support_bruteforce(np.ones(7), 2.0, 1, np.ones((1, 7)))
    for k in (0, 3):
        with pytest.raises(ValueError, match="^k-out-of-range: need 1 <= k <= 2"):
            k_support_bruteforce(np.ones(2), 2.0, k, np.ones((1, 2)))
    for dirs in (np.ones((4, 3)), np.ones(4), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match=r"^invalid-shape: directions must be an \(n, 2\)"):
            k_support_bruteforce(np.ones(2), 2.0, 1, dirs)


def test_direction_set_deterministic():
    a = default_direction_set(3, 100, seed=0x5EED)
    b = default_direction_set(3, 100, seed=0x5EED)
    assert np.array_equal(a, b)
    assert np.array_equal(default_direction_set(3, 0), a[100:])
    with pytest.raises(ValueError, match="invalid-count"):
        default_direction_set(3, -1)


def test_k_support_bruteforce_within_ulp_of_loop():
    # The one-pass oracle against the per-direction loop: d = 1..6, every k,
    # exponents on both sides of 2, clouds scaled over 14 decades, zero rows.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(0x5EED)
    for d in range(1, 7):
        base = default_direction_set(d, 100, seed=d)[:200]
        for scale in (1e-7, 1.0, 1e7):
            dirs = np.vstack([base * scale, np.zeros((2, d))])
            for p in (1.0, 1.25, 1.5, 2.0, 3.0, math.inf):
                x = rng.standard_normal(d) * float(rng.choice([1e-3, 1.0, 1e3]))
                for k in range(1, d + 1):
                    want = _python_k_support(x, p, k, dirs)
                    got = k_support_bruteforce(x, p, k, dirs)
                    assert abs(got - want) <= 4.0 * eps * abs(want), (d, scale, p, k)
        assert k_support_bruteforce(np.zeros(d), 2.0, 1, base) == 0.0


def test_k_support_bruteforce_empty_and_zero_clouds():
    x = [1.0, -2.0, 0.5]
    assert k_support_bruteforce(x, 2.0, 2, np.zeros((5, 3))) == 0.0
    assert k_support_bruteforce(x, 2.0, 2, np.empty((0, 3))) == 0.0
    assert k_support_bruteforce(x, 2.0, 2, []) == 0.0


def test_k_support_bruteforce_refuses_nonfinite_input():
    dirs = default_direction_set(2, 50)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="nonfinite-input"):
            k_support_bruteforce([bad, 1.0], 2.0, 1, dirs)
        cloud = dirs.copy()
        cloud[7, 1] = bad
        with pytest.raises(ValueError, match="nonfinite-input"):
            k_support_bruteforce([1.0, 1.0], 2.0, 1, cloud)
