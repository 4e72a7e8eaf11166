import itertools
import math

import numpy as np
import pytest

from capra.numerics import (
    FunctionSample,
    as_extreal,
    build_grid,
    low_add,
    read_sample_csv,
    sample,
    upp_add,
    write_sample_csv,
)

SPECIALS = [-math.inf, -1.0, 0.0, 1.0, math.inf]


def test_moreau_addition_examples():
    assert low_add(math.inf, -math.inf) == -math.inf
    assert low_add(-math.inf, math.inf) == -math.inf
    assert low_add(2.0, 3.0) == 5.0
    assert low_add(math.inf, 5.0) == math.inf
    assert upp_add(math.inf, -math.inf) == math.inf
    assert upp_add(-math.inf, math.inf) == math.inf
    assert upp_add(-1.0, 1.0) == 0.0
    assert upp_add(-math.inf, -math.inf) == -math.inf


def test_moreau_additions_commutative_associative():
    for a, b, c in itertools.product(SPECIALS, repeat=3):
        for add in (low_add, upp_add):
            assert add(a, b) == add(b, a)
            assert add(add(a, b), c) == add(a, add(b, c))


def test_lower_not_above_upper():
    for a, b in itertools.product(SPECIALS, repeat=2):
        assert low_add(a, b) <= upp_add(a, b)


def test_nan_rejected():
    with pytest.raises(ValueError):
        as_extreal(math.nan)
    with pytest.raises(ValueError):
        low_add(math.nan, 1.0)


def test_build_grid_1d_nodes():
    g = build_grid([(-1.0, 1.0)], [3])
    assert np.array_equal(g.nodes[:, 0], [-1.0, 0.0, 1.0])


def test_build_grid_2d_node_count_and_order():
    g = build_grid([(-1.0, 1.0), (0.0, 2.0)], [2, 2])
    assert g.node_count == 4
    # row-major: the last axis varies fastest
    expected = [(-1.0, 0.0), (-1.0, 2.0), (1.0, 0.0), (1.0, 2.0)]
    assert [tuple(n) for n in g.nodes] == expected


def test_build_grid_invalid_bounds():
    with pytest.raises(ValueError, match="invalid-bounds"):
        build_grid([(0.0, 1.0)], [1])
    with pytest.raises(ValueError, match="invalid-bounds"):
        build_grid([(1.0, 1.0)], [5])
    with pytest.raises(ValueError, match="invalid-bounds"):
        build_grid([(2.0, -2.0)], [5])


def test_symmetric_axis_center_is_exact_zero():
    g = build_grid([(-1.01, 1.01), (-3.0, 3.0)], [201, 41])
    assert g.axes[0][100] == 0.0
    assert g.axes[1][20] == 0.0
    assert g.axes[0][0] == -1.01 and g.axes[0][-1] == 1.01


def test_sample_zero_and_indicator():
    g = build_grid([(-1.0, 1.0)], [3])
    s0 = sample(lambda x: 0.0, g)
    assert np.array_equal(s0.values, np.zeros(3))
    ind = sample(lambda x: 0.0 if x[0] == 0.0 else math.inf, g)
    assert np.array_equal(ind.values, [math.inf, 0.0, math.inf])


def test_sample_l0_1d():
    g = build_grid([(-1.0, 1.0)], [3])
    l0 = sample(lambda x: float(np.count_nonzero(x)), g)
    assert np.array_equal(l0.values, [1.0, 0.0, 1.0])


def test_sample_readback_identity():
    g = build_grid([(-2.0, 1.0), (0.5, 2.5)], [4, 5])
    fn = lambda x: 3.0 * x[0] - x[1] ** 2
    s = sample(fn, g)
    for node, v in zip(g.nodes, s.values):
        assert v == fn(node)


def test_function_sample_validation():
    g = build_grid([(-1.0, 1.0)], [3])
    with pytest.raises(ValueError, match="does not match node count"):
        FunctionSample(g, np.zeros(4))
    with pytest.raises(ValueError, match="NaN"):
        FunctionSample(g, np.array([0.0, math.nan, 1.0]))


def test_csv_roundtrip_with_infinities(tmp_path):
    g = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [3, 3])
    vals = np.arange(9, dtype=float)
    vals[0] = math.inf
    vals[5] = -math.inf
    s = FunctionSample(g, vals)
    path = tmp_path / "surf.csv"
    write_sample_csv(s, path)
    text = path.read_text()
    assert text.splitlines()[0] == "x_1,x_2,value"
    assert "+inf" in text and "-inf" in text
    pts, back = read_sample_csv(path)
    assert np.array_equal(pts, g.nodes)
    assert np.array_equal(back, vals)


def test_csv_reads_any_float_spelling_of_infinity(tmp_path):
    path = tmp_path / "surf.csv"
    path.write_text("x_1,value\n-1.0, inf\n0.0,-Infinity\n1.0,+INF\n")
    pts, vals = read_sample_csv(path)
    assert np.array_equal(vals, [math.inf, -math.inf, math.inf])
    path.write_text("x_1,value\n0.0,nan\n")
    with pytest.raises(ValueError, match="nan"):
        read_sample_csv(path)


def test_nearest_index():
    g = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [21, 21])
    i = g.nearest_index(np.array([0.52, -0.48]))
    assert np.allclose(g.nodes[i], [0.5, -0.5])
