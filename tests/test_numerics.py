import itertools
import math
import warnings

import numpy as np
import pytest

from capra import numerics
from capra.numerics import (
    FunctionSample,
    Grid,
    as_extreal,
    build_grid,
    format_extreal,
    low_add,
    sample,
    write_sample_csv,
)

SPECIALS = [-math.inf, -1.0, 0.0, 1.0, math.inf]


def test_moreau_addition_examples():
    assert low_add(math.inf, -math.inf) == -math.inf
    assert low_add(-math.inf, math.inf) == -math.inf
    assert low_add(2.0, 3.0) == 5.0
    assert low_add(math.inf, 5.0) == math.inf


def test_moreau_additions_commutative_associative():
    for a, b, c in itertools.product(SPECIALS, repeat=3):
        assert low_add(a, b) == low_add(b, a)
        assert low_add(low_add(a, b), c) == low_add(a, low_add(b, c))


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
    for run in (lambda: build_grid([(0.0, 1.0)] * 2, [5]),
                lambda: Grid((0.0, 0.0), (1.0,), (5, 5)),
                lambda: build_grid([], [])):
        with pytest.raises(ValueError, match="^invalid-bounds: (bounds and counts must have "
                                             "equal length|grid needs at least one axis)$"):
            run()
    # Infinite bounds gave the nodes [-inf, nan, inf] and [nan, inf, inf],
    # and a width beyond the largest float overflowed inside linspace.  The
    # widest symmetric axes, which the pairing-overflow tests use, build.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bounds in ((-math.inf, math.inf), (0.0, math.inf), (-math.inf, 0.0),
                       (-1.7e308, 1.6e308)):
            with pytest.raises(ValueError, match="invalid-bounds: the 3 nodes of .* are not "
                                                 "finite and strictly increasing"):
                build_grid([bounds], [3])
        g = build_grid([(-1.7e308, 1.7e308)] * 2, [3, 3])
    assert [ax.tolist() for ax in g.axes] == [[-1.7e308, 0.0, 1.7e308]] * 2


def test_grid_equality_compares_bounds_and_counts():
    a = build_grid([(-1.0, 1.0), (0.0, 2.0)], [5, 3])
    b = build_grid([(-1.0, 1.0), (0.0, 2.0)], [5, 3])
    assert b.nodes.shape == (15, 2)  # a built node array is no part of it
    assert a == b and not a != b
    assert a != build_grid([(-1.0, 1.0), (0.0, 2.0)], [5, 4])
    assert a != build_grid([(-1.0, 1.0), (0.0, 3.0)], [5, 3])
    assert a != "grid"


def test_function_sample_equality_is_identity():
    g = build_grid([(-1.0, 1.0)], [3])
    s, t = FunctionSample(g, np.zeros(3)), FunctionSample(g, np.zeros(3))
    assert s == s and s != t
    assert s in [t, s] and len({s, t}) == 2


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
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    pts, back = rows[:, :-1], rows[:, -1]
    assert np.array_equal(pts, g.nodes)
    assert np.array_equal(back, vals)


def _python_write_sample_csv(sample, path) -> None:
    # Reference writer: one row per node, formatted node by node.
    d = sample.grid.dim
    header = ",".join(f"x_{k + 1}" for k in range(d)) + ",value"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for node, v in zip(sample.grid.nodes.tolist(), sample.values.tolist()):
            coords = ",".join(map(repr, node))
            fh.write(f"{coords},{format_extreal(v)}\n")


CSV_GRIDS = [
    Grid((-1.0,), (1.0,), (9,)),
    Grid((-0.3,), (2.7,), (2,)),
    Grid((-1.0, -1.0), (1.0, 1.0), (5, 5)),
    Grid((-2.0, -1.0), (3.0, 5.0), (7, 2)),
    Grid((-1.0, 0.0, -5e-3), (1.0, 1.0 / 3.0, 7.0), (3, 2, 4)),
    Grid((-1e300, -1.0, -1.0), (1e300, 5e-324, 1.0), (2, 5, 3)),
]


def _csv_values(n: int) -> np.ndarray:
    specials = [math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300,
                1.0 / 3.0, 3 * 2.0 ** -1074]
    rng = np.random.default_rng(n)
    mixed = rng.standard_normal(6) * 10.0 ** rng.integers(-8, 8, size=6)
    return np.resize(np.concatenate([specials, mixed]), n)


@pytest.mark.parametrize("grid", CSV_GRIDS, ids=lambda g: f"d{g.dim}-{g.counts}")
def test_csv_writer_bytes_equal_node_by_node_writer(tmp_path, monkeypatch, grid):
    s = FunctionSample(grid, _csv_values(grid.node_count))
    ref = tmp_path / "ref.csv"
    _python_write_sample_csv(s, ref)
    writes = []

    def counting_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write
        fh.write = lambda text: (writes.append(text.count("\n")), write(text))[1]
        return fh

    monkeypatch.setattr(numerics, "open", counting_open, raising=False)
    for rows in (numerics._CSV_BLOCK_ROWS, 5, 1, grid.node_count + 3):
        monkeypatch.setattr(numerics, "_CSV_BLOCK_ROWS", rows)
        writes.clear()
        out = tmp_path / f"new{rows}.csv"
        write_sample_csv(s, out)
        assert out.read_bytes() == ref.read_bytes(), rows
        # the header, then one write per block of at most ``rows`` rows
        blocks = -(-grid.node_count // rows)
        assert writes[0] == 1 and len(writes) == 1 + blocks
        assert writes[1:] == [rows] * (blocks - 1) + [grid.node_count - rows * (blocks - 1)]


def test_csv_writer_formats_each_distinct_value_once(tmp_path, monkeypatch):
    # Heavy repeats of signed zeros, infinities and subnormals: the bytes
    # equal the node-by-node writer's, and each distinct bit pattern goes
    # through format_extreal exactly once (-0.0 and 0.0 apart).
    grid = Grid((-1.0, -1.0), (1.0, 1.0), (23, 19))
    pool = np.array([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.5e-310,
                     1.0 / 3.0, -2.0, 1e300])
    values = pool[np.random.default_rng(7).integers(pool.size, size=grid.node_count)]
    s = FunctionSample(grid, values)
    ref = tmp_path / "ref.csv"
    _python_write_sample_csv(s, ref)
    assert ref.read_text().count(",-0.0\n") and ref.read_text().count(",0.0\n")
    formatted = []
    fmt = numerics.format_extreal
    monkeypatch.setattr(numerics, "format_extreal",
                        lambda v, *rest: formatted.append(v) or fmt(v, *rest))
    for rows in (numerics._CSV_BLOCK_ROWS, 7):
        monkeypatch.setattr(numerics, "_CSV_BLOCK_ROWS", rows)
        formatted.clear()
        out = tmp_path / f"new{rows}.csv"
        write_sample_csv(s, out)
        assert out.read_bytes() == ref.read_bytes(), rows
        bits = np.array(formatted).view(np.int64).tolist()
        assert sorted(bits) == sorted(set(values.view(np.int64).tolist())) and len(bits) == 10


def test_nearest_index():
    g = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [21, 21])
    i = g.nearest_index(np.array([0.52, -0.48]))
    assert np.allclose(g.nodes[i], [0.5, -0.5])
    # Far points clip to the box; infinite or NaN ones are refused by name
    # (rounding them to an index would overflow or fail untagged).
    assert np.allclose(g.nodes[g.nearest_index([1e300, -1e300])], [1.0, -1.0])
    for point, tag in (([math.inf, 0.0], "nonfinite-input"), ([0.0, -math.inf], "nonfinite-input"),
                       ([math.nan, 0.0], "nan-input"), ([math.inf, math.nan], "nan-input")):
        with pytest.raises(ValueError, match=tag):
            g.nearest_index(point)


def test_finite_scale_is_the_largest_finite_magnitude():
    assert numerics._finite_scale([math.inf, -3.0, 2.0, -math.inf]) == 3.0
    assert numerics._finite_scale([0.0, math.inf]) == 0.0
    for values in ([math.inf, -math.inf], []):
        assert numerics._finite_scale(values) == 1.0


def _nearest_index_unclipped(grid, point) -> int:
    """The rounded index as computed before points were clipped to the box:
    the reference on every grid of finite width."""
    point = np.asarray(point, dtype=float)
    multi = [min(max(int(round((point[k] - grid.lowers[k]) / grid.steps[k])), 0),
                 grid.counts[k] - 1) for k in range(grid.dim)]
    return int(np.ravel_multi_index(tuple(multi), grid.counts))


def test_nearest_index_keeps_the_rounded_index():
    # Grids the CLI and the verify suites build, at random points in and
    # around the box and at the float midpoints of neighbouring nodes, where
    # round() breaks ties.
    from capra.envelope import ball_box_grid

    rng = np.random.default_rng(12)
    grids = [ball_box_grid(d, n) for d, n in ((1, 201), (2, 41), (2, 83), (2, 101), (3, 41))]
    grids += [numerics.default_dual_grid(2, 1.0), build_grid([(-2.0, 2.0)], [81])]
    for grid in grids:
        top = np.array(grid.uppers)
        points = [rng.uniform(-1.2, 1.2, grid.dim) * top for _ in range(300)]
        for k, ax in enumerate(grid.axes):
            for mid in (ax[:-1] + ax[1:]) / 2.0:
                point = rng.uniform(-1.0, 1.0, grid.dim) * top
                point[k] = mid
                points.append(point)
        for point in points:
            assert grid.nearest_index(point) == _nearest_index_unclipped(grid, point)


def test_nearest_index_on_a_grid_wider_than_the_largest_float():
    # The width overflows to inf, and so does the step; x - lower overflowed
    # for far points.
    wide = build_grid([(-1.7e308, 1.7e308)], [3])
    square = build_grid([(-1.7e308, 1.7e308)] * 2, [3, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = [wide.nearest_index([x]) for x in (0.0, 1e308, -1e308, 5e307, 1.7e308, -1.7e308)]
        assert got == [1, 2, 0, 1, 2, 0]
        assert square.nearest_index([0.0, 1e308]) == 5
        assert FunctionSample(wide, np.array([2.0, 3.0, 4.0])).value_near([1e308]) == 4.0


def test_refuse_nonfinite_keeps_its_tags_and_messages():
    # One isfinite reduction on finite input; the tagged checks on failure,
    # NaN first wherever it stands beside an infinite coordinate.
    for a in (np.zeros(0), np.array([1.0, -0.0, 1e308]), np.ones((2, 3))):
        numerics._refuse_nonfinite(a, "a point")
    for a in ([math.nan, 1.0], [math.inf, math.nan], [1.0, -math.inf, math.nan]):
        with pytest.raises(ValueError, match=r"^nan-input: a point coordinate is NaN$"):
            numerics._refuse_nonfinite(np.array(a), "a point")
    for a in ([1.0, math.inf], [[-math.inf], [0.0]]):
        with pytest.raises(ValueError,
                           match=r"^nonfinite-input: a dual point coordinate is infinite$"):
            numerics._refuse_nonfinite(np.array(a), "a dual point")
