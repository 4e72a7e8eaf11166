import itertools
import math
import warnings

import numpy as np
import pytest

from capra import conjugacy, envelope, numerics
from capra.conjugacy import (
    CouplingSpec,
    ZeroHomFnSpec,
    build_sphere_sample,
    capra_conjugate,
    capra_conjugate_direct,
    capra_conjugate_l0_analytic,
    capra_conjugate_l0_analytic_batch,
    capra_coupling,
    capra_subdiff_at_zero,
    capra_subdiff_contains,
    conjugate_at_points,
    fenchel_biconjugate,
    fenchel_conjugate,
)
from capra.norms import NormalizationSpec, PhiSpec, SourceNormSpec, lp_value_batch
from capra.numerics import FunctionSample, Grid, build_grid, default_dual_grid, sample
from capra.envelope import BALL_TOL, ball_box_grid, tightest_convex_on_ball

RNG = np.random.default_rng(0x5EED)


def test_conjugate_of_origin_indicator_is_zero():
    g = build_grid([(-1.0, 1.0)], [3])
    f = sample(lambda x: 0.0 if x[0] == 0.0 else math.inf, g)
    c = fenchel_conjugate(f, g)
    assert np.allclose(c.values, 0.0)


def test_conjugate_of_abs_is_ball_indicator():
    g = build_grid([(-1.0, 1.0)], [201])
    f = sample(lambda x: abs(x[0]), g)
    c = conjugate_at_points(f, np.array([[0.5]]))
    assert abs(c[0]) <= 1e-12


def test_conjugate_of_half_square_selfconjugate():
    g = build_grid([(-3.0, 3.0)], [601])
    f = FunctionSample(g, 0.5 * g.nodes[:, 0] ** 2)
    h = g.steps[0]
    v = conjugate_at_points(f, np.array([[1.0]]))[0]
    assert abs(v - 0.5) <= h  # O(h); exact here since 1.0 is a node


def test_biconjugate_below_and_fixes_convex():
    g = build_grid([(-3.0, 3.0)], [121])
    f = FunctionSample(g, 0.5 * g.nodes[:, 0] ** 2)
    dual = default_dual_grid(1, 4.5)
    bic = fenchel_biconjugate(f, dual)
    assert np.all(bic.values <= f.values + 1e-12)
    assert np.max(np.abs(bic.values - f.values)) <= 1e-10


def test_biconjugate_of_1d_l0_matches_oracle():
    # Frozen from: convex_envelope_2d(l0 sample on [-1,1]/41 nodes,
    # default_dual_grid(1, 1.0)) -> equals |x| at every node.
    g = build_grid([(-1.0, 1.0)], [41])
    f = FunctionSample(g, (g.nodes[:, 0] != 0.0).astype(float))
    bic = fenchel_biconjugate(f, default_dual_grid(1, 1.0))
    assert abs(bic.value_near([0.0])) <= 1e-12
    assert np.max(np.abs(bic.values - np.abs(g.nodes[:, 0]))) <= 1e-12
    assert np.all(bic.values <= f.values + 1e-12)


def test_conjugate_with_minus_inf_input_is_plus_inf():
    g = build_grid([(-1.0, 1.0)], [5])
    vals = np.zeros(5)
    vals[2] = -math.inf
    c = fenchel_conjugate(FunctionSample(g, vals), g)
    assert np.all(np.isposinf(c.values))


def test_transform_work_cap(monkeypatch):
    # Grid transforms count the axis-pass elements that run, point transforms
    # primal x dual pairs; both are refused above the cap.  Zero values fold
    # both axes (5 -> 3 and 4 -> 2 primal nodes, 3 -> 2 and 6 -> 3 dual ones):
    # 3*2*2 + 2*2*3 = 24 updates.  Values unequal to their flip along either
    # axis run unfolded: 3*5*4 + 3*6*4 = 132.
    g = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [5, 4])
    f = FunctionSample(g, np.zeros(g.node_count))
    uneven = FunctionSample(g, np.arange(g.node_count, dtype=float))
    gd = build_grid([(-2.0, 2.0), (-2.0, 2.0)], [3, 6])
    points = np.zeros((6, 2))                            # 20 * 6 = 120
    for work, run in ((24, lambda: fenchel_conjugate(f, gd)),
                      (132, lambda: fenchel_conjugate(uneven, gd)),
                      (120, lambda: conjugate_at_points(f, points))):
        monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", work)
        run()
        monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", work - 1)
        with pytest.raises(ValueError, match="work-too-large"):
            run()
    # The biconjugate checks its second transform (2*3*2 + 3*2*2 = 24) before
    # it runs the first (3*2*2 + 2*2*2 = 20).
    monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", 23)
    monkeypatch.setattr(conjugacy, "_axis_pass", lambda *a: pytest.fail("a pass ran"))
    with pytest.raises(ValueError, match="work-too-large"):
        fenchel_biconjugate(f, build_grid([(-2.0, 2.0), (-2.0, 2.0)], [3, 3]))


def _checked_and_run(monkeypatch, run) -> tuple:
    # The calls during ``run()``, in order: ("fold", fold) for _fold_axes,
    # ("check", count) for _check_grid_work and ("rows", n) for each block
    # of analytic conjugate rows; and the sum of the elements A*n*m*B that
    # its axis passes update.
    calls, updates = [], []
    check, fold_axes, axis_pass = (conjugacy._check_grid_work, conjugacy._fold_axes,
                                   conjugacy._axis_pass)
    batch = capra_conjugate_l0_analytic_batch
    with monkeypatch.context() as m:
        m.setattr(conjugacy, "_axis_pass", lambda g, x, y, *negate: updates.append(g.size * y.size)
                  or axis_pass(g, x, y, *negate))
        m.setattr(conjugacy, "_fold_axes",
                  lambda *a: calls.append(("fold", fold_axes(*a))) or calls[-1][1])
        m.setattr(conjugacy, "capra_conjugate_l0_analytic_batch",
                  lambda Y, *a: calls.append(("rows", len(Y))) or batch(Y, *a))
        for module in (conjugacy, envelope):
            m.setattr(module, "_check_grid_work",
                      lambda *a: calls.append(("check", check(*a))) or calls[-1][1])
        run()
    return calls, sum(updates)


# l0 as a custom f, which takes the sphere and ball routes on any nu.
_CUSTOM_L0 = ZeroHomFnSpec.custom(lambda x: float(np.count_nonzero(x)),
                                  batch=lambda X: 1.0 * np.count_nonzero(X, axis=1))


def _as_custom(nu: NormalizationSpec) -> NormalizationSpec:
    """nu wrapped as a custom normalization, which takes the sphere route."""
    return NormalizationSpec.custom(nu.value, batch=nu.batch)


def test_checked_grid_work_is_the_updates_that_run(monkeypatch):
    rng = np.random.default_rng(12)
    g = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [9, 8])
    dual = build_grid([(-2.0, 2.0), (-2.0, 2.0)], [7, 6])
    even = FunctionSample(g, _mirrored(rng.uniform(size=(5, 4)), g.counts))
    uneven = FunctionSample(g, rng.uniform(size=g.node_count))
    # Even along the symmetric axis 0 only: 1*4*3*9 + 3*9*5*1 = 243 updates,
    # against 1*7*5*9 + 5*9*5*1 = 540 unfolded.
    half = build_grid([(-1.0, 1.0), (0.0, 2.0)], [7, 9])
    rows = np.abs(2 * np.arange(7) - 6) // 2
    half_even = FunctionSample(half, rng.uniform(size=(4, 9))[rows].reshape(-1))
    square = build_grid([(-2.0, 2.0), (-2.0, 2.0)], [5, 5])
    # The analytic chain of a 41^3 ball grid from its 257^3 dual: 53.6M
    # updates, against 825M unfolded.
    eval3 = ball_box_grid(3, 41)
    dual3 = default_dual_grid(3, 3.0)
    handoff = lambda: conjugacy._capra_conjugate_l0_analytic_grid(
        (dual3, eval3), PhiSpec.identity(3), SourceNormSpec.lp(2.0, 3))
    cases = [(lambda: fenchel_biconjugate(even, dual), None),
             (lambda: fenchel_biconjugate(uneven, dual), None),
             (lambda: fenchel_conjugate(half_even, square), 243),
             (lambda: conjugacy._grid_transform((dual3, eval3), *handoff()), 53_613_819)]
    runs = []
    for run, pinned in cases:
        calls, updates = _checked_and_run(monkeypatch, run)
        assert [n for kind, n in calls if kind == "check"] == [updates]
        assert pinned in (None, updates)
        runs.append(updates)
    # Even values fold; the same chain with uneven values does not.
    assert runs[0] < runs[1] == conjugacy._check_grid_work((g, dual, g), (False, False))
    unfold = lambda grids: conjugacy._check_grid_work(grids, (False,) * grids[0].dim)
    assert unfold((half, square)) == 540
    assert unfold((dual3, eval3)) == 824_699_379
    assert conjugacy._check_grid_work((dual3, eval3), (True,) * 3) == 53_613_819
    # The envelope decides once.  The analytic route (phi∘l0, any lp nu)
    # decides its fold and checks the updates that run, once each, before
    # any conjugate row.  The ball route (a custom f) checks the unfolded
    # bound before f on the ball is known to be even, then the transform
    # decides its fold and checks the updates that run, never above it.
    g21 = ball_box_grid(2, 21)
    for f, p in ((ZeroHomFnSpec.l0(2), 2.0), (ZeroHomFnSpec.l0(2), 0.5), (_CUSTOM_L0, 0.5)):
        calls, updates = _checked_and_run(
            monkeypatch, lambda: tightest_convex_on_ball(f, NormalizationSpec.lp(p), g21))
        kinds = [kind for kind, _ in calls]
        if f.kind == "phi_l0":
            assert calls[:2] == [("fold", [True, True]), ("check", updates)]
            assert kinds[2:] and set(kinds[2:]) == {"rows"}
        else:
            (_, early), (_, fold), (_, late) = calls
            assert kinds == ["check", "fold", "check"] and fold == [True, True]
            assert late == updates < early


def test_capra_coupling():
    c = CouplingSpec(NormalizationSpec.lp(2.0))
    assert capra_coupling(np.zeros(2), [5.0, -7.0], c) == 0.0
    assert math.isclose(capra_coupling([3.0, 4.0], [1.0, 0.0], c), 0.6)
    x = np.array([0.3, -1.2])
    y = np.array([0.7, 0.4])
    assert math.isclose(capra_coupling(2.0 * x, y, c), capra_coupling(x, y, c),
                        rel_tol=1e-12)


def test_capra_coupling_stays_finite_on_huge_finite_points():
    # <x, y> of points at 1e300 overflows; the coupling pairs x / max|x| with
    # y / max|y| and scales back, without a warning.
    lp1 = NormalizationSpec.lp(1.0)
    l1 = NormalizationSpec.custom(lambda v: float(np.abs(v).sum()),
                                  batch=lambda X: np.abs(X).sum(axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in (NormalizationSpec.lp(2.0), lp1, l1):
            c = CouplingSpec(nu)
            for x, y in (([3.0, -4.0], [1.0, 2.0]), ([0.5, 0.25, -2.0], [-1.0, 3.0, 0.5])):
                x, y = np.array(x), np.array(y)
                want = capra_coupling(x, y, c)
                for sx, sy in ((1e300, 1e300), (1e-300, 1e300), (1e300, 1.5e307)):
                    got = capra_coupling(sx * x, sy * y, c)
                    assert math.isclose(got, want * sy, rel_tol=1e-14), (nu, sx, sy)
        c = CouplingSpec(NormalizationSpec.lp(2.0))
        assert math.isclose(capra_coupling([1e300] * 2, [1e300] * 2, c), math.sqrt(2.0) * 1e300,
                            rel_tol=1e-15)
        assert capra_coupling([1e300, 1e300], [1e300, -1e300], c) == 0.0
        # Beyond the largest float the coupling is +-inf.
        assert capra_coupling([1.7e308] * 3, [1.7e308] * 3, c) == math.inf
        assert capra_coupling([1.7e308] * 3, [-1.7e308] * 3, c) == -math.inf
        # Within range the plain product keeps its bits, also where the bound
        # d max|x| max|y| passes the largest float but no sum does.
        assert capra_coupling([1e300], [1.5e8], c) == 1e300 * 1.5e8 / 1e300
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, y = rng.uniform(-1.0, 1.0, 3) * 1e300, rng.uniform(-1.0, 1.0, 3) * 5e7
            assert capra_coupling(x, y, c) == float(np.dot(x, y)) / c.nu.value(x)
        assert capra_coupling([1e300, 0.0], [1.5e8, 1e300], CouplingSpec(lp1)) == 1.5e8
        assert capra_coupling([1e300, 1e300], [1.0, 1.0], CouplingSpec(lp1)) == 1.0
        # The analytic conjugate at a point beyond the largest float is +inf,
        # so no subdifferential at 0 holds it.
        assert capra_subdiff_at_zero(ZeroHomFnSpec.l0(2), c, [[1.7e308, 1.7e308]]).shape == (0, 2)


def test_capra_coupling_refuses_nonfinite_coordinates():
    # [inf, 1] used to give inf / nu(x) = nan.  A NaN is refused wherever it
    # stands, also after the first coordinate, where Python's max passes
    # over it, and beside an infinite or a huge coordinate.
    inf, nan = math.inf, math.nan
    cases = [
        ([inf, 1.0], [1.0, 1.0], "nonfinite-input: a point"),
        ([nan, 1.0], [1.0, 1.0], "nan-input: a point"),
        ([1.0, nan], [1.0, 1.0], "nan-input: a point"),
        ([1.0, nan, inf], [1.0, 0.0, 1.0], "nan-input: a point"),
        ([1e300, nan], [1e10, 1.0], "nan-input: a point"),
        ([inf, 1.0], [0.0, 0.0], "nonfinite-input: a point"),
        ([1.0, 1.0], [inf, 1.0], "nonfinite-input: a dual point"),
        ([1.0, 0.0], [0.0, -inf], "nonfinite-input: a dual point"),
        ([1.0, 1.0], [1.0, nan], "nan-input: a dual point"),
        ([0.0, 0.0], [nan, 1.0], "nan-input: a dual point"),
        ([0.0, -0.0], [1.0, inf], "nonfinite-input: a dual point"),
    ]
    l1 = NormalizationSpec.custom(lambda v: float(np.abs(v).sum()),
                                  batch=lambda X: np.abs(X).sum(axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in (NormalizationSpec.lp(2.0), NormalizationSpec.lp(math.inf), l1):
            for x, y, tag in cases:
                with pytest.raises(ValueError, match=f"^{tag}"):
                    capra_coupling(x, y, CouplingSpec(nu))


@pytest.mark.parametrize("x, y", [
    ([1.0, 2.0], [1.0, 2.0, 3.0]),
    ([0.0, 0.0], [1.0, 2.0, 3.0]),  # at x = 0 too, where the coupling is 0
    ([[1.0, 2.0]], [1.0, 2.0]),
    ([1.0, 2.0], [[1.0, 2.0]]),
    (1.0, 2.0),
])
def test_capra_coupling_refuses_mismatched_points(x, y):
    # These ended in numpy's untagged ValueError, a TypeError, or 0.0.
    for nu in (NormalizationSpec.lp(2.0), _as_custom(NormalizationSpec.lp(2.0))):
        with pytest.raises(ValueError, match="^dimension-mismatch: x and y must be points"):
            capra_coupling(x, y, CouplingSpec(nu))


@pytest.mark.parametrize("build, match", [
    (lambda: NormalizationSpec(kind="foo"), "a NormalizationSpec kind is one of lp, custom"),
    (lambda: ZeroHomFnSpec(kind="x"), "a ZeroHomFnSpec kind is one of phi_l0, custom"),
    (lambda: SourceNormSpec(kind="foo", dim=2), "a SourceNormSpec kind is one of lp, custom"),
    (lambda: NormalizationSpec(kind="lp"), "a NormalizationSpec of kind 'lp' needs p"),
    (lambda: NormalizationSpec(kind="custom"), "a NormalizationSpec of kind 'custom' needs fn"),
    (lambda: ZeroHomFnSpec(kind="phi_l0"), "a ZeroHomFnSpec of kind 'phi_l0' needs phi"),
    (lambda: ZeroHomFnSpec(kind="custom"), "a ZeroHomFnSpec of kind 'custom' needs fn"),
    (lambda: SourceNormSpec(kind="lp", dim=2), "a SourceNormSpec of kind 'lp' needs p"),
    (lambda: SourceNormSpec(kind="custom", dim=2), "a SourceNormSpec of kind 'custom' needs fn"),
])
def test_spec_built_directly_refuses_what_its_methods_cannot_dispatch(build, match):
    # Each of these ended in a TypeError or an AttributeError at the first
    # value, e.g. 'NoneType' object is not callable.
    with pytest.raises(ValueError, match=f"^invalid-spec: {match}"):
        build()


@pytest.mark.parametrize("direct, by_method, bad, match", [
    (lambda p: NormalizationSpec(kind="lp", p=p), NormalizationSpec.lp,
     (0.0, -1.0, -math.inf, math.nan), "nonpositive-p: lp exponent must be > 0"),
    (lambda p: SourceNormSpec(kind="lp", dim=2, p=p), lambda p: SourceNormSpec.lp(p, 2),
     (0.5, 0.0, -1.0, math.nan), r"invalid-p: source norm requires p in \[1, inf\]"),
], ids=["NormalizationSpec", "SourceNormSpec"])
def test_spec_built_directly_refuses_the_p_its_classmethod_refuses(direct, by_method, bad, match):
    # Both builds run the one check of __post_init__: without it a direct
    # SourceNormSpec(kind="lp", dim=2, p=0.5) gives the l0.5 value.
    for p in bad:
        for build in (direct, by_method):
            with pytest.raises(ValueError, match=f"^{match} \\(got {p}\\)"):
                build(p)
    for p in (1, 2.5, math.inf, np.float32(3.0)):
        spec = direct(p)
        assert spec == by_method(p) and type(spec.p) is float
    assert type(SourceNormSpec(kind="custom", dim=np.int64(2), fn=abs).dim) is int


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_custom_normalization_refuses_bad_values(bad):
    # A custom nu must be positive and finite away from 0: a named error,
    # not a ZeroDivisionError, a divide-by-zero warning or a negative
    # coupling.
    x = np.array([3.0, -4.0])
    specs = [NormalizationSpec.custom(lambda v: bad),
             NormalizationSpec.custom(lambda v: bad, batch=lambda X: np.full(len(X), bad))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in specs:
            with pytest.raises(ValueError, match="invalid-normalization"):
                nu.value(x)
            with pytest.raises(ValueError, match="invalid-normalization"):
                nu.batch(np.array([[0.0, 0.0], x]))
            with pytest.raises(ValueError, match="invalid-normalization"):
                capra_coupling(x, [1.0, 0.0], CouplingSpec(nu))
            with pytest.raises(ValueError, match="invalid-normalization"):
                build_sphere_sample(nu, 2, count=64)
            # the origin is not checked
            assert np.array_equal(nu.batch(np.zeros((2, 2))), [bad, bad], equal_nan=True)
    good = NormalizationSpec.custom(lambda v: float(np.abs(v).sum()),
                                    batch=lambda X: np.abs(X).sum(axis=1))
    assert good.value(np.zeros(2)) == 0.0
    assert capra_coupling(x, [1.0, 0.0], CouplingSpec(good)) == 3.0 / 7.0
    assert good.batch(np.array([[0.0, 0.0], x])).tolist() == [0.0, 7.0]


def test_custom_normalization_must_be_homogeneous():
    # nu(t x) = |t| nu(x) is spot-checked wherever a custom nu meets a grid or
    # a sphere sample: a squared norm, and a gauge that is not symmetric, are
    # refused there.
    grid = ball_box_grid(2, 11)
    y = np.array([1.0, 0.5])
    f = ZeroHomFnSpec.l0(2)
    sample = build_sphere_sample(NormalizationSpec.lp(2.0), 2, count=64)
    squared = NormalizationSpec.custom(lambda v: float(v @ v), batch=lambda X: (X * X).sum(axis=1))
    tilted = NormalizationSpec.custom(lambda v: float(np.abs(v).sum() + 0.5 * v[0]))
    for nu in (squared, tilted):
        for run in (lambda: build_sphere_sample(nu, 2, count=64),
                    lambda: capra_conjugate(f, CouplingSpec(nu), y, sample),
                    lambda: capra_conjugate_direct(f, CouplingSpec(nu), y, grid),
                    lambda: tightest_convex_on_ball(f, nu, grid)):
            with pytest.raises(ValueError, match="invalid-normalization: nu is not absolutely"):
                run()
    # A homogeneous custom nu passes every check.
    l1 = NormalizationSpec.custom(lambda v: float(np.abs(v).sum()))
    assert capra_conjugate_direct(f, CouplingSpec(l1), y, grid) == pytest.approx(
        capra_conjugate_direct(f, CouplingSpec(NormalizationSpec.lp(1.0)), y, grid))


def test_capra_conjugate_1d_l0():
    nu = NormalizationSpec.lp(math.inf)
    f = ZeroHomFnSpec.l0(1)
    samp = build_sphere_sample(nu, 1, 10)
    coup = CouplingSpec(nu)
    for y in (0.0, 0.5, -0.5, 1.0, 2.0, -3.0):
        want = max(0.0, abs(y) - 1.0)
        assert capra_conjugate(f, coup, np.array([y]), samp) == want


def test_capra_conjugate_zero_function_is_dual_norm():
    nu = NormalizationSpec.lp(2.0)
    f = ZeroHomFnSpec.constant_zero()
    samp = build_sphere_sample(nu, 2, 10_000)
    for _ in range(10):
        y = RNG.standard_normal(2) * 2.0
        v = capra_conjugate(f, CouplingSpec(nu), y, samp)
        assert abs(v - float(np.linalg.norm(y))) <= 1e-3 * (1 + np.linalg.norm(y))


def test_capra_conjugate_at_zero_dual():
    nu = NormalizationSpec.lp(2.0)
    f = ZeroHomFnSpec.phi_l0(PhiSpec.from_values([0.0, 2.0, 3.0]))
    samp = build_sphere_sample(nu, 2, 500)
    assert capra_conjugate(f, CouplingSpec(nu), np.zeros(2), samp) == 0.0


def test_capra_conjugate_sample_validation():
    nu = NormalizationSpec.lp(2.0)
    f = ZeroHomFnSpec.l0(2)
    with pytest.raises(ValueError, match="empty-sample"):
        capra_conjugate(f, CouplingSpec(nu), np.zeros(2), np.empty((0, 2)))
    no_zero = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="origin"):
        capra_conjugate(f, CouplingSpec(nu), np.zeros(2), no_zero)
    off_sphere = np.array([[0.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="off the unit sphere"):
        capra_conjugate(f, CouplingSpec(nu), np.zeros(2), off_sphere)


def test_analytic_conjugate_examples():
    src2 = SourceNormSpec.lp(2.0, 2)
    phi = PhiSpec.identity(2)
    assert capra_conjugate_l0_analytic([0.0, 0.0], phi, src2) == 0.0
    assert capra_conjugate_l0_analytic([3.0, 0.0], phi, src2) == 2.0


def test_analytic_conjugate_linf_source_separable_form():
    src = SourceNormSpec.lp(math.inf, 3)
    phi = PhiSpec.identity(3)
    for _ in range(25):
        y = RNG.standard_normal(3) * 3.0
        want = float(np.sum(np.maximum(np.abs(y) - 1.0, 0.0)))
        got = capra_conjugate_l0_analytic(y, phi, src)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


def test_sphere_sample_structure():
    nu = NormalizationSpec.lp(0.5)
    samp = build_sphere_sample(nu, 2, 1000)
    assert np.any(np.all(samp == 0.0, axis=1))
    nonzero = samp[np.any(samp != 0.0, axis=1)]
    assert np.max(np.abs(nu.batch(nonzero) - 1.0)) <= 1e-9
    # signed axes are present with exact sparsity
    for e in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]):
        assert np.any(np.all(samp == np.array(e), axis=1))


def test_zero_homogeneity_of_fn_specs():
    specs = [ZeroHomFnSpec.l0(3), ZeroHomFnSpec.constant_zero(),
             ZeroHomFnSpec.custom(lambda x: float(np.max(np.abs(x)) > 0))]
    for f in specs:
        for _ in range(10):
            x = RNG.standard_normal(3)
            for rho in (-2.0, -1.0, 0.5, 3.0):
                assert f.value(rho * x) == f.value(x)


def test_subdiff_contains_examples():
    nu = NormalizationSpec.lp(math.inf)
    f = ZeroHomFnSpec.l0(1)
    coup = CouplingSpec(nu)
    assert capra_subdiff_contains([0.5], [0.0], f, coup)
    assert not capra_subdiff_contains([2.0], [0.0], f, coup)
    fz = ZeroHomFnSpec.constant_zero()
    assert capra_subdiff_contains([0.0, 0.0], [0.0, 0.0], fz,
                                  CouplingSpec(NormalizationSpec.lp(2.0)))


def test_subdiff_contains_infinite_f_error():
    phi = PhiSpec.from_values([0.0, math.inf, 1.0])
    f = ZeroHomFnSpec.phi_l0(phi)
    coup = CouplingSpec(NormalizationSpec.lp(2.0))
    with pytest.raises(ValueError, match="infinite-f-at-x"):
        capra_subdiff_contains([0.5, 0.5], [1.0, 0.0], f, coup)


def test_subdiff_at_zero_1d():
    nu = NormalizationSpec.lp(math.inf)
    f = ZeroHomFnSpec.l0(1)
    cand = build_grid([(-3.0, 3.0)], [49]).nodes
    acc = capra_subdiff_at_zero(f, CouplingSpec(nu), cand)
    want = cand[np.abs(cand[:, 0]) <= 1.0 + 1e-9]
    assert np.array_equal(np.sort(acc[:, 0]), np.sort(want[:, 0]))


def test_custom_nu_sphere_route_in_one_dimension():
    # At d = 1 the sample holds the whole sphere {-1, 1}, so the route is
    # exact: conj(y) = max(0, |y| - 1) for l0 on the ball of |x_0|.
    coupling = CouplingSpec(NormalizationSpec.custom(lambda x: abs(float(x[0]))))
    f = ZeroHomFnSpec.l0(1)
    for y, member in ((1.5, True), (1.0, True), (0.5, False), (-2.0, False)):
        assert capra_subdiff_contains([y], [1.0], f, coupling) is member
    cand = np.linspace(-2.0, 2.0, 17)[:, None]
    acc = capra_subdiff_at_zero(f, coupling, cand)
    assert np.array_equal(acc, cand[np.abs(cand[:, 0]) <= 1.0]) and len(acc) == 9


def test_subdiff_at_zero_lp_sources_linf_ball():
    cand = build_grid([(-2.0, 2.0), (-2.0, 2.0)], [33, 33]).nodes
    for p in (1.0, 2.0, math.inf):
        acc = capra_subdiff_at_zero(ZeroHomFnSpec.l0(2),
                                    CouplingSpec(NormalizationSpec.lp(p)), cand)
        want = cand[lp_value_batch(cand, math.inf) <= 1.0 + 1e-9]
        assert acc.shape == want.shape
        assert np.allclose(np.sort(acc, axis=0), np.sort(want, axis=0))


def test_subdiff_at_zero_zero_function():
    # for f = 0 the conjugate is the dual norm, so only y = 0 survives
    cand = build_grid([(-2.0, 2.0), (-2.0, 2.0)], [17, 17]).nodes
    acc = capra_subdiff_at_zero(ZeroHomFnSpec.constant_zero(),
                                CouplingSpec(NormalizationSpec.lp(2.0)), cand)
    assert acc.shape[0] == 1 and np.all(acc[0] == 0.0)


def test_subdiff_at_zero_requires_f0_zero():
    f = ZeroHomFnSpec.custom(lambda x: 1.0)
    with pytest.raises(ValueError, match="f-at-zero-nonzero"):
        capra_subdiff_at_zero(f, CouplingSpec(NormalizationSpec.lp(2.0)),
                              np.zeros((1, 2)))


def test_sphere_route_default_tolerance():
    # lp:0.5 wrapped as a custom nu takes the sphere route.  The sample holds
    # the signed axes, where the conjugate of l0, max(0, |y|inf - 1), is
    # attained, so at y = (1 + t, 0) the sampled value is t.  Both membership
    # tests accept exactly when t is within 5 gap (1 + |y|),
    # gap = count^(-1/(d-1)), on the default sample.
    nu = _as_custom(NormalizationSpec.lp(0.5))
    f, coup = ZeroHomFnSpec.l0(2), CouplingSpec(nu)
    gap = 1.0 / build_sphere_sample(nu, 2).shape[0]
    for ratio, member in ((0.9, True), (1.1, False)):
        t = 0.1
        for _ in range(50):  # fixed point of t = ratio * 5 gap (2 + t)
            t = ratio * 5.0 * gap * (2.0 + t)
        y = np.array([1.0 + t, 0.0])
        assert capra_subdiff_contains(y, [0.0, 0.0], f, coup) is member
        acc = capra_subdiff_at_zero(f, coup, y[None, :])
        assert acc.shape[0] == int(member)


def test_two_route_agreement_small():
    from capra.envelope import ball_box_grid

    grid = ball_box_grid(2, 101)
    h = grid.steps[0]
    for p in (1.0, 2.0, math.inf, 0.5):
        nu = NormalizationSpec.lp(p)
        f = ZeroHomFnSpec.l0(2)
        samp = build_sphere_sample(nu, 2, 5000)
        ball = nu.batch(grid.nodes) <= 1.0 + BALL_TOL
        masked = FunctionSample(grid, np.where(ball, f.batch(grid.nodes), math.inf))
        for y in ([2.5, 1.0], [-1.5, 0.25], [3.0, 3.0], [0.1, -0.2]):
            y = np.array(y)
            ball_v = conjugate_at_points(masked, y[None, :])[0]
            sph_v = capra_conjugate(f, CouplingSpec(nu), y, samp)
            dir_v = capra_conjugate_direct(f, CouplingSpec(nu), y, grid)
            tol = 5.0 * h * (1.0 + float(np.linalg.norm(y)))
            assert abs(ball_v - sph_v) <= tol
            assert abs(dir_v - sph_v) <= tol


def test_capra_conjugate_direct_rows_equal_single_calls(monkeypatch):
    # One normalization of the grid serves every row; each value equals a
    # call with the row alone, also when the duals span several blocks.
    grid = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [21, 21])
    Y = np.vstack([RNG.uniform(-3.0, 3.0, size=(17, 2)), [[0.0, 0.0], [3.0, -3.0]]])
    fns = [ZeroHomFnSpec.l0(2), ZeroHomFnSpec.phi_l0(PhiSpec.scaled_identity(2.0, 2)),
           ZeroHomFnSpec.custom(lambda x: float(x[0] != 0.0),
                                batch=lambda X: 1.0 * (X[:, 0] != 0.0))]
    for budget in (numerics._BLOCK_FLOATS, 3 * grid.node_count + 7):
        monkeypatch.setattr(numerics, "_BLOCK_FLOATS", budget)
        for p in (1.0, 2.0, math.inf, 0.5):
            coup = CouplingSpec(NormalizationSpec.lp(p))
            for f in fns:
                rows = capra_conjugate_direct(f, coup, Y, grid)
                assert rows.shape == (Y.shape[0],)
                single = [capra_conjugate_direct(f, coup, y, grid) for y in Y]
                assert all(type(v) is float for v in single)
                assert np.array_equal(rows, single), (p, f.kind, budget)


def _full_grid_conjugate(grid: Grid, values: np.ndarray, dual_grid: Grid) -> np.ndarray:
    # Reference: every axis pass over both whole axes, as before the fold.
    g = -np.asarray(values, dtype=float).reshape(grid.counts)
    for k in range(grid.dim):
        shape = g.shape
        g = conjugacy._axis_pass(g.reshape(math.prod(shape[:k]), shape[k], -1),
                                 grid.axes[k], dual_grid.axes[k])
        g = g.reshape(shape[:k] + (dual_grid.counts[k],) + shape[k + 1:])
    return g.reshape(-1)


def _mirrored(table: np.ndarray, counts: tuple) -> np.ndarray:
    # Values equal to their flip along every axis: node j of an axis of m
    # nodes reads table entry |j - (m - 1) / 2| rounded down.
    index = [np.abs(2 * np.arange(m) - (m - 1)) // 2 for m in counts]
    return table[np.ix_(*index)].reshape(-1)


def _symmetric_samples(grid: Grid, rng) -> list:
    halves = tuple((m + 1) // 2 for m in grid.counts)
    table = rng.uniform(-1.0, 2.0, size=halves)
    masked = np.where(lp_value_batch(grid.nodes, 2.0) <= 0.8 * grid.uppers[0], 0.0, math.inf)
    zeros = np.where(rng.random(halves) < 0.5, 0.0, table)
    planted = _mirrored(zeros, grid.counts)
    # ±0.0 planted at random, so mirrored nodes may hold zeros of either sign
    planted[(planted == 0.0) & (rng.random(planted.size) < 0.5)] = -0.0
    minus_inf = table.copy()
    minus_inf.flat[0] = -math.inf
    return [_mirrored(table, grid.counts), masked + _mirrored(table, grid.counts),
            masked + _mirrored(np.round(table), grid.counts), planted,
            _mirrored(minus_inf, grid.counts), np.full(grid.node_count, math.inf)]


def _assert_same_up_to_zero_sign(got: np.ndarray, want: np.ndarray) -> None:
    assert np.array_equal(np.isposinf(got), np.isposinf(want))
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    assert np.all(got[finite] == want[finite])
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


def _spied_transform(monkeypatch, grids, values, fold, *given) -> np.ndarray:
    # _grid_transform through ``grids`` (with the ``given`` fold, if any),
    # asserting that every axis pass pairs the non-negative halves of the
    # axes folded in ``fold`` and the whole axes elsewhere.
    sizes = []
    axis_pass = conjugacy._axis_pass
    with monkeypatch.context() as m:
        m.setattr(conjugacy, "_axis_pass",
                  lambda g, x, y, *negate: sizes.append((x.size, y.size))
                  or axis_pass(g, x, y, *negate))
        out = conjugacy._grid_transform(grids, values, *given)
    half = lambda n, f: n - n // 2 if f else n
    assert sizes == [(half(n, f), half(m, f)) for src, dst in zip(grids, grids[1:])
                     for n, m, f in zip(src.counts, dst.counts, fold)]
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_folded_grid_transform_equals_full(d, monkeypatch):
    # Sign-symmetric axes and values run each pass on the non-negative
    # halves; the mirrored result equals the full passes in value, and only
    # the sign of a zero may differ.
    rng = np.random.default_rng(100 + d)
    counts = [(9, 8, 7), (6, 5, 4), (11, 4, 5)]
    for primal_counts, dual_counts in zip(counts, counts[::-1]):
        grid = Grid((-1.0,) * d, (1.0,) * d, primal_counts[:d])
        dual = Grid((-3.0,) * d, (3.0,) * d, dual_counts[:d])
        for values in _symmetric_samples(grid, rng):
            got = _spied_transform(monkeypatch, (grid, dual), values, (True,) * d)
            _assert_same_up_to_zero_sign(got, _full_grid_conjugate(grid, values, dual))
            bic = fenchel_biconjugate(FunctionSample(grid, values), dual).values
            want = _full_grid_conjugate(dual, _full_grid_conjugate(grid, values, dual), grid)
            _assert_same_up_to_zero_sign(bic, want)
            # A chain of two transforms keeps its middle values folded.
            back = Grid((-1.5,) * d, (1.5,) * d, primal_counts[::-1][:d])
            chain = _spied_transform(monkeypatch, (grid, dual, back), values, (True,) * d)
            want = _full_grid_conjugate(dual, _full_grid_conjugate(grid, values, dual), back)
            _assert_same_up_to_zero_sign(chain, want)
    # Asymmetric axes, or values unequal to their flip along each axis, keep
    # the full passes, bit for bit; a mixed case folds its symmetric axes.
    sym = Grid((-1.0,) * d, (1.0,) * d, (7,) * d)
    asym = Grid((-1.0,) * d, (1.5,) * d, (6,) * d)
    dual = Grid((-2.0,) * d, (2.0,) * d, (9,) * d)
    cases = [(asym, dual, _mirrored(rng.uniform(size=(3,) * d), asym.counts)),
             (sym, asym, _mirrored(rng.uniform(size=(4,) * d), sym.counts)),
             (sym, dual, rng.uniform(-1.0, 1.0, size=sym.node_count))]
    for grid, dual_grid, values in cases:
        got = _spied_transform(monkeypatch, (grid, dual_grid), values, (False,) * d)
        assert got.tobytes() == _full_grid_conjugate(grid, values, dual_grid).tobytes()
    # One asymmetric grid anywhere in the chain keeps its axes whole.
    values = _mirrored(rng.uniform(size=(4,) * d), sym.counts)
    got = _spied_transform(monkeypatch, (sym, dual, asym), values, (False,) * d)
    want = _full_grid_conjugate(dual, _full_grid_conjugate(sym, values, dual), asym)
    assert got.tobytes() == want.tobytes()
    if d >= 2:
        mixed = Grid((-1.0,) * d, (1.5,) + (1.0,) * (d - 1), (6,) + (7,) * (d - 1))
        values = _mirrored(rng.uniform(size=(3,) + (4,) * (d - 1)), mixed.counts)
        got = _spied_transform(monkeypatch, (mixed, dual), values, (False,) + (True,) * (d - 1))
        _assert_same_up_to_zero_sign(got, _full_grid_conjugate(mixed, values, dual))
    # The analytic hand-off folds every axis symmetric on both grids and
    # gathers the others, and the transform runs the fold it is given.
    phi, src = PhiSpec.identity(d), SourceNormSpec.lp(2.0, d)
    for dual_grid, fold in zip(_analytic_grids(d), [(True,) * d, (False,) * d,
                                                    (False,) + (True,) * (d - 1)]):
        values, given = conjugacy._capra_conjugate_l0_analytic_grid((dual_grid, sym), phi, src)
        assert given == list(fold)
        got = _spied_transform(monkeypatch, (dual_grid, sym), values, fold, given)
        want = _full_grid_conjugate(dual_grid, capra_conjugate_l0_analytic_batch(
            dual_grid.nodes, phi, src), sym)
        _assert_same_up_to_zero_sign(got, want)
        if not any(fold):
            assert got.tobytes() == want.tobytes()


def _analytic_on_nodes(grid: Grid, phi: PhiSpec, src: SourceNormSpec,
                       eval_grid: Grid) -> np.ndarray:
    # The analytic hand-off of the chain (grid, eval_grid), mirrored onto
    # the nodes of grid: flat values.
    values, fold = conjugacy._capra_conjugate_l0_analytic_grid((grid, eval_grid), phi, src)
    return numerics._unfold(values, grid.counts, fold).reshape(-1)


def _analytic_grids(d: int) -> list:
    asym = Grid((-2.0, -1.0, -0.5)[:d], (3.0, 5.0, 1.5)[:d], (7, 9, 6)[:d])
    # an axis ending in a -0.0 node
    signed_zero = Grid((-1.0,) + (-2.0,) * (d - 1), (-0.0,) + (2.0,) * (d - 1),
                       (5,) + (9,) * (d - 1))
    return [default_dual_grid(d, 2.0, step=0.25), asym, signed_zero]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_analytic_grid_conjugate_bit_identical_to_batch(d, monkeypatch):
    phis = [PhiSpec.identity(d), PhiSpec.from_values([0.0, 0.7, 1.9, 2.5][:d + 1])]
    if d >= 2:  # a +inf level (phi needs a finite one)
        phis.append(PhiSpec.from_values([0.0, 1.0, math.inf, 3.0][:d + 1]))
    # The orthant rows run in blocks of _BLOCK_FLOATS: one block, and many
    # with a partial last one.
    # The chain folds every sign-symmetric axis of the grid, or, through an
    # asymmetric one, gathers every axis.
    asym = Grid((-1.0,) * d, (1.5,) * d, (4,) * d)
    for budget, grid in itertools.product((numerics._BLOCK_FLOATS, 7), _analytic_grids(d)):
        monkeypatch.setattr(numerics, "_BLOCK_FLOATS", budget)
        for p, phi, eval_grid in itertools.product((1.0, 1.5, 2.0, math.inf), phis, (grid, asym)):
            src = SourceNormSpec.lp(p, d)
            got = _analytic_on_nodes(grid, phi, src, eval_grid)
            assert grid._nodes is None
            want = capra_conjugate_l0_analytic_batch(grid.nodes, phi, src)
            assert got.tobytes() == want.tobytes(), (grid, p, phi.values)
            grid._nodes = None  # so the next call is checked for nodes too


@pytest.mark.parametrize("d", [2, 3])
def test_analytic_grid_evaluates_sorted_rows_on_equal_axes(d, monkeypatch):
    # Equal magnitudes on every axis: only the rows with non-increasing
    # magnitude indices, C(m + d - 1, d) of the m^d, are evaluated, and each
    # value fills every permutation of its row.  Unequal counts or
    # magnitudes evaluate the whole orthant.  Either way the orthant is the
    # batch over the nodes bit for bit, in blocks of any size.
    batch = capra_conjugate_l0_analytic_batch
    rows = []
    monkeypatch.setattr(conjugacy, "capra_conjugate_l0_analytic_batch",
                        lambda Y, *rest: rows.append(Y.shape[0]) or batch(Y, *rest))
    # the default dual grid, and axes that differ but share their magnitudes
    equal = [default_dual_grid(d, 2.0, step=0.25),
             Grid((-2.0, -1.0, -2.0)[:d], (1.0, 2.0, 1.0)[:d], (4,) * d)]
    unequal = [Grid((-2.0,) * d, (2.0,) * (d - 1) + (3.0,), (9,) * d),
               Grid((-2.0,) * d, (2.0,) * d, (9,) * (d - 1) + (17,))]
    phi = PhiSpec.from_values([0.0, 0.7, 1.9, 2.5][:d + 1])
    for budget in (numerics._BLOCK_FLOATS, 7):
        monkeypatch.setattr(numerics, "_BLOCK_FLOATS", budget)
        for grid in equal + unequal:
            for p in (1.0, 1.5, 2.0, math.inf):
                src = SourceNormSpec.lp(p, d)
                rows.clear()
                got = _analytic_on_nodes(grid, phi, src, grid)
                m = [np.unique(np.abs(ax)).size for ax in grid.axes]
                want_rows = math.comb(m[0] + d - 1, d) if grid in equal else math.prod(m)
                assert sum(rows) == want_rows and max(rows) <= budget, (grid, budget)
                assert got.tobytes() == batch(grid.nodes, phi, src).tobytes(), (grid, p)


def test_sorted_index_columns_enumerate_non_increasing_tuples():
    for m, d in ((1, 3), (4, 1), (5, 2), (6, 3), (3, 4)):
        want = [t for t in itertools.product(range(m), repeat=d)
                if all(a >= b for a, b in zip(t, t[1:]))]
        cols = conjugacy._sorted_index_columns(np.arange(len(want)), m, d)
        assert list(zip(*(c.tolist() for c in cols))) == want, (m, d)


def test_analytic_envelope_builds_no_dual_nodes():
    # The orthant feeds the folded transform on symmetric axes and is
    # gathered onto the others: the envelope equals the unfolded transform
    # of the batch over the dual nodes, up to the sign of a zero.
    f, nu, grid = ZeroHomFnSpec.l0(2), NormalizationSpec.lp(2.0), ball_box_grid(2, 21)
    for dual in (default_dual_grid(2, 2.0), Grid((-2.0, -3.0), (3.0, 3.0), (21, 24)),
                 Grid((-2.0, -2.5), (3.0, 2.0), (21, 24))):
        env = tightest_convex_on_ball(f, nu, grid, dual, route="analytic")
        assert dual._nodes is None
        assert env.value_near([0.0, 0.0]) == 0.0
        conj = capra_conjugate_l0_analytic_batch(dual.nodes, f.phi, SourceNormSpec.lp(2.0, 2))
        want = _full_grid_conjugate(dual, conj, grid)
        want[lp_value_batch(grid.nodes, 2.0) > 1.0 + BALL_TOL] = math.inf
        _assert_same_up_to_zero_sign(env.values, want)


def test_analytic_batch_rejects_non_2d_points():
    lp2 = SourceNormSpec.lp(2.0, 2)
    for Y in (np.array([1.0, 2.0]), np.ones((1, 2, 2))):
        with pytest.raises(ValueError, match="expected a 2-d array of row vectors"):
            capra_conjugate_l0_analytic_batch(Y, PhiSpec.identity(2), lp2)


def test_analytic_batch_refuses_a_custom_source():
    custom = SourceNormSpec.custom(lambda x: float(np.abs(x).max()), 2)
    with pytest.raises(ValueError, match="^unsupported-source: analytic conjugate requires an lp"):
        capra_conjugate_l0_analytic_batch(np.ones((1, 2)), PhiSpec.identity(2), custom)


def test_infinite_duals_raise_nonfinite_input():
    # inf * 0.0 is NaN: a point transform refuses an infinite dual
    # coordinate rather than return NaN.
    grid = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [5, 5])
    l0, lp2 = ZeroHomFnSpec.l0(2), CouplingSpec(NormalizationSpec.lp(2.0))
    samp = build_sphere_sample(lp2.nu, 2, count=64)
    masked = sample(lambda x: 0.0, grid)
    probes = [
        lambda y: conjugate_at_points(masked, y),
        lambda y: capra_conjugate(l0, lp2, y, samp),
        lambda y: capra_conjugate_direct(l0, lp2, y, grid),
    ]
    for probe in probes:
        for y in ([math.inf, 0.0], [0.0, -math.inf]):
            with pytest.raises(ValueError, match="nonfinite-input"):
                probe(y)


def test_nan_duals_raise_nan_input():
    grid = build_grid([(-1.0, 1.0), (-1.0, 1.0)], [5, 5])
    l0 = ZeroHomFnSpec.l0(2)
    f0 = ZeroHomFnSpec.constant_zero()
    lp2, half = CouplingSpec(NormalizationSpec.lp(2.0)), CouplingSpec(NormalizationSpec.lp(0.5))
    samp = build_sphere_sample(half.nu, 2, count=64)
    masked = sample(lambda x: 0.0, grid)
    probes = [
        lambda y: capra_conjugate_l0_analytic(y, PhiSpec.identity(2), SourceNormSpec.lp(2.0, 2)),
        lambda y: capra_conjugate_l0_analytic_batch(np.array([y]), PhiSpec.identity(2),
                                                    SourceNormSpec.lp(2.0, 2)),
        lambda y: capra_conjugate(l0, half, y, samp),
        lambda y: capra_conjugate_direct(l0, lp2, y, grid),
        lambda y: conjugate_at_points(masked, y),
        lambda y: capra_subdiff_at_zero(l0, lp2, [[0.5, 0.5], y]),  # analytic route
        lambda y: capra_subdiff_at_zero(f0, half, [[0.5, 0.5], y]),  # sphere route
        lambda y: capra_subdiff_contains(y, [1.0, 0.0], l0, lp2),
    ]
    for probe in probes:
        for y in ([math.nan, 1.0], [0.0, math.nan], [math.inf, math.nan]):
            with pytest.raises(ValueError, match="nan-input"):
                probe(y)


_HALF = CouplingSpec(_as_custom(NormalizationSpec.lp(0.5)))  # the sphere route
_L0 = ZeroHomFnSpec.l0(2)
_SAMPLE_2D = build_sphere_sample(_HALF.nu, 2, count=64)


@pytest.mark.parametrize("run, match", [
    # A 3-d dual against a 2-d sample paired only its first two coordinates.
    (lambda: capra_conjugate(_L0, _HALF, np.ones(3), _SAMPLE_2D), "dimension-mismatch"),
    (lambda: _L0.value([1.0, 0.0, 0.0]), "invalid-phi: phi has dim 2, points have dim 3"),
    (lambda: _L0.value([1.0]), "invalid-phi: phi has dim 2, points have dim 1"),
    (lambda: _L0.batch(np.ones((2, 1))), "invalid-phi: phi has dim 2, points have dim 1"),
    (lambda: _L0.batch(np.ones((2, 3))), "invalid-phi: phi has dim 2, points have dim 3"),
    (lambda: capra_subdiff_contains(np.ones(3), np.ones(2), _L0, _HALF), "dimension-mismatch"),
    (lambda: capra_subdiff_contains(np.ones(2), np.ones(3), _L0, _HALF), "dimension-mismatch"),
    (lambda: capra_subdiff_at_zero(_L0, _HALF, np.ones((4, 3))),
     "invalid-phi: phi has dim 2, points have dim 3"),
    (lambda: capra_subdiff_contains([1.0, 0.0], [math.inf, 0.0], _L0, _HALF), "nonfinite-input"),
    # The analytic route compared inf with inf (a RuntimeWarning); the sphere
    # route refused.
    (lambda: capra_subdiff_contains([math.inf, 0.0], [1.0, 0.0], _L0,
                                    CouplingSpec(NormalizationSpec.lp(2.0))), "nonfinite-input"),
    (lambda: build_sphere_sample(_HALF.nu, -1), "invalid-dim"),
], ids=["conjugate-dual", "value-3d", "value-1d", "batch-1d", "batch-3d", "subdiff-y3-x2",
        "subdiff-y2-x3", "subdiff-at-zero-3d", "subdiff-infinite-x", "subdiff-infinite-y",
        "sample-negative-dim"])
def test_sphere_route_refuses_mismatches_by_name(run, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            run()


@pytest.mark.parametrize("d", range(1, 10))
def test_row_reductions_by_columns_equal_numpy(d):
    rng = np.random.default_rng(d)
    X = rng.choice([0.0, -0.0, 1.5, -2.0, 5e-324, math.inf, -math.inf], size=(300, d))
    counts = numerics._count_nonzero_rows(X)
    assert counts.dtype == np.intp
    assert np.array_equal(counts, np.count_nonzero(X, axis=1))
    assert np.array_equal(numerics._nonzero_rows(X), np.any(X != 0.0, axis=1))
    phi = PhiSpec.from_values(np.arange(d + 1.0) ** 2)
    assert np.array_equal(ZeroHomFnSpec.phi_l0(phi).batch(X), phi.values[np.count_nonzero(X, axis=1)])


def test_capra_route_is_the_sphere_transform():
    # A custom f on an lp nu, and any f on a custom nu.
    rng = np.random.default_rng(8)
    half = NormalizationSpec.lp(0.5)
    l1 = NormalizationSpec.custom(lambda v: float(np.abs(v).sum()),
                                  batch=lambda X: np.abs(X).sum(axis=1))
    for d in (2, 3):
        Y = rng.uniform(-3.0, 3.0, (40, d))
        zero = ZeroHomFnSpec.constant_zero()
        for f, nu in ((zero, half), (ZeroHomFnSpec.l0(d), _as_custom(half)),
                      (zero, _as_custom(half)), (ZeroHomFnSpec.l0(d), l1), (zero, l1)):
            sample = build_sphere_sample(nu, d)
            want = conjugacy._conjugate_values(sample, f.batch(sample), Y)
            got, _ = conjugacy._capra_route(f, nu, Y)
            assert got.tobytes() == want.tobytes()


def test_point_transform_drops_plus_inf_rows_bit_for_bit():
    # Rows with value +inf never attain the max: appending them (the
    # compress path) gives the bits of the transform without them (the
    # column-copy path).
    rng = np.random.default_rng(9)
    for d in (1, 2, 3):
        points = rng.uniform(-1.0, 1.0, (500, d))
        values = rng.uniform(-1.0, 1.0, 500)
        Y = rng.uniform(-3.0, 3.0, (30, d))
        want = conjugacy._conjugate_values(points, values, Y)
        at = [0, 100, 100, 499, 500, 500, 500]
        mixed = np.insert(points, at, rng.uniform(-5.0, 5.0, (len(at), d)), axis=0)
        got = conjugacy._conjugate_values(mixed, np.insert(values, at, math.inf), Y)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lp_below_one_conjugate_is_the_linf_formula(p, d):
    # For p < 1 the hull of the lp ball is the l1 ball, so the Capra
    # conjugate of phi∘l0 is max(0, |y|inf - min_{l >= 1} phi(l)), exactly.
    rng = np.random.default_rng(int(100 * p) + d)
    nu = NormalizationSpec.lp(p)
    for _ in range(5):
        phi = PhiSpec.from_values(np.concatenate([[0.0], rng.uniform(0.1, 3.0, d)]))
        Y = np.vstack([rng.uniform(-4.0, 4.0, (30, d)), np.zeros((1, d))])
        got, tol = conjugacy._capra_route(ZeroHomFnSpec.phi_l0(phi), nu, Y)
        want = np.maximum(0.0, np.abs(Y).max(axis=1) - phi.values[1:].min())
        assert got.tobytes() == want.tobytes() and tol == conjugacy.ANALYTIC_TOL


def test_lp_below_one_values_and_memberships_are_exact():
    # The sampled sphere route read these below the optimum by more than its
    # tolerance scale suggests, and accepted by its wide tolerance at d >= 3.
    half = CouplingSpec(NormalizationSpec.lp(0.5))
    # Non-monotone phi: min phi = 0.5 at l = 2 (the route read 1.4554,
    # 0.4778 and 2.4331).
    f = ZeroHomFnSpec.phi_l0(PhiSpec.from_values([0.0, 1.0, 0.5]))
    got, _ = conjugacy._capra_route(f, half.nu, np.array([[2.0, 0.0], [1.0, 1.0], [3.0, -0.5]]))
    assert got.tolist() == [1.5, 0.5, 2.5]
    # conj(y) = max(0, y1 - 1) against <e1, y> - 1 = y1 - 1: equal iff y1 >= 1.
    l0_3, l0_4 = ZeroHomFnSpec.l0(3), ZeroHomFnSpec.l0(4)
    e1 = np.eye(4)[0]
    assert not capra_subdiff_contains([0.9, 0.0, 0.0], e1[:3], l0_3, half)
    assert capra_subdiff_at_zero(l0_3, half, [[1.1, 0.0, 0.0], [1.0, -1.0, 0.5]]).tolist() == [
        [1.0, -1.0, 0.5]]
    for y1, member in ((0.7, False), (0.99, False), (1.0, True), (1.3, True)):
        assert capra_subdiff_contains([y1, 0.0, 0.0, 0.0], e1, l0_4, half) is member
    assert capra_subdiff_at_zero(l0_4, half, [[1.2, 0.0, 0.0, 0.0]]).shape == (0, 4)


def test_subdiff_at_zero_lp_half_is_the_linf_box():
    # On criterion 8's lattice (step 1/16) the accepted set is the box
    # {|y|inf <= min phi}, exactly: {|y|inf <= 1} for l0.
    cand = build_grid([(-2.0, 2.0), (-2.0, 2.0)], [65, 65]).nodes
    half = CouplingSpec(NormalizationSpec.lp(0.5))
    for phi, side in ((PhiSpec.identity(2), 1.0), (PhiSpec.from_values([0.0, 1.5, 0.75]), 0.75)):
        acc = capra_subdiff_at_zero(ZeroHomFnSpec.phi_l0(phi), half, cand)
        assert np.array_equal(acc, cand[np.abs(cand).max(axis=1) <= side])


def test_subdiff_at_zero_refuses_infinite_candidates():
    # One rule on every route: an infinite candidate is refused by name, as
    # capra_subdiff_contains and the point transform refuse one.
    nus = (NormalizationSpec.lp(2.0), NormalizationSpec.lp(0.5),
           _as_custom(NormalizationSpec.lp(0.5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in nus:
            for f in (ZeroHomFnSpec.l0(2), ZeroHomFnSpec.constant_zero()):
                for bad in ([math.inf, 0.0], [0.0, -math.inf]):
                    with pytest.raises(ValueError, match="nonfinite-input"):
                        capra_subdiff_at_zero(f, CouplingSpec(nu), [[0.5, 0.5], bad])
                    with pytest.raises(ValueError, match="nonfinite-input"):
                        envelope.tightest_pos_hom_on_ball(f, nu, [1.0, 0.0], [[0.5, 0.5], bad])


@pytest.mark.parametrize("d", [2, 3])
def test_sphere_route_is_below_the_analytic_route(d):
    # A sample of the sphere can only miss the sup: for lp:0.5 the sphere
    # route reads at most the analytic value.
    rng = np.random.default_rng(20 + d)
    nu = NormalizationSpec.lp(0.5)
    sample = build_sphere_sample(nu, d)
    Y = rng.uniform(-3.0, 3.0, (60, d))
    for phi in (PhiSpec.identity(d), PhiSpec.from_values([0.0, 1.0, 0.5, 2.0][:d + 1])):
        f = ZeroHomFnSpec.phi_l0(phi)
        analytic, _ = conjugacy._capra_route(f, nu, Y)
        sphere = capra_conjugate(f, CouplingSpec(nu), Y, sample)
        assert np.all(sphere <= analytic + 1e-12)


# f is 0 at the origin and NaN elsewhere, given by fn alone and with a batch.
_NAN_F = (ZeroHomFnSpec.custom(lambda x: math.nan if x.any() else 0.0),
          ZeroHomFnSpec.custom(lambda x: math.nan if x.any() else 0.0,
                               batch=lambda X: np.where(X.any(axis=1), math.nan, 0.0)))


@pytest.mark.parametrize("f", _NAN_F, ids=["fn", "batch"])
def test_custom_f_returning_nan_raises_nan_input(f):
    # The point transforms reported the NaN as pairing-overflow, and the
    # envelope as an untagged sample error.
    nu = NormalizationSpec.lp(2.0)
    coupling, grid = CouplingSpec(nu), ball_box_grid(2, 11)
    runs = (lambda: capra_conjugate(f, coupling, [1.0, 0.5], build_sphere_sample(nu, 2, 64)),
            lambda: capra_conjugate_direct(f, coupling, [1.0, 0.5], grid),
            lambda: capra_subdiff_at_zero(f, coupling, [[0.5, 0.5]]),
            lambda: tightest_convex_on_ball(f, nu, grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in runs:
            with pytest.raises(ValueError, match="^nan-input: "):
                run()


@pytest.mark.parametrize("transform", [fenchel_conjugate, fenchel_biconjugate])
def test_fenchel_transforms_refuse_a_dual_grid_of_another_dimension(transform):
    f = sample(lambda x: 0.0, build_grid([(-1.0, 1.0)] * 2, [5, 5]))
    for dual in (build_grid([(-1.0, 1.0)], [5]), build_grid([(-1.0, 1.0)] * 3, [5] * 3)):
        with pytest.raises(ValueError, match="^dimension-mismatch: dual grid dimension "):
            transform(f, dual)


def test_custom_value_is_the_one_row_batch():
    # fn sums |x| in ascending and batch in descending coordinate order:
    # equal values that round apart at about a third of these points.  With
    # a batch given, value(x) takes it, as every batch of rows does.
    X = np.random.default_rng(3).standard_normal((50, 3))

    def l1_rev(X):
        return np.abs(X)[:, ::-1].sum(axis=1)

    def ratio_rev(X):
        return l1_rev(X) / np.abs(X).max(axis=1)

    specs = [NormalizationSpec.custom(lambda v: float(np.abs(v).sum())),
             NormalizationSpec.custom(lambda v: float(np.abs(v).sum()), batch=l1_rev),
             ZeroHomFnSpec.custom(lambda x: float(np.abs(x).sum() / np.abs(x).max())),
             ZeroHomFnSpec.custom(lambda x: float(np.abs(x).sum() / np.abs(x).max()),
                                  batch=ratio_rev)]
    for spec in specs:
        for x in X:
            got = spec.value(x)
            assert type(got) is float
            assert np.float64(got).tobytes() == spec.batch(x[None])[0].tobytes()


def test_analytic_conjugate_leaves_out_infinite_levels():
    # An infinite coordinate met an infinite phi(l) as inf - inf = nan, with
    # a RuntimeWarning.  A level with phi(l) = +inf gives a -inf term, which
    # never wins the max(0, .), so only the finite levels are subtracted.
    src = SourceNormSpec.lp(2.0, 2)
    Y = np.array([[math.inf, 1.0], [-1.0, -math.inf], [math.inf, -math.inf], [3.0, -4.0],
                  [0.0, -0.0]])
    grid = Grid((-2.0, -3.0), (2.0, 1.0), (9, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phi, finite_want in (([0.0, 1.0, math.inf], [3.0, 0.0]),
                                 ([0.0, math.inf, 2.0], [3.0, 0.0])):
            phi = PhiSpec.from_values(phi)
            want = [math.inf] * 3 + finite_want
            assert capra_conjugate_l0_analytic_batch(Y, phi, src).tolist() == want
            assert [capra_conjugate_l0_analytic(y, phi, src) for y in Y] == want
            got = _analytic_on_nodes(grid, phi, src, grid)
            assert got.tobytes() == capra_conjugate_l0_analytic_batch(grid.nodes, phi,
                                                                      src).tobytes()
    # phi = (0, 1, inf): max(0, |y|_inf - 1), exactly.
    phi = PhiSpec.from_values([0.0, 1.0, math.inf])
    assert _analytic_on_nodes(grid, phi, src, grid).tolist() == np.maximum(
        0.0, np.abs(grid.nodes).max(axis=1) - 1.0).tolist()


def test_sphere_route_checks_a_custom_nu_once():
    # The coupling takes nu(x) first (1 call), then the route checks nu's
    # homogeneity where it builds its sample (3 calls on 8 rows) and maps
    # the sample to the sphere (1 call).  It passes the sample it built to
    # the transform unchecked; capra_conjugate, which takes a caller's
    # sample, checks the homogeneity and spot-checks 64 rows.
    half = NormalizationSpec.lp(0.5)
    rows = []
    nu = NormalizationSpec.custom(half.value,
                                  batch=lambda X: rows.append(len(X)) or half.batch(X))
    y, x = [1.0, 0.5], [1.0, 0.0]
    assert capra_subdiff_contains(y, x, _L0, CouplingSpec(nu)) == capra_subdiff_contains(
        y, x, _L0, CouplingSpec(half))
    assert rows == [1, 8, 8, 8, 8191]
    rows.clear()
    sample = build_sphere_sample(half, 2)
    assert capra_conjugate(_L0, CouplingSpec(nu), y, sample) == conjugacy._capra_route(
        _L0, nu, np.array(y))[0]
    assert rows[:4] == [8, 8, 8, 64]


def test_direct_route_is_the_sample_kernel_on_normalized_nodes():
    # A homogeneity check (3 calls on 8 rows), then one nu.batch over the 120
    # nonzero nodes of the 11x11 ball grid: nu is not called at the origin.
    # f is evaluated once, at the 121 nodes mapped onto the sphere.
    half = NormalizationSpec.lp(0.5)
    nu_rows, f_points = [], []
    nu = NormalizationSpec.custom(half.value,
                                  batch=lambda X: nu_rows.append(len(X)) or half.batch(X))
    f = ZeroHomFnSpec.custom(_L0.value,
                             batch=lambda X: f_points.append(X.copy()) or _L0.batch(X))
    grid = ball_box_grid(2, 11)
    Y = np.array([[1.0, 0.5], [-2.0, 3.0], [0.0, 0.0]])
    got = capra_conjugate_direct(f, CouplingSpec(nu), Y, grid)
    assert nu_rows == [8, 8, 8, 120]
    assert [len(X) for X in f_points] == [121]
    points = f_points[0]
    origin = ~numerics._nonzero_rows(points)
    assert origin.sum() == 1 and np.array_equal(points[origin], [[0.0, 0.0]])
    assert np.allclose(half.batch(points[~origin]), 1.0, rtol=1e-12, atol=0.0)
    assert np.array_equal(got, capra_conjugate_direct(_L0, CouplingSpec(half), Y, grid))
    assert np.array_equal(got, conjugacy._sample_conjugate(_L0, points, Y))
