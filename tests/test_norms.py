import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

from capra.norms import (
    NormalizationSpec,
    PhiSpec,
    SourceNormSpec,
    best_norm_object,
    conj_exponent,
    dual_coordinate_k_norm,
    k_support_norm,
    lp_gauge_collapses,
    lp_value,
    lp_value_batch,
    parse_config,
    phi_dual_gauge,
    phi_dual_gauge_batch,
    top_k_norm,
    top_k_norm_table,
)
import capra.norms as norms_module
from capra import numerics
from capra.conjugacy import (CouplingSpec, capra_conjugate_l0_analytic,
                             capra_conjugate_l0_analytic_batch, capra_coupling)
from capra._directions import sign_patterns, unit_directions
from capra.oracle import default_direction_set, k_support_bruteforce

RNG = np.random.default_rng(0x5EED)


def test_lp_value_examples():
    assert lp_value([3.0, 4.0], 2.0) == 5.0
    assert lp_value([1.0, 1.0], 0.5) == 4.0  # (1 + 1)^2
    assert lp_value([-2.0, 1.0], math.inf) == 2.0


def test_lp_value_nonpositive_p():
    with pytest.raises(ValueError, match="nonpositive-p"):
        lp_value([1.0], 0.0)
    with pytest.raises(ValueError, match="nonpositive-p"):
        lp_value_batch(np.ones((2, 2)), -1.0)


def test_lp_batch_matches_scalar():
    X = RNG.standard_normal((50, 4)) * 3.0
    for p in (0.5, 1.0, 2.0, 3.5, math.inf):
        batch = lp_value_batch(X, p)
        for row, v in zip(X, batch):
            assert math.isclose(v, lp_value(row, p), rel_tol=1e-13, abs_tol=1e-13)


def test_source_norm_subadditive_on_random_triples():
    sources = [SourceNormSpec.lp(p, 3) for p in (1.0, 1.7, 2.0, math.inf)]
    sources.append(SourceNormSpec.custom(
        lambda x: float(np.max(np.abs(x)) + 0.5 * np.sum(np.abs(x))), 3))
    for src in sources:
        for _ in range(20):
            x = RNG.standard_normal(3)
            y = RNG.standard_normal(3)
            assert src.value(x + y) <= src.value(x) + src.value(y) + 1e-12


def test_source_norm_rejects_p_below_one():
    with pytest.raises(ValueError, match="requires p"):
        SourceNormSpec.lp(0.5, 2)


def test_normalization_invariants():
    for p in (0.5, 1.0, 2.0, math.inf):
        nu = NormalizationSpec.lp(p)
        for _ in range(20):
            x = RNG.standard_normal(3)
            assert nu.value(x) > 0.0
            for rho in (-2.0, -1.0, 0.5, 3.0):
                assert math.isclose(nu.value(rho * x), abs(rho) * nu.value(x),
                                    rel_tol=1e-12)
        assert nu.value(np.zeros(3)) == 0.0


def _top_k_enumeration(y, q, k):
    """Independent oracle: max restricted lq over supports of size <= k."""
    y = np.asarray(y, dtype=float)
    best = 0.0
    for size in range(1, k + 1):
        for K in itertools.combinations(range(y.size), size):
            best = max(best, lp_value(y[list(K)], q))
    return best


def test_top_k_examples():
    # 5 computed by the subset-enumeration oracle below
    assert _top_k_enumeration([3.0, -1.0, 2.0], 1.0, 2) == 5.0
    assert top_k_norm([3.0, -1.0, 2.0], 1.0, 2) == 5.0
    assert top_k_norm([3.0, -1.0, 2.0], math.inf, 2) == 3.0
    assert top_k_norm([3.0, 4.0, 0.0], 2.0, 2) == 5.0


def test_top_k_matches_enumeration():
    for _ in range(25):
        d = int(RNG.integers(1, 7))
        y = RNG.standard_normal(d) * 2.0
        k = int(RNG.integers(1, d + 1))
        q = float(RNG.choice([1.0, 1.5, 2.0, math.inf]))
        assert math.isclose(top_k_norm(y, q, k), _top_k_enumeration(y, q, k),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_top_k_errors():
    with pytest.raises(ValueError, match="k-out-of-range"):
        top_k_norm([1.0, 2.0], 1.0, 3)
    with pytest.raises(ValueError, match="k-out-of-range"):
        top_k_norm([1.0, 2.0], 1.0, 0)
    with pytest.raises(ValueError, match=r"^invalid-q: top-k norm requires q in \[1, inf\]"):
        top_k_norm_table(np.ones((2, 3)), 0.5)


# Comparators of Batcher's odd-even merge sort on d = 1..13 positions.
_MERGE_COMPARATORS = (0, 1, 3, 5, 9, 12, 16, 19, 28, 32, 38, 42, 48)


def _table_corpus():
    """Seeded inputs of the top-k tables' byte freeze.  For d = 1..13: one
    row, one row below and at the network's threshold, 10k rows, with ties,
    0, -0.0, +-inf, 1e+-300 and subnormals; then a non-contiguous view."""
    rng = np.random.default_rng(0x70C)
    specials = np.array([0.0, -0.0, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300,
                         5e-324, -2.5e-310, 2.2250738585072014e-308])
    for d, count in enumerate(_MERGE_COMPARATORS, start=1):
        t = 64 * count
        for n in sorted({1, max(t - 1, 1), max(t, 1), 10_000}):
            Y = rng.standard_normal((n, d)) * np.exp(rng.uniform(-5.0, 5.0, (n, 1)))
            ties = rng.random(n) < 0.2
            Y[ties] = rng.integers(-2, 3, (int(ties.sum()), d))
            hit = rng.random((n, d)) < 0.1
            Y[hit] = rng.choice(specials, int(hit.sum()))
            yield Y
        # Every other row of a reversed-column view.
        Z = rng.standard_normal((2 * max(t, 1) + 6, d + 2))
        Z[rng.random(Z.shape) < 0.1] = 0.0
        yield Z[::2, d:0:-1] if d > 1 else Z[::2, 1:2]


# SHA-256 of the corpus's top_k_norm_table, capra_conjugate_l0_analytic_batch
# and k_support_bruteforce outputs, per SIMD_MATH key (conftest.py): under
# numpy's AVX-512 loops, computed with the row-by-row np.sort kernel that the
# column network replaced; under its AVX2 and baseline loops, after.
TOP_K_CORPUS_DIGESTS = {
    "43ba2ac24b7d96b1": (
        "fc0a096b5295c4b95034edfc5acc240ece16f9d8baaaeabfbe713af3c949ac9f",
        "55a3e80f82162e9034433a887ceb4d93c1972789cdbfc578b8e52e721bbfb767",
        "60d946e9dadca09e3577833cf029b04cae6b261c7d7e442ec7d4271c7e67f839",
    ),
    "ce2eaeb21c77bf4d": (
        "fa582c5c97c9dbabcbea624775344cae59381b81916cf0bb35f5e9e4f5787f74",
        "1b881ffac4ae72381bd5b1aebe5b93cfb17f9a6852fd8c8215a8854e17fda42d",
        "b639d58ba6f8c22d434f5f90c060a7775e28d1a9977f7f8cb9116823a9c11be3",
    ),
}


def test_top_k_table_matches_scalar(frozen_for_dispatch):
    Y = RNG.standard_normal((30, 5)) * 3.0
    for q in (1.0, 2.0, math.inf):
        table = top_k_norm_table(Y, q)
        for i, y in enumerate(Y):
            for k in range(1, 6):
                assert math.isclose(table[i, k - 1], top_k_norm(y, q, k),
                                    rel_tol=1e-13, abs_tol=1e-13)
    # Both sides of the network's threshold keep the same bytes, with no
    # RuntimeWarning on rows that hold +inf.
    for d, count in enumerate(_MERGE_COMPARATORS, start=1):
        assert (norms_module._NETWORK_ROWS_PER_COMPARATOR * len(norms_module._merge_network(d))
                == 64 * count)
    rng = np.random.default_rng(0xD16E57)
    hashes = [hashlib.sha256() for _ in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for Y in _table_corpus():
            d = Y.shape[1]
            phi = PhiSpec(np.concatenate([[0.0], rng.uniform(0.1, 3.0, d)]))
            x = rng.standard_normal(d) * 2.0
            for q, p in zip((1.0, 1.5, 2.0, 3.0, 7.0, math.inf),
                            (math.inf, 3.0, 2.0, 1.5, 7.0 / 6.0, 1.0)):
                hashes[0].update(top_k_norm_table(Y, q).tobytes())
                conj = capra_conjugate_l0_analytic_batch(Y, phi, SourceNormSpec.lp(p, d))
                hashes[1].update(conj.tobytes())
                if d <= 6:
                    dirs = np.where(np.isfinite(Y), Y, 1.0)
                    hashes[2].update(np.array([k_support_bruteforce(x, p, k, dirs)
                                               for k in range(1, d + 1)]).tobytes())
    assert tuple(h.hexdigest() for h in hashes) == frozen_for_dispatch(TOP_K_CORPUS_DIGESTS)


def _point_corpus():
    """Seeded points of the scalar entry points' byte freeze.  For d =
    1..13: points at scales from 1e-310 to 1e300, with ties, 0, -0.0, +-inf,
    1e+-300 and subnormals, and all-zero points; then the last one as a
    list, a (1, d) array and a strided view, and at d = 1 as a 0-d array."""
    rng = np.random.default_rng(0x5CA1A)
    specials = np.array([0.0, -0.0, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300,
                         5e-324, -2.5e-310, 2.2250738585072014e-308])
    scales = np.array([1.0, 1e200, 1e300, 1e-300, 1e-310])
    for d in range(1, 14):
        for i in range(12):
            y = rng.standard_normal(d) * rng.choice(scales) * math.exp(rng.uniform(-3.0, 3.0))
            if i % 4 == 1:
                y = rng.integers(-2, 3, d) * rng.choice(scales)
            elif i % 4 == 2:
                hit = rng.random(d) < 0.3
                y[hit] = rng.choice(specials, int(hit.sum()))
            elif i == 11:
                y = np.zeros(d) * rng.choice([1.0, -1.0], d)
            yield y
        y = rng.standard_normal(d) * 3.0
        y[rng.random(d) < 0.2] = 0.0
        yield y.tolist()
        yield y[None]
        yield np.repeat(y[::-1], 2)[::2]
        if d == 1:
            yield np.array(y[0])


def _phi_with_infinite_levels(rng, d: int) -> PhiSpec:
    w = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.5, d))])
    w[1:][rng.random(d) < 0.3] = math.inf
    w[1 + int(rng.integers(0, d))] = float(rng.uniform(0.2, 3.0))
    return PhiSpec(w)


# SHA-256 of the corpus's outputs of each scalar entry point, per SIMD_MATH
# key (conftest.py): under numpy's AVX-512 loops, computed with the per-call
# numpy reductions and one-column table that the shared single-point bodies
# replaced; under its AVX2 and baseline loops, after.
POINT_CORPUS_DIGESTS = {
    "43ba2ac24b7d96b1": {
        "lp_value": "d70ba4fef547046e6ea3438cedeccac4f36e086d95ecd3ca26b4a75d612039ff",
        "top_k_norm": "20de6a2e45652d1f4766e98eb5d74056c3fc7b5bb3228f53511493e073df13f4",
        "k_support_norm": "33f554756e8fa8188f8e897345d5901cf6346ad78ed0b893a60bdfde45b32bbf",
        "dck_sort": "aff2db93bdb7f84784fbdb116a3b4da061e2a38c05c8cef56120e1e4466ea4a1",
        "dck_enumerate": "bb6281bce7ec036b22691c24cff8717711f266fe4e8e083578ee41189702b81e",
        "phi_dual_gauge": "a18e9019ff4969a69b50129a6fab35eef5f5b26ee2aaac313c77a4fdd4e14854",
        "l0_analytic": "f063f546d9c1a872eda16d3dadd5f64f6e50e8cdb59cafdf33d9c9c188207ee8",
        "capra_coupling": "45e154e28562aedc2ddc9d88bf251fd31f0df2b6fd026d3564c933024de0e8ee",
        "best_norm_value": "57b667c9b4cf8ebea23443d43f2f21625f9c782d9c3655da1c18ada7c94f3ae3",
    },
    "ce2eaeb21c77bf4d": {
        "lp_value": "9c9746dfe57de1299b7d2259802c34dcca55613c628940ea9683f0458982d50e",
        "top_k_norm": "ffebdd4a821dd514ec5f94329b09616490957a24ae2a48fa03e829ee2537e5ac",
        "k_support_norm": "33f554756e8fa8188f8e897345d5901cf6346ad78ed0b893a60bdfde45b32bbf",
        "dck_sort": "73ef90715457b4dc3d2f41ad391349441a6a3a7f81ecd9140adf0dc7088b8a64",
        "dck_enumerate": "f72ce0e9abeec6de841c3bf0b8c06b5911e459e8cb8700bded98b1f27f7658f3",
        "phi_dual_gauge": "1049043fdddfa5b461ac059586e4c919b454bd36277e3a4467778c3cb0ba54ac",
        "l0_analytic": "5de0827da64aa96e6a1bc39811f8179e42f8891c00ddad90ce32f4597e3de70b",
        "capra_coupling": "45e154e28562aedc2ddc9d88bf251fd31f0df2b6fd026d3564c933024de0e8ee",
        "best_norm_value": "57b667c9b4cf8ebea23443d43f2f21625f9c782d9c3655da1c18ada7c94f3ae3",
    },
}


def test_scalar_entry_points_keep_their_bytes(frozen_for_dispatch):
    rng = np.random.default_rng(0xB175)
    hashes = {name: hashlib.sha256() for name in (
        "lp_value", "top_k_norm", "k_support_norm", "dck_sort", "dck_enumerate",
        "phi_dual_gauge", "l0_analytic", "capra_coupling", "best_norm_value")}

    def put(name, value):
        hashes[name].update(np.float64(value).tobytes())

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in _point_corpus():
            d = int(np.size(y))
            ks = range(1, d + 1)
            finite = bool(np.isfinite(y).all())
            for p in (0.5, 1.0, 1.5, 2.0, 3.0, 7.0, math.inf):
                put("lp_value", lp_value(y, p))
            for q in (1.0, 1.5, 2.0, 3.0, 7.0, math.inf):
                for k in ks:
                    put("top_k_norm", top_k_norm(y, q, k))
            for p in (1.0, 2.0, math.inf):
                for k in ks:
                    put("k_support_norm", k_support_norm(y, p, k))
            phis = [_phi_with_infinite_levels(rng, d),
                    PhiSpec(np.concatenate([[0.0], rng.uniform(0.1, 3.0, d)]))]
            for p in (1.0, 1.5, 2.0, 3.0, math.inf):
                src = SourceNormSpec.lp(p, d)
                for k in ks:
                    put("dck_sort", dual_coordinate_k_norm(y, src, k))
                    if d <= 8:
                        put("dck_enumerate", dual_coordinate_k_norm(y, src, k, method="enumerate"))
                for phi in phis:
                    put("phi_dual_gauge", phi_dual_gauge(y, phi, src))
                for phi in phis if finite else phis[1:]:
                    put("l0_analytic", capra_conjugate_l0_analytic(y, phi, src))
            if np.ndim(y) == 1 and finite:
                # A unit-scale partner: <x, y> of two points at 1e300 overflows.
                w = rng.standard_normal(d)
                w[rng.random(d) < 0.2] = 0.0
                for p in (0.5, 1.0, 2.0, math.inf):
                    coupling = CouplingSpec(NormalizationSpec.lp(p))
                    put("capra_coupling", capra_coupling(w, y, coupling))
                    put("capra_coupling", capra_coupling(y, w, coupling))
            put("best_norm_value", best_norm_object(PhiSpec.identity(d),
                                                    SourceNormSpec.lp(1.0, d)).value(y))
            if 2 <= d <= 3:
                sampled = best_norm_object(PhiSpec.from_values([0.0, math.inf] + [1.0] * (d - 1)),
                                           SourceNormSpec.lp(2.0, d), n_directions=64)
                put("best_norm_value", sampled.value(y))
    got = {name: h.hexdigest() for name, h in hashes.items()}
    assert got == frozen_for_dispatch(POINT_CORPUS_DIGESTS)



def _top_k_core_points(rng, d: int):
    """Points of every scale, then the edge cases of the one-point levels:
    subnormals and signed zeros, an infinite coordinate, and rows near
    1.7e308 whose scale back overflows."""
    for _ in range(40):
        y = rng.standard_normal(d) * 10.0 ** rng.uniform(-300.0, 300.0)
        y[rng.random(d) < 0.2] = rng.integers(-2, 3)
        yield y
    signs = rng.choice([-1.0, 1.0], d)
    yield signs * 5e-324 * rng.integers(0, 4, d)
    yield signs * rng.uniform(0.0, 2e-308, d)
    yield signs * 0.0
    for inf in (math.inf, -math.inf):
        y = rng.standard_normal(d)
        y[rng.integers(d)] = inf
        yield y
    yield signs * rng.uniform(1.6e308, 1.7e308, d)


def test_top_k_core_same_bits_on_a_contiguous_copy_and_a_reversed_view():
    # A one-point call takes its levels in Python floats at q in {1, 2, inf}
    # and runs the top-k core on a contiguous descending |y| at other q; the
    # column it replaced was a (d, 1) view of an ascending sort, with a
    # negative stride, and np.sort hands the table a transposed (d, n) view.
    # numpy may pick another loop for another layout or dispatch, so all are
    # pinned equal bit for bit, with no warning where a value overflows.
    rng = np.random.default_rng(0xC0DE)
    overflowed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in range(1, 14):
            phi = PhiSpec(np.arange(d + 1.0))
            for y in _top_k_core_points(rng, d):
                for p in (1.0, 1.2, 1.5, 2.0, 3.0, 7.0, math.inf):
                    q = conj_exponent(p)
                    column = np.array(
                        norms_module._finite_level_norms(y, phi, SourceNormSpec.lp(p, d))[0])
                    assert column.tobytes() == top_k_norm_table(y[None], q)[0].tobytes()
                    view = np.sort(np.abs(y))[::-1, None]
                    if q < math.inf and 0.0 < view[0, 0] < math.inf:
                        view = norms_module._top_k_table(view, view[0].copy(), q)
                        assert column.tobytes() == view[:, 0].tobytes()
                        overflowed += bool(np.isinf(column).any())
            # A NaN coordinate raises, wherever the sort leaves it.
            for at in range(d):
                y = rng.standard_normal(d)
                y[at] = math.nan
                y[(at + 1) % d] = math.inf if d > 1 else math.nan
                for p in (1.0, 2.0, 3.0, math.inf):
                    with pytest.raises(ValueError, match="^nan-input"):
                        norms_module._finite_level_norms(y, phi, SourceNormSpec.lp(p, d))
    assert overflowed >= 12 * 5


def _scalar_entry_points(d: int = 2) -> dict:
    """Every scalar entry point as a function of one point of R^d, with the
    tag it raises today on an empty point (None: it has no empty refusal)."""
    lp2 = SourceNormSpec.lp(2.0, d)
    phi = PhiSpec.identity(d)
    sampled = best_norm_object(PhiSpec.from_values([0.0, math.inf] + [1.0] * (d - 1)), lp2,
                               n_directions=64)
    coupling = CouplingSpec(NormalizationSpec.lp(2.0))
    return {
        "lp_value": (lambda y: lp_value(y, 3.0), "empty-point"),
        "lp_value-inf": (lambda y: lp_value(y, math.inf), "empty-point"),
        "nu": (lambda y: NormalizationSpec.lp(0.5).value(y), "empty-point"),
        "source": (lambda y: lp2.value(y), "empty-point"),
        "top_k_norm": (lambda y: top_k_norm(y, 2.0, 1), "k-out-of-range"),
        "k_support-1": (lambda y: k_support_norm(y, 1.0, 1), "k-out-of-range"),
        "k_support-2": (lambda y: k_support_norm(y, 2.0, 1), "k-out-of-range"),
        "k_support-inf": (lambda y: k_support_norm(y, math.inf, 1), "k-out-of-range"),
        "dck-sort": (lambda y: dual_coordinate_k_norm(y, lp2, 1), "k-out-of-range"),
        "dck-enumerate": (lambda y: dual_coordinate_k_norm(y, lp2, 1, method="enumerate"),
                          "k-out-of-range"),
        "phi_dual_gauge": (lambda y: phi_dual_gauge(y, phi, lp2), "invalid-phi"),
        "l0_analytic": (lambda y: capra_conjugate_l0_analytic(y, phi, lp2), "invalid-phi"),
        "best-collapsed": (lambda y: best_norm_object(phi, lp2).value(y), "empty-point"),
        "best-sampled": (lambda y: sampled.value(y), None),
        "capra_coupling": (lambda y: capra_coupling(np.reshape(y, -1), np.ones(np.size(y)),
                                                    coupling), None),
    }


def test_scalar_entry_points_refuse_nan_beside_inf_and_keep_their_input():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, (call, empty) in _scalar_entry_points().items():
            # A NaN is refused whatever its place beside an infinite
            # coordinate: no +inf comes back.
            for y in ([math.inf, math.nan], [math.nan, math.inf], [-math.inf, math.nan]):
                with pytest.raises(ValueError, match="^nan-input"):
                    call(y)
            if empty is not None:
                with pytest.raises(ValueError, match=f"^{empty}"):
                    call(np.zeros(0))
            # The sort and the arithmetic touch only a copy of |y|, also on
            # read-only, 2-d and strided input.
            base = np.array([[3.0, 0.0, -4.0, 1e300, -0.0]])
            for y in (base[0, [2, 0]], base[:, [4, 2]], base[0, ::2][:2], base[0, 1:3]):
                y.flags.writeable = False
                before = y.tobytes()
                call(y)
                assert y.tobytes() == before, name


def test_merge_network_sorts_every_zero_one_input():
    # By the 0-1 principle a comparator network that sorts every 0-1 input
    # sorts every input.
    for d in range(1, 17):
        cols = ((np.arange(2**d) >> np.arange(d)[:, None]) & 1).astype(float)
        buf = np.vstack([cols, np.empty(2**d)])
        out = norms_module._sort_columns(buf, norms_module._merge_network(d))
        assert np.array_equal(out, -np.sort(-cols, axis=0))


def test_k_support_examples():
    assert k_support_norm([1.0, -2.0], 1.0, 1) == 3.0
    assert k_support_norm([1.0, 1.0, 1.0], math.inf, 2) == 1.5
    assert k_support_norm([3.0, 4.0], 2.0, 1) == 7.0


def test_k_support_errors():
    with pytest.raises(ValueError, match="unsupported-p"):
        k_support_norm([1.0, 1.0], 3.0, 1)
    with pytest.raises(ValueError, match="k-out-of-range"):
        k_support_norm([1.0, 1.0], 2.0, 5)


def test_k_support_l2_vs_bruteforce():
    # Cross-validation of the sorted-split closed form at d <= 4.  The brute
    # force is a lower estimate; its gap scales with the direction covering
    # radius (~n^(-1/(d-1))), hence the per-dimension tolerances.
    rel_tol = {2: 1e-4, 3: 5e-3, 4: 2e-2}
    for d in (2, 3, 4):
        dirs = default_direction_set(d, 20000)
        stress = [np.arange(1.0, d + 1.0), np.ones(d), np.r_[np.ones(d - 1), 5.0]]
        randoms = [RNG.standard_normal(d) * 2.0 for _ in range(8)]
        for x in stress + randoms:
            for k in range(1, d + 1):
                exact = k_support_norm(x, 2.0, k)
                brute = k_support_bruteforce(x, 2.0, k, dirs)
                assert brute <= exact * (1.0 + 1e-12) + 1e-12
                assert brute >= exact - rel_tol[d] * (1.0 + exact)


def test_k_support_l2_limits():
    for _ in range(10):
        d = int(RNG.integers(2, 6))
        x = RNG.standard_normal(d) * 3.0
        assert math.isclose(k_support_norm(x, 2.0, 1), lp_value(x, 1.0), rel_tol=1e-12)
        assert math.isclose(k_support_norm(x, 2.0, d), lp_value(x, 2.0), rel_tol=1e-12)


def test_dual_coordinate_k_examples():
    assert dual_coordinate_k_norm([3.0, -4.0], SourceNormSpec.lp(2.0, 2), 1) == 4.0
    assert dual_coordinate_k_norm([1.0, 1.0], SourceNormSpec.lp(1.0, 2), 2) == 1.0
    # subset enumeration with sampled restricted duals for a wrapped linf
    src = SourceNormSpec.custom(lambda x: float(np.max(np.abs(x))), 2)
    assert abs(dual_coordinate_k_norm([1.0, 1.0], src, 2) - 2.0) <= 1e-9
    for k in (0, 3):
        with pytest.raises(ValueError, match="^k-out-of-range: need 1 <= k <= 2"):
            dual_coordinate_k_norm([1.0, 1.0], src, k)
    with pytest.raises(ValueError, match="^unknown-method: unknown method 'scan'"):
        dual_coordinate_k_norm([1.0, 1.0], SourceNormSpec.lp(2.0, 2), 1, method="scan")


def test_dual_coordinate_enumeration_exact():
    for _ in range(15):
        d = int(RNG.integers(2, 9))
        p = float(RNG.choice([1.0, 1.5, 2.0, math.inf]))
        y = RNG.standard_normal(d) * 2.0
        k = int(RNG.integers(1, d + 1))
        src = SourceNormSpec.lp(p, d)
        a = dual_coordinate_k_norm(y, src, k, method="sort")
        b = dual_coordinate_k_norm(y, src, k, method="enumerate")
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _python_restricted_dual(y_sub, source, support, n_directions):
    """Per-direction loop, used to pin down the cached restricted duals."""
    m = y_sub.size
    dirs = np.vstack([unit_directions(n_directions, m), sign_patterns(m)])
    best = 0.0
    z = np.zeros(source.dim)
    for u in dirs:
        z[:] = 0.0
        z[list(support)] = u
        t = source.value(z)
        if t > 0.0 and math.isfinite(t):
            with np.errstate(invalid="ignore"):
                best = max(best, float(np.dot(y_sub, u)) / t)
    return best


def test_restricted_dual_bit_identical_to_loop(monkeypatch):
    # Each spec serves several y from its cached clouds; values, including
    # +inf from an infinite coordinate, equal the per-direction loop.  The
    # weights make every support's cloud its own.  64 directions per support
    # keep the Python loop short.
    monkeypatch.setattr(norms_module, "_DIRECTIONS_PER_SUBSET", 64)
    for d in (2, 3, 4):
        w = np.arange(1.0, d + 1.0)
        for p in (1.0, 1.5, 2.0, math.inf):
            src = SourceNormSpec.custom(lambda z, p=p: lp_value(w * z, p), d)
            ys = [RNG.standard_normal(d) * 3.0 for _ in range(2)]
            ys.append(np.concatenate([[-math.inf], RNG.standard_normal(d - 1)]))
            for y in ys:
                for k in range(1, d + 1):
                    want = 0.0
                    for K in itertools.combinations(range(d), k):
                        want = max(want, _python_restricted_dual(y[list(K)], src, K, 64))
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = dual_coordinate_k_norm(y, src, k)
                    assert got == want, (d, p, k, y)
                    if np.isinf(y).any():
                        assert got == math.inf


def test_restricted_dual_cloud_built_once_per_spec():
    calls = []

    def linf(z):
        calls.append(1)
        return float(np.max(np.abs(z)))

    # Level 1's cloud is the two signed units on each of the d supports.
    assert dual_coordinate_k_norm([1.0, -2.0, 0.5], SourceNormSpec.custom(linf, 3), 1) == 2.0
    assert len(calls) == 2 * 3
    calls.clear()
    a = SourceNormSpec.custom(linf, 3)
    first = dual_coordinate_k_norm([1.0, -2.0, 0.5], a, 2)
    built = len(calls)
    assert built == 3 * (512 + 8)
    # Later calls with the same k pair y with the kept clouds: no fn calls.
    assert dual_coordinate_k_norm([1.0, -2.0, 0.5], a, 2) == first
    dual_coordinate_k_norm([0.3, 4.0, -1.0], a, 2)
    assert len(calls) == built
    # Another spec builds its own clouds, and the cache is no part of
    # equality or repr.
    b = SourceNormSpec.custom(linf, 3)
    assert b._restricted_clouds == {}
    assert dual_coordinate_k_norm([1.0, -2.0, 0.5], b, 2) == first
    assert len(calls) == 2 * built
    assert a._restricted_clouds is not b._restricted_clouds
    assert a == SourceNormSpec.custom(linf, 3) and "_restricted_clouds" not in repr(a)


def test_custom_rows_in_blocks_bit_identical_to_support_loop(monkeypatch):
    # The kernel's table, and the gauge taken from it, equal the per-support
    # loop bit for bit.  A block of 300 pairings holds several rows of some
    # levels and less than one row of others, so both regimes run.  The rows
    # include zero and an infinite coordinate; the second source is 0 on
    # every direction along the first axis, so those pairings are skipped.
    monkeypatch.setattr(norms_module, "_DIRECTIONS_PER_SUBSET", 64)
    monkeypatch.setattr(numerics, "_BLOCK_FLOATS", 300)
    rng = np.random.default_rng(17)
    for d in (3, 4):
        w = np.arange(1.0, d + 1.0)
        levels = list(range(1, d + 1))
        phi = PhiSpec.from_values([0.0, 1.0, math.inf, *np.linspace(1.2, 1.5, d - 2)])
        Y = rng.standard_normal((7, d)) * 3.0
        Y[0] = 0.0
        Y[1, 1] = -math.inf
        for fn in (lambda z: lp_value(w * z, 2.0), lambda z: lp_value(w[1:] * z[1:], 1.5)):
            src = SourceNormSpec.custom(fn, d)
            want = np.array([[max([0.0] + [_python_restricted_dual(y[list(K)], src, K, 64)
                                           for K in itertools.combinations(range(d), k)])
                              for k in levels] for y in Y])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = norms_module._custom_dual_table(Y, src, levels)
                gauge = phi_dual_gauge_batch(Y, phi, src)
            assert table.tobytes() == want.tobytes(), (d, table, want)
            finite = np.isfinite(phi.values[1:])
            want_gauge = [max([0.0] + (row[finite] / phi.values[1:][finite]).tolist())
                          for row in want]
            assert gauge.tobytes() == np.array(want_gauge).tobytes()
            assert table[0].tolist() == [0.0] * d and math.isinf(table[1, 0])


def test_custom_gauge_work_cap(monkeypatch):
    calls = []

    def linf(z):
        calls.append(1)
        return float(np.max(np.abs(z)))

    # Levels 1 and 3 are finite: 3 * 2 + 1 * (512 + 26) pairings a row, the
    # two signed units on each support of level 1.
    phi = PhiSpec.from_values([0.0, 1.0, math.inf, 2.0])
    Y = np.ones((5, 3))
    work = 5 * (3 * 2 + 538)
    src = SourceNormSpec.custom(linf, 3)
    monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", work - 1)
    with pytest.raises(ValueError, match="work-too-large: custom dual gauge needs"):
        phi_dual_gauge_batch(Y, phi, src)
    assert calls == [] and src._restricted_clouds == {}
    monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", work)
    assert phi_dual_gauge_batch(Y, phi, src).tolist() == [1.5] * 5
    assert sorted(src._restricted_clouds) == [1, 3] and len(calls) == work // 5
    # The d <= 12 guard lives in the cloud builder, behind the work check.
    src13 = SourceNormSpec.custom(linf, 13)
    monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", 10**12)
    with pytest.raises(ValueError, match="dimension-too-large"):
        phi_dual_gauge_batch(np.ones((100, 13)), PhiSpec.identity(13), src13)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="work-too-large"):
        phi_dual_gauge_batch(np.ones((100, 13)), PhiSpec.identity(13), src13)
    # At d = 8 the cloud of best_norm_object needs 10,656 rows times 191,744
    # pairings, about 2.04e9: refused at once, before the source runs.
    src8 = SourceNormSpec.custom(linf, 8)
    with pytest.raises(ValueError, match="work-too-large"):
        best_norm_object(PhiSpec.identity(8), src8).value(np.ones(8))
    assert src8._restricted_clouds == {}


def test_dual_coordinate_custom_dimension_guard():
    src = SourceNormSpec.custom(lambda x: float(np.max(np.abs(x))), 13)
    with pytest.raises(ValueError, match="dimension-too-large"):
        dual_coordinate_k_norm(np.ones(13), src, 2)
    # The clouds are built on the source's dimension, so points need it too.
    with pytest.raises(ValueError, match="dimension-mismatch"):
        dual_coordinate_k_norm(np.ones(2), SourceNormSpec.custom(src.fn, 3), 1)


def test_phi_dual_gauge_examples():
    phi = PhiSpec.identity(2)
    assert phi_dual_gauge([1.0, 1.0], phi, SourceNormSpec.lp(2.0, 2)) == 1.0
    assert phi_dual_gauge([1.0, 1.0], phi, SourceNormSpec.lp(math.inf, 2)) == 1.0
    assert phi_dual_gauge([0.0, 0.0], phi, SourceNormSpec.lp(2.0, 2)) == 0.0
    # A quotient beyond the largest float is +inf in both forms, unwarned.
    tiny = PhiSpec.from_values([0.0, 1e-10, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (1.0, 1.5, 2.0, math.inf):
            assert phi_dual_gauge([1e300, 0.0], tiny, SourceNormSpec.lp(p, 2)) == math.inf
            assert phi_dual_gauge_batch([[1e300, 0.0]], tiny,
                                        SourceNormSpec.lp(p, 2)).tolist() == [math.inf]


def test_phi_dual_gauge_infinite_level():
    # phi(1) = +inf suppresses the l = 1 term: the gauge comes from l = 2
    phi = PhiSpec.from_values([0.0, math.inf, 1.0])
    src = SourceNormSpec.lp(math.inf, 2)
    for _ in range(20):
        y = RNG.standard_normal(2) * 2.0
        assert math.isclose(phi_dual_gauge(y, phi, src), lp_value(y, 1.0),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_phi_spec_validation():
    # Each refusal keeps its tag and message.
    for values, message in (
            ([0.0], "need values for levels 0..d with d >= 1"),
            ([], "need values for levels 0..d with d >= 1"),
            ([0.0, math.nan, 1.0], "NaN entry (got [0.0, nan, 1.0])"),
            ([1.0, 1.0], "phi(0) must be 0 (got 1.0)"),
            ([-2.5e-300, 1.0], "phi(0) must be 0 (got -2.5e-300)"),
            ([math.inf, 1.0], "phi(0) must be 0 (got inf)"),
            ([0.0, 0.0, 1.0], "phi(l) must be > 0 for l >= 1"),
            ([0.0, 1.0, -math.inf], "phi(l) must be > 0 for l >= 1"),
            ([0.0, math.inf, math.inf], "phi(l) must be finite for at least one l >= 1")):
        with pytest.raises(ValueError) as err:
            PhiSpec(np.array(values))
        assert str(err.value) == "invalid-phi: " + message
    with pytest.raises(ValueError, match="invalid-phi"):
        PhiSpec.from_values([1.0, 1.0])
    for level in (-1, 3):
        with pytest.raises(ValueError, match=rf"^invalid-phi: level {level} outside \[0, 2\]"):
            PhiSpec.identity(2)(level)
    # The finite levels are derived once: read-only, and equal to the
    # levels with finite phi(l) of a read-only copy of the values.
    for values in ([0.0, 1.0, 2.0], [0.0, math.inf, 1.0, 3.0], [0.0, 2.0, math.inf], [0.0, 1.0]):
        given = np.array(values)
        phi = PhiSpec(given)
        given[1] = 7.0
        w = phi.values[1:]
        assert phi.values.tolist() == values and not phi.values.flags.writeable
        assert phi._weights.tobytes() == w[np.isfinite(w)].tobytes()
        assert not phi._weights.flags.writeable
        if np.isfinite(w).all():
            assert phi._finite is None
        else:
            assert phi._finite.tolist() == np.isfinite(w).tolist()
            assert not phi._finite.flags.writeable


def test_phi_weights_that_are_not_numbers_raise_invalid_phi():
    # Text as the CLI gives it, and JSON values as a config file does.
    for values in (["0", "x", "2"], ["0", "nan", "2"], [0.0, math.nan, 2.0], [0, None, 1],
                   [0, [1], 2], 3):
        with pytest.raises(ValueError, match="invalid-phi"):
            PhiSpec.from_values(values)
        with pytest.raises(ValueError, match="invalid-phi"):
            parse_config({"phi": values}, 2)
    assert PhiSpec.from_values(["0", " 1 ", "+Infinity"]).values.tolist() == [0.0, 1.0, math.inf]


def test_best_norm_object_examples():
    obj = best_norm_object(PhiSpec.identity(2), SourceNormSpec.lp(math.inf, 2))
    assert obj.value([1.0, -1.0]) == 2.0
    obj2 = best_norm_object(PhiSpec.scaled_identity(2.0, 2), SourceNormSpec.lp(2.0, 2))
    assert obj2.value([1.0, 0.0]) == 2.0
    assert obj2.value([0.0, 0.0]) == 0.0


def test_best_norm_object_refuses_a_point_of_another_dimension():
    # Collapsed and sampled, primal and dual: a point of R^3 or R^1 on a norm
    # of R^2 is refused before it is evaluated, and so is an empty point.
    lp2 = SourceNormSpec.lp(2.0, 2)
    objects = (best_norm_object(PhiSpec.identity(2), lp2),
               best_norm_object(PhiSpec.from_values([0.0, math.inf, 1.0]), lp2, n_directions=64))
    assert objects[0].exact and not objects[1].exact
    for obj in objects:
        assert obj.dim == 2
        for evaluate in (obj.value, obj.dual_value):
            for x in ([1.0, 2.0, 3.0], [1.0], np.ones((2, 2)), np.ones((3, 1))):
                with pytest.raises(ValueError, match="^dimension-mismatch: the norm is on R\\^2"):
                    evaluate(x)
            with pytest.raises(ValueError, match="^empty-point"):
                evaluate([])
            assert evaluate(np.array([[3.0, -4.0]])) == evaluate([3.0, -4.0])


def test_best_norm_object_noncollapsing():
    # phi(1) = +inf, phi(2) = 1 with an linf source: the dual ball is the l1
    # ball, so the norm is linf (checked against the enumeration gauge).
    phi = PhiSpec.from_values([0.0, math.inf, 1.0])
    obj = best_norm_object(phi, SourceNormSpec.lp(math.inf, 2), n_directions=512)
    assert not obj.exact
    for _ in range(10):
        y = RNG.standard_normal(2)
        assert math.isclose(obj.dual_value(y), lp_value(y, 1.0), rel_tol=1e-12,
                            abs_tol=1e-12)
    assert abs(obj.value([1.0, 0.0]) - 1.0) <= 1e-9
    assert abs(obj.value([1.0, -1.0]) - 1.0) <= 1e-9
    assert obj.value([0.0, -0.0]) == 0.0


@pytest.mark.parametrize("phi,p,n_directions", [
    ([0.0, math.inf, 1.0], math.inf, 512),
    ([0.0, 1.0, 1.2, 1.3], 2.0, 256),
    ([0.0, 2.0, 1.0], 1.0, 4096),
])
def test_best_norm_object_primal_equals_bruteforce_bit_for_bit(phi, p, n_directions):
    # The sampled primal is the brute-force support function over the
    # rescaled directions, with the gauge-ball membership test.
    phi = PhiSpec.from_values(phi)
    d = phi.dim
    src = SourceNormSpec.lp(p, d)
    assert not lp_gauge_collapses(phi, p)
    obj = best_norm_object(phi, src, n_directions=n_directions)
    assert not obj.exact

    def gauge(y):
        return phi_dual_gauge(y, phi, src)

    cands = []
    for u in np.vstack([unit_directions(n_directions, d), sign_patterns(d)]):
        g = gauge(u)
        if g > 0.0 and math.isfinite(g):
            cands.append(u / g)
    rng = np.random.default_rng(5)
    for _ in range(6):
        x = rng.standard_normal(d) * 3.0
        # A per-row loop with the scalar gauge, independent of the vecdot
        # pairing and the batch gauge under test.
        want = max(float(np.dot(x, c)) for c in cands if gauge(c) <= 1.0 + 1e-12)
        assert obj.value(x) == want


def test_infinite_coordinates_give_plus_inf():
    # An infinite coordinate stays out of the rescale: +inf, no nan, no
    # RuntimeWarning.
    X = np.array([[math.inf, 1.0], [1.0, -math.inf], [3.0, -4.0], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (0.5, 1.0, 2.0, 3.5, math.inf):
            assert lp_value([math.inf, 1.0], p) == math.inf
            assert lp_value([0.0, -math.inf], p) == math.inf
            batch = lp_value_batch(X, p)
            assert np.array_equal(batch[:2], [math.inf, math.inf])
            assert batch[2] == lp_value(X[2], p) and batch[3] == 0.0
        for q in (1.0, 2.0, 3.0, math.inf):
            table = top_k_norm_table(X, q)
            assert np.all(table[:2] == math.inf)
            assert np.array_equal(table[2], [top_k_norm(X[2], q, k) for k in (1, 2)])
            assert np.array_equal(table[3], [0.0, 0.0])
            for k in (1, 2):
                assert top_k_norm([math.inf, 1.0], q, k) == math.inf
        lp2 = SourceNormSpec.lp(2.0, 2)
        assert phi_dual_gauge([math.inf, 1.0], PhiSpec.identity(2), lp2) == math.inf
        assert dual_coordinate_k_norm([1.0, math.inf], lp2, 1) == math.inf
        assert best_norm_object(PhiSpec.identity(2), lp2).value([math.inf, 1.0]) == math.inf
        sampled = best_norm_object(PhiSpec.from_values([0.0, math.inf, 1.0]), lp2,
                                   n_directions=64)
        assert sampled.value([math.inf, 1.0]) == math.inf
        # 1e200 overflows at power 2, so the +inf rows stay out of the power
        # too: on one row (np.sort) and on 64 (the network).
        phi = PhiSpec.identity(2)
        assert phi_dual_gauge([math.inf, 1e200], phi, lp2) == math.inf
        for n in (1, 64):
            Y = np.tile([math.inf, 1e200], (n, 1))
            Y[0] = [1e200, -math.inf]
            assert np.all(top_k_norm_table(Y, 2.0) == math.inf)
            assert np.all(phi_dual_gauge_batch(Y, phi, lp2) == math.inf)
            assert np.all(capra_conjugate_l0_analytic_batch(Y, phi, lp2) == math.inf)
        # Finite points whose values lie beyond the largest float give +inf
        # too, on one row and on 64, and the finite entries keep their bits.
        # The sampled best norm pairs its cloud with x / max|x| where a
        # pairing overflows.
        huge = [1.7e308, 1.7e308]
        for n, q in itertools.product((1, 64), (1.0, 1.5, 2.0)):
            Y = np.tile([1.7e308, 1e-300], (n, 1))
            Y[0] = huge
            table = top_k_norm_table(Y, q)
            assert table[0].tolist() == [1.7e308, math.inf]
            assert table[1:].tolist() == [[top_k_norm(y, q, k) for k in (1, 2)] for y in Y[1:]]
            assert top_k_norm(huge, q, 2) == math.inf
        assert phi_dual_gauge(huge, phi, lp2) == math.inf
        assert capra_conjugate_l0_analytic(huge, phi, lp2) == math.inf
        for w in ([0.0, math.inf, 1.0], [0.0, 3.0, 1.0]):
            sampled = best_norm_object(PhiSpec.from_values(w), lp2)
            assert sampled.value(huge) == sampled.value([1.7e308, -math.inf]) == math.inf
            assert math.isclose(sampled.value([1.2e308, -0.5e308]),
                                sampled.value([1.2, -0.5]) * 1e308, rel_tol=1e-15)


def test_phi_dual_gauge_batch_equals_scalar_bit_for_bit():
    rng = np.random.default_rng(11)
    for phi_vals in ([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 1.0, 1.5],
                     [0.0, math.inf, 1.0, 1.3], [0.0, 1.0, math.inf, math.inf]):
        phi = PhiSpec.from_values(phi_vals)
        Y = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-3, 4, size=(300, 1))
        Y[0] = 0.0
        Y[1] = [math.inf, 1.0, 0.0]
        Y[2] = [0.0, -math.inf, -math.inf]
        Y[3] = [2.0, -2.0, 2.0]
        sources = [SourceNormSpec.lp(p, 3) for p in (1.0, 1.5, 2.0, math.inf)]
        sources.append(SourceNormSpec.custom(lambda z: lp_value(z * [1.0, 2.0, 3.0], 2.0), 3))
        for src in sources:
            rows = Y if src.kind == "lp" else Y[:12]
            got = phi_dual_gauge_batch(rows, phi, src)
            want = np.array([phi_dual_gauge(y, phi, src) for y in rows])
            assert got.tobytes() == want.tobytes()
    lp2 = SourceNormSpec.lp(2.0, 2)
    with pytest.raises(ValueError, match="invalid-phi"):
        phi_dual_gauge_batch([[1.0, 2.0, 3.0]], PhiSpec.identity(2), lp2)
    with pytest.raises(ValueError, match="2-d array"):
        phi_dual_gauge_batch([1.0, 2.0], PhiSpec.identity(2), lp2)


def test_vecdot_equals_per_row_dot_bit_for_bit():
    # The norms and the oracle pair rows with np.vecdot on the promise that
    # it rounds each row as np.dot of that row does; a matrix product,
    # einsum or an elementwise sum would not.  Layouts change the rounding
    # of both alike.
    rng = np.random.default_rng(12)
    for d in range(2, 13):
        X = rng.standard_normal((400, d)) * 10.0 ** rng.integers(-300, 301, size=(400, 1))
        X[::17] = 0.0
        X[1::19, 0] = math.inf
        X[2::23, -1] = -math.inf
        x = rng.standard_normal(d)
        x[d // 2] = 0.0
        for rows in (X, np.asfortranarray(X), np.repeat(X, 2, axis=1)[:, ::2]):
            with np.errstate(invalid="ignore", over="ignore"):
                got = np.vecdot(rows, x)
                want = np.array([float(np.dot(x, r)) for r in rows])
            assert got.tobytes() == want.tobytes()
    # At d = 1 a zero product is +0.0 from vecdot and -0.0 from np.dot, so
    # support functions of 1-d points can print 0 where a per-row loop gave -0.
    assert math.copysign(1.0, float(np.dot([0.0], [-1.0]))) == -1.0
    assert math.copysign(1.0, float(np.vecdot(np.array([[-1.0]]), np.array([0.0]))[0])) == 1.0


def test_zero_columns_raise_empty_point():
    for probe in (lambda: top_k_norm_table(np.zeros((1, 0)), 2.0),
                  lambda: lp_value_batch(np.zeros((1, 0)), 2.0),
                  lambda: lp_value([], 2.0)):
        with pytest.raises(ValueError, match="empty-point"):
            probe()


def test_nan_coordinates_raise_nan_input():
    lp2 = SourceNormSpec.lp(2.0, 2)
    linf = SourceNormSpec.custom(lambda z: float(np.max(np.abs(z))), 2)
    phi = PhiSpec.identity(2)
    probes = [
        lambda y: top_k_norm(y, 2.0, 1),
        lambda y: dual_coordinate_k_norm(y, lp2, 1),
        lambda y: dual_coordinate_k_norm(y, lp2, 1, method="enumerate"),
        lambda y: dual_coordinate_k_norm(y, linf, 1),
        lambda y: phi_dual_gauge(y, phi, lp2),
        lambda y: phi_dual_gauge_batch(np.array([[1.0, 2.0], y]), phi, lp2),
        lambda y: phi_dual_gauge_batch(np.array([y]), phi, linf),
        lambda y: lp_value(y, 2.0),
        lambda y: k_support_norm(y, 2.0, 1),
        lambda y: best_norm_object(phi, lp2).value(y),
        lambda y: best_norm_object(PhiSpec.from_values([0.0, math.inf, 1.0]), lp2,
                                   n_directions=64).value(y),
        lambda y: top_k_norm_table(np.array([[1.0, 2.0], y]), 2.0),
        lambda y: top_k_norm_table(np.array([y]), math.inf),
        lambda y: top_k_norm_table(np.array([y]), 0.5),  # before invalid-q
        # 64 rows of d = 2 take the network.
        lambda y: top_k_norm_table(np.vstack([np.ones((63, 2)), y]), 2.0),
        lambda y: top_k_norm_table(np.vstack([y, np.ones((63, 2))]), math.inf),
        lambda y: top_k_norm_table(np.vstack([np.ones((63, 2)), y]), 0.5),
        lambda y: lp_value_batch(np.array([[1.0, 2.0], y]), 2.0),
        lambda y: NormalizationSpec.lp(0.5).batch(np.array([y])),
    ]
    for probe in probes:
        for y in ([math.nan, 1.0], [0.0, math.nan], [math.inf, math.nan]):
            with pytest.raises(ValueError, match="nan-input"):
                probe(y)


def test_gauge_collapse_gate():
    assert lp_gauge_collapses(PhiSpec.identity(4), 2.0)
    assert not lp_gauge_collapses(PhiSpec.from_values([0.0, 2.0, 1.0]), 1.0)
    root = PhiSpec.from_values([0.0, 1.0, math.sqrt(2.0), math.sqrt(3.0)])
    assert lp_gauge_collapses(root, 2.0)


def test_duality_pairing_property():
    for p in (1.0, 2.0, math.inf):
        q = conj_exponent(p)
        for _ in range(30):
            d = int(RNG.integers(2, 6))
            x = RNG.standard_normal(d)
            y = RNG.standard_normal(d)
            k = int(RNG.integers(1, d + 1))
            assert float(np.dot(x, y)) <= (
                k_support_norm(x, p, k) * top_k_norm(y, q, k) + 1e-9
            )


def test_parse_config():
    cfg = parse_config({"source": {"lp": 2}, "phi": [0, 1, 2]}, 2)
    assert cfg["source"].p == 2.0 and cfg["source"].dim == 2
    assert cfg["phi"].dim == 2 and cfg["phi"](2) == 2.0
    assert sorted(cfg) == ["phi", "source"]
    for spelling in ("inf", "+inf", " Infinity ", "INF"):
        cfg2 = parse_config({"source": {"lp": spelling}}, dim=3)
        assert cfg2["source"].p == math.inf
    # No command reads a nu, so a config has none; other keys are refused too.
    for extra in ({"nu": {"lp": 0.5}}, {"sourc": {"lp": 1}}):
        with pytest.raises(ValueError, match="invalid-config: a config has only source and phi"):
            parse_config({"phi": [0, 1, 2], **extra}, 2)
    cfg3 = parse_config({"phi": [0, "1", "inf"]}, 2)
    assert cfg3["phi"](2) == math.inf
    with pytest.raises(ValueError, match="nan"):
        parse_config({"phi": [0, 1, "nan"]}, 2)
    # A phi of another dimension than the given one is refused.
    with pytest.raises(ValueError, match="invalid-phi"):
        parse_config({"phi": [0, 1, 2], "source": {"lp": 2}}, dim=3)
    assert parse_config({"phi": [0, 1, 2, 3]}, dim=3)["phi"].dim == 3


def test_conj_exponent():
    assert conj_exponent(1.0) == math.inf
    assert conj_exponent(math.inf) == 1.0
    assert conj_exponent(2.0) == 2.0
    assert math.isclose(conj_exponent(4.0), 4.0 / 3.0)
    # NaN fails every comparison, so it gave a conjugate exponent of NaN.
    for p in (0.5, -math.inf, math.nan):
        with pytest.raises(ValueError, match=r"invalid-p: conjugate exponent requires p >= 1"):
            conj_exponent(p)


def test_sign_patterns_in_product_order():
    for d in range(1, 8):
        want = np.array([p for p in itertools.product((-1.0, 0.0, 1.0), repeat=d) if any(p)])
        got = sign_patterns(d)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), d
    assert sign_patterns(0).shape == (0, 0)


def test_sign_patterns_work_cap(monkeypatch):
    # 3^d d floats are counted before any array is built.
    monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", 3**5 * 5 - 1)
    with pytest.raises(ValueError, match="work-too-large: sign patterns needs 1.22e.03 floats"):
        sign_patterns(5)
    assert sign_patterns(4).shape == (80, 4)
    monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", 3**5 * 5)
    assert sign_patterns(5).shape == (242, 5)


def test_unit_directions_work_cap(monkeypatch):
    # count x dim floats are counted before any array is built, whatever the
    # dimension's construction.
    for dim in (1, 2, 3, 5):
        monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", 100 * dim - 1)
        with pytest.raises(ValueError, match=f"^work-too-large: unit directions needs {100 * dim} "
                                             "floats"):
            unit_directions(100, dim)
        monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", 100 * dim)
        assert unit_directions(100, dim).shape == (100, dim)
    # best_norm_object builds its cloud of n_directions at the first nonzero x.
    obj = best_norm_object(PhiSpec.from_values([0.0, math.inf, 1.0]), SourceNormSpec.lp(2.0, 2),
                           n_directions=51)
    monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", 101)
    with pytest.raises(ValueError, match="^work-too-large: unit directions needs 102 floats"):
        obj.value([1.0, 0.0])
    with pytest.raises(ValueError, match=r"^invalid-dim: dimension must be >= 1 \(got 0\)"):
        unit_directions(10, 0)
