"""Norms and normalization functions for sparsity analysis.

Provides the lp family (p in (0, inf], with p < 1 admitted as a
normalization function rather than a norm), the top-(q,k) norms, the
k-support norms for lp sources, and gauges of intersected dual balls of the
form ``cap_l phi(l) * B_l`` together with their support-function norms.

A single-point call checks its point once and runs only the steps its value
needs; where a batch form exists it shares its core, with its row's bits.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._directions import sign_patterns, unit_directions
from .numerics import (_as_rows, _block_rows, _check_work, _evaluate_rows, _nonzero_rows,
                       _refuse_nan)

__all__ = [
    "conj_exponent",
    "lp_value",
    "lp_value_batch",
    "NormalizationSpec",
    "SourceNormSpec",
    "PhiSpec",
    "top_k_norm",
    "top_k_norm_table",
    "k_support_norm",
    "dual_coordinate_k_norm",
    "phi_dual_gauge",
    "phi_dual_gauge_batch",
    "NormObject",
    "best_norm_object",
    "lp_gauge_collapses",
    "parse_config",
]

# Directions per support of a custom source's sampled restricted duals.
_DIRECTIONS_PER_SUBSET = 512

# Rows per comparator from which a top-k table sorts its columns with the
# merge network rather than each row with np.sort.
_NETWORK_ROWS_PER_COMPARATOR = 64


def conj_exponent(p: float) -> float:
    """Conjugate exponent q with 1/p + 1/q = 1 (q = inf for p = 1)."""
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    if not p > 1.0:  # NaN too
        raise ValueError(f"invalid-p: conjugate exponent requires p >= 1 (got {p})")
    return p / (p - 1.0)


def _abs_point(x, descending: bool = False) -> tuple[np.ndarray, float]:
    """``|x|`` as a fresh 1-d float array, sorted in descending order in
    place if ``descending``, and its maximum (0.0 when empty).

    The point check of the scalar norm entry points.  The maximum, which
    they need anyway, propagates NaN (a sort puts NaN last), so a NaN
    coordinate raises ``nan-input``, also beside an infinite one.
    """
    a = np.abs(np.asarray(x, dtype=float))
    a = a if a.ndim == 1 else a.reshape(-1)
    if descending:
        a[::-1].sort()
        m = float(a[0]) if a.size else 0.0
    else:
        m = float(np.maximum.reduce(a, initial=0.0))
    if m != m:
        raise ValueError("nan-input: a point coordinate is NaN")
    return a, m


def _lp_of_abs(a: np.ndarray, m: float, p: float) -> float:
    """:func:`lp_value` of magnitudes ``a`` with maximum ``m``.  An infinite
    one stays out of the rescale, where inf / inf would give nan."""
    if p == math.inf or m == 0.0 or m == math.inf:
        return m
    s = float(np.add.reduce((a / m) ** p))
    try:
        return m * s ** (1.0 / p)
    except OverflowError:
        return float(_lp_beyond_range(m, s, p))


def _lp_beyond_range(m, s, p):
    """``m s^(1/p)`` where ``s^(1/p)``, with s in [1, d] and p < 1, is
    beyond the largest float: taken as ``exp(log m + log(s) / p)``, within
    about 1e-13 relative, and +inf without a warning when it is beyond the
    largest float too.  Float or array m and s alike."""
    with np.errstate(over="ignore"):
        return np.exp(np.log(m) + np.log(s) / p)


def lp_value(x, p: float) -> float:
    """``(sum |x_i|^p)^(1/p)`` for finite p, ``max |x_i|`` for p = inf.

    Any p > 0 is accepted; for p < 1 the result is the (non-subadditive)
    lp normalization function.  A value beyond the largest float is +inf.
    """
    if not p > 0.0:
        raise ValueError(f"nonpositive-p: lp exponent must be > 0 (got {p})")
    a, m = _abs_point(x)
    if a.size == 0:
        raise ValueError("empty-point: lp_value needs at least one coordinate")
    return _lp_of_abs(a, m, p)


def _abs_rows(X) -> np.ndarray:
    """``|X|`` as a 2-d float array of at least one column: the shape
    check of the batch entry points."""
    a = np.abs(_as_rows(X))
    if a.shape[1] == 0:
        raise ValueError("empty-point: rows need at least one coordinate")
    return a


def lp_value_batch(X: np.ndarray, p: float) -> np.ndarray:
    """Row-wise :func:`lp_value` of an (n, d) array; a NaN coordinate
    raises ``nan-input`` and d = 0 ``empty-point``."""
    if not p > 0.0:
        raise ValueError(f"nonpositive-p: lp exponent must be > 0 (got {p})")
    a = _abs_rows(X)
    m = a.max(axis=1)
    # The row maximum propagates NaN.
    _refuse_nan(m, "a row coordinate")
    if p == math.inf:
        return m
    # Rows with maximum 0 or +inf keep it as their value.
    out = m.copy()
    nz = (m > 0.0) & (m < math.inf)
    if nz.any():
        m = m[nz]
        s = np.sum((a[nz] / m[:, None])**p, axis=1)
        with np.errstate(over="ignore"):  # an overflowing product is +inf
            root = s ** (1.0 / p)
            out[nz] = m * root
        if p < 1.0 and np.isinf(root).any():  # s <= d: only p < 1 can overflow it
            big = np.isinf(root)
            out[np.flatnonzero(nz)[big]] = _lp_beyond_range(m[big], s[big], p)
    return out


def _check_spec(spec, reads: dict) -> None:
    """Refuse with ``invalid-spec`` a spec built with a kind its methods do
    not dispatch on, or without the field its kind reads (``reads`` maps
    each kind to that field)."""
    if spec.kind not in reads:
        raise ValueError(f"invalid-spec: a {type(spec).__name__} kind is one of "
                         f"{', '.join(reads)} (got {spec.kind!r})")
    if getattr(spec, reads[spec.kind]) is None:
        raise ValueError(f"invalid-spec: a {type(spec).__name__} of kind {spec.kind!r} "
                         f"needs {reads[spec.kind]}")


@dataclass
class NormalizationSpec:
    """A normalization function: nonnegative, absolutely 1-homogeneous and
    vanishing only at 0 (a norm without the subadditivity requirement).

    Use :meth:`lp` for the lp family (any p > 0, including p < 1) or
    :meth:`custom` to wrap an arbitrary evaluator, whose homogeneity is
    spot-checked where it first meets a grid or a sphere sample.  A spec
    given both ``fn`` (one point) and ``batch`` ((n, d) points) must have
    them agree at every point.
    """

    kind: str
    p: float | None = None
    fn: Callable | None = None
    batch_fn: Callable | None = None

    def __post_init__(self):
        _check_spec(self, {"lp": "p", "custom": "fn"})
        if self.kind == "lp":
            self.p = float(self.p)
            if not self.p > 0.0:
                raise ValueError(f"nonpositive-p: lp exponent must be > 0 (got {self.p})")

    @classmethod
    def lp(cls, p: float) -> "NormalizationSpec":
        return cls(kind="lp", p=p)

    @classmethod
    def custom(cls, fn: Callable, batch: Callable | None = None) -> "NormalizationSpec":
        return cls(kind="custom", fn=fn, batch_fn=batch)

    def value(self, x) -> float:
        """nu(x): :func:`lp_value`, or for a custom nu the one-row case of
        :meth:`batch`."""
        if self.kind == "lp":
            return lp_value(x, self.p)
        return float(self.batch(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def batch(self, X: np.ndarray) -> np.ndarray:
        """nu at each row of the (n, d) array X.  The one place a custom nu
        is evaluated, by :func:`capra.numerics._evaluate_rows`; its value at a
        nonzero row must be positive and finite, else
        ``invalid-normalization`` names the first bad row."""
        if self.kind == "lp":
            return lp_value_batch(X, self.p)
        X = _as_rows(X)
        vals = _evaluate_rows(self.fn, self.batch_fn, X, "nu")
        bad = ~((vals > 0.0) & (vals < math.inf)) & _nonzero_rows(X)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"invalid-normalization: nu(x) = {float(vals[i])} at the nonzero "
                             f"point x = {X[i].tolist()}")
        return vals


def _check_homogeneous(nu: NormalizationSpec, dim: int) -> None:
    """Spot-check ``nu(t x) = |t| nu(x)`` for a custom nu at 8 deterministic
    unit directions of R^dim and t in {-3, 0.5}, within a relative 1e-6; a
    violation raises ``invalid-normalization``.  lp is homogeneous as built."""
    if nu.kind == "lp":
        return
    X = unit_directions(8, dim)
    base = nu.batch(X)
    for t in (-3.0, 0.5):
        want = abs(t) * base
        got = nu.batch(t * X)
        bad = np.abs(got - want) > 1e-6 * want
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"invalid-normalization: nu is not absolutely homogeneous: "
                             f"nu(t x) = {got[i]} and |t| nu(x) = {want[i]} at t = {t}, "
                             f"x = {X[i].tolist()}")


@dataclass
class SourceNormSpec:
    """A norm on R^d used to generate coordinate-k and dual coordinate-k norms.

    ``lp`` sources (p in [1, inf]) have exact closed-form duals; ``custom``
    sources are handled by subset enumeration with sampled restricted duals.
    """

    kind: str
    dim: int
    p: float | None = None
    fn: Callable | None = None
    # Restricted dual-ball clouds of a custom source, built on first use by
    # _restricted_dual_cloud: level k -> (supports, directions, values).
    _restricted_clouds: dict = field(default_factory=dict, init=False,
                                     compare=False, repr=False)

    def __post_init__(self):
        _check_spec(self, {"lp": "p", "custom": "fn"})
        self.dim = int(self.dim)
        if self.kind == "lp":
            self.p = float(self.p)
            if not self.p >= 1.0:  # NaN too
                raise ValueError(f"invalid-p: source norm requires p in [1, inf] (got {self.p})")

    @classmethod
    def lp(cls, p: float, dim: int) -> "SourceNormSpec":
        return cls(kind="lp", dim=dim, p=p)

    @classmethod
    def custom(cls, fn: Callable, dim: int) -> "SourceNormSpec":
        return cls(kind="custom", dim=dim, fn=fn)

    def value(self, x) -> float:
        """The source at x; for a custom source, ``fn`` at x as one row."""
        if self.kind == "lp":
            return lp_value(x, self.p)
        return float(_evaluate_rows(self.fn, None, np.asarray(x, dtype=float).reshape(1, -1),
                                    "the source")[0])


@dataclass
class PhiSpec:
    """Weights ``phi: {0, ..., d} -> [0, +inf]`` for sparsity levels.

    Requires phi(0) = 0, phi(l) > 0 for l >= 1, and phi(l) < +inf for at
    least one l >= 1.  Checked once on ``values.tolist()``, which then
    become a read-only copy; beside them, derived once and read-only too,
    ``_finite`` is the mask of the levels l >= 1 with finite phi(l) (None
    when every level is finite) and ``_weights`` those phi(l), the divisors
    and subtrahends of the dual gauge and the analytic conjugate.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float).reshape(-1)
        v = vals.tolist()
        if len(v) < 2:
            raise ValueError("invalid-phi: need values for levels 0..d with d >= 1")
        if any(w != w for w in v):
            raise ValueError(f"invalid-phi: NaN entry (got {v})")
        if v[0] != 0.0:
            raise ValueError(f"invalid-phi: phi(0) must be 0 (got {v[0]})")
        if not all(w > 0.0 for w in v[1:]):
            raise ValueError("invalid-phi: phi(l) must be > 0 for l >= 1")
        finite = [w < math.inf for w in v[1:]]
        if not any(finite):
            raise ValueError("invalid-phi: phi(l) must be finite for at least one l >= 1")
        vals.flags.writeable = False
        self.values = vals
        self._finite, self._weights = None, vals[1:]
        if not all(finite):
            self._finite = np.array(finite)
            self._weights = vals[1:][self._finite]
            self._finite.flags.writeable = self._weights.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.values.size - 1

    def __call__(self, level: int) -> float:
        if not 0 <= level <= self.dim:
            raise ValueError(f"invalid-phi: level {level} outside [0, {self.dim}]")
        return float(self.values[level])

    @classmethod
    def identity(cls, dim: int) -> "PhiSpec":
        return cls(np.arange(dim + 1, dtype=float))

    @classmethod
    def scaled_identity(cls, scale: float, dim: int) -> "PhiSpec":
        levels = np.arange(dim + 1, dtype=float)
        levels[1:] *= scale  # level 0 stays an exact 0, also for an infinite scale
        return cls(levels)

    @classmethod
    def from_values(cls, values: Sequence) -> "PhiSpec":
        """Weights from numbers or their text, read by ``float`` (so any
        spelling of inf); an entry that is not a number, or is NaN, raises
        ``invalid-phi``."""
        try:
            vals = np.array([float(v) for v in values])
        except (TypeError, ValueError):
            raise ValueError(f"invalid-phi: each weight must be a number "
                             f"(got {values!r})") from None
        return cls(vals)


def _check_phi_dim(phi: PhiSpec, dim: int) -> None:
    """``invalid-phi`` unless phi has a level for each sparsity of points
    in R^dim."""
    if phi.dim != dim:
        raise ValueError(f"invalid-phi: phi has dim {phi.dim}, points have dim {dim}")


def top_k_norm(y, q: float, k: int) -> float:
    """q-norm of the k largest-magnitude components of y."""
    a, m = _abs_point(y, descending=True)
    d = a.size
    if not 1 <= k <= d:
        raise ValueError(f"k-out-of-range: need 1 <= k <= {d} (got k={k})")
    if not (q >= 1.0 or q == math.inf):
        raise ValueError(f"invalid-q: top-k norm requires q in [1, inf] (got {q})")
    return _lp_of_abs(a[:k], m, q)


def top_k_norm_table(Y: np.ndarray, q: float) -> np.ndarray:
    """All top-(q, k) values of each row: entry (i, k-1) is top-(q,k)(Y[i]).

    A NaN coordinate raises ``nan-input`` (before ``invalid-q``) and d = 0
    ``empty-point``.  At q = inf every entry is the row max, taken without a
    sort.  Otherwise each row's magnitudes are sorted in descending order
    and :func:`_top_k_table` runs on the (d, n) columns of positive finite
    maximum.  Below ``_NETWORK_ROWS_PER_COMPARATOR`` rows per comparator of
    :func:`_merge_network`, ``np.sort`` sorts each row; from there |Y| is
    copied column by column and :func:`_sort_columns` sorts every row at
    once.  The two give the same bits, since magnitudes (``abs`` leaves no
    -0.0) have one sorted order.  The crossover, measured on a 2-vCPU VM
    (numpy 2.4), is about 64 rows at d = 2 (1 comparator), 200-320 at d = 4
    (5), about 1k at d = 8 (19), about 4k at d = 16 (63) and 12-16k at
    d = 32 (191); at d = 16 and 32 the two stay within 10 % of each other
    for a few thousand rows either side.  The table is the transpose of the
    (d, n) work array, so it is in Fortran order and each of its columns is
    contiguous.
    """
    Y = _as_rows(Y)
    n, d = Y.shape
    if d == 0:
        raise ValueError("empty-point: rows need at least one coordinate")
    network = _merge_network(d)
    if n < _NETWORK_ROWS_PER_COMPARATOR * len(network):
        a = np.abs(Y)
        if q == math.inf:
            return _max_table(a.max(axis=1), d)
        cols = -np.sort(-a, axis=1).T
    else:
        cols = np.empty((d + 1, n))  # a spare row for the network
        for k in range(d):
            np.abs(Y[:, k], out=cols[k])
        if q == math.inf:
            return _max_table(cols[:d].max(axis=0), d)
        cols = _sort_columns(cols, network)
    # np.sort puts NaN last, and the network's minimum propagates it.
    _refuse_nan(cols[-1], "a row coordinate")
    if not q >= 1.0:
        raise ValueError(f"invalid-q: top-k norm requires q in [1, inf] (got {q})")
    # Columns with maximum 0 or +inf keep it (an infinite one would overflow).
    m = cols[0].copy()
    ok = (m > 0.0) & (m < math.inf)
    if ok.all():
        return _top_k_table(cols, m, q).T
    out = np.repeat(m[None], d, axis=0)
    out[:, ok] = _top_k_table(cols[:, ok], m[ok], q)
    return out.T


def _max_table(m: np.ndarray, d: int) -> np.ndarray:
    """The top-(inf, k) table of rows with maxima ``m``: m in every column;
    a NaN maximum raises ``nan-input``."""
    _refuse_nan(m, "a row coordinate")
    return np.repeat(m[:, None], d, axis=1)


@functools.cache
def _merge_network(d: int) -> tuple:
    """Batcher's odd-even merge sort on d positions: the comparators
    ``(i, j)``, i < j, in order.  Run on a power of two and with the
    comparators that reach past d dropped, which is the same as padding
    with values below every input."""
    pairs = []
    p = 1
    while p < d:
        k = p
        while k >= 1:
            for j in range(k % p, d - k, 2 * k):
                for i in range(min(k, d - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def _sort_columns(buf: np.ndarray, network: tuple) -> np.ndarray:
    """The first d rows of the (d + 1, n) ``buf`` sorted in descending
    order down each column, as a new (d, n) array; ``buf`` is overwritten.
    Each comparator of ``network`` is an ``np.maximum`` and an
    ``np.minimum`` of two whole rows; the maximum goes to the spare row,
    and ``order`` records which row of ``buf`` holds each position."""
    order, spare = list(range(len(buf) - 1)), len(buf) - 1
    for i, j in network:
        hi, lo = buf[order[i]], buf[order[j]]
        np.maximum(hi, lo, out=buf[spare])
        np.minimum(hi, lo, out=lo)
        order[i], spare = spare, order[i]
    return buf[order]


def _top_k_table(t: np.ndarray, s, q: float) -> np.ndarray:
    """The top-(q, k) values, k = 1..d down axis 0, of the (d, n) or, for one
    point at q not in {1, 2, inf} (:func:`_finite_level_norms`), (d,)
    descending magnitudes ``t`` with finite, positive maxima ``s`` and
    finite q >= 1, written over t.  Each step runs over all columns at once,
    in the order of a row-wise evaluation: rescale by the column max, the
    power q, the sequential sum down each column (a row's ``cumsum``), the
    power 1/q and the scale back.  So every value, a point's too, has the
    bits of the row-wise form.  A value beyond the largest float is +inf,
    without a warning; t <= d before the scale back, so one point whose
    ``d * s`` is finite (a float s) skips the ``np.errstate``, which would
    add about a fifth to its call."""
    t /= s
    t **= q
    # One accumulate call is quicker on a few columns, adding row after row
    # on many; both sum each column in order.
    if t.size < 256 * len(t):
        np.add.accumulate(t, axis=0, out=t)
    else:
        for k in range(1, len(t)):
            t[k] += t[k - 1]
    t **= 1.0 / q
    if isinstance(s, float) and s * len(t) < math.inf:
        t *= s
    else:
        with np.errstate(over="ignore"):
            t *= s
    return t


def _k_support_l2(x, k: int) -> float:
    # Sorted-split evaluation: the r+1 smallest of the k active magnitudes
    # are averaged; r is the unique split with
    #   z_{k-r-1} > (sum of the trailing d-k+r+1 terms) / (r+1) >= z_{k-r}.
    z = _abs_point(x, descending=True)[0]
    # Where the products below, up to (d max|x|)^2, leave the normal float
    # range, the norm is taken at x / max|x| and scaled back.
    m, top = float(z[0]), float(z[0]) * z.size
    if 0.0 < m < math.inf and not (m * m >= sys.float_info.min and top * top < math.inf):
        return m * _k_support_l2(z / m, k)
    tail = np.concatenate([np.cumsum(z[::-1])[::-1], [0.0]])
    for r in range(k):
        upper = math.inf if k - r - 1 == 0 else float(z[k - r - 2])
        mean = float(tail[k - r - 1]) / (r + 1)
        lower = float(z[k - r - 1])
        if upper > mean >= lower:
            head = z[: k - r - 1]
            return math.sqrt(float(np.dot(head, head)) + mean * float(tail[k - r - 1]))
    # Degenerate float ties: all k slots averaged.
    total = float(tail[0])
    return math.sqrt(total * total / k)


def k_support_norm(x, p: float, k: int) -> float:
    """Coordinate-k norm of the lp source norm, p in {1, 2, inf}.

    These are the closed-form cases; other exponents have no analytic
    expression and are served by the brute-force oracle instead.
    """
    d = np.size(x)
    if not 1 <= k <= d:
        raise ValueError(f"k-out-of-range: need 1 <= k <= {d} (got k={k})")
    if p == 2.0:
        return _k_support_l2(x, k)
    if p not in (1.0, math.inf):
        raise ValueError(f"unsupported-p: closed forms exist for p in {{1, 2, inf}} (got {p}); "
                         "use the brute-force oracle for other exponents")
    a, linf = _abs_point(x)
    l1 = _lp_of_abs(a, linf, 1.0)
    if p == 1.0:
        return l1
    if l1 == math.inf and linf < math.inf:
        # l1 overflows, l1 / k may not: take it at x / max|x|.
        return linf * max(_lp_of_abs(a / linf, 1.0, 1.0) / k, 1.0)
    return max(l1 / k, linf)


def _restricted_dual_cloud(source: SourceNormSpec,
                           k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A custom source's sampled restricted dual balls on its size-k
    supports: ``(supports, directions, values)``.  One support per row; the
    ``_DIRECTIONS_PER_SUBSET`` quasi-uniform directions of R^k plus every
    sign pattern, and at k = 1 only the two signed units (the directions of
    R^1 are those two, repeated); the source at each direction placed on
    each support, NaN where not in (0, inf).  Built once per level and kept
    on the spec.  Custom sources need d <= 12."""
    cloud = source._restricted_clouds.get(k)
    if cloud is None:
        d = source.dim
        if d > 12:
            raise ValueError(f"dimension-too-large: custom sources need d <= 12 (got {d})")
        supports = np.array(list(itertools.combinations(range(d), k)))
        dirs = sign_patterns(1) if k == 1 else np.vstack(
            [unit_directions(_DIRECTIONS_PER_SUBSET, k), sign_patterns(k)])
        t = np.empty((len(supports), len(dirs)))
        for i, K in enumerate(supports):
            Z = np.zeros((len(dirs), d))
            Z[:, K] = dirs
            t[i] = _evaluate_rows(source.fn, None, Z, "the source")
        values = np.where((t > 0.0) & (t < math.inf), t, math.nan)
        cloud = source._restricted_clouds[k] = (supports, dirs, values)
    return cloud


def _custom_dual_table(Y: np.ndarray, source: SourceNormSpec, levels) -> np.ndarray:
    """Sampled dual coordinate-l norms of a custom source at the rows of Y,
    a column per level l: the max of 0 and of ``<y_K, u> / t`` over the
    clouds of :func:`_restricted_dual_cloud`.  ``np.vecdot`` of C-ordered
    operands rounds each pairing as ``np.dot(y_K, u)`` does (a strided y_K
    or a matrix product would not; at l = 1 only the sign of a zero
    differs, which the max with 0 hides), and NaN pairings (inf times 0)
    are skipped.  Rows run in blocks of ``_BLOCK_FLOATS`` pairings, or one
    row, and more than ``MAX_TRANSFORM_WORK`` pairings in all raise
    ``work-too-large`` before any cloud is built."""
    n, d = Y.shape
    if d != source.dim:
        raise ValueError(f"dimension-mismatch: points have dim {d}, the source {source.dim}")
    _refuse_nan(Y, "a point coordinate")
    # The pairings of a row: each size-l support with each direction of its cloud.
    per_row = sum(math.comb(d, l) * (3**l - 1 + _DIRECTIONS_PER_SUBSET * (l > 1))
                  for l in levels)
    _check_work(n * per_row, "custom dual gauge", "pairings")
    out = np.zeros((n, len(levels)))
    for col, l in enumerate(levels):
        supports, dirs, values = _restricted_dual_cloud(source, l)
        step = _block_rows(n, values.size)
        for i in range(0, n, step):
            ys = np.ascontiguousarray(Y[i:i + step, supports])  # strided along K
            with np.errstate(invalid="ignore"):
                r = np.vecdot(ys[:, :, None, :], dirs)
                r /= values
            best = np.fmax.reduce(r.reshape(r.shape[0], -1), axis=1)
            out[i:i + step, col] = np.where(best > 0.0, best, 0.0)
    return out


def dual_coordinate_k_norm(y, source: SourceNormSpec, k: int,
                           method: str = "sort") -> float:
    """Dual coordinate-k norm: sup over supports K with |K| <= k of the
    restricted dual norm of y_K.

    For an lp source this equals the top-(q, k) norm with 1/p + 1/q = 1
    (``method="sort"``); ``method="enumerate"`` forces the subset-enumeration
    route (exact for lp sources, used for cross-checks).  Custom sources
    always enumerate, with sampled restricted duals, and require d <= 12:
    the first call on a spec with a given k evaluates the source at 512 +
    3^k - 1 directions on each size-k support (2 at k = 1), and later calls
    reuse that cloud, so the source must be deterministic.  A NaN coordinate
    raises ``nan-input``.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    d = y.size
    if not 1 <= k <= d:
        raise ValueError(f"k-out-of-range: need 1 <= k <= {d} (got k={k})")
    if source.kind != "lp":
        return float(_custom_dual_table(y[None], source, (k,))[0, 0])
    q = conj_exponent(source.p)
    if method == "sort":
        return top_k_norm(y, q, k)
    if method != "enumerate":
        raise ValueError(f"unknown-method: unknown method {method!r}")
    # The restricted dual of lp on a support K is lq on K, and it is
    # monotone in K, so size-k supports suffice.
    A = _abs_point(y)[0][np.array(list(itertools.combinations(range(d), k)))]
    return max(_lp_of_abs(a, m, q) for a, m in zip(A, np.maximum.reduce(A, axis=1).tolist()))


def phi_dual_gauge(y, phi: PhiSpec, source: SourceNormSpec) -> float:
    """Gauge of ``cap_l phi(l) * B_l`` where B_l is the dual coordinate-l ball.

    Computed as ``sup_l dual_coordinate_k_norm(y, source, l) / phi(l)``;
    levels with phi(l) = +inf contribute 0 (``+inf * B_l`` is all of R^d).
    The value is its row of :func:`phi_dual_gauge_batch`, bit for bit: the
    batch of the one row for a custom source, :func:`_finite_level_norms`
    for an lp one.
    """
    if source.kind != "lp":
        return float(phi_dual_gauge_batch(np.reshape(y, (1, -1)), phi, source)[0])
    norms, w = _finite_level_norms(y, phi, source)
    return max(0.0, *(n / c for n, c in zip(norms, w)))


def phi_dual_gauge_batch(Y, phi: PhiSpec, source: SourceNormSpec) -> np.ndarray:
    """Row-wise :func:`phi_dual_gauge` of an (n, d) array, bit for bit: a
    divide-and-max over a table of the dual coordinate-l norms at the levels
    with finite phi(l) (:func:`top_k_norm_table` for an lp source,
    :func:`_custom_dual_table` for a custom one).  NaN raises ``nan-input``;
    a quotient beyond the largest float is +inf, without a warning.
    """
    Y = _as_rows(Y)
    _check_phi_dim(phi, Y.shape[1])
    if source.kind == "lp":
        table = _finite_columns(top_k_norm_table(Y, conj_exponent(source.p)), phi)
    else:
        levels = range(1, phi.dim + 1)
        if phi._finite is not None:
            levels = list(itertools.compress(levels, phi._finite))
        table = _custom_dual_table(Y, source, levels)
    with np.errstate(over="ignore"):
        return np.max(table / phi._weights, axis=1, initial=0.0)


def _finite_columns(table: np.ndarray, phi: PhiSpec) -> np.ndarray:
    """The columns of a table of levels 1..d at the levels with finite
    phi(l): the table itself when every level is finite."""
    return table if phi._finite is None else table[:, phi._finite]


def _finite_level_norms(y, phi: PhiSpec, source: SourceNormSpec) -> tuple[list, list]:
    """The norms top-(q, l)(y) dual to the lp source at the levels l with
    finite phi(l), and those phi(l), as lists of floats: the row of y in
    :func:`top_k_norm_table` bit for bit.

    For q in {1, 2, inf} the levels are taken in Python floats from |y|
    sorted in descending order: each entry over the max, squared at q = 2,
    summed in order, its square root at q = 2, times the max (+inf beyond
    the largest float).  Each step is one exactly rounded IEEE operation
    and the one :func:`_top_k_table` runs there: numpy's scalar-power fast
    path makes ``t **= 2.0`` ``np.square``, ``t **= 0.5`` ``np.sqrt`` and
    ``t **= 1.0`` a copy, and ``np.add.accumulate`` sums in order.  So
    these levels have the same bits under every SIMD dispatch.  Other q
    run :func:`_top_k_table` on the point.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    _check_phi_dim(phi, y.size)
    q = conj_exponent(source.p)
    if q in (1.0, 2.0, math.inf):
        a = sorted(map(abs, y.tolist()), reverse=True)
        if math.isnan(sum(a)):  # a sum of magnitudes is NaN only where one is
            raise ValueError("nan-input: a point coordinate is NaN")
        m = a[0]
        if q == math.inf or m == 0.0 or m == math.inf:
            levels = [m] * len(a)
        else:
            t = [c / m for c in a]
            if q == 2.0:
                levels = [math.sqrt(s) * m for s in itertools.accumulate([c * c for c in t])]
            else:
                levels = [s * m for s in itertools.accumulate(t)]
    else:
        a, m = _abs_point(y, descending=True)
        if m == 0.0 or m == math.inf:
            a.fill(m)
        else:
            _top_k_table(a, m, q)
        levels = a.tolist()
    if phi._finite is not None:
        levels = list(itertools.compress(levels, phi._finite))
    return levels, phi._weights.tolist()


def _in_phi_dual_ball(Y, phi: PhiSpec, source: SourceNormSpec) -> np.ndarray:
    """Row-wise membership in the dual unit ball of the best norm below
    ``phi(l0(.))``: ``phi_dual_gauge <= 1 + 1e-12``."""
    return phi_dual_gauge_batch(Y, phi, source) <= 1.0 + 1e-12


@dataclass
class NormObject:
    """An evaluable norm with its dual gauge.

    ``evaluator`` and ``dual_evaluator`` are mutually polar up to the
    documented estimation error of the evaluator (exact when a closed form
    exists).  Both refuse a point of another number of coordinates than
    ``dim`` before evaluating it: an empty one with ``empty-point``, any
    other with ``dimension-mismatch``.
    """

    evaluator: Callable
    dual_evaluator: Callable
    exact: bool
    dim: int

    def value(self, x) -> float:
        return float(self.evaluator(self._point(x)))

    def dual_value(self, y) -> float:
        return float(self.dual_evaluator(self._point(y)))

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.size != self.dim:
            if x.size == 0:
                raise ValueError("empty-point: a point needs at least one coordinate")
            raise ValueError(f"dimension-mismatch: the norm is on R^{self.dim}, the point has "
                             f"{x.size} coordinates")
        return x


def lp_gauge_collapses(phi: PhiSpec, p: float) -> bool:
    """True when the phi-weighted dual gauge of an lp source collapses to
    ``linf / phi(1)``: phi nondecreasing for p = 1, or ``l -> phi(l)^q / l``
    nondecreasing for p > 1 (1/p + 1/q = 1)."""
    d = phi.dim
    if p == 1.0:
        seq = [phi(l) for l in range(1, d + 1)]
    else:
        q = conj_exponent(p)
        seq = [phi(l) ** q / l if math.isfinite(phi(l)) else math.inf
               for l in range(1, d + 1)]
    # Relative slack absorbs rounding of analytically constant ratios.
    return all(seq[i] <= seq[i + 1] * (1.0 + 1e-12) for i in range(len(seq) - 1))


def best_norm_object(phi: PhiSpec, source: SourceNormSpec,
                     n_directions: int = 4096) -> NormObject:
    """The tightest norm below ``phi(l0(.))`` on the source unit ball.

    Its dual gauge is :func:`phi_dual_gauge`; the primal evaluator is the
    support function of the dual unit ball.  When the lp collapse condition
    of :func:`lp_gauge_collapses` holds the primal is exactly
    ``phi(1) * l1``; otherwise it is a direction-sampled lower estimate, the
    max of ``<x, c>`` over a cloud of ``n_directions`` plus ``3^d - 1``
    points of the dual unit ball: each direction u rescaled to
    ``u / gauge(u)`` and kept when it passes ``gauge <= 1 + 1e-12``
    (:func:`_in_phi_dual_ball`).  The ball does not depend on x, so the
    cloud is built once, at the first evaluation of a nonzero x.  The
    pairing is ``np.vecdot``, which rounds each row as ``np.dot`` of that
    row does (bit for bit for d >= 2; at d = 1 a zero product is +0.0
    where ``np.dot`` gives -0.0).  Pairings that are NaN, from an infinite
    coordinate times a zero one, are skipped, so an infinite coordinate
    gives +inf.  When a pairing overflows on a finite x, the cloud is paired
    with ``x / max|x|`` and the max scaled back, +inf without a warning
    beyond the largest float.
    """
    _check_phi_dim(phi, source.dim)
    dual = functools.partial(phi_dual_gauge, phi=phi, source=source)
    if source.kind == "lp" and lp_gauge_collapses(phi, source.p):
        scale = phi(1)
        return NormObject(lambda x: scale * lp_value(x, 1.0), dual, True, source.dim)

    cloud = None

    def primal(x):
        nonlocal cloud
        m = _abs_point(x)[1]
        if m == 0.0:
            return 0.0
        if cloud is None:
            patterns = sign_patterns(source.dim)  # refused before the directions
            U = np.vstack([unit_directions(n_directions, source.dim), patterns])
            g = phi_dual_gauge_batch(U, phi, source)
            keep = (g > 0.0) & (g < math.inf)
            C = U[keep] / g[keep, None]
            cloud = C[_in_phi_dual_ball(C, phi, source)]
        with np.errstate(over="ignore", invalid="ignore"):
            dots = np.vecdot(cloud, x)
            if m < math.inf and not np.isfinite(dots).all():
                # A pairing overflowed: pair with x / max|x| and scale back.
                return float(np.fmax.reduce(np.vecdot(cloud, x / m))) * m
            return float(np.fmax.reduce(dots))

    return NormObject(primal, dual, False, source.dim)


def parse_config(obj: dict, dim: int) -> dict:
    """Parse a JSON config object into norm specs of dimension ``dim``.

    Accepts ``{"source": {"lp": 2}, "phi": [0, 1, 2]}``; both keys are
    optional.  A phi of another dimension than ``dim`` raises
    ``invalid-phi``.  Exponents and weights are numbers or strings that
    ``float`` reads, so ``"inf"``, ``"+inf"`` and ``"Infinity"`` all give
    +inf.  A config that is not an object, that has any other key, or whose
    ``source`` is not an object with such an ``lp``, raises
    ``invalid-config``.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"invalid-config: a config must be a JSON object (got {obj!r})")
    if not set(obj) <= {"source", "phi"}:
        raise ValueError(f"invalid-config: a config has only source and phi (got {sorted(obj)})")
    out: dict = {"source": None, "phi": None}
    if obj.get("phi") is not None:
        out["phi"] = PhiSpec.from_values(obj["phi"])
        _check_phi_dim(out["phi"], dim)
    spec = obj.get("source")
    if spec is not None:
        if not isinstance(spec, dict) or "lp" not in spec:
            raise ValueError(f'invalid-config: source must be {{"lp": p}} (got {spec!r})')
        try:
            p = float(spec["lp"])
        except (TypeError, ValueError):
            raise ValueError(f"invalid-config: source lp must be a number "
                             f"(got {spec['lp']!r})") from None
        out["source"] = SourceNormSpec.lp(p, dim)
    return out
