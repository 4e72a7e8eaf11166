"""Extended-real arithmetic with Moreau additions, and uniform sample grids.

The default dual grid is sized by the largest finite |value| of the
function transformed, or 1.0 when it has none (:func:`_finite_scale`).

Values live in [-inf, +inf].  The two infinities are IEEE-754 specials, so
the only case ordinary ``+`` cannot decide, ``(+inf) + (-inf)``, is resolved
by branch in :func:`low_add` / :func:`upp_add` and never by rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "as_extreal",
    "low_add",
    "upp_add",
    "Grid",
    "build_grid",
    "FunctionSample",
    "sample",
    "format_extreal",
    "write_sample_csv",
    "read_sample_csv",
    "default_dual_grid",
]

# Rows per write of write_sample_csv: the text of one block is a few hundred
# KB at most.
_CSV_BLOCK_ROWS = 4096

# The work budget of one step: the max-plus updates of one transform (pairs
# to scattered points, the axis-pass elements that run on product grids), the
# pairs of the oracle conjugate, or the floats of a node or direction array.
# One core does 3e8-5e8 updates a second, so a step stays within about 10 s;
# above the budget it is refused with ``work-too-large`` before it starts.
MAX_TRANSFORM_WORK = 2_000_000_000

# Floats per block of every blocked kernel (512 KB, within a core's L2
# cache).  The grid transform ran 15-30 % faster than at 2^20, the point
# transform 3-6x faster than at 2^24, and the referee's envelope-suite
# calls 0.28-0.31 s against 0.31-0.47 s at 2^14, 2^15 and 2^17.
_BLOCK_FLOATS = 1 << 16


def _block_rows(rows: int, per_row: int) -> int:
    """Rows of ``per_row`` floats per block: at least one, at most ``rows``."""
    return max(1, min(rows, _BLOCK_FLOATS // per_row))


def _check_work(work: int, what: str, unit: str = "updates") -> None:
    if work > MAX_TRANSFORM_WORK:
        raise ValueError(f"work-too-large: {what} needs {work:.3g} {unit}, "
                         f"over the cap of {MAX_TRANSFORM_WORK:.3g}")


def _check_pairing(xmax: float, ymax1: float, fmax: float, what: str) -> float:
    """Refuse with ``pairing-overflow`` scores ``<x, y> - f(x)`` whose bound
    ``max|x| max|y|_1 + max|f|`` is not finite, and return the bound.  It is
    computed in Python floats, which overflow to inf without a warning."""
    xmax, ymax1, fmax = float(xmax), float(ymax1), float(fmax)
    bound = (xmax * ymax1 if xmax > 0.0 else 0.0) + fmax
    if not math.isfinite(bound):
        raise ValueError(f"pairing-overflow: {what} scores reach max|x| |y|_1 + max|f| = "
                         f"{xmax:.3g} * {ymax1:.3g} + {fmax:.3g}, beyond the largest float")
    return bound


def _fold_axes(grids, values: np.ndarray | None = None) -> list:
    """Per axis: does a transform of ``values`` (shaped by the counts of
    ``grids[0]``) through ``grids`` fold it?  It does when the axis is
    sign-symmetric (``ax == -ax[::-1]``) on every grid and the values are
    even along it, in value (``-0.0`` and ``0.0`` are equal); values of
    None, as for input even by construction, fold every sign-symmetric
    axis."""
    return [all(np.array_equal(ax, -ax[::-1]) for ax in axes)
            and (values is None or np.array_equal(values, np.flip(values, k)))
            for k, axes in enumerate(zip(*(grid.axes for grid in grids)))]


def _half_index(counts, fold) -> tuple:
    """The index of the non-negative half (the last ``m - m // 2`` nodes of
    m) of each folded axis of an array of shape ``counts``, and of the whole
    of each other axis."""
    return tuple(slice(m // 2, None) if f else slice(None) for m, f in zip(counts, fold))


def _unfold(half: np.ndarray, counts, fold) -> np.ndarray:
    """A new array of shape ``counts`` from ``half``, its
    :func:`_half_index` part: node j of a folded axis of m nodes reads half
    node ``max(j, m - 1 - j) - m // 2``, its own or its mirror image's."""
    return half[np.ix_(*(np.maximum(np.arange(m), np.arange(m)[::-1]) - m // 2 if f
                         else np.arange(m) for m, f in zip(counts, fold)))]


def _axis_magnitudes(axes) -> tuple[list, list]:
    """Each axis's distinct magnitudes |x|, ascending, and the index of
    each node's magnitude: ``(magnitudes, inverses)``.  On a sign-symmetric
    axis the magnitudes are its non-negative half."""
    folds = [np.unique(np.abs(ax), return_inverse=True) for ax in axes]
    return [m for m, _ in folds], [inv for _, inv in folds]


def _on_magnitudes(row_fn: Callable, magnitudes, per_row: int, dtype=float) -> np.ndarray:
    """``row_fn`` on the rows of the product of ``magnitudes`` (the first
    output of :func:`_axis_magnitudes`), shaped by their sizes: its value at
    ``orthant[np.ix_(*inverses)]`` is the value at each node's own row when
    ``row_fn`` computes each row on its own.  The rows are built from the
    axes and evaluated in blocks of ``_block_rows(total, per_row)``, so no
    array of every row is built."""
    shape = tuple(m.size for m in magnitudes)
    out = np.empty(math.prod(shape), dtype=dtype)
    step = _block_rows(out.size, per_row)
    for start in range(0, out.size, step):
        stop = min(start + step, out.size)
        index = np.unravel_index(np.arange(start, stop), shape)
        out[start:stop] = row_fn(np.stack([m[i] for m, i in zip(magnitudes, index)], axis=1))
    return out.reshape(shape)


def _axis_extent(grid: Grid) -> tuple[float, float]:
    """``max|x|`` and ``max|x|_1`` over the nodes of ``grid``, from its axes."""
    tops = [float(np.abs(ax).max()) for ax in grid.axes]
    return max(tops), sum(tops)


# numpy reduces an (n, d) array over its short rows several times slower than
# it combines its d columns (at 10k x 2, about 270 us against 40 us on a
# 2-vCPU VM, numpy 2.4), so these integer and boolean row reductions run
# column by column; neither rounds.

def _nonzero_rows(X: np.ndarray) -> np.ndarray:
    """``np.any(X != 0.0, axis=1)`` for a 2-d X, one column at a time."""
    mask = np.zeros(len(X), dtype=bool)
    for k in range(X.shape[1]):
        mask |= X[:, k] != 0.0
    return mask


def _count_nonzero_rows(X: np.ndarray) -> np.ndarray:
    """``np.count_nonzero(X, axis=1)`` for a 2-d X, one column at a time."""
    counts = np.zeros(len(X), dtype=np.intp)
    for k in range(X.shape[1]):
        counts += X[:, k] != 0.0
    return counts


def as_extreal(value) -> float:
    """Coerce ``value`` to a float in [-inf, +inf]; NaN raises ``nan-input``."""
    v = float(value)
    if math.isnan(v):
        raise ValueError("nan-input: extended real must be finite, +inf or -inf (got nan)")
    return v


def _as_rows(X) -> np.ndarray:
    """X as a 2-d float array of row vectors; any other shape raises
    ``invalid-shape``."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("invalid-shape: expected a 2-d array of row vectors")
    return X


def _evaluate_rows(fn: Callable | None, batch_fn: Callable | None, X: np.ndarray,
                   what: str) -> np.ndarray:
    """The one call of a user's function ``what`` at the rows of the 2-d X:
    ``batch_fn(X)`` if given, else ``fn`` at each row.  One real number per
    row (Python or numpy floats, ints or bools, 0-d arrays) comes back as
    floats with its bits; anything else, None included, raises
    ``invalid-shape``.  Each caller applies its own value rule."""
    raw = batch_fn(X) if batch_fn is not None else [fn(row) for row in X]
    try:
        vals = np.asarray(raw)
    except ValueError:  # a ragged sequence
        vals = None
    if vals is None or vals.shape != (len(X),) or vals.dtype.kind not in "biuf":
        got = "a ragged sequence" if vals is None else f"shape {vals.shape}, dtype {vals.dtype}"
        raise ValueError(f"invalid-shape: {what} must give one real number per row, "
                         f"{len(X)} in all (got {got})")
    return vals.astype(float, copy=False)


def _refuse_nan(a: np.ndarray, what: str) -> None:
    """The array-level NaN check: raises ``nan-input`` when ``a`` holds a
    NaN (``what`` names the entry, e.g. "a point coordinate")."""
    if np.isnan(a).any():
        raise ValueError(f"nan-input: {what} is NaN")


def _refuse_nonfinite(a: np.ndarray, what: str) -> None:
    """:func:`_refuse_nan`, then ``nonfinite-input`` when ``a`` holds +-inf
    (``what`` names whose coordinate it is).  Finite input pays for one
    ``np.isfinite`` reduction; the tagged checks run only when it fails."""
    if not np.isfinite(a).all():
        _refuse_nan(a, f"{what} coordinate")
        raise ValueError(f"nonfinite-input: {what} coordinate is infinite")


def low_add(a, b) -> float:
    """Moreau lower addition: ordinary sum with (+inf) + (-inf) = -inf."""
    a = as_extreal(a)
    b = as_extreal(b)
    if math.isinf(a) and math.isinf(b) and (a > 0.0) != (b > 0.0):
        return -math.inf
    return a + b


def upp_add(a, b) -> float:
    """Moreau upper addition: ordinary sum with (+inf) + (-inf) = +inf."""
    a = as_extreal(a)
    b = as_extreal(b)
    if math.isinf(a) and math.isinf(b) and (a > 0.0) != (b > 0.0):
        return math.inf
    return a + b


def _axis(lower: float, upper: float, count: int) -> np.ndarray:
    if count < 2:
        raise ValueError(f"invalid-bounds: axis point count must be >= 2 (got {count})")
    if not lower < upper:
        raise ValueError(
            f"invalid-bounds: axis requires lower < upper (got [{lower}, {upper}])"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        if lower == -upper:
            # Symmetric axes are built from the midpoint outward so that 0 is
            # an exact node and integer multiples of the step stay exact.
            c = (count - 1) / 2.0
            ax = (np.arange(count) - c) * (upper / c)
            ax[0] = lower
            ax[-1] = upper
        else:
            ax = np.linspace(lower, upper, count)
    if not (np.isfinite(ax).all() and (ax[1:] > ax[:-1]).all()):
        raise ValueError(f"invalid-bounds: the {count} nodes of [{lower}, {upper}] are not "
                         f"finite and strictly increasing")
    ax.flags.writeable = False
    return ax


@dataclass
class Grid:
    """Uniform axis-aligned lattice over a box in R^d.

    Nodes are enumerated row-major: the last axis varies fastest, so node
    ``i`` has multi-index ``np.unravel_index(i, counts)``.  Instances are
    immutable after construction, and equal when their bounds and counts
    are.

    Parameters
    ----------
    lowers, uppers : tuple of float
        Per-axis bounds, ``lowers[k] < uppers[k]``.
    counts : tuple of int
        Per-axis node counts, each >= 2.
    """

    lowers: tuple
    uppers: tuple
    counts: tuple
    axes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.lowers = tuple(float(v) for v in self.lowers)
        self.uppers = tuple(float(v) for v in self.uppers)
        self.counts = tuple(int(n) for n in self.counts)
        if not (len(self.lowers) == len(self.uppers) == len(self.counts)):
            raise ValueError("invalid-bounds: bounds and counts must have equal length")
        if not self.counts:
            raise ValueError("invalid-bounds: grid needs at least one axis")
        self.axes = tuple(
            _axis(lo, hi, n) for lo, hi, n in zip(self.lowers, self.uppers, self.counts)
        )
        self._nodes = None

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def node_count(self) -> int:
        return int(np.prod(self.counts))

    @property
    def steps(self) -> tuple:
        """Per-axis spacing h."""
        return tuple(
            (hi - lo) / (n - 1) for lo, hi, n in zip(self.lowers, self.uppers, self.counts)
        )

    @property
    def nodes(self) -> np.ndarray:
        """All nodes as an (node_count, dim) array, row-major order; refused over budget."""
        if self._nodes is None:
            _check_work(self.node_count * self.dim, "node array", "floats")
            mesh = np.meshgrid(*self.axes, indexing="ij")
            pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
            pts.flags.writeable = False
            self._nodes = pts
        return self._nodes

    def nearest_index(self, point) -> int:
        """Flat index of the node nearest to ``point`` (clipped to the box).
        A NaN coordinate raises ``nan-input``, an infinite one
        ``nonfinite-input``.

        Coordinates are clipped to the box first, so ``x - lower`` never
        exceeds the width.  Every axis keeps ``round((x - lower) / h)``, ties
        included, but one wider than the largest float (whose step is inf):
        there the coordinate and the bounds are halved first, so the width
        and the step are finite."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"dimension-mismatch: point must have shape ({self.dim},) "
                             f"(got {point.shape})")
        _refuse_nonfinite(point, "a point")
        multi = []
        for x, lo, hi, h, n in zip(point.tolist(), self.lowers, self.uppers, self.steps,
                                   self.counts):
            x = min(max(x, lo), hi)
            if math.isinf(h):
                t = (x / 2 - lo / 2) / ((hi / 2 - lo / 2) / (n - 1))
            else:
                t = (x - lo) / h
            multi.append(min(round(t), n - 1))
        return int(np.ravel_multi_index(tuple(multi), self.counts))


def build_grid(bounds: Sequence, counts: Sequence[int]) -> Grid:
    """Build a uniform grid from per-axis ``(lower, upper)`` pairs and counts."""
    bounds = list(bounds)
    lowers = [b[0] for b in bounds]
    uppers = [b[1] for b in bounds]
    return Grid(tuple(lowers), tuple(uppers), tuple(counts))


def default_dual_grid(dim: int, scale: float, step: float = 1.0 / 16.0) -> Grid:
    """Symmetric grid used as the dual domain of grid conjugations.

    The half-range is ``max(2, ceil(2 * (1 + scale)))`` so the supporting
    slopes of functions with finite values up to ``scale`` on the unit ball
    are covered.  The default step is a power of two, which keeps integer
    dual points (in particular the ±1 sign lattice) exact nodes.
    """
    if not math.isfinite(scale):
        scale = 1.0
    reach = max(2.0, 2.0 * (1.0 + max(scale, 0.0)))
    # A float bound of the count, refused before math.ceil can meet an inf:
    _check_work(2.0 * (reach + 1.0) / step + 1.0, "default dual grid", "nodes per axis")
    radius = int(math.ceil(reach))
    per_axis = int(round(2 * radius / step)) + 1
    return Grid((-float(radius),) * dim, (float(radius),) * dim, (per_axis,) * dim)


def _finite_scale(values) -> float:
    """The ``scale`` of :func:`default_dual_grid` for a function with these
    values: the largest finite |value|, or 1.0 when there is none."""
    a = np.asarray(values, dtype=float)
    finite = a[np.isfinite(a)]
    return float(np.abs(finite).max()) if finite.size else 1.0


@dataclass(eq=False)
class FunctionSample:
    """Extended-real values of a function on the nodes of a :class:`Grid`.

    ``values[i]`` is the value at ``grid.nodes[i]``; entries may be ±inf but
    never NaN (``nan-input``).  Indicator functions are encoded as 0 / +inf values.  ``==``
    is identity.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if vals.shape[0] != self.grid.node_count:
            raise ValueError(f"invalid-sample: values length {vals.shape[0]} does not match "
                             f"node count {self.grid.node_count}")
        _refuse_nan(vals, "a sample value")
        vals = vals.copy()
        vals.flags.writeable = False
        self.values = vals

    def value_near(self, point) -> float:
        """Value at the node nearest to ``point``."""
        return float(self.values[self.grid.nearest_index(point)])


def sample(fn: Callable, grid: Grid) -> FunctionSample:
    """Evaluate ``fn`` at every grid node (row-major order); a value that is
    not one real number raises ``invalid-shape``."""
    return FunctionSample(grid, _evaluate_rows(fn, None, grid.nodes, "fn"))


def format_extreal(v: float, finite: Callable = repr):
    """The written form of an extended real: ``+inf`` / ``-inf`` for the
    infinities, ``finite(v)`` otherwise.

    Sample CSVs, surface JSON summaries and CLI output all write infinities
    this way; ``float`` (and :func:`as_extreal`) reads them back.
    """
    if v == math.inf:
        return "+inf"
    if v == -math.inf:
        return "-inf"
    return finite(v)


def write_sample_csv(sample: FunctionSample, path) -> None:
    """Write one row per node with columns ``x_1..x_d,value``.

    Coordinates and finite values are written by ``repr``, infinities as the
    literals ``+inf`` / ``-inf`` (:func:`format_extreal`).  Each axis value
    is formatted once, with its ``,``; each distinct value is formatted once
    too, with its newline, told apart by bit pattern so that ``-0.0`` and
    ``0.0`` keep their own text (a 201x201 envelope holds 853 distinct
    values in 40,401 nodes).  Rows are written in blocks of at most
    ``_CSV_BLOCK_ROWS``.  The texts sit in one object table, axis by axis and
    then the values, and a block's cells are one gather of that table into a
    ``(rows, d + 1)`` object array: a coordinate's index is its axis's
    offset plus its node's multi-index (``np.unravel_index``, row-major).
    The block is written by one ``"".join``, so no node array is built, and
    the writer holds the table and one block of text, never a string per
    node.
    """
    grid = sample.grid
    bits, which = np.unique(sample.values.view(np.int64), return_inverse=True)
    table = np.array([repr(c) + "," for ax in grid.axes for c in ax.tolist()]
                     + [format_extreal(v) + "\n" for v in bits.view(np.float64).tolist()],
                     dtype=object)
    offsets = np.cumsum([0, *grid.counts])
    which += offsets[-1]
    header = ",".join(f"x_{k + 1}" for k in range(grid.dim)) + ",value\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header)
        for start in range(0, which.size, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, which.size)
            index = np.empty((stop - start, grid.dim + 1), dtype=np.intp)
            for k, idx in enumerate(np.unravel_index(np.arange(start, stop), grid.counts)):
                np.add(idx, offsets[k], out=index[:, k])
            index[:, -1] = which[start:stop]
            fh.write("".join(table[index].ravel().tolist()))


def read_sample_csv(path):
    """Read a sample CSV; returns ``(points, values)`` arrays.

    Values are read by :func:`as_extreal`: NaN is refused, and infinities
    may be spelled in any way ``float`` accepts (``+inf``, ``-inf``, ``inf``,
    ``Infinity``, any case).
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if header[-1] != "value" or not header[0].startswith("x_"):
            raise ValueError(f"invalid-sample: unrecognized sample CSV header: {header}")
        d = len(header) - 1
        pts, vals = [], []
        for line in fh:
            cells = line.strip().split(",")
            if len(cells) != d + 1:
                raise ValueError(f"invalid-sample: malformed sample CSV row: {line!r}")
            pts.append([float(c) for c in cells[:d]])
            vals.append(as_extreal(cells[d]))
    return np.asarray(pts, dtype=float), np.asarray(vals, dtype=float)
