"""User-supplied functions (a custom nu, f or source, and the ``fn`` of
``numerics.sample``) are called in one place, ``numerics._evaluate_rows``,
which takes one real number per row and refuses anything else by name."""

import ast
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import capra
from capra import conjugacy, numerics
from capra._directions import sign_patterns, unit_directions
from capra.conjugacy import (
    CouplingSpec,
    ZeroHomFnSpec,
    build_sphere_sample,
    capra_conjugate,
    capra_conjugate_direct,
)
from capra.norms import (
    NormalizationSpec,
    PhiSpec,
    SourceNormSpec,
    best_norm_object,
    dual_coordinate_k_norm,
)
from capra.numerics import build_grid

SRC = Path(capra.__file__).parent
EVALUATOR = "_evaluate_rows"


def _l1(x):
    return float(np.abs(x).sum())


_GRID = build_grid([(-1.0, 1.0)] * 2, [5, 5])
_LP2 = CouplingSpec(NormalizationSpec.lp(2.0))


# Each failure twice: a spec with fn alone, whose row values are not one
# number, and one with a batch that gives other than one number per row.  A
# source takes fn alone, so its two variants are its two entry points.
@pytest.mark.parametrize("run", [
    lambda: NormalizationSpec.custom(np.abs).value([1.0, 2.0]),
    lambda: NormalizationSpec.custom(_l1, batch=lambda X: 1.0).value([1.0, 2.0]),
    lambda: NormalizationSpec.custom(lambda x: None).batch(np.ones((3, 2))),
    lambda: NormalizationSpec.custom(_l1, batch=lambda X: np.ones(1)).batch(np.ones((3, 2))),
    # At the origin, where no positive value is required, None was a silent NaN.
    lambda: NormalizationSpec.custom(lambda x: None).batch(np.zeros((2, 2))),
    lambda: NormalizationSpec.custom(_l1, batch=lambda X: [None] * len(X)).batch(np.zeros((2, 2))),
    lambda: capra_conjugate_direct(ZeroHomFnSpec.custom(np.abs), _LP2, [1.0, 0.5], _GRID),
    lambda: capra_conjugate_direct(ZeroHomFnSpec.custom(lambda x: 0.0, batch=lambda X: np.zeros(3)),
                                   _LP2, [1.0, 0.5], _GRID),
    lambda: ZeroHomFnSpec.custom(lambda x: [0.0]).batch(np.ones((4, 2))),
    lambda: ZeroHomFnSpec.custom(lambda x: 0.0, batch=lambda X: np.zeros((len(X), 1))).batch(
        np.ones((4, 2))),
    lambda: dual_coordinate_k_norm([1.0, 2.0], SourceNormSpec.custom(np.abs, 2), 1),
    lambda: best_norm_object(PhiSpec.identity(2), SourceNormSpec.custom(np.abs, 2)).value(
        [1.0, 2.0]),
    lambda: numerics.sample(np.abs, _GRID),
    lambda: numerics.sample(lambda x: (1.0, 2.0)[: 1 + int(x[0] > 0)], _GRID),
], ids=["nu-value-fn", "nu-value-batch", "nu-batch-fn", "nu-batch-batch", "nu-none-fn",
        "nu-none-batch", "f-direct-fn", "f-direct-batch", "f-batch-fn", "f-batch-batch",
        "source-dual-coordinate", "source-best-norm", "sample-fn-vector", "sample-fn-ragged"])
def test_values_that_are_not_one_number_per_row_raise_invalid_shape(run):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^invalid-shape: "):
            run()


def test_accepted_values_keep_their_bits():
    # Python and numpy floats and ints, bools and 0-d arrays, from fn one row
    # at a time and from a batch: the floats that float() gives each value.
    X = np.random.default_rng(4).standard_normal((6, 2)) * 3.0
    row_values = [lambda x: float(np.abs(x).sum()), lambda x: np.float32(np.abs(x).sum()),
                  lambda x: int(10 * np.abs(x).sum()) + 1, lambda x: np.int64(7),
                  lambda x: True, lambda x: np.array(np.abs(x).sum() / 3.0),
                  lambda x: (0.1, np.float32(0.1), 3)[int(x[0] > 0) + int(x[1] > 0)]]
    for fn in row_values:
        want = np.array([float(fn(x)) for x in X])
        for spec in (NormalizationSpec.custom(fn), ZeroHomFnSpec.custom(fn),
                     NormalizationSpec.custom(fn, batch=lambda X, fn=fn: [fn(x) for x in X])):
            assert spec.batch(X).tobytes() == want.tobytes()
        assert SourceNormSpec.custom(fn, 2).value(X[0]) == want[0]
        assert numerics.sample(fn, _GRID).values.tobytes() == np.array(
            [float(fn(x)) for x in _GRID.nodes]).tobytes()
    for batch in (lambda X: np.abs(X).sum(axis=1).astype(np.float32),
                  lambda X: np.arange(1, len(X) + 1), lambda X: (np.abs(X) > 1.0).any(axis=1)):
        want = np.asarray(batch(X), dtype=float)
        assert ZeroHomFnSpec.custom(_l1, batch=batch).batch(X).tobytes() == want.tobytes()


def _user_calls(source: str) -> list:
    """``(line, text)`` of each place in ``source`` that may call a spec's
    ``fn`` or ``batch_fn`` outside the evaluator: a call of the attribute, a
    load of it other than as an argument of an evaluator call, and a call of
    a name ``fn`` or ``batch_fn`` outside the evaluator's body."""
    tree = ast.parse(source)
    passed, inside = set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == EVALUATOR):
            passed.update(id(arg) for arg in node.args)
        if isinstance(node, ast.FunctionDef) and node.name == EVALUATOR:
            inside.update(id(sub) for sub in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("fn", "batch_fn")
                and isinstance(node.ctx, ast.Load) and id(node) not in passed):
            found.append((node.lineno, ast.unparse(node)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("fn", "batch_fn") and id(node) not in inside):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_scan_finds_every_call_outside_the_evaluator():
    source = "\n".join([
        "def _evaluate_rows(fn, batch_fn, X, what):",
        "    return batch_fn(X) if batch_fn is not None else [fn(row) for row in X]",
        "vals = _evaluate_rows(self.fn, self.batch_fn, X, 'nu')",
        "vals = self.batch_fn(X)",
        "g = spec.fn",
        "def other(fn):",
        "    return fn(1.0)",
        "vals = _evaluate_rows(lambda x: self.fn(x), None, X, 'f')",
    ])
    assert [line for line, _ in _user_calls(source)] == [4, 5, 7, 8]


def test_only_the_evaluator_calls_user_functions():
    found = [f"{path.name}:{line}: {text}" for path in sorted(SRC.glob("*.py"))
             for line, text in _user_calls(path.read_text(encoding="utf-8"))]
    assert found == []
    assert sum(f"def {EVALUATOR}(" in path.read_text(encoding="utf-8")
               for path in SRC.glob("*.py")) == 1
    assert not hasattr(conjugacy, "_sphere_route")


def _sample_by_parts(nu, dim, count):
    """The sphere sample built piece by piece, each piece normalized on its
    own (the signed axes one at a time by ``nu.value``), then stacked."""
    rows = [np.zeros((1, dim))]
    for i in range(dim):
        for s in (1.0, -1.0):
            e = np.zeros((1, dim))
            e[0, i] = s
            rows.append(e / nu.value(e[0]))
    if dim >= 2:
        corners = sign_patterns(dim)
        corners = corners[np.count_nonzero(corners, axis=1) >= 2]
        rows.append(corners / nu.batch(corners)[:, None])
    used = sum(r.shape[0] for r in rows)
    for m in range(2, dim + 1):
        subsets = list(itertools.combinations(range(dim), m))
        if m == dim:
            per = max(2 * dim, count - used)
        else:
            per = max(4 * m, 2 * int(round(count ** ((m - 1) / (dim - 1)))))
        used += per * len(subsets)
        dirs = unit_directions(per, m)
        for K in subsets:
            z = np.zeros((per, dim))
            z[:, list(K)] = dirs
            rows.append(z / nu.batch(z)[:, None])
    return np.vstack(rows)


@pytest.mark.parametrize("nu", [
    *(NormalizationSpec.lp(p) for p in (0.5, 1.0, 1.5, 2.0, 3.0, math.inf)),
    NormalizationSpec.custom(_l1),
    NormalizationSpec.custom(lambda v: float(np.sqrt(v @ v)),
                             batch=lambda X: np.sqrt((X * X).sum(axis=1))),
], ids=["lp0.5", "lp1", "lp1.5", "lp2", "lp3", "lpinf", "custom-fn", "custom-batch"])
def test_one_array_sample_equals_the_sample_by_parts(nu):
    for dim, count in itertools.product(range(1, 5), (64, 1000)):
        got = build_sphere_sample(nu, dim, count)
        assert got.flags.writeable and got.tobytes() == _sample_by_parts(nu, dim, count).tobytes()


def test_sphere_sample_calls_nu_once(monkeypatch):
    calls = []
    for name in ("value", "batch"):
        method = getattr(NormalizationSpec, name)
        monkeypatch.setattr(NormalizationSpec, name,
                            lambda self, x, name=name, method=method:
                            calls.append(name) or method(self, x))
    for dim in (1, 2, 4):
        calls.clear()
        build_sphere_sample(NormalizationSpec.lp(2.0), dim, 500)
        assert calls == ["batch"]


def test_sphere_sample_work_cap(monkeypatch):
    # rows x dim floats are counted before any direction or row is built: 64
    # rows of 2 at d = 2 and count = 64.
    nu = NormalizationSpec.lp(2.0)
    monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", 127)
    with pytest.raises(ValueError, match="^work-too-large: sphere sample needs 128 floats"):
        build_sphere_sample(nu, 2, 64)
    monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", 128)
    assert build_sphere_sample(nu, 2, 64).shape == (64, 2)


def test_capra_conjugate_takes_one_point_or_rows():
    # One point gives a float; an (n, d) array gives n values, each the bits
    # of its row alone.
    nu = NormalizationSpec.lp(1.5)
    f = ZeroHomFnSpec.custom(lambda x: float(np.count_nonzero(x)))
    sample = build_sphere_sample(nu, 2, 500)
    Y = np.random.default_rng(6).uniform(-3.0, 3.0, (20, 2))
    rows = capra_conjugate(f, CouplingSpec(nu), Y, sample)
    assert rows.shape == (20,)
    for y, v in zip(Y, rows):
        one = capra_conjugate(f, CouplingSpec(nu), y, sample)
        assert type(one) is float and np.float64(one).tobytes() == v.tobytes()
