"""Independent numpy references for the benchmark's correctness checks.

Nothing here imports capra: every check compares a library output with a
value computed by a different route (a closed form, a dual certificate or a
literal loop), at the tolerance the library's own verification suites use
for the same identity.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)


def lp(x, p: float) -> float:
    a = np.abs(np.asarray(x, dtype=float).reshape(-1))
    if p == math.inf:
        return float(a.max())
    return float(np.sum(a ** p) ** (1.0 / p))


def lp_rows(X, p: float) -> np.ndarray:
    a = np.abs(np.asarray(X, dtype=float))
    if p == math.inf:
        return a.max(axis=1)
    return np.sum(a ** p, axis=1) ** (1.0 / p)


def conj_exp(p: float) -> float:
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def top_k(y, q: float, k: int) -> float:
    a = np.sort(np.abs(np.asarray(y, dtype=float)))[::-1]
    return lp(a[:k], q)


def k_support(x, p: float, k: int) -> float:
    """Coordinate-k norm of the lp source for p in {1, 2, inf}.

    p = 1 and p = inf are the Table-1 closed forms.  For p = 2 the value is
    the best of the dual certificates y_r (the r+1 smallest active
    magnitudes replaced by their tail mean), each scored honestly as
    ``<x, y_r> / top-(2, k)(y_r)``; the right split attains the norm.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if p == 1.0:
        return lp(x, 1.0)
    if p == math.inf:
        return max(lp(x, 1.0) / k, lp(x, math.inf))
    z = np.sort(np.abs(x))[::-1]
    best = 0.0
    for r in range(k):
        head = k - r - 1
        y = z.copy()
        y[head:] = z[head:].sum() / (r + 1)
        t = top_k(y, 2.0, k)
        if t > 0.0:
            best = max(best, float(z @ y) / t)
    return best


def phi_gauge(y, phi: np.ndarray, q: float) -> float:
    """``max_l top-(q, l)(y) / phi(l)`` over the finite levels l >= 1."""
    best = 0.0
    for level in range(1, phi.size):
        if math.isfinite(phi[level]):
            best = max(best, top_k(y, q, level) / phi[level])
    return best


def capra_l0_conj(y, phi: np.ndarray, q: float) -> float:
    """Capra conjugate of phi(l0) for an lp normalization, p >= 1."""
    terms = [top_k(y, q, level) - phi[level] for level in range(1, phi.size)]
    return max(0.0, max(terms))


def conjugate_rows(points: np.ndarray, values: np.ndarray, duals: np.ndarray) -> np.ndarray:
    """Literal discrete conjugate, one dual row at a time."""
    out = np.empty(duals.shape[0])
    keep = ~np.isposinf(values)
    pts, vals = points[keep], values[keep]
    for j, y in enumerate(duals):
        out[j] = np.max(pts @ y - vals) if pts.shape[0] else -math.inf
    return out


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(b))


def same_extended(out: np.ndarray, ref: np.ndarray, tol: np.ndarray) -> bool:
    """Identical +-inf pattern and finite entries within ``tol``."""
    out = np.asarray(out, dtype=float)
    if out.shape != ref.shape or np.isnan(out).any():
        return False
    inf = np.isinf(ref)
    if not np.array_equal(np.isinf(out), inf) or not np.array_equal(out[inf], ref[inf]):
        return False
    return bool(np.all(np.abs(out[~inf] - ref[~inf]) <= np.broadcast_to(tol, ref.shape)[~inf]))
