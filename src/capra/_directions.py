"""Deterministic direction sets used by sphere sampling and brute-force oracles."""

from __future__ import annotations

import math

import numpy as np

from .numerics import _check_work


def kronecker_sequence(count: int, dim: int) -> np.ndarray:
    """Low-discrepancy points in [0, 1)^dim (additive recurrence).

    The generator vector is built from the root of ``x**(dim+1) = x + 1``;
    the sequence is fully deterministic and needs no seed.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = np.array([phi ** -(k + 1) for k in range(dim)])
    idx = np.arange(1, count + 1, dtype=float)[:, None]
    return np.mod(0.5 + idx * alpha[None, :], 1.0)


def unit_directions(count: int, dim: int) -> np.ndarray:
    """Deterministic quasi-uniform points on the Euclidean unit sphere."""
    if dim < 1:
        raise ValueError(f"invalid-dim: dimension must be >= 1 (got {dim})")
    if dim == 1:
        reps = (count + 1) // 2
        out = np.tile([[1.0], [-1.0]], (reps, 1))[:count]
        return out
    if dim == 2:
        theta = 2.0 * math.pi * kronecker_sequence(count, 1)[:, 0]
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if dim == 3:
        # Fibonacci sphere lattice: near-optimal covering radius ~ 3/sqrt(n).
        i = np.arange(count, dtype=float)
        z = 1.0 - (2.0 * i + 1.0) / count
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        theta = 2.0 * math.pi * np.mod(i * golden, 1.0)
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
        return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    # Box-Muller on low-discrepancy inputs, then radial normalization.
    pairs = (dim + 1) // 2
    u = kronecker_sequence(count, 2 * pairs)
    u1 = np.clip(u[:, :pairs], 1e-12, 1.0)
    u2 = u[:, pairs:]
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty((count, 2 * pairs))
    z[:, 0::2] = r * np.cos(2.0 * math.pi * u2)
    z[:, 1::2] = r * np.sin(2.0 * math.pi * u2)
    z = z[:, :dim]
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    return z / norms[:, None]


def sign_patterns(dim: int) -> np.ndarray:
    """All nonzero vectors in ``{-1, 0, 1}^dim``.

    These are the extreme directions of the cube/cross-polytope family, so
    direction clouds augmented with them attain polyhedral support functions
    exactly.  Rows come in ``itertools.product`` order; above
    ``MAX_TRANSFORM_WORK`` floats (``3^dim dim``) ``work-too-large`` is raised
    before any is built.
    """
    _check_work(3**dim * dim, "sign patterns", "floats")
    pts = np.indices((3,) * dim).reshape(dim, 3**dim).T - 1.0
    return pts[np.any(pts != 0.0, axis=1)]
