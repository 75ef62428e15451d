"""Spherical grids obtained by normalizing the integer points of a cube shell.

The grid for covering radius r on the sphere S^n consists of the integer
points of sup-norm M = ceil(sqrt(n)/r), the shell order, projected radially
onto the sphere.  Enumeration streams the 2(n+1) faces of the shell without
ever materializing the grid; a point is owned by the face of the first
coordinate attaining +/-M, so each point appears exactly once.

Covering radius.  For r < 2 every point of S^n lies within geodesic
distance arcsin(sqrt(n)/(2M)) <= arcsin(r/2) < r of the grid.  Let x be a
unit vector and j a coordinate with |x_j| = ||x||_inf.  The point
y = M x / ||x||_inf has y_j = +/-M and its other n coordinates in [-M, M].
Rounding those n coordinates to the nearest integers gives a shell point z
with ||y - z|| <= sqrt(n)/2.  As ||y|| >= M >= sqrt(n)/r > sqrt(n)/2, the
angle between x and z is acute with sine at most ||y - z|| / ||y||, so it
is at most arcsin(sqrt(n)/(2M)) <= arcsin(r/2); and arcsin(t) < 2t for
0 < t <= 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import ContractViolation

DEFAULT_CHUNK = 1 << 13


def shell_order(n: int, r: float) -> int:
    """The shell order M = ceil(sqrt(n)/r) of S^n, exact in integers.

    M is the least m >= 1 with m^2 >= n/r^2, that is with m^2 >= c for the
    integer c = ceil(n/r^2) >= 1; so M = isqrt(c - 1) + 1.
    """
    if n < 1:
        raise ContractViolation("sphere dimension must be >= 1")
    if not 0.0 < r < math.inf:
        raise ContractViolation("covering radius must be positive and finite")
    return math.isqrt(math.ceil(n / Fraction(r) ** 2) - 1) + 1


def grid_count(n: int, m: int) -> int:
    """Number of integer points of sup-norm m in Z^(n+1), exact."""
    return (2 * m + 1) ** (n + 1) - (2 * m - 1) ** (n + 1)


def grid_chunks(n: int, m: int,
                chunk: int = DEFAULT_CHUNK) -> Iterator[np.ndarray]:
    """Unit vectors of the grid of shell order m on S^n, each exactly once
    and in a fixed order, as arrays of shape (k, n+1) with k <= chunk.

    Face (j, +/-m) is a box: coordinates before j range over -(m-1)..m-1,
    coordinate j is +/-m and those after j range over -m..m.  Its points
    come in the row-major order of the box, and each block decodes a run of
    at most `chunk` flat indices, so the largest face, (2m+1)^n points,
    must be indexable by `np.intp`.  Above m = 2^53 the integer coordinates
    are no longer exact floats.
    """
    if not 1 <= m <= 1 << 53:
        raise ContractViolation("shell order must be in [1, 2^53], where grid "
                                "coordinates are exact floats")
    if (2 * m + 1) ** n > np.iinfo(np.intp).max:
        raise ContractViolation(f"shell order {m} on S^{n}: a face of (2m+1)^n "
                                "points is beyond the array index range")
    for j in range(n + 1):
        for sign in (m, -m):
            shape = (2 * m - 1,) * j + (1,) + (2 * m + 1,) * (n - j)
            low = (1 - m,) * j + (sign,) + (-m,) * (n - j)
            size = math.prod(shape)
            for start in range(0, size, chunk):
                flat = np.arange(start, min(start + chunk, size))
                idx = np.unravel_index(flat, shape)
                pts = np.stack([i + lo for i, lo in zip(idx, low)], axis=1,
                               dtype=float)
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
                yield pts


def grid_points(n: int, m: int) -> np.ndarray:
    """Materialized grid; diagnostics only, memory grows like m^n."""
    return np.concatenate(list(grid_chunks(n, m)), axis=0)


def covering_radius_estimate(n: int, m: int, samples: int,
                             seed: int = 0) -> float:
    """Monte Carlo lower bound for the covering radius of the grid.

    Maximum geodesic distance from `samples` uniform sphere points to the
    nearest grid point.  Diagnostic only; the true covering radius is at
    least this value and, by the module's argument, at most
    arcsin(sqrt(n)/(2m)).
    """
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((samples, n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    best = np.full(samples, -1.0)
    for block in grid_chunks(n, m):
        dots = pts @ block.T
        np.maximum(best, dots.max(axis=1), out=best)
    return float(np.max(np.arccos(np.clip(best, -1.0, 1.0))))
