"""Spherical grids obtained by normalizing the integer points of a cube shell.

The grid for covering radius r on the sphere S^n consists of the integer
points with sup-norm M = ceil(sqrt(n)/r), projected radially onto the
sphere.  Enumeration streams the 2(n+1) faces of the shell without ever
materializing the grid; a point is owned by the face of the first
coordinate attaining +/-M, so each point appears exactly once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import ContractViolation

DEFAULT_CHUNK = 1 << 13


def shell_order(n: int, r: float) -> int:
    """Exact value of ceil(sqrt(n)/r), decided in rational arithmetic."""
    if not r > 0.0 or math.isinf(r):
        raise ContractViolation("covering radius must be positive and finite")
    rr = Fraction(r)
    m = max(1, math.ceil(math.sqrt(n) / r))
    # fix up any floating error in the initial estimate: m is the least
    # integer with (m*r)^2 >= n
    while (m * rr) ** 2 < n:
        m += 1
    while m > 1 and ((m - 1) * rr) ** 2 >= n:
        m -= 1
    return m


@dataclass(frozen=True)
class GridSpec:
    """Parameters of the shell grid on S^n (ambient dimension n+1); the
    shell order M = ceil(sqrt(n)/r) is derived."""

    n: int
    r: float
    M: int = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ContractViolation("sphere dimension must be >= 1")
        object.__setattr__(self, "M", shell_order(self.n, self.r))

    @classmethod
    def from_shell(cls, n: int, m: int) -> "GridSpec":
        """Spec with a prescribed shell order; picks a consistent radius."""
        if m < 1:
            raise ContractViolation("shell order must be >= 1")
        r = math.sqrt(n) / m
        while shell_order(n, r) > m:
            r = math.nextafter(r, math.inf)
        return cls(n, r)


def grid_count(spec: GridSpec) -> int:
    """Number of integer points on the shell, exact in big integers."""
    m, dim = spec.M, spec.n + 1
    return (2 * m + 1) ** dim - (2 * m - 1) ** dim


def _faces(spec: GridSpec):
    """Yield (owner coordinate, sign, ranges of the free coordinates)."""
    m, dim = spec.M, spec.n + 1
    inner = range(-(m - 1), m)   # coordinates before the owner avoid +/-M
    full = range(-m, m + 1)
    for j in range(dim):
        for sign in (m, -m):
            yield j, sign, [inner] * j + [full] * (dim - 1 - j)


def grid_stream(spec: GridSpec) -> Iterator[np.ndarray]:
    """Unit vectors of the grid, each exactly once, in a fixed order."""
    for j, sign, ranges in _faces(spec):
        for free in itertools.product(*ranges):
            y = np.array(free[:j] + (sign,) + free[j:], dtype=float)
            yield y / np.linalg.norm(y)


def grid_chunks(spec: GridSpec, chunk: int = DEFAULT_CHUNK) -> Iterator[np.ndarray]:
    """The same stream as arrays of shape (k, n+1), k <= chunk."""
    dim = spec.n + 1
    for j, sign, ranges in _faces(spec):
        first, *rest = (np.arange(rg.start, rg.stop, dtype=float) for rg in ranges)
        # slab along the first free coordinate to bound memory
        rows_per_slab = max(1, chunk // math.prod(len(ax) for ax in rest))
        for start in range(0, len(first), rows_per_slab):
            grids = np.meshgrid(first[start:start + rows_per_slab], *rest,
                                indexing="ij")
            free = np.stack([g.ravel() for g in grids], axis=1)
            pts = np.empty((len(free), dim))
            pts[:, :j] = free[:, :j]
            pts[:, j] = sign
            pts[:, j + 1:] = free[:, j:]
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            for off in range(0, len(pts), chunk):
                yield pts[off:off + chunk]


def grid_points(spec: GridSpec) -> np.ndarray:
    """Materialized grid; diagnostics only, memory grows like M^n."""
    return np.concatenate(list(grid_chunks(spec)), axis=0)


def covering_radius_estimate(spec: GridSpec, samples: int,
                             seed: int = 0) -> float:
    """Monte Carlo upper evidence for the covering radius of the grid.

    Maximum geodesic distance from `samples` uniform sphere points to the
    nearest grid point.  Diagnostic only; the true covering radius is at
    least this value.
    """
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((samples, spec.n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    best = np.full(samples, -1.0)
    for block in grid_chunks(spec):
        dots = pts @ block.T
        np.maximum(best, dots.max(axis=1), out=best)
    return float(np.max(np.arccos(np.clip(best, -1.0, 1.0))))
