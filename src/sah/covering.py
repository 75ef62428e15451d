"""Relaxation membership and the certified covering loop.

The covering loop halves the grid radius until the scale-free certificate
71 * D^{5/2} * k*^2 * r < 1 holds, where k* is the maximum condition number
over the grid and over admissible inequality subtuples.  It then returns
the grid points that satisfy the relaxed system together with the ball
radius 5 * D * k* * r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .condition import Subtuple, SubtupleKernel, subtuples
from .errors import ContractViolation
from .grid import GridSpec, grid_chunks, grid_count
from .polysys import HomoSystem, weyl_norm_poly

DEFAULT_MAX_ITERATIONS = 60
DEFAULT_MIN_R = 2.0 ** -60

# Constants of the termination test and the output radius.  No slack is
# added anywhere; comparisons use these exact floating-point values.
CERTIFICATE_FACTOR = 71.0
CERTIFICATE_EXPONENT = 2.5
EPSILON_FACTOR = 5.0


@dataclass(frozen=True)
class CoveringResult:
    """Point cloud, ball radius and refinement trace of the covering loop."""

    points: np.ndarray
    epsilon: float
    r_final: float
    k_star: float
    iterations: int
    certified: bool
    grid_size: int
    witness_point: np.ndarray | None = None
    witness_subtuple: Subtuple | None = None
    audit_hypothesis: float | None = None


def approx_member_mask(sys: HomoSystem, r: float, pts: np.ndarray) -> np.ndarray:
    """Membership in the r-relaxation over an (N, n+1) array of unit vectors.

    Every equality must satisfy |f(x)| < ||f|| r and every inequality
    g(x) > -||g|| r; both comparisons are strict.
    """
    if r <= 0.0:
        raise ContractViolation("relaxation radius must be positive")
    mask = np.ones(len(pts), dtype=bool)
    for f in sys.F:
        mask &= np.abs(f.eval_many(pts)) < weyl_norm_poly(f) * r
    for g in sys.G:
        mask &= g.eval_many(pts) > -weyl_norm_poly(g) * r
    return mask


def _kernels(sys: HomoSystem) -> list[tuple[Subtuple, SubtupleKernel]]:
    n = sys.sphere_dim
    q = sys.pattern.q
    out = []
    for sub in subtuples(sys.pattern.s, n + 1 - q):
        polys = sys.F + tuple(sys.G[i] for i in sub.indices)
        out.append((sub, SubtupleKernel(polys)))
    return out


def _scan_grid(sys: HomoSystem, spec: GridSpec, member_radius: float | None):
    """One streaming pass: subtuple-max condition number and member points."""
    kernels = _kernels(sys)
    k_star = -math.inf
    witness = None
    witness_sub = Subtuple(())
    members = []
    for block in grid_chunks(spec):
        block_max = np.full(len(block), -math.inf)
        block_arg = np.zeros(len(block), dtype=int)
        for si, (sub, kern) in enumerate(kernels):
            vals = kern.kappa_many(block)
            better = vals > block_max
            block_max[better] = vals[better]
            block_arg[better] = si
        i = int(np.argmax(block_max))
        if block_max[i] > k_star:
            k_star = float(block_max[i])
            witness = block[i].copy()
            witness_sub = kernels[block_arg[i]][0]
        if member_radius is not None:
            mask = approx_member_mask(sys, member_radius, block)
            if mask.any():
                members.append(block[mask])
    pts = (np.concatenate(members, axis=0) if members
           else np.zeros((0, sys.num_vars)))
    return k_star, witness, witness_sub, pts


def k_star_over_grid(sys: HomoSystem, r: float) -> tuple[float, np.ndarray, Subtuple]:
    """Maximum subtuple condition number over the grid of radius r."""
    if sys.pattern.q > sys.sphere_dim:
        raise ContractViolation("the grid scan requires q <= n")
    k, wx, wsub, _ = _scan_grid(sys, GridSpec(sys.sphere_dim, r), None)
    return k, wx, wsub


def certificate_holds(max_degree: int, k_star: float, r: float) -> bool:
    """The exact loop termination test, re-evaluable by callers."""
    return (CERTIFICATE_FACTOR * max_degree ** CERTIFICATE_EXPONENT
            * k_star * k_star * r < 1.0)


def ball_radius(max_degree: int, k_star: float, r: float) -> float:
    return EPSILON_FACTOR * max_degree * k_star * r


def covering(sys: HomoSystem,
             max_iterations: int = DEFAULT_MAX_ITERATIONS,
             min_r: float = DEFAULT_MIN_R) -> CoveringResult:
    """Certified covering: halve r until the condition certificate holds.

    The loop cannot terminate on ill-posed systems; the iteration cap and
    the radius floor convert divergence into a result with certified=False
    and partial diagnostics.
    """
    if sys.pattern.q > sys.sphere_dim:
        raise ContractViolation("the covering algorithm requires q <= n")
    n = sys.sphere_dim
    max_degree = sys.pattern.max_degree
    r = 1.0
    iterations = 0
    k_star = math.inf
    witness, witness_sub = None, Subtuple(())
    points = np.zeros((0, sys.num_vars))
    gsize = 0
    certified = False
    while iterations < max_iterations and r / 2.0 >= min_r:
        r /= 2.0
        iterations += 1
        spec = GridSpec(n, r)
        gsize = grid_count(spec)
        k_star, witness, witness_sub, points = _scan_grid(
            sys, spec, member_radius=math.sqrt(max_degree) * r)
        if certificate_holds(max_degree, k_star, r):
            certified = True
            break
    return CoveringResult(
        points=points,
        epsilon=ball_radius(max_degree, k_star, r),
        r_final=r,
        k_star=k_star,
        iterations=iterations,
        certified=certified,
        grid_size=gsize,
        witness_point=witness,
        witness_subtuple=witness_sub,
    )


def covering_fixed(sys: HomoSystem, r: float, epsilon: float) -> CoveringResult:
    """Covering at a user-supplied radius, skipping the certified loop.

    Never certified; still scans the grid for the condition maximum and
    reports the value 13 * D^{3/2} * k*^2 * (sqrt(D) r), which is below 1
    exactly when the relaxation-to-distance bound applies.
    """
    if sys.pattern.q > sys.sphere_dim:
        raise ContractViolation("the covering algorithm requires q <= n")
    if not 0.0 < epsilon < math.inf:
        raise ContractViolation("epsilon must be positive and finite")
    max_degree = sys.pattern.max_degree
    spec = GridSpec(sys.sphere_dim, r)
    k_star, witness, witness_sub, points = _scan_grid(
        sys, spec, member_radius=math.sqrt(max_degree) * r)
    hypothesis = (13.0 * max_degree ** 1.5 * k_star * k_star
                  * math.sqrt(max_degree) * r)
    return CoveringResult(
        points=points,
        epsilon=epsilon,
        r_final=r,
        k_star=k_star,
        iterations=0,
        certified=False,
        grid_size=grid_count(spec),
        witness_point=witness,
        witness_subtuple=witness_sub,
        audit_hypothesis=hypothesis,
    )
