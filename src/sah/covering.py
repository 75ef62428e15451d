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

from .condition import Block, Subtuple, block_kappa_max, subtuple_kernels
from .errors import ContractViolation
from .grid import GridSpec, grid_chunks, grid_count
from .polysys import HomoSystem, weyl_norm_poly

DEFAULT_MAX_ITERATIONS = 60

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


def _relaxation_mask(sys: HomoSystem, r: float, values: np.ndarray) -> np.ndarray:
    """Membership in the r-relaxation from the (N, q+s) component values.

    Every equality must satisfy |f(x)| < ||f|| r and every inequality
    g(x) > -||g|| r; both comparisons are strict.
    """
    if r <= 0.0:
        raise ContractViolation("relaxation radius must be positive")
    mask = np.ones(len(values), dtype=bool)
    q = sys.pattern.q
    for i, f in enumerate(sys.components):
        bound = weyl_norm_poly(f) * r
        mask &= (np.abs(values[:, i]) < bound if i < q
                 else values[:, i] > -bound)
    return mask


def approx_member_mask(sys: HomoSystem, r: float, pts: np.ndarray) -> np.ndarray:
    """Membership in the r-relaxation over an (N, n+1) array of unit vectors;
    a one-block call of the scan's comparison."""
    return _relaxation_mask(sys, r, Block(sys.components, pts).values)


def _scan(sys: HomoSystem, r: float) -> dict:
    """One streaming pass over the grid of radius r.

    Returns the `CoveringResult` fields a pass decides: the subtuple-max
    condition number k*, the first grid point and subtuple attaining it,
    the grid points in the sqrt(D) r relaxation and the grid size.  Each
    block of grid points is evaluated once; every subtuple kernel and the
    member mask read that `Block`, and `block_kappa_max` computes exact
    kappa values only where the block maximum can be.
    """
    if sys.pattern.q > sys.sphere_dim:
        raise ContractViolation("the covering algorithm requires q <= n")
    spec = GridSpec(sys.sphere_dim, r)
    member_radius = math.sqrt(sys.pattern.max_degree) * r
    kernels = subtuple_kernels(sys)
    k_star = -math.inf
    witness = None
    witness_sub = Subtuple(())
    members = []
    for pts in grid_chunks(spec):
        block = Block(sys.components, pts)
        block_max, i, j = block_kappa_max(kernels, block)
        if block_max > k_star:
            k_star = block_max
            witness = pts[i].copy()
            witness_sub = kernels[j][0]
        mask = _relaxation_mask(sys, member_radius, block.values)
        if mask.any():
            members.append(pts[mask])
    points = (np.concatenate(members, axis=0) if members
              else np.zeros((0, sys.num_vars)))
    return dict(points=points, r_final=r, k_star=k_star,
                grid_size=grid_count(spec), witness_point=witness,
                witness_subtuple=witness_sub)


def certificate_holds(max_degree: int, k_star: float, r: float) -> bool:
    """The exact loop termination test, re-evaluable by callers."""
    return (CERTIFICATE_FACTOR * max_degree ** CERTIFICATE_EXPONENT
            * k_star * k_star * r < 1.0)


def ball_radius(max_degree: int, k_star: float, r: float) -> float:
    return EPSILON_FACTOR * max_degree * k_star * r


def covering(sys: HomoSystem,
             max_iterations: int = DEFAULT_MAX_ITERATIONS) -> CoveringResult:
    """Certified covering: r = 2^-i for i = 1, 2, ... until the condition
    certificate holds.

    The loop cannot terminate on ill-posed systems; the iteration cap
    converts divergence into a result with certified=False and the
    diagnostics of the last pass.  At least one pass runs.
    """
    if max_iterations < 1:
        raise ContractViolation("max_iterations must be at least 1")
    max_degree = sys.pattern.max_degree
    for iterations in range(1, max_iterations + 1):
        scan = _scan(sys, 2.0 ** -iterations)
        certified = certificate_holds(max_degree, scan["k_star"],
                                      scan["r_final"])
        if certified:
            break
    return CoveringResult(
        **scan,
        epsilon=ball_radius(max_degree, scan["k_star"], scan["r_final"]),
        iterations=iterations,
        certified=certified,
    )


def covering_fixed(sys: HomoSystem, r: float, epsilon: float) -> CoveringResult:
    """Covering at a user-supplied radius, skipping the certified loop.

    Never certified; still scans the grid for the condition maximum and
    reports the value 13 * D^{3/2} * k*^2 * (sqrt(D) r), which is below 1
    exactly when the relaxation-to-distance bound applies.
    """
    if not 0.0 < epsilon < math.inf:
        raise ContractViolation("epsilon must be positive and finite")
    scan = _scan(sys, r)
    max_degree = sys.pattern.max_degree
    k_star = scan["k_star"]
    hypothesis = (13.0 * max_degree ** 1.5 * k_star * k_star
                  * math.sqrt(max_degree) * r)
    return CoveringResult(
        **scan,
        epsilon=epsilon,
        iterations=0,
        certified=False,
        audit_hypothesis=hypothesis,
    )
