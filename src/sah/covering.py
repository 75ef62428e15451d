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

from .condition import Block, block_kappa_max, subtuple_kernels
from .errors import ContractViolation
from .grid import grid_chunks, grid_count, shell_order
from .polysys import HomoSystem, weyl_norm

DEFAULT_MAX_ITERATIONS = 60

# Constants of the termination test and the output radius.  No slack is
# added anywhere; comparisons use these exact floating-point values.
CERTIFICATE_FACTOR = 71.0
CERTIFICATE_EXPONENT = 2.5
EPSILON_FACTOR = 5.0

# `covering` scans every pass of fewer grid points than this, and bounds
# k* on larger ones with an absolute margin on 1/kappa.
ALWAYS_SCAN_POINTS = 1 << 16
KAPPA_MARGIN = 1e-6


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
    witness_subtuple: tuple[int, ...] | None = None
    audit_hypothesis: float | None = None


def _relaxation_mask(sys: HomoSystem, r: float, values: np.ndarray) -> np.ndarray:
    """Membership in the r-relaxation from the (N, q+s) component values.

    Every equality must satisfy |f(x)| < ||f|| r and every inequality
    g(x) > -||g|| r; both comparisons are strict.
    """
    if r <= 0.0:
        raise ContractViolation("relaxation radius must be positive")
    mask = np.ones(len(values), dtype=bool)
    q = len(sys.F)
    for i, f in enumerate(sys.components):
        bound = weyl_norm((f,)) * r
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
    if len(sys.F) > sys.sphere_dim:
        raise ContractViolation("the covering algorithm requires q <= n")
    n, m = sys.sphere_dim, shell_order(sys.sphere_dim, r)
    member_radius = math.sqrt(sys.max_degree) * r
    kernels = subtuple_kernels(sys)
    k_star = -math.inf
    witness = None
    witness_sub = ()
    members = []
    for pts in grid_chunks(n, m):
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
                grid_size=grid_count(n, m), witness_point=witness,
                witness_subtuple=witness_sub)


def certificate_holds(max_degree: int, k_star: float, r: float) -> bool:
    """The exact loop termination test, re-evaluable by callers."""
    return (CERTIFICATE_FACTOR * max_degree ** CERTIFICATE_EXPONENT
            * k_star * k_star * r < 1.0)


def ball_radius(max_degree: int, k_star: float, r: float) -> float:
    return EPSILON_FACTOR * max_degree * k_star * r


def kappa_lower_bound(max_degree: int, k_best: float, r: float) -> float:
    """A lower bound on the k* of a pass of radius r, from the largest k*
    scanned so far: 1 / (1/k_best + D r + KAPPA_MARGIN); see `covering`."""
    return 1.0 / (1.0 / k_best + max_degree * r + KAPPA_MARGIN)


def covering(sys: HomoSystem,
             max_iterations: int = DEFAULT_MAX_ITERATIONS) -> CoveringResult:
    """Certified covering: the first r = 2^-i, i = 1, 2, ..., at which the
    condition certificate holds, else pass `max_iterations` uncertified.

    Passes below `ALWAYS_SCAN_POINTS` grid points and the last pass are
    always scanned; a larger one is skipped when `kappa_lower_bound` fails
    the certificate.  The result is that of scanning every pass:

    - Lipschitz bound.  1/kappa(F^L, .) is D-Lipschitz in the geodesic
      distance on S^n (Buergisser and Cucker, *Condition*, 2013), so is
      1/kappa_max, their minimum over L; and kappa >= 1.
    - Covering radius.  Pass j's grid comes within rho_j < r_j of every
      point of S^n (proof in `grid`), so within r_j of the witness of
      k_best, the largest k* scanned so far: pass j's k* is at least
      1 / (1/k_best + D r_j).  k_best = 1 before any scan, by kappa >= 1.
    - Floating point.  A polynomial value errs by about (terms) * eps *
      ||f||, as sum |c_a x^a| <= ||f|| on the sphere (Cauchy-Schwarz in
      the Weyl norm); the residual ratio and sigma_q / ||F^L|| are at most
      1, and the SVD errs by a small multiple of eps * sigma_1.  The
      RANK_RTOL cutoff lowers 1/kappa by at most 1e-10, and criterion 4
      measures a Lipschitz excess of at most 1e-8.  KAPPA_MARGIN = 1e-6
      covers these at both points and the rounding of the bound itself.
    - First certifying pass.  `certificate_holds` multiplies positive,
      correctly rounded factors, so it is monotone in k*: failing at the
      lower bound, it fails at pass j's k*.  A skipped pass is never the
      first to certify, so the first scanned pass that certifies is the
      full loop's; if none does, both end at pass `max_iterations`.
    """
    if max_iterations < 1:
        raise ContractViolation("max_iterations must be at least 1")
    max_degree, n = sys.max_degree, sys.sphere_dim
    k_best = 1.0
    for iterations in range(1, max_iterations + 1):
        r = 2.0 ** -iterations
        if (iterations < max_iterations
                and grid_count(n, shell_order(n, r)) >= ALWAYS_SCAN_POINTS
                and not certificate_holds(
                    max_degree, kappa_lower_bound(max_degree, k_best, r), r)):
            continue
        scan = _scan(sys, r)
        k_best = max(k_best, scan["k_star"])
        certified = certificate_holds(max_degree, scan["k_star"], r)
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
    max_degree = sys.max_degree
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
