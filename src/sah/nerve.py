"""Cech nerve of a union of equal-radius balls.

A simplex belongs to the nerve exactly when the closed balls around its
vertices have a common point, which holds iff the minimum enclosing ball of
the vertices has radius at most the common ball radius.  Every dimension
uses this closed test; for an edge it reads dist <= 2 eps, which is exactly
dist/2 <= eps, since halving is exact in binary floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation

# Relative width of the band around the radius threshold inside which a
# simplex is flagged as numerically ambiguous.
SLACK_BAND = 1e-9

# Gram matrices with det G <= SINGULAR_GRAM * prod diag(G) are singular to
# enclosing_balls.
SINGULAR_GRAM = 1e-14

# Candidate simplices are tested this many at a time.  Each candidate holds
# about 1.7 KB of temporaries (tetrahedra in R^3); on the annulus fixture,
# blocks of 4096 raised the nerve stage's peak RSS from 47 to 53 MB.
MEB_BLOCK = 1024

# The most points cech_nerve takes; see its docstring.
MAX_POINTS = 2**14


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float


@dataclass
class SimplicialComplex:
    """Abstract simplicial complex on integer vertices.

    simplices maps dimension k to the sorted list of k-simplices, each a
    strictly increasing vertex tuple.  Vertices themselves are listed under
    dimension 0.
    """

    simplices: dict[int, list[tuple[int, ...]]] = field(default_factory=dict)
    boundary_ambiguous: bool = False

    def simplex_count(self, k: int) -> int:
        return len(self.simplices.get(k, []))

    @property
    def dimension(self) -> int:
        return max((k for k, v in self.simplices.items() if v), default=-1)


def enclosing_balls(points) -> tuple[np.ndarray, np.ndarray]:
    """Minimum enclosing balls of N point sets, shape (N, k, dim), at once.

    Returns the radii (N,) and centres (N, dim).  Every subset S of at most
    dim+1 points gives a candidate: the centre c = p0 + Q^T lam of the
    sphere through S in its affine hull, with rows q_i = p_i - p0 of Q and
    the Gram system Q Q^T lam = diag(Q Q^T)/2, and the radius max |p - c|
    over all k points.  The least candidate is exact: each one encloses
    every point, so none is below the minimum, and the minimum ball is the
    circumball of an affinely independent support set centred in its
    affine hull, whose invertible system makes it a candidate.
    A singular system (det at most SINGULAR_GRAM times Hadamard's bound,
    the product of the diagonal) is solved with the identity: its centre
    is wrong, but its ball still encloses the points.  Only support sets
    that flat are lost, and a face of one then does nearly as well: for
    (0, 0), (1, d), (1, -d), det over that bound is about 4 d^2 and the
    best edge ball is larger by a relative 7 d^2 / 2, far inside SLACK_BAND.
    The work grows as C(k, dim+1): this is for the few points of a simplex.
    """
    pts = np.asarray(points, dtype=float)
    n, k, dim = pts.shape
    centres, radii = [], []
    for size in range(1, min(k, dim + 1) + 1):
        subsets = np.array(list(itertools.combinations(range(k), size)))
        c = pts[:, subsets[:, 0]]
        q = pts[:, subsets[:, 1:]] - c[:, :, None]
        gram = q @ q.swapaxes(-1, -2)
        diag = np.diagonal(gram, axis1=-2, axis2=-1).copy()
        singular = (np.linalg.det(gram)
                    <= SINGULAR_GRAM * np.prod(diag, axis=-1))
        gram[singular] = np.eye(size - 1)
        c = c + np.sum(np.linalg.solve(gram, 0.5 * diag[..., None]) * q,
                       axis=-2)
        gap = pts[:, None] - c[:, :, None]
        radii.append(np.einsum("nskd,nskd->nsk", gap, gap).max(axis=-1))
        centres.append(c)
    radii, centres = np.concatenate(radii, 1), np.concatenate(centres, 1)
    pick = (np.arange(n), radii.argmin(axis=1))
    return np.sqrt(radii[pick]), centres[pick]


def min_enclosing_ball(points) -> Ball:
    """Minimum enclosing ball of one point set (see enclosing_balls)."""
    pts = np.asarray(points, dtype=float)
    if not len(pts):
        raise ContractViolation("the minimum enclosing ball needs a point")
    radii, centres = enclosing_balls(pts[None])
    return Ball(centres[0], float(radii[0]))


def _near(values, threshold: float) -> bool:
    """Some value lies within the relative slack band of threshold."""
    return bool(np.any(np.abs(values - threshold) <= SLACK_BAND * threshold))


def cech_nerve(points: np.ndarray, epsilon: float,
               max_dim: int | None = None) -> SimplicialComplex:
    """Nerve of the closed balls of radius epsilon around the points.

    later[i] holds the points j > i within 2 eps of point i, each row's
    distances taken from coordinate differences, so memory grows with the
    points and edges, never as N^2.  Every dimension k = 1..max_dim follows
    one rule: a (k-1)-simplex s, taken in lexicographic order, extends by
    each w of sorted(intersection of later[v] for v in s).  An edge needs
    no further test, since adjacency is the edge test; a higher candidate
    is kept when its minimum enclosing ball has radius at most epsilon,
    tested MEB_BLOCK at a time.  A value within the relative slack band of
    its threshold (2 eps for an edge, eps above) sets boundary_ambiguous.

    Order: every w common to the later[v] exceeds s[-1], so the candidates
    come in lexicographic order and in the MEB_BLOCK blocks in which they
    were always tested, and enclosing_balls returns the same radii, bit
    for bit.  Completeness: every face of a Cech simplex is in the nerve,
    so a k-simplex is its first k vertices, a (k-1)-simplex, extended by
    its last vertex, a later neighbour of all of them.  Rounding: a
    distance from a coordinate difference errs by a few units in its last
    place.  The Gram identity |p|^2 + |q|^2 - 2 p.q used before errs by a
    few ulps of |p|^2 + |q|^2, which for unit vectors d apart is up to
    about 3e-16 / d^2 of d: 3e-15 at d = 0.3, and inside SLACK_BAND for d
    above about 1e-3.  There an edge that the two formulas decide
    differently lies in the band and sets boundary_ambiguous under
    either, so a run that reports no ambiguity has the same edges under
    both.

    A cover of more than MAX_POINTS points is refused before any distance
    is computed: its clique expansion does not end in useful time, and
    the dense N x N construction used before needed about 10 GB there.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ContractViolation("points must form a 2d array")
    if not 0.0 < epsilon < np.inf:
        raise ContractViolation("epsilon must be positive and finite")
    npts = len(pts)
    if max_dim is None:
        max_dim = pts.shape[1]
    if max_dim < 0:
        raise ContractViolation("max_dim must be nonnegative")
    complex_ = SimplicialComplex({0: [(i,) for i in range(npts)]})
    if max_dim == 0:
        return complex_
    if npts > MAX_POINTS:
        raise ContractViolation(
            f"{npts} points: the clique nerve takes at most {MAX_POINTS}")

    later = []
    for i in range(npts):
        dist = np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
        complex_.boundary_ambiguous |= _near(dist, 2.0 * epsilon)
        later.append(set((np.flatnonzero(dist <= 2.0 * epsilon) + i + 1).tolist()))
    prev = complex_.simplices[0]
    for k in range(1, max_dim + 1):
        cands = (s + (w,) for s in prev
                 for w in sorted(set.intersection(*(later[v] for v in s))))
        cur: list[tuple[int, ...]] = []
        while block := list(itertools.islice(cands, MEB_BLOCK)):
            if k > 1:
                radii, _ = enclosing_balls(pts[np.array(block)])
                complex_.boundary_ambiguous |= _near(radii, epsilon)
                block = [c for c, r in zip(block, radii) if r <= epsilon]
            cur.extend(block)
        if not cur:
            break
        complex_.simplices[k] = cur
        prev = cur
    return complex_
