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

# Candidates are decided this many at a time.  A block holds their vertex,
# facet and ball arrays, about 0.5 KB per tetrahedron in R^3, and sends the
# ones its facets leave open to enclosing_balls, whose temporaries take about
# 1.7 KB each; on the annulus fixture, blocks of 4096 sent to enclosing_balls
# raised the nerve stage's peak RSS from 47 to 53 MB.
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
    no further test, since adjacency is the edge test; its ball is its
    midpoint and half its length.  A higher candidate sigma = s + (w,) is
    decided by its facets tau = sigma - v, MEB_BLOCK candidates at a time:
    - a facet missing from dimension k-1 rejects sigma: by induction some
      face of sigma failed its test, and r(sigma) is at least its radius;
    - a facet whose ball B(tau) holds the opposite vertex v accepts sigma:
      B(tau) encloses sigma and r(sigma) >= r(tau), so it is the minimum
      ball of sigma, of radius r(tau) <= eps;
    - every other candidate goes to enclosing_balls and is kept when its
      radius is at most epsilon.
    A value within the relative slack band of its threshold (2 eps for an
    edge, eps above) sets boundary_ambiguous.  Each kept simplex below
    max_dim keeps its ball, its facets' indices one dimension down, and
    the key (index of its prefix facet) * N + last vertex: keys rise in
    lexicographic order, so np.searchsorted finds a facet, and stay below
    N times the simplex count, far from 2^63.

    Order: every w common to the later[v] exceeds s[-1], so the candidates
    come in lexicographic order.  Completeness: every face of a Cech
    simplex is in the nerve, so a k-simplex is its first k vertices, a
    (k-1)-simplex, extended by its last vertex, a later neighbour of all
    of them.  Rounding: radii and containment tests err by a few ulps, so
    a facet decision differs from the all-subsets test only when a facet
    radius lies within SLACK_BAND of eps, and that facet's own test then
    set boundary_ambiguous.  A ball from the singular-Gram fallback of
    enclosing_balls still encloses its simplex and is within the band of
    minimal.  A distance from a coordinate difference errs by a few ulps;
    the Gram identity |p|^2 + |q|^2 - 2 p.q used before errs by a few ulps
    of |p|^2 + |q|^2, up to about 3e-16 / d^2 of d for unit vectors d
    apart, inside SLACK_BAND for d above about 1e-3.  There an edge that
    the two formulas decide differently sets boundary_ambiguous under
    either, so a run that reports no ambiguity has the same edges.

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
    # keys, facet indices and balls of the simplices in prev, from the edges on
    keys = facets = centres = radii = None
    for k in range(1, max_dim + 1):
        cands = ((j, w) for j, s in enumerate(prev)
                 for w in sorted(set.intersection(*(later[v] for v in s))))
        cur: list[tuple[int, ...]] = []
        kept_parts = []
        while block := list(itertools.islice(cands, MEB_BLOCK)):
            sidx, w = np.array(block).T
            simps = [prev[j] + (v,) for j, v in block]
            if k == 1:
                kept = np.ones(len(block), dtype=bool)
                fac = np.column_stack([w, sidx])
                ctr = 0.5 * (pts[sidx] + pts[w])
                rad = 0.5 * np.linalg.norm(pts[w] - pts[sidx], axis=1)
            else:
                key = facets[sidx] * npts + w[:, None]
                pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
                present = np.all(keys[pos] == key, axis=1)
                fac = np.column_stack([pos, sidx])
                verts = np.array(simps)
                gap = pts[verts] - centres[fac]
                holds = present[:, None] & (np.einsum(
                    "bkd,bkd->bk", gap, gap) <= radii[fac] ** 2)
                kept = holds.any(axis=1)
                pick = fac[np.arange(len(block)), holds.argmax(axis=1)]
                ctr, rad = centres[pick], radii[pick]
                open_ = present & ~kept
                if open_.any():
                    rad[open_], ctr[open_] = enclosing_balls(pts[verts[open_]])
                    complex_.boundary_ambiguous |= _near(rad[open_], epsilon)
                    kept[open_] = rad[open_] <= epsilon
            cur.extend(simps[i] for i in np.flatnonzero(kept))
            if k < max_dim:
                kept_parts.append((sidx[kept] * npts + w[kept], fac[kept],
                                   ctr[kept], rad[kept]))
        if not cur:
            break
        complex_.simplices[k] = cur
        prev = cur
        if kept_parts:
            keys, facets, centres, radii = (
                np.concatenate(part) for part in zip(*kept_parts))
    return complex_
