import itertools
import math

import numpy as np
import pytest

from sah.errors import ContractViolation
from sah.nerve import (Ball, SimplicialComplex, cech_nerve, enclosing_balls,
                       min_enclosing_ball)


def brute_force_meb(pts: np.ndarray) -> float:
    """Independent oracle: smallest ball with every boundary subset.

    The minimum enclosing ball is determined by at most dim+1 points on
    its boundary; enumerate all subsets, solve the circumcenter system by
    least squares, keep the smallest ball containing everything.
    """
    n, dim = pts.shape
    best = math.inf
    for size in range(1, min(n, dim + 1) + 1):
        for idx in itertools.combinations(range(n), size):
            sub = pts[list(idx)]
            p0 = sub[0]
            if size == 1:
                center = p0
            else:
                # circumcenter within the affine hull of the subset
                q = sub[1:] - p0
                lam, *_ = np.linalg.lstsq(q @ q.T,
                                          0.5 * np.einsum("ij,ij->i", q, q),
                                          rcond=None)
                center = p0 + lam @ q
            radius = np.max(np.linalg.norm(sub - center, axis=1))
            if np.max(np.linalg.norm(pts - center, axis=1)) <= radius + 1e-9:
                best = min(best, radius)
    return best


def test_meb_two_points():
    b = min_enclosing_ball([(0.0, 0.0), (2.0, 0.0)])
    assert b.radius == pytest.approx(1.0)
    assert np.allclose(b.center, [1.0, 0.0])


def test_meb_equilateral_triangle():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
    b = min_enclosing_ball(pts)
    assert b.radius == pytest.approx(1.0 / math.sqrt(3.0))


def test_meb_obtuse_triangle():
    # the far pair determines the ball; the third point is inside
    pts = [(0.0, 0.0), (4.0, 0.0), (2.0, 0.1)]
    b = min_enclosing_ball(pts)
    assert b.radius == pytest.approx(2.0)


def test_meb_thin_triangle_uses_all_three_points():
    # acute and nearly flat: the circumcentre ((1 + d^2)/2, 0) is inside
    d = 1e-3
    b = min_enclosing_ball([(0.0, 0.0), (1.0, d), (1.0, -d)])
    assert b.radius == pytest.approx((1.0 + d * d) / 2.0, rel=1e-12)


def test_meb_single_and_empty():
    b = min_enclosing_ball([(3.0, -1.0)])
    assert b.radius == 0.0
    with pytest.raises(ContractViolation):
        min_enclosing_ball([])


def test_meb_contains_all_points(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(2, 4))
        pts = rng.standard_normal((n, dim))
        b = min_enclosing_ball(pts)
        assert np.max(np.linalg.norm(pts - b.center, axis=1)) <= b.radius + 1e-9


def _degenerate_point_sets(rng, n: int, dim: int) -> list[np.ndarray]:
    """Integer lattice points with ties, collinear points and duplicates:
    their boundary subsets have singular Gram systems."""
    lattice = rng.integers(-2, 3, (n, dim)).astype(float)
    collinear = (rng.integers(-3, 4, (n, 1)) * rng.standard_normal(dim)
                 + rng.standard_normal(dim))
    distinct = rng.standard_normal((int(rng.integers(1, n + 1)), dim))
    duplicated = distinct[rng.integers(0, len(distinct), n)]
    return [lattice, collinear, duplicated]


def test_meb_matches_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(2, 8))
        dim = int(rng.integers(2, 4))
        pts = rng.standard_normal((n, dim))
        b = min_enclosing_ball(pts)
        assert b.radius == pytest.approx(brute_force_meb(pts), abs=1e-6)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        dim = int(rng.integers(2, 4))
        for pts in _degenerate_point_sets(rng, n, dim):
            b = min_enclosing_ball(pts)
            assert b.radius == pytest.approx(brute_force_meb(pts), abs=1e-6)
            assert np.max(np.linalg.norm(pts - b.center, axis=1)) \
                <= b.radius + 1e-9


def test_enclosing_balls_batch_matches_single_calls(rng):
    pts = rng.standard_normal((50, 4, 3))
    pts[::5, 1] = pts[::5, 0]  # some duplicated points
    radii, centres = enclosing_balls(pts)
    for p, r, c in zip(pts, radii, centres):
        b = min_enclosing_ball(p)
        assert r == b.radius
        assert np.array_equal(c, b.center)


def test_nerve_equilateral_threshold():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    full = cech_nerve(pts, 0.6)
    assert full.simplex_count(2) == 1
    hollow = cech_nerve(pts, 0.55)
    assert hollow.simplex_count(1) == 3
    assert hollow.simplex_count(2) == 0


def test_nerve_uses_closed_balls_in_every_dimension():
    # enclosing radius exactly 1: the closed unit balls meet at the origin
    pts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert min_enclosing_ball(pts).radius == 1.0
    k = cech_nerve(pts, 1.0)
    assert k.simplices[1] == [(0, 1), (0, 2), (1, 2)]
    assert k.simplices[2] == [(0, 1, 2)]
    assert k.boundary_ambiguous


def test_nerve_flags_a_triangle_on_the_threshold():
    # edges are far from 2 eps; only the triangle's radius is in the band
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    assert cech_nerve(pts, 1.0 / math.sqrt(3.0)).boundary_ambiguous
    assert not cech_nerve(pts, 0.6).boundary_ambiguous


def test_nerve_single_point():
    k = cech_nerve(np.array([[0.0, 0.0]]), 1.0)
    assert k.simplices[0] == [(0,)]
    assert k.dimension == 0


def test_nerve_face_closure(rng):
    for _ in range(10):
        pts = rng.standard_normal((int(rng.integers(3, 12)), 2))
        k = cech_nerve(pts, float(rng.uniform(0.3, 1.5)))
        assert k.is_closed()


def test_nerve_monotone_in_epsilon(rng):
    pts = rng.standard_normal((10, 2))
    small = cech_nerve(pts, 0.5)
    large = cech_nerve(pts, 0.9)
    for dim, simps in small.simplices.items():
        assert set(simps) <= set(large.simplices.get(dim, []))


def test_nerve_matches_monte_carlo_intersection(rng):
    # inclusion decision vs direct sampling of the ball intersection
    pts = rng.standard_normal((6, 2))
    eps = 0.8
    k = cech_nerve(pts, eps)
    present = {s for simps in k.simplices.values() for s in simps}
    samples = pts[rng.integers(0, 6, 20000)] + \
        rng.uniform(-eps, eps, (20000, 2))
    for size in (2, 3):
        for idx in itertools.combinations(range(6), size):
            dists = np.linalg.norm(
                samples[:, None, :] - pts[list(idx)][None, :, :], axis=2)
            hit = bool(np.any(np.all(dists < eps, axis=1)))
            ball = min_enclosing_ball(pts[list(idx)])
            margin = abs(ball.radius - eps)
            if margin < 1e-2:
                continue  # too close to the threshold for sampling
            assert (idx in present) == hit


def test_nerve_deterministic(rng):
    pts = rng.standard_normal((15, 3))
    a = cech_nerve(pts, 0.9)
    b = cech_nerve(pts, 0.9)
    assert a.simplices == b.simplices


def test_nerve_max_dim_cap(rng):
    pts = rng.standard_normal((8, 2)) * 0.1
    k = cech_nerve(pts, 1.0, max_dim=2)
    assert k.dimension <= 2


def test_nerve_validation():
    for epsilon, max_dim in ((0.0, None), (math.nan, None),
                             (math.inf, None), (1.0, -1)):
        with pytest.raises(ContractViolation):
            cech_nerve(np.zeros((2, 2)), epsilon, max_dim=max_dim)


def test_simplicial_complex_closure_check():
    bad = SimplicialComplex({0: [(0,), (1,), (2,)], 1: [(0, 1)],
                             2: [(0, 1, 2)]})
    assert not bad.is_closed()
