import itertools
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sah.nerve
from conftest import face_closed, oracle_cech_nerve
from sah.errors import ContractViolation
from sah.homology import boundary_matrix
from sah.nerve import (MAX_POINTS, Ball, SimplicialComplex, cech_nerve,
                       enclosing_balls, min_enclosing_ball)


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
        assert face_closed(k)


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
    with pytest.raises(ContractViolation, match="2d"):
        cech_nerve(np.zeros(3), 1.0)


@st.composite
def small_clouds(draw):
    """2-8 points in R^2 or R^3, a ball radius and a max_dim <= dim.

    Counts are drawn as offsets from the largest, so that the simplest
    draws, which come most often, still build high simplices.  Up to 8
    isolated points come first: they shift the labels of the cloud, since
    a set of small ints below its hash table size iterates sorted anyway.
    """
    dim = draw(st.sampled_from((2, 3)))
    npts = 8 - draw(st.integers(0, 6))
    coords = st.floats(-1.0, 1.0, allow_subnormal=False)
    cloud = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                          min_size=npts, max_size=npts))
    far = np.zeros((draw(st.integers(0, 8)), dim))
    far[:, 0] = 10.0 * np.arange(2, 2 + len(far))
    pts = np.concatenate([far, np.array(cloud)])
    return pts, draw(st.floats(0.05, 1.5)), dim - draw(st.integers(0, dim))


@settings(max_examples=100, deadline=None)
@given(small_clouds())
def test_nerve_is_every_subset_that_passes_the_ball_test(cloud):
    # brute force over all (k+1)-subsets in lexicographic order: checks
    # that the clique expansion misses none and keeps the order
    pts, eps, max_dim = cloud
    k = cech_nerve(pts, eps, max_dim=max_dim)
    if k.boundary_ambiguous:
        return
    expected = {0: [(i,) for i in range(len(pts))]}
    for dim in range(1, max_dim + 1):
        subsets = list(itertools.combinations(range(len(pts)), dim + 1))
        if not subsets:
            break
        if dim == 1:
            keep = [np.linalg.norm(pts[i] - pts[j]) <= 2 * eps
                    for i, j in subsets]
        else:
            keep = enclosing_balls(pts[np.array(subsets)])[0] <= eps
        simps = [s for s, ok in zip(subsets, keep) if ok]
        if simps:
            expected[dim] = simps
    assert k.simplices == expected


@st.composite
def sphere_clouds(draw):
    """12-40 random points of S^1 in R^2 or of S^2 in R^3, and a ball
    radius.  On S^2, radii 0.3-0.8 keep some tetrahedra and refuse others,
    and some triangles go to enclosing_balls both ways; on S^1, radii above
    sqrt(3)/2 admit acute triangles, whose minimum ball is the unit circle.
    Radii stay below 1, so that such circles stay out of the slack band."""
    dim = draw(st.sampled_from((2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.standard_normal((draw(st.integers(12, 40)), dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts, draw(st.floats(0.3, 0.8) if dim == 3 else st.floats(0.2, 0.95))


@settings(max_examples=60, deadline=None)
@given(sphere_clouds())
def test_facet_decisions_match_the_all_subsets_oracle(cloud):
    pts, eps = cloud
    expected = oracle_cech_nerve(pts, eps)
    if expected.boundary_ambiguous:
        return
    got = cech_nerve(pts, eps)
    assert got.simplices == expected.simplices
    assert not got.boundary_ambiguous


def test_nerve_memory_is_not_quadratic():
    # the dense N x N construction peaked near 1 GB on these points
    rng = np.random.default_rng(5000)
    pts = rng.standard_normal((5000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    tracemalloc.start()
    try:
        k = cech_nerve(pts, 0.05, max_dim=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k.simplex_count(1) > 10_000
    assert peak < 50e6


def test_nerve_refuses_more_than_max_points():
    with pytest.raises(ContractViolation,
                       match=f"{MAX_POINTS + 1} points: .* at most {MAX_POINTS}"):
        cech_nerve(np.zeros((MAX_POINTS + 1, 2)), 0.1)


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_cli_refuses_a_cover_beyond_max_points(tmp_path):
    # 4x^3 + x^2 + 1 >= 0 and 2x + 3 >= 0 certify with 178,608 members
    doc = tmp_path / "cubic.json"
    doc.write_text('''{"schema": "sah-system/1", "n": 1, "inequalities": [
        {"degree": 3, "terms": [{"coeff": "4", "exponents": [3]},
            {"coeff": "1", "exponents": [2]}, {"coeff": "1", "exponents": [0]}]},
        {"degree": 1, "terms": [{"coeff": "2", "exponents": [1]},
            {"coeff": "3", "exponents": [0]}]}]}''')
    src = os.path.dirname(os.path.dirname(sah.nerve.__file__))
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "sah.cli", "compute", "--input", str(doc)],
        capture_output=True, text=True, timeout=60,
        preexec_fn=_cap_address_space, env={**os.environ, "PYTHONPATH": src})
    elapsed = time.perf_counter() - t0
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.splitlines() == [
        f"error: 178608 points: the clique nerve takes at most {MAX_POINTS}"]
    assert elapsed < 5.0


def test_simplicial_complex_closure_check():
    bad = SimplicialComplex({0: [(0,), (1,), (2,)], 1: [(0, 1)],
                             2: [(0, 1, 2)]})
    with pytest.raises(ContractViolation, match="not closed under faces"):
        boundary_matrix(bad, 2)
