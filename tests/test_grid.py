import math
from fractions import Fraction

import numpy as np
import pytest

from sah.errors import ContractViolation
from sah.grid import (DEFAULT_CHUNK, covering_radius_estimate, grid_chunks,
                      grid_count, grid_points, shell_order)


def test_shell_order_examples():
    assert shell_order(1, 0.5) == 2
    assert shell_order(1, 1.0) == 1
    assert shell_order(2, 0.25) == 6  # ceil(sqrt(2) / 0.25) = ceil(5.656..)
    assert shell_order(3, 0.3) == 6


def test_shell_order_rejects_bad_radius():
    with pytest.raises(ContractViolation):
        shell_order(2, 0.0)
    with pytest.raises(ContractViolation):
        shell_order(2, -0.5)
    with pytest.raises(ContractViolation):
        shell_order(2, math.inf)


def test_shell_order_rejects_bad_dimension():
    with pytest.raises(ContractViolation):
        shell_order(0, 0.5)


def test_grid_chunks_rejects_faces_beyond_the_index_range():
    # a face of (2m+1)^3 > 2^63 points; m itself is far below 2^53
    m = shell_order(3, 1e-10)
    with pytest.raises(ContractViolation, match=rf"shell order {m} on S\^3"):
        next(grid_chunks(3, m))


def test_shell_order_is_the_least_m_with_m_r_at_least_sqrt_n():
    rng = np.random.default_rng(3)
    radii = [(n, r) for n in (1, 2, 3, 5) for r in
             [2.0 ** -i for i in range(41)]
             + [math.sqrt(n) / m for m in range(1, 200)]
             + list(10.0 ** rng.uniform(-9, 0.5, 200))]
    radii += [(1, 1e-320), (3, 5e-324)]
    for n, r in radii:
        m, rr = shell_order(n, r), Fraction(r)
        assert (m * rr) ** 2 >= n
        assert m == 1 or ((m - 1) * rr) ** 2 < n


def test_grid_count_formula():
    assert grid_count(1, 2) == 5 ** 2 - 3 ** 2  # 16


def test_stream_cardinality_exhaustive():
    # every shell point exactly once, for n <= 3 and M <= 6, whatever the
    # block size: scaling each unit vector back to sup-norm M recovers
    # distinct integer points of the shell
    for n in range(1, 4):
        for m in range(1, 7):
            for chunk in (1, 37, DEFAULT_CHUNK):
                blocks = list(grid_chunks(n, m, chunk))
                assert all(0 < len(b) <= chunk for b in blocks)
                pts = np.concatenate(blocks)
                assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
                ints = np.rint(pts * (m / np.abs(pts).max(axis=1))[:, None])
                assert np.allclose(ints / np.linalg.norm(ints, axis=1,
                                                         keepdims=True), pts)
                assert len(np.unique(ints, axis=0)) == len(pts)
                assert len(pts) == grid_count(n, m) == (2 * m + 1) ** (n + 1) - (2 * m - 1) ** (n + 1)


def test_chunks_are_bitwise_equal_across_chunk_sizes():
    for n, m in [(1, 7), (2, 3), (3, 2)]:
        want = grid_points(n, m)
        for chunk in (1, 37, 100):
            got = np.concatenate(list(grid_chunks(n, m, chunk)))
            assert got.tobytes() == want.tobytes()


def test_grid_points_shape():
    pts = grid_points(1, 4)
    assert pts.shape == (grid_count(1, 4), 2)


def test_covering_radius_below_r():
    # the Monte Carlo estimate stays below the proved bound, which is < r
    for n, r in [(1, 0.5), (1, 0.25), (2, 0.5), (2, 0.25), (3, 0.6)]:
        m = shell_order(n, r)
        bound = math.asin(math.sqrt(n) / (2 * m))
        assert bound < r
        assert covering_radius_estimate(n, m, samples=2000) <= bound
    assert covering_radius_estimate(1, 8, samples=2000) <= math.asin(1 / 16)


def test_deterministic_order():
    a = grid_points(2, 2)
    b = grid_points(2, 2)
    assert np.array_equal(a, b)
