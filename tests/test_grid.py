import math

import numpy as np
import pytest

from sah.errors import ContractViolation
from sah.grid import (GridSpec, covering_radius_estimate, grid_chunks,
                      grid_count, grid_points, grid_stream, shell_order)


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


def test_grid_spec_validation():
    spec = GridSpec(1, 0.5)
    assert spec.M == 2
    with pytest.raises(ContractViolation):
        GridSpec(0, 0.5)


def test_from_shell():
    for n in (1, 2, 3):
        for m in (1, 2, 5):
            spec = GridSpec.from_shell(n, m)
            assert spec.M == m


def test_grid_count_formula():
    spec = GridSpec.from_shell(1, 2)
    assert grid_count(spec) == 5 ** 2 - 3 ** 2  # 16


def test_stream_cardinality_exhaustive():
    # every shell point exactly once, for n <= 3 and M <= 6
    for n in range(1, 4):
        for m in range(1, 7):
            spec = GridSpec.from_shell(n, m)
            seen = set()
            count = 0
            for pt in grid_stream(spec):
                assert np.linalg.norm(pt) == pytest.approx(1.0)
                key = tuple(np.round(pt * 1e12).astype(np.int64))
                assert key not in seen
                seen.add(key)
                count += 1
            assert count == grid_count(spec) == (2 * m + 1) ** (n + 1) - (2 * m - 1) ** (n + 1)


def test_chunks_match_stream():
    spec = GridSpec.from_shell(2, 3)
    streamed = np.array(list(grid_stream(spec)))
    chunked = np.concatenate(list(grid_chunks(spec, chunk=37)), axis=0)
    assert streamed.shape == chunked.shape
    assert np.allclose(streamed, chunked)


def test_grid_points_shape():
    spec = GridSpec.from_shell(1, 4)
    pts = grid_points(spec)
    assert pts.shape == (grid_count(spec), 2)


def test_covering_radius_below_r():
    for n, r in [(1, 0.5), (1, 0.25), (2, 0.5), (2, 0.25), (3, 0.6)]:
        spec = GridSpec(n, r)
        assert covering_radius_estimate(spec, samples=2000) < r


def test_deterministic_order():
    spec = GridSpec.from_shell(2, 2)
    a = np.array(list(grid_stream(spec)))
    b = np.array(list(grid_stream(spec)))
    assert np.array_equal(a, b)
