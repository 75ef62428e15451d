import math
from collections import Counter

import numpy as np
import pytest

import sah.condition
from conftest import annulus_system, two_points_system
from sah.condition import kappa_subtuple_max, subtuple_kernels
from sah.covering import (approx_member_mask, ball_radius, certificate_holds,
                          covering, covering_fixed)
from sah.errors import ContractViolation
from sah.grid import grid_chunks, grid_points, shell_order
from sah.polysys import (HomoPoly, HomoSystem, Poly, scaled_homogenization,
                         weyl_norm)


def linear_system() -> HomoSystem:
    """F = (X_1) on S^1; zeros at (+-1, 0)."""
    return HomoSystem((HomoPoly(2, 1, {(0, 1): 1.0}),), ())


def _member(sys_, r, x) -> bool:
    return bool(approx_member_mask(sys_, r, np.asarray(x, dtype=float)[None, :])[0])


def test_approx_member_strict_comparisons():
    sys_ = linear_system()
    x = np.array([1.0, 0.0])
    assert _member(sys_, 0.5, x)
    # |f(x)| = 0.5 = ||f|| * r exactly: strict comparison fails
    y = np.array([math.sqrt(0.75), 0.5])
    assert not _member(sys_, 0.5, y)
    assert _member(sys_, 0.5 + 1e-12, y)


def test_approx_member_inequality():
    g = HomoPoly(2, 1, {(1, 0): 1.0})
    sys_ = HomoSystem((), (g,))
    assert _member(sys_, 0.5, np.array([0.0, 1.0]))
    assert not _member(sys_, 0.5, np.array([-1.0, 0.0]))


def test_approx_member_validation():
    sys_ = linear_system()
    for r in (0.0, -0.5):
        with pytest.raises(ContractViolation):
            approx_member_mask(sys_, r, np.array([[1.0, 0.0]]))


def test_mask_matches_scalar(rng):
    # reference: the two strict comparisons, one point and one polynomial
    # at a time
    g = HomoPoly(2, 2, {(2, 0): 1.0, (1, 1): -0.5, (0, 2): -1.0})
    sys_ = HomoSystem(linear_system().F, (g,))
    pts = rng.standard_normal((50, 2))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    mask = approx_member_mask(sys_, 0.3, pts)
    for i, x in enumerate(pts):
        want = (all(abs(f(x)) < weyl_norm((f,)) * 0.3 for f in sys_.F)
                and all(h(x) > -weyl_norm((h,)) * 0.3 for h in sys_.G))
        assert mask[i] == want
    assert 0 < mask.sum() < len(pts)


def test_k_star_over_grid_linear():
    # kappa of (X1) is 1 everywhere on S^1
    res = covering_fixed(linear_system(), 0.25, 0.1)
    assert res.k_star == pytest.approx(1.0)
    assert len(res.witness_subtuple) == 0
    assert np.linalg.norm(res.witness_point) == pytest.approx(1.0)


def test_k_star_matches_brute_force():
    sys_ = scaled_homogenization(two_points_system())
    r = 0.25
    k = covering_fixed(sys_, r, 0.1).k_star
    n = sys_.sphere_dim
    best = max(kappa_subtuple_max(sys_, x)[0]
               for x in grid_points(n, shell_order(n, r)))
    assert k == pytest.approx(best, rel=1e-12)


def test_covering_certified_linear():
    res = covering(linear_system())
    assert res.certified
    assert certificate_holds(1, res.k_star, res.r_final)
    assert res.epsilon == pytest.approx(ball_radius(1, res.k_star, res.r_final))
    # every returned point is near a true zero (+-1, 0)
    assert len(res.points) > 0
    for x in res.points:
        assert min(abs(x[0] - 1.0) + abs(x[1]),
                   abs(x[0] + 1.0) + abs(x[1])) < 2.0 * res.epsilon
    # both zeros are covered
    for z in (np.array([1.0, 0.0]), np.array([-1.0, 0.0])):
        assert np.min(np.linalg.norm(res.points - z, axis=1)) < res.epsilon


def test_covering_two_points_postconditions():
    hsys = scaled_homogenization(two_points_system())
    res = covering(hsys)
    d = hsys.max_degree
    assert res.certified
    assert 71.0 * d ** 2.5 * res.k_star ** 2 * res.r_final < 1.0
    assert res.epsilon == pytest.approx(5.0 * d * res.k_star * res.r_final)
    mask = approx_member_mask(hsys, math.sqrt(d) * res.r_final, res.points)
    assert bool(mask.all())
    assert res.grid_size == len(grid_points(1, shell_order(1, res.r_final)))
    # zeros of the homogenized system: (1, +-1) / sqrt(2)
    for z in (np.array([1.0, 1.0]), np.array([1.0, -1.0])):
        z = z / np.linalg.norm(z)
        assert np.min(np.linalg.norm(res.points - z, axis=1)) < res.epsilon


def test_covering_gives_up_on_illposed():
    # double root: x^2 has kappa infinity at its zero, never certifies
    f = HomoPoly(2, 2, {(0, 2): 1.0})
    sys_ = HomoSystem((f,), ())
    res = covering(sys_, max_iterations=5)
    assert not res.certified
    assert res.iterations == 5
    assert res.r_final == 2.0 ** -5


def test_ties_go_to_the_first_subtuple_and_the_first_point():
    # F = (X1), G = (X0, X0): F^L for L = (0,) and L = (1,) are the same
    # overdetermined pair, with kappa sqrt(2) > kappa(F) = 1 at every point
    x0 = HomoPoly(2, 1, {(1, 0): 1.0})
    sys_ = HomoSystem(linear_system().F, (x0, x0))
    pts = grid_points(1, 2)
    for x in pts[:3]:
        k, sub = kappa_subtuple_max(sys_, x)
        assert k == pytest.approx(math.sqrt(2.0))
        assert sub == (0,)
    res = covering_fixed(sys_, 0.5, 0.1)
    assert res.witness_subtuple == (0,)
    assert np.array_equal(res.witness_point, pts[0])


@pytest.mark.parametrize("affine", [annulus_system, two_points_system])
def test_first_certified_pass_is_the_fixed_pass_at_one_half(affine):
    # both modes share one grid pass, so its results agree bit for bit
    sys_ = scaled_homogenization(affine())
    got = covering(sys_, max_iterations=1)
    want = covering_fixed(sys_, 0.5, 0.1)
    assert got.r_final == want.r_final == 0.5
    assert got.k_star == want.k_star
    assert np.array_equal(got.witness_point, want.witness_point)
    assert got.witness_subtuple == want.witness_subtuple
    assert np.array_equal(got.points, want.points)
    assert got.grid_size == want.grid_size


def test_scan_evaluates_each_polynomial_once_per_block(monkeypatch):
    # the annulus has 8 subtuple kernels over 3 components; each block
    # builds one power table and evaluates each component and each of its
    # partials once, whatever the number of kernels reading them
    sys_ = scaled_homogenization(annulus_system())
    r = 2.0 ** -5
    n = sys_.sphere_dim
    blocks = len(list(grid_chunks(n, shell_order(n, r))))
    assert blocks > 1 and len(subtuple_kernels(sys_)) == 8
    tables, evals = [], Counter()
    power_table, eval_table = sah.condition.power_table, Poly.eval_table

    def count_table(pts, degree):
        tables.append(len(pts))
        return power_table(pts, degree)

    def count_eval(poly, table):
        evals[id(poly)] += 1
        return eval_table(poly, table)

    monkeypatch.setattr(sah.condition, "power_table", count_table)
    monkeypatch.setattr(Poly, "eval_table", count_eval)
    covering_fixed(sys_, r, 0.15)
    assert len(tables) == blocks
    polys = [q for p in sys_.components for q in (p,) + p.partials]
    assert len(polys) == 3 * (1 + sys_.num_vars)
    assert evals == Counter({id(q): blocks for q in polys})


def test_the_svd_runs_only_at_candidate_points(monkeypatch):
    # the annulus has three kernels of two projected rows on S^2; the
    # Gram bounds leave fewer than 1% of their matrices for the SVD
    sys_ = scaled_homogenization(annulus_system())
    r = 2.0 ** -5
    pairs = [k for _, k in subtuple_kernels(sys_) if len(k.rows) == 2]
    assert len(pairs) == 3
    matrices = []
    svd = np.linalg.svd

    def count_svd(a, *args, **kwargs):
        matrices.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", count_svd)
    res = covering_fixed(sys_, r, 0.15)
    assert 0 < sum(matrices) < 0.01 * res.grid_size * len(pairs)


def test_covering_fixed_audit_value():
    hsys = scaled_homogenization(two_points_system())
    res = covering_fixed(hsys, 0.125, 0.3)
    d = hsys.max_degree
    assert not res.certified
    assert res.epsilon == 0.3
    assert res.audit_hypothesis == pytest.approx(
        13.0 * d ** 1.5 * res.k_star ** 2 * math.sqrt(d) * 0.125)


def test_covering_fixed_validation():
    hsys = scaled_homogenization(two_points_system())
    with pytest.raises(ContractViolation):
        covering_fixed(hsys, 0.125, 0.0)
