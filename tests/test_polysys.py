import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (per_term_eval, per_term_gradient, random_homo_poly,
                      random_unit, sphere_systems, two_points_system)
from sah.errors import ContractViolation
from sah.polysys import (AffinePoly, AffineSystem, DegreePattern, HomoPoly,
                         compose_rotation, dehomogenize_poly, homogenize,
                         homogenize_poly, multinomial, power_table,
                         scaled_homogenization, system_size, weyl_inner,
                         weyl_norm, weyl_norm_poly)


def test_multinomial_values():
    assert multinomial(2, (2, 0)) == 1
    assert multinomial(2, (1, 1)) == 2
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(4, (2, 2)) == 6


def test_degree_pattern_validation():
    p = DegreePattern((2, 3), 1, 1)
    assert p.max_degree == 3
    assert p.equality_degrees() == (2,)
    assert p.inequality_degrees() == (3,)
    with pytest.raises(ContractViolation):
        DegreePattern((2,), 2, 0)
    with pytest.raises(ContractViolation):
        DegreePattern((0,), 1, 0)


def test_homopoly_rejects_inhomogeneous():
    with pytest.raises(ContractViolation):
        HomoPoly(2, 2, {(1, 0): 1.0})


def test_weyl_norm_examples():
    # X0^2 + X1^2: both weights are 1
    h = HomoPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    assert weyl_norm_poly(h) == pytest.approx(math.sqrt(2.0))
    # X0 X1 has multinomial weight 2
    h2 = HomoPoly(2, 2, {(1, 1): 1.0})
    assert weyl_norm_poly(h2) == pytest.approx(1.0 / math.sqrt(2.0))


def test_weyl_inner_requires_matching_shape():
    h = HomoPoly(2, 2, {(2, 0): 1.0})
    h2 = HomoPoly(2, 3, {(3, 0): 1.0})
    with pytest.raises(ContractViolation):
        weyl_inner(h, h2)


def test_weyl_norm_orthogonal_invariance(rng):
    # the Weyl norm must not change under rotations of the variables
    for _ in range(20):
        nv = int(rng.integers(2, 4))
        d = int(rng.integers(1, 4))
        h = random_homo_poly(rng, nv, d)
        u, _ = np.linalg.qr(rng.standard_normal((nv, nv)))
        hr = compose_rotation(h, u)
        assert weyl_norm_poly(hr) == pytest.approx(weyl_norm_poly(h), rel=1e-9)


def test_compose_rotation_evaluates_correctly(rng):
    for _ in range(10):
        h = random_homo_poly(rng, 3, 3)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        x = random_unit(rng, 3)
        assert compose_rotation(h, u)(x) == pytest.approx(h(u @ x), rel=1e-9)


def test_eval_many_matches_scalar(rng):
    h = random_homo_poly(rng, 3, 4)
    pts = rng.standard_normal((17, 3))
    vals = h.eval_many(pts)
    for i in range(len(pts)):
        assert vals[i] == pytest.approx(h(pts[i]), rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(sphere_systems())
def test_power_table_matches_the_per_term_evaluator(system):
    # one table of the system's top degree serves every component and
    # partial, with the per-term product's values bit for bit
    sys_, pts = system
    table = power_table(pts, sys_.pattern.max_degree)
    for p in sys_.components:
        assert np.array_equal(p.eval_table(table), per_term_eval(p, pts))
        assert np.array_equal(p.eval_many(pts), per_term_eval(p, pts))
        assert np.array_equal(p.gradient_table(table),
                              per_term_gradient(p, pts))


def test_power_table_entries():
    pts = np.array([[0.6, -0.8], [0.0, 1.0]])
    table = power_table(pts, 3)
    assert table.shape == (2, 4, 2)
    assert np.array_equal(table[:, 0], np.ones((2, 2)))
    assert np.array_equal(table[:, 1], pts.T)
    assert np.array_equal(table[:, 3], pts.T ** np.full((2, 2), 3))
    with pytest.raises(ContractViolation):
        random_homo_poly(np.random.default_rng(0), 3, 2).eval_table(table)


def test_partial_matches_finite_differences(rng):
    h = random_homo_poly(rng, 3, 3)
    x = rng.standard_normal(3)
    eps = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = eps
        fd = (h(x + e) - h(x - e)) / (2.0 * eps)
        assert h.partial(j)(x) == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_jacobian_shape_and_values(rng):
    polys = (random_homo_poly(rng, 3, 2), random_homo_poly(rng, 3, 3))
    pts = rng.standard_normal((4, 3))
    for p in polys:
        grad = p.gradient_many(pts)
        assert grad.shape == (4, 3)
        for n, x in enumerate(pts):
            for j in range(3):
                assert grad[n, j] == pytest.approx(p.partial(j)(x), rel=1e-12)


def test_euler_identity_for_homogeneous(rng):
    # sum_j x_j d h/d x_j = d * h for homogeneous h of degree d
    h = random_homo_poly(rng, 3, 4)
    x = rng.standard_normal(3)
    total = sum(x[j] * h.partial(j)(x) for j in range(3))
    assert total == pytest.approx(4.0 * h(x), rel=1e-10)


def test_homogenize_round_trip():
    p = AffinePoly(2, {(1, 0): 3.0, (0, 0): -2.0, (1, 1): 1.0})
    h = homogenize_poly(p, 3)
    assert h.degree == 3
    assert h.num_vars == 3
    back = dehomogenize_poly(h)
    assert back.terms == p.terms
    # values agree at X_0 = 1
    x = np.array([0.7, -0.3])
    assert h(np.concatenate([[1.0], x])) == pytest.approx(p(x))


def test_homogenize_degree_too_small():
    p = AffinePoly(1, {(2,): 1.0})
    with pytest.raises(ContractViolation):
        homogenize_poly(p, 1)


def test_affine_system_rejects_q_gt_n():
    p = AffinePoly(1, {(1,): 1.0})
    with pytest.raises(ContractViolation):
        AffineSystem(1, (p, p), (), (), DegreePattern((1, 1), 2, 0))


def test_system_size():
    # one quadric in two variables: C(2+2, 2) = 6 coefficients
    sys_ = two_points_system()
    assert system_size(sys_) == math.comb(1 + 2, 1)


def test_scaled_homogenization_doubles_squared_norm():
    sys_ = two_points_system()
    hsys = scaled_homogenization(sys_)
    base = weyl_norm(homogenize(sys_))
    assert weyl_norm(hsys) == pytest.approx(math.sqrt(2.0) * base)
    # the appended inequality is ||F^h|| * X_0
    assert hsys.pattern.degrees == (2, 1)
    assert hsys.G[-1].terms == {(1, 0): pytest.approx(base)}


def test_scaled_homogenization_rejects_zero_system():
    z = AffinePoly(1, {})
    sys_ = AffineSystem(1, (z,), (), (), DegreePattern((1,), 1, 0))
    with pytest.raises(ContractViolation):
        scaled_homogenization(sys_)
