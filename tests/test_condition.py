import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (per_term_eval, per_term_gradient, random_homo_poly,
                      random_unit, sphere_systems)
from sah.condition import (RANK_RTOL, Block, ConditionReport, SubtupleKernel,
                           block_kappa_max, condition_report, kappa,
                           kappa_max_many, kappa_subtuple_max, mu_norm,
                           mu_proj, reach_lower_bound, residual_and_sigma_min,
                           subtuple_kernels)
from sah.covering import approx_member_mask
from sah.errors import ContractViolation
from sah.polysys import (HomoPoly, HomoSystem, compose_rotation_system,
                         weyl_norm)


def linear_x1() -> HomoPoly:
    """F = (X_1) on S^1."""
    return HomoPoly(2, 1, {(0, 1): 1.0})


def test_mu_norm_simple():
    # F = (X1) at e0: ||F|| = 1, scaled Jacobian row is (0, 1)
    assert mu_norm([linear_x1()], np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_mu_proj_simple():
    # restriction to span(e1) is the identity
    assert mu_proj([linear_x1()], np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_finite_mu_norm_infinite_mu_proj():
    # f1 = x + y, f2 = y^2 + z^2 + xy at (1, 0, 0): the full Jacobian has
    # rank 2 but its restriction to the tangent plane does not
    f1 = HomoPoly(3, 1, {(1, 0, 0): 1.0, (0, 1, 0): 1.0})
    f2 = HomoPoly(3, 2, {(0, 2, 0): 1.0, (0, 0, 2): 1.0, (1, 1, 0): 1.0})
    x = np.array([1.0, 0.0, 0.0])
    assert math.isfinite(mu_norm([f1, f2], x))
    assert math.isinf(mu_proj([f1, f2], x))


def test_kappa_conventions():
    x = np.array([1.0, 0.0])
    # empty system
    assert kappa([], x) == 1.0
    # zero system
    z = HomoPoly(2, 1, {})
    assert math.isinf(kappa([z], x))


def test_kappa_overdetermined_branch():
    # q = 3 > n = 1: kappa is norm over residual
    polys = [HomoPoly(2, 1, {(1, 0): 1.0}), HomoPoly(2, 1, {(0, 1): 1.0}),
             HomoPoly(2, 1, {(1, 0): 1.0, (0, 1): 1.0})]
    x = np.array([1.0, 0.0])
    norm = weyl_norm(polys)
    resid = math.sqrt(1.0 + 0.0 + 1.0)
    assert kappa(polys, x) == pytest.approx(norm / resid)


@settings(max_examples=30, deadline=None)
@given(sphere_systems())
def test_overdetermined_kappa_is_the_inverse_residual(system):
    # sigma_q is 0 when q > n, and 1 / sqrt(resid^2) is 1 / resid bit for
    # bit: the branch's linear forms on S^n, with the drawn components
    sys_, pts = system
    nv = pts.shape[1]
    axes = [tuple(int(v == w) for w in range(nv)) for v in range(nv)]
    linear = [HomoPoly(nv, 1, {a: 1.0}) for a in axes]
    linear.append(HomoPoly(nv, 1, {axes[0]: 1.0, axes[1]: 1.0}))
    polys = tuple(linear) + sys_.components
    rows, norm = tuple(range(len(polys))), weyl_norm(polys)

    def inverse_residual(at):
        resid, smin = residual_and_sigma_min(Block(polys, at), rows, norm)
        assert not smin.any()
        return 1.0 / resid

    kern = SubtupleKernel(rows, norm)
    assert np.array_equal(kern.kappa_many(Block(polys, pts)),
                          inverse_residual(pts))
    for x in pts[:8]:
        assert kappa(polys, x) == inverse_residual(x[None, :])[0]


def test_kappa_at_least_one(rng):
    for _ in range(200):
        nv = int(rng.integers(2, 4))
        q = int(rng.integers(1, nv))
        polys = [random_homo_poly(rng, nv, int(rng.integers(1, 4)))
                 for _ in range(q)]
        x = random_unit(rng, nv)
        assert kappa(polys, x) >= 1.0 - 1e-12


def test_kappa_scale_invariance(rng):
    for _ in range(50):
        polys = [random_homo_poly(rng, 3, 2), random_homo_poly(rng, 3, 3)]
        x = random_unit(rng, 3)
        lam = float(rng.uniform(0.1, 10.0))
        scaled = [p.scale(lam) for p in polys]
        assert kappa(scaled, x) == pytest.approx(kappa(polys, x), rel=1e-9)


def test_kappa_orthogonal_invariance(rng):
    for _ in range(20):
        polys = (random_homo_poly(rng, 3, 2),)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        x = random_unit(rng, 3)
        rotated = compose_rotation_system(polys, u)
        # (p o u)(x) = p(u x): rotating the system and pulling back the point
        assert kappa(rotated, x) == pytest.approx(kappa(polys, u @ x), rel=1e-8)


def test_inverse_kappa_lipschitz(rng):
    # |1/kappa(F,x) - 1/kappa(F,y)| <= D * d_S(x, y) + slack
    for _ in range(100):
        d = int(rng.integers(1, 4))
        polys = [random_homo_poly(rng, 3, d)]
        x = random_unit(rng, 3)
        step = rng.standard_normal(3) * 0.01
        y = x + step
        y /= np.linalg.norm(y)
        dist = math.acos(min(1.0, abs(np.dot(x, y))))
        lhs = abs(1.0 / kappa(polys, x) - 1.0 / kappa(polys, y))
        assert lhs <= d * dist + 1e-8


def test_point_must_be_unit():
    with pytest.raises(ContractViolation):
        kappa([linear_x1()], np.array([2.0, 0.0]))


def test_subtuple_kernels_enumeration():
    # one equality and three inequalities on S^2 admit subtuples of length
    # at most 2, by length and then lexicographic; a kernel's rows are the
    # equality's and those of its inequalities among the components
    x = [HomoPoly(3, 1, {e: 1.0}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    kernels = subtuple_kernels(HomoSystem((x[0],), (x[1], x[2], x[0])))
    subs = [sub for sub, _ in kernels]
    assert subs == [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    assert [kern.rows for _, kern in kernels] == [
        (0,), (0, 1), (0, 2), (0, 3), (0, 1, 2), (0, 1, 3), (0, 2, 3)]
    assert kernels[5][1].norm == math.sqrt(3.0)


def test_kappa_subtuple_max_picks_worst():
    # G = (X1, X0): at e0 the subtuple (0,) containing X1 has a zero on the
    # tangent space... compare against direct enumeration
    g1 = HomoPoly(2, 1, {(0, 1): 1.0})
    g2 = HomoPoly(2, 1, {(1, 0): 1.0})
    sys_ = HomoSystem((), (g1, g2))
    x = np.array([1.0, 0.0])
    best, sub = kappa_subtuple_max(sys_, x)
    expected = max(kappa([], x), kappa([g1], x), kappa([g2], x),
                   kappa([g1, g2], x))
    assert best == pytest.approx(expected)
    assert sub == (0, 1)


def test_reach_lower_bound():
    assert reach_lower_bound(2.0, 2) == pytest.approx(
        1.0 / (7.0 * 2.0 ** 1.5 * 2.0))
    assert reach_lower_bound(math.inf, 3) == 0.0
    with pytest.raises(ContractViolation):
        reach_lower_bound(0.5, 2)


def test_condition_report_fields():
    rep = condition_report([linear_x1()], np.array([1.0, 0.0]))
    assert isinstance(rep, ConditionReport)
    assert rep.kappa == pytest.approx(1.0)
    assert rep.residual_ratio == pytest.approx(0.0)
    assert rep.reach_lower > 0.0
    assert rep.dist_to_illposed_lower == pytest.approx(1.0)


def tangent_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of x-perp: the last columns of the Householder
    reflector that maps e_0 to -x or x.  Its vector x +- e_0 takes the sign
    of x_0, so no cancellation occurs when x is near +-e_0 (the other sign
    loses digits there: x_0 - 1 carries the rounding of ||x|| - 1)."""
    v = x.copy()
    v[0] += 1.0 if x[0] >= 0.0 else -1.0
    v /= np.linalg.norm(v)
    return (np.eye(len(x)) - 2.0 * np.outer(v, v))[:, 1:]


def reference_jacobians(polys, pts) -> np.ndarray:
    """The degree-scaled Jacobians at a block of points, shape (N, q, n+1)."""
    return np.stack([per_term_gradient(p, pts) / math.sqrt(p.degree)
                     for p in polys], axis=1)


def reference_sigma(polys, x, project: bool, jac=None) -> float:
    """sigma_q of the degree-scaled Jacobian `jac` at x (evaluated at x
    alone when None), restricted to x-perp through an explicit basis when
    `project`; 0.0 when rank-deficient."""
    if jac is None:
        jac = reference_jacobians(polys, x[None, :])[0]
    if project:
        jac = jac @ tangent_basis(x)
    s = np.linalg.svd(jac, compute_uv=False)
    q = len(polys)
    return 0.0 if s[0] == 0.0 or s[q - 1] < RANK_RTOL * s[0] else float(s[q - 1])


def reference_kappa_many(polys, pts) -> np.ndarray:
    """The reference kappa at each point of a block.

    Each polynomial and gradient is evaluated once over the whole block,
    as a `Block` evaluates it.  A one-point evaluation takes another BLAS
    path and may differ in the last bit; near a zero of f that difference,
    divided by |f(x)| in kappa ~ ||F|| / |f(x)|, exceeds 1e-13.
    """
    if not polys:
        return np.ones(len(pts))
    norm = weyl_norm(polys)
    if norm == 0.0:
        return np.full(len(pts), math.inf)
    values = np.column_stack([per_term_eval(p, pts) for p in polys])
    jacs = reference_jacobians(polys, pts)
    out = np.empty(len(pts))
    for i, x in enumerate(pts):
        resid = float(np.linalg.norm(values[i])) / norm
        if len(polys) > len(x) - 1:
            out[i] = math.inf if resid == 0.0 else 1.0 / resid
            continue
        total = (reference_sigma(polys, x, True, jacs[i]) / norm) ** 2 + resid ** 2
        out[i] = math.inf if total == 0.0 else 1.0 / math.sqrt(total)
    return out


def reference_kappa(polys, x) -> float:
    return float(reference_kappa_many(polys, x[None, :])[0])


def reference_mu(polys, x, project: bool) -> float:
    if len(polys) > len(x) - project:
        return math.inf
    smin = reference_sigma(polys, x, project)
    return math.inf if smin == 0.0 else weyl_norm(polys) / smin


def kernel_kappa(polys, pts) -> np.ndarray:
    """kappa of all of `polys` through a kernel over one block."""
    polys = tuple(polys)
    kern = SubtupleKernel(tuple(range(len(polys))), weyl_norm(polys))
    return kern.kappa_many(Block(polys, pts))


def test_kernel_matches_scalar_kappa(rng):
    # both the batched kernel and the one-point scalar calls against the
    # Householder-basis reference, for q = 1, 2 on S^2
    for q in (1, 2):
        polys = tuple(random_homo_poly(rng, 3, 2) for _ in range(q))
        pts = np.array([random_unit(rng, 3) for _ in range(40)])
        vals = kernel_kappa(polys, pts)
        for i, x in enumerate(pts):
            want = reference_kappa(polys, x)
            assert vals[i] == pytest.approx(want, rel=1e-9)
            assert kappa(polys, x) == pytest.approx(want, rel=1e-9)
            assert mu_proj(polys, x) == pytest.approx(
                reference_mu(polys, x, True), rel=1e-9)
            assert mu_norm(polys, x) == pytest.approx(
                reference_mu(polys, x, False), rel=1e-9)


def test_kernel_overdetermined_and_empty(rng):
    pts = np.array([random_unit(rng, 2) for _ in range(10)])
    assert np.all(kernel_kappa((), pts) == 1.0)
    polys = tuple(random_homo_poly(rng, 2, 2) for _ in range(3))
    vals = kernel_kappa(polys, pts)
    for i, x in enumerate(pts):
        assert vals[i] == pytest.approx(reference_kappa(polys, x), rel=1e-9)
        assert kappa(polys, x) == pytest.approx(vals[i], rel=1e-9)
        assert math.isinf(mu_proj(polys, x)) and math.isinf(mu_norm(polys, x))


def test_rank_deficient_point_matches_reference():
    # criterion 5: the tangent restriction loses rank, the full Jacobian not
    f1 = HomoPoly(3, 1, {(1, 0, 0): 1.0, (0, 1, 0): 1.0})
    f2 = HomoPoly(3, 2, {(0, 2, 0): 1.0, (0, 0, 2): 1.0, (1, 1, 0): 1.0})
    polys = (f1, f2)
    x = np.array([1.0, 0.0, 0.0])
    assert reference_sigma(polys, x, True) == 0.0
    assert math.isinf(reference_mu(polys, x, True))
    assert math.isinf(mu_proj(polys, x))
    assert mu_norm(polys, x) == pytest.approx(reference_mu(polys, x, False),
                                              rel=1e-12)
    want = reference_kappa(polys, x)
    assert kappa(polys, x) == pytest.approx(want, rel=1e-12)
    assert kernel_kappa(polys, x[None, :])[0] == pytest.approx(want, rel=1e-12)


def per_term_mask(sys_, r, pts) -> np.ndarray:
    mask = np.ones(len(pts), dtype=bool)
    for f in sys_.F:
        mask &= np.abs(per_term_eval(f, pts)) < weyl_norm((f,)) * r
    for g in sys_.G:
        mask &= per_term_eval(g, pts) > -weyl_norm((g,)) * r
    return mask


@settings(max_examples=60, deadline=None)
@given(sphere_systems())
def test_block_and_kernels_match_the_references(system):
    # one block of the system against the per-term evaluator and the
    # Householder/SVD kappa, for every admissible subtuple (the longest
    # ones are overdetermined on the tangent space)
    sys_, pts = system
    comps = sys_.components
    block = Block(comps, pts)
    assert np.array_equal(block.values, np.column_stack(
        [per_term_eval(p, pts) for p in comps]))
    grads = np.stack([per_term_gradient(p, pts) * (1.0 / math.sqrt(p.degree))
                      for p in comps], axis=1)
    assert np.array_equal(block.gradients, grads)
    assert np.array_equal(block.tangent_gradients, grads - np.einsum(
        "nqv,nv->nq", grads, pts)[:, :, None] * pts[:, None, :])
    for r in (0.05, 0.3):
        assert np.array_equal(approx_member_mask(sys_, r, pts),
                              per_term_mask(sys_, r, pts))
    kernels = subtuple_kernels(sys_)
    want = np.array([reference_kappa_many(tuple(comps[i] for i in kern.rows), pts)
                     for _, kern in kernels])
    for (_, kern), ref in zip(kernels, want):
        np.testing.assert_allclose(kern.kappa_many(block), ref, rtol=1e-13)
    best, arg = kappa_max_many(kernels, block)
    np.testing.assert_allclose(best, want.max(axis=0), rtol=1e-13)
    # the first maximiser is the reference's wherever the runner-up is not
    # within rounding of the maximum (a linear form on S^1 has kappa 1
    # exactly, the empty subtuple's value, up to the last bit)
    top = np.sort(want, axis=0)
    clear = (top[-1] > top[-2] * (1.0 + 1e-12) if len(kernels) > 1
             else np.ones(len(pts), dtype=bool))
    assert np.array_equal(arg[clear], np.argmax(want, axis=0)[clear])


def assert_bounds_bracket(kernels, block):
    for _, kern in kernels:
        lo, hi = kern.kappa_bounds(block)
        exact = kern.kappa_many(block)
        known = ~np.isnan(exact)
        assert np.all(lo[known] <= exact[known]), kern.rows
        assert np.all(exact[known] <= hi[known]), kern.rows


def assert_block_max_is_the_whole_blocks(kernels, block):
    best, arg = kappa_max_many(kernels, block)
    i = int(np.argmax(best))
    assert block_kappa_max(kernels, block) == (best[i], i, arg[i])


@settings(max_examples=60, deadline=None)
@given(sphere_systems())
def test_gram_bounds_pick_the_block_maximum(system):
    # every kernel's bounds bracket its exact kappa, and the maximum over
    # the candidates is the whole block's, bit for bit
    sys_, pts = system
    kernels = subtuple_kernels(sys_)
    block = Block(sys_.components, pts)
    assert_bounds_bracket(kernels, block)
    assert_block_max_is_the_whole_blocks(kernels, block)


def tilted_pair(angle: float) -> tuple[HomoPoly, HomoPoly]:
    """X_1 and cos(a) X_1 + sin(a) X_2 on S^2: both vanish at e_0, where
    their tangent gradients meet at the angle a."""
    return (HomoPoly(3, 1, {(0, 1, 0): 1.0}),
            HomoPoly(3, 1, {(0, 1, 0): math.cos(angle),
                            (0, 0, 1): math.sin(angle)}))


@pytest.mark.parametrize("angle", [1e-6, 3e-6, 1e-11, 4e-11])
def test_gram_bounds_at_near_deficient_points(angle, rng):
    # at 1e-6 sigma_2 / sigma_1 is far below what the Gram resolves but
    # above RANK_RTOL; at 1e-11 the SVD calls the pair rank-deficient
    polys = tilted_pair(angle)
    pts = np.vstack([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]
                     + 1e-9 * rng.standard_normal((31, 3))])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    kern = SubtupleKernel((0, 1), weyl_norm(polys))
    block = Block(polys, pts)
    assert_bounds_bracket([((), kern)], block)
    assert_block_max_is_the_whole_blocks([((), kern)], block)
    exact = kern.kappa_many(block)[0]
    assert math.isinf(exact) == (angle < RANK_RTOL)


def test_gram_bounds_at_the_rank_deficient_point():
    # criterion 5's point, with two random points of the same block
    f1 = HomoPoly(3, 1, {(1, 0, 0): 1.0, (0, 1, 0): 1.0})
    f2 = HomoPoly(3, 2, {(0, 2, 0): 1.0, (0, 0, 2): 1.0, (1, 1, 0): 1.0})
    sys_ = HomoSystem((f1,), (f2,))
    pts = np.array([[1.0, 0.0, 0.0], [0.6, 0.0, 0.8], [0.0, 0.6, -0.8]])
    kernels = subtuple_kernels(sys_)
    block = Block(sys_.components, pts)
    assert_bounds_bracket(kernels, block)
    assert_block_max_is_the_whole_blocks(kernels, block)
    assert kernels[1][1].kappa_many(block)[0] == pytest.approx(
        reference_kappa((f1, f2), pts[0]), rel=1e-12)


def test_take_slices_the_evaluated_rows(rng):
    # one point evaluated on its own sums in another order than in a block
    # of 8192, so a re-evaluation would change last bits here
    polys = (random_homo_poly(rng, 3, 3), random_homo_poly(rng, 3, 2))
    pts = rng.standard_normal((8192, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    block = Block(polys, pts)
    for idx in [np.arange(0, 8192, 7)] + [[i] for i in range(0, 8192, 512)]:
        sub = block.take(idx)
        for name in ("pts", "values", "gradients", "tangent_gradients"):
            assert np.array_equal(getattr(sub, name),
                                  getattr(block, name)[idx]), name


@pytest.mark.parametrize("call, match", [
    (lambda: mu_norm([], np.array([1.0, 0.0])), "empty system"),
    # three equalities on S^1: q > n + 1
    (lambda: subtuple_kernels(HomoSystem((linear_x1(),) * 3, ())),
     "too many equalities"),
])
def test_contract_checks(call, match):
    with pytest.raises(ContractViolation, match=match):
        call()


def test_mu_of_the_zero_polynomial_is_infinite():
    assert mu_norm([HomoPoly(2, 1, {})], np.array([1.0, 0.0])) == math.inf
