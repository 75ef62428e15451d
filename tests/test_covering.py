import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sah.condition
import sah.covering as covering_module
from conftest import annulus_system, sphere_systems, two_points_system
from sah.condition import kappa_subtuple_max, subtuple_kernels
from sah.covering import (DEFAULT_MAX_ITERATIONS, KAPPA_MARGIN, CoveringResult,
                          approx_member_mask, ball_radius, certificate_holds,
                          covering, covering_fixed, kappa_lower_bound)
from sah.errors import ContractViolation
from sah.grid import grid_chunks, grid_count, grid_points, shell_order
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


def test_covering_fixed_requires_q_at_most_n():
    # two equalities on S^1
    lin = linear_system().F[0]
    with pytest.raises(ContractViolation, match="q <= n"):
        covering_fixed(HomoSystem((lin, lin), ()), 0.125, 0.3)


def full_loop(sys_: HomoSystem,
              max_iterations: int = DEFAULT_MAX_ITERATIONS) -> CoveringResult:
    """The certified loop that scans every pass: the oracle of `covering`."""
    for iterations in range(1, max_iterations + 1):
        scan = covering_module._scan(sys_, 2.0 ** -iterations)
        certified = certificate_holds(sys_.max_degree, scan["k_star"],
                                      scan["r_final"])
        if certified:
            break
    return CoveringResult(
        **scan,
        epsilon=ball_radius(sys_.max_degree, scan["k_star"], scan["r_final"]),
        iterations=iterations, certified=certified)


def assert_same_covering(got: CoveringResult, want: CoveringResult) -> None:
    assert got.iterations == want.iterations
    assert got.certified == want.certified
    assert got.k_star == want.k_star
    assert got.r_final == want.r_final
    assert got.epsilon == want.epsilon
    assert np.array_equal(got.witness_point, want.witness_point)
    assert got.witness_subtuple == want.witness_subtuple
    assert np.array_equal(got.points, want.points)
    assert got.grid_size == want.grid_size


def scanned_passes(monkeypatch) -> list[int]:
    """The passes i = -log2 r of the `_scan` calls made from now on."""
    passes = []
    scan = covering_module._scan

    def record(sys_, r):
        passes.append(-math.frexp(r)[1] + 1)
        return scan(sys_, r)

    monkeypatch.setattr(covering_module, "_scan", record)
    return passes


def quadratic_system(c: float) -> HomoSystem:
    """F = (X0^2 - c X1^2) on S^1; k* = sqrt(1 + c^2) on every grid."""
    return HomoSystem((HomoPoly(2, 2, {(2, 0): 1.0, (0, 2): -c}),), ())


@settings(max_examples=60, deadline=None)
@given(sphere_systems(), st.data())
def test_skipping_passes_matches_the_full_loop(system, data):
    # with no pass always scanned, the bound alone decides on small grids;
    # the argument holds for any positive certificate factor, and a small
    # one lets these coarse grids certify, near where the bound decides
    sys_, _ = system
    max_iterations = data.draw(
        st.integers(1, 12 if sys_.sphere_dim == 1 else 4), "max_iterations")
    factor = data.draw(st.floats(1e-3, 71.0), "certificate factor")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covering_module, "ALWAYS_SCAN_POINTS", 0)
        mp.setattr(covering_module, "CERTIFICATE_FACTOR", factor)
        want = full_loop(sys_, max_iterations)
        passes = scanned_passes(mp)
        got = covering(sys_, max_iterations)
    assert passes[-1] == got.iterations
    assert got.certified or got.iterations == max_iterations
    assert_same_covering(got, want)


@pytest.mark.parametrize("make", [
    linear_system, lambda: scaled_homogenization(two_points_system())])
def test_covering_matches_the_full_loop(make):
    sys_ = make()
    assert_same_covering(covering(sys_), full_loop(sys_))


def test_the_last_pass_is_always_scanned(monkeypatch):
    # kappa = 1 on S^1 for a linear form: the certificate first holds at
    # r = 2^-7, so with no pass always scanned only the last pass runs
    monkeypatch.setattr(covering_module, "ALWAYS_SCAN_POINTS", 0)
    passes = scanned_passes(monkeypatch)
    res = covering(linear_system(), max_iterations=3)
    assert passes == [3]
    assert res.iterations == 3 and not res.certified
    passes.clear()
    assert covering(linear_system()).iterations == 7
    assert passes == [7]


@pytest.mark.parametrize("always_scan,max_iterations,want", [
    (0, 12, [9, 12]), (1 << 16, 14, list(range(1, 13)) + [14])])
def test_an_illposed_system_returns_its_last_pass(monkeypatch, always_scan,
                                                  max_iterations, want):
    # x^2 has kappa = inf at its zero (1, 0), a grid point of every pass.
    # kappa >= 1 rules out passes 1-8 with D = 2; once k* = inf is scanned,
    # only the last pass remains
    monkeypatch.setattr(covering_module, "ALWAYS_SCAN_POINTS", always_scan)
    passes = scanned_passes(monkeypatch)
    sys_ = HomoSystem((HomoPoly(2, 2, {(0, 2): 1.0}),), ())
    res = covering(sys_, max_iterations)
    assert passes == want
    assert res.k_star == math.inf and not res.certified
    assert res.iterations == max_iterations
    assert res.r_final == 2.0 ** -max_iterations
    assert res.grid_size == grid_count(1, 2 ** max_iterations)


def test_a_pass_of_many_points_that_cannot_certify_is_skipped(monkeypatch):
    # k* = sqrt(26) = 5.099 certifies at r = 2^-14, not at 2^-13, whose
    # grid has 2^16 points: passes 1-12 are always scanned and pass 13 is
    # skipped
    sys_ = quadratic_system(5.0)
    want = full_loop(sys_)
    assert want.iterations == 14
    assert grid_count(1, shell_order(1, 2.0 ** -13)) == 1 << 16
    passes = scanned_passes(monkeypatch)
    got = covering(sys_)
    assert passes == list(range(1, 13)) + [14]
    assert_same_covering(got, want)


@pytest.mark.parametrize("k", [1.0, 2.5, 8.19, 1e6, math.inf])
@pytest.mark.parametrize("degree", [1, 2, 3, 7])
def test_the_kappa_lower_bound_is_below_the_lipschitz_bound(k, degree):
    for i in range(1, 61):
        r = 2.0 ** -i
        bound = kappa_lower_bound(degree, k, r)
        assert 0.0 < bound < 1.0 / (1.0 / k + degree * r)
        assert bound == 1.0 / (1.0 / k + degree * r + KAPPA_MARGIN)


@pytest.mark.parametrize("make,passes", [
    (lambda: scaled_homogenization(two_points_system()), 12),
    (lambda: quadratic_system(0.5), 12),
    (lambda: scaled_homogenization(annulus_system()), 4)])
def test_each_pass_is_above_the_bound_from_every_other_pass(make, passes):
    # the bound holds between any two grids, coarser or finer
    sys_ = make()
    d = sys_.max_degree
    k = [covering_module._scan(sys_, 2.0 ** -i)["k_star"]
         for i in range(1, passes + 1)]
    for i, k_i in enumerate(k):
        for j, k_j in enumerate(k):
            assert k_j >= kappa_lower_bound(d, k_i, 2.0 ** -(j + 1))
