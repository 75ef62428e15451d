"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The report fixture prints with capture suspended, so the verdict lines
appear in the terminal and in teed logs regardless of pytest flags.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import (annulus_system, circle_system, disk_system,
                      face_closed, fixture_path, random_homo_poly, random_unit,
                      two_points_system)
from sah.condition import kappa, mu_norm, mu_proj
from sah.covering import approx_member_mask, covering
from sah.grid import (DEFAULT_CHUNK, covering_radius_estimate, grid_chunks,
                      grid_count, shell_order)
from sah.homology import BoundaryMatrix, homology_of_complex, smith_normal_form
from sah.nerve import cech_nerve, min_enclosing_ball
from sah.pipeline import (RunOptions, homology_algorithm, parse_system,
                          serialize_result)
from sah.polysys import (HomoPoly, HomoSystem, compose_rotation_system,
                         scaled_homogenization)
from sah.shubsmale import PolyMap, beta_number, gamma_number, newton_flow
from test_homology import gcd_minors_snf, rp2_complex
from test_nerve import brute_force_meb

# parameters for the fixed-radius fixtures, frozen after auditing that the
# resulting complexes reproduce the known topology
FIXED_R = 0.25
FIXED_EPS = 0.15
FIXED_OPTS = RunOptions(mode="fixed", r_override=FIXED_R,
                        epsilon_override=FIXED_EPS)


@pytest.fixture
def report(capfd):
    """Verdict printer that bypasses output capture, then asserts."""
    def _report(num: int, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, detail

    return _report


def test_criterion_01_two_points_certified(report):
    t0 = time.perf_counter()
    res = homology_algorithm(two_points_system(), RunOptions())
    elapsed = time.perf_counter() - t0
    ok = (res.certified and res.homology.betti == (2, 0)
          and res.homology.torsion == ((), ()) and elapsed < 300.0)
    report(1, ok, f"two-points betti={res.homology.betti} in {elapsed:.2f}s")


def test_criterion_02_golden_topology_fixtures(report):
    results = {}
    for name, sys_, want in [("circle", circle_system(), (1, 1, 0)),
                             ("disk", disk_system(), (1, 0, 0)),
                             ("annulus", annulus_system(), (1, 1, 0))]:
        res = homology_algorithm(sys_, FIXED_OPTS)
        results[name] = res.homology.betti
        if res.homology.betti != want:
            report(2, False, f"{name}: got {res.homology.betti}, want {want}")
    report(2, True, f"fixed r={FIXED_R}, eps={FIXED_EPS}: {results}")


def test_criterion_03_strictness_invariance(report):
    # the files differ only in the inequality's "strict" flag
    closed = homology_algorithm(parse_system(fixture_path("disk_closed.json")),
                                FIXED_OPTS)
    strict = homology_algorithm(parse_system(fixture_path("disk_strict.json")),
                                FIXED_OPTS)
    ok = closed.homology == strict.homology
    report(3, ok, f"disk closed/strict homology both {closed.homology.betti}")


def test_criterion_04_condition_invariants(rng, report):
    total = 10000
    worst_scale = 0.0
    worst_rot = 0.0
    worst_lip = -math.inf
    for i in range(total):
        nv = 3
        d = int(rng.integers(1, 4))
        q = int(rng.integers(1, 3))
        polys = tuple(random_homo_poly(rng, nv, d) for _ in range(q))
        x = random_unit(rng, nv)
        k = kappa(polys, x)
        if not k >= 1.0 - 1e-12:
            report(4, False, f"kappa {k} < 1 at sample {i}")
        # global scale invariance
        lam = float(rng.uniform(0.2, 5.0))
        k2 = kappa([p.scale(lam) for p in polys], x)
        worst_scale = max(worst_scale, abs(k2 - k) / k)
        # Lipschitz bound for 1/kappa
        y = x + rng.standard_normal(nv) * 0.02
        y /= np.linalg.norm(y)
        dist = math.acos(max(-1.0, min(1.0, float(np.dot(x, y)))))
        lip = abs(1.0 / k - 1.0 / kappa(polys, y)) - d * dist
        worst_lip = max(worst_lip, lip)
        # orthogonal invariance on a subsample (symbolic rotation is the
        # costly step; 1000 rotations keep the suite fast)
        if i % 10 == 0:
            u, _ = np.linalg.qr(rng.standard_normal((nv, nv)))
            kr = kappa(compose_rotation_system(polys, u), x)
            kref = kappa(polys, u @ x)
            worst_rot = max(worst_rot, abs(kr - kref) / kref)
    ok = worst_scale <= 1e-9 and worst_rot <= 1e-8 and worst_lip <= 1e-8
    report(4, ok, f"{total} samples: scale dev {worst_scale:.2e}, "
                  f"rot dev {worst_rot:.2e}, lipschitz excess {worst_lip:.2e}")


def test_criterion_05_mu_norm_mu_proj_gap(report):
    f1 = HomoPoly(3, 1, {(1, 0, 0): 1.0, (0, 1, 0): 1.0})
    f2 = HomoPoly(3, 2, {(0, 2, 0): 1.0, (0, 0, 2): 1.0, (1, 1, 0): 1.0})
    x = np.array([1.0, 0.0, 0.0])
    mn = mu_norm([f1, f2], x)
    mp = mu_proj([f1, f2], x)
    ok = math.isfinite(mn) and math.isinf(mp)
    report(5, ok, f"mu_norm={mn:.6f} finite, mu_proj={mp} infinite")


def test_criterion_06_newton_flow_bounds(report):
    fixtures = [
        (PolyMap(1, [{(1,): 1.0, (0,): -2.0}]), np.array([5.0])),
        (PolyMap(1, [{(2,): 1.0, (0,): -1.0}]), np.array([1.05])),
    ]
    worst_resid = 0.0
    worst_drift = -math.inf
    for f, x0 in fixtures:
        trace = newton_flow(f, x0, t_end=5.0, step=1e-3)
        r0 = float(np.linalg.norm(f.eval(x0)))
        b0 = beta_number(f, x0)
        for t, x in zip(trace.times, trace.points):
            resid = float(np.linalg.norm(f.eval(x)))
            worst_resid = max(worst_resid,
                              abs(resid - r0 * math.exp(-t)) / r0)
            drift = float(np.linalg.norm(x - x0)) \
                - 2.0 * b0 * (1.0 - math.exp(-t))
            worst_drift = max(worst_drift, drift)
    ok = worst_resid <= 1e-6 and worst_drift <= 1e-6
    report(6, ok, f"residual dev {worst_resid:.2e}, drift excess "
                  f"{worst_drift:.2e} over t in [0, 5]")


def test_criterion_07_gamma_mu_inequality(rng, report):
    violations = 0
    worst = 0.0
    for _ in range(100):
        nv = 3
        q = int(rng.integers(1, 3))
        x = random_unit(rng, nv)
        # make x a zero: subtract f(x) times the square of the linear form
        # that equals 1 at x
        ell = HomoPoly(nv, 1, {tuple(int(i == j) for i in range(nv)): x[j]
                               for j in range(nv)})
        sq = HomoPoly(nv, 2, {
            tuple(a + b for a, b in zip(e1, e2)): c1 * c2
            for e1, c1 in ell.terms.items() for e2, c2 in ell.terms.items()})
        polys = []
        for _ in range(q):
            f = random_homo_poly(rng, nv, 2)
            polys.append(HomoPoly(nv, 2, {
                e: f.terms.get(e, 0.0) - f(x) * sq.terms.get(e, 0.0)
                for e in set(f.terms) | set(sq.terms)}))
        g = gamma_number(PolyMap.from_homogeneous(polys), x)
        bound = 0.5 * 2.0 ** 1.5 * mu_norm(polys, x)
        ratio = g / bound
        worst = max(worst, ratio)
        if g > bound * (1.0 + 1e-6):
            violations += 1
    ok = violations == 0
    report(7, ok, f"100 constructed zeros, worst gamma/bound {worst:.4f}")


def test_criterion_08_snf_oracle_and_rp2(rng, report):
    mismatches = 0
    for _ in range(200):
        nr, nc = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        dense = [[int(v) for v in rng.integers(-9, 10, nc)]
                 for _ in range(nr)]
        mat = BoundaryMatrix(nr, nc,
                             [{j: v for j, v in enumerate(r) if v}
                              for r in dense])
        if smith_normal_form(mat) != gcd_minors_snf(dense):
            mismatches += 1
    h = homology_of_complex(rp2_complex())
    rp2_ok = h.betti == (1, 0, 0) and h.torsion == ((), (2,), ())
    chi_ok = h.euler_characteristic == sum(
        (-1) ** k * len(v) for k, v in rp2_complex().simplices.items())
    ok = mismatches == 0 and rp2_ok and chi_ok
    report(8, ok, f"200 SNF oracle matches, RP2 torsion {h.torsion[1]}, "
                  f"euler characteristic consistent")


def test_criterion_09_nerve_properties(rng, report):
    worst = 0.0
    for _ in range(100):
        pts = rng.standard_normal((int(rng.integers(2, 8)),
                                   int(rng.integers(2, 4))))
        worst = max(worst, abs(min_enclosing_ball(pts).radius
                               - brute_force_meb(pts)))
    cloud = rng.standard_normal((12, 2))
    mono = True
    prev: set = set()
    for eps in (0.4, 0.7, 1.0):
        k = cech_nerve(cloud, eps)
        cur = {s for v in k.simplices.values() for s in v}
        mono = mono and prev <= cur and face_closed(k)
        prev = cur
    ok = worst <= 1e-6 and mono
    report(9, ok, f"MEB oracle dev {worst:.2e}, monotone and face-closed")


def test_criterion_10_covering_audits(report):
    details = []
    ok = True
    for sys_, zeros in [
        (scaled_homogenization(two_points_system()),
         [np.array([1.0, 1.0]) / math.sqrt(2.0),
          np.array([1.0, -1.0]) / math.sqrt(2.0)]),
        (HomoSystem((HomoPoly(2, 1, {(0, 1): 1.0}),), ()),
         [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]),
    ]:
        res = covering(sys_)
        d = sys_.max_degree
        ok &= res.certified
        ok &= 71.0 * d ** 2.5 * res.k_star ** 2 * res.r_final < 1.0
        ok &= res.epsilon == pytest.approx(5.0 * d * res.k_star * res.r_final)
        mask = approx_member_mask(sys_, math.sqrt(d) * res.r_final, res.points)
        ok &= bool(mask.all())
        # sandwich: every point of X near the solution set, every solution
        # covered by a ball
        to_zero = max(min(float(np.linalg.norm(x - z)) for z in zeros)
                      for x in res.points)
        from_zero = max(min(float(np.linalg.norm(x - z)) for x in res.points)
                        for z in zeros)
        ok &= to_zero < res.epsilon and from_zero < res.epsilon
        details.append(f"eps={res.epsilon:.2e} max_dist={to_zero:.2e}")
    report(10, ok, "; ".join(details))


def test_criterion_11_grid_properties(report):
    count_ok = True
    for n in range(1, 4):
        for m in range(1, 7):
            want = (2 * m + 1) ** (n + 1) - (2 * m - 1) ** (n + 1)
            for chunk in (1, 37, DEFAULT_CHUNK):
                pts = np.concatenate(list(grid_chunks(n, m, chunk)))
                count_ok &= len(pts) == len(np.unique(pts, axis=0)) == want == grid_count(n, m)
    cover_ok = True
    for n, r in [(1, 0.5), (1, 0.125), (2, 0.5), (2, 0.2), (3, 0.5)]:
        m = shell_order(n, r)
        bound = math.asin(math.sqrt(n) / (2 * m))
        cover_ok &= covering_radius_estimate(n, m, 3000) <= bound < r
    ok = count_ok and cover_ok
    report(11, ok, "cardinality exact for n<=3, M<=6 at three chunk sizes; "
                   "empirical covering radius <= asin(sqrt(n)/(2M)) < r on "
                   "all configurations")


def test_criterion_12_determinism(report):
    sys_ = parse_system(fixture_path("two_points.json"))
    opts = RunOptions()
    a = serialize_result(homology_algorithm(sys_, opts))
    b = serialize_result(homology_algorithm(sys_, opts))
    ok = a == b and json.loads(a)["betti"] == [2, 0]
    report(12, ok, "repeated runs produce byte-identical documents")
