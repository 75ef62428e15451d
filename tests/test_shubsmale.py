import math

import numpy as np
import pytest

from conftest import random_homo_poly
from sah.errors import ContractViolation, RankDeficient
from sah.shubsmale import (ALPHA_FLOW_THRESHOLD, FlowTrace, PolyMap,
                           alpha_number, beta_number, gamma_number,
                           newton_flow, newton_step)


def parabola_map() -> PolyMap:
    """f(x1, x2) = x1^2 - x2, a single equation in two variables."""
    return PolyMap(2, [{(2, 0): 1.0, (0, 1): -1.0}])


def test_eval_and_jacobian():
    f = parabola_map()
    x = np.array([3.0, 2.0])
    assert f.eval(x) == pytest.approx([7.0])
    assert np.allclose(f.jacobian(x), [[6.0, -1.0]])


def test_beta_gamma_alpha_closed_form():
    # at (0, -1): f = 1, Df = (0, -1), pinv = (0, -1)^T, so beta = 1;
    # the only second derivative is d2f/dx1^2 = 2, giving gamma = 1
    f = parabola_map()
    x = np.array([0.0, -1.0])
    assert beta_number(f, x) == pytest.approx(1.0)
    assert gamma_number(f, x) == pytest.approx(1.0, rel=1e-6)
    assert alpha_number(f, x) == pytest.approx(1.0, rel=1e-6)


def test_beta_is_the_minimum_norm_newton_step(rng):
    for _ in range(20):
        f = PolyMap.from_homogeneous([random_homo_poly(rng, 3, d)
                                      for d in (2, 3)])
        x = rng.standard_normal(3)
        step = np.linalg.lstsq(f.jacobian(x), f.eval(x), rcond=None)[0]
        assert beta_number(f, x) == pytest.approx(np.linalg.norm(step),
                                                  rel=1e-10)
    # two equal components give Df(x) two equal rows
    h = random_homo_poly(rng, 3, 2)
    assert beta_number(PolyMap.from_homogeneous([h, h]),
                       rng.standard_normal(3)) == math.inf


def test_gamma_zero_for_linear():
    f = PolyMap(2, [{(1, 0): 2.0, (0, 0): -1.0}])
    assert gamma_number(f, np.array([5.0, 0.0])) == 0.0


def test_gamma_sweep_monotone():
    # refining the sweep by an integer factor keeps all old directions,
    # so the estimate can only grow
    f = PolyMap(2, [{(2, 0): 1.0, (1, 1): 0.5, (0, 2): -2.0}])
    x = np.array([0.3, -0.4])
    g1 = gamma_number(f, x, sweep=90)
    g2 = gamma_number(f, x, sweep=360)
    assert g2 >= g1 - 1e-12


def test_taylor_directional_matches_numeric():
    f = PolyMap(2, [{(3, 0): 1.0, (1, 1): -2.0}, {(0, 2): 1.0}])
    x = np.array([0.5, -1.5])
    dirs = np.array([[0.6, 0.8], [1.0, 0.0]])
    coeffs = f.taylor_directional(x, dirs)
    for di, u in enumerate(dirs):
        for t in (0.0, 0.25, 1.0):
            expect = f.eval(x + t * u)
            got = sum(coeffs[di, k] * t ** k for k in range(f.degree + 1))
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_newton_step_quadratic():
    # classical Newton on x^2 - 1 from x = 2: next iterate 5/4
    f = PolyMap(1, [{(2,): 1.0, (0,): -1.0}])
    out = newton_step(f, np.array([2.0]))
    assert out == pytest.approx([1.25])


def test_newton_step_rank_deficient():
    f = PolyMap(1, [{(2,): 1.0, (0,): -1.0}])
    with pytest.raises(RankDeficient):
        newton_step(f, np.array([0.0]))


def test_flow_trace_validation():
    with pytest.raises(ContractViolation):
        FlowTrace(np.array([0.5, 1.0]), np.zeros((2, 1)), np.zeros(2),
                  alpha0=0.0, hypothesis_met=True)


def test_newton_flow_linear_exact_decay():
    # f(x) = x - 2: flow is x' = -(x - 2), residual decays like e^{-t}
    f = PolyMap(1, [{(1,): 1.0, (0,): -2.0}])
    x0 = np.array([5.0])
    trace = newton_flow(f, x0, t_end=3.0, step=1e-2)
    assert not trace.aborted
    assert trace.hypothesis_met
    r0 = np.linalg.norm(f.eval(x0))
    for t, x in zip(trace.times, trace.points):
        assert np.linalg.norm(f.eval(x)) == pytest.approx(
            r0 * math.exp(-t), rel=1e-8)
    # drift bound with beta_0 = 3
    b0 = beta_number(f, x0)
    for t, x in zip(trace.times, trace.points):
        assert np.linalg.norm(x - x0) <= 2.0 * b0 * (1.0 - math.exp(-t)) + 1e-9


def test_newton_flow_residual_decay_quadratic():
    # f(x) = x^2 - 1 from x0 = 1.05: alpha0 is small, so the flow keeps
    # ||f(x_t)|| = ||f(x_0)|| e^{-t} along the trajectory
    f = PolyMap(1, [{(2,): 1.0, (0,): -1.0}])
    x0 = np.array([1.05])
    trace = newton_flow(f, x0, t_end=2.0, step=1e-3)
    assert trace.alpha0 < ALPHA_FLOW_THRESHOLD
    assert trace.hypothesis_met
    r0 = np.linalg.norm(f.eval(x0))
    for t, x in zip(trace.times[::100], trace.points[::100]):
        assert np.linalg.norm(f.eval(x)) == pytest.approx(
            r0 * math.exp(-t), rel=1e-6)


def test_newton_flow_factors_each_point_once(monkeypatch):
    # four SVDs per step (k2, k3, k4 and the new point's velocity, which is
    # its beta and the next k1), one at the start (beta and gamma for
    # alpha0 and the first k1), and no matrix inverse
    calls = {"svd": 0, "inv": 0}
    for name in calls:
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    f = PolyMap(1, [{(2,): 1.0, (0,): -1.0}])
    trace = newton_flow(f, np.array([1.05]), t_end=10 / 128, step=1 / 128)
    assert len(trace.times) == 11
    assert calls["svd"] <= 4 * 10 + 1 and calls["inv"] == 0


def test_newton_flow_lands_on_t_end():
    f = PolyMap(1, [{(1,): 1.0}])
    trace = newton_flow(f, np.array([1.0]), t_end=0.0105, step=1e-2)
    assert trace.times[-1] == pytest.approx(0.0105)


def test_newton_flow_from_a_singular_point_aborts_at_once():
    # f = x^2 has Df(0) = 0: no first velocity, so no step is taken
    trace = newton_flow(PolyMap(1, [{(2,): 1.0}]), np.array([0.0]), t_end=1.0)
    assert trace.aborted and not trace.hypothesis_met
    assert trace.times.tolist() == [0.0]
    assert trace.betas.tolist() == [math.inf]
    assert trace.alpha0 == math.inf


def test_overdetermined_map_has_infinite_beta_and_gamma():
    # two rows and one variable: Df(x) is never surjective
    f = PolyMap(1, [{(2,): 1.0, (0,): -1.0}, {(1,): 1.0}])
    x = np.array([2.0])
    assert beta_number(f, x) == math.inf
    assert gamma_number(f, x) == math.inf


def test_gamma_in_four_variables_sweeps_seeded_random_directions():
    # |x|^2 - 1 at e_0: pinv(Df) = e_0 / 2 and the degree-2 part of
    # f(x + t u) is t^2 |u|^2 = t^2 in every unit direction, so gamma = 1/2
    f = PolyMap(4, [{(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 1.0,
                     (0, 0, 0, 2): 1.0, (0, 0, 0, 0): -1.0}])
    x = np.array([1.0, 0.0, 0.0, 0.0])
    g = gamma_number(f, x)
    assert g == pytest.approx(0.5, rel=1e-12)
    assert gamma_number(f, x) == g


def test_from_homogeneous():
    from sah.polysys import HomoPoly

    h = HomoPoly(2, 2, {(2, 0): 1.0, (0, 2): -1.0})
    f = PolyMap.from_homogeneous([h])
    x = np.array([0.6, 0.8])
    assert f.eval(x) == pytest.approx([h(x)])


@pytest.mark.parametrize("call, match", [
    (lambda: PolyMap.from_homogeneous([]), "at least one component"),
    (lambda: parabola_map().eval(np.array([1.0])), "point arity"),
    (lambda: newton_flow(parabola_map(), np.array([1.0, 1.0]), 0.0),
     "must be positive"),
], ids=["empty-map", "point-arity", "t-end"])
def test_contract_checks(call, match):
    with pytest.raises(ContractViolation, match=match):
        call()
