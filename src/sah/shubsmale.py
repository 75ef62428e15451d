"""Proximity numbers (Newton step length, higher-derivative scale, their
product) and a continuous Newton-flow integrator.

The higher-derivative scale requires the spectral norm of a symmetric
multilinear operator; no exact finite algorithm is available, so it is
estimated from below by maximizing over unit directions.  The only
inequality consumed downstream upper-bounds this quantity, so an
under-estimate is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .condition import RANK_RTOL
from .errors import ContractViolation, RankDeficient
from .polysys import AffinePoly, Terms, power_table

# Threshold on alpha under which the continuous Newton flow is guaranteed to
# exist for all time and contract exponentially.
ALPHA_FLOW_THRESHOLD = 1.0 / 13.0

DEFAULT_SWEEP = 720
DEFAULT_FLOW_STEP = 1e-3


class PolyMap:
    """A polynomial map R^m_in -> R^m_out with derivative-tensor access.

    Components are `AffinePoly`s (not necessarily homogeneous) built from
    sparse exponent maps.  Directional derivative tensors are obtained
    exactly from the expansion of t -> F(x + t*u).
    """

    def __init__(self, num_vars: int, components: list[Terms]):
        self.num_vars = int(num_vars)
        self.polys = tuple(AffinePoly(self.num_vars, comp) for comp in components)
        self.num_out = len(self.polys)
        self.degree = max((p.degree for p in self.polys), default=0)

    @classmethod
    def from_homogeneous(cls, polys) -> "PolyMap":
        polys = list(polys)
        if not polys:
            raise ContractViolation("a polynomial map needs at least one component")
        return cls(polys[0].num_vars, [dict(p.terms) for p in polys])

    def _table(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.num_vars,):
            raise ContractViolation("point arity does not match the map")
        return power_table(x[None, :], self.degree)

    def _values(self, table: np.ndarray) -> np.ndarray:
        return np.array([p.eval_table(table)[0] for p in self.polys])

    def _derivative(self, table: np.ndarray) -> np.ndarray:
        return np.array([p.gradient_table(table)[0] for p in self.polys]
                        ).reshape(self.num_out, self.num_vars)

    def eval(self, x) -> np.ndarray:
        return self._values(self._table(x))

    def jacobian(self, x) -> np.ndarray:
        return self._derivative(self._table(x))

    def taylor_directional(self, x: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Coefficients of t^k in F(x + t*u) for a batch of directions.

        Returns an array of shape (len(dirs), degree+1, num_out); the entry
        at [., k, i] equals the k-th derivative tensor of component i applied
        to (u, ..., u), divided by k factorial.  It is the part of total
        degree k of v -> F_i(x + v), evaluated at u.
        """
        zero = (0,) * self.num_vars
        shift = [{zero[:j] + (1,) + zero[j + 1:]: 1.0, zero: float(xj)}
                 for j, xj in enumerate(x)]
        table = power_table(dirs, self.degree)
        out = np.zeros((len(dirs), self.degree + 1, self.num_out))
        for i, comp in enumerate(self.polys):
            parts: list[Terms] = [{} for _ in range(self.degree + 1)]
            for exps, c in comp.substitute(shift, self.num_vars).items():
                parts[sum(exps)][exps] = c
            for k, terms in enumerate(parts):
                out[:, k, i] = AffinePoly(self.num_vars, terms).eval_table(table)
        return out


def _unit_directions(dim: int, sweep: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        angles = np.arange(sweep) * (2.0 * np.pi / sweep)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    if dim == 3:
        # Fibonacci sphere
        k = np.arange(sweep, dtype=float) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / sweep)
        theta = np.pi * (1.0 + 5.0 ** 0.5) * k
        pts = np.column_stack([np.sin(phi) * np.cos(theta),
                               np.sin(phi) * np.sin(theta),
                               np.cos(phi)])
    else:
        pts = np.random.default_rng(0).standard_normal((sweep, dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    # plus the coordinate axes
    return np.vstack([pts, np.eye(dim), -np.eye(dim)])


def _newton(f: PolyMap, x) -> tuple[np.ndarray, np.ndarray] | None:
    """pinv(Df(x)) and the Newton step pinv(Df(x)) f(x), from one power
    table and one reduced SVD Df(x) = U S V^T, with pinv = V S^-1 U^T.

    None when Df(x) is not surjective: it has more rows than columns, or
    sigma_max = 0, or sigma_min < RANK_RTOL * sigma_max.
    """
    table = f._table(x)
    jac = f._derivative(table)
    if jac.shape[0] > jac.shape[1]:
        return None
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    if s.size and (s[0] == 0.0 or s[-1] < RANK_RTOL * s[0]):
        return None
    pinv = (vt.T / s) @ u.T
    return pinv, pinv @ f._values(table)


def _beta(step: np.ndarray | None) -> float:
    return math.inf if step is None else float(np.linalg.norm(step))


def beta_number(f: PolyMap, x) -> float:
    """Euclidean length of the Moore-Penrose Newton step at x."""
    newton = _newton(f, x)
    return _beta(None if newton is None else newton[1])


def _gamma(f: PolyMap, x, pinv: np.ndarray, sweep: int) -> float:
    """`gamma_number` at x from pinv(Df(x))."""
    if f.degree < 2:
        return 0.0
    coeffs = f.taylor_directional(x, _unit_directions(f.num_vars, sweep))
    best = 0.0
    for k in range(2, f.degree + 1):
        vals = coeffs[:, k, :] @ pinv.T
        mk = float(np.max(np.linalg.norm(vals, axis=1)))
        best = max(best, mk ** (1.0 / (k - 1)))
    return best


def gamma_number(f: PolyMap, x, sweep: int = DEFAULT_SWEEP) -> float:
    """Higher-derivative scale of f at x, estimated by a directional sweep.

    Maximizes the norm of pinv(Df(x)) applied to the k-th scaled derivative
    tensor over unit directions, for every k from 2 up to the degree of f.
    Refining a sweep in one or two variables by an integer factor keeps its
    directions, so it never decreases the estimate; in three or more
    variables the direction sets are not nested and it can.
    """
    newton = _newton(f, x)
    return math.inf if newton is None else _gamma(f, x, newton[0], sweep)


def _alpha(f: PolyMap, x, newton, sweep: int) -> float:
    """`alpha_number` at x from the `_newton` result there."""
    if newton is None:
        return math.inf
    b = _beta(newton[1])
    return 0.0 if b == 0.0 else _gamma(f, x, newton[0], sweep) * b


def alpha_number(f: PolyMap, x, sweep: int = DEFAULT_SWEEP) -> float:
    """Product of the step length and the higher-derivative scale."""
    return _alpha(f, x, _newton(f, x), sweep)


def newton_step(f: PolyMap, x) -> np.ndarray:
    """One Moore-Penrose Newton update."""
    newton = _newton(f, x)
    if newton is None:
        raise RankDeficient("Jacobian is not surjective at the iterate")
    return np.asarray(x, dtype=float) - newton[1]


@dataclass(frozen=True)
class FlowTrace:
    """Sampled trajectory of the continuous Newton flow."""

    times: np.ndarray
    points: np.ndarray
    betas: np.ndarray
    alpha0: float
    hypothesis_met: bool
    aborted: bool = False

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if len(t) == 0 or t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
            raise ContractViolation("times must strictly increase from 0")


def newton_flow(f: PolyMap, x0, t_end: float,
                step: float = DEFAULT_FLOW_STEP) -> FlowTrace:
    """Integrate dx/dt = -pinv(Df(x)) f(x) with a classical 4th-order scheme.

    The fixed step is halved on the last interval as needed to land on
    t_end exactly.  Rank loss mid-flow aborts with a partial trace.
    """
    if t_end <= 0.0 or step <= 0.0:
        raise ContractViolation("t_end and step must be positive")
    x = np.asarray(x0, dtype=float).copy()

    def velocity(y):
        newton = _newton(f, y)
        return None if newton is None else -newton[1]

    # one Newton step at x0 gives alpha0 and the first k1; the velocity at
    # each accepted point gives its beta and is the next k1
    newton0 = _newton(f, x)
    alpha0 = _alpha(f, x, newton0, DEFAULT_SWEEP)
    k1 = None if newton0 is None else -newton0[1]
    times = [0.0]
    points = [x.copy()]
    betas = [_beta(k1)]
    t = 0.0
    aborted = False
    while t < t_end - 1e-15:
        h = min(step, t_end - t)
        k2 = velocity(x + 0.5 * h * k1) if k1 is not None else None
        k3 = velocity(x + 0.5 * h * k2) if k2 is not None else None
        k4 = velocity(x + h * k3) if k3 is not None else None
        if k4 is None:
            aborted = True
            break
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        k1 = velocity(x)
        times.append(t)
        points.append(x.copy())
        betas.append(_beta(k1))
    return FlowTrace(np.array(times), np.array(points), np.array(betas),
                     alpha0=alpha0,
                     hypothesis_met=alpha0 < ALPHA_FLOW_THRESHOLD,
                     aborted=aborted)
