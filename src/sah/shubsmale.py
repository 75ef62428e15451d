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

from .errors import ContractViolation, RankDeficient
from .linalg import pseudo_inverse
from .polysys import AffinePoly, Terms

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

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.num_vars,):
            raise ContractViolation("point arity does not match the map")
        return x[None, :]

    def eval(self, x) -> np.ndarray:
        pt = self._point(x)
        return np.array([p.eval_many(pt)[0] for p in self.polys])

    def jacobian(self, x) -> np.ndarray:
        pt = self._point(x)
        return np.array([p.gradient_many(pt)[0] for p in self.polys]
                        ).reshape(self.num_out, self.num_vars)

    def taylor_directional(self, x: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Coefficients of t^k in F(x + t*u) for a batch of directions.

        Returns an array of shape (len(dirs), degree+1, num_out); the entry
        at [., k, i] equals the k-th derivative tensor of component i applied
        to (u, ..., u), divided by k factorial.
        """
        ndirs = len(dirs)
        deg = self.degree
        out = np.zeros((ndirs, deg + 1, self.num_out))
        for i, comp in enumerate(self.polys):
            for exps, c in comp.terms.items():
                # batched product of the univariate expansions (x_j + t u_j)^a_j
                poly = np.zeros((ndirs, deg + 1))
                poly[:, 0] = c
                top = 0
                for j, a in enumerate(exps):
                    if a == 0:
                        continue
                    fac = np.zeros((ndirs, a + 1))
                    for k in range(a + 1):
                        fac[:, k] = math.comb(a, k) * x[j] ** (a - k) * dirs[:, j] ** k
                    new = np.zeros((ndirs, top + a + 1))
                    for k in range(top + 1):
                        new[:, k:k + a + 1] += poly[:, k:k + 1] * fac
                    poly[:, :top + a + 1] = new
                    top += a
                out[:, :, i] += poly
        return out

    def restrict_affine(self, origin: np.ndarray, basis: np.ndarray) -> "PolyMap":
        """The map y -> F(origin + basis @ y), expanded symbolically."""
        origin = np.asarray(origin, dtype=float)
        basis = np.asarray(basis, dtype=float)
        m = basis.shape[1]
        subs = []  # variable j of self as an affine polynomial in y
        for j in range(self.num_vars):
            terms: Terms = {}
            if origin[j] != 0.0:
                terms[(0,) * m] = origin[j]
            for k in range(m):
                if basis[j, k] != 0.0:
                    terms[tuple(int(i == k) for i in range(m))] = basis[j, k]
            subs.append(terms)
        return PolyMap(m, [p.substitute(subs, m) for p in self.polys])


def _unit_directions(dim: int, sweep: int, rng: np.random.Generator | None) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        angles = np.arange(sweep) * (2.0 * np.pi / sweep)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    if dim == 3:
        # Fibonacci sphere plus the coordinate axes.
        k = np.arange(sweep, dtype=float) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / sweep)
        theta = np.pi * (1.0 + 5.0 ** 0.5) * k
        pts = np.column_stack([np.sin(phi) * np.cos(theta),
                               np.sin(phi) * np.sin(theta),
                               np.cos(phi)])
        axes = np.vstack([np.eye(3), -np.eye(3)])
        return np.vstack([pts, axes])
    rng = rng or np.random.default_rng(0)
    pts = rng.standard_normal((sweep, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    return np.vstack([pts, axes])


def beta_number(f: PolyMap, x) -> float:
    """Euclidean length of the Moore-Penrose Newton step at x."""
    x = np.asarray(x, dtype=float)
    pinv = pseudo_inverse(f.jacobian(x))
    if pinv is None:
        return math.inf
    return float(np.linalg.norm(pinv @ f.eval(x)))


def gamma_number(f: PolyMap, x, sweep: int = DEFAULT_SWEEP,
                 rng: np.random.Generator | None = None) -> float:
    """Higher-derivative scale of f at x, estimated by a directional sweep.

    Maximizes the norm of pinv(Df(x)) applied to the k-th scaled derivative
    tensor over unit directions, for every k from 2 up to the degree of f.
    A finer sweep never decreases the estimate.
    """
    x = np.asarray(x, dtype=float)
    pinv = pseudo_inverse(f.jacobian(x))
    if pinv is None:
        return math.inf
    if f.degree < 2:
        return 0.0
    dirs = _unit_directions(f.num_vars, sweep, rng)
    coeffs = f.taylor_directional(x, dirs)  # (ndirs, deg+1, m_out)
    best = 0.0
    for k in range(2, f.degree + 1):
        vals = coeffs[:, k, :] @ pinv.T
        mk = float(np.max(np.linalg.norm(vals, axis=1)))
        best = max(best, mk ** (1.0 / (k - 1)))
    return best


def alpha_number(f: PolyMap, x, sweep: int = DEFAULT_SWEEP) -> float:
    """Product of the step length and the higher-derivative scale."""
    b = beta_number(f, x)
    if not math.isfinite(b):
        return math.inf
    if b == 0.0:
        return 0.0
    g = gamma_number(f, x, sweep=sweep)
    if not math.isfinite(g):
        return math.inf
    return g * b


def newton_step(f: PolyMap, x) -> np.ndarray:
    """One Moore-Penrose Newton update."""
    x = np.asarray(x, dtype=float)
    pinv = pseudo_inverse(f.jacobian(x))
    if pinv is None:
        raise RankDeficient("Jacobian is not surjective at the iterate")
    return x - pinv @ f.eval(x)


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

    @property
    def final_point(self) -> np.ndarray:
        return self.points[-1]


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
        pinv = pseudo_inverse(f.jacobian(y))
        if pinv is None:
            return None
        return -(pinv @ f.eval(y))

    alpha0 = alpha_number(f, x)
    times = [0.0]
    points = [x.copy()]
    betas = [beta_number(f, x)]
    t = 0.0
    aborted = False
    while t < t_end - 1e-15:
        h = min(step, t_end - t)
        k1 = velocity(x)
        k2 = velocity(x + 0.5 * h * k1) if k1 is not None else None
        k3 = velocity(x + 0.5 * h * k2) if k2 is not None else None
        k4 = velocity(x + h * k3) if k3 is not None else None
        if k4 is None:
            aborted = True
            break
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        times.append(t)
        points.append(x.copy())
        betas.append(beta_number(f, x))
    return FlowTrace(np.array(times), np.array(points), np.array(betas),
                     alpha0=alpha0,
                     hypothesis_met=alpha0 < ALPHA_FLOW_THRESHOLD,
                     aborted=aborted)
