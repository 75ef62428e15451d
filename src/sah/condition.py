"""Condition numbers of homogeneous systems at points of the sphere.

The two mu numbers measure the sensitivity of a zero to perturbations of
the coefficients (in the Weyl metric); kappa blends the projective mu with
the normalized residual so that it stays meaningful far from the zero set.
The subtuple maximum extends kappa to systems with inequalities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .linalg import RANK_RTOL
from .polysys import HomoPoly, HomoSystem, weyl_norm

UNIT_TOL = 1e-12


@dataclass(frozen=True)
class Subtuple:
    """Sorted subset of inequality indices appended to the equalities."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if list(idx) != sorted(set(idx)):
            raise ContractViolation("subtuple indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ConditionReport:
    """Condition diagnostics of a system at a point of the sphere."""

    kappa: float
    mu_norm: float
    mu_proj: float
    residual_ratio: float
    reach_lower: float
    dist_to_illposed_lower: float


def _check_unit(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > UNIT_TOL:
        raise ContractViolation("point must lie on the unit sphere")
    return x


def residual_and_sigma_min(polys, norm: float, pts: np.ndarray,
                           project: bool = True):
    """Residual ratios and Jacobian singular values at many sphere points.

    For an (N, n+1) array of points returns ||F(x)|| / norm and sigma_q,
    the q-th singular value of the Jacobian with row i divided by
    sqrt(deg f_i).  With `project` each row is first projected onto the
    tangent space x-perp, which has the same nonzero singular values as
    the restriction of DF(x) to that space.  sigma_q is 0.0 where the
    matrix is rank-deficient (sigma_q < RANK_RTOL * sigma_1), and sigma is
    None when q exceeds the dimension the Jacobian acts on (n+1, or n when
    projected).  `polys` must be nonempty and `norm` its nonzero Weyl norm.
    """
    vals = np.column_stack([p.eval_many(pts) for p in polys])
    resid = np.linalg.norm(vals, axis=1) / norm
    q = len(polys)
    if q > pts.shape[1] - project:
        return resid, None
    jac = np.stack([p.gradient_many(pts) * (1.0 / math.sqrt(p.degree))
                    for p in polys], axis=1)
    if project:
        jac = jac - np.einsum("nqv,nv->nq", jac, pts)[:, :, None] * pts[:, None, :]
    svals = np.linalg.svd(jac, compute_uv=False)
    smax, smin = svals[:, 0], svals[:, q - 1]
    deficient = (smax == 0.0) | (smin < RANK_RTOL * smax)
    return resid, np.where(deficient, 0.0, smin)


def kappa_batch(polys, norm: float, pts: np.ndarray) -> np.ndarray:
    """kappa(F, x) for an (N, n+1) array of unit vectors; the one formula.

    Harmonic combination of the inverse projective mu and the normalized
    residual: 1 / sqrt((sigma_q / ||F||)^2 + resid^2), with sigma_q taken
    as 0 where the projected Jacobian is rank-deficient.  Reduces to the
    norm-to-residual ratio in the overdetermined case q > n.  The empty
    system has kappa 1 by convention, the zero system kappa infinity.
    """
    if not polys:
        return np.ones(len(pts))
    if norm == 0.0:
        return np.full(len(pts), math.inf)
    resid, smin = residual_and_sigma_min(polys, norm, pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        if smin is None:
            return np.where(resid == 0.0, math.inf, 1.0 / resid)
        total = (smin / norm) ** 2 + resid * resid
        return np.where(total == 0.0, math.inf, 1.0 / np.sqrt(total))


def _mu(polys, x, project: bool) -> float:
    polys = tuple(polys)
    if not polys:
        raise ContractViolation("mu is undefined for an empty system")
    x = _check_unit(x)
    norm = weyl_norm(polys)
    if norm == 0.0:
        return math.inf
    _, smin = residual_and_sigma_min(polys, norm, x[None, :], project)
    if smin is None or smin[0] == 0.0:
        return math.inf
    return norm / float(smin[0])


def mu_norm(polys, x) -> float:
    """||F|| times the spectral norm of pinv(DF(x)) with degree row-scaling."""
    return _mu(polys, x, project=False)


def mu_proj(polys, x) -> float:
    """Variant of mu_norm for the restriction of F to the tangent space at x."""
    return _mu(polys, x, project=True)


def kappa(polys, x) -> float:
    """Condition number of a homogeneous system at a sphere point.

    A one-point call of `kappa_batch`, which holds the formula and the
    conventions.
    """
    polys = tuple(polys)
    x = _check_unit(x)
    return float(kappa_batch(polys, weyl_norm(polys), x[None, :])[0])


def subtuples(s: int, max_len: int):
    """All sorted index subsets of {0..s-1} with at most max_len elements."""
    for ell in range(min(s, max_len) + 1):
        for combo in itertools.combinations(range(s), ell):
            yield Subtuple(combo)


def subtuple_kernels(sys: HomoSystem) -> list[tuple[Subtuple, SubtupleKernel]]:
    """The admissible subtuples L of a system, each with its kernel for F^L.

    Admissible subtuples satisfy q + |L| <= n + 1; they come in the order
    of `subtuples` (by length, then lexicographic).
    """
    q = sys.pattern.q
    n = sys.sphere_dim
    if q > n + 1:
        raise ContractViolation("too many equalities for the subtuple maximum")
    return [(sub, SubtupleKernel(sys.F + tuple(sys.G[i] for i in sub.indices)))
            for sub in subtuples(sys.pattern.s, n + 1 - q)]


def kappa_max_many(kernels, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum of kappa over `kernels` at each of an (N, n+1) array of points.

    `kernels` is a `subtuple_kernels` list.  Returns the maxima and, per
    point, the index of the first kernel attaining it (index 0 where every
    value is NaN).
    """
    best = np.full(len(pts), -math.inf)
    arg = np.zeros(len(pts), dtype=int)
    for i, (_, kern) in enumerate(kernels):
        vals = kern.kappa_many(pts)
        better = vals > best
        best[better] = vals[better]
        arg[better] = i
    return best, arg


def kappa_subtuple_max(sys: HomoSystem, x) -> tuple[float, Subtuple]:
    """Maximum of kappa over the admissible inequality subtuples at x.

    A one-point call of `kappa_max_many`: returns the maximum and the first
    subtuple attaining it.
    """
    kernels = subtuple_kernels(sys)
    best, arg = kappa_max_many(kernels, _check_unit(x)[None, :])
    return float(best[0]), kernels[arg[0]][0]


def reach_lower_bound(kappa_star: float, max_degree: int) -> float:
    """Certified lower bound 1/(7 D^{3/2} kappa_star) on the reach."""
    if math.isinf(kappa_star):
        return 0.0
    if kappa_star < 1.0:
        raise ContractViolation("kappa_star is at least 1 for any system")
    return 1.0 / (7.0 * max_degree ** 1.5 * kappa_star)


def condition_report(polys, x, max_degree: int | None = None) -> ConditionReport:
    """Bundle of condition diagnostics for a tuple of equalities at x."""
    polys = tuple(polys)
    x = _check_unit(x)
    if max_degree is None:
        max_degree = max((p.degree for p in polys), default=1)
    k = kappa(polys, x)
    norm = weyl_norm(polys)
    resid = (float(residual_and_sigma_min(polys, norm, x[None, :])[0][0])
             if norm > 0.0 else 0.0)
    return ConditionReport(
        kappa=k,
        mu_norm=mu_norm(polys, x) if polys else math.inf,
        mu_proj=mu_proj(polys, x) if polys else math.inf,
        residual_ratio=resid,
        reach_lower=reach_lower_bound(max(k, 1.0), max_degree),
        dist_to_illposed_lower=0.0 if math.isinf(k) else norm / k,
    )


class SubtupleKernel:
    """kappa(F^L, .) on batches of grid points, with the Weyl norm of F^L
    computed once per scan."""

    def __init__(self, polys: tuple[HomoPoly, ...]):
        self.polys = polys
        self.norm = weyl_norm(polys)

    def kappa_many(self, pts: np.ndarray) -> np.ndarray:
        """kappa(F^L, x) for an (N, n+1) array of unit vectors."""
        return kappa_batch(self.polys, self.norm, pts)
