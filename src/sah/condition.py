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
from functools import cached_property

import numpy as np

from .errors import ContractViolation
from .linalg import RANK_RTOL
from .polysys import HomoSystem, power_table, weyl_norm

UNIT_TOL = 1e-12

# Relative slack of the Gram bracket on sigma_q^2, in units of the largest
# Gram eigenvalue; see `gram_sigma_bounds`.
GRAM_SLACK = 1e-9


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


class Block:
    """A tuple of polynomials evaluated once at an (N, n+1) block of points.

    One `power_table` serves every polynomial: `values[:, i]` is f_i at
    each point, and on first use `gradients[:, i]` is the gradient of f_i
    divided by sqrt(deg f_i), `tangent_gradients[:, i]` that row projected
    onto the tangent space x-perp.  Every subtuple kernel and the member
    mask read their rows of these arrays, so no polynomial is evaluated
    twice at a block.
    """

    def __init__(self, polys, pts: np.ndarray):
        self.polys = tuple(polys)
        self.pts = pts
        self._table = power_table(
            pts, max((p.degree for p in self.polys), default=0))
        self.values = (np.column_stack([p.eval_table(self._table)
                                        for p in self.polys])
                       if self.polys else np.zeros((len(pts), 0)))

    def __len__(self) -> int:
        return len(self.pts)

    def take(self, idx) -> Block:
        """The block of the points `idx`: rows of this block's arrays.

        The rows are sliced, never re-evaluated: `eval_table` sums in an
        order that depends on the number of points, so a new evaluation
        could differ in the last bit.
        """
        sub = object.__new__(Block)
        sub.polys = self.polys
        sub.pts = self.pts[idx]
        sub.values = self.values[idx]
        sub.gradients = self.gradients[idx]
        sub.tangent_gradients = self.tangent_gradients[idx]
        return sub

    @cached_property
    def gradients(self) -> np.ndarray:
        return np.stack([p.gradient_table(self._table) * (1.0 / math.sqrt(p.degree))
                         for p in self.polys], axis=1)

    @cached_property
    def tangent_gradients(self) -> np.ndarray:
        jac, pts = self.gradients, self.pts
        return jac - np.einsum("nqv,nv->nq", jac, pts)[:, :, None] * pts[:, None, :]


def _residual(block: Block, rows, norm: float) -> np.ndarray:
    return np.linalg.norm(block.values[:, rows], axis=1) / norm


def residual_and_sigma_min(block: Block, rows, norm: float,
                           project: bool = True):
    """Residual ratios and Jacobian singular values of the rows F of a block.

    Returns ||F(x)|| / norm and sigma_q, the q-th singular value of the
    Jacobian with row i divided by sqrt(deg f_i), at every point of the
    block.  With `project` the rows are the tangent-projected ones, which
    give the singular values of the restriction of DF(x) to x-perp.
    sigma_q is the row norm when q = 1 and comes from a batched SVD
    otherwise; it is 0.0 where the matrix is rank-deficient
    (sigma_q < RANK_RTOL * sigma_1), and sigma is None when q exceeds the
    dimension the Jacobian acts on (n+1, or n when projected).  `rows` must
    be nonempty and `norm` the nonzero Weyl norm of F.
    """
    resid = _residual(block, rows, norm)
    q = len(rows)
    if q > block.pts.shape[1] - project:
        return resid, None
    jac = (block.tangent_gradients if project else block.gradients)[:, rows]
    if q == 1:
        smax = smin = np.linalg.norm(jac[:, 0], axis=1)
    else:
        svals = np.linalg.svd(jac, compute_uv=False)
        smax, smin = svals[:, 0], svals[:, q - 1]
    deficient = (smax == 0.0) | (smin < RANK_RTOL * smax)
    return resid, np.where(deficient, 0.0, smin)


def kappa_batch(block: Block, rows, norm: float) -> np.ndarray:
    """kappa(F, x) at every point of a block of unit vectors, F the given
    rows of the block; the one formula.

    Harmonic combination of the inverse projective mu and the normalized
    residual: 1 / sqrt((sigma_q / ||F||)^2 + resid^2), with sigma_q taken
    as 0 where the projected Jacobian is rank-deficient.  Reduces to the
    norm-to-residual ratio in the overdetermined case q > n.  The empty
    system has kappa 1 by convention, the zero system kappa infinity.
    """
    if not len(rows):
        return np.ones(len(block))
    if norm == 0.0:
        return np.full(len(block), math.inf)
    return _kappa(*residual_and_sigma_min(block, rows, norm), norm)


def _kappa(resid: np.ndarray, smin: np.ndarray | None, norm: float) -> np.ndarray:
    """The formula of `kappa_batch` from the residual ratios and sigma_q.

    Every operation is correctly rounded and monotone, so the result is
    antitone in `smin`: bounds on sigma_q give bounds on the computed kappa.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if smin is None:
            return np.where(resid == 0.0, math.inf, 1.0 / resid)
        total = (smin / norm) ** 2 + resid * resid
        return np.where(total == 0.0, math.inf, 1.0 / np.sqrt(total))


def gram_sigma_bounds(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo <= sigma_2 <= hi on what `residual_and_sigma_min` gives for
    an (N, 2, m) stack of 2 x m matrices, from their 2 x 2 Gram matrices.

    The Gram eigenvalues lam_min <= lam_max are sigma_2^2 and sigma_1^2 in
    exact arithmetic.  Forming the Gram and its closed-form eigenvalues
    errs by a small multiple of eps * lam_max (Weyl's inequality), and the
    backward-stable SVD gives sigma_2 within a small multiple of
    eps * sigma_1, so its square is also within a small multiple of
    eps * lam_max.  `GRAM_SLACK` * lam_max exceeds both by about five
    orders of magnitude, so sigma_2^2 lies within it of lam_min.  The SVD
    reports sigma_2 as 0.0 when sigma_2 < RANK_RTOL * sigma_1; the Gram
    cannot resolve that band, so wherever lam_min minus the slack does not
    clear it, lo is 0.0.  NaN entries give NaN bounds.
    """
    a = np.einsum("nv,nv->n", jac[:, 0], jac[:, 0])
    b = np.einsum("nv,nv->n", jac[:, 0], jac[:, 1])
    c = np.einsum("nv,nv->n", jac[:, 1], jac[:, 1])
    mid = 0.5 * (a + c)
    half = np.hypot(0.5 * (a - c), b)
    lam_min, lam_max = mid - half, mid + half
    slack = GRAM_SLACK * lam_max
    low = lam_min - slack
    with np.errstate(invalid="ignore"):
        unresolved = low <= RANK_RTOL * RANK_RTOL * (lam_max + slack)
        lo = np.where(unresolved, 0.0, np.sqrt(low))
        hi = np.sqrt(lam_min + slack)
    return lo, hi


def _one_point(polys, x) -> tuple[Block, range, float]:
    """The block of one sphere point, all its rows and their Weyl norm."""
    polys = tuple(polys)
    return Block(polys, _check_unit(x)[None, :]), range(len(polys)), weyl_norm(polys)


def _mu(block: Block, rows, norm: float, project: bool) -> float:
    if not len(rows):
        raise ContractViolation("mu is undefined for an empty system")
    if norm == 0.0:
        return math.inf
    _, smin = residual_and_sigma_min(block, rows, norm, project)
    if smin is None or smin[0] == 0.0:
        return math.inf
    return norm / float(smin[0])


def mu_norm(polys, x) -> float:
    """||F|| times the spectral norm of pinv(DF(x)) with degree row-scaling."""
    return _mu(*_one_point(polys, x), project=False)


def mu_proj(polys, x) -> float:
    """Variant of mu_norm for the restriction of F to the tangent space at x."""
    return _mu(*_one_point(polys, x), project=True)


def kappa(polys, x) -> float:
    """Condition number of a homogeneous system at a sphere point.

    A one-point call of `kappa_batch`, which holds the formula and the
    conventions.
    """
    return float(kappa_batch(*_one_point(polys, x))[0])


def subtuples(s: int, max_len: int):
    """All sorted index subsets of {0..s-1} with at most max_len elements."""
    for ell in range(min(s, max_len) + 1):
        for combo in itertools.combinations(range(s), ell):
            yield Subtuple(combo)


def subtuple_kernels(sys: HomoSystem) -> list[tuple[Subtuple, SubtupleKernel]]:
    """The admissible subtuples L of a system, each with its kernel for F^L.

    Admissible subtuples satisfy q + |L| <= n + 1; they come in the order
    of `subtuples` (by length, then lexicographic).  A kernel's rows index
    `sys.components`, the polynomials of the system's blocks.
    """
    q = sys.pattern.q
    n = sys.sphere_dim
    if q > n + 1:
        raise ContractViolation("too many equalities for the subtuple maximum")
    comps = sys.components
    out = []
    for sub in subtuples(sys.pattern.s, n + 1 - q):
        rows = tuple(range(q)) + tuple(q + i for i in sub.indices)
        out.append((sub, SubtupleKernel(rows, weyl_norm(comps[i] for i in rows))))
    return out


def kappa_max_many(kernels, block: Block) -> tuple[np.ndarray, np.ndarray]:
    """Maximum of kappa over `kernels` at each point of a block.

    `kernels` is a `subtuple_kernels` list and `block` a `Block` of the
    system's components.  Returns the maxima and, per point, the index of
    the first kernel attaining it (index 0 where every value is NaN).
    """
    best = np.full(len(block), -math.inf)
    arg = np.zeros(len(block), dtype=int)
    for i, (_, kern) in enumerate(kernels):
        vals = kern.kappa_many(block)
        better = vals > best
        best[better] = vals[better]
        arg[better] = i
    return best, arg


def block_kappa_max(kernels, block: Block) -> tuple[float, int, int]:
    """Maximum of kappa over `kernels` and over the points of a block.

    Returns the maximum, the first point attaining it and the first kernel
    attaining it there: the same numbers as the maximum and first argmax
    of `kappa_max_many` over the whole block.  Each kernel first brackets
    its kappa at every point (`SubtupleKernel.kappa_bounds`); the largest
    lower bound is a threshold no maximiser falls below, so only the
    points whose upper bound reaches it (or is NaN) can attain the
    maximum.  `kappa_max_many` then computes the exact values at those
    candidates, on rows sliced from the block, so the maximiser's value
    is bit for bit the one the whole block would give.
    """
    lo = np.full(len(block), -math.inf)
    hi = np.full(len(block), -math.inf)
    for _, kern in kernels:
        klo, khi = kern.kappa_bounds(block)
        np.fmax(lo, klo, out=lo)
        np.maximum(hi, khi, out=hi)
    candidates = np.flatnonzero(~(hi < np.fmax.reduce(lo)))
    best, arg = kappa_max_many(kernels, block.take(candidates))
    i = int(np.argmax(best))
    return float(best[i]), int(candidates[i]), int(arg[i])


def kappa_subtuple_max(sys: HomoSystem, x) -> tuple[float, Subtuple]:
    """Maximum of kappa over the admissible inequality subtuples at x.

    A one-point call of `kappa_max_many`: returns the maximum and the first
    subtuple attaining it.
    """
    kernels = subtuple_kernels(sys)
    best, arg = kappa_max_many(kernels,
                               Block(sys.components, _check_unit(x)[None, :]))
    return float(best[0]), kernels[arg[0]][0]


def reach_lower_bound(kappa_star: float, max_degree: int) -> float:
    """Certified lower bound 1/(7 D^{3/2} kappa_star) on the reach."""
    if math.isinf(kappa_star):
        return 0.0
    if kappa_star < 1.0:
        raise ContractViolation("kappa_star is at least 1 for any system")
    return 1.0 / (7.0 * max_degree ** 1.5 * kappa_star)


def condition_report(polys, x, max_degree: int | None = None) -> ConditionReport:
    """Bundle of condition diagnostics for a tuple of equalities at x,
    all read from one block."""
    polys = tuple(polys)
    if max_degree is None:
        max_degree = max((p.degree for p in polys), default=1)
    block, rows, norm = _one_point(polys, x)
    k = float(kappa_batch(block, rows, norm)[0])
    resid = (float(residual_and_sigma_min(block, rows, norm)[0][0])
             if norm > 0.0 else 0.0)
    return ConditionReport(
        kappa=k,
        mu_norm=_mu(block, rows, norm, False) if polys else math.inf,
        mu_proj=_mu(block, rows, norm, True) if polys else math.inf,
        residual_ratio=resid,
        reach_lower=reach_lower_bound(max(k, 1.0), max_degree),
        dist_to_illposed_lower=0.0 if math.isinf(k) else norm / k,
    )


class SubtupleKernel:
    """kappa(F^L, .) on the blocks of a system: the rows of F^L among the
    block's polynomials and the Weyl norm of F^L, computed once per scan."""

    def __init__(self, rows: tuple[int, ...], norm: float):
        self.rows = rows
        self.norm = norm

    def kappa_many(self, block: Block) -> np.ndarray:
        """kappa(F^L, x) at every point of a `Block`."""
        return kappa_batch(block, self.rows, self.norm)

    def kappa_bounds(self, block: Block) -> tuple[np.ndarray, np.ndarray]:
        """Bounds lo <= kappa_many(block) <= hi at every point of a block.

        Two projected rows take their sigma_2 bounds from the Gram matrix
        (`gram_sigma_bounds`) and pass them through the formula of
        `kappa_batch`, whose rounding is monotone.  Every other kernel (the
        empty one, a zero norm, one row, the overdetermined case and three
        or more rows) is computed exactly, with lo = hi.
        """
        rows, norm = self.rows, self.norm
        if len(rows) != 2 or norm == 0.0 or block.pts.shape[1] < 3:
            exact = kappa_batch(block, rows, norm)
            return exact, exact
        resid = _residual(block, rows, norm)
        lo, hi = gram_sigma_bounds(block.tangent_gradients[:, rows])
        return _kappa(resid, hi, norm), _kappa(resid, lo, norm)
