"""Sparse homogeneous and affine polynomial systems in the Weyl metric.

Polynomials are stored as maps from exponent vectors to float coefficients.
One core, `Poly`, evaluates, differentiates and substitutes them; the
homogeneous and affine variants and `shubsmale.PolyMap` are built on it.
The Weyl inner product weights each monomial by the inverse of its
multinomial coefficient, which makes the induced norm invariant under
orthogonal changes of the variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolation

Exponents = tuple[int, ...]
Terms = dict[Exponents, float]

ORTHOGONALITY_TOL = 1e-10


def multinomial(d: int, exps: Exponents) -> int:
    """d! / (a_0! a_1! ... a_n!) for an exponent vector summing to d."""
    num = math.factorial(d)
    for a in exps:
        num //= math.factorial(a)
    return num


def _clean_terms(terms: Terms, num_vars: int, degree: int | None) -> Terms:
    """Integer exponents, zeros dropped; each sums to `degree` unless None.
    Exponents equal as numbers are one dict key, so no two terms merge."""
    out: Terms = {}
    for exps, c in terms.items():
        if any(int(e) != e for e in exps):
            raise ContractViolation(f"non-integral exponent in {exps}")
        exps = tuple(int(e) for e in exps)
        if len(exps) != num_vars:
            raise ContractViolation(
                f"exponent vector {exps} has length {len(exps)}, expected {num_vars}")
        if any(e < 0 for e in exps):
            raise ContractViolation(f"negative exponent in {exps}")
        if degree is not None and sum(exps) != degree:
            raise ContractViolation(
                f"exponents {exps} sum to {sum(exps)}, expected degree {degree}")
        c = float(c)
        if c != 0.0:
            out[exps] = c
    return out


def power_table(pts: np.ndarray, degree: int) -> np.ndarray:
    """The powers pts[:, v] ** e for e = 0..degree, as table[v, e].

    Every polynomial and partial derivative evaluated at a block of points
    reads this one table of shape (n+1, degree+1, N).  `eval_table` must
    give the values of the per-term product
    `prod(pts[:, None, :] ** exps, axis=2) @ coeffs` bit for bit, so each
    entry is what `np.power` of a float and an integer exponent array
    gives.  For e = 0 and e = 1 that is 1.0 and x exactly (pow is exact
    on them), so only e >= 2 calls `np.power`, with a full-size exponent
    array: given one exponent for a whole row, `np.power` squares by
    x * x, which can differ from pow in the last bit.
    """
    dim, count = pts.shape[1], len(pts)
    table = np.empty((dim, degree + 1, count))
    table[:, 0] = 1.0
    if degree >= 1:
        table[:, 1] = pts.T
    if degree >= 2:
        exps = np.broadcast_to(np.arange(2, degree + 1)[:, None],
                               (dim, degree - 1, count)).copy()
        np.power(pts.T[:, None, :], exps, out=table[:, 2:])
    return table


class Poly:
    """Core of every sparse polynomial: evaluation, derivatives, substitution.

    Variants are frozen dataclasses with fields `num_vars` and `terms`; their
    `__post_init__` calls `_compile` once, which cleans the terms and freezes
    the exponent matrix (rows in sorted order) and the coefficient vector
    that `eval_table` contracts.  `_lowered` builds a derivative of the same
    variant.
    """

    def _compile(self, degree: int | None) -> None:
        terms = _clean_terms(self.terms, self.num_vars, degree)
        keys = sorted(terms)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_exps", np.array(keys, dtype=np.int64)
                           .reshape(-1, self.num_vars))
        object.__setattr__(self, "_coeffs",
                           np.array([terms[k] for k in keys], dtype=float))

    def __call__(self, x) -> float:
        return float(self.eval_many(np.asarray(x, dtype=float)[None, :])[0])

    def eval_table(self, table: np.ndarray) -> np.ndarray:
        """Evaluate at the N points of a `power_table` of degree at least
        this polynomial's; the one evaluator."""
        if table.shape[0] != self.num_vars:
            raise ContractViolation("point arity does not match polynomial")
        if not self.terms:
            return np.zeros(table.shape[2])
        # (T, N) monomial values, multiplied in variable order; the
        # contraction runs on the C-ordered (N, T) array, like the
        # per-term product's, because the order of its sums depends on
        # the layout
        mono = table[0][self._exps[:, 0]]
        for v in range(1, self.num_vars):
            mono = mono * table[v][self._exps[:, v]]
        return np.ascontiguousarray(mono.T) @ self._coeffs

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at an array of points of shape (N, num_vars)."""
        return self.eval_table(power_table(pts, self.degree))

    def partial(self, j: int) -> "Poly":
        """Partial derivative with respect to variable j."""
        terms: Terms = {}
        for exps, c in self.terms.items():
            a = exps[j]
            if a:
                key = exps[:j] + (a - 1,) + exps[j + 1:]
                terms[key] = terms.get(key, 0.0) + a * c
        return self._lowered(terms)

    @cached_property
    def partials(self) -> tuple["Poly", ...]:
        """The partial derivatives in every variable, built once."""
        return tuple(self.partial(j) for j in range(self.num_vars))

    def gradient_table(self, table: np.ndarray) -> np.ndarray:
        """Gradients at the points of a `power_table`, shape (N, num_vars)."""
        return np.column_stack([d.eval_table(table) for d in self.partials])

    def substitute(self, subs: list[Terms], num_vars: int) -> Terms:
        """Terms of y -> self(s_0(y), ..., s_{k-1}(y)), expanded exactly.

        Each s_j is a sparse polynomial in `num_vars` variables.  Exponential
        in the degree; meant for linear and affine changes of variables.
        """
        acc: Terms = {}
        for exps, c in self.terms.items():
            prod: Terms = {(0,) * num_vars: 1.0}
            for j, a in enumerate(exps):
                for _ in range(a):
                    nxt: Terms = {}
                    for e1, c1 in prod.items():
                        for e2, c2 in subs[j].items():
                            key = tuple(u + v for u, v in zip(e1, e2))
                            nxt[key] = nxt.get(key, 0.0) + c1 * c2
                    prod = nxt
            for key, val in prod.items():
                acc[key] = acc.get(key, 0.0) + c * val
        return acc


@dataclass(frozen=True)
class HomoPoly(Poly):
    """A homogeneous polynomial in variables X_0..X_{num_vars-1}."""

    num_vars: int
    degree: int
    terms: Terms

    def __post_init__(self):
        if self.degree < 0:
            raise ContractViolation("degree must be >= 0")
        self._compile(self.degree)

    def _lowered(self, terms: Terms) -> "HomoPoly":
        return HomoPoly(self.num_vars, max(self.degree - 1, 0), terms)

    @cached_property
    def weyl_sq(self) -> float:
        """Squared Weyl norm, computed once."""
        return weyl_inner(self, self)

    def scale(self, lam: float) -> "HomoPoly":
        return HomoPoly(self.num_vars, self.degree,
                        {e: lam * c for e, c in self.terms.items()})


@dataclass(frozen=True)
class HomoSystem:
    """A homogeneous semialgebraic system: equalities F and inequalities G."""

    F: tuple[HomoPoly, ...]
    G: tuple[HomoPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "F", tuple(self.F))
        object.__setattr__(self, "G", tuple(self.G))
        comps = self.components
        if any(p.degree < 1 for p in comps):
            raise ContractViolation("all degrees must be >= 1")
        if any(p.num_vars != comps[0].num_vars for p in comps):
            raise ContractViolation("components disagree on the number of variables")

    @property
    def components(self) -> tuple[HomoPoly, ...]:
        return self.F + self.G

    @property
    def max_degree(self) -> int:
        """The largest component degree D, 1 for the empty system."""
        return max((p.degree for p in self.components), default=1)

    @property
    def num_vars(self) -> int:
        if not self.components:
            raise ContractViolation("empty system has no ambient dimension")
        return self.components[0].num_vars

    @property
    def sphere_dim(self) -> int:
        """Dimension n of the sphere S^n in R^{n+1} the system lives on."""
        return self.num_vars - 1


@dataclass(frozen=True)
class AffinePoly(Poly):
    """A sparse polynomial in n affine variables."""

    num_vars: int
    terms: Terms

    def __post_init__(self):
        self._compile(None)

    def _lowered(self, terms: Terms) -> "AffinePoly":
        return AffinePoly(self.num_vars, terms)

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)


@dataclass(frozen=True)
class AffineSystem:
    """A basic semialgebraic system in n affine variables.

    The solution set is {f_i = 0 for all i, g_j >= 0 for all j}: a strict
    inequality is read as its closure, which has the same homotopy type
    when the subtuple condition maximum is finite.  `degrees`, those of F
    then G, are declared, not derived: x - 1 at degree 2 homogenizes to
    X0 (X1 - X0), whose zero set adds the equator.
    """

    n: int
    F: tuple[AffinePoly, ...]
    G: tuple[AffinePoly, ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "F", tuple(self.F))
        object.__setattr__(self, "G", tuple(self.G))
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if len(self.degrees) != len(self.F) + len(self.G):
            raise ContractViolation("one degree per polynomial is required")
        if any(d < 1 for d in self.degrees):
            raise ContractViolation("all degrees must be >= 1")
        if len(self.F) > self.n:
            raise ContractViolation(
                f"q = {len(self.F)} equalities exceed the ambient dimension n = {self.n}")
        for p, d in zip(self.F + self.G, self.degrees):
            if p.num_vars != self.n:
                raise ContractViolation("component arity does not match n")
            if p.degree > d:
                raise ContractViolation("component degree exceeds its declared degree")


# ---------------------------------------------------------------------------
# Weyl inner product and norms

def weyl_inner(h: HomoPoly, h2: HomoPoly) -> float:
    """Inner product weighting each monomial by 1/multinomial(d, a)."""
    if h.degree != h2.degree or h.num_vars != h2.num_vars:
        raise ContractViolation("Weyl inner product requires equal degree and arity")
    total = 0.0
    small, big = (h.terms, h2.terms) if len(h.terms) <= len(h2.terms) else (h2.terms, h.terms)
    for exps, c in small.items():
        c2 = big.get(exps)
        if c2 is not None:
            total += c * c2 / multinomial(h.degree, exps)
    return total


def weyl_norm(polys) -> float:
    """Norm of a tuple of homogeneous polynomials."""
    return math.sqrt(sum(h.weyl_sq for h in polys))


# ---------------------------------------------------------------------------
# Homogenization

def homogenize_poly(p: AffinePoly, degree: int) -> HomoPoly:
    """Homogenize to the given degree with a fresh leading variable X_0."""
    if p.degree > degree:
        raise ContractViolation("declared degree below actual degree")
    terms: Terms = {}
    for exps, c in p.terms.items():
        terms[(degree - sum(exps),) + exps] = c
    return HomoPoly(p.num_vars + 1, degree, terms)


def homogenize(sys: AffineSystem) -> HomoSystem:
    """Componentwise homogenization to the declared degrees."""
    polys = [homogenize_poly(p, d) for p, d in zip(sys.F + sys.G, sys.degrees)]
    return HomoSystem(polys[:len(sys.F)], polys[len(sys.F):])


def scaled_homogenization(sys: AffineSystem) -> HomoSystem:
    """Homogenize and append the inequality ||sys^h|| * X_0 >= 0.

    Reduces an affine problem in R^n to a spherical one on S^n.  The new
    inequality is linear, and the squared norm of the output is exactly
    twice that of the input.
    """
    hsys = homogenize(sys)
    norm = weyl_norm(hsys.components)
    if norm == 0.0:
        raise ContractViolation("the zero system has no scaled homogenization")
    x0 = HomoPoly(sys.n + 1, 1, {(1,) + (0,) * sys.n: norm})
    return HomoSystem(hsys.F, hsys.G + (x0,))


# ---------------------------------------------------------------------------
# Orthogonal variable changes

def compose_rotation(h: HomoPoly, u: np.ndarray) -> HomoPoly:
    """Exact symbolic expansion of x -> h(u @ x) for an orthogonal matrix u.

    Exponential in the degree; intended for tests and diagnostics.
    """
    u = np.asarray(u, dtype=float)
    nv = h.num_vars
    if u.shape != (nv, nv):
        raise ContractViolation("rotation matrix arity does not match the polynomial")
    if np.max(np.abs(u.T @ u - np.eye(nv))) > ORTHOGONALITY_TOL:
        raise ContractViolation("matrix is not orthogonal within tolerance")
    linear_forms = [{tuple(int(k == j) for k in range(nv)): float(u[i, j])
                     for j in range(nv) if u[i, j] != 0.0}
                    for i in range(nv)]
    return HomoPoly(nv, h.degree, h.substitute(linear_forms, nv))


def compose_rotation_system(polys, u: np.ndarray):
    return tuple(compose_rotation(p, u) for p in polys)
