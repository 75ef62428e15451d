"""Sparse homogeneous and affine polynomial systems in the Weyl metric.

Polynomials are stored as maps from exponent vectors to float coefficients.
The Weyl inner product weights each monomial by the inverse of its
multinomial coefficient, which makes the induced norm invariant under
orthogonal changes of the variables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

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


@dataclass(frozen=True)
class DegreePattern:
    """Degrees of the q equalities followed by the s inequalities."""

    degrees: tuple[int, ...]
    q: int
    s: int

    def __post_init__(self):
        if self.q < 0 or self.s < 0 or self.q + self.s != len(self.degrees):
            raise ContractViolation("q + s must equal the number of degrees")
        if any(d < 1 for d in self.degrees):
            raise ContractViolation("all degrees must be >= 1")

    @property
    def max_degree(self) -> int:
        return max(self.degrees) if self.degrees else 1

    def equality_degrees(self) -> tuple[int, ...]:
        return self.degrees[: self.q]

    def inequality_degrees(self) -> tuple[int, ...]:
        return self.degrees[self.q:]


def _clean_terms(terms: Terms, num_vars: int, degree: int | None,
                 homogeneous: bool) -> Terms:
    out: Terms = {}
    for exps, c in terms.items():
        exps = tuple(int(e) for e in exps)
        if len(exps) != num_vars:
            raise ContractViolation(
                f"exponent vector {exps} has length {len(exps)}, expected {num_vars}")
        if any(e < 0 for e in exps):
            raise ContractViolation(f"negative exponent in {exps}")
        if homogeneous and sum(exps) != degree:
            raise ContractViolation(
                f"exponents {exps} sum to {sum(exps)}, expected degree {degree}")
        if degree is not None and sum(exps) > degree:
            raise ContractViolation(
                f"term {exps} exceeds declared degree {degree}")
        c = float(c)
        if c != 0.0:
            out[exps] = out.get(exps, 0.0) + c
    return {e: c for e, c in out.items() if c != 0.0}


@dataclass(frozen=True)
class HomoPoly:
    """A homogeneous polynomial in variables X_0..X_{num_vars-1}."""

    num_vars: int
    degree: int
    terms: Terms

    def __post_init__(self):
        if self.degree < 0:
            raise ContractViolation("degree must be >= 0")
        object.__setattr__(self, "terms",
                           _clean_terms(self.terms, self.num_vars, self.degree, True))
        exps = np.array(sorted(self.terms), dtype=np.int64).reshape(-1, self.num_vars)
        coeffs = np.array([self.terms[tuple(e)] for e in exps], dtype=float)
        object.__setattr__(self, "_exps", exps)
        object.__setattr__(self, "_coeffs", coeffs)

    def __call__(self, x) -> float:
        return float(self.eval_many(np.asarray(x, dtype=float)[None, :])[0])

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at an array of points of shape (N, num_vars)."""
        if pts.shape[1] != self.num_vars:
            raise ContractViolation("point arity does not match polynomial")
        if not self.terms:
            return np.zeros(len(pts))
        # (N, T) monomial values; exponent matrices are small at desk scale.
        mono = np.prod(pts[:, None, :] ** self._exps[None, :, :], axis=2)
        return mono @ self._coeffs

    def partial(self, j: int) -> "HomoPoly":
        """Partial derivative with respect to X_j."""
        terms: Terms = {}
        for exps, c in self.terms.items():
            a = exps[j]
            if a == 0:
                continue
            e2 = list(exps)
            e2[j] = a - 1
            key = tuple(e2)
            terms[key] = terms.get(key, 0.0) + a * c
        return HomoPoly(self.num_vars, max(self.degree - 1, 0), terms)

    def scale(self, lam: float) -> "HomoPoly":
        return HomoPoly(self.num_vars, self.degree,
                        {e: lam * c for e, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms


@dataclass(frozen=True)
class HomoSystem:
    """A homogeneous semialgebraic system: equalities F and inequalities G."""

    F: tuple[HomoPoly, ...]
    G: tuple[HomoPoly, ...]
    pattern: DegreePattern

    def __post_init__(self):
        object.__setattr__(self, "F", tuple(self.F))
        object.__setattr__(self, "G", tuple(self.G))
        if len(self.F) != self.pattern.q or len(self.G) != self.pattern.s:
            raise ContractViolation("component counts do not match the degree pattern")
        comps = self.components
        for p, d in zip(comps, self.pattern.degrees):
            if p.degree != d:
                raise ContractViolation("component degree does not match the pattern")
        if comps:
            nv = comps[0].num_vars
            if any(p.num_vars != nv for p in comps):
                raise ContractViolation("components disagree on the number of variables")

    @property
    def components(self) -> tuple[HomoPoly, ...]:
        return self.F + self.G

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
class AffinePoly:
    """A sparse polynomial in n affine variables, degree bounded by a pattern."""

    num_vars: int
    terms: Terms

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           _clean_terms(self.terms, self.num_vars, None, False))

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for exps, c in self.terms.items():
            total += c * float(np.prod(x ** np.array(exps)))
        return total


@dataclass(frozen=True)
class AffineSystem:
    """A basic semialgebraic system in n affine variables.

    Each inequality carries a strictness flag; the solution set is
    {f_i = 0 for all i, g_j >= 0 (or > 0 when strict) for all j}.
    """

    n: int
    F: tuple[AffinePoly, ...]
    G: tuple[AffinePoly, ...]
    strict: tuple[bool, ...]
    pattern: DegreePattern

    def __post_init__(self):
        object.__setattr__(self, "F", tuple(self.F))
        object.__setattr__(self, "G", tuple(self.G))
        object.__setattr__(self, "strict", tuple(bool(b) for b in self.strict))
        if len(self.F) != self.pattern.q or len(self.G) != self.pattern.s:
            raise ContractViolation("component counts do not match the degree pattern")
        if len(self.strict) != len(self.G):
            raise ContractViolation("one strictness flag per inequality is required")
        if self.pattern.q > self.n:
            raise ContractViolation(
                f"q = {self.pattern.q} equalities exceed the ambient dimension n = {self.n}")
        for p, d in zip(self.F + self.G, self.pattern.degrees):
            if p.num_vars != self.n:
                raise ContractViolation("component arity does not match n")
            if p.degree > d:
                raise ContractViolation("component degree exceeds its pattern degree")


def system_size(sys: AffineSystem) -> int:
    """Number of real coefficients determining a dense system of this shape."""
    return sum(math.comb(sys.n + d, sys.n) for d in sys.pattern.degrees)


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


def weyl_norm_poly(h: HomoPoly) -> float:
    return math.sqrt(max(weyl_inner(h, h), 0.0))


def weyl_norm(polys) -> float:
    """Norm of a tuple of homogeneous polynomials (or of a HomoSystem)."""
    if isinstance(polys, HomoSystem):
        polys = polys.components
    return math.sqrt(sum(weyl_inner(h, h) for h in polys))


# ---------------------------------------------------------------------------
# Evaluation and differentiation

def jacobian(polys, x) -> np.ndarray:
    """Matrix of partial derivatives, one row per polynomial."""
    polys = tuple(polys)
    x = np.asarray(x, dtype=float)
    if not polys:
        return np.zeros((0, len(x)))
    nv = polys[0].num_vars
    if x.shape != (nv,):
        raise ContractViolation("point arity does not match the polynomials")
    out = np.empty((len(polys), nv))
    for i, p in enumerate(polys):
        for j in range(nv):
            out[i, j] = p.partial(j)(x)
    return out


# ---------------------------------------------------------------------------
# Homogenization

def homogenize_poly(p: AffinePoly, degree: int) -> HomoPoly:
    """Homogenize to the given degree with a fresh leading variable X_0."""
    if p.degree > degree:
        raise ContractViolation("pattern degree below actual degree")
    terms: Terms = {}
    for exps, c in p.terms.items():
        terms[(degree - sum(exps),) + exps] = c
    return HomoPoly(p.num_vars + 1, degree, terms)


def dehomogenize_poly(h: HomoPoly) -> AffinePoly:
    """Substitute X_0 = 1 and drop the leading variable."""
    terms: Terms = {}
    for exps, c in h.terms.items():
        key = exps[1:]
        terms[key] = terms.get(key, 0.0) + c
    return AffinePoly(h.num_vars - 1, terms)


def homogenize(sys: AffineSystem) -> HomoSystem:
    """Componentwise homogenization with respect to the degree pattern."""
    F = tuple(homogenize_poly(p, d)
              for p, d in zip(sys.F, sys.pattern.equality_degrees()))
    G = tuple(homogenize_poly(p, d)
              for p, d in zip(sys.G, sys.pattern.inequality_degrees()))
    return HomoSystem(F, G, sys.pattern)


def scaled_homogenization(sys: AffineSystem) -> HomoSystem:
    """Homogenize and append the inequality ||sys^h|| * X_0 >= 0.

    Reduces an affine problem in R^n to a spherical one on S^n.  The output
    degree pattern appends a 1 for the new linear inequality, and the squared
    norm of the output is exactly twice that of the input.
    """
    hsys = homogenize(sys)
    norm = weyl_norm(hsys)
    if norm == 0.0:
        raise ContractViolation("the zero system has no scaled homogenization")
    x0 = HomoPoly(sys.n + 1, 1, {(1,) + (0,) * sys.n: norm})
    pattern = DegreePattern(sys.pattern.degrees + (1,), sys.pattern.q,
                            sys.pattern.s + 1)
    return HomoSystem(hsys.F, hsys.G + (x0,), pattern)


# ---------------------------------------------------------------------------
# Orthogonal variable changes

def _poly_mul(p: Terms, q: Terms) -> Terms:
    out: Terms = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


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
    unit = {(0,) * nv: 1.0}
    linear_forms = []
    for i in range(nv):
        lf: Terms = {}
        for j in range(nv):
            if u[i, j] != 0.0:
                e = [0] * nv
                e[j] = 1
                lf[tuple(e)] = float(u[i, j])
        linear_forms.append(lf)
    acc: Terms = {}
    for exps, c in h.terms.items():
        prod = dict(unit)
        for i, a in enumerate(exps):
            for _ in range(a):
                prod = _poly_mul(prod, linear_forms[i])
        for key, val in prod.items():
            acc[key] = acc.get(key, 0.0) + c * val
    return HomoPoly(nv, h.degree, acc)


def compose_rotation_system(polys, u: np.ndarray):
    return tuple(compose_rotation(p, u) for p in polys)


# ---------------------------------------------------------------------------
# Construction helpers

def poly_from_string_terms(num_vars: int, degree: int,
                           entries: list[tuple[str, list[int]]]) -> HomoPoly:
    """Build a homogeneous polynomial from (decimal-string, exponents) pairs."""
    terms: Terms = {}
    for coeff, exps in entries:
        key = tuple(exps)
        terms[key] = terms.get(key, 0.0) + float(Fraction(coeff))
    return HomoPoly(num_vars, degree, terms)
