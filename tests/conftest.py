import os

import numpy as np
import pytest
from hypothesis import strategies as st

from sah.polysys import (AffinePoly, AffineSystem, DegreePattern, HomoPoly,
                         HomoSystem)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def two_points_system() -> AffineSystem:
    """F = (x^2 - 1) in R^1; solution set {-1, +1}."""
    p = AffinePoly(1, {(2,): 1.0, (0,): -1.0})
    return AffineSystem(1, (p,), (), (), DegreePattern((2,), 1, 0))


def circle_system() -> AffineSystem:
    p = AffinePoly(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    return AffineSystem(2, (p,), (), (), DegreePattern((2,), 1, 0))


def disk_system(strict: bool = False) -> AffineSystem:
    g = AffinePoly(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    return AffineSystem(2, (), (g,), (strict,), DegreePattern((2,), 0, 1))


def annulus_system() -> AffineSystem:
    g1 = AffinePoly(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    g2 = AffinePoly(2, {(0, 0): 4.0, (2, 0): -1.0, (0, 2): -1.0})
    return AffineSystem(2, (), (g1, g2), (False, False),
                        DegreePattern((2, 2), 0, 2))


def random_homo_poly(rng: np.random.Generator, num_vars: int,
                     degree: int) -> HomoPoly:
    """Dense random homogeneous polynomial with standard normal coefficients."""
    import itertools

    terms = {}
    for exps in itertools.product(range(degree + 1), repeat=num_vars):
        if sum(exps) == degree:
            terms[exps] = float(rng.standard_normal())
    return HomoPoly(num_vars, degree, terms)


def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def per_term_eval(p, pts: np.ndarray) -> np.ndarray:
    """Oracle evaluator: each monomial as prod(pts ** exps) over the
    variables, contracted with the coefficients in sorted term order."""
    if not p.terms:
        return np.zeros(len(pts))
    keys = sorted(p.terms)
    exps = np.array(keys, dtype=np.int64)
    coeffs = np.array([p.terms[k] for k in keys])
    return np.prod(pts[:, None, :] ** exps[None, :, :], axis=2) @ coeffs


def per_term_gradient(p, pts: np.ndarray) -> np.ndarray:
    return np.column_stack([per_term_eval(p.partial(j), pts)
                            for j in range(p.num_vars)])


@st.composite
def sphere_systems(draw):
    """A system on S^1 or S^2 with q <= n equalities, up to 3 inequalities
    and degrees <= 3, some terms dropped, with 48 random unit vectors."""
    num_vars = draw(st.sampled_from((2, 3)))
    q = draw(st.integers(0, num_vars - 1))
    s = draw(st.integers(0 if q else 1, 3))
    degrees = tuple(draw(st.lists(st.integers(1, 3), min_size=q + s,
                                  max_size=q + s)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    polys = []
    for d in degrees:
        dense = random_homo_poly(rng, num_vars, d)
        keep = rng.random(len(dense.terms)) < 0.7
        polys.append(HomoPoly(num_vars, d, {e: c for (e, c), k in
                                            zip(dense.terms.items(), keep) if k}))
    pts = rng.standard_normal((48, num_vars))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    sys_ = HomoSystem(tuple(polys[:q]), tuple(polys[q:]),
                      DegreePattern(degrees, q, s))
    return sys_, pts


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
