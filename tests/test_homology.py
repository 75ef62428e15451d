import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sah.homology
from conftest import face_closed, fixture_path
from sah.covering import covering_fixed
from sah.errors import ContractViolation
from sah.homology import (BoundaryMatrix, HomologyGroups, boundary_matrix,
                          homology_of_complex, smith_normal_form,
                          unit_pivot_reduction)
from sah.nerve import SimplicialComplex, cech_nerve
from sah.pipeline import parse_system
from sah.polysys import scaled_homogenization


def full_complex(vertices: tuple[int, ...]) -> SimplicialComplex:
    """Complex of all faces of the simplex on the given vertices."""
    simps = {}
    for k in range(len(vertices)):
        simps[k] = sorted(itertools.combinations(vertices, k + 1))
    return SimplicialComplex(simps)


def hollow_triangle() -> SimplicialComplex:
    return SimplicialComplex({0: [(0,), (1,), (2,)],
                              1: [(0, 1), (0, 2), (1, 2)]})


def rp2_complex() -> SimplicialComplex:
    """Minimal 6-vertex triangulation of the real projective plane."""
    faces = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
             (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]
    faces = sorted(tuple(sorted(v - 1 for v in f)) for f in faces)
    edges = sorted({(a, b) for f in faces
                    for a, b in itertools.combinations(f, 2)})
    return SimplicialComplex({0: [(i,) for i in range(6)],
                              1: edges, 2: faces})


def octahedron() -> SimplicialComplex:
    """Boundary of the octahedron, a triangulated 2-sphere."""
    # vertices 0/1, 2/3, 4/5 are antipodal pairs; faces avoid both members
    faces = sorted(tuple(sorted(f)) for f in
                   itertools.product((0, 1), (2, 3), (4, 5)))
    edges = sorted({(a, b) for f in faces
                    for a, b in itertools.combinations(f, 2)})
    return SimplicialComplex({0: [(i,) for i in range(6)],
                              1: edges, 2: faces})


def integer_det(m: list[list[int]]) -> int:
    """Bareiss fraction-free determinant over the integers."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def gcd_minors_snf(dense: list[list[int]]) -> list[int]:
    """Determinant-divisor oracle: d_k = gcd of k x k minors ratios."""
    nr = len(dense)
    nc = len(dense[0]) if nr else 0
    divisors = [1]
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ri in itertools.combinations(range(nr), k):
            for ci in itertools.combinations(range(nc), k):
                sub = [[dense[i][j] for j in ci] for i in ri]
                g = math.gcd(g, abs(integer_det(sub)))
        if g == 0:
            break
        divisors.append(g)
    return [divisors[i] // divisors[i - 1] for i in range(1, len(divisors))]


def test_snf_examples():
    assert smith_normal_form(BoundaryMatrix(2, 2, [{0: 2, 1: 4},
                                                   {0: 6, 1: 8}])) == [2, 4]
    eye = BoundaryMatrix(3, 3, [{0: 1}, {1: 1}, {2: 1}])
    assert smith_normal_form(eye) == [1, 1, 1]
    assert smith_normal_form(BoundaryMatrix(3, 2)) == []
    # the first pivot (6) moves away to smaller entries and is left behind
    # in a row no later step touches; it must still be found
    left_behind = BoundaryMatrix(5, 5, [{1: 1, 2: 2, 3: 3, 4: -1}, {1: 3},
                                        {2: 3, 3: 1}, {1: 1, 2: 1},
                                        {0: 2, 4: 1}])
    assert smith_normal_form(left_behind) == gcd_minors_snf(left_behind.dense())


def test_snf_against_gcd_minor_oracle(rng):
    for _ in range(60):
        nr = int(rng.integers(1, 7))
        nc = int(rng.integers(1, 7))
        dense = [[int(v) for v in rng.integers(-9, 10, nc)]
                 for _ in range(nr)]
        mat = BoundaryMatrix(nr, nc,
                             [{j: v for j, v in enumerate(row) if v}
                              for row in dense])
        assert smith_normal_form(mat) == gcd_minors_snf(dense)


def test_snf_invariant_under_unimodular_ops(rng):
    dense = [[int(v) for v in rng.integers(-5, 6, 4)] for _ in range(4)]
    base = smith_normal_form(BoundaryMatrix(
        4, 4, [{j: v for j, v in enumerate(r) if v} for r in dense]))
    for _ in range(10):
        m = [row[:] for row in dense]
        i, j = rng.choice(4, size=2, replace=False)
        c = int(rng.integers(-3, 4))
        if rng.random() < 0.5:
            m[i], m[j] = m[j], m[i]
        for k in range(4):
            m[i][k] += c * m[j][k]
        got = smith_normal_form(BoundaryMatrix(
            4, 4, [{jj: v for jj, v in enumerate(r) if v} for r in m]))
        assert got == base


def test_boundary_matrix_shapes_and_signs():
    tri = full_complex((0, 1, 2))
    d2 = boundary_matrix(tri, 2)
    assert (d2.num_rows, d2.num_cols) == (3, 1)
    # boundary of (0,1,2): +(1,2) - (0,2) + (0,1)
    col = [d2.entry(i, 0) for i in range(3)]
    assert col == [1, -1, 1]  # rows ordered (0,1), (0,2), (1,2)


def test_boundary_of_boundary_is_zero(rng):
    for verts in [(0, 1, 2, 3), (0, 1, 2, 3, 4)]:
        k_ = full_complex(verts)
        for k in range(2, len(verts)):
            a = np.array(boundary_matrix(k_, k - 1).dense())
            b = np.array(boundary_matrix(k_, k).dense())
            assert not np.any(a @ b)


def test_boundary_matrix_rejects_open_complex():
    bad = SimplicialComplex({0: [(0,), (1,)], 1: [(0, 2)]})
    with pytest.raises(ContractViolation):
        boundary_matrix(bad, 1)


def test_hollow_triangle_homology():
    h = homology_of_complex(hollow_triangle())
    assert h.betti == (1, 1)
    assert h.torsion == ((), ())


def test_full_simplex_contractible():
    h = homology_of_complex(full_complex((0, 1, 2)))
    assert h.betti == (1, 0, 0)


def test_octahedron_is_sphere():
    h = homology_of_complex(octahedron())
    assert h.betti == (1, 0, 1)
    assert h.torsion == ((), (), ())


def test_rp2_torsion():
    k = rp2_complex()
    assert face_closed(k)
    h = homology_of_complex(k)
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (2,), ())


def test_euler_characteristic_identity():
    for k_ in (hollow_triangle(), full_complex((0, 1, 2, 3)), rp2_complex(),
               octahedron()):
        h = homology_of_complex(k_)
        chi_simplices = sum((-1) ** k * len(v)
                            for k, v in k_.simplices.items())
        assert h.euler_characteristic == chi_simplices


def test_rank_matches_float_rank(rng):
    k_ = octahedron()
    for k in (1, 2):
        mat = boundary_matrix(k_, k)
        rank, _ = rank_and_torsion(mat)
        assert rank == np.linalg.matrix_rank(np.array(mat.dense(), dtype=float))


def test_homology_groups_validation():
    with pytest.raises(ContractViolation):
        HomologyGroups((1, 0), ((),))


def test_empty_complex():
    h = homology_of_complex(SimplicialComplex())
    assert h.betti == ()


def test_negative_max_degree_is_rejected():
    with pytest.raises(ContractViolation):
        homology_of_complex(hollow_triangle(), max_degree=-1)


def test_annulus_nerve_reduces_few_rows(monkeypatch):
    """Bottom-up clearing leaves almost every reduced coboundary a pivot:
    the top-down reduction of d_3, d_2, d_1 made 296,569 subtractions on
    this nerve (532/4,968/18,064/37,652 simplices)."""
    sys_ = parse_system(fixture_path("annulus.json"))
    cov = covering_fixed(scaled_homogenization(sys_), 0.25, 0.15)
    nerve = cech_nerve(cov.points, cov.epsilon, max_dim=3)
    calls = []
    subtract = sah.homology._subtract

    def counting(*args):
        calls.append(None)
        return subtract(*args)

    monkeypatch.setattr(sah.homology, "_subtract", counting)
    h = homology_of_complex(nerve, max_degree=2)
    assert h.betti == (1, 1, 0)
    assert len(calls) < 3000


def rank_and_torsion(mat: BoundaryMatrix,
                     cleared: frozenset[int] = frozenset()
                     ) -> tuple[int, tuple[int, ...]]:
    """Unit pivots, then the SNF of the residual block."""
    pivot_rows, residual = unit_pivot_reduction(mat, cleared)
    factors = smith_normal_form(residual)
    return len(pivot_rows) + len(factors), tuple(d for d in factors if d > 1)


def full_snf_rank_and_torsion(mat: BoundaryMatrix
                              ) -> tuple[int, tuple[int, ...]]:
    """Reference: Smith normal form of the whole matrix."""
    factors = smith_normal_form(mat)
    return len(factors), tuple(d for d in factors if d > 1)


def full_snf_homology(complex_: SimplicialComplex,
                      max_degree: int) -> HomologyGroups:
    """Reference: every boundary matrix through the whole-matrix SNF."""
    last = min(complex_.dimension, max_degree)
    rank = [full_snf_rank_and_torsion(boundary_matrix(complex_, k))
            for k in range(last + 2)]
    betti = tuple(complex_.simplex_count(k) - rank[k][0] - rank[k + 1][0]
                  for k in range(last + 1))
    torsion = tuple(rank[k + 1][1] for k in range(last + 1))
    return HomologyGroups(betti, torsion)


def closure(maximal) -> SimplicialComplex:
    simps: dict[int, set] = {}
    for top in maximal:
        for k in range(len(top)):
            simps.setdefault(k, set()).update(
                itertools.combinations(top, k + 1))
    return SimplicialComplex({k: sorted(v) for k, v in simps.items()})


RP2_FACES = rp2_complex().simplices[2]


@st.composite
def small_complexes(draw):
    """Face-closed complexes on at most 7 vertices, sometimes around RP^2
    so that torsion occurs."""
    maximal = draw(st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True)
        .map(lambda vs: tuple(sorted(vs))), max_size=12))
    if draw(st.booleans()):
        maximal += RP2_FACES
    return closure(maximal)


@settings(max_examples=150, deadline=None)
@given(small_complexes(), st.integers(0, 4))
def test_homology_agrees_with_full_snf(complex_, max_degree):
    assert face_closed(complex_)
    assert (homology_of_complex(complex_)
            == full_snf_homology(complex_, complex_.dimension))
    if complex_.dimension >= 0:
        assert (homology_of_complex(complex_, max_degree)
                == full_snf_homology(complex_, max_degree))


@settings(max_examples=150, deadline=None)
@given(small_complexes())
def test_clearing_changes_nothing(complex_):
    """Skipping the pivots of delta_{k-1} keeps rank and torsion of
    delta_k."""
    cleared: set[int] = set()
    for k in range(complex_.dimension):
        d = boundary_matrix(complex_, k + 1)
        assert rank_and_torsion(d, cleared) == rank_and_torsion(d)
        cleared, _ = unit_pivot_reduction(d, cleared)


@st.composite
def small_matrices(draw):
    nr, nc = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -4, 6, 9, -9))
    dense = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                          min_size=nr, max_size=nr))
    return BoundaryMatrix(nr, nc, [{j: v for j, v in enumerate(row) if v}
                                   for row in dense])


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_rank_and_torsion_agree_with_full_snf(mat):
    assert rank_and_torsion(mat) == full_snf_rank_and_torsion(mat)
    if mat.num_rows <= 5 and mat.num_cols <= 5:
        # the only reference independent of smith_normal_form
        assert smith_normal_form(mat) == gcd_minors_snf(mat.dense())


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_rank_and_torsion_of_the_transpose_and_input_left_intact(mat):
    rows = copy.deepcopy(mat.rows)
    transpose = BoundaryMatrix(mat.num_cols, mat.num_rows)
    for i, row in enumerate(mat.rows):
        for j, v in row.items():
            transpose.rows[j][i] = v
    assert rank_and_torsion(mat) == rank_and_torsion(transpose)
    assert mat.rows == rows


def test_rp2_leaves_a_residual_block_with_the_torsion():
    d2 = boundary_matrix(rp2_complex(), 2)
    pivot_rows, residual = unit_pivot_reduction(d2)
    assert len(pivot_rows) == 9
    # three edge rows left over, on the one face column without a pivot
    assert (residual.num_rows, residual.num_cols) == (3, 1)
    assert all(row[0] in (2, -2) for row in residual.rows)
    assert smith_normal_form(residual) == [2]
    assert rank_and_torsion(d2) == (10, (2,))


def test_snf_orders_a_diagonal_by_divisibility():
    # 4 and 6 are not multiples of one another: they become 2 and 12
    assert smith_normal_form(BoundaryMatrix(
        4, 4, [{0: 1}, {1: 4}, {2: 1}, {3: 6}])) == [1, 1, 2, 12]


def test_snf_of_big_integers_is_exact():
    a, b = 2 ** 64, 3 ** 40
    assert smith_normal_form(BoundaryMatrix(
        2, 2, [{0: a}, {1: b}])) == [1, a * b]
    # gcd of the entries 1, determinant a b - 6 a b
    assert smith_normal_form(BoundaryMatrix(
        2, 2, [{0: a, 1: 3 * a}, {0: 2 * b, 1: b}])) == [1, 5 * a * b]


@pytest.mark.parametrize("call, match", [
    (lambda: BoundaryMatrix(2, 1, [{}]), "row count"),
    (lambda: boundary_matrix(hollow_triangle(), -1), "nonnegative"),
])
def test_contract_checks(call, match):
    with pytest.raises(ContractViolation, match=match):
        call()
