"""Integer simplicial homology by unit-pivot reduction with clearing.

Boundary matrices are built with the usual alternating signs over sorted
vertex tuples.  Each boundary matrix d_k is reduced column by column over
Z, eliminating only pivots equal to +-1 (`unit_pivot_reduction`); boundary
matrices of nerves are dominated by such pivots (Dumas, Heckenbach,
Saunders and Welker, 2003), and eliminating them is unimodular.  The
degrees are reduced from the top down, so that the columns of d_k already
known to be redundant from d_{k+1} are never touched (the "twist" of Chen
and Kerber, 2011).  Whatever the unit pivots leave over goes to
`smith_normal_form`, a sparse Smith reduction with arbitrary-precision
integers, which keeps the torsion exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContractViolation
from .nerve import SimplicialComplex


@dataclass
class BoundaryMatrix:
    """Sparse integer matrix with named rows and columns.

    rows[i] maps column index to a nonzero integer entry.  Rows correspond
    to (k-1)-simplices and columns to k-simplices of the originating
    complex.
    """

    num_rows: int
    num_cols: int
    rows: list[dict[int, int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.rows:
            self.rows = [dict() for _ in range(self.num_rows)]
        if len(self.rows) != self.num_rows:
            raise ContractViolation("row count mismatch")

    def entry(self, i: int, j: int) -> int:
        return self.rows[i].get(j, 0)

    def dense(self) -> list[list[int]]:
        return [[self.rows[i].get(j, 0) for j in range(self.num_cols)]
                for i in range(self.num_rows)]


def boundary_matrix(complex_: SimplicialComplex, k: int) -> BoundaryMatrix:
    """Boundary operator from k-chains to (k-1)-chains.

    The boundary of [v_0..v_k] is the alternating sum of the faces obtained
    by dropping one vertex.  For k = 0 the matrix has zero rows (reduced
    boundaries are not used here).
    """
    if k < 0:
        raise ContractViolation("chain degree must be nonnegative")
    cols = complex_.simplices.get(k, [])
    if k == 0:
        return BoundaryMatrix(0, len(cols))
    faces = complex_.simplices.get(k - 1, [])
    index = {s: i for i, s in enumerate(faces)}
    mat = BoundaryMatrix(len(faces), len(cols))
    for j, s in enumerate(cols):
        for drop in range(len(s)):
            face = s[:drop] + s[drop + 1:]
            i = index.get(face)
            if i is None:
                raise ContractViolation("complex is not closed under faces")
            mat.rows[i][j] = 1 if drop % 2 == 0 else -1
    return mat


def _gcd_chain_fixup(factors: list[int]) -> list[int]:
    """Restore divisibility d_1 | d_2 | ... among positive diagonal values.

    Factors equal to 1 are set aside before the quadratic loop, which is
    exact: sorted, they come first; 1 divides every value, so no pair
    (i, j) with d[i] = 1 is ever rewritten, and the loop over those
    positions only re-sorts a tail it leaves unchanged.  The result is
    therefore the ones followed by the fix-up of the rest.
    """
    import math

    ones = [1] * factors.count(1)
    d = sorted(f for f in factors if f != 1)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i] != 0:
                g = math.gcd(d[i], d[j])
                lcm = d[i] // g * d[j]
                d[i], d[j] = g, lcm
        d = d[:i + 1] + sorted(d[i + 1:])
    return ones + d


def smith_normal_form(mat: BoundaryMatrix) -> list[int]:
    """Invariant factors (positive, in divisibility order) of the matrix.

    Gaussian-style elimination over the integers: repeatedly pick the
    remaining nonzero entry of least absolute value (ties broken by lowest
    column, then lowest row), clear its row and column with exact division
    steps, and retire it to the diagonal once it divides everything it
    meets.
    """
    import heapq

    rows = [dict(r) for r in mat.rows]
    col_rows: dict[int, set[int]] = {}
    # lazily validated heap realizing min-abs pivoting with ties broken by
    # lowest column, then lowest row; stale entries are skipped on pop
    heap: list[tuple[int, int, int, int]] = []
    for i, r in enumerate(rows):
        for j, v in r.items():
            col_rows.setdefault(j, set()).add(i)
            heap.append((abs(v), j, i, v))
    heapq.heapify(heap)
    remaining = sum(len(r) for r in rows)
    factors: list[int] = []

    def set_entry(i: int, j: int, v: int) -> None:
        nonlocal remaining
        had = j in rows[i]
        if v:
            rows[i][j] = v
            col_rows.setdefault(j, set()).add(i)
            heapq.heappush(heap, (abs(v), j, i, v))
            if not had:
                remaining += 1
        else:
            if had:
                del rows[i][j]
                remaining -= 1
            s = col_rows.get(j)
            if s is not None:
                s.discard(i)
                if not s:
                    del col_rows[j]

    def add_row(src: int, dst: int, mult: int) -> None:
        for j, v in list(rows[src].items()):
            set_entry(dst, j, rows[dst].get(j, 0) + mult * v)

    def add_col(src: int, dst: int, mult: int) -> None:
        for i in list(col_rows.get(src, ())):
            set_entry(i, dst, rows[i].get(dst, 0) + mult * rows[i][src])

    while remaining:
        # peek, not pop: if the pivot moves away, this entry may stay
        # nonzero and must remain findable
        while True:
            _, pj, pi, pv = heap[0]
            if rows[pi].get(pj) == pv:
                break
            heapq.heappop(heap)
        # alternate between clearing the pivot column and the pivot row;
        # any nonzero remainder becomes a strictly smaller pivot, so the
        # loop terminates
        while True:
            moved = False
            for i in list(col_rows.get(pj, ())):
                if i == pi:
                    continue
                add_row(pi, i, -(rows[i][pj] // pv))
                if rows[i].get(pj, 0):
                    pi, pv = i, rows[i][pj]
                    moved = True
                    break
            if moved:
                continue
            for j in list(rows[pi]):
                if j == pj:
                    continue
                add_col(pj, j, -(rows[pi][j] // pv))
                if rows[pi].get(j, 0):
                    pj, pv = j, rows[pi][j]
                    moved = True
                    break
            if not moved:
                break
        factors.append(abs(pv))
        set_entry(pi, pj, 0)

    return _gcd_chain_fixup(factors)


def unit_pivot_reduction(mat: BoundaryMatrix,
                         cleared: set[int] | frozenset[int] = frozenset()
                         ) -> tuple[set[int], BoundaryMatrix]:
    """Split off the unit pivots: SNF(mat) = 1^{#pivots} + SNF(R).

    Returns the pivot rows and the residual block R.  Columns listed in
    `cleared` are skipped; see `homology_of_complex` for when that is
    exact.

    Pivot pass.  The columns are taken in order, and each is reduced by its
    lowest nonzero row, the one of largest index (its "low"), against the
    earlier pivot columns: while the low row already owns a pivot column p,
    subtract c * p with c = col[low] * p[low].  Since p[low] = +-1, this c
    is the exact integer quotient and the low entry cancels.  A column
    whose low entry ends up +-1 becomes the pivot of that row; a column
    that reduces to zero is dropped; any other column is set aside as
    residual.  Every step adds an integer multiple of an earlier column to
    a later one, so the matrix is only multiplied on the right by a
    unimodular matrix.

    Residual block.  Each residual column is then cleared on every pivot
    row, bottom-up: the pivot column of row i has no entries below i, so
    subtracting it to clear row i leaves the rows below i (already
    cleared) untouched.  The matrix now has pivot columns P, residual
    columns Q that vanish on the pivot rows, and zero columns.  With rows
    ordered pivot rows first, it reads [[P_1, 0], [P_2, R]], where R is Q
    restricted to the other rows.  P_1 is square and, ordered by low row,
    triangular with +-1 on the diagonal, so it is unimodular.  The row
    operation [[I, 0], [-P_2 P_1^{-1}, I]] is unimodular too; it clears P_2
    and leaves R, because Q is zero on the pivot rows.  Column operations
    by P_1^{-1} turn P_1 into the identity, so SNF(mat) = 1^{#P} + SNF(R).
    Rows of R that are zero are dropped, as they carry no invariant
    factor.
    """
    cols: list[dict[int, int]] = [{} for _ in range(mat.num_cols)]
    for i, row in enumerate(mat.rows):
        for j, v in row.items():
            cols[j][i] = v
    pivots: dict[int, dict[int, int]] = {}
    residual: list[dict[int, int]] = []
    for j, col in enumerate(cols):
        if j in cleared:
            continue
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                break
            _subtract(col, piv, col[low] * piv[low])
        if not col:
            continue
        if col[low] in (1, -1):
            pivots[low] = col
        else:
            residual.append(col)
    for col in residual:
        while True:
            low = max((i for i in col if i in pivots), default=None)
            if low is None:
                break
            piv = pivots[low]
            _subtract(col, piv, col[low] * piv[low])
    used = sorted({i for col in residual for i in col})
    index = {i: r for r, i in enumerate(used)}
    block = BoundaryMatrix(len(used), len(residual))
    for j, col in enumerate(residual):
        for i, v in col.items():
            block.rows[index[i]][j] = v
    return set(pivots), block


def _subtract(col: dict[int, int], piv: dict[int, int], c: int) -> None:
    """col -= c * piv on sparse columns, dropping entries that cancel."""
    for i, v in piv.items():
        w = col.get(i, 0) - c * v
        if w:
            col[i] = w
        else:
            del col[i]


def matrix_rank_and_torsion(mat: BoundaryMatrix) -> tuple[int, tuple[int, ...]]:
    """Rank over Q and the invariant factors exceeding 1.

    Unit pivots contribute invariant factors 1; the rest come from the
    Smith normal form of the residual block (`unit_pivot_reduction`).
    """
    pivot_rows, residual = unit_pivot_reduction(mat)
    factors = smith_normal_form(residual)
    return len(pivot_rows) + len(factors), tuple(d for d in factors if d > 1)


@dataclass(frozen=True)
class HomologyGroups:
    """Betti numbers and torsion coefficients per degree.

    torsion[k] lists the invariant factors greater than 1 of H_k, in
    divisibility order.
    """

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.betti) != len(self.torsion):
            raise ContractViolation("betti and torsion lengths differ")

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))


def homology_of_complex(complex_: SimplicialComplex,
                        max_degree: int | None = None) -> HomologyGroups:
    """Integer homology of the complex up to its dimension (or max_degree).

    betti_k = (#k-simplices) - rank d_k - rank d_{k+1}; torsion in degree k
    comes from the invariant factors of d_{k+1}.  Each d_k goes through
    `unit_pivot_reduction`, and its residual block through
    `smith_normal_form`.

    Clearing.  The degrees are reduced from the top down, and the reduction
    of d_k skips the columns whose k-simplices are pivot rows of d_{k+1}.
    This leaves the invariant factors of d_k unchanged.  A pivot column c
    of the reduced d_{k+1} with low row sigma is d_{k+1} u for an integer
    vector u, so d_k c = d_k d_{k+1} u = 0.  Its entry at sigma is +-1 and
    its other entries lie on rows of smaller index, so column sigma of d_k is
    an integer combination of the columns of d_k with smaller index.  By
    induction on sigma, every skipped column is an integer combination of
    the kept ones.  Dropping them leaves the lattice spanned by the
    columns, hence the rank and the cokernel Z^m / im d_k, hence the
    invariant factors, as they were.
    """
    top = complex_.dimension
    if top < 0:
        return HomologyGroups((), ())
    if max_degree is None:
        max_degree = top
    last = min(top, max_degree)
    ranks = [0] * (last + 2)
    torsion: list[tuple[int, ...]] = [()] * (last + 2)
    cleared: set[int] = set()
    for k in range(last + 1, 0, -1):
        d_k = boundary_matrix(complex_, k)
        pivot_rows, residual = unit_pivot_reduction(d_k, cleared)
        factors = smith_normal_form(residual)
        ranks[k] = len(pivot_rows) + len(factors)
        torsion[k] = tuple(d for d in factors if d > 1)
        cleared = pivot_rows
    betti = tuple(complex_.simplex_count(k) - ranks[k] - ranks[k + 1]
                  for k in range(last + 1))
    return HomologyGroups(betti, tuple(torsion[1:]))
