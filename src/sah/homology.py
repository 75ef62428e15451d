"""Integer simplicial homology by unit-pivot reduction with clearing.

Boundary matrices are built with the usual alternating signs over sorted
vertex tuples.  Each boundary matrix d_k is reduced column by column over
Z, eliminating only pivots equal to +-1 (`unit_pivot_reduction`); boundary
matrices of nerves are dominated by such pivots (Dumas, Heckenbach,
Saunders and Welker, 2003), and eliminating them is unimodular.  The
degrees are reduced from the top down, so that the columns of d_k already
known to be redundant from d_{k+1} are never touched (the "twist" of Chen
and Kerber, 2011).  Whatever the unit pivots leave over goes to
`smith_normal_form`, a dense textbook Smith reduction with
arbitrary-precision integers, which keeps the torsion exact.
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


def smith_normal_form(mat: BoundaryMatrix) -> list[int]:
    """Invariant factors (positive, in divisibility order) of the matrix.

    Textbook Smith reduction over the integers on the dense matrix.  A
    nonzero entry p of least absolute value is the pivot.  Its column and
    then its row are cleared by division with remainder; each remainder
    left there is smaller than |p|, and the least nonzero one becomes the
    next pivot.  Once both are clear, a row with an entry not divisible by
    p is added to the pivot row, whose next clearing then leaves such a
    remainder.  So |p| falls at every move and the loop ends.  Otherwise p
    divides every entry left: |p| is recorded and its row and column
    deleted.  Later entries are integer combinations of entries p divides,
    so every later factor is a multiple of p: the factors come out in
    divisibility order.
    """
    a = mat.dense()
    factors: list[int] = []
    while any(any(row) for row in a):
        _, pi, pj = min((abs(v), i, j) for i, row in enumerate(a)
                        for j, v in enumerate(row) if v)
        while True:
            p = a[pi][pj]
            for i, row in enumerate(a):
                if i != pi and row[pj]:
                    q = row[pj] // p
                    a[i] = [x - q * y for x, y in zip(row, a[pi])]
            for j, v in enumerate(a[pi]):
                if j != pj and v:
                    q = v // p
                    for row in a:
                        row[j] -= q * row[pj]
            rest = ([(abs(row[pj]), i, pj) for i, row in enumerate(a)
                     if i != pi and row[pj]]
                    + [(abs(v), pi, j) for j, v in enumerate(a[pi])
                       if j != pj and v])
            if rest:
                _, pi, pj = min(rest)
                continue
            bad = next((row for row in a if any(v % p for v in row)), None)
            if bad is None:
                break
            a[pi] = [x + y for x, y in zip(a[pi], bad)]
        factors.append(abs(p))
        del a[pi]
        for row in a:
            del row[pj]
    return factors


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
