"""Integer simplicial homology by unit-pivot reduction with clearing.

Boundary matrices are built with the usual alternating signs over sorted
vertex tuples.  A matrix and its transpose have the same Smith normal
form, so the ranks and the torsion over Z can be read off the coboundary
delta_k = d_{k+1}^T as well as off d_{k+1}.  Each delta_k is reduced
column by column, that is d_{k+1} row by row, over Z, eliminating only
pivots equal to +-1 (`unit_pivot_reduction`); boundary matrices of nerves
are dominated by such pivots (Dumas, Heckenbach, Saunders and Welker,
2003), and eliminating them is unimodular.  The degrees are reduced from
0 up, so that the k-simplices already known to be redundant from
delta_{k-1} are never touched: clearing (Chen and Kerber, 2011) in the
cohomology order (de Silva, Morozov and Vejdemo-Johansson, "Dualities in
persistent (co)homology", 2011; Bauer, "Ripser", 2021).  Top-down,
clearing cannot help the top degree, whose columns mostly reduce to zero;
bottom-up, nearly every coboundary that is reduced becomes a pivot.
Whatever the unit pivots leave over goes to `smith_normal_form`, a dense
textbook Smith reduction with arbitrary-precision integers, which keeps
the torsion exact.
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

    The rows of mat are reduced: row i of d_{k+1} is the coboundary of the
    k-simplex i.  Returns the pivot columns and the residual block R.
    Rows listed in `cleared` are skipped; see `homology_of_complex` for
    when that is exact.  mat is left as it was: each subtraction makes a
    new row, and rows that no subtraction touches are shared, not copied.

    Pivot pass.  The rows are taken in order, and each is reduced by its
    last nonzero column, the one of largest index (its "low"), against the
    earlier pivot rows: while the low column already owns a pivot row p,
    subtract c * p with c = row[low] * p[low].  Since p[low] = +-1, this c
    is the exact integer quotient and the low entry cancels.  A row whose
    low entry ends up +-1 becomes the pivot of that column; a row that
    reduces to zero is dropped; any other row is set aside as residual.
    Every step adds an integer multiple of an earlier row to a later one,
    so the matrix is only multiplied on the left by a unimodular matrix.

    Residual block.  Each residual row is then cleared on every pivot
    column, right to left: the pivot row of column j has no entries right
    of j, so subtracting it to clear column j leaves the columns right of
    j (already cleared) untouched.  The matrix now has pivot rows P,
    residual rows Q that vanish on the pivot columns, and zero rows.  With
    columns ordered pivot columns first, it reads [[P_1, P_2], [0, R]],
    where R is Q restricted to the other columns.  P_1 is square and,
    ordered by low column, triangular with +-1 on the diagonal, so it is
    unimodular.  The column operation [[I, -P_1^{-1} P_2], [0, I]] is
    unimodular too; it clears P_2 and leaves R, because Q is zero on the
    pivot columns.  Row operations by P_1^{-1} turn P_1 into the identity,
    so SNF(mat) = 1^{#P} + SNF(R).  Columns of R that are zero are
    dropped, as they carry no invariant factor.
    """
    pivots: dict[int, dict[int, int]] = {}
    residual: list[dict[int, int]] = []
    for i, row in enumerate(mat.rows):
        if i in cleared:
            continue
        while row and (piv := pivots.get(low := max(row))) is not None:
            row = _subtract(row, piv, row[low] * piv[low])
        if not row:
            continue
        if row[low] in (1, -1):
            pivots[low] = row
        else:
            residual.append(row)
    for n, row in enumerate(residual):
        while (low := max((j for j in row if j in pivots),
                          default=None)) is not None:
            piv = pivots[low]
            row = _subtract(row, piv, row[low] * piv[low])
        residual[n] = row
    used = sorted({j for row in residual for j in row})
    index = {j: c for c, j in enumerate(used)}
    block = BoundaryMatrix(len(residual), len(used),
                           [{index[j]: v for j, v in row.items()}
                            for row in residual])
    return set(pivots), block


def _subtract(row: dict[int, int], piv: dict[int, int],
              c: int) -> dict[int, int]:
    """row - c * piv on sparse rows, as a new dict without the entries
    that cancel; row itself is left as it was."""
    out = dict(row)
    for j, v in piv.items():
        w = out.get(j, 0) - c * v
        if w:
            out[j] = w
        else:
            del out[j]
    return out


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
    comes from the invariant factors of d_{k+1}.  The coboundary
    delta_k = d_{k+1}^T has the same invariant factors, and it is delta_k
    that is reduced, for k = 0, 1, ...: the rows of d_{k+1} go through
    `unit_pivot_reduction`, and its residual block through
    `smith_normal_form`.

    Clearing.  The reduction of delta_k skips the k-simplices that are
    pivot columns of the reduced delta_{k-1}.  This leaves the invariant
    factors of delta_k unchanged.  A reduced coboundary c = delta_{k-1} u
    with low sigma, for an integer vector u, has delta_k c =
    delta_k delta_{k-1} u = 0.  Its entry at sigma is +-1 and its other
    entries lie at k-simplices of smaller index, so the coboundary of
    sigma is an integer combination of the coboundaries of k-simplices
    with smaller index.  By induction on sigma, every skipped coboundary
    is an integer combination of the kept ones.  Dropping them leaves the
    lattice spanned by the rows of d_{k+1}, hence its rank and invariant
    factors, as they were.
    """
    if max_degree is not None and max_degree < 0:
        raise ContractViolation("max_degree must be nonnegative")
    top = complex_.dimension
    if top < 0:
        return HomologyGroups((), ())
    last = top if max_degree is None else min(top, max_degree)
    ranks = [0] * (last + 2)
    torsion: list[tuple[int, ...]] = [()] * (last + 1)
    cleared: set[int] = set()
    for k in range(last + 1):
        pivots, residual = unit_pivot_reduction(
            boundary_matrix(complex_, k + 1), cleared)
        factors = smith_normal_form(residual)
        ranks[k + 1] = len(pivots) + len(factors)
        torsion[k] = tuple(d for d in factors if d > 1)
        cleared = pivots
    betti = tuple(complex_.simplex_count(k) - ranks[k] - ranks[k + 1]
                  for k in range(last + 1))
    return HomologyGroups(betti, tuple(torsion))
