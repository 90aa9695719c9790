"""Dense exact linear algebra over the coefficient field.

Everything is row-major lists of Coefficients.  Pivoting takes the first
nonzero entry; divisions stay exact in the field, so no magnitude
heuristics are needed.  Systems here are small (invariant-form sectors),
so Gauss-Jordan without fraction-free tricks is fast enough.

Each entry of a matrix product is one Coefficient.sum_of_products over
its nonzero products, or zero when it has none.  Span selection reads
the pivot columns of one elimination, which are exactly the vectors a
greedy rank test would keep.  nullspace returns its free columns with its
basis, which reads there as the unit vectors.  solve_many solves for all
columns of a right-hand side in one elimination.  normal_systems is the
one place that forms Hermitian normal systems: it factors a matrix once
into its Moore-Penrose pseudo-inverse, from two eliminations whatever the
number of right-hand sides, and split_normal splits a vector against
that factorization with two matrix-vector products and no elimination.
Over the coefficient field both normal systems are consistent, so there
is no fallback.
"""

from __future__ import annotations

from .coefficients import Coefficient

Vector = list[Coefficient]
Matrix = list[Vector]


class SingularMatrix(ValueError):
    pass


def identity(n: int) -> Matrix:
    one, zero = Coefficient.one(), Coefficient.zero()
    return [[one if j == k else zero for k in range(n)] for j in range(n)]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [entry for (entry,) in _times_columns(a, [v])]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return _times_columns(a, zip(*b))


def _times_columns(a: Matrix, columns) -> Matrix:
    """The matrix of each row of a times each of the columns.  Rows and
    columns are read as their nonzero entries, so an entry with no nonzero
    product is zero at once, with no sum built."""
    zero = Coefficient.zero()
    rows = [{k: x for k, x in enumerate(row) if x} for row in a]
    cols = [[(k, x) for k, x in enumerate(col) if x] for col in columns]
    out = []
    for row in rows:
        entries = []
        for col in cols:
            pairs = [(row[k], x) for k, x in col if k in row]
            entries.append(Coefficient.sum_of_products(pairs) if pairs
                           else zero)
        out.append(entries)
    return out


def conj_transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [
        [a[i][j].conjugate() for i in range(len(a))]
        for j in range(len(a[0]))
    ]


def _eliminate(rows: Matrix, width: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form restricted to the first width columns."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    one = Coefficient.one()
    r = 0
    for col in range(width):
        pivot_row = None
        for i in range(r, len(mat)):
            if not mat[i][col].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = one / mat[r][col]
        mat[r] = [entry * inv if entry else entry for entry in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][col].is_zero():
                factor = -mat[i][col]
                mat[i] = [
                    Coefficient.sum_of_products(((entry, one), (factor, other)))
                    if other else entry
                    for entry, other in zip(mat[i], mat[r])
                ]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None when inconsistent."""
    x = solve_many(a, [[entry] for entry in b])
    return None if x is None else [row[0] for row in x]


def solve_many(a: Matrix, b: Matrix) -> Matrix | None:
    """One solution X of a X = b, or None when some column of b is
    inconsistent.  All columns ride on one elimination, whose row
    operations depend on a alone, so column k of X is solve(a, column k
    of b) exactly."""
    rows = len(a)
    cols = len(a[0]) if a else 0
    width = len(b[0]) if b else 0
    zero = Coefficient.zero()
    if rows == 0:
        return [[zero] * width for _ in range(cols)]
    aug = [list(row) + list(b_row) for row, b_row in zip(a, b)]
    mat, pivots = _eliminate(aug, cols)
    for i in range(len(pivots), rows):
        if not all(entry.is_zero() for entry in mat[i][cols:]):
            return None
    x = [[zero] * width for _ in range(cols)]
    for r, col in enumerate(pivots):
        x[col] = mat[r][cols:]
    return x


def nullspace(a: Matrix) -> tuple[list[Vector], list[int]]:
    """(basis, free): a basis of ker(a) and the free columns of a's
    elimination, one per basis vector.  Basis vector k is 1 at free[k] and
    0 at every other free column, so reading the free coordinates maps
    ker(a) isomorphically onto their space, the basis onto unit vectors."""
    cols = len(a[0]) if a else 0
    if cols == 0:
        return [], []
    mat, pivots = _eliminate(a, cols)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Coefficient.zero() for _ in range(cols)]
        v[f] = Coefficient.one()
        for r, col in enumerate(pivots):
            v[col] = -mat[r][f]
        basis.append(v)
    return basis, free


def invert(a: Matrix) -> Matrix:
    n = len(a)
    if any(len(row) != n for row in a):
        raise SingularMatrix("matrix must be square")
    inverse = solve_many(a, identity(n))
    if inverse is None:
        raise SingularMatrix("matrix is singular over the coefficient field")
    return inverse


def normal_systems(a: Matrix) -> tuple[Matrix, Matrix]:
    """(a, a+), with a+ the Moore-Penrose pseudo-inverse of a for the
    formal Hermitian pairing: what split_normal splits against, built once
    per matrix so that every right-hand side can reuse it.

    Y solves (a*a) Y = a*, so a Y projects onto the column span of a; Z
    solves (a a*) Z = a Y, and a+ = a* Z.  Each is one elimination over
    all its right-hand sides.  As solve is linear in its right-hand side,
    a+ v is the x that two normal solves would give for v, and
    a a+ = a Y."""
    if not a or not a[0]:
        return a, []
    star = conj_transpose(a)
    y = solve_many(mat_mul(star, a), star)
    if y is None:
        raise SingularMatrix("degenerate Hermitian pairing in a*a")
    z = solve_many(mat_mul(a, star), mat_mul(a, y))
    if z is None:
        raise SingularMatrix("degenerate Hermitian pairing in a a*")
    return a, mat_mul(star, z)


def split_normal(systems, v: Vector) -> tuple[Vector, Vector]:
    """Split v against the column span of the matrix a whose
    normal_systems (a, a+) are given, for the formal Hermitian pairing:
    returns (x, residue) with a* residue = 0 and x the solution of
    a x = v - residue orthogonal to ker(a).  x = a+ v and residue =
    v - a x, two matrix-vector products."""
    a, pinv = systems
    if not pinv:
        return [], list(v)
    x = mat_vec(pinv, v)
    return x, [b - c for b, c in zip(v, mat_vec(a, x))]


def coordinates_in_span(basis: list[Vector], v: Vector) -> Vector | None:
    """Coordinates of v in the given spanning set, or None if outside."""
    if not basis:
        return [] if all(entry.is_zero() for entry in v) else None
    cols = [list(col) for col in zip(*basis)]
    return solve(cols, v)


def pivot_columns(columns: list[Vector]) -> list[int]:
    """Indices of the columns outside the span of the columns before
    them, read off one elimination."""
    _, pivots = _eliminate(list(zip(*columns)), len(columns))
    return pivots
