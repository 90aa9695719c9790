"""Dense exact linear algebra over the coefficient field.

Everything is row-major lists of Coefficients.  Pivoting takes the first
nonzero entry; divisions stay exact in the field, so no magnitude
heuristics are needed.  Systems here are small (invariant-form sectors),
so Gauss-Jordan without fraction-free tricks is fast enough.

Each entry of a matrix product is one Coefficient.sum_of_products.  Span
selection reads the pivot columns of one elimination, which are exactly
the vectors a greedy rank test would keep.  normal_systems is the one
place that forms Hermitian normal systems and split_normal, which
orthogonal_split wraps, the one that solves them; a caller can build the
systems once and split many right-hand sides.  Over the coefficient field
both systems are consistent, so there is no fallback.
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
    return [Coefficient.sum_of_products(zip(row, v)) for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return [
        [Coefficient.sum_of_products(zip(row, col)) for col in cols]
        for row in a
    ]


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
        inv = Coefficient.one() / mat[r][col]
        mat[r] = [entry * inv for entry in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][col].is_zero():
                factor = mat[i][col]
                mat[i] = [
                    entry - factor * other
                    for entry, other in zip(mat[i], mat[r])
                ]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None when inconsistent."""
    rows = len(a)
    cols = len(a[0]) if a else 0
    if rows == 0:
        return [Coefficient.zero() for _ in range(cols)]
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    mat, pivots = _eliminate(aug, cols)
    for i in range(len(pivots), rows):
        if not mat[i][cols].is_zero():
            return None
    x = [Coefficient.zero() for _ in range(cols)]
    for r, col in enumerate(pivots):
        x[col] = mat[r][cols]
    return x


def nullspace(a: Matrix) -> list[Vector]:
    cols = len(a[0]) if a else 0
    if cols == 0:
        return []
    mat, pivots = _eliminate(a, cols)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Coefficient.zero() for _ in range(cols)]
        v[f] = Coefficient.one()
        for r, col in enumerate(pivots):
            v[col] = -mat[r][f]
        basis.append(v)
    return basis


def invert(a: Matrix) -> Matrix:
    n = len(a)
    if any(len(row) != n for row in a):
        raise SingularMatrix("matrix must be square")
    aug = [list(row) + ident_row for row, ident_row in zip(a, identity(n))]
    mat, pivots = _eliminate(aug, n)
    if len(pivots) != n:
        raise SingularMatrix("matrix is singular over the coefficient field")
    return [row[n:] for row in mat]


def normal_systems(a: Matrix) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """(a, a*, a*a, a a*): what split_normal solves against, built once
    per matrix so that every right-hand side can reuse them."""
    star = conj_transpose(a)
    return a, star, mat_mul(star, a), mat_mul(a, star)


def split_normal(systems, v: Vector) -> tuple[Vector, Vector]:
    """orthogonal_split of v against the matrix whose normal_systems are
    given."""
    a, star, gram, cogram = systems
    if not a or not a[0]:
        return [], list(v)
    y = solve(gram, mat_vec(star, v))
    if y is None:
        raise SingularMatrix("degenerate Hermitian pairing in a*a")
    projection = mat_vec(a, y)
    z = solve(cogram, projection)
    if z is None:
        raise SingularMatrix("degenerate Hermitian pairing in a a*")
    residue = [b - c for b, c in zip(v, projection)]
    return mat_vec(star, z), residue


def orthogonal_split(a: Matrix, v: Vector) -> tuple[Vector, Vector]:
    """Split v against the column span of a for the formal Hermitian
    pairing: returns (x, residue) with a* residue = 0 and x the solution of
    a x = v - residue orthogonal to ker(a).

    One solve in a*a gives the projection a y of v, one in a a* gives
    x = a* z with (a a*) z = a y.  Over the coefficient field the pairing
    is anisotropic, so both normal systems are consistent; an inconsistent
    one is a fault and raises SingularMatrix.  This wraps split_normal;
    cohomology.split_primitive keeps each sector's normal_systems in a
    table per geometry and calls split_normal directly, so a sector matrix
    and its two products are built once however many vectors it splits.
    """
    return split_normal(normal_systems(a), v)


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
