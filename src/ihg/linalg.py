"""Exact linear algebra over the coefficient field.

Public matrices are row-major lists of Coefficients, but the one
elimination, _eliminate, runs on sparse rows: a dict from column index to
nonzero entry.  Its pivot search is a key test, normalizing the pivot row
and updating a row touch only the pivot row's nonzero entries, and an
entry that cancels leaves its row.  Pivoting takes the first row with a
nonzero entry in the column; divisions stay exact in the field, so no
magnitude heuristics are needed.  Systems here are small (invariant-form
sectors), so Gauss-Jordan without fraction-free tricks is fast enough.
Dense arguments are made sparse at the edge (sparse), and dense results
are filled from sparse ones with one shared zero (dense).

Each entry of a matrix product is one Coefficient.sum_of_products over
its nonzero products, or zero when it has none.  Span selection reads
the pivot columns of one elimination, which are exactly the vectors a
greedy rank test would keep.  kernel returns the free columns of one
elimination and builds a kernel vector, sparse, only for a free column
asked for; nullspace is its dense view, whose basis reads as the unit
vectors on the free columns.  solve_many solves for all
columns of a right-hand side in one elimination.  normal_systems is the
one place that forms Hermitian normal systems: it factors a matrix once
into its Moore-Penrose pseudo-inverse, from two eliminations whatever the
number of right-hand sides, and split_normal splits a vector against
that factorization with two matrix-vector products and no elimination.
Over the coefficient field both normal systems are consistent, so there
is no fallback.
"""

from __future__ import annotations

from typing import Callable

from .coefficients import Coefficient

Vector = list[Coefficient]
Matrix = list[Vector]
# index -> entry, nonzero entries only
SparseVector = dict[int, Coefficient]


class SingularMatrix(ValueError):
    pass


def identity(n: int) -> Matrix:
    one, zero = Coefficient.one(), Coefficient.zero()
    return [[one if j == k else zero for k in range(n)] for j in range(n)]


def sparse(v: Vector | SparseVector) -> SparseVector:
    """The nonzero entries of v by index; a sparse v is returned as is."""
    if isinstance(v, dict):
        return v
    return {k: x for k, x in enumerate(v) if x}


def dense(v: SparseVector, length: int) -> Vector:
    """v as a list of the given length, every absent entry one shared
    zero."""
    out = [Coefficient.zero()] * length
    for k, x in v.items():
        out[k] = x
    return out


def _rows(columns) -> list[SparseVector]:
    """The nonzero rows, in order, of the matrix with the given dense or
    sparse columns.  A zero row is never a pivot row and no update
    touches it, so leaving it out changes neither pivots nor the reduced
    rows."""
    rows: dict[int, SparseVector] = {}
    for j, col in enumerate(columns):
        for i, x in sparse(col).items():
            if i in rows:
                rows[i][j] = x
            else:
                rows[i] = {j: x}
    return [rows[i] for i in sorted(rows)]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [entry for (entry,) in _times_columns(a, [v])]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return _times_columns(a, zip(*b))


def _times_columns(a: Matrix, columns) -> Matrix:
    """The matrix of each row of a times each of the columns.  Rows and
    columns are read as their nonzero entries, so an entry with no nonzero
    product is zero at once, with no sum built."""
    zero = Coefficient.zero()
    rows = [sparse(row) for row in a]
    cols = [list(sparse(col).items()) for col in columns]
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


def _eliminate(rows: list[SparseVector],
               width: int) -> tuple[list[SparseVector], list[int]]:
    """Reduced row echelon form of sparse rows, restricted to the first
    width columns.  The rows given are not changed."""
    mat = list(rows)
    pivots: list[int] = []
    one = Coefficient.one()
    sum_of_products = Coefficient.sum_of_products
    r = 0
    for col in range(width):
        for pivot_row in range(r, len(mat)):
            if col in mat[pivot_row]:
                break
        else:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = one / mat[r][col]
        # the pivot entry becomes one, and cancels from every updated row
        rest = [(k, x * inv) for k, x in mat[r].items() if k != col]
        mat[r] = dict(rest)
        mat[r][col] = one
        for i, row in enumerate(mat):
            factor = row.get(col)
            if factor is None or i == r:
                continue
            factor = -factor
            row = dict(row)
            del row[col]
            for k, x in rest:
                entry = row.get(k)
                value = sum_of_products(((factor, x),) if entry is None
                                        else ((entry, one), (factor, x)))
                if value:
                    row[k] = value
                else:
                    del row[k]
            mat[i] = row
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
    aug = [sparse(list(row) + list(b_row)) for row, b_row in zip(a, b)]
    mat, pivots = _eliminate(aug, cols)
    # past the rank a row is zero on a's columns: any entry left is b's
    if any(mat[len(pivots):]):
        return None
    x = [[zero] * width for _ in range(cols)]
    for r, col in enumerate(pivots):
        x[col] = [mat[r].get(cols + k, zero) for k in range(width)]
    return x


def kernel(columns) -> tuple[list[int], Callable[[int], SparseVector]]:
    """(free, vector) for the matrix with the given dense or sparse
    columns: the free columns of its elimination, and the sparse basis
    vector of its kernel at a free column f, 1 at f, 0 at every other
    free column and minus the reduced column f at the pivot columns.
    Reading the free coordinates maps the kernel isomorphically onto
    their space, the basis onto unit vectors.  A vector is built only
    when asked for."""
    mat, pivots = _eliminate(_rows(columns), len(columns))
    pivot_set = set(pivots)
    free = [c for c in range(len(columns)) if c not in pivot_set]
    one = Coefficient.one()

    def vector(f: int) -> SparseVector:
        v = {f: one}
        for row, col in zip(mat, pivots):
            x = row.get(f)
            if x is not None:
                v[col] = -x
        return v

    return free, vector


def nullspace(a: Matrix) -> tuple[list[Vector], list[int]]:
    """(basis, free): kernel of the matrix a with its basis dense."""
    cols = len(a[0]) if a else 0
    free, vector = kernel(list(zip(*a)))
    return [dense(vector(f), cols) for f in free], free


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


def pivot_columns(columns) -> list[int]:
    """Indices of the dense or sparse columns outside the span of the
    columns before them, read off one elimination."""
    _, pivots = _eliminate(_rows(columns), len(columns))
    return pivots
