"""Exact linear algebra over the coefficient field.

There is one vector format and one matrix format.  A vector is sparse: a
dict from index to nonzero entry (SparseVector), and a matrix is the list
of its columns, each such a vector, so a zero row takes no room and a
shape is read only where it is needed (transpose takes the row count).

The one elimination, _eliminate, runs on sparse rows.  Its pivot search
is a key test, normalizing the pivot row and updating a row touch only
the pivot row's nonzero entries, and an entry that cancels leaves its
row.  The pivot is the sparsest row with a nonzero entry in the column
(the first on a tie), which keeps fill-in down; the reduced row echelon
form is unique, so the rule changes no answer.  Divisions stay exact in
the field, so no magnitude heuristics are needed.

Each entry of a matrix-vector product is one Coefficient.sum_of_products
over its nonzero products; an entry with none is absent.  Span selection
reads the pivot columns of one elimination, which are exactly the vectors
a greedy rank test would keep.  kernel returns the free columns of one
elimination and builds a kernel vector only for a free column asked for.
solve_many solves for all columns of a right-hand side in one
elimination.  pseudo_inverse, the one place that forms Hermitian normal
systems, factors a matrix once into its Moore-Penrose pseudo-inverse
from its nonzero columns, and split_normal splits a vector against a
matrix and that pseudo-inverse with two matrix-vector products and no
elimination.  Over the coefficient field both normal systems are
consistent, so there is no fallback.
"""

from __future__ import annotations

from typing import Callable, TypeAlias

from .coefficients import Coefficient

# index -> entry, nonzero entries only; a matrix is a list of its columns
SparseVector: TypeAlias = dict[int, Coefficient]


class SingularMatrix(ValueError):
    pass


def identity(n: int) -> list[SparseVector]:
    one = Coefficient.one()
    return [{k: one} for k in range(n)]


def transpose(a: list[SparseVector], height: int) -> list[SparseVector]:
    """The columns of the transpose of a, whose rows number height: row i
    of a, empty when zero."""
    out: list[SparseVector] = [{} for _ in range(height)]
    for j, col in enumerate(a):
        for i, x in col.items():
            out[i][j] = x
    return out


def conjugate(a: list[SparseVector]) -> list[SparseVector]:
    return [{i: x.conjugate() for i, x in col.items()} for col in a]


def difference(u: SparseVector, v: SparseVector) -> SparseVector:
    """u - v, by index."""
    out = {}
    for k in sorted(u.keys() | v.keys()):
        if k not in v:
            out[k] = u[k]
        elif k not in u:
            out[k] = -v[k]
        elif value := u[k] - v[k]:
            out[k] = value
    return out


def _rows(columns: list[SparseVector]) -> list[SparseVector]:
    """The nonzero rows, in order, of the matrix with the given columns.
    A zero row is never a pivot row and no update touches it, so leaving
    it out changes neither pivots nor the reduced rows."""
    height = max((max(col) + 1 for col in columns if col), default=0)
    return [row for row in transpose(columns, height) if row]


def mat_vec(a: list[SparseVector], v: SparseVector) -> SparseVector:
    """a v, the entries of v times the columns of a.  The products are
    gathered by row, in the order of v's indices, and each row with one is
    one sum; a row with no nonzero product is absent, with no sum built.
    The entries come in index order."""
    products: dict[int, list] = {}
    for k in sorted(v):
        x = v[k]
        for i, entry in a[k].items():
            if i in products:
                products[i].append((entry, x))
            else:
                products[i] = [(entry, x)]
    out = {}
    for i in sorted(products):
        value = Coefficient.sum_of_products(products[i])
        if value:
            out[i] = value
    return out


def mat_mul(a: list[SparseVector],
            b: list[SparseVector]) -> list[SparseVector]:
    return [mat_vec(a, col) for col in b]


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
        # the sparsest row that can pivot, the first on a tie
        fewest = None
        for i in range(r, len(mat)):
            row = mat[i]
            if col in row and (fewest is None or len(row) < fewest):
                pivot_row, fewest = i, len(row)
        if fewest is None:
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


def solve(a: list[SparseVector], b: SparseVector) -> SparseVector | None:
    """One solution of a x = b, or None when inconsistent."""
    x = solve_many(a, [b])
    return None if x is None else x[0]


def solve_many(a: list[SparseVector],
               b: list[SparseVector]) -> list[SparseVector] | None:
    """One solution X of a X = b, or None when some column of b is
    inconsistent.  All columns ride on one elimination of [a | b], whose
    row operations depend on a alone, so column k of X is solve(a, column
    k of b) exactly: its entries at the pivot columns of a, zero at the
    free ones."""
    return _solve_many(a, b)[0]


def _solve_many(a: list[SparseVector], b: list[SparseVector]
                ) -> tuple[list[SparseVector] | None, list[int]]:
    """(solve_many(a, b), the pivot columns of a)."""
    cols = len(a)
    mat, pivots = _eliminate(_rows(a + b), cols)
    # past the rank a row is zero on a's columns: any entry left is b's
    if any(mat[len(pivots):]):
        return None, pivots
    x: list[SparseVector] = [{} for _ in b]
    for row, col in zip(mat, pivots):
        for k, value in row.items():
            if k >= cols:
                x[k - cols][col] = value
    return x, pivots


def kernel(columns: list[SparseVector]
           ) -> tuple[list[int], Callable[[int], SparseVector]]:
    """(free, vector) for the matrix with the given columns: the free
    columns of its elimination, and the basis vector of its kernel at a
    free column f, 1 at f, 0 at every other free column and minus the
    reduced column f at the pivot columns.  Reading the free coordinates
    maps the kernel isomorphically onto their space, the basis onto unit
    vectors.  A vector is built only when asked for."""
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


def invert(a: list[SparseVector]) -> list[SparseVector]:
    n = len(a)
    if any(i >= n for col in a for i in col):
        raise SingularMatrix("matrix must be square")
    inverse = solve_many(a, identity(n))
    if inverse is None:
        raise SingularMatrix("matrix is singular over the coefficient field")
    return inverse


def pseudo_inverse(a: list[SparseVector], height: int) -> list[SparseVector]:
    """a+, the Moore-Penrose pseudo-inverse of a, whose rows number
    height, for the formal Hermitian pairing: what split_normal splits
    against, built once per matrix so that every right-hand side can
    reuse it.

    Only the nonzero columns of a enter; a zero column gives a zero row
    of a+.  Y solves (a*a) Y = a*, so a Y projects onto the column span of
    a.  When those columns are independent, a*a is nonsingular and
    a+ = (a*a)^-1 a* = Y, from that one elimination.  Otherwise Z solves
    (a a*) Z = a Y, and a+ = a* Z.  Each is one elimination over all its
    right-hand sides.  As solve is linear in its right-hand side, a+ v is
    the x that the normal solves would give for v, and a a+ = a Y."""
    cols = [j for j, col in enumerate(a) if col]
    a = [a[j] for j in cols]
    star = transpose(conjugate(a), height)
    y, pivots = _solve_many(mat_mul(star, a), star)
    if y is None:
        raise SingularMatrix("degenerate Hermitian pairing in a*a")
    if len(pivots) < len(cols):
        z = solve_many(mat_mul(a, star), mat_mul(a, y))
        if z is None:
            raise SingularMatrix("degenerate Hermitian pairing in a a*")
        y = mat_mul(star, z)
    return [{cols[k]: x for k, x in col.items()} for col in y]


def split_normal(a: list[SparseVector], pinv: list[SparseVector],
                 v: SparseVector) -> tuple[SparseVector, SparseVector]:
    """Split v against the column span of a, whose pseudo_inverse is
    pinv, for the formal Hermitian pairing: returns (x, residue) with
    a* residue = 0 and x the solution of a x = v - residue orthogonal to
    ker(a).  x = a+ v and residue = v - a x, two matrix-vector
    products."""
    x = mat_vec(pinv, v)
    return x, difference(v, mat_vec(a, x))


def pivot_columns(columns: list[SparseVector]) -> list[int]:
    """Indices of the columns outside the span of the columns before
    them, read off one elimination."""
    _, pivots = _eliminate(_rows(columns), len(columns))
    return pivots
