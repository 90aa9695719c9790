"""Exact linear algebra, checked against sympy Matrix.

The matrices are small integer and Gaussian-integer matrices with planted
dependent columns, so pivots, ranks and kernels are known in advance and
sympy's exact rref and rank decide them independently.  A vector is a
sparse dict and a matrix the list of its columns; the elimination runs on
sparse rows.  One matrix plants an entry that a row update creates and a
later update cancels, and one has parameter entries.
"""

from fractions import Fraction

import pytest
import sympy

from ihg import linalg
from ihg.coefficients import Coefficient, GaussianRational
from ihg.symbols import registry


def _coeff(z) -> Coefficient:
    z = complex(z)
    return Coefficient.from_scalar(
        GaussianRational(Fraction(int(z.real)), Fraction(int(z.imag)))
    )


def _vector(entries) -> linalg.SparseVector:
    """The nonzero entries, Coefficients or Gaussian integers, by index."""
    return {
        k: z if isinstance(z, Coefficient) else _coeff(z)
        for k, z in enumerate(entries) if z
    }


def _matrix(rows) -> list[linalg.SparseVector]:
    """The columns of the matrix with the given rows."""
    return [_vector(col) for col in zip(*rows)]


def _dense(v: linalg.SparseVector, length: int) -> list[Coefficient]:
    return [v.get(k, Coefficient.zero()) for k in range(length)]


def _sympy(a: list[linalg.SparseVector], height: int) -> sympy.Matrix:
    """The sympy matrix with the given columns and height rows."""
    def value(c):
        g = c.scalar()
        return sympy.Rational(g.re.numerator, g.re.denominator) + sympy.I * (
            sympy.Rational(g.im.numerator, g.im.denominator)
        )

    return sympy.Matrix([[value(c) for c in _dense(col, height)]
                         for col in a]).T


# columns: c0, c1, c2 = c0 + 2*c1, zero, c4, c5 = c4 - c0, c6 = 3*c2
INTEGER = [
    [1, 0, 1, 0, 2, 1, 3],
    [2, 1, 4, 0, 0, -2, 12],
    [0, 3, 6, 0, 1, 1, 18],
    [1, -1, -1, 0, 5, 4, -3],
]

# columns: g0, g1 = i*g0, g2, g3 = (1+i)*g0 - g2, g4
GAUSSIAN = [
    [1 + 1j, -1 + 1j, 2, -2 + 2j, 1],
    [1j, -1, 1 - 1j, -2 + 2j, 0],
    [0, 0, 1j, -1j, 1j],
]


@pytest.mark.parametrize("rows", [INTEGER, GAUSSIAN])
def test_pivot_columns_are_rref_pivots(rows):
    a = _matrix(rows)
    _, pivots = _sympy(a, len(rows)).rref()
    assert linalg.pivot_columns(a) == list(pivots)


@pytest.mark.parametrize("rows", [INTEGER, GAUSSIAN])
def test_pivot_columns_extend_an_independent_set(rows):
    vs = _matrix(rows)
    height = len(rows)
    inside = vs[-2:]
    assert _sympy(inside, height).rank() == 2
    ambient = vs[:-2]
    # the greedy oracle: keep a candidate when it raises sympy's rank
    expected, current = [], list(inside)
    for cand in ambient:
        trial = current + [cand]
        if _sympy(trial, height).rank() > len(current):
            expected.append(cand)
            current = trial
    pivots = linalg.pivot_columns(inside + ambient)
    assert pivots[:len(inside)] == list(range(len(inside)))
    added = [ambient[c - len(inside)] for c in pivots[len(inside):]]
    assert added == expected
    everything = inside + ambient
    assert len(added) == _sympy(everything, height).rank() - len(inside)


@pytest.mark.parametrize("rows", [INTEGER, GAUSSIAN])
def test_nullspace_is_annihilated_and_complete(rows):
    a = _matrix(rows)
    free, vector = linalg.kernel(a)
    kernel = [vector(f) for f in free]
    assert len(kernel) == len(a) - _sympy(a, len(rows)).rank()
    for v in kernel:
        assert linalg.mat_vec(a, v) == {}
    # the free coordinates of the basis are the unit vectors
    one = Coefficient.one()
    for f, v in zip(free, kernel):
        assert {g: v[g] for g in free if g in v} == {f: one}


def test_invert_round_trips():
    a = _matrix([[2, 1j, 0], [1, 1, 1 + 1j], [0, 3, 1]])
    inverse = linalg.invert(a)
    assert linalg.mat_mul(a, inverse) == linalg.identity(3)
    assert linalg.mat_mul(inverse, a) == linalg.identity(3)


def test_invert_rejects_singular():
    # third row is the sum of the first two
    a = _matrix([[1, 2, 0], [0, 1j, 1], [1, 2 + 1j, 1]])
    with pytest.raises(linalg.SingularMatrix):
        linalg.invert(a)


def test_solve_inconsistent_is_none():
    a = _matrix([[1, 2], [2, 4]])
    assert linalg.solve(a, _vector([1, 3])) is None
    x = linalg.solve(a, _vector([1, 2]))
    assert linalg.mat_vec(a, x) == _vector([1, 2])


def _column(v: linalg.SparseVector, length: int) -> sympy.Matrix:
    return _sympy([v], length)


def _is_zero(m: sympy.Matrix) -> bool:
    return all(sympy.expand(e) == 0 for e in m)


@pytest.mark.parametrize("rows", [INTEGER, GAUSSIAN, [[1, 1]]])
@pytest.mark.parametrize("transpose", [False, True])
def test_orthogonal_split(rows, transpose):
    if transpose:
        rows = [list(r) for r in zip(*rows)]
    a = _matrix(rows)
    height = len(rows)
    s = _sympy(a, height)
    ncols = len(a)
    # a vector in the column span, and every unit vector: when the rank is
    # below the row count some unit vector lies outside the span
    coeffs = _vector([k + 1 + (k % 2) * 1j for k in range(ncols)])
    inside = linalg.mat_vec(a, coeffs)
    units = [{k: _coeff(1)} for k in range(height)]
    outside = 0
    pinv = linalg.pseudo_inverse(a, height)
    for v in [inside] + units:
        x, residue = linalg.split_normal(a, pinv, v)
        sx, sr = _column(x, ncols), _column(residue, height)
        sv = _column(v, height)
        assert _is_zero(s.H * sr)
        assert _is_zero(s * sx - (sv - sr))
        for k in s.nullspace():
            assert _is_zero(k.H * sx)
        outside += not _is_zero(sr)
        if v is inside:
            assert _is_zero(sr)
    assert (outside > 0) == (s.rank() < height)


def _pinv(a: list[linalg.SparseVector],
          height: int) -> list[linalg.SparseVector]:
    pinv = linalg.pseudo_inverse(a, height)
    assert len(pinv) == height
    return pinv


@pytest.mark.parametrize("rows", [
    [[1, 2j], [1 + 1j, 3]],  # full rank, square
    [[1, 0, 1j], [0, 1 - 1j, 2]],  # full rank, wide
    [[1, 0], [2j, 1], [0, 1 + 1j]],  # full rank, tall
    INTEGER,  # rank deficient, wide
    GAUSSIAN,  # rank deficient, wide
    [list(col) for col in zip(*GAUSSIAN)],  # rank deficient, tall
])
def test_pseudo_inverse_is_sympy_pinv(rows):
    a = _matrix(rows)
    pinv = _pinv(a, len(rows))
    assert _is_zero(_sympy(pinv, len(a)) - _sympy(a, len(rows)).pinv())


def test_pseudo_inverse_penrose_identities():
    # rank 2 over Q(i)(t, conj t): row 1 - conj(t) row 0 = row 2
    registry.ensure_pair("t")
    t = Coefficient.symbol("t")
    tc = t.conjugate()
    one, zero, c = Coefficient.one(), Coefficient.zero(), _coeff(1 + 1j)
    a = _matrix([[one, t, zero], [tc, t * tc, c], [zero, zero, c]])
    p = _pinv(a, 3)
    mul = linalg.mat_mul

    def star(m):
        return linalg.transpose(linalg.conjugate(m), 3)

    assert mul(mul(a, p), a) == a
    assert mul(mul(p, a), p) == p
    assert star(mul(a, p)) == mul(a, p)
    assert star(mul(p, a)) == mul(p, a)


def _q(re, im=0) -> Coefficient:
    return Coefficient.from_scalar(GaussianRational(Fraction(re), Fraction(im)))


def _penrose_cases():
    """(rows, whether the nonzero columns are independent): sparse
    Gaussian-rational matrices with zero columns, with dependent columns
    and with full column rank, a zero matrix, and one parametric matrix."""
    registry.ensure_pair("t")
    h, z = Fraction(1, 2), 0
    yield [[_q(h), z, z], [z, z, z], [z, z, z]], True
    yield [[_q(h), z, z, z], [z, z, _q(Fraction(1, 3), -1), z],
           [_q(0, h), z, z, z]], True
    # column 2 is twice column 0, and column 1 is zero
    yield [[_q(h), z, _q(1), z], [_q(0, Fraction(1, 3)), z,
                                  _q(0, Fraction(2, 3)), z],
           [z, z, z, _q(Fraction(5, 4))]], False
    yield [[_q(h), z, z], [z, _q(1, h), z], [z, z, _q(3)],
           [_q(2), z, _q(0, Fraction(-1, 5))], [z, z, z], [z, _q(h), z]], True
    yield [[z, z], [z, z], [z, z]], True
    t = Coefficient.symbol("t")
    yield [[t, z], [_q(1), _q(1, 1)], [z, t.conjugate()]], True


@pytest.mark.parametrize("case", range(6))
def test_pseudo_inverse_is_the_moore_penrose_inverse(case, monkeypatch):
    # the four Penrose identities decide a+ exactly, whatever formula
    # built it; one elimination when the nonzero columns are independent
    rows, independent = list(_penrose_cases())[case]
    height = len(rows)
    a = _matrix(rows)
    calls = []
    eliminate = linalg._eliminate

    def counted(rows, width):
        calls.append(width)
        return eliminate(rows, width)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    p = _pinv(a, height)
    assert len(calls) == (1 if independent else 2)
    mul = linalg.mat_mul

    def star(m, m_height):
        return linalg.transpose(linalg.conjugate(m), m_height)

    assert mul(mul(a, p), a) == a
    assert mul(mul(p, a), p) == p
    assert star(mul(a, p), height) == mul(a, p)
    assert star(mul(p, a), len(a)) == mul(p, a)


def test_split_normal_makes_no_elimination(monkeypatch):
    a = _matrix(GAUSSIAN)
    pinv = linalg.pseudo_inverse(a, len(GAUSSIAN))
    v = _vector([1, 2j, -3])
    x, residue = linalg.split_normal(a, pinv, v)
    assert linalg.mat_vec(a, x) == linalg.difference(v, residue)
    calls = []
    eliminate = linalg._eliminate

    def counted(rows, width):
        calls.append(width)
        return eliminate(rows, width)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert linalg.split_normal(a, pinv, v) == (x, residue)
    assert calls == []


def test_solve_many_is_solve_per_column():
    # INTEGER has rank 3, so take right-hand sides inside its column span
    a = _matrix(INTEGER)
    b = linalg.mat_mul(a, _matrix([[k + j * 1j for j in range(3)]
                                   for k in range(7)]))
    x = linalg.solve_many(a, b)
    assert linalg.mat_mul(a, x) == b
    for k, col in enumerate(b):
        assert x[k] == linalg.solve(a, col)
    assert linalg.solve_many(_matrix([[1, 2], [2, 4]]),
                             _matrix([[1, 1], [2, 3]])) is None


def test_a_product_entry_with_no_nonzero_product_builds_no_sum(monkeypatch):
    a = _matrix([[1, 0, 0], [0, 2, 1j], [0, 0, 0]])
    b = _matrix([[0, 3], [1, 0], [1j, 0]])
    sums = []
    sum_of_products = Coefficient.sum_of_products

    def counted(pairs):
        sums.append(pairs)
        return sum_of_products(pairs)

    monkeypatch.setattr(Coefficient, "sum_of_products", staticmethod(counted))
    assert linalg.mat_mul(a, b) == _matrix([[0, 3], [1, 0], [0, 0]])
    # only (1, 0) and (0, 1) have a nonzero product, and only those sum,
    # column by column
    assert [len(pairs) for pairs in sums] == [2, 1]
    sums.clear()
    v = _vector([0, 0, 5])
    assert linalg.mat_vec(a, v) == _vector([0, 5j, 0])
    assert [len(pairs) for pairs in sums] == [1]


# rows: the update of row 2 by row 0 creates its entry in column 2
# (0 - 2i * i = 2), and the update by row 1, normalized to
# (0, 1, 1 - i, 0), cancels it: 2 - (1 + i)(1 - i) = 0
FILL_AND_CANCEL = [
    [1, 0, 1j, 0],
    [0, 1 + 1j, 2, 0],
    [2j, 1 + 1j, 0, 3],
    [0, 0, 0, 0],
]


def test_an_entry_that_cancels_leaves_its_row():
    a = _matrix(FILL_AND_CANCEL)
    rows = [_vector(row) for row in FILL_AND_CANCEL]
    assert 2 not in rows[2]
    mat, pivots = linalg._eliminate(rows, 2)
    assert pivots == [0, 1]
    assert mat[2] == {3: _coeff(3)}
    # the rows given are left as they were
    assert rows == [_vector(row) for row in FILL_AND_CANCEL]
    mat, pivots = linalg._eliminate(rows, 4)
    rref, sympy_pivots = _sympy(a, 4).rref()
    assert pivots == list(sympy_pivots)
    assert len(pivots) == _sympy(a, 4).rank()
    # the rows of mat are the columns of its transpose
    assert _sympy(mat, 4).T == rref
    # only nonzero entries are held
    assert all(x for row in mat for x in row.values())


# rows: the first is dense, and each column also has a one-entry row
DENSE_FIRST = [
    [1, 2, 1j, 3],
    [1, 0, 0, 0],
    [0, 1 + 1j, 0, 0],
    [0, 0, 2, 0],
    [0, 0, 0, 1j],
]


def test_the_sparsest_row_pivots(monkeypatch):
    # each column pivots on its one-entry row, so no update has a product
    # to sum; with the dense first row as the pivot of column 0, every
    # other row would fill in, 9 sums in all
    a = _matrix(DENSE_FIRST)
    rows = [_vector(row) for row in DENSE_FIRST]
    sums = []
    sum_of_products = Coefficient.sum_of_products

    def counted(pairs):
        sums.append(pairs)
        return sum_of_products(pairs)

    monkeypatch.setattr(Coefficient, "sum_of_products", staticmethod(counted))
    mat, pivots = linalg._eliminate(rows, 4)
    assert sums == []
    monkeypatch.undo()
    rref, sympy_pivots = _sympy(a, 5).rref()
    assert pivots == list(sympy_pivots)
    assert _sympy(mat, 4).T == rref


def _parametric(a, ac, b, one, zero):
    """Rows over a, conj(a) and b, built alike from Coefficients and from
    sympy symbols: row 2 = row 0 + conj(a) * row 1 - a * b * row 3, so
    the rank is 3."""
    r0 = [a, one, zero, zero, a * b]
    r1 = [zero, ac, zero, a * b, zero]
    r3 = [zero, zero, ac, zero, one]
    r2 = [x + ac * y - a * b * z for x, y, z in zip(r0, r1, r3)]
    return [r0, r1, r2, r3]


_PARAMETERS = ("a", "b", "c")
_POINTS = [
    {"a": GaussianRational(Fraction(2), Fraction(1)),
     "b": GaussianRational(Fraction(3, 2), Fraction(-1)),
     "c": GaussianRational(Fraction(-1), Fraction(2))},
    {"a": GaussianRational(Fraction(-1, 3), Fraction(5)),
     "b": GaussianRational(Fraction(4), Fraction(1, 2)),
     "c": GaussianRational(Fraction(1, 5), Fraction(-3))},
]


def _symbols():
    for name in _PARAMETERS:
        registry.ensure_pair(name)
    coeffs = {nm: Coefficient.symbol(nm) for nm in _PARAMETERS}
    syms = {nm: sympy.Symbol(nm) for nm in _PARAMETERS}
    syms.update({f"{nm}_c": sympy.Symbol(f"{nm}_c") for nm in _PARAMETERS})
    return coeffs, syms


def _agree(ours: list[Coefficient], theirs) -> bool:
    """Exact agreement of Coefficients with sympy expressions at every
    point of _POINTS, conj(x) taking the conjugate value."""
    for point in _POINTS:
        values = {}
        for nm, g in point.items():
            z = sympy.Rational(g.re.numerator, g.re.denominator) \
                + sympy.I * sympy.Rational(g.im.numerator, g.im.denominator)
            values[sympy.Symbol(nm)] = z
            values[sympy.Symbol(f"{nm}_c")] = sympy.conjugate(z)
        for c, e in zip(ours, theirs, strict=True):
            g = c.substitute(point).scalar()
            z = sympy.Rational(g.re.numerator, g.re.denominator) \
                + sympy.I * sympy.Rational(g.im.numerator, g.im.denominator)
            if sympy.simplify(sympy.sympify(e).subs(values) - z) != 0:
                return False
    return True


def _parametric_pair():
    coeffs, syms = _symbols()
    a = coeffs["a"]
    ours = _matrix(_parametric(a, a.conjugate(), coeffs["b"],
                               Coefficient.one(), Coefficient.zero()))
    s = sympy.Matrix(_parametric(syms["a"], syms["a_c"], syms["b"],
                                 sympy.Integer(1), sympy.Integer(0)))
    return ours, s, coeffs, syms


def test_parametric_pivots_and_kernel_match_sympy():
    a, s, _, _ = _parametric_pair()
    _, pivots = s.rref()
    assert linalg.pivot_columns(a) == list(pivots)
    assert len(pivots) == s.rank() == 3
    free, vector = linalg.kernel(a)
    want = s.nullspace()
    assert len(free) == len(want) == 2
    for f, w in zip(free, want):
        v = vector(f)
        assert linalg.mat_vec(a, v) == {}
        assert _agree(_dense(v, 5), list(w))


def test_parametric_solve_many_matches_sympy():
    a, s, coeffs, syms = _parametric_pair()
    one, zero = Coefficient.one(), Coefficient.zero()

    def right_hand_sides(c, cc, one, zero, i):
        return [[c, one], [zero, cc], [c * c, zero], [one, i], [zero, c]]

    x0 = _matrix(right_hand_sides(coeffs["c"], coeffs["c"].conjugate(), one,
                                  zero, Coefficient.i()))
    b = linalg.mat_mul(a, x0)
    sb = s * sympy.Matrix(right_hand_sides(
        syms["c"], syms["c_c"], sympy.Integer(1), sympy.Integer(0), sympy.I))
    x = linalg.solve_many(a, b)
    assert linalg.mat_mul(a, x) == b
    for k, col in enumerate(b):
        assert x[k] == linalg.solve(a, col)
        # sympy's solution with its free parameters set to zero
        sol, params = s.gauss_jordan_solve(sb[:, k])
        assert _agree(_dense(x[k], 5), list(sol.subs({t: 0 for t in params})))
    # a right-hand side outside the column span of a rank-3 matrix
    unit = [{2: one}]
    assert s.row_join(sympy.Matrix([0, 0, 1, 0])).rank() == 4
    assert linalg.solve_many(a, unit) is None
