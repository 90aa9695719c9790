"""Dense exact linear algebra, checked against sympy Matrix.

The matrices are small integer and Gaussian-integer matrices with planted
dependent columns, so pivots, ranks and kernels are known in advance and
sympy's exact rref and rank decide them independently.
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


def _matrix(rows) -> linalg.Matrix:
    return [[_coeff(z) for z in row] for row in rows]


def _columns(a: linalg.Matrix) -> list[linalg.Vector]:
    return [list(col) for col in zip(*a)]


def _sympy(a: linalg.Matrix) -> sympy.Matrix:
    def value(c):
        g = c.scalar()
        return sympy.Rational(g.re.numerator, g.re.denominator) + sympy.I * (
            sympy.Rational(g.im.numerator, g.im.denominator)
        )

    return sympy.Matrix([[value(c) for c in row] for row in a])


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
    _, pivots = _sympy(a).rref()
    assert linalg.pivot_columns(_columns(a)) == list(pivots)


@pytest.mark.parametrize("rows", [INTEGER, GAUSSIAN])
def test_pivot_columns_extend_an_independent_set(rows):
    vs = _columns(_matrix(rows))
    inside = vs[-2:]
    assert _sympy([list(r) for r in zip(*inside)]).rank() == 2
    ambient = vs[:-2]
    # the greedy oracle: keep a candidate when it raises sympy's rank
    expected, current = [], list(inside)
    for cand in ambient:
        trial = current + [cand]
        if _sympy([list(r) for r in zip(*trial)]).rank() > len(current):
            expected.append(cand)
            current = trial
    pivots = linalg.pivot_columns(inside + ambient)
    assert pivots[:len(inside)] == list(range(len(inside)))
    added = [ambient[c - len(inside)] for c in pivots[len(inside):]]
    assert added == expected
    everything = [list(r) for r in zip(*(inside + ambient))]
    assert len(added) == _sympy(everything).rank() - len(inside)


@pytest.mark.parametrize("rows", [INTEGER, GAUSSIAN])
def test_nullspace_is_annihilated_and_complete(rows):
    a = _matrix(rows)
    kernel, free = linalg.nullspace(a)
    assert len(kernel) == len(a[0]) - _sympy(a).rank()
    for v in kernel:
        assert all(x.is_zero() for x in linalg.mat_vec(a, v))
    # the free coordinates of the basis are the unit vectors
    assert [[v[f] for f in free] for v in kernel] == linalg.identity(len(free))


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
    assert linalg.solve(a, [_coeff(1), _coeff(3)]) is None
    x = linalg.solve(a, [_coeff(1), _coeff(2)])
    assert linalg.mat_vec(a, x) == [_coeff(1), _coeff(2)]


def _column(v: linalg.Vector) -> sympy.Matrix:
    return _sympy([v]).T


def _is_zero(m: sympy.Matrix) -> bool:
    return all(sympy.expand(e) == 0 for e in m)


@pytest.mark.parametrize("rows", [INTEGER, GAUSSIAN, [[1, 1]]])
@pytest.mark.parametrize("transpose", [False, True])
def test_orthogonal_split(rows, transpose):
    a = _matrix(rows)
    if transpose:
        a = [list(r) for r in zip(*a)]
    s = _sympy(a)
    ncols = len(a[0])
    # a vector in the column span, and every unit vector: when the rank is
    # below the row count some unit vector lies outside the span
    coeffs = [_coeff(k + 1 + (k % 2) * 1j) for k in range(ncols)]
    inside = linalg.mat_vec(a, coeffs)
    units = [
        [_coeff(int(i == k)) for i in range(len(a))] for k in range(len(a))
    ]
    outside = 0
    systems = linalg.normal_systems(a)
    for v in [inside] + units:
        x, residue = linalg.split_normal(systems, v)
        sx, sr, sv = _column(x), _column(residue), _column(v)
        assert _is_zero(s.H * sr)
        assert _is_zero(s * sx - (sv - sr))
        for k in s.nullspace():
            assert _is_zero(k.H * sx)
        outside += not _is_zero(sr)
        if v is inside:
            assert _is_zero(sr)
    assert (outside > 0) == (s.rank() < len(a))


def _pinv(a: linalg.Matrix) -> linalg.Matrix:
    got, pinv = linalg.normal_systems(a)
    assert got is a
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
    assert _is_zero(_sympy(_pinv(a)) - _sympy(a).pinv())


def test_pseudo_inverse_penrose_identities():
    # rank 2 over Q(i)(t, conj t): row 1 - conj(t) row 0 = row 2
    registry.ensure_pair("t")
    t = Coefficient.symbol("t")
    tc = t.conjugate()
    one, zero, c = Coefficient.one(), Coefficient.zero(), _coeff(1 + 1j)
    a = [[one, t, zero], [tc, t * tc, c], [zero, zero, c]]
    p = _pinv(a)
    mul, star = linalg.mat_mul, linalg.conj_transpose
    assert mul(mul(a, p), a) == a
    assert mul(mul(p, a), p) == p
    assert star(mul(a, p)) == mul(a, p)
    assert star(mul(p, a)) == mul(p, a)


def test_split_normal_makes_no_elimination(monkeypatch):
    a = _matrix(GAUSSIAN)
    systems = linalg.normal_systems(a)
    v = [_coeff(1), _coeff(2j), _coeff(-3)]
    x, residue = linalg.split_normal(systems, v)
    assert linalg.mat_vec(a, x) == [b - r for b, r in zip(v, residue)]
    calls = []
    eliminate = linalg._eliminate

    def counted(rows, width):
        calls.append(width)
        return eliminate(rows, width)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert linalg.split_normal(systems, v) == (x, residue)
    assert calls == []


def test_solve_many_is_solve_per_column():
    # INTEGER has rank 3, so take right-hand sides inside its column span
    a = _matrix(INTEGER)
    b = linalg.mat_mul(a, _matrix([[k + j * 1j for j in range(3)]
                                   for k in range(7)]))
    x = linalg.solve_many(a, b)
    assert linalg.mat_mul(a, x) == b
    for k, col in enumerate(zip(*b)):
        assert [row[k] for row in x] == linalg.solve(a, list(col))
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
    # only (0, 1) and (1, 0) have a nonzero product, and only those sum
    assert [len(pairs) for pairs in sums] == [1, 2]
    sums.clear()
    v = [_coeff(0), _coeff(0), _coeff(5)]
    assert linalg.mat_vec(a, v) == [_coeff(0), _coeff(5j), _coeff(0)]
    assert [len(pairs) for pairs in sums] == [1]
