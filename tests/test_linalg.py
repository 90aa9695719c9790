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
    kernel = linalg.nullspace(a)
    assert len(kernel) == len(a[0]) - _sympy(a).rank()
    for v in kernel:
        assert all(x.is_zero() for x in linalg.mat_vec(a, v))


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
    for v in [inside] + units:
        x, residue = linalg.orthogonal_split(a, v)
        sx, sr, sv = _column(x), _column(residue), _column(v)
        assert _is_zero(s.H * sr)
        assert _is_zero(s * sx - (sv - sr))
        for k in s.nullspace():
            assert _is_zero(k.H * sx)
        outside += not _is_zero(sr)
        if v is inside:
            assert _is_zero(sr)
    assert (outside > 0) == (s.rank() < len(a))
