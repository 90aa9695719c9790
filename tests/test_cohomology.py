"""Bott-Chern sectors against an independent rank count, and their cost.

In one sector, dim H_BC^{p,q} = N - rank(d) - rank(del dbar), where N is
the number of (p,q) monomials, d maps them into (p+1,q) + (p,q+1), and
del dbar maps the (p-1,q-1) monomials into (p,q): the closed forms are
the kernel of d, and the image of del dbar lies inside it.  The ranks are
taken by sympy from the scalar entries of both matrices, which sector 0
of these three entries has.

solve_dbar returns the minimum-norm primitive: on h3x dbar sends both
phi^{3bar} and phi^{4bar} to phi^{12bar}, whose minimum-norm primitive is
their average.
"""

from fractions import Fraction

import pytest
import sympy

from ihg import cohomology, linalg
from ihg.catalog import catalog
from ihg.cohomology import BottChernSector, monomial_basis, solve_dbar
from ihg.exterior import Form
from ihg.geometry import Geometry


def _rank(op, src, dst) -> int:
    if not src or not dst:
        return 0
    images = [op(Form.monomial(m.holo, m.anti)) for m in src]
    rows = []
    for t in dst:
        row = []
        for image in images:
            g = image.coeff(t.holo, t.anti).scalar()
            row.append(
                sympy.Rational(g.re.numerator, g.re.denominator)
                + sympy.I * sympy.Rational(g.im.numerator, g.im.denominator)
            )
        rows.append(row)
    return sympy.Matrix(rows).rank()


@pytest.mark.parametrize("name", ["iwasawa", "nakamura_3b", "solv4d"])
def test_dimension_matches_rank_count(name):
    g = catalog(name)
    n = g.n
    for p in range(n + 1):
        for q in range(n + 1):
            src = monomial_basis(n, p, q)
            targets = monomial_basis(n, p + 1, q) + monomial_basis(n, p, q + 1)
            expected = (
                len(src)
                - _rank(g.d, src, targets)
                - _rank(g.ddbar, monomial_basis(n, p - 1, q - 1), src)
            )
            assert BottChernSector(g, p, q).dimension == expected, (p, q)


def test_sector_cost(monkeypatch):
    # one d per (2,2) monomial, del and dbar per (1,1) monomial, one
    # elimination for the kernel and one for both spans, and each matrix
    # builds its target basis once
    g = catalog("solv4d")
    calls = {"d_split": 0, "eliminate": 0, "monomial_basis": 0}
    d_split, eliminate = Geometry.d_split, linalg._eliminate

    def counted_d_split(self, form):
        calls["d_split"] += 1
        return d_split(self, form)

    def counted_eliminate(rows, width):
        calls["eliminate"] += 1
        return eliminate(rows, width)

    def counted_monomial_basis(n, p, q):
        calls["monomial_basis"] += 1
        return monomial_basis(n, p, q)

    monkeypatch.setattr(Geometry, "d_split", counted_d_split)
    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    monkeypatch.setattr(cohomology, "monomial_basis", counted_monomial_basis)
    BottChernSector(g, 2, 2)
    assert calls["d_split"] == 68
    assert calls["eliminate"] == 2
    assert calls["monomial_basis"] <= 5


def test_solve_dbar_is_minimum_norm(h3x):
    rhs = Form.monomial((), (1, 2))
    beta = solve_dbar(h3x, rhs, 0, 1)
    half = Fraction(1, 2)
    assert beta == (Form.monomial((), (3,)) + Form.monomial((), (4,))) * half
    assert h3x.dbar(beta) == rhs
