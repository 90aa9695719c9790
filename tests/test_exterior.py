"""Exterior algebra laws: signs, contractions, conjugation, substitutions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihg import Coefficient
from ihg.exterior import (
    CoframeMap,
    Form,
    MultiIndex,
    VectorForm,
    sort_signed,
    wedge,
)
from ihg.symbols import registry


def coeffs():
    registry.ensure_pair("t")
    t = Coefficient.symbol("t")
    return Coefficient.one(), t, t.conjugate(), Coefficient.i()


def test_sort_signed():
    assert sort_signed((1, 2, 3)) == ((1, 2, 3), 1)
    assert sort_signed((2, 1, 3)) == ((1, 2, 3), -1)
    assert sort_signed((3, 2, 1)) == ((1, 2, 3), -1)
    assert sort_signed((2, 1)) == ((1, 2), -1)
    assert sort_signed((1, 1)) == (None, 0)
    assert sort_signed(()) == ((), 1)


def test_monomial_normalizes_order():
    assert Form.monomial((2, 1), ()) == -Form.monomial((1, 2), ())
    assert Form.monomial((1, 1), ()).is_zero()
    assert Form.monomial((2, 1), (3, 1)) == Form.monomial((1, 2), (1, 3))


def test_wedge_block_crossing_sign():
    # phibar1 ^ phi2 = -phi2 ^ phibar1
    pb1 = Form.monomial((), (1,))
    p2 = Form.monomial((2,), ())
    assert pb1.wedge(p2) == -Form.monomial((2,), (1,))
    assert p2.wedge(pb1) == Form.monomial((2,), (1,))


def test_wedge_graded_commutativity():
    a = Form.monomial((1,), (2,))  # degree 2
    b = Form.monomial((3,), ())  # degree 1
    assert a.wedge(b) == b.wedge(a)
    c = Form.monomial((2,), ())
    assert c.wedge(b) == -b.wedge(c)


def test_wedge_associativity():
    one, t, tc, i = coeffs()
    a = Form.monomial((1,), (), t) + Form.monomial((), (2,), i)
    b = Form.monomial((2,), ()) + Form.monomial((), (1,), tc)
    c = Form.monomial((3,), (3,))
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_conjugation_sign_rule():
    # conj(phi[1|2]) = -phi[2|1]; degree (1,1) picks up (-1)^{pq}
    f = Form.monomial((1,), (2,))
    assert f.conjugate() == -Form.monomial((2,), (1,))
    assert f.conjugate().conjugate() == f
    # (2,1): sign (-1)^2 = 1... p*q = 2 even
    g = Form.monomial((1, 2), (3,))
    assert g.conjugate() == Form.monomial((3,), (1, 2))


def test_conjugation_is_real_structure():
    one, t, tc, i = coeffs()
    a = Form.monomial((1,), (2,), t) + Form.monomial((1, 2), (), i)
    b = Form.monomial((), (1,), tc)
    assert (a.wedge(b)).conjugate() == a.conjugate().wedge(b.conjugate())
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_real_form_condition():
    # i*phi[1|1] is fixed by conjugation
    om = Form.monomial((1,), (1,), Coefficient.i())
    assert om.conjugate() == om


def test_contractions():
    f = Form.monomial((1, 2), (1,))
    assert f.contract_holo(1) == Form.monomial((2,), (1,))
    assert f.contract_holo(2) == -Form.monomial((1,), (1,))
    assert f.contract_holo(3).is_zero()
    # anti contraction crosses the whole holomorphic block
    assert f.contract_anti(1) == Form.monomial((1, 2), ())
    g = Form.monomial((1,), (1, 2))
    assert g.contract_anti(2) == Form.monomial((1,), (1,))
    assert g.contract_anti(1) == -Form.monomial((1,), (2,))


def test_iota_is_derivation():
    one, t, tc, i = coeffs()
    phi = VectorForm({1: Form.monomial((), (1,), t), 2: Form.monomial((), (2,), i)})
    a = Form.monomial((1,), (2,)) + Form.monomial((2,), ())
    b = Form.monomial((2,), (1,)) + Form.monomial((1,), (), tc)
    lhs = phi.iota(a.wedge(b))
    rhs = phi.iota(a).wedge(b) + a.wedge(phi.iota(b))
    assert lhs == rhs


def test_iota_mirrored_contracts_anti():
    one, t, tc, i = coeffs()
    phi = VectorForm({1: Form.monomial((), (2,), t)})
    bar = phi.conjugate()
    assert bar.mirrored
    # conj(t*phibar2 (x) Z1) = conj(t)*phi2 (x) Zbar1 acting on phibar1
    got = bar.iota(Form.monomial((), (1,)))
    assert got == Form.monomial((2,), (), tc)
    assert bar.iota(Form.monomial((1,), ())).is_zero()


def test_substitute_coframe_is_algebra_map():
    one, t, tc, i = coeffs()
    m = {
        ("h", 1): Form.monomial((1,), ()) + Form.monomial((), (1,), t),
        ("a", 1): Form.monomial((), (1,)) + Form.monomial((1,), (), tc),
    }
    a = Form.monomial((1,), (1,))
    b = Form.monomial((2,), ())
    lhs = a.wedge(b).substitute_coframe(m)
    rhs = a.substitute_coframe(m).wedge(b.substitute_coframe(m))
    assert lhs == rhs


def test_component_split():
    one, t, tc, i = coeffs()
    f = Form.monomial((1,), (1,), t) + Form.monomial((1, 2), (), i) + Form.scalar(one)
    comps = f.components()
    assert set(comps) == {(1, 1), (2, 0), (0, 0)}
    total = Form()
    for g in comps.values():
        total = total + g
    assert total == f
    assert f.component(1, 1) == Form.monomial((1,), (1,), t)


def test_char_sectors_recompose():
    registry.ensure_pair("t")
    registry.ensure_char("E1")
    t = Coefficient.symbol("t")
    E = Coefficient.symbol("E1")
    f = Form.monomial((1,), (), t * E) + Form.monomial((1,), (), t) \
        + Form.monomial((), (2,), E.conjugate())
    sectors = f.char_sectors()
    assert set(sectors) == {(1,), (0,), (-1,)}
    total = Form()
    for g in sectors.values():
        total = total + g
    assert total == f


def test_wedge_power_top_degree():
    om = Form.monomial((1,), (1,), Coefficient.i()) + Form.monomial(
        (2,), (2,), Coefficient.i()
    ) + Form.monomial((3,), (3,), Coefficient.i())
    top = om.wedge_power(3)
    assert len(top) == 1
    # i^3 * 3! * (sign of interleave to canonical order)
    [(mi, c)] = list(top.terms())
    assert mi == MultiIndex((1, 2, 3), (1, 2, 3))
    assert om.wedge_power(4).is_zero()


def test_numeric_evaluation():
    registry.ensure_pair("t")
    t = Coefficient.symbol("t")
    f = Form.monomial((1,), (2,), t * t.conjugate())
    pt = {"t": 0.3 + 0.4j, "t_c": 0.3 - 0.4j}
    got = f.numeric(pt)
    assert abs(got[MultiIndex((1,), (2,))] - 0.25) < 1e-12


@st.composite
def small_forms(draw):
    one, t, tc, i = coeffs()
    scalars = [one, t, tc, i, -t]
    n_terms = draw(st.integers(0, 3))
    f = Form()
    for _ in range(n_terms):
        holo = draw(st.lists(st.integers(1, 3), max_size=2))
        anti = draw(st.lists(st.integers(1, 3), max_size=2))
        f = f + Form.monomial(tuple(holo), tuple(anti), draw(st.sampled_from(scalars)))
    return f


@settings(max_examples=50, deadline=None)
@given(small_forms(), small_forms())
def test_wedge_graded_sign_random(a, b):
    for (p1, q1), ac in a.components().items():
        for (p2, q2), bc in b.components().items():
            d1, d2 = p1 + q1, p2 + q2
            sign = -1 if (d1 * d2) % 2 else 1
            assert ac.wedge(bc) == bc.wedge(ac) * sign


@settings(max_examples=50, deadline=None)
@given(small_forms(), small_forms())
def test_conjugate_antiautomorphism_random(a, b):
    assert (a.wedge(b)).conjugate() == a.conjugate().wedge(b.conjugate())
    assert a.conjugate().conjugate() == a


def _substitute_by_chain(form, rows):
    """Reference coframe substitution: the coefficient of each term is
    carried through the wedge chain of its factors' rows."""
    total = Form()
    for mi, c in form.terms():
        piece = Form.scalar(c)
        factors = [("h", i) for i in mi.holo] + [("a", j) for j in mi.anti]
        for flavor, idx in factors:
            row = rows.get((flavor, idx))
            if row is None:
                holo, anti = ((idx,), ()) if flavor == "h" else ((), (idx,))
                row = Form.monomial(holo, anti)
            piece = piece.wedge(row)
        total = total + piece
    return total


@settings(max_examples=40, deadline=None)
@given(small_forms())
def test_coframe_map_matches_wedge_chain(f):
    one, t, tc, i = coeffs()
    rows = {
        ("h", 1): Form.monomial((1,), ()) + Form.monomial((), (2,), t),
        ("a", 2): Form.monomial((), (2,)) + Form.monomial((1,), (), tc)
        + Form.monomial((3,), (), i),
        ("h", 3): Form.monomial((), (1,), t * tc),
        ("a", 3): Form(),  # a zero row is an image, not a missing entry
    }
    table = CoframeMap(rows)
    expected = _substitute_by_chain(f, rows)
    assert table.apply(f) == expected
    assert table.apply(f) == expected
    assert f.substitute_coframe(rows) == expected
