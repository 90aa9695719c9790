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


# -- linear combinations: one gather per output monomial ------------------------


def _coefficient_pool():
    # atoms a and b, and the composite atom a*b from dividing by it at once
    registry.ensure_pair("u")
    one, t, tc, i = coeffs()
    u = Coefficient.symbol("u")
    a = one - t * tc
    b = t + u
    return [one, i, -t, u * tc, t / a, u / a / a, (t - 1) / b, one / a / b,
            one / (a * b), tc / u, b * b / a]


_POOL_MONOMIALS = [
    MultiIndex((1,), ()), MultiIndex((), (1,)), MultiIndex((1,), (2,)),
    MultiIndex((2,), ()),
]


@st.composite
def pooled_forms(draw):
    """Forms whose terms land on a few monomials, with coefficients that
    carry denominator atoms."""
    pool = _coefficient_pool()
    terms = draw(st.lists(
        st.tuples(st.integers(0, len(_POOL_MONOMIALS) - 1),
                  st.integers(0, len(pool) - 1)),
        max_size=3,
    ))
    f = Form()
    for m, c in terms:
        f = f + Form({_POOL_MONOMIALS[m]: pool[c]})
    return f


@st.composite
def form_pairs(draw):
    pool = _coefficient_pool()
    index = st.integers(0, len(pool) - 1)
    pairs = [
        (draw(pooled_forms()), pool[draw(index)])
        for _ in range(draw(st.integers(0, 4)))
    ]
    if draw(st.booleans()):
        pairs += [(-f, c) for f, c in pairs]  # a total of zero
    return pairs


def _combination_by_fold(pairs):
    total = Form()
    for f, c in pairs:
        total = total + f * c
    return total


@settings(max_examples=60, deadline=None)
@given(form_pairs())
def test_combination_matches_the_pairwise_fold(pairs):
    got = Form.combination(pairs)
    assert got == _combination_by_fold(pairs)
    assert all(not c.is_zero() for _, c in got.terms())


def test_combination_cancels_and_stores_no_zero():
    one, t, tc, i = coeffs()
    a = one - t * tc
    m = Form.monomial((1,), (2,))
    n = Form.monomial((2,), ())
    # (t*conj(t) - 1)/a = -1: the atom a cancels only in the total
    got = Form.combination([(m / a, t * tc), (m / a, -1), (n, t), (n, -t)])
    assert len(got) == 1
    assert got.coeff((1,), (2,)).render() == "-1"
    assert got == -m
    assert Form.combination([]).is_zero()
    assert len(Form.combination([(n, t), (n * t, -1)])) == 0


def _canonical(seq):
    """(monomial, sign) of a product of coframe factors, listed as
    (0, i) for phi^i and (1, j) for conj(phi^j), or (None, 0)."""
    if len(set(seq)) < len(seq):
        return None, 0
    inversions = sum(
        1 for x in range(len(seq)) for y in range(x + 1, len(seq))
        if seq[x] > seq[y]
    )
    ordered = sorted(seq)
    holo = tuple(i for flavor, i in ordered if flavor == 0)
    anti = tuple(j for flavor, j in ordered if flavor == 1)
    return MultiIndex(holo, anti), -1 if inversions % 2 else 1


def _factors(mi):
    return [(0, i) for i in mi.holo] + [(1, j) for j in mi.anti]


def _wedge_by_fold(f, g):
    total = Form()
    for m1, c1 in f.terms():
        for m2, c2 in g.terms():
            mi, sign = _canonical(_factors(m1) + _factors(m2))
            if sign:
                total = total + Form({mi: c1 * c2 * sign})
    return total


def _contract_by_fold(f, flavor, a):
    total = Form()
    for mi, c in f.terms():
        seq = _factors(mi)
        if (flavor, a) in seq:
            pos = seq.index((flavor, a))
            rest, _ = _canonical(seq[:pos] + seq[pos + 1:])
            total = total + Form({rest: c * (-1) ** pos})
    return total


@settings(max_examples=50, deadline=None)
@given(pooled_forms(), pooled_forms())
def test_wedge_matches_the_pairwise_fold(f, g):
    assert f.wedge(g) == _wedge_by_fold(f, g)
    h = f + g.wedge(Form.monomial((), (1,)))
    assert h.wedge(h) == _wedge_by_fold(h, h)


@settings(max_examples=50, deadline=None)
@given(pooled_forms(), small_forms(), st.integers(1, 3))
def test_contractions_match_the_pairwise_fold(f, g, a):
    for form in (f, f.wedge(g), g):
        assert form.contract_holo(a) == _contract_by_fold(form, 0, a)
        assert form.contract_anti(a) == _contract_by_fold(form, 1, a)


@pytest.mark.parametrize("k", [2, 3])
def test_wedge_normalizes_each_monomial_once(monkeypatch, k):
    registry.ensure_pair("u")
    one, t, tc, i = coeffs()
    u = Coefficient.symbol("u")
    # k one-forms against their complementary (k-1)-forms: all k products
    # land on phi^{1..k}, and none has a scalar operand
    f = Form({MultiIndex((j,), ()): t + j for j in range(1, k + 1)})
    g = Form({
        MultiIndex(tuple(x for x in range(1, k + 1) if x != j), ()): u * tc + j
        for j in range(1, k + 1)
    })
    want = _wedge_by_fold(f, g)
    calls = []
    make = Coefficient._make

    def counted(num, den, ctx):
        calls.append(num)
        return make(num, den, ctx)

    monkeypatch.setattr(Coefficient, "_make", staticmethod(counted))
    got = f.wedge(g)
    assert len(calls) == 1
    monkeypatch.undo()
    assert len(got) == 1
    assert got == want


def test_vector_form_equality_needs_equal_mirroring():
    eta = Form.monomial((), (1,))
    assert VectorForm({1: eta}) == VectorForm({1: eta})
    assert VectorForm({1: eta}) != VectorForm({1: eta}, mirrored=True)
    assert VectorForm.zero() == VectorForm.zero()
    assert VectorForm.zero() != VectorForm.zero(mirrored=True)
