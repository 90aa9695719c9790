"""Bott-Chern sectors against an independent rank count, and their cost.

In one sector, dim H_BC^{p,q} = N - rank(d) - rank(del dbar), where N is
the number of (p,q) monomials, d maps them into (p+1,q) + (p,q+1), and
del dbar maps the (p-1,q-1) monomials into (p,q): the closed forms are
the kernel of d, and the image of del dbar lies inside it.  The ranks are
taken by sympy's DomainMatrix over QQ_I from the scalar entries of both
matrices, which sector 0 of these three entries has, and of a one-step
tower with Gaussian-integer constants in dimension 5.

solve_dbar returns the minimum-norm primitive: on h3x dbar sends both
phi^{3bar} and phi^{4bar} to phi^{12bar}, whose minimum-norm primitive is
their average.

A form splits into one coordinate vector per character sector, each with
its character stripped; embedding each vector back in its sector and
summing returns the form.
"""

from fractions import Fraction

import random
from itertools import combinations

import pytest
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from ihg import SectorMixing, cohomology, linalg
from ihg.catalog import CATALOG_NAMES, catalog, torus
from ihg.coefficients import Coefficient
from ihg.cohomology import (
    BottChernSector,
    SectorComplex,
    harmonic_certificate,
    monomial_basis,
    solve_dbar,
    split_primitive,
)
from ihg.exterior import Form, MultiIndex
from ihg.geometry import Geometry, StructureError
from ihg.symbols import registry


def _rank(op, src, dst) -> int:
    if not src or not dst:
        return 0
    images = [op(Form.monomial(m.holo, m.anti)) for m in src]
    rows = []
    for t in dst:
        row = []
        for image in images:
            g = image.coeff(t.holo, t.anti).scalar()
            row.append(QQ_I(QQ(g.re.numerator, g.re.denominator),
                            QQ(g.im.numerator, g.im.denominator)))
        rows.append(row)
    return DomainMatrix(rows, (len(dst), len(src)), QQ_I).rank()


def _tower(n: int) -> Geometry:
    """The one-step tower: d phi^k = 0 for k < n, and d phi^n a 2-form in
    phi^1..phi^{n-1} with no (0,2) part whose (2,0) and (1,1) constants
    are Gaussian integers a + bi, a and b drawn from -2..2 (seed 1)."""
    rng = random.Random(1)
    i = Coefficient.i()
    low = range(1, n)
    monomials = ([Form.monomial(pair, ()) for pair in combinations(low, 2)]
                 + [Form.monomial((j,), (k,)) for j in low for k in low])
    top = Form.combination(
        (m, rng.randint(-2, 2) + rng.randint(-2, 2) * i) for m in monomials)
    return Geometry(f"tower{n}", n, {n: top})


@pytest.mark.parametrize("name", ["iwasawa", "nakamura_3b", "solv4d",
                                  "tower5"])
def test_dimension_matches_rank_count(name):
    # the n = 5 tower at two bidegrees: the first answers above n = 4
    if name == "tower5":
        g, bidegrees = _tower(5), [(2, 2), (2, 3)]
    else:
        g = catalog(name)
        bidegrees = [(p, q) for p in range(g.n + 1) for q in range(g.n + 1)]
    n = g.n
    for p, q in bidegrees:
        src = monomial_basis(n, p, q)
        targets = monomial_basis(n, p + 1, q) + monomial_basis(n, p, q + 1)
        expected = (
            len(src)
            - _rank(g.d, src, targets)
            - _rank(g.ddbar, monomial_basis(n, p - 1, q - 1), src)
        )
        assert BottChernSector(g, p, q).dimension == expected, (p, q)


def test_sector_cost(monkeypatch):
    # the matrices read the d-table: no d_split of an embedded monomial,
    # and in sector 0 one one-half derivation per (1,1) monomial, the del
    # of its dbar column, with no dbar half formed (16 twisted splits
    # before); one elimination for the kernel and one for both spans,
    # the second over the free coordinates of ker d, one row per kernel
    # vector, not one per (2,2) monomial; each matrix builds its target
    # basis once
    g = catalog("solv4d")
    calls = {"d_split": 0, "twisted_split": 0, "_twisted_half": 0,
             "eliminate": 0, "monomial_basis": 0}
    rows_eliminated = []
    d_split, twisted_split = Geometry.d_split, Geometry.twisted_split
    twisted_half = Geometry._twisted_half
    eliminate = linalg._eliminate

    def counted_d_split(self, form):
        calls["d_split"] += 1
        return d_split(self, form)

    def counted_twisted_split(self, form, twist=None):
        calls["twisted_split"] += 1
        return twisted_split(self, form, twist)

    def counted_twisted_half(self, form, side, twist=None):
        calls["_twisted_half"] += 1
        return twisted_half(self, form, side, twist)

    def counted_eliminate(rows, width):
        calls["eliminate"] += 1
        rows_eliminated.append(len(rows))
        return eliminate(rows, width)

    def counted_monomial_basis(n, p, q):
        calls["monomial_basis"] += 1
        return monomial_basis(n, p, q)

    monkeypatch.setattr(Geometry, "d_split", counted_d_split)
    monkeypatch.setattr(Geometry, "twisted_split", counted_twisted_split)
    monkeypatch.setattr(Geometry, "_twisted_half", counted_twisted_half)
    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    monkeypatch.setattr(cohomology, "monomial_basis", counted_monomial_basis)
    sector = BottChernSector(g, 2, 2)
    assert calls["d_split"] == 0
    assert calls["twisted_split"] == 0
    assert calls["_twisted_half"] == 16
    assert calls["eliminate"] == 2
    assert calls["monomial_basis"] <= 5
    kernel_dim = len(sector.image) + len(sector.quotient)
    assert rows_eliminated[1] == kernel_dim == 9
    assert len(monomial_basis(g.n, 2, 2)) == 36


def test_a_second_sector_reads_the_sector_table(monkeypatch):
    # the second Bott-Chern sector of a geometry reads both matrices from
    # the table: no derivation of d and no d-table entry, but the same two
    # eliminations, since no elimination or kernel is kept
    g = catalog("solv4d")
    first = BottChernSector(g, 2, 2)
    calls = {"twisted_split": 0, "_twisted_half": 0, "_d_monomial": 0,
             "eliminate": 0}
    twisted_split, d_monomial = Geometry.twisted_split, Geometry._d_monomial
    twisted_half = Geometry._twisted_half
    eliminate = linalg._eliminate

    def counted_twisted_split(self, form, twist=None):
        calls["twisted_split"] += 1
        return twisted_split(self, form, twist)

    def counted_twisted_half(self, form, side, twist=None):
        calls["_twisted_half"] += 1
        return twisted_half(self, form, side, twist)

    def counted_d_monomial(self, mi):
        calls["_d_monomial"] += 1
        return d_monomial(self, mi)

    def counted_eliminate(rows, width):
        calls["eliminate"] += 1
        return eliminate(rows, width)

    monkeypatch.setattr(Geometry, "twisted_split", counted_twisted_split)
    monkeypatch.setattr(Geometry, "_twisted_half", counted_twisted_half)
    monkeypatch.setattr(Geometry, "_d_monomial", counted_d_monomial)
    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    second = BottChernSector(g, 2, 2)
    assert calls == {"twisted_split": 0, "_twisted_half": 0,
                     "_d_monomial": 0, "eliminate": 2}
    monkeypatch.undo()
    assert second.image == first.image
    assert second.quotient == first.quotient
    assert second.basis_forms() == first.basis_forms()


def test_a_caller_cannot_change_the_sector_table():
    # matrix hands out copies: changing a column it returned, or a kept
    # image column of a sector, leaves the next matrix as it was
    g = catalog("solv4d")
    cx = SectorComplex(g)
    want = cx.matrix("ddbar", 1, 1)
    got = cx.matrix("ddbar", 1, 1)
    k = next(i for i, col in enumerate(got) if col)
    got[k].clear()
    got.append({0: Coefficient.one()})
    sector = BottChernSector(g, 2, 2)
    kept = [dict(col) for col in sector.image]
    assert kept
    sector.image[0][max(kept[0]) + 1] = Coefficient.one()
    sector.image[0].pop(min(kept[0]))
    assert cx.matrix("ddbar", 1, 1) == want
    assert BottChernSector(g, 2, 2).image == kept


def test_sector_zero_decomposes_without_normalizing(monkeypatch):
    # every coefficient of a sector-0 column on iwasawa is character-free,
    # so it goes into its column as it is: filling every sector-0 matrix
    # decomposes and normalizes nothing
    g = catalog("iwasawa")
    decompose, make = Coefficient.char_decompose, Coefficient._make
    decomposed, made = [], []

    def counted_decompose(self):
        decomposed.append(self)
        return decompose(self)

    def counted_make(*args):
        made.append(args)
        return make(*args)

    monkeypatch.setattr(Coefficient, "char_decompose", counted_decompose)
    monkeypatch.setattr(Coefficient, "_make", staticmethod(counted_make))
    cx = SectorComplex(g)
    for op in ("d", "del", "dbar", "ddbar"):
        for p in range(g.n + 1):
            for q in range(g.n + 1):
                cx.matrix(op, p, q)
    assert len(g._sector_table) == 4 * (g.n + 1) ** 2
    assert decomposed == [] and made == []


def test_char_decompose_of_a_character_free_value_is_the_value():
    # the general path strips E1 from value*E1 and normalizes the rest
    registry.ensure_char("E1")
    registry.ensure_pair("t")
    t, E = Coefficient.symbol("t"), Coefficient.symbol("E1")
    i = Coefficient.i()
    for value in (Coefficient.from_scalar(Fraction(-3, 4)), (1 + i) / 6,
                  t * t.conjugate() - 2, t / (1 + t * t.conjugate()),
                  (2 * t + i) / (3 * t.conjugate() + 1) ** 2):
        assert not value.has_characters()
        (key, got), = value.char_decompose().items()
        assert key == (0,) and got is value
        (key, general), = (value * E).char_decompose().items()
        assert key == (1,) and general.render() == got.render()


def _full_width_spans(geom, p, q, sector=None):
    """Both Bott-Chern spans by the full-width route, kept as the
    reference: one pivot_columns over the image columns followed by the
    kernel basis, with a row for every (p,q) monomial."""
    cx = SectorComplex(geom, sector)
    free, vector = linalg.kernel(cx.matrix("d", p, q))
    image = cx.matrix("ddbar", p - 1, q - 1)
    columns = image + [vector(f) for f in free]
    pivots = linalg.pivot_columns(columns)
    return ([columns[c] for c in pivots if c < len(image)],
            [columns[c] for c in pivots if c >= len(image)])


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_spans_on_kernel_coordinates_match_the_full_width_route(name):
    # same pivots, so the same vectors in the same order, at every (p,q)
    # of sector 0, and on solv4d in both sectors next to it
    g = catalog(name)
    sectors = [None, (1,), (-1,)] if name == "solv4d" else [None]
    for sector in sectors:
        for p in range(g.n + 1):
            for q in range(g.n + 1):
                got = BottChernSector(g, p, q, sector)
                want = _full_width_spans(g, p, q, sector)
                assert (got.image, got.quotient) == want, (sector, p, q)


def test_a_sector_needs_d2_zero_over_the_field():
    # d phi^2 = c phi^{4 1bar}, d phi^3 = phi^{12}: d^2 phi^3 = -c
    # phi^{14 1bar} vanishes on the locus c = 0 only, so validation passes
    # while im(del dbar) need not lie in ker d over the field
    registry.ensure_real("c")
    c = Coefficient.symbol("c")
    g = Geometry(
        "d2_on_the_locus", 4,
        {2: Form.monomial((4,), (1,), c), 3: Form.monomial((1, 2), ())},
        constraints=(c,),
    )
    assert g.d(g.d(Form.monomial((3,), ()))) == Form.monomial((1, 4), (1,), -c)
    assert not g.d2_exact
    with pytest.raises(StructureError) as err:
        BottChernSector(g, 2, 2)
    assert err.value.kind == "d2_nonzero"
    assert "d2_on_the_locus" in str(err.value) and "(2,2)" in str(err.value)
    for name in CATALOG_NAMES:
        assert catalog(name).d2_exact, name


# the reference's own statement of each operator's target bidegrees, in
# the order SectorComplex.matrix stacks them
_TARGETS = {
    "d": ((1, 0), (0, 1)), "del": ((1, 0),), "dbar": ((0, 1),),
    "ddbar": ((1, 1),),
}


@pytest.mark.parametrize("op", sorted(_TARGETS))
@pytest.mark.parametrize("name", ["solv4d", "nakamura_3b"])
def test_table_read_matrix_matches_the_embedded_route(name, op):
    # reference: coordinates of op(embed(m)) from the public operators,
    # with the character decomposition of the result
    g = catalog(name)
    public = {"d": g.d, "del": g.del_op, "dbar": g.dbar, "ddbar": g.ddbar}
    for sector in [(0,), (1,), (-1,), (2,)]:
        cx = SectorComplex(g, sector)
        for p in range(g.n + 1):
            for q in range(g.n + 1):
                targets = [(p + a, q + b) for a, b in _TARGETS[op]]
                want = [cx.to_vector(public[op](cx.embed(mi)), *targets)
                        for mi in cx.basis(p, q)]
                # the first call fills the sector table, the second reads it
                assert cx.matrix(op, p, q) == want, (sector, p, q)
                assert cx.matrix(op, p, q) == want, (sector, p, q)


@pytest.mark.parametrize("name", ["solv4d", "nakamura_3b"])
def test_one_half_columns_are_halves_of_the_twisted_split(name):
    # a twisted sector's del, dbar and ddbar columns form only the half
    # they read; each is that half of twisted_split, which forms both
    g = catalog(name)
    for s in (1, -1):
        cx = SectorComplex(g, (s,))
        twist = {"E1": s}
        for p in range(g.n + 1):
            for q in range(g.n + 1):
                halves = [g.twisted_split(Form({mi: Coefficient.one()}), twist)
                          for mi in cx.basis(p, q)]
                want = {"del": [h[0] for h in halves],
                        "dbar": [h[1] for h in halves],
                        "ddbar": [g.twisted_split(h[1], twist)[0]
                                  for h in halves]}
                for op, forms in want.items():
                    index = {mi: k for k, mi in enumerate(
                        mi for a, b in _TARGETS[op]
                        for mi in monomial_basis(g.n, p + a, q + b))}
                    columns = [{index[mi]: c for mi, c in f.terms()}
                               for f in forms]
                    assert cx.matrix(op, p, q) == columns, (s, op, p, q)


def test_an_unknown_operator_is_refused():
    # an operator name outside the accepted ones is a ValueError naming
    # them, not a KeyError, and leaves the sector table as it was
    g = catalog("solv4d")
    with pytest.raises(ValueError, match="'del', 'dbar'"):
        split_primitive(g, "d", Form.monomial((1,), (1,)), 1, 0)
    cx = SectorComplex(g)
    for p in (1, 5):  # an empty basis is refused as well
        with pytest.raises(ValueError,
                           match="'d', 'del', 'dbar', 'ddbar'"):
            cx.matrix("dd", p, 0)
    assert g._sector_table == {}


def test_a_character_in_the_structure_still_mixes_sectors(twisted):
    # d(phi^2) = E1 phi^{1 1bar}: d of phi^{2bar} carries conj(E1), so
    # every column through it leaves the sector, on either route, and the
    # column's error names the geometry, the operator and the monomial
    g = twisted
    for sector in [(0,), (1,)]:
        cx = SectorComplex(g, sector)
        with pytest.raises(SectorMixing):
            cx.to_vector(g.d(cx.embed(MultiIndex((), (2,)))), (1, 1), (0, 2))
        # a raise stores nothing, so a second call raises as well
        for _ in range(2):
            with pytest.raises(SectorMixing,
                               match=r"^twisted: d of phi\[\|2\] leaves"):
                cx.matrix("d", 0, 1)
        assert (cx.sector, "d", 0, 1) not in g._sector_table


def test_solve_dbar_is_minimum_norm(h3x):
    rhs = Form.monomial((), (1, 2))
    beta = solve_dbar(h3x, rhs, 0, 1)
    half = Fraction(1, 2)
    assert beta == (Form.monomial((), (3,)) + Form.monomial((), (4,))) * half
    assert h3x.dbar(beta) == rhs


def test_sector_vectors_recompose():
    g = catalog("solv4d")
    registry.ensure_pair("t")
    t, E = Coefficient.symbol("t"), Coefficient.symbol("E1")
    # sectors (1), (-1) with E1 in a denominator, and (0) over a parameter atom
    f = (
        Form.monomial((), (1, 2), E * t)
        + Form.monomial((), (1, 3), t / E)
        + Form.monomial((), (2, 3), t / (1 + t * t.conjugate()))
    )
    vectors = cohomology._sector_vectors(
        f, cohomology._index(g.n, [(0, 2)]), [(0, 2)]
    )
    assert set(vectors) == {(1,), (0,), (-1,)}
    total = Form()
    for sector, vec in vectors.items():
        total = total + SectorComplex(g, sector).vector_to_form(vec, 0, 2)
    assert total == f


def test_a_form_spanning_two_sectors_is_rejected():
    g = catalog("solv4d")
    E = Coefficient.symbol("E1")
    f = Form.monomial((), (1, 2), E) + Form.monomial((), (1, 3))
    with pytest.raises(SectorMixing):
        SectorComplex(g).to_vector(f, (0, 2))
    with pytest.raises(SectorMixing):
        cohomology.bc_class(g, f)


def test_bc_class_splits_its_form_once(monkeypatch):
    # the sector inference's coordinates are the ones class_of reads
    g = catalog("iwasawa")
    f = Form.monomial((1, 3), (1, 3), 2) + Form.monomial((1, 2), (1, 2))
    want = BottChernSector(g, 2, 2).class_of(f)
    calls = []
    split = cohomology._sector_vectors

    def counted(form, index, bidegrees):
        if form is f:
            calls.append(index)
        return split(form, index, bidegrees)

    monkeypatch.setattr(cohomology, "_sector_vectors", counted)
    got = cohomology.bc_class(g, f)
    assert len(calls) == 1
    monkeypatch.undo()
    assert got.coords == want.coords
    assert not got.is_zero()


def test_split_primitive_normalization_cost(monkeypatch):
    # each coefficient of rhs is decomposed once, straight into its
    # sector's vector (48 normalizations when every part was multiplied
    # back by its character and decomposed again), and a filled sector
    # splits by its stored pseudo-inverse with no elimination (38 when
    # both normal systems were solved for every right-hand side) and
    # reads its embedded basis from the table (11 when each call built
    # the sector's character prefix again); the character-free t term is
    # its own sector-0 part, with no normalization (7 when it had one)
    g = catalog("solv4d")
    registry.ensure_pair("t")
    t, E = Coefficient.symbol("t"), Coefficient.symbol("E1")
    rhs = (
        Form.monomial((), (1, 2), E * t)
        + Form.monomial((), (1, 3), t / E)
        + Form.monomial((), (1, 4), E ** 2)
        + Form.monomial((), (2, 3), t)
    )
    want = split_primitive(g, "dbar", rhs, 0, 1)
    calls = []
    make = Coefficient._make

    def counted(*args):
        calls.append(args[0])
        return make(*args)

    monkeypatch.setattr(Coefficient, "_make", staticmethod(counted))
    got = split_primitive(g, "dbar", rhs, 0, 1)
    assert len(calls) == 6
    monkeypatch.undo()
    assert got == want


def test_split_primitive_keeps_the_indices_of_zero_rows():
    # dbar from (0,1) to (0,2) on iwasawa: dbar(phi^{3bar}) = -phi^{12bar}
    # is the only nonzero entry, so the rows of phi^{13bar} and
    # phi^{23bar} are zero; the part on phi^{13bar} stays in the residue
    # at that monomial's index
    g = catalog("iwasawa")
    cx = SectorComplex(g)
    assert cx.matrix("dbar", 0, 1) == [
        {}, {}, {0: -Coefficient.one()}]
    rhs = Form.monomial((), (1, 2)) + Form.monomial((), (1, 3))
    beta, residue = split_primitive(g, "dbar", rhs, 0, 1)
    assert beta == Form.monomial((), (3,), -1)
    assert cx.basis(0, 2)[1] == MultiIndex((), (1, 3))
    assert residue == {1: Coefficient.one()}


def test_split_primitive_against_an_all_zero_matrix():
    # on the torus dbar vanishes: nothing is in the image, and the residue
    # is the right-hand side's coordinates
    g = torus()
    cx = SectorComplex(g)
    assert cx.matrix("dbar", 0, 1) == [{}, {}, {}]
    rhs = Form.monomial((), (1, 2), 3) + Form.monomial((), (2, 3))
    beta, residue = split_primitive(g, "dbar", rhs, 0, 1)
    assert beta.is_zero()
    assert residue == cx.to_vector(rhs, (0, 2))
    assert residue == {0: Coefficient.from_scalar(3), 2: Coefficient.one()}


def test_split_primitive_factors_each_sector_once(monkeypatch):
    # the first split factors the sector into its pseudo-inverse; a second
    # right-hand side in the same sector is split without elimination
    g = catalog("solv4d")
    registry.ensure_pair("t")
    t = Coefficient.symbol("t")
    first = Form.monomial((), (1, 2), t) + Form.monomial((), (2, 3))
    second = Form.monomial((), (1, 3), t * t) + Form.monomial((), (1, 2))
    want = split_primitive(g, "dbar", second, 0, 1)
    g = catalog("solv4d")
    split_primitive(g, "dbar", first, 0, 1)
    calls = []
    eliminate = linalg._eliminate

    def counted(rows, width):
        calls.append(width)
        return eliminate(rows, width)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    got = split_primitive(g, "dbar", second, 0, 1)
    assert calls == []
    assert got == want
    beta, residue = got
    assert (not residue) == (g.dbar(beta) == second)


def test_a_filled_sector_builds_no_sector_complex(monkeypatch):
    # the table entry holds the sector's embedded basis next to (A, A+)
    g = catalog("solv4d")
    registry.ensure_pair("t")
    t, E = Coefficient.symbol("t"), Coefficient.symbol("E1")
    rhs = Form.monomial((), (1, 2), E * t) + Form.monomial((), (2, 3), t)
    want = split_primitive(g, "dbar", rhs, 0, 1)
    calls = []
    init = SectorComplex.__init__

    def counted(self, geom, sector=None):
        calls.append(sector)
        init(self, geom, sector)

    monkeypatch.setattr(SectorComplex, "__init__", counted)
    assert split_primitive(g, "dbar", rhs * 3, 0, 1)[0] == want[0] * 3
    assert calls == []
    split_primitive(g, "dbar", Form.monomial((), (1, 3), E * E), 0, 1)
    assert calls == [(2,)]


def _embedded_certificate(geom, form):
    """harmonic_certificate by the embedded route, kept as the reference:
    each del-dbar image is ddbar of chi^s*m, reduced modulo the
    constraints, paired with the form's own coefficients."""
    p, q, sector, _ = cohomology._bidegree_and_sector(geom, form)
    del_form, dbar_form = geom.d_split(form)
    if not geom.reduce(del_form).is_zero():
        return False, ("not del-closed modulo constraints",)
    if not geom.reduce(dbar_form).is_zero():
        return False, ("not dbar-closed modulo constraints",)
    if p < 1 or q < 1:
        return True, ("no del-dbar image in this bidegree",)
    cx = SectorComplex(geom, sector)
    for mi in cx.basis(p - 1, q - 1):
        image = geom.reduce(geom.ddbar(cx.embed(mi)))
        pairs = ((form.coeff(mj.holo, mj.anti), w) for mj, w in image.terms())
        acc = Coefficient.sum_of_products(
            (u, w.conjugate()) for u, w in pairs if u
        )
        if acc.is_zero() or geom.in_ideal(acc):
            continue
        return False, (f"pairs with the del-dbar image of {mi.render()}",)
    return True, ("orthogonal to every invariant del-dbar image",)


def _certificate_forms(geom, prefix, p, q):
    """Every (p,q) monomial and the del-dbar image of every (p-1,q-1)
    monomial, each times prefix, and their sum."""
    forms = [Form.monomial(mi.holo, mi.anti, prefix)
             for mi in monomial_basis(geom.n, p, q)]
    forms += [geom.ddbar(Form.monomial(mi.holo, mi.anti, prefix))
              for mi in monomial_basis(geom.n, p - 1, q - 1)]
    forms = [f for f in forms if not f.is_zero()]
    return forms + [Form.combination((f, Coefficient.one()) for f in forms)]


_CLOSURE = {"not del-closed", "not dbar-closed"}


@pytest.mark.parametrize("name, sector, bidegrees, notes", [
    # on the families every del-dbar image lies in the constraint ideal
    ("nilfamily_ft", 0, [(1, 1), (2, 2), (1, 2), (3, 3)],
     _CLOSURE | {"orthogonal to"}),
    ("fps_family", 0, [(1, 1), (2, 1), (2, 2)], _CLOSURE | {"orthogonal to"}),
    ("solv4d", 1, [(1, 1), (2, 2)], _CLOSURE | {"orthogonal to", "pairs with"}),
    ("solv4d", -1, [(1, 1), (2, 2)],
     _CLOSURE | {"orthogonal to", "pairs with"}),
])
def test_harmonic_certificate_matches_the_embedded_route(name, sector,
                                                         bidegrees, notes):
    g = catalog(name)
    prefix = Coefficient.symbol("E1") ** sector if sector else 1
    seen = set()
    for p, q in bidegrees:
        for f in _certificate_forms(g, prefix, p, q):
            got = harmonic_certificate(g, f)
            assert got == _embedded_certificate(g, f), f.render()
            seen.add(" ".join(got[1][0].split()[:2]))
    # both verdicts, and every reason, were compared
    assert seen == notes
    if g.constraints:
        image = g.ddbar(Form.monomial((g.n,), (g.n,)))
        assert not image.is_zero() and g.reduce(image).is_zero()


def test_harmonic_certificate_raises_where_an_image_leaves_the_sector():
    # d phi^2 = E1 phi^{1 1bar} and d phi^4 = phi^{3 3bar}: the del-dbar
    # image of phi^{2 4bar} is E1 phi^{13 13bar}, in sector (1,), which
    # the embedded route would pair with a sector-0 form
    registry.ensure_char("E1")
    E = Coefficient.symbol("E1")
    g = Geometry(
        "twisted4", 4,
        {2: Form.monomial((1,), (1,), E), 4: Form.monomial((3,), (3,))},
        chars={"E1": Form.monomial((1,), ()) - Form.monomial((), (1,))},
    )
    image = g.ddbar(Form.monomial((2,), (4,)))
    assert image == Form.monomial((1, 3), (1, 3), E)
    f = Form.monomial((1, 3), (1, 3))
    assert _embedded_certificate(g, f)[0] is False
    with pytest.raises(SectorMixing):
        harmonic_certificate(g, f)


def _rotated_solv4d() -> Geometry:
    """solv4d with d phi^4 = -i phi^{23}, phi^4 turned by a unit: in
    sectors (1,) and (-1,) some del-dbar images have one real and one
    imaginary entry of equal size."""
    registry.ensure_char("E1")
    return Geometry(
        "solv4d_rotated", 4,
        {
            2: Form.monomial((1, 2), ()),
            3: Form.monomial((1, 3), (), -1),
            4: Form.monomial((2, 3), (), -Coefficient.i()),
        },
        chars={"E1": Form.monomial((1,), ()) - Form.monomial((), (1,))},
    )


def _complex_family() -> Geometry:
    """d phi^3 = phi^{12}, d phi^4 = phi^{12} + i c phi^{23} on the locus
    c = 0 of a complex parameter c: the del-dbar image of phi^{4 3bar} is
    -phi^{12 12bar} - i c phi^{23 12bar}, two entries, one in the ideal,
    and that of phi^{3 4bar} has the entry i conj(c), in the ideal as the
    conjugate of a constraint."""
    registry.ensure_pair("c")
    c = Coefficient.symbol("c")
    return Geometry(
        "complex_family", 4,
        {
            3: Form.monomial((1, 2), ()),
            4: Form.monomial((1, 2), ())
            + Form.monomial((2, 3), (), Coefficient.i() * c),
        },
        constraints=(c,),
    )


def test_harmonic_certificate_pairs_hermitian_and_drops_ideal_entries():
    i = Coefficient.i()
    orthogonal = (True, ("orthogonal to every invariant del-dbar image",))

    # an exact nonzero form is not harmonic, though the bilinear pairing
    # of its vector with its own column is (-1)^2 + i^2 = 0
    g = _rotated_solv4d()
    E = Coefficient.symbol("E1")
    f = g.ddbar(Form.monomial((), (4,), E))
    assert f == (Form.monomial((1,), (1, 4), -E)
                 + Form.monomial((1,), (2, 3), i * E))
    assert harmonic_certificate(g, f) == (
        False, ("pairs with the del-dbar image of phi[|4]",))
    for prefix in (E, 1 / E):
        for p, q in [(1, 1), (1, 2), (2, 2)]:
            for form in _certificate_forms(g, prefix, p, q):
                want = _embedded_certificate(g, form)
                assert harmonic_certificate(g, form) == want, form.render()

    # phi^{12 23bar} pairs with the image of phi^{3 4bar} to -i c, and
    # phi^{23 12bar} meets the images only in entries of the ideal, which
    # are dropped before the pairing; conj(c) vanishes where c does, so
    # the ideal holds i conj(c), which u * w or a kept entry would give
    g = _complex_family()
    c = Coefficient.symbol("c")
    assert g.ddbar(Form.monomial((4,), (3,))) == (
        Form.monomial((1, 2), (1, 2), -1)
        + Form.monomial((2, 3), (1, 2), -i * c))
    assert g.in_ideal(c.conjugate())
    for f in (Form.monomial((1, 2), (2, 3)), Form.monomial((2, 3), (1, 2))):
        assert harmonic_certificate(g, f) == orthogonal
        assert _embedded_certificate(g, f) == orthogonal
    # with c*phi^{12 12bar} added, the image of phi^{4 3bar} pairs to -c
    # once its entry -i c is dropped; kept, it would give -c + i conj(c),
    # a multiple of neither generator
    f = Form.monomial((2, 3), (1, 2)) + Form.monomial((1, 2), (1, 2), c)
    assert harmonic_certificate(g, f) == orthogonal
    assert _embedded_certificate(g, f) == orthogonal
    for p, q in [(1, 1), (2, 1), (2, 2)]:
        for form in _certificate_forms(g, 1, p, q):
            want = _embedded_certificate(g, form)
            assert harmonic_certificate(g, form) == want, form.render()
