"""Kuranishi series, branch reduction and their error paths.

Iwasawa is unobstructed with one parameter per (leg, generator) pair
(Nakamura 1975).  The branch facts follow by hand from the obstruction
ideals: with t11 nonzero, t11*t12 and t11*t13 force t12 = t13 = 0, after
which t11*t23 - t13*t21/2 and t11*t32 - t12*t31/2 force t23 = t32 = 0.

On h3x (d phi^3 = d phi^4 = phi^{12}) the degree-2 bracket on legs 3 and
4 is (t12*t21 - t11*t22) phi^{12bar}, and dbar sends both phi^{3bar} and
phi^{4bar} to phi^{12bar}; the minimum-norm primitive, Kuranishi's
harmonic gauge, splits the coefficient evenly between them.

Each sector's dbar matrix is built and factored into its pseudo-inverse
once per geometry: the builds below read 3 distinct sector systems.
"""

import gc
import re
import weakref

import pytest

from ihg.catalog import catalog, torus
from ihg.coefficients import Coefficient
from ihg.cohomology import (
    SectorComplex,
    bc_class,
    harmonic_certificate,
    solve_dbar,
)
from ihg.deformation import deform, mc_equation
from ihg.exterior import Form
from ihg.geometry import Geometry
from ihg import coefficients as coefficients_module
from ihg import kuranishi as kuranishi_module
from ihg.kuranishi import (
    BranchSpec,
    DepthCapReached,
    InconsistentBranch,
    KuranishiSeries,
    NotTerminated,
    branch_reduce,
    kuranishi_build,
    series_to_deformation,
)

S = Coefficient.symbol


def test_iwasawa_is_unobstructed():
    g = catalog("iwasawa")
    series = kuranishi_build(g)
    assert series.terminated
    assert series.parameters == ("t11", "t12", "t21", "t22", "t31", "t32")
    assert series.ideal == ()
    psi = series_to_deformation(series)
    assert deform(g, psi).is_integrable()
    assert mc_equation(g, psi).is_zero()


def test_h3x_takes_the_minimum_norm_primitive(h3x):
    series = kuranishi_build(h3x)
    assert series.ideal == ()
    c = (S("t12") * S("t21") - S("t11") * S("t22")) / 2
    expected = Form.monomial((), (3,), c) + Form.monomial((), (4,), c)
    psi_2 = series.psi_terms[2].components
    assert set(psi_2) == {3, 4}
    assert psi_2[3] == expected
    assert psi_2[4] == expected
    assert deform(h3x, series_to_deformation(series)).is_integrable()


@pytest.mark.parametrize("name", ["nakamura_3b", "solv4d"])
def test_nonzero_t11_forces_zeros(name):
    g = catalog(name)
    series = kuranishi_build(g)
    spec = BranchSpec(nonzeros=("t11",))
    branch = branch_reduce(series, spec)
    assert branch.forced_zeros == ("t12", "t13", "t23", "t32")
    assert not {"t12", "t13", "t23", "t32"} & set(branch.parameters)
    if name == "nakamura_3b":
        # no relation survives, so the branch solves Maurer-Cartan exactly
        assert branch.ideal == ()
        assert mc_equation(g, series_to_deformation(branch)).is_zero()
    if name == "solv4d":
        for relation in (
            S("t11") * S("t42") - S("t22") * S("t31"),
            S("t11") * S("t43") - S("t21") * S("t33"),
        ):
            assert relation in branch.ideal


def test_branch_relations_are_monic_and_deduplicated():
    series = kuranishi_build(catalog("iwasawa"))
    det = S("t11") * S("t22") - S("t12") * S("t21")
    branch = branch_reduce(
        series, BranchSpec(relations=(2 * det, -det, 3 * S("t11") * S("t31")))
    )
    assert branch.ideal == (det, S("t11") * S("t31"))
    assert branch.forced_zeros == ()


def test_a_conjugate_name_stands_for_its_parameter():
    series = kuranishi_build(catalog("iwasawa"))
    want = branch_reduce(series, BranchSpec(zeros=("t21",)))
    assert want.forced_zeros == ("t21",)
    assert "t21" not in want.parameters
    for spec in (
        BranchSpec(zeros=("t21_c",)),
        BranchSpec(relations=(S("t21_c"),)),
    ):
        got = branch_reduce(series, spec)
        assert got.forced_zeros == want.forced_zeros
        assert got.parameters == want.parameters
        assert got.psi_terms == want.psi_terms


@pytest.mark.parametrize("zero, nonzero", [("t11_c", "t11"), ("t11", "t11_c")])
def test_a_conjugate_name_cannot_be_zero_and_nonzero(zero, nonzero):
    series = kuranishi_build(catalog("nakamura_3b"))
    with pytest.raises(InconsistentBranch):
        branch_reduce(series, BranchSpec(zeros=(zero,), nonzeros=(nonzero,)))


@pytest.mark.parametrize("field", ["zeros", "nonzeros"])
def test_a_branch_names_no_character(field):
    series = kuranishi_build(catalog("nakamura_3b"))
    with pytest.raises(ValueError, match="not characters"):
        branch_reduce(series, BranchSpec(**{field: ("E1",)}))


def test_depth_cap_reached():
    with pytest.raises(DepthCapReached):
        kuranishi_build(catalog("solv4d"), depth_cap=2)


def test_unterminated_series_is_not_truncated():
    series = kuranishi_build(catalog("iwasawa"))
    open_series = KuranishiSeries(
        series.geom,
        series.parameters,
        series.psi_terms,
        series.ideal,
        terminated=False,
        checked_through=series.checked_through,
    )
    with pytest.raises(NotTerminated):
        series_to_deformation(open_series)


def test_zero_and_nonzero_at_once_is_inconsistent():
    with pytest.raises(InconsistentBranch):
        BranchSpec(zeros=("t11",), nonzeros=("t11",))


def test_nonzero_product_relation_is_inconsistent():
    # t11*t12 lies in the nakamura_3b ideal, so both cannot be nonzero
    series = kuranishi_build(catalog("nakamura_3b"))
    with pytest.raises(InconsistentBranch):
        branch_reduce(series, BranchSpec(nonzeros=("t11", "t12")))


def test_full_family_residual_lies_in_the_ideal():
    # the whole first-order-plus-corrections psi, deformed without a
    # branch: every Maurer-Cartan residual coefficient reduces to 0
    # modulo the obstruction ideal
    g = catalog("nakamura_3b")
    series = kuranishi_build(g)
    d = deform(g, series.psi(), require_mc=False)
    residual = [c for f in d.mc_residual.values() for _, c in f.terms()]
    assert len(residual) == 9
    for c in residual:
        assert c.reduce_modulo(series.ideal).is_zero()


def _count_matrices(monkeypatch) -> list:
    calls = []
    matrix = SectorComplex.matrix

    def counted(self, *args):
        calls.append((self.sector, args[1:]))
        return matrix(self, *args)

    monkeypatch.setattr(SectorComplex, "matrix", counted)
    return calls


@pytest.mark.parametrize("name", ["nakamura_3b", "solv4d"])
def test_sector_systems_are_built_once(name, monkeypatch):
    g = catalog(name)
    calls = _count_matrices(monkeypatch)
    kuranishi_build(g)
    assert len(calls) == 3
    assert len(set(calls)) == 3


@pytest.mark.parametrize("name", ["iwasawa", "solv4d"])
def test_each_bracket_pair_is_computed_once(name, monkeypatch):
    # [psi_i, psi_j] = [psi_j, psi_i]: degrees 2, 3 and 4 take the pairs
    # (1, 1), (1, 2) and (2, 2), where both orders would take 4 brackets
    calls = []
    bracket_terms = kuranishi_module._bracket_terms

    def counted(geom, a, b, weight=1):
        calls.append(geom.name)
        return bracket_terms(geom, a, b, weight)

    monkeypatch.setattr(kuranishi_module, "_bracket_terms", counted)
    kuranishi_build(catalog(name))
    assert len(calls) == 3


_SOLV4D_SERIES = {
    "geometry": "solv4d",
    "parameters": [f"t{i}{lam}" for i in range(1, 5) for lam in range(1, 4)],
    "psi": [
        {"degree": 1, "legs": {
            str(i): f"t{i}1*phi[|1] + E1*t{i}2*phi[|2] + t{i}3/E1*phi[|3]"
            for i in range(1, 5)}},
        {"degree": 2, "legs": {
            "4": "(t12*t43 + t13*t42 - t22*t33 + t23*t32)*phi[|4]"}},
    ],
    "ideal": [
        "t11*t12", "t11*t13", "t12*t21", "t13*t31",
        "t11*t23 - 1/2*t13*t21", "t11*t32 - 1/2*t12*t31",
        "t11*t42 + t21*t32 - t22*t31", "t11*t43 - t21*t33 + t23*t31",
        "t12*t13", "t12*t23", "t13*t32",
    ],
    "terminated": True,
    "checked_through": 4,
    "forced_zeros": [],
}


def test_each_leg_form_is_differentiated_once(monkeypatch):
    # degrees 2, 3 and 4 bracket (psi_1, psi_1), (psi_1, psi_2) and
    # (psi_2, psi_2): psi_1 and psi_2 have four legs each, and the build
    # keeps the d table of each, so 8 derivations where every bracket
    # taking its own would take 16.  Every leg is pure (0,1), and the
    # bracket reads its d only through contract_holo, which kills the
    # (0,2) half, so each takes del alone and no full d
    g = catalog("solv4d")
    calls, full = [], []
    del_op, d = Geometry.del_op, Geometry.d

    def counted(self, form):
        calls.append(form)
        return del_op(self, form)

    def counted_d(self, form):
        full.append(form)
        return d(self, form)

    monkeypatch.setattr(Geometry, "del_op", counted)
    monkeypatch.setattr(Geometry, "d", counted_d)
    series = kuranishi_build(g)
    assert len(calls) == 8
    assert len({id(f) for f in calls}) == 8
    assert all(f.is_pure(0, 1) for f in calls)
    assert full == []
    monkeypatch.undo()
    assert series.to_json_dict() == _SOLV4D_SERIES


def test_build_and_branch_deform_cost(monkeypatch):
    # each Kuranishi product is formed once: the degree's bracket is one
    # sum per output coefficient, and deform builds only its (0,2) residual;
    # the build takes d of each leg once (181 and 138 when each bracket
    # took its own), and its sector twists read the dlog table (161 sums
    # when each twisted split wedged a sector 1-form on).  A unit product
    # is no sum, a pseudo-inverse of independent columns is one normal
    # solve, and deform forms only the (0,1) parts of the inverse's rows:
    # the bounds were 146 sums and 122 _make for the build, 79 sums and 92
    # _make for deform; a leg with no holomorphic part takes del alone
    # and the euler of a character atom is closed: 105 sums for the build
    calls = {"sum_of_products": 0, "_make": 0}
    for name in calls:
        original = getattr(Coefficient, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(Coefficient, name, staticmethod(counted))
    g = catalog("solv4d")
    calls.update(dict.fromkeys(calls, 0))
    series = kuranishi_build(g)
    build = dict(calls)
    psi = series_to_deformation(
        branch_reduce(series, BranchSpec(nonzeros=("t11",))))
    calls.update(dict.fromkeys(calls, 0))
    deform(g, psi, require_mc=False)
    assert build["sum_of_products"] <= 85 and build["_make"] <= 106
    assert calls["sum_of_products"] <= 61 and calls["_make"] <= 76


def test_the_ideal_is_one_reducer(monkeypatch):
    # the build keeps its ideal in one reducer, which builds the division
    # table of each generator once and divides no dividend of lower degree
    # than every lead (72 _remainder calls when each reduction set up the
    # whole ideal again)
    calls, built = [], []
    remainder, table = coefficients_module._remainder, coefficients_module._table

    def counted(*args):
        calls.append(args)
        return remainder(*args)

    def first_build(g):
        if getattr(g, "_div", None) is None:
            built.append(g)
        return table(g)

    g = catalog("solv4d")
    monkeypatch.setattr(coefficients_module, "_remainder", counted)
    monkeypatch.setattr(coefficients_module, "_table", first_build)
    series = kuranishi_build(g)
    assert len(calls) <= 64
    assert len(series.ideal) == 11
    for gen in series.ideal:
        assert sum(p == gen._num for p in built) == 1


def test_branch_reduce_prepares_one_point_per_round(monkeypatch):
    # a fixpoint round substitutes every pending generator at one point,
    # and the psi parts share one (24 with_partners calls when each
    # coefficient prepared its own)
    series = kuranishi_build(catalog("solv4d"))
    calls = []
    with_partners = coefficients_module.with_partners

    def counted(point):
        calls.append(point)
        return with_partners(point)

    monkeypatch.setattr(coefficients_module, "with_partners", counted)
    branch_reduce(series, BranchSpec(nonzeros=("t11",)))
    assert len(calls) <= 4


def test_branch_reduce_evaluates_by_mask(monkeypatch):
    # a zero drops its terms and a free parameter stays in the packed
    # monomial, so the only powers taken are the atoms' in the quotient
    # (74 when every monomial was a product of Coefficient powers, unbound
    # symbols included)
    series = kuranishi_build(catalog("solv4d"))
    calls = []
    power = Coefficient.__pow__

    def counted(self, k):
        calls.append(k)
        return power(self, k)

    monkeypatch.setattr(Coefficient, "__pow__", counted)
    branch_reduce(series, BranchSpec(nonzeros=("t11",)))
    assert len(calls) <= 4


def test_generators_are_checked_once(monkeypatch):
    # Geometry._validate checks the catalog's generators; the build reads
    # them and checks nothing again
    calls = []
    check = Geometry.check_generator

    def counted(self, g):
        calls.append(g)
        return check(self, g)

    monkeypatch.setattr(Geometry, "check_generator", counted)
    g = catalog("solv4d")
    kuranishi_build(g)
    assert len(calls) == 3
    assert calls == list(g.generators)


def test_a_geometry_without_generators_is_refused():
    with pytest.raises(ValueError, match="'torus' declares no deformation"):
        kuranishi_build(torus())


def test_a_structure_that_is_not_complex_parallelizable_is_refused():
    # d phi^3 = phi^{1 1bar}: dbar on T^{1,0}-valued forms sends
    # phi^{2bar} Z_1 to phi^{12bar} Z_3, which the scalar dbar misses.  The
    # build by the scalar dbar returned a terminated series with an empty
    # ideal whose mc_equation was t12 phi^{12bar} Z_3, not zero.
    g = Geometry("probe", 3, {3: Form.monomial((1,), (1,))},
                 generators=(Form.monomial((), (1,)), Form.monomial((), (2,))))
    with pytest.raises(ValueError, match=re.escape(
            "'probe' has a structure term other than a (2,0) one: its "
            "T^{1,0} is not holomorphically trivial")):
        kuranishi_build(g)


def test_solve_dbar_reuses_the_sector_system(h3x, monkeypatch):
    calls = _count_matrices(monkeypatch)
    rhs = Form.monomial((), (1, 2))
    first = solve_dbar(h3x, rhs, 0, 1)
    second = solve_dbar(h3x, rhs * 4, 0, 1)
    assert len(calls) == 1
    assert second == first * 4
    assert h3x.dbar(second) == rhs * 4


def test_built_geometry_is_freed_without_the_cycle_collector():
    # the geometry's tables hold matrices, forms and coefficients only, so
    # no reference cycle keeps a geometry alive once its caller lets go
    gc.disable()
    try:
        g = catalog("solv4d")
        series = kuranishi_build(g)
        assert g.bracket(("h", 1), ("h", 2))
        assert g._bracket_table
        top = Form.monomial((1, 2, 3, 4), (1, 2, 3, 4))
        assert not bc_class(g, top).is_zero()
        assert harmonic_certificate(g, top)[0]
        ref = weakref.ref(g)
        del g, series
        assert ref() is None
    finally:
        gc.enable()
