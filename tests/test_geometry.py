"""Structure equations, d operator, catalog, and DSL round trips.

The numeric cross-checks realize each geometry in explicit coordinates
and differentiate with finite differences (tests/oracles.py); the engine
must agree at random sample points.
"""

import random
from itertools import combinations

import pytest

from ihg.catalog import CATALOG_NAMES, UnknownName, catalog, torus
from ihg.coefficients import Coefficient
from ihg.deformation import Deformation
from ihg.dsl import (
    ParseError,
    ValidationError,
    parse_coefficient,
    parse_form,
    parse_geometry,
    render_geometry,
)
from ihg.exterior import Form, VectorForm
from ihg.geometry import Geometry, StructureError, check_nilpotent_shape
from ihg.metrics import pluriclosed_criterion
from ihg.symbols import registry

from oracles import (
    CoordForm,
    chart,
    max_deviation,
    numeric_point,
    realize,
    sample_points,
)

TOL = 5e-6

FAMILY_VALUES = {
    "nilfamily_ft": {
        "a2": complex(0.5, -0.25),
        "a3": complex(-0.75, 0.5),
        "a5": complex(0.25, 0.25),
        "a10": complex(-0.5, 0.125),
        "a12": complex(0.375, -0.5),
    },
    "fps_family": {
        "A": complex(0.5, 0.25),
        "B": complex(-0.25, 0.5),
        "C": complex(0.75, -0.125),
        "D": complex(-0.375, -0.25),
        "E": complex(0.125, 0.625),
    },
}


def _point_params(geom):
    values = FAMILY_VALUES.get(geom.name, {})
    pairs = {}
    for nm in values:
        sym = registry.lookup(nm)
        pairs[nm] = sym.conjugate_of
    return numeric_point(pairs, values)


class TestCatalog:
    def test_all_entries_validate(self):
        for nm in CATALOG_NAMES:
            geom = catalog(nm)
            assert geom.name == nm

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            catalog("heisenberg_17")

    def test_torus_is_abelian(self):
        geom = torus(4)
        assert all(f.is_zero() for f in geom.structure.values())
        assert check_nilpotent_shape(geom)

    def test_nilfamily_at_zero_is_abelian(self):
        geom = catalog("nilfamily_ft")
        flat = geom.substitute({nm: 0 for nm in geom.free_parameters()})
        assert all(f.is_zero() for f in flat.structure.values())
        assert flat.constraints == ()

    def test_nilpotent_shape(self):
        expected = {
            "iwasawa": True,
            "nakamura_3b": False,
            "solv4d": False,
            "nilfamily_ft": True,
            "fps_family": True,
        }
        for nm, want in expected.items():
            assert check_nilpotent_shape(catalog(nm)) is want, nm

    def test_nilpotent_shape_agrees_with_term_scan(self):
        for nm in CATALOG_NAMES:
            geom = catalog(nm)
            lower = all(
                geom.structure[k].is_zero() for k in range(1, geom.n)
            )
            top_clean = all(
                geom.n not in mi.holo and geom.n not in mi.anti
                for mi, _ in geom.structure[geom.n].terms()
            )
            assert check_nilpotent_shape(geom) == (lower and top_clean)

    def test_criterion_value_fps(self):
        geom = catalog("fps_family")
        (crit,) = geom.constraints
        a, b, c, d, e = (Coefficient.symbol(nm) for nm in "ABCDE")
        want = (
            a * a.conjugate()
            + d * d.conjugate()
            + e * e.conjugate()
            + b.conjugate() * c
            + b * c.conjugate()
        )
        assert crit == want

    def test_criterion_value_iwasawa(self):
        # dphi3 = -phi^{12} alone gives criterion 1: no pluriclosed metric
        assert pluriclosed_criterion(catalog("iwasawa")) == Coefficient.one()

    def test_criterion_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            pluriclosed_criterion(catalog("nakamura_3b"))
        with pytest.raises(ValueError):
            pluriclosed_criterion(catalog("solv4d"))

    def test_nilfamily_constraint(self):
        geom = catalog("nilfamily_ft")
        (constraint,) = geom.constraints
        a2, a3, a5, a10, a12 = (
            Coefficient.symbol(nm) for nm in ("a2", "a3", "a5", "a10", "a12")
        )
        want = (
            a2 * a2.conjugate()
            + a5 * a5.conjugate()
            + a10 * a10.conjugate()
            - a3 * a12.conjugate()
            - a3.conjugate() * a12
        )
        assert constraint == want


def _deformed_iwasawa() -> Geometry:
    names = ("t11", "t12", "t21", "t22")
    for nm in names:
        registry.ensure_pair(nm)
    t11, t12, t21, t22 = map(Coefficient.symbol, names)
    psi = VectorForm({
        1: Form.monomial((), (1,), t11) + Form.monomial((), (2,), t12),
        2: Form.monomial((), (1,), t21) + Form.monomial((), (2,), t22),
        3: Form.monomial((), (3,), t12 * t21 - t11 * t22),
    })
    return Deformation(catalog("iwasawa"), psi).geometry()


def _contracted_bracket(geom, x, y):
    """[X, Y] by evaluating every structure equation, and its conjugate,
    on (X, Y) by two interior products: alpha([X,Y]) = -d(alpha)(X,Y)."""
    def contract(form, z):
        return form.contract_holo(z[1]) if z[0] == "h" else (
            form.contract_anti(z[1]))

    out = {}
    for s in range(1, geom.n + 1):
        for flavor, form in (("h", geom.structure[s]),
                             ("a", geom.structure[s].conjugate())):
            c = -contract(contract(form, x), y).coeff((), ())
            if not c.is_zero():
                out[(flavor, s)] = c
    return out


class TestBrackets:
    @pytest.mark.parametrize("name", CATALOG_NAMES + (
        "torus", "deformed_iwasawa", "twisted"))
    def test_bracket_table_matches_double_contraction(self, name, request):
        if name == "torus":
            geom = torus()
        elif name == "deformed_iwasawa":
            geom = _deformed_iwasawa()
        elif name == "twisted":
            geom = request.getfixturevalue("twisted")
        else:
            geom = catalog(name)
        labels = [(f, k) for f in "ha" for k in range(1, geom.n + 1)]
        for x in labels:
            for y in labels:
                got = geom.bracket(x, y)
                # same entries in the same order
                assert list(got.items()) == list(
                    _contracted_bracket(geom, x, y).items()), (x, y)
                assert geom.bracket(y, x) == {z: -c for z, c in got.items()}

    @pytest.mark.parametrize("name", ["iwasawa", "nakamura_3b", "solv4d"])
    def test_mixed_pairs_are_empty(self, name):
        geom = catalog(name)
        for mu in range(1, geom.n + 1):
            for j in range(1, geom.n + 1):
                assert geom.bracket(("a", mu), ("h", j)) == {}
                assert geom.bracket(("h", j), ("a", mu)) == {}

    def test_iwasawa_heisenberg(self):
        geom = catalog("iwasawa")
        br = geom.bracket(("h", 1), ("h", 2))
        assert br == {("h", 3): Coefficient.one()}
        for pair in [(("h", 1), ("h", 3)), (("h", 2), ("h", 3)),
                     (("h", 1), ("a", 2))]:
            assert geom.bracket(*pair) == {}

    def test_nakamura_solvable(self):
        geom = catalog("nakamura_3b")
        assert geom.bracket(("h", 1), ("h", 2)) == {("h", 2): -Coefficient.one()}
        assert geom.bracket(("h", 1), ("h", 3)) == {("h", 3): Coefficient.one()}
        assert geom.bracket(("h", 2), ("h", 3)) == {}

    def test_solv4d_tower(self):
        geom = catalog("solv4d")
        assert geom.bracket(("h", 1), ("h", 2)) == {("h", 2): -Coefficient.one()}
        assert geom.bracket(("h", 1), ("h", 3)) == {("h", 3): Coefficient.one()}
        assert geom.bracket(("h", 2), ("h", 3)) == {("h", 4): Coefficient.one()}

    def test_bracket_table_survives_a_changed_result(self):
        geom = catalog("solv4d")
        br = geom.bracket(("h", 2), ("h", 3))
        br[("h", 4)] = Coefficient.zero()
        br[("h", 1)] = Coefficient.one()
        geom.bracket(("h", 1), ("h", 2)).clear()
        assert geom.bracket(("h", 2), ("h", 3)) == {("h", 4): Coefficient.one()}
        assert geom.bracket(("h", 1), ("h", 2)) == {("h", 2): -Coefficient.one()}

    def test_frame_action_on_character(self):
        # X(c) is the coefficient of d c at the frame slot of X; d of the
        # scalar form c reads the dlog table's entry of the empty monomial
        geom = catalog("nakamura_3b")
        e = Coefficient.symbol("E1")
        de = geom.d(Form.scalar(e))
        assert de.coeff((1,), ()) == e
        assert de.coeff((), (1,)) == -e
        assert de.coeff((2,), ()).is_zero()
        # inverse character picks up the opposite weight
        assert geom.d(Form.scalar(e.conjugate())).coeff((1,), ()) == \
            -e.conjugate()


    def test_d_of_a_character_free_coefficient_runs_no_euler(self, monkeypatch):
        geom = catalog("nakamura_3b")
        registry.ensure_pair("t")
        t, e = Coefficient.symbol("t"), Coefficient.symbol("E1")
        calls = []
        euler = Coefficient.euler

        def counted(c, name):
            calls.append(name)
            return euler(c, name)

        monkeypatch.setattr(Coefficient, "euler", counted)
        assert geom.d(Form.scalar(t / (1 + t * t.conjugate()))).is_zero()
        assert not calls
        dlog = Form.monomial((1,), ()) - Form.monomial((), (1,))
        assert geom.d(Form.scalar(t / (1 + e))) == \
            dlog * (-t * e / (1 + e) ** 2)
        assert calls == ["E1"]


def _monomials(n, top):
    """Every coframe monomial of degree at most top, coefficient 1."""
    return [Form.monomial(holo, anti)
            for k in range(top + 1) for p in range(k + 1)
            for holo in combinations(range(1, n + 1), p)
            for anti in combinations(range(1, n + 1), k - p)]


class TestDifferential:
    def test_solv4d_dbar_of_top_anti(self):
        geom = catalog("solv4d")
        got = geom.dbar(Form.monomial((), (4,)))
        assert got == Form.monomial((), (2, 3), -1)

    def test_iwasawa_ddbar_volume_block(self):
        geom = catalog("iwasawa")
        got = geom.ddbar(Form.monomial((3,), (3,)))
        assert got == Form.monomial((1, 2), (1, 2), -1)

    def test_generators_are_dbar_closed(self):
        for nm in ("iwasawa", "nakamura_3b", "solv4d"):
            geom = catalog(nm)
            for gen in geom.generators:
                assert geom.dbar(gen).is_zero(), nm

    def test_d_squared_on_random_forms(self):
        rng = random.Random(7)
        registry.ensure_pair("t11")
        t = Coefficient.symbol("t11")
        for nm in CATALOG_NAMES:
            geom = catalog(nm)
            coeffs = [Coefficient.one(), t, Coefficient.i() * t]
            if geom.chars:
                e = Coefficient.symbol("E1")
                coeffs += [e, t / (Coefficient.one() + e * e * t)]
            for _ in range(8):
                holo = tuple(sorted(rng.sample(range(1, geom.n + 1),
                                               rng.randint(0, 2))))
                anti = tuple(sorted(rng.sample(range(1, geom.n + 1),
                                               rng.randint(0, 2))))
                f = Form.monomial(holo, anti, rng.choice(coeffs))
                assert geom.d(geom.d(f)).is_zero()

    @pytest.mark.parametrize("s", [-1, 1, 2])
    @pytest.mark.parametrize("name", ["nakamura_3b", "solv4d"])
    def test_twist_is_d_of_the_embedded_form(self, name, s):
        # twisted_split(f, {E1: s}) = chi^-s * d_split(chi^s * f), chi = E1,
        # on coefficients that carry the character themselves: each term
        # adds both its own dlog term and the twist's; on E1*phi^{2bar},
        # s = -1 cancels the character of the coefficient
        geom = catalog(name)
        registry.ensure_pair("t")
        t, e = Coefficient.symbol("t"), Coefficient.symbol("E1")
        c = t * e / (2 + t.conjugate() * e)
        forms = [
            Form.monomial((2, 3), (), c),
            Form.monomial((), (2,), e),
            Form.monomial((2, 3), (), c)
            + Form.monomial((1,), (2,), e.conjugate() + t),
        ]
        for f in forms:
            want = [part * e ** -s for part in geom.d_split(f * e ** s)]
            assert list(geom.twisted_split(f, {"E1": s})) == want, f.render()
        if s == -1:
            # the two character terms of E1*phi^{2bar} cancel
            assert list(geom.twisted_split(forms[1], {"E1": s})) == [
                part * e for part in geom.d_split(Form.monomial((), (2,)))]

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_one_half_views_match_d_split(self, name, monkeypatch):
        # del_op and dbar form only the half they read, by the same
        # terms as d_split; a coefficient with a character adds its dlog
        # terms to each half
        geom = catalog(name)
        registry.ensure_pair("t")
        t = Coefficient.symbol("t")
        coeffs = [Coefficient.one(), t]
        if geom.chars:
            e = Coefficient.symbol("E1")
            coeffs.append(t * e / (2 + t.conjugate() * e))
        for f in _monomials(geom.n, 3):
            for c in coeffs:
                del_part, dbar_part = geom.d_split(f * c)
                assert geom.del_op(f * c) == del_part, f.render()
                assert geom.dbar(f * c) == dbar_part, f.render()
        calls = []
        combination = Form.combination

        def counted(pairs):
            calls.append(pairs)
            return combination(pairs)

        monkeypatch.setattr(Form, "combination", staticmethod(counted))
        geom.dbar(Form.monomial((1,), (1,), coeffs[-1]))
        assert len(calls) == 1

    def test_d_commutes_with_conjugation(self, twisted):
        # validation checks d^2 on phi^k only and relies on d being real:
        # d(conj f) = conj(d f) on every coframe monomial of degree <= 2,
        # characters in the structure (twisted) included
        for geom in [catalog(nm) for nm in CATALOG_NAMES] + [twisted]:
            for f in _monomials(geom.n, 2):
                assert geom.d(f.conjugate()) == geom.d(f).conjugate(), \
                    (geom.name, f.render())

    def test_del_dbar_anticommute(self):
        for nm in CATALOG_NAMES:
            geom = catalog(nm)
            for k in range(1, geom.n + 1):
                f = Form.monomial((k,), (k,))
                lhs = geom.del_op(geom.dbar(f))
                rhs = geom.dbar(geom.del_op(f))
                assert (lhs + rhs).is_zero(), nm


class TestCoordinateOracle:
    """Engine structure equations vs finite differences in explicit charts."""

    def test_structure_equations_match_charts(self):
        rng = random.Random(23)
        for nm in CATALOG_NAMES:
            geom = catalog(nm)
            point_params = _point_params(geom)
            coframe, chars, n = chart(
                nm, FAMILY_VALUES.get(nm)
            )
            points = sample_points(rng, n)
            for k in range(1, n + 1):
                engine = realize(
                    geom.structure[k], coframe, chars, point_params
                )
                coord = coframe[k].d(n)
                dev = max_deviation(engine, coord, points)
                assert dev < TOL, f"{nm} dphi{k} deviates by {dev}"

    def test_d_commutes_with_realization(self):
        rng = random.Random(91)
        registry.ensure_pair("t11")
        t = Coefficient.symbol("t11")
        for nm in CATALOG_NAMES:
            geom = catalog(nm)
            point_params = dict(_point_params(geom))
            point_params["t11"] = complex(0.3, -0.2)
            point_params[registry.lookup("t11").conjugate_of] = complex(
                0.3, 0.2
            )
            coframe, chars, n = chart(nm, FAMILY_VALUES.get(nm))
            points = sample_points(rng, n)
            samples = [
                Form.monomial((1,), (), t),
                Form.monomial((), (n,)),
                Form.monomial((n,), (1,), Coefficient.i()),
                # mixed bidegrees: (1,0) + (1,1) + (0,2)
                Form.monomial((1,), (), t)
                + Form.monomial((n,), (1,), Coefficient.i())
                + Form.monomial((), (1, n), t.conjugate()),
            ]
            if geom.chars:
                e = Coefficient.symbol("E1")
                samples.append(Form.monomial((2,), (2,), e * e))
                samples.append(Form.monomial((), (3,), e.conjugate()))
                # the shape of a Kuranishi leg: a parameter mixed with E1
                # in the numerator, and in an atom
                samples.append(Form.monomial(
                    (1,), (2,), t * e + t.conjugate() / e))
                samples.append(Form.monomial(
                    (2, 3), (), t * e / (2 + t.conjugate() * e)))
            for f in samples:
                lhs = realize(geom.d(f), coframe, chars, point_params)
                rhs = realize(f, coframe, chars, point_params).d(n)
                dev = max_deviation(lhs, rhs, points)
                assert dev < TOL, f"{nm} d({f.render()}) deviates by {dev}"

    def test_bigrading_split_matches_charts(self):
        rng = random.Random(5)
        for nm in ("iwasawa", "nakamura_3b", "solv4d"):
            geom = catalog(nm)
            coframe, chars, n = chart(nm)
            points = sample_points(rng, n)
            samples = [Form.monomial((n,), (n,))]
            if geom.chars:
                # a character coefficient splits as (dE)^{1,0} + (dE)^{0,1}
                samples.append(
                    Form.monomial((n,), (n,), Coefficient.symbol("E1"))
                )
            for f in samples:
                coord = realize(f, coframe, chars, {}).d(n)
                for op, (dp, dq) in ((geom.del_op, (2, 1)), (geom.dbar, (1, 2))):
                    engine = realize(op(f), coframe, chars, {})
                    pruned = {
                        key: fn
                        for key, fn in coord.terms.items()
                        if (len(key[0]), len(key[1])) == (dp, dq)
                    }
                    dev = max_deviation(engine, CoordForm(pruned), points)
                    assert dev < TOL, f"{nm} {f.render()} bidegree {(dp, dq)}"


class TestValidation:
    def test_pure_anti_differential_rejected(self):
        with pytest.raises(StructureError) as err:
            Geometry("bad", 2, {2: Form.monomial((), (1, 2))})
        assert err.value.kind == "not_integrable"

    @pytest.mark.parametrize("holo, anti", [
        ((2,), ()),  # a 1-form: d(phi^1) would read as 0
        ((1, 2), (2,)),  # a 3-form
        ((), ()),  # a function part
    ])
    def test_part_outside_integrable_bidegrees_rejected(self, holo, anti):
        bad = Form.monomial((1,), (1,)) + Form.monomial(holo, anti)
        with pytest.raises(StructureError) as err:
            Geometry("g", 2, {1: bad})
        assert err.value.kind == "not_integrable"
        assert "outside (2,0)+(1,1)" in str(err.value)

    def test_d_squared_violation_rejected(self):
        structure = {
            1: Form.monomial((2,), (2,)),
            2: Form.monomial((1,), (1,)),
        }
        with pytest.raises(StructureError) as err:
            Geometry("bad", 2, structure)
        assert err.value.kind == "d2_nonzero"
        assert str(err.value) == "bad: d^2(phi^1) != 0"

    def test_validation_cost(self, monkeypatch):
        # d^2 is checked on phi^k alone, as d(structure[k]): the conjugate
        # coframe is never differentiated, and a coframe element's d is
        # its structure form, with no wedge by 1 (24 sums before)
        calls, sums = [], []
        d, sum_of_products = Geometry.d, Coefficient.sum_of_products

        def counted_d(self, form):
            calls.append(form)
            return d(self, form)

        def counted_sum(pairs):
            sums.append(pairs)
            return sum_of_products(pairs)

        monkeypatch.setattr(Geometry, "d", counted_d)
        monkeypatch.setattr(Coefficient, "sum_of_products",
                            staticmethod(counted_sum))
        geom = catalog("solv4d")
        assert len(sums) <= 8
        conjugate_coframe = [Form.monomial((), (k,))
                             for k in range(1, geom.n + 1)]
        assert calls and not any(f in conjugate_coframe for f in calls)

    def test_character_must_be_registered(self):
        dlog = Form.monomial((1,), ()) - Form.monomial((), (1,))
        registry.ensure_pair("t11")
        with pytest.raises(StructureError, match="bad: F9 is not") as err:
            Geometry("bad", 2, {}, chars={"F9": dlog})
        assert err.value.kind == "bad_character"
        with pytest.raises(StructureError) as err:
            Geometry("bad", 2, {}, chars={"t11": dlog})
        assert err.value.kind == "bad_character"

    def test_dlog_must_be_anti_self_conjugate(self):
        registry.ensure_char("E1")
        with pytest.raises(StructureError) as err:
            Geometry("bad", 2, {}, chars={"E1": Form.monomial((1,), ())})
        assert err.value.kind == "bad_character"

    def test_generators_checked(self):
        with pytest.raises(StructureError) as err:
            Geometry(
                "bad",
                3,
                {3: Form.monomial((1, 2), (), -1)},
                generators=(Form.monomial((), (3,)),),
            )
        assert err.value.kind == "bad_generator"

    @pytest.mark.parametrize("structure, index", [
        ({4: Form.monomial((1, 2), ())}, 4),
        ({3: Form.monomial((1, 5), ())}, 5),
    ])
    def test_index_outside_the_coframe_rejected(self, structure, index):
        # unchecked, the first would build a torus and the second fail on a
        # missing key
        with pytest.raises(StructureError, match=f"index {index} outside") as err:
            Geometry("g", 3, structure)
        assert err.value.kind == "bad_index"
        assert "g:" in str(err.value)

    def test_index_outside_the_coframe_in_chars_and_generators(self):
        registry.ensure_char("E1")
        dlog = Form.monomial((4,), ()) - Form.monomial((), (4,))
        with pytest.raises(StructureError) as err:
            Geometry("g", 3, {}, chars={"E1": dlog})
        assert err.value.kind == "bad_index"
        gen = Form.monomial((), (7,))
        with pytest.raises(StructureError) as err:
            Geometry("g", 3, {}, generators=(gen,))
        assert err.value.kind == "bad_index"

    def test_index_outside_the_coframe_in_the_dsl(self):
        with pytest.raises(ValidationError) as err:
            parse_geometry("geometry g dim 3;\ndphi3 = phi[1,5];\n")
        assert err.value.code == "BadIndex"

    def test_generator_checked_modulo_constraints(self):
        # dbar(phi^{2bar}) = r phi^{1bar 2bar}, which the constraint r kills
        family = "geometry fam dim 2; real r; dphi2 = r*phi[1,2];"
        g = parse_geometry(family + " constraint r; generator phi[|2];")
        assert g.generators == (Form.monomial((), (2,)),)
        with pytest.raises(ValidationError) as err:
            parse_geometry(family + " generator phi[|2];")
        assert err.value.code == "BadGenerator"
        # without the constraint, dbar-closed fails; zero is no generator
        for forms in ((Form.monomial((), (2,)),), (Form.zero(),)):
            with pytest.raises(StructureError) as err:
                Geometry(g.name, g.n, g.structure, generators=forms)
            assert err.value.kind == "bad_generator"


class TestDsl:
    def test_round_trip_catalog(self):
        for nm in CATALOG_NAMES:
            geom = catalog(nm)
            text = render_geometry(geom)
            assert parse_geometry(text) == geom, nm

    def test_round_trip_twice_is_stable(self):
        for nm in CATALOG_NAMES:
            text = render_geometry(catalog(nm))
            assert render_geometry(parse_geometry(text)) == text, nm

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_geometry("geometry g dim 2;\ndphi2 = phi[1,;\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("name", ["i", "phi", "conj"])
    @pytest.mark.parametrize("head, tail", [
        ("param t, ", ";"),
        ("real s, ", ";"),
        ("char ", " dlog = phi[1] - phi[|1];"),
    ], ids=["param", "real", "char"])
    def test_reserved_name_is_rejected_where_declared(self, head, tail, name):
        src = f"geometry g dim 2;\n{head}{name}{tail}\n"
        with pytest.raises(ParseError) as err:
            parse_geometry(src)
        assert (err.value.line, err.value.col) == (2, len(head) + 1)
        with pytest.raises(KeyError):
            registry.lookup(name)

    @pytest.mark.parametrize("decls, col", [
        ("real t_c;\nparam t;", 7),
        ("param t;\nreal t;", 6),
        ("param E;\nchar E dlog = phi[1] - phi[|1];", 6),
    ], ids=["partner-real", "param-then-real", "param-then-char"])
    def test_registry_clash_is_rejected_where_declared(self, decls, col):
        with pytest.raises(ParseError) as err:
            parse_geometry(f"geometry g dim 2;\n{decls}\n")
        assert (err.value.line, err.value.col) == (3, col)

    def test_param_whose_partner_is_declared_real_is_rejected(self):
        with pytest.raises(ValueError, match="'t_c'"):
            parse_geometry("geometry g dim 1;\nreal t_c;\nparam t;\n")
        with pytest.raises(KeyError):
            registry.lookup("t")
        assert registry.lookup("t_c").kind == "real"

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse_geometry("geometry g dim 2;\nfrobnicate 3;\n")

    def test_undeclared_symbol(self):
        with pytest.raises(ParseError):
            parse_geometry("geometry g dim 2;\ndphi2 = q7*phi[1,2];\n")

    def test_not_integrable_code(self):
        with pytest.raises(ValidationError) as err:
            parse_geometry("geometry g dim 2;\ndphi2 = phi[|1,2];\n")
        assert err.value.code == "NotIntegrable"

    def test_not_integrable_code_for_a_one_form(self):
        with pytest.raises(ValidationError) as err:
            parse_geometry("geometry g dim 2;\ndphi1 = phi[2];\n")
        assert err.value.code == "NotIntegrable"

    def test_d2_code(self):
        src = (
            "geometry g dim 2;\n"
            "dphi1 = phi[2|2];\n"
            "dphi2 = phi[1|1];\n"
        )
        with pytest.raises(ValidationError) as err:
            parse_geometry(src)
        assert err.value.code == "D2NonZero"

    def test_index_normalization_signs(self):
        registry.ensure_pair("t11")
        assert parse_form("phi[2,1]") == Form.monomial((1, 2), (), -1)
        assert parse_form("phi[1|2,1]") == Form.monomial((1,), (1, 2), -1)
        assert parse_form("phi[1,1]").is_zero()

    def test_coefficient_round_trip(self):
        registry.ensure_pair("t11")
        registry.ensure_pair("t21")
        registry.ensure_char("E1")
        t = Coefficient.symbol("t11")
        u = Coefficient.symbol("t21")
        e = Coefficient.symbol("E1")
        one = Coefficient.one()
        cases = [
            one / (one - t * t.conjugate()),
            (t + u * u * Coefficient.i()) / (one + t * u) / (one - u),
            -t * u.conjugate() ** 3,
            Coefficient.i() / Coefficient.from_scalar(2),
            e * e * t - e.conjugate() / (one + t),
        ]
        for c in cases:
            assert parse_coefficient(c.render()) == c

    def test_dimension_bounds(self):
        with pytest.raises(ParseError):
            parse_geometry("geometry g dim 2;\ndphi7 = phi[1,2];\n")

    def test_json_export_shape(self):
        geom = catalog("solv4d")
        data = geom.to_json_dict()
        assert data["dim"] == 4
        assert data["structure"]["dphi4"] == "-phi[2,3]"
        assert data["characters"]["E1"] == "-phi[|1] + phi[1]"
        assert len(data["generators"]) == 3
