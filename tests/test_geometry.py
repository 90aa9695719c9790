"""Structure equations, d operator, catalog, and DSL round trips.

The numeric cross-checks realize each geometry in explicit coordinates
and differentiate with finite differences (tests/oracles.py); the engine
must agree at random sample points.
"""

import random

import pytest

from ihg.catalog import CATALOG_NAMES, UnknownName, catalog, torus
from ihg.coefficients import Coefficient
from ihg.dsl import (
    ParseError,
    ValidationError,
    parse_coefficient,
    parse_form,
    parse_geometry,
    render_geometry,
)
from ihg.exterior import Form
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
        assert check_nilpotent_shape(geom).matches

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
            shape = check_nilpotent_shape(catalog(nm))
            assert shape.matches is want, nm
            assert shape.top_index == catalog(nm).n

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
            assert check_nilpotent_shape(geom).matches == (lower and top_clean)

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


class TestBrackets:
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

    def test_frame_action_on_character(self):
        geom = catalog("nakamura_3b")
        e = Coefficient.symbol("E1")
        assert geom.frame_action(("h", 1), e) == e
        assert geom.frame_action(("a", 1), e) == -e
        assert geom.frame_action(("h", 2), e).is_zero()
        # inverse character picks up the opposite weight
        assert geom.frame_action(("h", 1), e.conjugate()) == -e.conjugate()


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
                    geom.d_coframe("h", k), coframe, chars, point_params
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

    def test_d_squared_violation_rejected(self):
        structure = {
            1: Form.monomial((2,), (2,)),
            2: Form.monomial((1,), (1,)),
        }
        with pytest.raises(StructureError) as err:
            Geometry("bad", 2, structure)
        assert err.value.kind == "d2_nonzero"

    def test_character_must_be_registered(self):
        dlog = Form.monomial((1,), ()) - Form.monomial((), (1,))
        registry.ensure_pair("t11")
        with pytest.raises(KeyError):
            Geometry("bad", 2, {}, chars={"F9": dlog})

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
