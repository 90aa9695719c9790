"""Deformed structure equations, extension calculus, curve obstructions.

Golden values come from independent derivations: coefficient tables were
recomputed by hand (coframe inversion on small matrices) or cross-checked
numerically before being frozen here.
"""

from fractions import Fraction

import pytest

from ihg.catalog import catalog, torus
from ihg.coefficients import Coefficient
from ihg.deformation import (
    BaseConditionFails,
    CurveOfMetrics,
    Deformation,
    DegenerateAtLocus,
    MaurerCartanFails,
    curve_obstruction,
    dbar_vector,
    deform,
    mc_equation,
    vector_bracket,
)
from ihg.exterior import Form, VectorForm
from ihg.geometry import Geometry
from ihg.metrics import (
    InvariantMetric,
    all_or_none_skt,
    balanced_obstruction,
    check_condition,
    pluriclosed_criterion,
    pluriclosed_obstruction,
    strongly_gauduchon,
)
from ihg.symbols import registry

S = Coefficient.symbol
ONE = Coefficient.one


def _pairs(*names):
    for nm in names:
        registry.ensure_pair(nm)
    return [S(nm) for nm in names]


def _mono(holo, anti, c=1):
    return Form.monomial(tuple(holo), tuple(anti), c)


# -- Iwasawa six-parameter family ----------------------------------------------


def _iwasawa_psi(correction=True):
    t11, t12, t21, t22, t31, t32 = _pairs(
        "t11", "t12", "t21", "t22", "t31", "t32"
    )
    det = t11 * t22 - t12 * t21
    third = _mono((), (1,), t31) + _mono((), (2,), t32)
    if correction:
        third = third - _mono((), (3,), det)
    psi = VectorForm({
        1: _mono((), (1,), t11) + _mono((), (2,), t12),
        2: _mono((), (1,), t21) + _mono((), (2,), t22),
        3: third,
    })
    return psi, (t11, t12, t21, t22, t31, t32), det


class TestIwasawaFamily:
    def test_corrected_family_is_integrable(self):
        g = catalog("iwasawa")
        psi, _, _ = _iwasawa_psi()
        assert Deformation(g, psi).is_integrable()

    def test_without_correction_maurer_cartan_fails(self):
        g = catalog("iwasawa")
        psi, _, det = _iwasawa_psi(correction=False)
        with pytest.raises(MaurerCartanFails) as exc:
            Deformation(g, psi)
        assert exc.value.generators == (det.numerator_normalized(),)

    def test_mc_equation_matches_coframe_route(self):
        g = catalog("iwasawa")
        good, _, _ = _iwasawa_psi()
        bad, _, _ = _iwasawa_psi(correction=False)
        assert mc_equation(g, good).is_zero()
        assert not mc_equation(g, bad).is_zero()

    def test_structure_sigma_table(self):
        g = catalog("iwasawa")
        psi, (t11, t12, t21, t22, _, _), det = _iwasawa_psi()
        gt = Deformation(g, psi).geometry()
        assert gt.structure[1].is_zero()
        assert gt.structure[2].is_zero()
        ag = ONE() / (
            ONE() + det * det.conjugate()
            - (t11 * t11.conjugate() + t22 * t22.conjugate()
               + t12 * t21.conjugate() + t12.conjugate() * t21)
        )
        expected = (
            _mono((1, 2), (), ag * (det * det.conjugate() - 1))
            + _mono((1,), (1,), ag * (t21 + t21.conjugate() * det))
            + _mono((1,), (2,), ag * (t22 - t11.conjugate() * det))
            + _mono((2,), (1,), ag * (t22.conjugate() * det - t11))
            + _mono((2,), (2,), ag * (-t12 - t12.conjugate() * det))
        )
        assert gt.structure[3] == expected

    def test_skt_value_is_quartic_times_square(self):
        # |s21'|^2 + |s12'|^2 + |s12|^2 - 2 Re(conj(s22') s11') collapses to
        # (alpha gamma)^2 (|D|^4 + |D|^2 (E - 6) + E + 1) with
        # E = |t11|^2 + |t22|^2 + 2 Re(conj(t12) t21)
        g = catalog("iwasawa")
        psi, (t11, t12, t21, t22, _, _), det = _iwasawa_psi()
        gt = Deformation(g, psi).geometry()
        value = pluriclosed_criterion(gt)
        dd = det * det.conjugate()
        e = (
            t11 * t11.conjugate() + t22 * t22.conjugate()
            + t12.conjugate() * t21 + t12 * t21.conjugate()
        )
        ag = ONE() / (ONE() + dd - e)
        quartic = dd * dd + dd * (e - 6) + e + 1
        assert value == ag * ag * quartic

    def test_base_point_recovers_original_structure(self):
        g = catalog("iwasawa")
        psi, _, _ = _iwasawa_psi()
        zero = {nm: 0 for nm in (
            "t11", "t12", "t21", "t22", "t31", "t32",
            "t11_c", "t12_c", "t21_c", "t22_c", "t31_c", "t32_c",
        )}
        g0 = Deformation(g, psi).specialize(zero).geometry()
        assert g0.structure[3] == g.structure[3]


# -- Iwasawa circle case ---------------------------------------------------------


def _circle_deformation():
    g = catalog("iwasawa")
    registry.ensure_pair("t21")
    t21 = S("t21")
    psi = VectorForm({
        1: _mono((), (2,), -t21),
        2: _mono((), (1,), t21),
        3: _mono((), (3,), -(t21 * t21)),
    })
    return g, t21, Deformation(g, psi)


class TestIwasawaCircle:
    def test_structure(self):
        _, t21, d = _circle_deformation()
        gt = d.geometry()
        T = t21 * t21.conjugate()
        denom = ONE() + T
        expected = (
            _mono((1, 2), (), (T - 1) / denom)
            + _mono((1,), (1,), t21 / denom)
            + _mono((2,), (2,), t21 / denom)
        )
        assert gt.structure[3] == expected

    def test_skt_value(self):
        _, t21, d = _circle_deformation()
        T = t21 * t21.conjugate()
        value = pluriclosed_criterion(d.geometry())
        assert value == (T * T - 4 * T + 1) / ((ONE() + T) * (ONE() + T))

    def test_no_balanced_metrics(self):
        # (conj(t21) d phi_t^3)^{1,1} is positive diagonal, which an exact
        # form never is on a balanced manifold
        _, t21, d = _circle_deformation()
        gt = d.geometry()
        rep = balanced_obstruction(gt, {3: t21.conjugate()})
        T = t21 * t21.conjugate()
        expected = _mono((1,), (1,), T / (ONE() + T)) + _mono(
            (2,), (2,), T / (ONE() + T)
        )
        assert rep.form == expected
        assert rep.positive_11_part
        assert rep.sign == 1

    def test_diagonal_metric_is_strongly_gauduchon(self):
        _, t21, d = _circle_deformation()
        gt = d.geometry()
        m = InvariantMetric.diagonal([Fraction(1, 2)] * 3)
        rep = strongly_gauduchon(gt, m)
        assert rep.holds is True
        assert gt.dbar(rep.witness) == gt.del_op(
            m.fundamental_form().wedge_power(2)
        )

    def test_sg_witness_formula(self):
        # d(conj(t21)/(T-1) phi_t^{123 3bar}) kills the (3,2)-part of
        # d omega_t^2
        _, t21, d = _circle_deformation()
        gt = d.geometry()
        T = t21 * t21.conjugate()
        m = InvariantMetric.diagonal([Fraction(1, 2)] * 3)
        domega2 = gt.d(m.fundamental_form().wedge_power(2))
        expected = _mono((1, 2, 3), (1, 2), t21.conjugate() / (ONE() + T)) + _mono(
            (1, 2), (1, 2, 3), t21 / (ONE() + T)
        )
        assert domega2 == expected
        witness = _mono((1, 2, 3), (3,), t21.conjugate() / (T - 1))
        assert gt.d(witness) == _mono(
            (1, 2, 3), (1, 2), -(t21.conjugate() / (ONE() + T))
        )

    def test_degenerate_at_unit_locus(self):
        g = catalog("iwasawa")
        registry.ensure_pair("t21")
        psi = VectorForm({
            1: _mono((), (2,), -1),
            2: _mono((), (1,), 1),
            3: _mono((), (3,), -1),
        })
        with pytest.raises(DegenerateAtLocus):
            Deformation(g, psi)


# -- extension calculus -----------------------------------------------------------


class TestExtensionCalculus:
    def test_round_trip_coordinates(self):
        g = catalog("iwasawa")
        psi, _, _ = _iwasawa_psi()
        d = Deformation(g, psi)
        samples = [
            _mono((1,), ()),
            _mono((), (2,)),
            _mono((1, 3), (2,)),
            _mono((2,), (1, 3)),
            _mono((1, 2, 3), (1, 2, 3)),
        ]
        for alpha in samples:
            assert d.to_base_coords(d.to_deformed_coords(alpha)) == alpha
            assert d.to_deformed_coords(d.to_base_coords(alpha)) == alpha

    def test_deformed_d_squared_vanishes(self):
        g = catalog("iwasawa")
        psi, _, _ = _iwasawa_psi()
        gt = Deformation(g, psi).geometry()
        for j in range(1, 4):
            assert gt.d(gt.structure[j]).is_zero()

    def test_split_reassembles_d(self):
        g = catalog("iwasawa")
        psi, _, _ = _iwasawa_psi()
        d = Deformation(g, psi)
        gt = d.geometry()
        for alpha in (_mono((3,), ()), _mono((1,), (2,)), _mono((2, 3), (1,))):
            del_part, dbar_part = d.deformed_split(alpha)
            assert del_part + dbar_part == gt.d(alpha)

    def test_operator_route_agrees_all_bidegrees(self):
        g = catalog("iwasawa")
        psi, _, _ = _iwasawa_psi()
        d = Deformation(g, psi)
        samples = [
            _mono((1,), ()),
            _mono((3,), ()),
            _mono((), (1,)),
            _mono((1,), (1,)),
            _mono((1, 2), (3,)),
            _mono((3,), (1, 2)),
            _mono((1, 3), (1, 3)),
        ]
        for alpha in samples:
            assert d.extension_formula_check(alpha)
            assert d.del_t_formula(alpha) == d.deformed_split(alpha)[0]

    def test_operator_route_on_twisted_structure(self):
        g = catalog("nakamura_3b")
        registry.ensure_pair("t11")
        psi = VectorForm({1: _mono((), (1,), S("t11"))})
        d = Deformation(g, psi)
        for alpha in (_mono((2,), ()), _mono((2,), (2,)), _mono((1, 3), (2,))):
            assert d.extension_formula_check(alpha)

    def test_extension_identity_without_deformation(self):
        g = catalog("iwasawa")
        d = Deformation(g, VectorForm({}))
        alpha = _mono((1, 2), (1,), Coefficient.i())
        assert d.extension(alpha) == alpha
        assert d.to_deformed_coords(alpha) == alpha


# -- vector-form calculus ----------------------------------------------------------


class TestVectorCalculus:
    def test_bracket_is_symmetric_on_01_forms(self):
        g = catalog("iwasawa")
        a2, b3 = _pairs("va", "vb")
        x = VectorForm({1: _mono((), (1,), a2), 3: _mono((), (2,))})
        y = VectorForm({2: _mono((), (2,), b3), 3: _mono((), (1,))})
        left = vector_bracket(g, x, y)
        right = vector_bracket(g, y, x)
        for leg in set(left.components) | set(right.components):
            lf = left.components.get(leg, Form.zero())
            rf = right.components.get(leg, Form.zero())
            assert lf == rf

    def test_dbar_vector_of_closed_generators(self):
        g = catalog("nakamura_3b")
        e = S("E1")
        closed = VectorForm({
            1: _mono((), (1,)),
            2: _mono((), (2,), e),
            3: _mono((), (3,), e.conjugate()),
        })
        assert dbar_vector(g, closed).is_zero()

    def test_dbar_vector_mixed_bracket(self):
        # d phi^3 = phi^{1 1bar} gives [conj Z1, Z1] = Z3 - conj Z3, whose
        # (1,0)-part feeds the Z3 leg; the catalog's holomorphically
        # parallelizable entries have no mixed brackets
        g = Geometry("h3", 3, {3: _mono((1,), (1,))})

        def on_z1(eta):
            return dbar_vector(g, VectorForm({1: eta}))

        assert on_z1(_mono((), (2,))) == VectorForm({3: _mono((), (1, 2))})
        assert on_z1(_mono((1,), (2,))) == VectorForm(
            {3: _mono((1,), (1, 2), -1)}
        )
        assert on_z1(_mono((), (2,)) + _mono((1,), (2,))) == VectorForm(
            {3: _mono((), (1, 2)) - _mono((1,), (1, 2))}
        )

    def test_torus_bracket_vanishes(self):
        g = torus(2)
        _pairs("w1")
        x = VectorForm({1: _mono((), (1,), S("w1"))})
        assert vector_bracket(g, x, x).is_zero()
        assert mc_equation(g, x).is_zero()


# -- Nakamura class (1) -------------------------------------------------------------


def _nakamura_class1():
    g = catalog("nakamura_3b")
    registry.ensure_pair("t11")
    t11 = S("t11")
    psi = VectorForm({1: _mono((), (1,), t11)})
    return g, t11, Deformation(g, psi)


class TestNakamuraClass1:
    def test_structure(self):
        _, t11, d = _nakamura_class1()
        gt = d.geometry()
        T1 = ONE() / (ONE() - t11 * t11.conjugate())
        assert gt.structure[1].is_zero()
        assert gt.structure[2] == _mono((1, 2), (), T1) + _mono(
            (2,), (1,), t11 * T1
        )
        assert gt.structure[3] == _mono((1, 3), (), -T1) + _mono(
            (3,), (1,), -(t11 * T1)
        )

    def test_ddbar_of_fiber_volume(self):
        # del dbar phi_t^{2 2bar} = -T1^2 (1 - t11)(1 - conj t11)
        # phi_t^{12 1bar2bar}; the T1^2 weight is what the coframe change
        # actually produces
        _, t11, d = _nakamura_class1()
        gt = d.geometry()
        T1 = ONE() / (ONE() - t11 * t11.conjugate())
        w = (ONE() - t11) * (ONE() - t11.conjugate())
        assert gt.ddbar(_mono((2,), (2,))) == _mono((1, 2), (1, 2), -(T1 * T1 * w))

    def test_no_skt_metric(self):
        _, _, d = _nakamura_class1()
        gt = d.geometry()
        rep = pluriclosed_obstruction(gt, _mono((2,), (2,)), 1)
        assert rep.obstructed
        assert rep.sign == -1

    def test_balanced_diagonal(self):
        _, _, d = _nakamura_class1()
        gt = d.geometry()
        m = InvariantMetric.identity(3)
        assert check_condition(gt, m, "balanced").holds is True


# -- Nakamura class (3) -------------------------------------------------------------


def _nakamura_class3():
    g = catalog("nakamura_3b")
    t12, t22 = _pairs("t12", "t22")
    e = S("E1")
    psi = VectorForm({
        1: _mono((), (2,), t12 * e),
        2: _mono((), (2,), t22 * e),
    })
    return g, (t12, t22, e), Deformation(g, psi)


class TestNakamuraClass3:
    def test_structure(self):
        _, (t12, t22, e), d = _nakamura_class3()
        gt = d.geometry()
        S2 = ONE() / (ONE() - t22 * t22.conjugate())
        assert gt.structure[1] == _mono((1,), (2,), S2 * t12 * e) + _mono(
            (1, 2), (), -(S2 * t12 * t22.conjugate())
        )
        assert gt.structure[2] == _mono((1, 2), ()) + _mono(
            (2,), (2,), S2 * t12 * e
        )
        assert gt.structure[3] == (
            _mono((1, 3), (), -1)
            + _mono((2, 3), (), -(S2 * t12 * t22.conjugate()))
            + _mono((3,), (2,), -(S2 * t12 * e))
        )

    def test_ddbar_of_fiber_volume(self):
        _, _, d = _nakamura_class3()
        gt = d.geometry()
        assert gt.ddbar(_mono((2,), (2,))) == _mono((1, 2), (1, 2), -1)

    def test_diagonal_products_are_closed(self):
        _, _, d = _nakamura_class3()
        gt = d.geometry()
        for j, k in ((1, 2), (1, 3), (2, 3)):
            assert gt.d(_mono((j, k), (j, k))).is_zero()

    def test_balanced_but_not_skt(self):
        _, _, d = _nakamura_class3()
        gt = d.geometry()
        m = InvariantMetric.identity(3)
        assert check_condition(gt, m, "balanced").holds is True
        rep = pluriclosed_obstruction(gt, _mono((2,), (2,)), 1)
        assert rep.obstructed
        assert rep.sign == -1


# -- nilpotent family: integrability locus -------------------------------------------


def _ft_psi(r, s):
    return VectorForm({1: _mono((), (1,), r), 3: _mono((), (3,), s)})


class TestFtFamilyDeformation:
    def test_structure_of_generic_extension(self):
        g = catalog("nilfamily_ft")
        r, s = _pairs("r", "s")
        a2, a3, a5, a10, a12 = (S(nm) for nm in ("a2", "a3", "a5", "a10", "a12"))
        d = Deformation(g, _ft_psi(r, s), require_mc=False)
        rr = ONE() - r * r.conjugate()
        ss = ONE() - s * s.conjugate()
        R = ONE() / (rr * ss)
        expected = (
            _mono((1, 3), (), (a2 + r.conjugate() * a10 - s.conjugate() * a5) * R)
            + _mono((1,), (1,), a3 / rr)
            + _mono((1,), (3,), (a5 - s * a2 - r.conjugate() * s * a10) * R)
            + _mono((3,), (1,), (a10 + r * a2 - r * s.conjugate() * a5) * R)
            + _mono((3,), (3,), a12 / ss)
            + _mono((), (1, 3), (-(r * a5) + s * a10 + r * s * a2) * R)
        )
        assert d.full_structure[4] == expected

    def test_integrability_locus(self):
        g = catalog("nilfamily_ft")
        r, s = _pairs("r", "s")
        a2, a5, a10 = S("a2"), S("a5"), S("a10")
        d = Deformation(g, _ft_psi(r, s), require_mc=False)
        assert not d.is_integrable()
        target = (s * a10 - r * a5 + r * s * a2).numerator_normalized()
        assert d.mc_generators() == (target,)
        with pytest.raises(MaurerCartanFails):
            Deformation(g, _ft_psi(r, s))

    def test_deform_alias(self):
        g = catalog("nilfamily_ft")
        r, s = _pairs("r", "s")
        d = deform(g, _ft_psi(r, s), require_mc=False)
        assert isinstance(d, Deformation)


# -- curves through the nilpotent family ----------------------------------------------


def _ft_curve(phase=1):
    """Structure curve r = t u a10 / (a5 - t u a2), s = t u with u rotated
    by the given Gaussian-unit phase."""
    g = catalog("nilfamily_ft")
    registry.ensure_pair("u")
    registry.ensure_real("t")
    u = S("u") * phase
    t = S("t")
    a2, a5, a10 = S("a2"), S("a5"), S("a10")
    psi = VectorForm({
        1: _mono((), (1,), t * u * a10 / (a5 - t * u * a2)),
        3: _mono((), (3,), t * u),
    })
    return g, psi


def _half_metric(n):
    return InvariantMetric.diagonal([Fraction(1, 2)] * n)


class TestCurveObstruction:
    def test_k1_form_matches_derived_value(self):
        g, psi = _ft_curve()
        u = S("u")
        a2, a5 = S("a2"), S("a5")
        a10 = S("a10")
        delta = a10 * a10.conjugate() - a5 * a5.conjugate()
        omega = CurveOfMetrics.constant(_half_metric(4), "t")
        rep = curve_obstruction(g, psi, omega, 1)
        expected = _mono((1, 3), (1, 3), Coefficient.i() * u * a2 * delta / a5)
        assert rep.lhs == expected
        assert rep.rhs.is_zero()
        assert rep.harmonic is True
        assert rep.obstructed == "conditional"

    def test_k2_form_matches_derived_value(self):
        g, psi = _ft_curve()
        u = S("u")
        a2, a5 = S("a2"), S("a5")
        a10 = S("a10")
        delta = a10 * a10.conjugate() - a5 * a5.conjugate()
        omega = CurveOfMetrics.constant(_half_metric(4), "t")
        rep = curve_obstruction(g, psi, omega, 2)
        expected = _mono((1, 2, 3), (1, 2, 3), -(u * a2 * delta / a5))
        assert rep.lhs == expected
        assert rep.obstructed == "conditional"

    def test_k3_unobstructed(self):
        g, psi = _ft_curve()
        omega = CurveOfMetrics.constant(_half_metric(4), "t")
        rep = curve_obstruction(g, psi, omega, 3)
        assert rep.lhs.is_zero()
        assert rep.obstructed is False

    def test_generators_split_into_real_and_imaginary_part(self):
        # phi^{123 123bar} is anti-real, so each curve sees one real
        # combination; the quarter-turn curve supplies the missing half and
        # together they vanish exactly on u a2 (|a10|^2 - |a5|^2) = 0
        ga, psi_a = _ft_curve()
        u = S("u")
        a2, a5, a10 = S("a2"), S("a5"), S("a10")
        delta = a10 * a10.conjugate() - a5 * a5.conjugate()
        x = u * a2 * a5.conjugate()
        omega = CurveOfMetrics.constant(_half_metric(4), "t")
        rep_a = curve_obstruction(ga, psi_a, omega, 1)
        real_comb = (a5 * a5.conjugate() * delta * (x + x.conjugate()))
        assert rep_a.generators == (real_comb.numerator_normalized(),)

        gb, psi_b = _ft_curve(phase=Coefficient.i())
        rep_b = curve_obstruction(gb, psi_b, omega, 1)
        imag_comb = (a5 * a5.conjugate() * delta * (x - x.conjugate()))
        assert rep_b.generators == (imag_comb.numerator_normalized(),)

    def test_identity_residual_accounts_for_constant_metric(self):
        g, psi = _ft_curve()
        omega = CurveOfMetrics.constant(_half_metric(4), "t")
        rep = curve_obstruction(g, psi, omega, 1)
        # rhs vanishes for a constant curve, so the theorem identity fails
        # exactly by twice the imaginary part
        assert rep.identity_residual == g.reduce(
            rep.imaginary * (2 * Coefficient.i())
        )
        assert not rep.identity_residual.is_zero()

    def test_base_condition_checked(self):
        g = catalog("iwasawa")
        registry.ensure_real("t")
        psi = VectorForm({1: _mono((), (1,), S("t"))})
        omega = CurveOfMetrics.constant(_half_metric(3), "t")
        with pytest.raises(BaseConditionFails):
            curve_obstruction(g, psi, omega, 1)

    def test_curve_must_vanish_at_base_point(self):
        g, _ = _ft_curve()
        registry.ensure_pair("r")
        psi = VectorForm({1: _mono((), (1,), S("r"))})
        omega = CurveOfMetrics.constant(_half_metric(4), "t")
        with pytest.raises(ValueError, match="vanish"):
            curve_obstruction(g, psi, omega, 1)

    def test_report_serializes(self):
        g, psi = _ft_curve()
        omega = CurveOfMetrics.constant(_half_metric(4), "t")
        data = curve_obstruction(g, psi, omega, 1).to_json_dict()
        assert data["power"] == 1
        assert data["obstructed"] == "conditional"
        assert data["generators"]


class TestCurveOfMetrics:
    def test_rejects_complex_parameter(self):
        registry.ensure_pair("z")
        with pytest.raises(ValueError):
            CurveOfMetrics(Form.zero(), "z")

    def test_rejects_unregistered_parameter(self):
        with pytest.raises(ValueError):
            CurveOfMetrics(Form.zero(), "missing")

    def test_power_derivative(self):
        registry.ensure_real("t")
        t = S("t")
        omega = _mono((1,), (1,), ONE() + t * t) + _mono((2,), (2,))
        curve = CurveOfMetrics(omega, "t")
        assert curve.at_zero() == _mono((1,), (1,)) + _mono((2,), (2,))
        assert curve.power_derivative_at_zero(1).is_zero()
        assert curve.power_derivative_at_zero(2).is_zero()
        linear = CurveOfMetrics(
            _mono((1,), (1,), ONE() + t) + _mono((2,), (2,)), "t"
        )
        assert linear.power_derivative_at_zero(1) == _mono((1,), (1,))
        assert linear.power_derivative_at_zero(2) == _mono(
            (1,), (1,)
        ).wedge(_mono((2,), (2,))) * 2


# -- the a2 = 0 branch: structure and preserved conditions ------------------------------


def _a2_zero_curve():
    g = catalog("nilfamily_ft").substitute({"a2": 0, "a2_c": 0})
    registry.ensure_pair("u")
    registry.ensure_real("t")
    u, t = S("u"), S("t")
    a5, a10 = S("a5"), S("a10")
    psi = VectorForm({
        1: _mono((), (1,), t * u * a10 / a5),
        3: _mono((), (3,), t * u),
    })
    return g, Deformation(g, psi, name="ft_curve")


class TestFtCurveGeometry:
    def test_structure_table(self):
        _, d = _a2_zero_curve()
        gt = d.geometry()
        u, t = S("u"), S("t")
        a3, a5, a10, a12 = (S(nm) for nm in ("a3", "a5", "a10", "a12"))
        tu2 = t * t * u * u.conjugate()
        P = a5 * a5.conjugate() - tu2 * a10 * a10.conjugate()
        Q = ONE() - tu2
        delta = a10 * a10.conjugate() - a5 * a5.conjugate()
        expected = (
            _mono((1, 3), (), t * u.conjugate() * a5 * delta / (P * Q))
            + _mono((1,), (1,), a3 * a5 * a5.conjugate() / P)
            + _mono((1,), (3,), a5 / Q)
            + _mono((3,), (1,), a10 * a5 * a5.conjugate() / P)
            + _mono((3,), (3,), a12 / Q)
        )
        for j in (1, 2, 3):
            assert gt.structure[j].is_zero()
        assert gt.structure[4] == expected

    def test_second_derivative_of_top_diagonal(self):
        # del_t dbar_t phi_t^{4 4bar} lands on the interleaved monomial
        # phi_t^{1 1bar 3 3bar} = -phi_t^{13 1bar3bar}; modulo the family
        # constraint the coefficient is -2 S^2 |tu|^2 |a5|^2 delta^2
        _, d = _a2_zero_curve()
        gt = d.geometry()
        u, t = S("u"), S("t")
        a5, a10 = S("a5"), S("a10")
        tu2 = t * t * u * u.conjugate()
        P = a5 * a5.conjugate() - tu2 * a10 * a10.conjugate()
        Q = ONE() - tu2
        Sq = ONE() / (P * Q)
        delta = a10 * a10.conjugate() - a5 * a5.conjugate()
        coeff = -(2 * Sq * Sq * tu2 * a5 * a5.conjugate() * delta * delta)
        dd = gt.ddbar(_mono((4,), (4,)))
        assert gt.reduce(dd - _mono((1, 3), (1, 3), coeff)).is_zero()

    def test_equal_moduli_preserve_all_metric_conditions(self):
        # |a10| = |a5| wipes out the obstruction: the deformed structure
        # stays in the all-or-none regime for every invariant metric
        _, d = _a2_zero_curve()
        gt = d.geometry().substitute({"a10": S("a5"), "a10_c": S("a5").conjugate()})
        assert gt.reduce(gt.ddbar(_mono((4,), (4,)))).is_zero()
        rep = all_or_none_skt(gt)
        assert rep.holds is True
        generic = InvariantMetric.generic(4)
        assert check_condition(gt, generic, "ft_pair").holds is True

    def test_appendix_rows_invert_coframe_change(self):
        _, d = _a2_zero_curve()
        n = 4
        for k in range(1, n + 1):
            row = d.base_in_deformed(k)
            assert d.to_base_coords(row) == _mono((k,), ())
            arow = d.base_in_deformed(k, anti=True)
            assert d.to_base_coords(arow) == _mono((), (k,))


# -- parameter derivatives ----------------------------------------------------------


class TestParamDerivative:
    def test_polynomial_rule(self):
        registry.ensure_real("t")
        t = S("t")
        c = (t * t * t + 2 * t) / (ONE() - t)
        left = c.param_derivative("t")
        # quotient rule target: ((3t^2 + 2)(1 - t) + (t^3 + 2t)) / (1-t)^2
        num = (3 * t * t + 2) * (ONE() - t) + (t * t * t + 2 * t)
        assert left == num / ((ONE() - t) * (ONE() - t))

    def test_rejects_complex_parameter(self):
        registry.ensure_pair("z")
        with pytest.raises(ValueError):
            S("z").param_derivative("z")

    def test_form_and_vector_form_derivatives(self):
        registry.ensure_real("t")
        t = S("t")
        f = _mono((1,), (2,), t * t)
        assert f.param_derivative("t") == _mono((1,), (2,), 2 * t)
        vf = VectorForm({1: f})
        assert vf.param_derivative("t").components[1] == _mono((1,), (2,), 2 * t)
