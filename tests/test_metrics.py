"""Special-metric condition checkers and Bott-Chern machinery."""

import random

import pytest

from ihg.catalog import catalog, torus
from ihg.coefficients import Coefficient
from ihg.cohomology import (
    BottChernSector,
    bc_class,
    monomial_basis,
    solve_dbar,
    solve_del,
)
from ihg.exterior import Form
from ihg.geometry import Geometry
from ihg.metrics import (
    InvariantMetric,
    ShapeMismatch,
    all_or_none_skt,
    balanced_obstruction,
    check_condition,
    pluriclosed_criterion,
    pluriclosed_obstruction,
    strongly_gauduchon,
)
from ihg.symbols import registry


def _diag(*entries):
    return InvariantMetric.diagonal([Coefficient.from_scalar(e) for e in entries])


class TestInvariantMetric:
    def test_identity_fundamental_form(self):
        m = InvariantMetric.identity(2)
        omega = m.fundamental_form()
        i = Coefficient.i()
        assert omega == Form.monomial((1,), (1,), i) + Form.monomial((2,), (2,), i)

    def test_hermitian_symmetry_enforced(self):
        registry.ensure_pair("w")
        w = Coefficient.symbol("w")
        one, zero = Coefficient.one(), Coefficient.zero()
        with pytest.raises(ValueError):
            InvariantMetric(((one, w), (w, one)))
        # the conjugate-transpose layout is accepted
        InvariantMetric(((one, w), (w.conjugate(), one)))

    def test_generic_metric_is_hermitian(self):
        m = InvariantMetric.generic(3)
        for j in range(3):
            for k in range(3):
                assert m.h[j][k].conjugate() == m.h[k][j]

    def test_positivity_sampling(self):
        m = InvariantMetric.generic(2)
        assert m.positive_at({"h11": 1, "h22": 1, "h12": 0})
        assert m.positive_at({"h11": 2, "h22": 1, "h12": 0.5})
        # |h12|^2 >= h11 h22 kills the determinant
        assert not m.positive_at({"h11": 1, "h22": 1, "h12": 1.5})
        assert not m.positive_at({"h11": -1, "h22": 1, "h12": 0})

    def test_omega_power_top_is_volume_multiple(self):
        m = InvariantMetric.identity(3)
        top = m.fundamental_form().wedge_power(3)
        assert set(top.bidegrees()) == {(3, 3)}
        assert len(list(top.terms())) == 1


class TestTorus:
    def test_every_condition_holds(self):
        t = torus(3)
        m = InvariantMetric.generic(3)
        for cond in ("skt", "astheno", "balanced", "gauduchon", "ft_pair"):
            assert check_condition(t, m, cond).holds is True
        for k in (1, 2, 3):
            assert check_condition(t, m, "k_pluriclosed", k=k).holds is True


class TestIwasawa:
    def test_skt_fails_with_diagonal_residual(self):
        g = catalog("iwasawa")
        rep = check_condition(g, InvariantMetric.identity(3), "skt")
        assert rep.holds is False
        expected = Form.monomial((1, 2), (1, 2), -Coefficient.i())
        assert rep.residual == expected

    def test_balanced_and_gauduchon_hold(self):
        g = catalog("iwasawa")
        m = InvariantMetric.identity(3)
        assert check_condition(g, m, "balanced").holds is True
        assert check_condition(g, m, "gauduchon").holds is True

    def test_astheno_equals_skt_in_dim_three(self):
        g = catalog("iwasawa")
        m = InvariantMetric.identity(3)
        a = check_condition(g, m, "astheno")
        k = check_condition(g, m, "k_pluriclosed", k=1)
        assert a.residual == check_condition(g, m, "skt").residual
        assert k.residual == check_condition(g, m, "skt").residual

    def test_all_or_none_dichotomy(self):
        g = catalog("iwasawa")
        rep = all_or_none_skt(g)
        assert rep.holds is False
        assert rep.residual == Form.monomial((1, 2), (1, 2), -1)

    def test_criterion_is_one(self):
        assert pluriclosed_criterion(catalog("iwasawa")) == Coefficient.one()

    def test_skt_obstruction_diagonal_negative(self):
        g = catalog("iwasawa")
        rep = pluriclosed_obstruction(g, Form.monomial((3,), (3,)), 1)
        assert rep.obstructed
        assert rep.sign == -1

    def test_strongly_gauduchon_trivially(self):
        g = catalog("iwasawa")
        rep = strongly_gauduchon(g, InvariantMetric.identity(3))
        assert rep.holds is True
        assert rep.witness.is_zero()


class TestFtFamily:
    def test_constrained_family_residual_vanishes(self):
        g = catalog("nilfamily_ft")
        rep = all_or_none_skt(g)
        assert rep.holds is True
        assert any("omega^2" in note for note in rep.notes)

    def test_unconstrained_generator_matches_attached_constraint(self):
        g = catalog("nilfamily_ft")
        rep = all_or_none_skt(g, use_constraints=False)
        assert rep.holds == "conditional"
        assert len(rep.constraint_generators) == 1
        expected = g.constraints[0].numerator_normalized()
        assert rep.constraint_generators[0] == expected

    def test_symbolic_metric_ft_holds_under_constraint(self):
        g = catalog("nilfamily_ft")
        m = InvariantMetric.generic(4)
        assert check_condition(g, m, "ft_pair").holds is True
        for k in (1, 2, 3, 4):
            assert check_condition(g, m, "k_pluriclosed", k=k).holds is True

    def test_generic_point_off_constraint_is_not_skt(self):
        g = catalog("nilfamily_ft")
        bound = g.substitute({
            "a2": Coefficient.one(),
            "a3": Coefficient.zero(),
            "a5": Coefficient.zero(),
            "a10": Coefficient.zero(),
            "a12": Coefficient.zero(),
        })
        assert bound.constraints == ()
        rep = all_or_none_skt(bound)
        assert rep.holds is False

    def test_point_on_constraint_is_skt(self):
        g = catalog("nilfamily_ft")
        # |a2|^2 = 1 balanced against a3 conj(a12) + conj(a3) a12 = 1
        bound = g.substitute({
            "a2": Coefficient.one(),
            "a3": Coefficient.from_scalar(1) / 2,
            "a5": Coefficient.zero(),
            "a10": Coefficient.zero(),
            "a12": Coefficient.one(),
        })
        rep = all_or_none_skt(bound)
        assert rep.holds is True


class TestFpsFamily:
    def test_shape_guards(self):
        with pytest.raises(ShapeMismatch):
            pluriclosed_criterion(catalog("nakamura_3b"))
        with pytest.raises(ShapeMismatch):
            pluriclosed_criterion(catalog("solv4d"))
        with pytest.raises(ShapeMismatch):
            all_or_none_skt(catalog("nakamura_3b"))
        # d(phi^3) = phi^{13} is a valid structure that involves phi^3
        with pytest.raises(ShapeMismatch):
            pluriclosed_criterion(Geometry("x", 3, {3: Form.monomial((1, 3))}))

    def test_symbolic_skt_generator_is_criterion_times_h33(self):
        g = catalog("fps_family")
        crit = pluriclosed_criterion(g)
        m = InvariantMetric.generic(3)
        rep = check_condition(g, m, "skt", use_constraints=False)
        assert rep.holds == "conditional"
        assert len(rep.constraint_generators) == 1
        gen = rep.constraint_generators[0]
        h33 = Coefficient.symbol("h33")
        assert gen == (h33 * crit).numerator_normalized()
        # under the attached constraint the condition holds identically
        assert check_condition(g, m, "skt").holds is True

    def test_criterion_zero_instance_is_skt(self):
        g = catalog("fps_family")
        # A = 1, B = 1, C = -1/2, D = 0, E = 0 kills the criterion
        bound = g.substitute({
            "A": Coefficient.one(),
            "B": Coefficient.one(),
            "C": -Coefficient.from_scalar(1) / 2,
            "D": Coefficient.zero(),
            "E": Coefficient.zero(),
        })
        m = InvariantMetric.identity(3)
        assert check_condition(bound, m, "skt").holds is True

    def test_criterion_nonzero_instance_fails_for_any_metric(self):
        g = catalog("fps_family")
        bound = g.substitute({
            "A": Coefficient.one(),
            "B": Coefficient.zero(),
            "C": Coefficient.zero(),
            "D": Coefficient.zero(),
            "E": Coefficient.zero(),
        })
        m = InvariantMetric.generic(3)
        rep = check_condition(bound, m, "skt")
        # residual = h33 phi^{12 1b2b} (up to i): no metric choice kills it
        assert rep.holds == "conditional"
        assert rep.constraint_generators == (Coefficient.symbol("h33"),)


class TestNakamura:
    def test_identity_metric_not_skt_but_balanced(self):
        g = catalog("nakamura_3b")
        m = InvariantMetric.identity(3)
        assert check_condition(g, m, "skt").holds is False
        assert check_condition(g, m, "balanced").holds is True

    def test_del_dbar_sign_on_diagonal_monomial(self):
        g = catalog("nakamura_3b")
        assert g.ddbar(Form.monomial((2,), (2,))) == Form.monomial(
            (1, 2), (1, 2), -1
        )


class TestBottChern:
    def test_iwasawa_dimensions(self):
        g = catalog("iwasawa")
        expected = {
            (1, 0): 2,
            (0, 1): 2,
            (1, 1): 4,
            (2, 1): 6,
            (2, 2): 8,
            (3, 3): 1,
        }
        for (p, q), dim in expected.items():
            assert BottChernSector(g, p, q).dimension == dim

    def test_exact_two_two_class_vanishes(self):
        # del dbar(phi^{3 3bar}) = -phi^{12 1b2b}, so that monomial is exact
        g = catalog("iwasawa")
        cls = bc_class(g, Form.monomial((1, 2), (1, 2)))
        assert cls.is_zero()

    def test_nonexact_class_survives(self):
        g = catalog("iwasawa")
        cls = bc_class(g, Form.monomial((1, 3), (1, 3)))
        assert not cls.is_zero()

    def test_random_ddbar_images_are_exact(self):
        g = catalog("iwasawa")
        rng = random.Random(7)
        hits = 0
        for _ in range(6):
            for p, q in ((1, 1), (2, 2)):
                basis = monomial_basis(3, p - 1, q - 1)
                gamma = Form.zero()
                for mi in basis:
                    gamma = gamma + Form(
                        {mi: Coefficient.from_scalar(rng.randint(1, 5))}
                    )
                image = g.ddbar(gamma)
                if image.is_zero():
                    continue
                hits += 1
                assert bc_class(g, image).is_zero()
        assert hits >= 6

    def test_solve_dbar_finds_primitive(self):
        g = catalog("solv4d")
        rhs = Form.monomial((), (2, 3), -1)
        beta = solve_dbar(g, rhs, 0, 1)
        assert beta is not None
        assert g.dbar(beta) == rhs

    def test_solve_dbar_reports_unsolvable(self):
        g = catalog("iwasawa")
        # phi^{1bar} is dbar-closed and not exact
        assert solve_dbar(g, Form.monomial((), (1,)), 0, 0) is None

    def test_solve_del_finds_primitive(self):
        g = catalog("iwasawa")
        # d phi^3 = -phi^{12} on Iwasawa, all of it (2,0)
        beta = solve_del(g, Form.monomial((1, 2), (), -1), 1, 0)
        assert beta == Form.monomial((3,), ())
        assert g.del_op(beta) == Form.monomial((1, 2), (), -1)

    def test_solve_del_reports_unsolvable(self):
        g = catalog("iwasawa")
        # the invariant (0,0)-forms of sector 0 are constants, killed by del
        assert solve_del(g, Form.monomial((1,), ()), 0, 0) is None


class TestObstructionReports:
    def test_non_diagonal_component_is_inconclusive(self):
        g = catalog("iwasawa")
        alpha = Form.monomial((1,), (3,))
        rep = pluriclosed_obstruction(g, alpha, 1)
        assert not rep.obstructed

    def test_balanced_obstruction_positive_case(self):
        # d phi^3 = phi^{1 1bar} + phi^{2 2bar} forces a positive (1,1) part
        registry.reset()
        from ihg.geometry import Geometry

        d3 = Form.monomial((1,), (1,)) + Form.monomial((2,), (2,))
        g = Geometry("demo", 3, {3: d3})
        rep = balanced_obstruction(g, {3: Coefficient.one()})
        assert rep.positive_11_part
        assert rep.sign == 1

    def test_balanced_obstruction_mixed_sign(self):
        registry.reset()
        from ihg.geometry import Geometry

        d3 = Form.monomial((1,), (1,)) - Form.monomial((2,), (2,))
        g = Geometry("demo", 3, {3: d3})
        rep = balanced_obstruction(g, {3: Coefficient.one()})
        assert not rep.positive_11_part

    def test_json_round_trip_shape(self):
        g = catalog("iwasawa")
        rep = check_condition(g, InvariantMetric.identity(3), "skt")
        data = rep.to_json_dict()
        assert data["condition"] == "skt"
        assert data["holds"] is False
        assert "phi[1,2|1,2]" in data["residual"]
