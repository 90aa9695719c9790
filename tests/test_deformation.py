"""Deformed structure equations, extension calculus, curve obstructions.

Golden values come from independent derivations: coefficient tables were
recomputed by hand (coframe inversion on small matrices) or cross-checked
numerically before being frozen here.
"""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

from ihg import coefficients, linalg
from ihg import deformation as deformation_module
from ihg.catalog import CATALOG_NAMES, catalog, torus
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
from ihg.exterior import CoframeMap, Form, VectorForm
from ihg.geometry import Geometry
from ihg.kuranishi import (
    BranchSpec,
    branch_reduce,
    kuranishi_build,
    series_to_deformation,
)
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


def _evaluate(form, labels):
    """form(Y_1, ..., Y_k) on frame labels ("h" or "a", index)."""
    for kind, idx in labels:
        form = form.contract_holo(idx) if kind == "h" else form.contract_anti(idx)
    return form.coeff((), ())


def _frame_action(g, x, c):
    """X(c) for a frame label x: only characters vary, so it is the sum
    over characters E of E*dc/dE times dlog E evaluated on x."""
    return Coefficient.sum_of_products(
        (c.euler(name), _evaluate(dlog, [x]))
        for name, dlog in g.chars.items())


def _lie_oracle(g, x, form):
    """L_X of a form, read off the frame brackets:
    (L_X f)(Y_1..Y_k) = X(f(Y_1..Y_k)) - sum_j f(Y_1..[X,Y_j]..Y_k)."""
    out = Form()
    for k in {p + q for p, q in form.bidegrees()}:
        for p in range(k + 1):
            for holo in combinations(range(1, g.n + 1), p):
                for anti in combinations(range(1, g.n + 1), k - p):
                    ys = [("h", h) for h in holo] + [("a", a) for a in anti]
                    value = _frame_action(g, x, _evaluate(form, ys))
                    for j, y in enumerate(ys):
                        for z, c in g.bracket(x, y).items():
                            swapped = ys[:j] + [z] + ys[j + 1:]
                            value = value - c * _evaluate(form, swapped)
                    out = out + _mono(holo, anti, value)
    return out


def _bracket_oracle(g, a, b):
    """[eta (x) Z_i, rho (x) Z_j] = eta^rho (x) [Z_i,Z_j]
    + eta^(L_{Z_i} rho) (x) Z_j + rho^(L_{Z_j} eta) (x) Z_i."""
    out = VectorForm()
    for i, eta in a.components.items():
        for j, rho in b.components.items():
            for (_, leg), c in g.bracket(("h", i), ("h", j)).items():
                out = out + VectorForm({leg: eta.wedge(rho) * c})
            out = out + VectorForm({
                j: eta.wedge(_lie_oracle(g, ("h", i), rho))})
            out = out + VectorForm({
                i: rho.wedge(_lie_oracle(g, ("h", j), eta))})
    return out


def _first_order_psi(g):
    """psi_1 of the Kuranishi build where g declares generators, else
    every (0,1)-coframe direction on every leg, one parameter each."""
    if g.generators is not None:
        return kuranishi_build(g).psi_terms[1]
    legs = {}
    for i in range(1, g.n + 1):
        legs[i] = Form()
        for mu in range(1, g.n + 1):
            (t,) = _pairs(f"w{i}{mu}")
            legs[i] = legs[i] + _mono((), (mu,), t)
    return VectorForm(legs)


def _assert_symmetric_bracket_is_full(g, psi):
    """[psi, psi] on the symmetric path (b is a) equals the full loop over
    an equal copy, and so does mc_equation, which brackets psi with
    itself."""
    full = VectorForm(dict(psi.components))
    bracket = vector_bracket(g, psi, full)
    assert not bracket.is_zero()
    assert vector_bracket(g, psi, psi) == bracket
    half = ONE() / 2
    assert mc_equation(g, psi) == dbar_vector(g, psi) - bracket * half


def _count_leg_pairs(monkeypatch) -> list:
    """Record each leg pair the bracket visits: it looks up the frame
    bracket of the pair's two holomorphic legs (Geometry.bracket) once
    per pair, whether that bracket is empty or not."""
    pairs = []
    bracket = Geometry.bracket

    def counted(self, x, y):
        if x[0] == y[0] == "h":
            pairs.append((x, y))
        return bracket(self, x, y)

    monkeypatch.setattr(Geometry, "bracket", counted)
    return pairs


def _assert_mc_routes_agree(g, good, bad):
    """mc_equation and the coframe route's residual vanish together: on
    good, which solves Maurer-Cartan, and on bad, which does not."""
    for psi, integrable in ((good, True), (bad, False)):
        assert mc_equation(g, psi).is_zero() is integrable
        assert Deformation(g, psi, require_mc=False).is_integrable() is integrable


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

    def test_deformed_d_commutes_with_conjugation(self):
        # geometry validation checks d^2 on phi^k only and relies on d
        # being real; the deformed structure's coefficients are quotients
        # of the six parameters, so this is the realest test of it
        g = deform(catalog("iwasawa"), _iwasawa_psi()[0]).geometry()
        for k in range(3):
            for p in range(k + 1):
                for holo in combinations(range(1, 4), p):
                    for anti in combinations(range(1, 4), k - p):
                        f = _mono(holo, anti)
                        assert g.d(f.conjugate()) == g.d(f).conjugate(), \
                            f.render()

    def test_without_correction_maurer_cartan_fails(self):
        g = catalog("iwasawa")
        psi, _, det = _iwasawa_psi(correction=False)
        with pytest.raises(MaurerCartanFails) as exc:
            Deformation(g, psi)
        assert exc.value.generators == (det.numerator_normalized(),)

    def test_mc_equation_matches_coframe_route(self):
        good, _, _ = _iwasawa_psi()
        bad, _, _ = _iwasawa_psi(correction=False)
        _assert_mc_routes_agree(catalog("iwasawa"), good, bad)

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

    def test_every_metric_is_skt_at_a_surd_point(self):
        # at t11 = t22 = t31 = t32 = 0, t12 = 1, t21 = 1 + i*sqrt(2), with
        # sqrt(2) a real symbol s reduced modulo s^2 - 2, the SKT value
        # vanishes and the atom 1 + |D|^2 - E is 2: every invariant metric
        # on that deformation is SKT
        g = catalog("iwasawa")
        psi, (t11, t12, t21, t22, _, _), det = _iwasawa_psi()
        value = pluriclosed_criterion(Deformation(g, psi).geometry())
        atom = (
            ONE() + det * det.conjugate() - t11 * t11.conjugate()
            - t22 * t22.conjugate() - t12.conjugate() * t21
            - t12 * t21.conjugate()
        )
        registry.ensure_real("s")
        s = S("s")
        root2 = [s * s - 2]
        point = {"t11": 0, "t22": 0, "t31": 0, "t32": 0, "t12": 1,
                 "t21": 1 + Coefficient.i() * s}
        at = value.substitute(point)
        assert at.reduce_modulo(root2).is_zero()
        assert atom.substitute(point).reduce_modulo(root2) == 2
        # the value is defined there: its denominator, the atom squared,
        # reduces to 4
        assert (ONE() / at).numerator_normalized().reduce_modulo(root2) == 4
        # at t21 = 1 the atom vanishes and the value is undefined
        with pytest.raises(coefficients.DenominatorVanishes):
            value.substitute({**point, "t21": 1})

    def test_base_point_recovers_original_structure(self):
        g = catalog("iwasawa")
        psi, _, _ = _iwasawa_psi()
        zero = {nm: 0 for nm in (
            "t11", "t12", "t21", "t22", "t31", "t32",
            "t11_c", "t12_c", "t21_c", "t22_c", "t31_c", "t32_c",
        )}
        g0 = Deformation(g, psi).specialize(zero).geometry()
        assert g0.structure[3] == g.structure[3]


@pytest.mark.parametrize("key", ["name", "symbol", "partner"])
def test_specialize_binds_the_base_under_any_key(key):
    # a symbol or a partner name binds the base as a name does
    g = catalog("nilfamily_ft")
    (t11,) = _pairs("t11")
    d = Deformation(g, VectorForm({1: _mono((), (1,), t11)}), require_mc=False)
    names = g.free_parameters()
    assert names == ["a10", "a12", "a2", "a3", "a5"]
    keys = {
        "name": names,
        "symbol": [registry.lookup(nm) for nm in names],
        "partner": [registry.lookup(nm).conjugate_of for nm in names],
    }[key]
    special = d.specialize({k: 1 for k in keys})
    assert special.base.free_parameters() == []
    assert special.psi == d.psi


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
        assert rep.component == expected
        assert rep.obstructed
        assert rep.sign == 1
        assert rep.notes == ("exact sign off t21*conj(t21) = 0",)

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
        with pytest.raises(DegenerateAtLocus) as exc:
            Deformation(g, psi)
        assert exc.value.locus


# -- the inverse coframe change ------------------------------------------------------


def _coframe_change(psi: VectorForm, n: int) -> list[linalg.SparseVector]:
    """The columns of [[I, B], [conj B, I]], B[j][mu] the phi^{mu bar}
    coefficient of psi^j."""
    b = [
        [psi.components.get(j, Form.zero()).coeff((), (mu,))
         for mu in range(1, n + 1)]
        for j in range(1, n + 1)
    ]
    one, zero = Coefficient.one(), Coefficient.zero()
    ident = [[one if j == k else zero for k in range(n)] for j in range(n)]
    rows = [ident[j] + b[j] for j in range(n)] + [
        [c.conjugate() for c in b[j]] + ident[j] for j in range(n)
    ]
    return [{i: c for i, c in enumerate(col) if c} for col in zip(*rows)]


def _inverse_change(d: Deformation, n: int) -> list[linalg.SparseVector]:
    """The columns of the inverse change, read off its rows: row k is
    base_in_deformed(k + 1) and row n + k base_in_deformed(k + 1,
    anti=True), against (phi^1..phi^n, phi^{1bar}..phi^{nbar})."""
    cols: list[linalg.SparseVector] = [{} for _ in range(2 * n)]
    for r in range(2 * n):
        for mi, c in d.base_in_deformed(r % n + 1, anti=r >= n).terms():
            col = mi.holo[0] - 1 if mi.holo else n + mi.anti[0] - 1
            cols[col][r] = c
    return cols


class TestCoframeInverse:
    """The inverse read off the n x n matrix S against a direct
    Gauss-Jordan inverse of the whole 2n x 2n change."""

    @pytest.mark.parametrize("case", ["iwasawa", "nakamura_3b"])
    def test_schur_inverse_matches_direct_inverse(self, case):
        if case == "iwasawa":
            g = catalog("iwasawa")
            psi, _, _ = _iwasawa_psi()
        else:
            g = catalog("nakamura_3b")
            psi = series_to_deformation(branch_reduce(
                kuranishi_build(g), BranchSpec(nonzeros=("t11",))))
        d = Deformation(g, psi, require_mc=False)
        change = _coframe_change(psi, g.n)
        inverse = _inverse_change(d, g.n)
        assert linalg.mat_mul(change, inverse) == linalg.identity(2 * g.n)
        assert inverse == linalg.invert(change)

    def test_entries_share_denominator_atoms(self):
        # a conjugated entry would carry its own copy of an equal atom,
        # which every later sum over a common denominator compares in full
        psi, _, _ = _iwasawa_psi()
        d = Deformation(catalog("iwasawa"), psi)
        atoms = [a for col in _inverse_change(d, 3) for c in col.values()
                 for a, _ in c._den]
        assert len({id(a) for a in atoms}) == len(set(atoms))

    def test_construction_cost(self, monkeypatch):
        # S is the one matrix: one n x n inverse, and the rest are
        # substitutions on psi, with no matrix product
        calls = {"invert": 0, "mat_mul": 0}
        for name in calls:
            original = getattr(linalg, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(linalg, name, counted)
        psi, _, _ = _iwasawa_psi()
        Deformation(catalog("iwasawa"), psi)
        assert calls == {"invert": 1, "mat_mul": 0}


def _t11_branch_psi(name):
    g = catalog(name)
    branch = BranchSpec(nonzeros=("t11",))
    return g, series_to_deformation(branch_reduce(kuranishi_build(g),
                                                  branch))


# base_in_deformed(k, anti) of the nakamura_3b t11-branch deformation, for
# anti False then True and k = 1..3, in a fresh registry
_NAKAMURA_ROWS = [
    ('(t11/(t11*conj(t11) - 1))*phi[|1] + (-1/(t11*conj(t11) - '
     '1))*phi[1]'),
    ('((-E1*t11*conj(t21)*t22 - t21)/((t22*conj(t22) - 1)*(t11*conj(t11)'
     ' - 1)))*phi[|1] + (E1*t22/(t22*conj(t22) - 1))*phi[|2] + '
     '((E1*conj(t21)*t22 + conj(t11)*t21)/((t22*conj(t22) - '
     '1)*(t11*conj(t11) - 1)))*phi[1] + (-1/(t22*conj(t22) - 1))*phi[2]'),
    ('((-t11*conj(t31)*t33 - E1*t31)/((t33*conj(t33) - 1)*(t11*conj(t11)'
     ' - 1)*E1))*phi[|1] + (t33/((t33*conj(t33) - 1)*E1))*phi[|3] + '
     '((E1*conj(t11)*t31 + conj(t31)*t33)/((t33*conj(t33) - '
     '1)*(t11*conj(t11) - 1)*E1))*phi[1] + (-1/(t33*conj(t33) - '
     '1))*phi[3]'),
    ('(-1/(t11*conj(t11) - 1))*phi[|1] + (conj(t11)/(t11*conj(t11) - '
     '1))*phi[1]'),
    ('((E1*t11*conj(t21) + t21*conj(t22))/((t22*conj(t22) - '
     '1)*(t11*conj(t11) - 1)*E1))*phi[|1] + (-1/(t22*conj(t22) - '
     '1))*phi[|2] + ((-conj(t11)*t21*conj(t22) - '
     'E1*conj(t21))/((t22*conj(t22) - 1)*(t11*conj(t11) - 1)*E1))*phi[1]'
     ' + (conj(t22)/((t22*conj(t22) - 1)*E1))*phi[2]'),
    ('((E1*t31*conj(t33) + t11*conj(t31))/((t33*conj(t33) - '
     '1)*(t11*conj(t11) - 1)))*phi[|1] + (-1/(t33*conj(t33) - '
     '1))*phi[|3] + ((-E1*conj(t11)*t31*conj(t33) - '
     'conj(t31))/((t33*conj(t33) - 1)*(t11*conj(t11) - 1)))*phi[1] + '
     '(E1*conj(t33)/(t33*conj(t33) - 1))*phi[3]'),
]


class TestResidual:
    @pytest.mark.parametrize("name", [
        "iwasawa", "nakamura_3b", "solv4d", "iwasawa_six_parameters"])
    def test_residual_is_the_02_part_of_the_full_structure(self, name):
        if name == "iwasawa_six_parameters":
            g, psi = catalog("iwasawa"), _iwasawa_psi(correction=False)[0]
        else:
            g, psi = _t11_branch_psi(name)
        d = deform(g, psi, require_mc=False)
        full = d.full_structure
        assert d.mc_residual.keys() == full.keys()
        for j, f in full.items():
            assert d.mc_residual[j] == f.component(0, 2)
            assert d.mc_residual[j].render() == f.component(0, 2).render()
        if name in ("solv4d", "iwasawa_six_parameters"):
            assert not d.is_integrable()

    def test_full_structure_is_built_on_first_read(self):
        g, psi = _t11_branch_psi("solv4d")
        d = deform(g, psi, require_mc=False)

        def degrees():
            return {mi.degree for mi in d._to_deformed._images}

        assert 2 not in degrees()
        assert d.full_structure is d.full_structure
        assert 2 in degrees()

    def test_neither_coordinate_map_is_built_until_read(self):
        g, psi = _t11_branch_psi("solv4d")
        d = deform(g, psi, require_mc=False)
        assert not {"_to_deformed", "_to_base"} & vars(d).keys()
        d.to_base_coords(_mono((1,), ()))
        assert "_to_base" in vars(d) and "_to_deformed" not in vars(d)
        # the operator routes read the stored (0,1) rows
        alpha = _mono((1,), (2,))
        d.dbar_t_formula(alpha)
        d.del_t_formula(alpha)
        assert "_to_deformed" not in vars(d)
        d.full_structure
        assert "_to_deformed" in vars(d)

    @pytest.mark.parametrize("name", ["iwasawa_six_parameters", "nakamura_3b"])
    def test_inverse_rows_keep_their_text(self, name):
        # the rows as the construction gave them when it formed every full
        # row at once; the Iwasawa rows, about 6 kB, by their SHA-256
        if name == "nakamura_3b":
            g, psi = _t11_branch_psi(name)
        else:
            g, psi = catalog("iwasawa"), _iwasawa_psi(correction=False)[0]
        d = deform(g, psi, require_mc=False)
        d.full_structure
        texts = [d.base_in_deformed(k, anti).render()
                 for anti in (False, True) for k in range(1, g.n + 1)]
        if name == "nakamura_3b":
            assert texts == _NAKAMURA_ROWS
        else:
            assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
                "771da7a9237407c847180dfdb61ceec3d673a7f86eb0ed0ee9d8604a8aa96c5b")


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
            del_part, dbar_part = gt.d_split(alpha)
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
            assert d.del_t_formula(alpha) == d.geometry().d_split(alpha)[0]

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
        assert d.to_base_coords(alpha) == alpha
        assert d.to_deformed_coords(alpha) == alpha

    @pytest.mark.parametrize("case", ["iwasawa", "nakamura_3b"])
    def test_operator_routes_match_coordinate_route(self, case):
        # both operator routes against the split of the deformed d, on
        # every coframe monomial of degree 1 to 3
        g = catalog(case)
        if case == "iwasawa":
            psi, _, _ = _iwasawa_psi()
        else:
            (t11,) = _pairs("t11")
            psi = VectorForm({1: _mono((), (1,), t11)})
        d = Deformation(g, psi)
        gt = d.geometry()
        alphas = [
            _mono(holo, anti) for holo, anti in _patterns(g.n)
            if 1 <= len(holo) + len(anti) <= 3
        ]
        assert len(alphas) == 41
        for alpha in alphas:
            del_part, dbar_part = gt.d_split(alpha)
            assert d.dbar_t_formula(alpha) == dbar_part
            assert d.del_t_formula(alpha) == del_part


# -- the coordinate-change tables ---------------------------------------------------


def _patterns(n):
    """(holo, anti) of every coframe monomial in dimension n, degrees 0..2n."""
    for p in range(n + 1):
        for q in range(n + 1):
            for holo in combinations(range(1, n + 1), p):
                for anti in combinations(range(1, n + 1), q):
                    yield holo, anti


class TestCoordinateTables:
    def test_round_trip_every_iwasawa_monomial(self):
        # the circle family keeps every row of the change non-diagonal; the
        # six-parameter family's samples are in test_round_trip_coordinates
        _, _, d = _circle_deformation()
        patterns = list(_patterns(3))
        assert len(patterns) == 64
        for holo, anti in patterns:
            alpha = _mono(holo, anti)
            assert d.to_base_coords(d.to_deformed_coords(alpha)) == alpha
            assert d.to_deformed_coords(d.to_base_coords(alpha)) == alpha

    def test_round_trip_with_character_coefficients(self):
        g = catalog("nakamura_3b")
        registry.ensure_pair("t11")
        t11, e1 = S("t11"), S("E1")
        d = Deformation(g, VectorForm({1: _mono((), (1,), t11)}))
        for holo, anti in _patterns(3):
            alpha = _mono(holo, anti, e1) + _mono(holo, anti, t11 * e1.conjugate())
            assert d.to_base_coords(d.to_deformed_coords(alpha)) == alpha
            assert d.to_deformed_coords(d.to_base_coords(alpha)) == alpha

    def test_table_cost(self, monkeypatch):
        # each monomial image of degree 2 or more is one wedge of a stored
        # prefix image by a row, a degree-1 image is its row, and a
        # deformation keeps its tables between calls
        g = catalog("iwasawa")
        psi, _, _ = _iwasawa_psi()
        d = Deformation(g, psi)
        calls = {"wedge": 0}
        wedge = Form.wedge

        def counted_wedge(self, other):
            calls["wedge"] += 1
            return wedge(self, other)

        monkeypatch.setattr(Form, "wedge", counted_wedge)
        to_deformed = CoframeMap({
            (flavor, k): d.base_in_deformed(k, anti=flavor == "a")
            for flavor in "ha" for k in range(1, 4)
        })
        low = [
            _mono(holo, anti) for holo, anti in _patterns(3)
            if len(holo) + len(anti) <= 2
        ]
        assert len(low) == 22
        images = [to_deformed.apply(alpha) for alpha in low]
        assert calls["wedge"] == 15  # the monomials of degree 2
        assert [to_deformed.apply(alpha) for alpha in low] == images
        assert calls["wedge"] == 15
        assert images == [d.to_deformed_coords(alpha) for alpha in low]
        alpha = _mono((1, 3), (2,))
        d.to_deformed_coords(alpha)
        d.to_base_coords(alpha)
        filled = calls["wedge"]
        d.to_deformed_coords(alpha)
        d.to_base_coords(alpha)
        assert calls["wedge"] == filled

    def test_round_trip_cost(self, monkeypatch):
        # each output coefficient of a coordinate change is normalized
        # once, and a lone image coefficient times a scalar not at all;
        # summing term by term took 594 and 922 trial divisions here.
        # The products of a sum are added into one polynomial per
        # denominator group, so only the products outside that loop call
        # _mul: 212 and 306 calls when every product was formed apart.
        # A finished polynomial keeps its leading monomial, so max() scans
        # only the running remainders of trial divisions and the leads
        # not yet known: 485 and 692 calls when every lead was scanned at
        # each use.  A coefficient keeps its text, so a second render of a
        # stored image renders no polynomial (23 and 28 calls before).  The
        # builtin max is counted through a module global that shadows it.
        g = catalog("iwasawa")
        psi, _, _ = _iwasawa_psi()
        d = Deformation(g, psi)
        calls = []
        for name in ("_exact_quotient", "_mul", "_render_poly", "max"):
            def counted(*args, _kernel=getattr(coefficients, name, max),
                        _name=name, **kwargs):
                calls.append(_name)
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(coefficients, name, counted, raising=False)
        for (holo, anti), divisions, products, scans in (
                (((1, 3), ()), 4, 3, 35), (((3,), (3,)), 2, 20, 80)):
            alpha = _mono(holo, anti)
            d.to_base_coords(d.to_deformed_coords(alpha))
            d.to_deformed_coords(d.to_base_coords(alpha))
            calls.clear()
            there = d.to_deformed_coords(alpha)
            back = d.to_base_coords(alpha)
            assert d.to_base_coords(there) == alpha
            assert d.to_deformed_coords(back) == alpha
            assert calls.count("_exact_quotient") <= divisions
            assert calls.count("_mul") <= products
            assert calls.count("max") <= scans
            texts = [c.render() for f in (there, back) for _, c in f.terms()]
            calls.clear()
            assert [c.render() for f in (there, back)
                    for _, c in f.terms()] == texts
            assert "_render_poly" not in calls


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

    def test_mc_equation_matches_coframe_route_with_characters(self):
        # nakamura_3b's generators carry E1, so d of a leg's coefficients
        # is nonzero; the t11 branch solves Maurer-Cartan, while t11 and
        # t12 together break t11*t12 = 0
        g = catalog("nakamura_3b")
        series = kuranishi_build(g)
        good = series_to_deformation(
            branch_reduce(series, BranchSpec(nonzeros=("t11",))))
        bad = series_to_deformation(branch_reduce(
            series, BranchSpec(zeros=("t13", "t23", "t31", "t32", "t33"))))
        _assert_mc_routes_agree(g, good, bad)

    def test_bracket_takes_d_once_per_leg(self, monkeypatch):
        g = catalog("solv4d")
        psi_1 = kuranishi_build(g).psi_terms[1]
        calls = []
        d = Geometry.d

        def counted(self, form):
            if not form.is_zero():
                calls.append(form)
            return d(self, form)

        monkeypatch.setattr(Geometry, "d", counted)
        vector_bracket(g, psi_1, psi_1)
        assert len(calls) <= len(psi_1.components)

    @pytest.mark.parametrize("name", ["iwasawa", "nakamura_3b"])
    def test_bracket_matches_the_invariant_lie_derivative(self, name):
        # legs with holomorphic slots, so iota_i of a leg form is not
        # closed and the d(iota_i f) half of the Lie derivative is live
        g = catalog(name)
        a2, b3 = _pairs("va", "vb")
        e = S("E1") if name == "nakamura_3b" else ONE()
        x = VectorForm({
            1: _mono((), (1,), a2) + _mono((2,), (3,), e),
            2: _mono((3,), (2,)),
            3: _mono((2,), (), b3),
        })
        y = VectorForm({
            1: _mono((1, 3), ()) + _mono((2,), (1,), e),
            3: _mono((3,), (1,), e.conjugate()) + _mono((), (2,), a2),
        })
        for a, b in ((x, y), (y, x), (x, x)):
            assert vector_bracket(g, a, b) == _bracket_oracle(g, a, b)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_symmetric_bracket_matches_the_full_loop(self, name):
        g = catalog(name)
        psi = _first_order_psi(g)
        _assert_symmetric_bracket_is_full(g, psi)

    @pytest.mark.parametrize("correction", [True, False])
    def test_symmetric_bracket_on_the_iwasawa_family(self, correction):
        psi, _, _ = _iwasawa_psi(correction)
        _assert_symmetric_bracket_is_full(catalog("iwasawa"), psi)

    def test_symmetric_bracket_forms_each_leg_pair_once(self, monkeypatch):
        g = catalog("solv4d")
        psi = kuranishi_build(g).psi_terms[1]
        full = VectorForm(dict(psi.components))
        pairs = _count_leg_pairs(monkeypatch)
        vector_bracket(g, psi, psi)
        n = len(psi.components)
        assert n == 4
        assert len(pairs) == n * (n + 1) // 2
        pairs.clear()
        vector_bracket(g, psi, full)
        assert len(pairs) == n * n

    def test_an_empty_frame_bracket_forms_no_wedge(self, monkeypatch):
        # eta^rho (x) [X,Y] is formed only where [X,Y] is nonzero: on
        # solv4d that is 3 of the 10 leg pairs of psi_1
        g = catalog("solv4d")
        psi = kuranishi_build(g).psi_terms[1]
        want = _bracket_oracle(g, psi, psi)
        legs = list(psi.components.values())
        wedges = []
        wedge_terms = deformation_module._wedge_terms

        def counted(f, h):
            if any(f is x for x in legs) and any(h is x for x in legs):
                wedges.append((f, h))
            return wedge_terms(f, h)

        monkeypatch.setattr(deformation_module, "_wedge_terms", counted)
        got = vector_bracket(g, psi, psi)
        monkeypatch.undo()
        nonempty = [(i, j) for i in psi.components for j in psi.components
                    if i <= j and g.bracket(("h", i), ("h", j))]
        assert len(wedges) == len(nonempty) == 3
        assert got == want

    def test_a_zero_contraction_takes_no_d(self, monkeypatch):
        # iota_i of a (0,1)-form leg is zero, and d of it is never taken
        g = catalog("solv4d")
        psi = kuranishi_build(g).psi_terms[1]
        want = _bracket_oracle(g, psi, psi)
        d = Geometry.d

        def nonzero_only(geom, form):
            assert not form.is_zero(), "d of a zero form"
            return d(geom, form)

        monkeypatch.setattr(Geometry, "d", nonzero_only)
        got = vector_bracket(g, psi, psi)
        monkeypatch.undo()
        assert got == want

    @pytest.mark.parametrize("degree", [0, 2])
    def test_even_degree_legs_keep_the_full_loop(self, degree, monkeypatch):
        # for even legs the wedge terms of (i, j) and (j, i) cancel, so
        # halving the pairs would be wrong
        g = catalog("solv4d")
        (va,) = _pairs("va")
        e = S("E1")
        if degree == 0:
            legs = {1: _mono((), (), va), 2: _mono((), (), e), 3: _mono((), ())}
        else:
            legs = {1: _mono((), (1, 2), va), 2: _mono((), (3, 4), e),
                    3: _mono((1,), (2,)) + _mono((), (3, 4))}
        x = VectorForm(legs)
        pairs = _count_leg_pairs(monkeypatch)
        got = vector_bracket(g, x, x)
        assert len(pairs) == 9
        monkeypatch.undo()
        assert got == _bracket_oracle(g, x, x)
        assert not got.is_zero()

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
        # -T1^2 (1 - t11)(1 - conj t11) is negative off t11 = 1
        _, _, d = _nakamura_class1()
        gt = d.geometry()
        rep = pluriclosed_obstruction(gt, _mono((2,), (2,)), 1)
        assert rep.obstructed
        assert rep.sign == -1
        assert rep.notes == ("exact sign off t11 - 1 = 0",)

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
