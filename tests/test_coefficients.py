"""Field arithmetic, scalars, involution, derivatives, substitution, trial
division, sums of products over one denominator and squarefree parts."""

import math
import re
import sys
import threading
import time
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, QQ_I, ZZ_I
from sympy.polys.monomials import MonomialOps
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring

from ihg import (
    Coefficient,
    DenominatorVanishes,
    DivisionByZero,
    Form,
    GaussianRational,
    SectorMixing,
    StaleCoefficient,
)
from ihg import coefficients as coefficients_module
from ihg.exterior import VectorForm
from ihg.coefficients import (
    _Poly,
    _Reducer,
    _add_product,
    _atom_text,
    _canonical_unit,
    _conj_poly,
    _divided,
    _exact_quotient,
    _gauss_gcd,
    _gmul,
    _is_ground,
    _lift_poly,
    _lm,
    _mul,
    _neg,
    _over_common_denominator,
    _poly_gcd,
    _poly_key,
    _pow,
    _remainder,
    _scale,
    _sum,
    _table,
    _terms,
)
from ihg.symbols import (
    CHAR,
    CONJ,
    MAX_DEGREE,
    PARAM,
    REAL,
    DegreeOverflow,
    ParameterSymbol,
    RingContext,
    base_name,
    base_names,
    registry,
    with_partners,
)


def setup_symbols():
    registry.ensure_pair("t11")
    registry.ensure_pair("t21")
    registry.ensure_real("s")
    registry.ensure_char("E1")


def C(name):
    return Coefficient.symbol(name)


ONE = Coefficient.one

_CONJ_NAME = re.compile(r"conj\((\w+)\)")


def _parse(text):
    """sympy value of a render() string, conj(t) read as the symbol t_c."""
    src = _CONJ_NAME.sub(r"\1_c", text).replace("^", "**")
    names = {
        name: sympy.I if name == "i" else sympy.Symbol(name)
        for name in re.findall(r"[A-Za-z_]\w*", src)
    }
    return sympy.parse_expr(src, local_dict=names)


class TestGaussianRational:
    def test_arith(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3))
        b = GaussianRational(Fraction(2), Fraction(-1, 3))
        assert a + b == GaussianRational(Fraction(5, 2), Fraction(8, 3))
        assert a * b == GaussianRational(Fraction(2), Fraction(35, 6))
        assert (a / b) * b == a
        assert a - a == GaussianRational()

    def test_conjugate_is_involution(self):
        a = GaussianRational(Fraction(2, 7), Fraction(-5, 3))
        assert a.conjugate().conjugate() == a
        assert (a * a.conjugate()).im == 0

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            GaussianRational.of(1) / GaussianRational()

    def test_render_parses_shape(self):
        assert GaussianRational(Fraction(1, 2)).render() == "1/2"
        assert GaussianRational(Fraction(0), Fraction(1)).render() == "i"
        assert GaussianRational(Fraction(1), Fraction(-1)).render() == "(1 - i)"


class TestCoefficientField:
    def test_rational_constants(self):
        half = Coefficient.from_scalar(Fraction(1, 2))
        assert half + half == ONE()
        assert Coefficient.i() * Coefficient.i() == Coefficient.from_scalar(-1)

    def test_exact_division_cancellation(self):
        setup_symbols()
        t, tc = C("t11"), C("t11_c")
        f = ONE() - t * tc
        g = (f * f * (t + 1)) / f
        assert g == f * (t + 1)
        assert (g / (t + 1)) == f

    def test_zero_test_is_numerator_only(self):
        setup_symbols()
        t, tc = C("t11"), C("t11_c")
        expr = (t * tc - t * tc) / (ONE() - t * tc)
        assert expr.is_zero()

    def test_equality_cross_multiplied(self):
        setup_symbols()
        t, tc = C("t11"), C("t11_c")
        a = t / (ONE() - t * tc)
        b = (t * (ONE() + t)) / ((ONE() - t * tc) * (ONE() + t))
        assert a == b
        assert not (a == b + ONE())

    def test_equal_scalars_hash_equal(self):
        G = GaussianRational
        values = [
            0, 2, -3, Fraction(1, 2), Fraction(4, 2),
            G(Fraction(0)), G(Fraction(2)), G(Fraction(1, 2)),
            G(Fraction(2), Fraction(1)), G(Fraction(0), Fraction(1)),
            Coefficient.i(),
        ]
        values += [Coefficient.from_scalar(v) for v in values[:-1]]
        for a in values:
            for b in values:
                if a == b:
                    assert hash(a) == hash(b), (a, b)
        assert {2: "x"}.get(Coefficient.from_scalar(2)) == "x"
        assert len({2, Coefficient.from_scalar(2)}) == 1

    def test_real_gaussian_rational_equals_its_int_and_fraction(self):
        # equality agrees with the hash, so it is transitive across the
        # three scalar types
        G = GaussianRational
        assert G(Fraction(2)) == 2 and 2 == G(Fraction(2))
        assert G(Fraction(1, 2)) == Fraction(1, 2)
        assert G(Fraction(2), Fraction(1)) != 2
        assert G(Fraction(2)) != 3 and G(Fraction(2)) != "2"
        assert len({2, G(Fraction(2)), Coefficient.from_scalar(2)}) == 1

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            ONE() / Coefficient.zero()

    def test_char_inverse(self):
        setup_symbols()
        E = C("E1")
        assert E * E.conjugate() == ONE()
        assert (E ** 2) * (E.conjugate() ** 2) == ONE()
        assert E.conjugate() == ONE() / E

    def test_conjugation_involution_and_morphism(self):
        setup_symbols()
        t, u, E = C("t11"), C("t21"), C("E1")
        m = (t + Coefficient.i() * E ** 2) / (ONE() - t * t.conjugate() + E * u)
        assert m.conjugate().conjugate() == m
        n = u / (ONE() + E)
        assert (m * n).conjugate() == m.conjugate() * n.conjugate()
        assert (m + n).conjugate() == m.conjugate() + n.conjugate()

    def test_real_symbol_self_conjugate(self):
        setup_symbols()
        s = C("s")
        assert s.conjugate() == s

    def test_solv_determinant_factors_when_offdiagonal_vanishes(self):
        # 1 - |a|^2 - |b|^2 + |ab|^2 = (1 - |a|^2)(1 - |b|^2)
        registry.ensure_pair("a")
        registry.ensure_pair("b")
        a, b = C("a"), C("b")
        f = ONE() - a * a.conjugate() - b * b.conjugate() \
            + (a * b) * (a * b).conjugate()
        assert f == (ONE() - a * a.conjugate()) * (ONE() - b * b.conjugate())


class TestDerivatives:
    def test_quotient_rule(self):
        setup_symbols()
        t, tc = C("t11"), C("t11_c")
        T1 = ONE() / (ONE() - t * tc)
        assert T1.diff("t11") == tc * T1 * T1
        assert T1.diff("t11_c") == t * T1 * T1
        assert T1.diff("t21").is_zero()

    def test_leibniz(self):
        setup_symbols()
        t, u = C("t11"), C("t21")
        f = t ** 2 / (ONE() + u)
        g = (u + t) / (ONE() - t)
        lhs = (f * g).diff("t11")
        rhs = f.diff("t11") * g + f * g.diff("t11")
        assert lhs == rhs

    def test_euler_derivative(self):
        setup_symbols()
        E = C("E1")
        f = E ** 3 + 2 * E + ONE()
        assert f.euler("E1") == 3 * E ** 3 + 2 * E
        # through conjugates: euler(conj E) = -conj E
        assert E.conjugate().euler("E1") == -E.conjugate()

    def test_curve_derivative_at_zero(self):
        # d/dt [ t*u*a10 / (a5 - t*u*a2) ] at t = 0 equals u*a10/a5
        registry.ensure_real("t")
        for n in ("u", "a2", "a5", "a10"):
            registry.ensure_pair(n)
        t, u, a2, a5, a10 = (C(n) for n in ("t", "u", "a2", "a5", "a10"))
        f = (t * u * a10) / (a5 - t * u * a2)
        df = f.diff("t").substitute({"t": 0})
        assert df == (u * a10) / a5


class TestSubstitution:
    def test_auto_conjugate_binding(self):
        setup_symbols()
        t, tc = C("t11"), C("t11_c")
        T1 = ONE() / (ONE() - t * tc)
        v = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        got = T1.substitute({"t11": v}).scalar()
        assert got == GaussianRational(Fraction(36, 23))
        with pytest.raises(TypeError):
            T1.substitute({"t11": 0.5 + 0.25j})

    def test_explicit_conjugate_wins(self):
        setup_symbols()
        t, tc = C("t11"), C("t11_c")
        got = (t * tc).substitute({"t11": 2, "t11_c": 3}).scalar()
        assert got == GaussianRational(Fraction(6))

    def test_partial_substitution_returns_field_element(self):
        setup_symbols()
        t, u = C("t11"), C("t21")
        f = (t + u) / (ONE() - t * t.conjugate())
        g = f.substitute({"t11": GaussianRational(Fraction(1, 2))})
        assert g == (Coefficient.from_scalar(Fraction(1, 2)) + u) \
            / Coefficient.from_scalar(Fraction(3, 4))
        # a zero Coefficient is falsy, and still binds t11 like 0 does
        assert f.substitute({"t11": Coefficient.zero()}) == u
        assert f.substitute({"t11": 0}) == u

    def test_denominator_vanishes(self):
        setup_symbols()
        t = C("t11")
        T1 = ONE() / (ONE() - t * t.conjugate())
        with pytest.raises(DenominatorVanishes):
            T1.substitute({"t11": 1})

    def test_real_symbol_rejects_complex_value(self):
        setup_symbols()
        s = C("s")
        with pytest.raises(ValueError):
            s.substitute({"s": GaussianRational.i()})

    def test_substitute_composition(self):
        setup_symbols()
        t, u = C("t11"), C("t21")
        f = (t ** 2 + u) / (ONE() + t * u)
        a = GaussianRational(Fraction(1, 3), Fraction(1, 7))
        b = GaussianRational(Fraction(-2, 5))
        both = f.substitute({"t11": a, "t21": b})
        seq = f.substitute({"t11": a}).substitute({"t21": b})
        assert both == seq

    def test_surd_substitution_full_evaluation(self):
        # sqrt(3) is a real symbol s reduced modulo s^2 - 3: with every other
        # symbol bound, a remainder a + b*s is the value a + b*sqrt(3), so a
        # zero remainder is a value that vanishes there
        registry.ensure_real("T")
        registry.ensure_real("s")
        T, s = C("T"), C("s")
        root3 = [s * s - 3]
        at = {"T": 2 - s}
        P = (T + 1) ** 2 * (T ** 2 - 4 * T + 1)
        assert P.substitute(at).reduce_modulo(root3).is_zero()
        # 1/(T^2 - 4T + 1) is undefined there: its denominator reduces to 0
        v = (ONE() / (T ** 2 - 4 * T + 1)).substitute(at)
        assert (ONE() / v).numerator_normalized().reduce_modulo(root3).is_zero()
        # 1/(3 - sqrt(3)) = 1/2 + sqrt(3)/6
        v = (ONE() / (T + 1)).substitute(at)
        half = Coefficient.from_scalar(Fraction(1, 2))
        assert (v - half - s / 6).reduce_modulo(root3).is_zero()
        assert not (v - half).reduce_modulo(root3).is_zero()
        # two radicals are two symbols with their two relations
        registry.ensure_real("r")
        r = C("r")
        square = (s + r) ** 2 - 2 * s * r
        assert square.reduce_modulo([s * s - 3, r * r - 5]) == 8

    def test_numeric_binds_unbound_partners(self):
        setup_symbols()
        t = C("t11")
        assert (t * t.conjugate()).numeric({"t11": 1 + 2j}) == 5
        assert (t * t.conjugate()).numeric({"t11": 1 + 2j, "t11_c": 2}) == 2 + 4j
        assert (t * t.conjugate()).numeric({registry.lookup("t11"): 1 + 2j}) == 5

    def test_negative_power_keeps_the_base_as_one_atom(self):
        setup_symbols()
        t = C("t11")
        assert ((t + 1) ** -2).render() == "1/(t11 + 1)^2"
        assert ((t + 1) ** -2 * (t + 1)).render() == "1/(t11 + 1)"

    def test_char_binding_zero_rejected(self):
        setup_symbols()
        E = C("E1")
        with pytest.raises(DenominatorVanishes):
            (E + ONE()).substitute({"E1": 0})

    def test_char_binding_off_the_unit_circle_rejected(self):
        # conj(E) is stored as 1/E, so E = 2 would give conj(E) = 1/2
        setup_symbols()
        registry.ensure_char("E2")
        E = C("E1")
        for value in (2, C("t11")):
            with pytest.raises(ValueError, match="unit circle"):
                E.conjugate().substitute({"E1": value})
        unit = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        assert E.conjugate().substitute({"E1": unit}) * unit == ONE()
        assert E.conjugate().substitute({"E1": C("E2")}) == C("E2").conjugate()


class TestSectors:
    def test_char_decompose(self):
        setup_symbols()
        t, E = C("t11"), C("E1")
        m = t * E ** 2 + t.conjugate() * E.conjugate() + ONE()
        dec = m.char_decompose()
        assert dec[(2,)] == t
        assert dec[(-1,)] == t.conjugate()
        assert dec[(0,)] == ONE()
        recomposed = sum(
            (v * E ** k[0] for k, v in dec.items()), Coefficient.zero()
        )
        assert recomposed == m

    def test_char_decompose_keeps_free_atoms_and_shifts_by_char_atoms(self):
        setup_symbols()
        t, E = C("t11"), C("E1")
        free = t / (ONE() - t * t.conjugate())
        assert free.char_decompose() == {(0,): free}
        assert (t / E ** 2).char_decompose() == {(-2,): t}

    def test_char_decompose_rejects_a_mixed_atom(self):
        setup_symbols()
        t, E = C("t11"), C("E1")
        with pytest.raises(SectorMixing):
            (t / (E + t)).char_decompose()


class TestRegistryLifetime:
    def test_value_from_same_width_context_is_stale(self):
        # both contexts hold two symbols, so a width test cannot tell them apart
        registry.ensure_pair("a")
        a = C("a")
        registry.reset()
        registry.ensure_pair("b")
        with pytest.raises(StaleCoefficient):
            a + C("b")

    def test_value_from_narrower_context_is_stale(self):
        # padding a's exponents would read it as c, the new first symbol
        registry.ensure_pair("a")
        a = C("a")
        registry.reset()
        registry.ensure_pair("c")
        registry.ensure_real("r")
        with pytest.raises(StaleCoefficient):
            a + C("r")

    def test_value_lifts_within_its_lifetime(self):
        registry.ensure_pair("a")
        a = C("a")
        registry.ensure_real("r")
        assert (a + C("r")).render() == "a + r"

    def test_stale_operand_raises_through_every_sum(self):
        registry.ensure_pair("a")
        a = C("a")
        registry.reset()
        registry.ensure_pair("b")
        b = C("b")
        for pairs in ([(b, b), (a, b)], [(b, a)], [(a, 2)],
                      [(Coefficient.zero(), a)]):
            with pytest.raises(StaleCoefficient):
                Coefficient.sum_of_products(pairs)
        with pytest.raises(StaleCoefficient):
            Form.combination([(Form.monomial((1,), ()), a)])
        with pytest.raises(StaleCoefficient):
            Form.combination([(Form.monomial((1,), (), a), b)])

    def test_sum_lifts_an_operand_of_a_narrower_context(self):
        registry.ensure_pair("a")
        a = C("a")
        registry.ensure_real("r")
        r = C("r")
        got = Coefficient.sum_of_products([(r, r), (a, 3), (r, 2)])
        assert got._ctx is registry.context()
        assert got == r * r + a * 3 + r * 2
        assert got.render() == "r^2 + 3*a + 2*r"
        form = Form.combination([(Form.monomial((1,), ()), a),
                                 (Form.monomial((1,), (), r), ONE())])
        assert form.render() == "(a + r)*phi[1]"

    def test_reduce_modulo_lifts_a_generator_of_a_narrower_context(self):
        registry.ensure_pair("a")
        a = C("a")
        gen = a * a - 2
        registry.ensure_real("r")
        r = C("r")
        got = (a * a * r + r).reduce_modulo([gen])
        assert got._ctx is registry.context()
        assert got == 3 * r
        assert (a * a).reduce_modulo([C("a") * C("a") - 2]) == 2

    def test_reduce_modulo_rejects_a_stale_generator(self):
        # after a current generator too, and for a zero generator
        registry.ensure_pair("a")
        stale, stale_zero = C("a") - 1, Coefficient.zero()
        registry.reset()
        registry.ensure_pair("a")
        a = C("a")
        for gens in ([stale], [a, stale], [stale_zero]):
            with pytest.raises(StaleCoefficient):
                (a * a).reduce_modulo(gens)

    def test_a_reducer_lifts_its_generators_into_a_wider_context(self):
        # prepared in the narrow context, then the ring widens between an
        # append and the next reduce; a generator of the narrow context is
        # lifted when it joins tables of the wide one
        registry.ensure_pair("a")
        a = C("a")
        late = a * a.conjugate() - 1
        reducer = _Reducer([a * a - 2])
        assert reducer.reduce(a * a * a) == 2 * a
        registry.ensure_real("r")
        r = C("r")
        reducer.append(r * a - 1)
        assert reducer.reduce(a * a * r + a * r) == 2 * r + 1
        reducer.append(late)
        value = a * a * r + a * r + a * a.conjugate()
        got = reducer.reduce(value)
        assert got._ctx is registry.context()
        want = value.reduce_modulo(reducer.gens)
        assert got == want == 2 * r + 2
        assert got.render() == want.render()

    def test_a_reducer_rejects_a_stale_generator_or_value(self):
        registry.ensure_pair("a")
        a = C("a")
        reducer = _Reducer([a * a - 2])
        assert reducer.reduce(a * a) == 2
        stale = a * a
        registry.reset()
        registry.ensure_pair("a")
        with pytest.raises(StaleCoefficient):
            reducer.reduce(C("a") * C("a"))
        with pytest.raises(StaleCoefficient):
            _Reducer().reduce(stale)
        with pytest.raises(StaleCoefficient):
            _Reducer([Coefficient.zero()]).reduce(stale)

    def test_lifetime_checks_lift_nothing(self, monkeypatch):
        # render and has_characters read the value in its own context
        setup_symbols()
        t, u, e = C("t11"), C("t21"), C("E1")
        rendered = (t * e + 1) / (1 + u)
        text = rendered.render()
        unrendered = t / (1 + u * u.conjugate())
        registry.ensure_pair("w")
        want = unrendered._refreshed().render()
        lifts = []
        monkeypatch.setattr(coefficients_module, "_lift_poly",
                            lambda *args: lifts.append(args))
        assert rendered.render() == text
        assert unrendered.render() == want
        assert rendered.has_characters() and not unrendered.has_characters()
        assert not lifts
        registry.reset()
        for value in (rendered, unrendered):
            with pytest.raises(StaleCoefficient):
                value.render()
            with pytest.raises(StaleCoefficient):
                value.has_characters()

    def test_concurrent_registration_never_caches_a_stale_context(self):
        # context() reads a built context without the lock; a context built
        # before an _add must never be the one kept after it.  One round
        # exposes a context built outside the lock about a third of the
        # time, so the rounds repeat.
        seen = []

        def register(k):
            for j in range(8):
                registry.ensure_pair(f"p{k}_{j}")
                seen.append(registry.context())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                registry.reset()
                seen.clear()
                threads = [
                    threading.Thread(target=register, args=(k,))
                    for k in range(4)
                ]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
                assert not any(th.is_alive() for th in threads)
                names = registry.context().names
                assert len(names) == 64
                assert all(c.names == names[:len(c.names)] for c in seen)
        finally:
            sys.setswitchinterval(interval)


class TestSymbolKinds:
    def test_pair_whose_partner_is_taken_registers_nothing(self):
        registry.ensure_real("t_c")
        with pytest.raises(ValueError, match="'t_c'"):
            registry.ensure_pair("t")
        with pytest.raises(KeyError):
            registry.lookup("t")
        assert registry.lookup("t_c").kind == REAL
        assert registry.context().names == ("t_c",)

    def test_threads_ensuring_one_new_pair_get_the_same_symbols(self):
        # a check of the name released before the pair is added lets a
        # second thread register it in between, and the first then raises;
        # the barrier and the short switch interval make that interleaving
        # likely
        rounds, width = 40, 4
        barrier = threading.Barrier(width, timeout=60)
        results: list = []
        errors: list = []

        def ensure():
            barrier.wait()
            try:
                results.append(registry.ensure_pair("t"))
            except ValueError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                registry.reset()
                results.clear()
                threads = [threading.Thread(target=ensure) for _ in range(width)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
                assert not any(th.is_alive() for th in threads)
                assert errors == []
                assert len(results) == width
                assert all(r == results[0] for r in results)
                assert registry.context().names == ("t", "t_c")
        finally:
            sys.setswitchinterval(interval)

    def test_base_name_and_base_names(self):
        setup_symbols()
        assert base_name("t21_c") == "t21"
        assert base_name("t11") == "t11"
        assert base_name("s") == "s"
        assert base_name("E1") is None
        coefficients = [C("t11") * C("E1"), C("t21").conjugate(), C("s")]
        assert base_names(coefficients) == ["s", "t11", "t21"]
        assert base_names([C("E1"), ONE()]) == []

    def test_with_partners_binds_conjugates_unless_bound(self):
        setup_symbols()
        assert with_partners({registry.lookup("t11"): 1 + 2j, "s": 3, "E1": 1j}) == {
            "t11": 1 + 2j, "t11_c": 1 - 2j, "s": 3, "E1": 1j}
        assert with_partners({"t21_c": 2j}) == {"t21_c": 2j, "t21": -2j}
        assert with_partners({"t11": 1j, "t11_c": 5}) == {"t11": 1j, "t11_c": 5}
        with pytest.raises(KeyError):
            with_partners({"nope": 1})

    def test_require_real(self):
        setup_symbols()
        assert registry.require_real("s") == registry.lookup("s")
        for name in ("missing", "t11", "t11_c", "E1"):
            with pytest.raises(ValueError, match="not a registered real"):
                registry.require_real(name)


# -- randomized algebraic laws ------------------------------------------------

gaussians = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


def small_elements():
    setup_symbols()
    t, u, E = C("t11"), C("t21"), C("E1")
    atoms = [
        ONE(),
        t,
        u,
        E,
        t.conjugate(),
        E.conjugate(),
        Coefficient.i(),
        ONE() - t * t.conjugate(),
    ]
    return atoms


@st.composite
def coefficients(draw, max_ops=3):
    atoms = small_elements()
    expr = draw(st.sampled_from(atoms))
    for _ in range(draw(st.integers(0, max_ops))):
        op = draw(st.sampled_from(["+", "-", "*"]))
        rhs = draw(st.sampled_from(atoms))
        expr = {"+": expr.__add__, "-": expr.__sub__, "*": expr.__mul__}[op](rhs)
    if draw(st.booleans()):
        denom = draw(st.sampled_from(atoms[1:]))
        if not denom.is_zero():
            expr = expr / denom
    return expr


@settings(max_examples=60)
@given(coefficients(), coefficients(), coefficients())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60)
@given(coefficients(), coefficients())
def test_conjugation_is_ring_morphism(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@settings(max_examples=40)
@given(coefficients(), gaussians, gaussians)
def test_substitution_is_homomorphism(a, v, w):
    # a character value lies on the unit circle
    bindings = {"t11": v, "t21": w,
                "E1": GaussianRational(Fraction(3, 5), Fraction(4, 5))}
    try:
        lhs = (a * a).substitute(bindings)
        rhs = a.substitute(bindings) * a.substitute(bindings)
    except DenominatorVanishes:
        return
    assert lhs == rhs


@settings(max_examples=40)
@given(coefficients(), coefficients())
def test_derivative_leibniz_random(a, b):
    lhs = (a * b).diff("t11")
    rhs = a.diff("t11") * b + a * b.diff("t11")
    assert lhs == rhs


def _quotient_rule_euler(c):
    """E1 * d/dE1 of c by the full quotient rule."""
    r = c._refreshed()
    idx = r._ctx.index_of["E1"]
    return r._derive(lambda p: coefficients_module._poly_euler(p, idx, r._ctx))


@st.composite
def euler_values(draw):
    # over conj(E1) = 1/E1, with parameter polynomials and monomial atoms
    # in the denominator: t11 and E1 (one atom each), E1*t11 (one
    # monomial atom, which takes the quotient rule) and E1 + t11 (mixed)
    value = draw(coefficients())
    t, u, e = C("t11"), C("t21"), C("E1")
    denominators = [t, e, e.conjugate(), e * t, ONE() - t * t.conjugate(),
                    e + t, e * e + u]
    for d in draw(st.lists(st.sampled_from(denominators), max_size=2)):
        value = value / d
    return value


@settings(max_examples=60)
@given(euler_values())
def test_euler_closed_form_matches_the_quotient_rule(c):
    got, want = c.euler("E1"), _quotient_rule_euler(c)
    assert got == want
    assert got.render() == want.render()


def test_euler_closed_form_and_its_fallback(monkeypatch):
    # the closed form where E1 is no atom but the atom E1 itself, the
    # quotient rule otherwise; both give the quotient rule's normal form
    setup_symbols()
    t, u, e = C("t11"), C("t21"), C("E1")
    cases = [
        # (E1*t21 + t11)/(E1*t11): the t11 term alone survives and cancels
        # the atom t11
        ((e * u + t) / e / t, -1 / e, False),
        # no character: zero
        (t / (ONE() - t * t.conjugate()), Coefficient.zero(), False),
        (e.conjugate() * t / (ONE() + t), -e.conjugate() * t / (ONE() + t),
         False),
        # a mixed atom takes the quotient rule
        (ONE() / (e + t), -e / (e + t) ** 2, True),
    ]
    calls = []
    derive = Coefficient._derive

    def counted(self, derivation):
        calls.append(self)
        return derive(self, derivation)

    monkeypatch.setattr(Coefficient, "_derive", counted)
    for value, want, fallback in cases:
        calls.clear()
        got = value.euler("E1")
        assert len(calls) == fallback, value.render()
        assert got == want, value.render()
        assert got.render() == _quotient_rule_euler(value).render()
    # the first value carries the atoms E1 and t11 apart
    assert len(cases[0][0]._den) == 2


@settings(max_examples=40)
@given(coefficients())
def test_conjugate_commutes_with_numeric(a):
    # characters must sit on the unit circle for conj(E) = 1/E to hold
    pt = {
        "t11": 0.21 + 0.13j, "t11_c": 0.21 - 0.13j,
        "t21": -0.4 + 0.05j, "t21_c": -0.4 - 0.05j,
        "s": 0.7, "E1": 0.6 + 0.8j,
    }
    try:
        x = a.numeric(pt)
    except ZeroDivisionError:
        return
    y = a.conjugate().numeric(pt)
    assert abs(x.conjugate() - y) < 1e-9


@settings(max_examples=60)
@given(coefficients())
def test_a_unit_product_is_the_normal_form_and_computes_nothing(x):
    # x*1 is x and x*(-1) its negation, field by field what the general
    # product would normalize to, with nothing scaled or normalized
    ctx = registry.context()
    one, minus = ONE(), Coefficient.from_scalar(-1)
    with mock.patch.object(coefficients_module, "_scale",
                           wraps=coefficients_module._scale) as scale, \
            mock.patch.object(Coefficient, "_make",
                              wraps=Coefficient._make) as make:
        got = [(x * one, one), (one * x, one), (x * minus, minus),
               (minus * x, minus)]
    assert scale.call_count == make.call_count == 0
    for product, unit in got:
        want = Coefficient._make(_mul(x._num, unit._num, ctx),
                                 x._den + unit._den, x._q * unit._q, ctx)
        assert (product._num, product._den, product._q) \
            == (want._num, want._den, want._q)


def test_a_monomial_sign_is_a_negation():
    with mock.patch.object(Coefficient, "_times",
                           wraps=Coefficient._times) as times:
        f = Form.monomial((2, 1), ())
    assert times.call_count == 0
    assert f == -Form.monomial((1, 2), ())
    assert f.coeff((1, 2), ()) == -1


@st.composite
def partial_points(draw):
    """Bindings of t11 and t21, each left free, zero or a Gaussian
    rational, and of E1, left free or on the unit circle."""
    point = {}
    for name in ("t11", "t21"):
        kind = draw(st.sampled_from(["free", "zero", "value"]))
        if kind != "free":
            point[name] = 0 if kind == "zero" else draw(gaussians)
    if draw(st.booleans()):
        point["E1"] = draw(st.sampled_from([
            1, GaussianRational(Fraction(0), Fraction(-1)),
            GaussianRational(Fraction(3, 5), Fraction(4, 5))]))
    return point


def _sympy_point(point):
    """The sympy values of the bound symbols, conj(t) the conjugate of t's;
    conj(E1) is 1/E1, which render() shows as such."""
    values = {}
    for name, v in point.items():
        g = GaussianRational.of(v)
        z = sympy.Rational(g.re.numerator, g.re.denominator) \
            + sympy.I * sympy.Rational(g.im.numerator, g.im.denominator)
        values[sympy.Symbol(name)] = z
        if name != "E1":
            values[sympy.Symbol(f"{name}_c")] = sympy.conjugate(z)
    return values


@settings(max_examples=60)
@given(coefficients(), partial_points())
def test_partial_substitution_matches_sympy(a, point):
    values = _sympy_point(point)
    try:
        got = a.substitute(point)
    except DenominatorVanishes:
        assert any(sympy.simplify(_parse(_atom_text(atom, a._ctx))
                                  .subs(values)) == 0 for atom, _ in a._den)
        return
    want = _parse(a.render()).subs(values)
    assert sympy.simplify(_parse(got.render()) - want) == 0


def test_partial_substitution_keeps_its_checks():
    setup_symbols()
    t, u, E = C("t11"), C("t21"), C("E1")
    with pytest.raises(DenominatorVanishes):
        (u / t).substitute({"t11": 0})
    with pytest.raises(DenominatorVanishes):
        (u / (ONE() + t * E)).substitute({"t11": 1, "E1": -1})
    with pytest.raises(ValueError, match="real symbol"):
        (C("s") + u).substitute({"s": GaussianRational.i()})
    with pytest.raises(ValueError, match="unit circle"):
        (E + u).substitute({"E1": 2})
    # a form prepares the point once and raises the same errors
    with pytest.raises(DenominatorVanishes):
        Form.monomial((1,), (), u / t).substitute({"t11": 0})
    with pytest.raises(ValueError, match="real symbol"):
        Form.monomial((1,), (), C("s") + u).substitute({"s": GaussianRational.i()})
    with pytest.raises(ValueError, match="unit circle"):
        Form.monomial((1,), (2,), E + u).substitute({"E1": 2})
    # an empty form substitutes nothing, so it raises nothing
    assert Form().substitute({"s": GaussianRational.i()}).is_zero()
    assert Form().substitute({"E1": 2}).is_zero()
    assert VectorForm().substitute({"E1": 2}).is_zero()


def test_a_form_prepares_its_point_once(monkeypatch):
    # one with_partners call per Form.substitute and per VectorForm.substitute,
    # whatever the number of coefficients and legs, with the values of the
    # coefficient-by-coefficient substitute
    setup_symbols()
    t, u, s, e = C("t11"), C("t21"), C("s"), C("E1")
    coeffs = [t * u + 1, t.conjugate() / (u + 2), s * t + e, u * u - t * t,
              t - GaussianRational.i()]
    form = Form()
    for k, c in enumerate(coeffs, start=1):
        form = form + Form.monomial((k % 3 + 1,), (k,), c)
    vector = VectorForm({1: form, 2: Form.monomial((1,), (), s * u), 3: form * t})
    bindings = {"t11": GaussianRational.i(), "s": 2}
    calls = []

    def counted(point):
        calls.append(point)
        return with_partners(point)

    monkeypatch.setattr(coefficients_module, "with_partners", counted)
    got = form.substitute(bindings)
    assert len(calls) == 1
    got_vector = vector.substitute(bindings)
    assert len(calls) == 2
    pairs = [(got, form)] + [(got_vector.components.get(a, Form()), f)
                             for a, f in vector.components.items()]
    for whole, original in pairs:
        want = {mi: c.substitute(bindings) for mi, c in original.terms()}
        want = {mi: c for mi, c in want.items() if not c.is_zero()}
        assert dict(whole.terms()).keys() == want.keys()
        for mi, c in whole.terms():
            assert c == want[mi] and c.render() == want[mi].render()


# -- the polynomial kernels against sympy's PolyElement over ZZ_I ---------------
#
# The kernels work on dicts of integer pairs; each test converts sympy
# polynomials to them and back at its boundary.

R, X, Y, Z = ring("x,y,z", QQ_I, grlex)
RZ, XZ, YZ, ZZ_ = ring("x,y,z", ZZ_I, grlex)
XYZ = RingContext(
    tuple(ParameterSymbol(name, REAL, None, k) for k, name in enumerate("xyz")),
    object(),
)


def _pairs(p, ctx=XYZ):
    """A polynomial over ZZ_I as the kernel's dict from packed monomial to
    integer pair."""
    return _Poly({ctx.pack(m): (int(c.x), int(c.y)) for m, c in p.items()})


def _poly(p, ring=RZ, ctx=XYZ):
    """The kernel's dict from packed monomial to integer pair as a
    polynomial of ring."""
    return ring.from_dict({ctx.unpack(m): ring.domain(*c) for m, c in p.items()})


@st.composite
def polys(draw, min_terms=0):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        gaussians.filter(bool),
        min_size=min_terms,
        max_size=4,
    ))
    return R.from_dict({m: _qqi(c) for m, c in terms.items()})


def _qqi(g):
    return QQ_I.new(QQ(g.re.numerator, g.re.denominator),
                    QQ(g.im.numerator, g.im.denominator))


def _cleared(p):
    """(d, p0) with p = p0 / d for p over QQ_I: p0 over ZZ_I, d > 0."""
    d = 1
    for c in p.values():
        d = math.lcm(d, c.x.denominator, c.y.denominator)
    return d, RZ.from_dict({
        m: ZZ_I(c.x.numerator * (d // c.x.denominator),
                c.y.numerator * (d // c.y.denominator))
        for m, c in p.items()
    })


def _check_against_divmod(p, g):
    """_exact_quotient against sympy's divmod.  A polynomial over QQ_I is
    cleared to ZZ_I, and the divisor taken to its primitive part, as
    normalization divides: by Gauss's lemma that is division over Q(i)."""
    quo, rem = divmod(p, g)
    if p.ring.domain == ZZ_I:
        got = _exact_quotient(_pairs(p), _pairs(g), XYZ)
        if rem:
            assert got is None
        else:
            assert _poly(got) == quo
        return quo, rem
    d, p0 = _cleared(p)
    e, g1 = _cleared(g)
    content, g0 = g1.primitive()
    got = _exact_quotient(_pairs(p0), _pairs(g0), XYZ)
    if rem:
        assert got is None
    else:
        # p0 / g0 = (p / g) * d * content / e
        factor = QQ_I(d * content.x, d * content.y) / QQ_I(e, 0)
        assert _poly(got, R) == quo * factor
    return quo, rem


@settings(max_examples=50)
@given(polys(), polys(min_terms=1), polys(), st.booleans())
def test_exact_quotient_matches_divmod(p, g, q, planted):
    if planted:
        p = g * q
    _, rem = _check_against_divmod(p, g)
    if planted:
        assert not rem


@st.composite
def gaussian_integer_polys(draw, min_terms=0):
    part = st.integers(-4, 4)
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        st.builds(ZZ_I, part, part).filter(bool),
        min_size=min_terms,
        max_size=4,
    ))
    return RZ.from_dict(terms)


@settings(max_examples=50)
@given(gaussian_integer_polys(), gaussian_integer_polys(min_terms=1),
       gaussian_integer_polys(), st.booleans())
def test_exact_quotient_over_gaussian_integers_matches_divmod(p, g, q, planted):
    # a leading coefficient that LC(g) does not divide ends the division
    if planted:
        p = g * q
    _, rem = _check_against_divmod(p, g)
    if planted:
        assert not rem


def test_exact_quotient_fails_late():
    # x^3 and then x^2 divide by LT(g) = x before y, a middle term, does not;
    # the remainder y + 1 has a term after it
    g = XZ + ZZ_I(0, 1)
    p = g * (XZ**2 + XZ) + YZ + 1
    quo, rem = _check_against_divmod(p, g)
    assert quo == XZ**2 + XZ
    assert rem == YZ + 1


def test_exact_quotient_by_a_ground_divisor():
    g = RZ(ZZ_I(2, 3))
    p = XZ**2 * YZ + 3 * ZZ_
    _check_against_divmod(p, g)
    assert _exact_quotient(_pairs(p), _pairs(g), XYZ) is None
    assert _poly(_exact_quotient(_pairs(p * g), _pairs(g), XYZ)) == p
    # over Q(i) the same division is exact
    _check_against_divmod(X**2 * Y + 3 * Z, R(QQ_I(2, 3)))


def test_exact_quotient_repeated_atom():
    g = XZ * YZ - 1
    p = g**2 * (ZZ_ + 1)
    once, _ = _check_against_divmod(p, g)
    twice, _ = _check_against_divmod(once, g)
    assert twice == ZZ_ + 1
    assert _exact_quotient(_pairs(twice), _pairs(g), XYZ) is None
    # normalization cancels an atom of multiplicity > 1 as far as it divides
    setup_symbols()
    t = C("t11")
    a = ONE() - t * t.conjugate()
    assert ((t / a) ** 2 * (a * a)).render() == "t11^2"
    assert ((t / a) ** 3 * a).render() == "t11^3/(t11*conj(t11) - 1)^2"
    assert (t * a * a).is_multiple_of(a * t)
    assert not (t * a).is_multiple_of(a * a)


@settings(max_examples=50)
@given(gaussian_integer_polys(), gaussian_integer_polys())
def test_product_matches_sympy(p, q):
    got = _mul(_pairs(p), _pairs(q), XYZ)
    assert got == _pairs(p * q)
    assert all(c != (0, 0) for c in got.values())


@settings(max_examples=50)
@given(st.lists(gaussian_integer_polys(), max_size=4), st.booleans())
def test_sum_matches_sympy(ps, cancel):
    if cancel:
        ps = ps + [-p for p in ps]  # a total of zero
    got = _sum([_pairs(p) for p in ps])
    assert got == _pairs(sum(ps, RZ.zero))
    assert all(c != (0, 0) for c in got.values())
    if cancel:
        assert got == {}


@settings(max_examples=30)
@given(gaussian_integer_polys(), st.integers(1, 4))
def test_power_matches_sympy(p, k):
    assert _pow(_pairs(p), k, XYZ) == _pairs(p**k)


# -- the leading monomial cached on a finished polynomial -----------------------


def _assert_leads(*ps):
    """Each lead cached on a polynomial is its leading monomial."""
    for p in ps:
        lm = getattr(p, "_lm", None)
        assert lm is None or lm == max(p, default=0)


@settings(max_examples=50)
@given(gaussian_integer_polys(), gaussian_integer_polys(min_terms=1),
       st.integers(1, 3), st.booleans())
def test_a_cached_lead_is_the_leading_monomial(p, g, k, read):
    # _mul, _exact_quotient and _pow know the lead of their result, and
    # _neg, _scale and _divided keep the lead of their input, read or not
    a, b = _pairs(p), _pairs(g)
    if read:
        _lm(b)
    prod = _mul(a, b, XYZ)
    quo = _exact_quotient(prod, b, XYZ)
    assert quo == a
    kept = [_neg(prod), _scale(prod, (2, -1)), _scale(prod, (3, 0)),
            _divided(_scale(prod, (1, 1)), (1, 1)),
            _divided(_scale(prod, (4, 0)), (2, 0))]
    if prod:
        for x in (prod, quo, *kept):
            assert getattr(x, "_lm", None) is not None
    _assert_leads(a, b, prod, quo, *kept, _neg(b), _scale(b, (0, 1)),
                  _pow(b, k, XYZ), _pow(prod, k, XYZ))


@settings(max_examples=50)
@given(gaussian_integer_polys(),
       st.tuples(*[st.integers(0, 2)] * 3),
       st.lists(st.tuples(gaussian_integer_polys(), gaussian_integer_polys()),
                max_size=3))
def test_an_accumulator_carries_no_lead(p, m, rest):
    # the first product goes into a fresh accumulator, by the one-term
    # path, and the later ones change it in place: a lead cached on it
    # would go stale when a later product passes it
    out = _add_product(None, _pairs(p), _Poly({XYZ.pack(m): (1, 0)}), 1, XYZ)
    want = p * XZ**m[0] * YZ**m[1] * ZZ_**m[2]
    for x, y in rest:
        out = _add_product(out, _pairs(x), _pairs(y), 2, XYZ)
        want += 2 * x * y
    assert getattr(out, "_lm", None) is None
    assert out == _pairs(want)


def test_a_sum_whose_lead_comes_late_keeps_the_true_lead():
    # sum_of_products adds t*1 into a fresh numerator and then u^2 into
    # it; normalization reads the lead of the finished sum
    setup_symbols()
    t, u = C("t11"), C("t21")
    a = ONE() + t
    got = Coefficient.sum_of_products([(t / a, ONE()), (u / a, u)])
    assert got.render() == "(t21^2 + t11)/(t11 + 1)"
    _assert_leads(got._num, *(atom for atom, _ in got._den))
    assert got == t / a + u * u / a


@pytest.mark.parametrize("read", [False, True])
def test_degree_checks_read_the_cached_lead(read):
    # the degree of a product is the sum of the leads' degrees; a lead read
    # before, and cached, guards the same as one scanned
    x = _Poly({XYZ.pack((MAX_DEGREE - 3, 0, 0)): (1, 0), 0: (2, 0)})
    y = _Poly({XYZ.pack((0, 4, 0)): (1, 0), XYZ.pack((1, 0, 0)): (1, 1)})
    z = _Poly({XYZ.pack((0, 0, 3)): (1, 0), 0: (1, 0)})
    w = _Poly({XYZ.pack((0, 0, 151)): (0, 1)})  # 217 * 151 == MAX_DEGREE
    if read:
        for q in (x, y, z, w):
            _lm(q)
    with pytest.raises(DegreeOverflow):
        _add_product(None, x, y, 1, XYZ)
    with pytest.raises(DegreeOverflow):
        _add_product(_mul(x, z, XYZ), y, x, 3, XYZ)
    with pytest.raises(DegreeOverflow):
        _mul(y, x, XYZ)
    with pytest.raises(DegreeOverflow):
        _pow(x, 2, XYZ)
    with pytest.raises(DegreeOverflow):
        _pow(w, 218, XYZ)
    edge = _mul(x, z, XYZ)
    assert _lm(edge) == max(edge) == XYZ.pack((MAX_DEGREE - 3, 0, 3))
    assert _lm(_pow(w, 217, XYZ)) == XYZ.pack((0, 0, MAX_DEGREE))


@settings(max_examples=50)
@given(gaussian_integer_polys(), st.lists(gaussian_integer_polys(min_terms=1),
                                          min_size=1, max_size=3))
def test_remainder_matches_division_over_q_i(p, divisors):
    # r / s is the remainder of sympy's division over Q(i), taken in the
    # same divisor order and grlex
    r, s = _remainder(_pairs(p), [_table(_pairs(g)) for g in divisors], XYZ)
    assert s != (0, 0)
    _, want = R.from_dict(dict(p)).div([R.from_dict(dict(g)) for g in divisors])
    assert _poly(r, R) == want * QQ_I(*s)


# t, conj(t), a real s and a character E: conj(E) = 1/E
TE = RingContext((
    ParameterSymbol("t", PARAM, "t_c", 0),
    ParameterSymbol("t_c", CONJ, "t", 1),
    ParameterSymbol("s", REAL, None, 2),
    ParameterSymbol("E", CHAR, None, 3),
), object())
RT, T_, TC_, S_, E_ = ring("t,t_c,s,E", ZZ_I, grlex)


@st.composite
def character_polys(draw):
    part = st.integers(-4, 4)
    return RT.from_dict(draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 4),
        st.builds(ZZ_I, part, part).filter(bool),
        max_size=4,
    )))


@settings(max_examples=50)
@given(character_polys())
def test_conjugate_matches_sympy(p):
    # conj(c * t^a * conj(t)^b * s^r * E^e) = conj(c) * conj(t)^a * t^b * s^r / E^e,
    # brought over E^shift with shift the largest e
    shift = max((m[3] for m in p), default=0)
    want = RT.zero
    for (a, b, r, e), c in p.items():
        want += RT(ZZ_I(c.x, -c.y)) * TC_**a * T_**b * S_**r * E_**(shift - e)
    got, shifts = _conj_poly(_pairs(p, TE), TE)
    assert got == _pairs(want, TE)
    assert shifts == ({3: shift} if shift else {})


# -- the Gaussian gcds against sympy's ZZ_I -------------------------------------

UNITS = [ZZ_I(1, 0), ZZ_I(0, 1), ZZ_I(-1, 0), ZZ_I(0, -1)]
gaussian_integers = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))


@settings(max_examples=100)
@given(gaussian_integers, gaussian_integers, gaussian_integers)
def test_gaussian_gcd_matches_zz_i_up_to_a_unit(a, b, c):
    # a planted common factor c makes most of the gcds nontrivial
    a, b = ZZ_I(*a) * ZZ_I(*c), ZZ_I(*b) * ZZ_I(*c)
    got = _gauss_gcd((int(a.x), int(a.y)), (int(b.x), int(b.y)))
    assert any(ZZ_I(*got) == ZZ_I.gcd(a, b) * u for u in UNITS)


@settings(max_examples=100)
@given(gaussian_integers.filter(lambda c: c != (0, 0)))
def test_canonical_unit_matches_zz_i(c):
    u = ZZ_I.canonical_unit(ZZ_I(*c))
    assert _canonical_unit(c) == (u.x, u.y)
    x, y = _gmul(_canonical_unit(c), c)
    assert x > 0 and y >= 0


@settings(max_examples=30)
@given(gaussian_integer_polys(min_terms=1), gaussian_integer_polys(min_terms=1),
       gaussian_integer_polys(min_terms=1))
def test_poly_gcd_matches_zz_i_up_to_a_unit(a, b, c):
    # a planted common factor c makes most of the gcds nontrivial
    f, g = a * c, b * c
    got = _poly_gcd(_pairs(f), _pairs(g), XYZ)
    assert any(_poly(got) == f.gcd(g) * u for u in UNITS)


# -- packed monomials against sympy's exponent tuples ---------------------------


@st.composite
def contexts(draw):
    """(ctx, wide): a context over 1 to 40 symbols, parameter pairs, reals
    and characters in a drawn order, and a wider one of its lifetime."""
    width = draw(st.integers(1, 40))
    symbols: list = []
    while len(symbols) < width:
        k = len(symbols)
        kinds = [PARAM, REAL, CHAR] if width - k > 1 else [REAL, CHAR]
        kind = draw(st.sampled_from(kinds))
        if kind == PARAM:
            symbols += [ParameterSymbol(f"t{k}", PARAM, f"t{k}_c", k),
                        ParameterSymbol(f"t{k}_c", CONJ, f"t{k}", k + 1)]
        else:
            symbols.append(ParameterSymbol(f"s{k}", kind, None, k))
    wider = symbols + [ParameterSymbol(f"w{k}", REAL, None, k)
                       for k in range(width, width + draw(st.integers(0, 3)))]
    lifetime = object()
    return RingContext(tuple(symbols), lifetime), RingContext(tuple(wider), lifetime)


def _conjugate_reference(vectors, ctx):
    """(image, shifts) of conj on exponent tuples: each parameter's exponent
    swapped with its partner's, each character's e taken to shift - e."""
    kinds = [s.kind for s in ctx.symbols]
    shifts = {i: max(v[i] for v in vectors) for i, kind in enumerate(kinds)
              if kind == CHAR}
    images = []
    for v in vectors:
        image = list(v)
        for i, kind in enumerate(kinds):
            if kind == PARAM:
                image[i], image[i + 1] = v[i + 1], v[i]
            elif kind == CHAR:
                image[i] = shifts[i] - v[i]
        images.append(tuple(image))
    return images, {i: s for i, s in shifts.items() if s}


@settings(max_examples=80)
@given(contexts(), st.data())
def test_packed_monomials_match_sympy(pair, data):
    # multiply, divide, grlex order, lift and conjugate on packed ints
    # against sympy's MonomialOps and grlex on the exponent tuples
    ctx, wide = pair
    width = len(ctx.names)
    ops = MonomialOps(width)
    monomial_mul, monomial_div = ops.mul(), ops.div()
    vector = st.tuples(*[st.integers(0, 3)] * width)
    a, b = data.draw(vector), data.draw(vector)
    vectors = data.draw(st.lists(vector, min_size=1, max_size=6, unique=True))
    assert ctx.unpack(ctx.pack(a)) == a
    product = _mul(_Poly({ctx.pack(a): (2, 1)}), _Poly({ctx.pack(b): (1, -1)}), ctx)
    assert product == {ctx.pack(monomial_mul(a, b)): (3, -1)}
    want = monomial_div(a, b)
    got = _exact_quotient(_Poly({ctx.pack(a): (1, 0)}), _Poly({ctx.pack(b): (1, 0)}), ctx)
    assert got == (None if want is None else {ctx.pack(want): (1, 0)})
    p = _Poly({ctx.pack(v): (k + 1, -k) for k, v in enumerate(vectors)})
    assert [ctx.unpack(m) for m, _ in _terms(p)] == sorted(vectors, key=grlex,
                                                          reverse=True)
    pad = (0,) * (len(wide.names) - width)
    assert _lift_poly(p, wide.deg_shift - ctx.deg_shift) == {
        wide.pack(v + pad): (k + 1, -k) for k, v in enumerate(vectors)}
    images, shifts = _conjugate_reference(vectors, ctx)
    assert _conj_poly(p, ctx) == (
        {ctx.pack(w): (k + 1, k) for k, w in enumerate(images)}, shifts)


@pytest.mark.parametrize("a,b", [
    ((1, 0, 0), (0, 1, 0)),  # z - y borrows from the x field
    ((1, 0, 3), (0, 0, 4)),  # a borrow runs through the empty y field
    ((0, 5, 0), (1, 0, 0)),  # the top field borrows from the degree
    ((2, 1, 0), (1, 1, 0)),
    ((1,) + (0,) * 39, (0,) * 39 + (1,)),  # through 38 empty fields
    ((3,) * 40, (3,) * 39 + (4,)),
])
def test_packed_division_borrows_into_a_guard_bit(a, b):
    ctx = RingContext(tuple(ParameterSymbol(f"x{k}", REAL, None, k)
                            for k in range(len(a))), object())
    want = MonomialOps(len(a)).div()(a, b)
    got = _exact_quotient(_Poly({ctx.pack(a): (1, 0)}), _Poly({ctx.pack(b): (1, 0)}), ctx)
    assert got == (None if want is None else {ctx.pack(want): (1, 0)})


def test_a_parameter_and_its_partner_take_adjacent_fields():
    # conjugation swaps a parameter's field with the next one
    apart = (ParameterSymbol("t", PARAM, "t_c", 0), ParameterSymbol("s", REAL, None, 1),
             ParameterSymbol("t_c", CONJ, "t", 2))
    with pytest.raises(ValueError, match="not the next symbol"):
        RingContext(apart, object())
    registry.ensure_pair("t")
    registry.ensure_real("s")
    registry.ensure_pair("u")
    assert registry.context().names == ("t", "t_c", "s", "u", "u_c")


def test_degree_past_the_field_raises_instead_of_carrying():
    # every exponent is at most the total degree, so the kernels refuse a
    # total degree above MAX_DEGREE before any field can overflow
    setup_symbols()
    t, u, E = C("t11"), C("t21"), C("E1")
    assert (t ** MAX_DEGREE).render() == f"t11^{MAX_DEGREE}"
    with pytest.raises(DegreeOverflow):
        t ** (MAX_DEGREE + 1)
    half = t ** (MAX_DEGREE // 2 + 1)
    with pytest.raises(DegreeOverflow):
        half * half
    # each exponent fits its field, the total degree does not
    with pytest.raises(DegreeOverflow):
        t ** MAX_DEGREE * u
    with pytest.raises(DegreeOverflow):
        XYZ.pack((MAX_DEGREE, 1, 0))
    # conj(E^MAX + t) = (1 + conj(t)*E^MAX) / E^MAX
    with pytest.raises(DegreeOverflow):
        (E ** MAX_DEGREE + t).conjugate()
    edge = f"(E1^{MAX_DEGREE} + 1)/(E1)^{MAX_DEGREE}"
    assert (E ** MAX_DEGREE + 1).conjugate().render() == edge


def test_render_keeps_the_lexicographic_atom_order():
    # atoms are ordered by their terms in lexicographic order of the
    # exponent vectors: t21^2 + 1 comes before t11 + 1, where grlex would
    # put t11 below t21^2; the order survives a lift into a wider ring
    setup_symbols()
    t, u = C("t11"), C("t21")
    value = ONE() / (t + 1) / (u * u + 1) * (t - u)
    text = "(t11 - t21)/((t21^2 + 1)*(t11 + 1))"
    assert value.render() == text
    assert (ONE() / (u * u + 1) / (t + 1) * (t - u)).render() == text
    for k in range(3):
        registry.ensure_pair(f"w{k}")
    assert value.render() == text
    assert (value * C("w1")).render() == "(t11*w1 - t21*w1)/((t21^2 + 1)*(t11 + 1))"


def test_a_one_term_atom_of_several_factors_renders_in_parentheses():
    # one atom a*b with no parentheses would read as 1/a*b = b/a
    for name in "abc":
        registry.ensure_pair(name)
    a, b, c = C("a"), C("b"), C("c")
    sa, sb, sc, sa_c = sympy.symbols("a b c a_c")
    cases = [
        (ONE() / (a * b), 1 / (sa * sb)),
        ((a * b * c) / (a * a.conjugate() * b), sa * sb * sc / (sa * sa_c * sb)),
        (c / (2 * a * b), sc / (2 * sa * sb)),
    ]
    for value, want in cases:
        assert sympy.cancel(_parse(value.render()) - want) == 0, value.render()


def test_atom_sort_key_is_computed_once_per_atom():
    # the key is cached on the atom, as its conjugate is, and equals the
    # key of a fresh copy, so the atom order and the text stay the same
    setup_symbols()
    t, u = C("t11"), C("t21")
    value = ONE() / (t + 1) / (u * u + 1) * (t - u)
    ctx = registry.context()
    for atom, _ in value._den:
        key = _poly_key(atom, ctx)
        assert _poly_key(atom, ctx) is key
        assert _poly_key(_Poly(atom), ctx) == key
    again = value + ONE() / (u * u + 1)
    assert [a for a, _ in again._den] == [a for a, _ in value._den]
    assert again.render() == "(2*t11 - t21 + 1)/((t21^2 + 1)*(t11 + 1))"


def test_scalar_products_skip_trial_division(monkeypatch):
    setup_symbols()
    t = C("t11")
    a = ONE() - t * t.conjugate()
    value = t * t / a
    expected = {
        k: (k * t * t) / a for k in (3, Fraction(-1, 2), Coefficient.i())
    }
    calls = []

    def counted(p, g, ctx):
        calls.append(g)
        return _exact_quotient(p, g, ctx)

    monkeypatch.setattr("ihg.coefficients._exact_quotient", counted)
    for k, want in expected.items():
        scalar = k if isinstance(k, Coefficient) else Coefficient.from_scalar(k)
        assert scalar * value == want
        assert value * scalar == want
        assert (value * k).render() == want.render()
    assert calls == []


# -- scalars: the direct route against the Fraction/GaussianRational route -----


def _scalar_by_gaussian(x):
    """x built by field arithmetic from the integers of its parts."""
    g = GaussianRational.of(x)
    re = ONE() * g.re.numerator / g.re.denominator
    return re + Coefficient.i() * g.im.numerator / g.im.denominator


@settings(max_examples=40)
@given(st.integers(-10**20, 10**20) | st.fractions(max_denominator=10**6)
       | gaussians | st.just(GaussianRational.i()))
def test_from_scalar_matches_the_gaussian_route(x):
    setup_symbols()
    got, want = Coefficient.from_scalar(x), _scalar_by_gaussian(x)
    assert got == want
    assert got.render() == want.render() == GaussianRational.of(x).render()
    assert got.scalar() == GaussianRational.of(x)
    value = C("t11") / (ONE() - C("t11") * C("t11").conjugate())
    assert (value * x).render() == (value * want).render()


def test_one_is_the_ring_unit():
    setup_symbols()
    assert ONE() == _scalar_by_gaussian(1)
    assert ONE().render() == "1"
    ctx = registry.context()
    assert ONE()._num == {ctx.pack((0,) * len(ctx.names)): (1, 0)}
    assert ONE()._den == ()
    assert Coefficient.i().render() == "i"


# -- linear combinations over one common denominator ----------------------------


def _product_pool():
    # the atoms t, u, a, b and the character E are irreducible and pairwise
    # coprime, so the normal form of a value is unique; dividing by a*b at
    # once would make the product one atom
    t, u, E = C("t11"), C("t21"), C("E1")
    a = ONE() - t * t.conjugate()
    b = t + u
    return [
        ONE(), Coefficient.i(), Coefficient.from_scalar(Fraction(-3, 2)),
        t, u * u, E.conjugate(), t / a, u / a / a, (t - 1) / b,
        ONE() / a / b, E / t, t.conjugate() / u, b * b / a,
    ]


@st.composite
def product_lists(draw):
    setup_symbols()
    pool = _product_pool()
    scalars = [2, Fraction(-1, 3), GaussianRational.i()]
    index = st.integers(0, len(pool) - 1)
    pairs = [
        (pool[i], pool[j] if j < len(pool) else scalars[j - len(pool)])
        for i, j in draw(st.lists(
            st.tuples(index, st.integers(0, len(pool) + len(scalars) - 1)),
            max_size=5,
        ))
    ]
    t, u = C("t11"), C("t21")
    a = ONE() - t * t.conjugate()
    b = t + u
    if draw(st.booleans()):
        # (t*conj(t) - 1)/a = -1: the atom a cancels only in the total
        pairs += [(ONE() / a, t * t.conjugate()), (ONE() / a, -1)]
    if draw(st.booleans()):
        # several denominator groups in one sum: polynomial x polynomial,
        # values over a and over a*b, the atom a built a second time (an
        # equal value, a distinct object) and scalars with q != 1
        again = ONE() - t * t.conjugate()
        half = GaussianRational(Fraction(1, 2), Fraction(-1, 5))
        pairs += [(t, u * u), (t / a, Fraction(2, 3)), (ONE() / a / b, u),
                  (u / again, t), (t / again, half)]
    if draw(st.booleans()):
        # the group over b cancels and the group over a survives
        pairs += [((t - 1) / b, u), ((t - 1) / b, -u), (t / a, t)]
    if draw(st.booleans()):
        pairs += [(-x, y) for x, y in pairs]  # a total of zero
    return pairs


@settings(max_examples=60)
@given(product_lists())
def test_sum_of_products_matches_the_pairwise_sum(pairs):
    want = Coefficient.zero()
    for x, y in pairs:
        want = want + x * y
    got = Coefficient.sum_of_products(pairs)
    assert got == want
    assert got.render() == want.render()
    _assert_leads(got._num, *(atom for atom, _ in got._den))


def test_sum_of_products_normalizes_once(monkeypatch):
    setup_symbols()
    t, u = C("t11"), C("t21")
    a = ONE() - t * t.conjugate()
    pairs = [(ONE() / a, t * t.conjugate()), (u / a, t), (ONE() / a, -1),
             (-u, t / a)]
    calls = []

    def counted(p, g, ctx):
        calls.append(g)
        return _exact_quotient(p, g, ctx)

    monkeypatch.setattr("ihg.coefficients._exact_quotient", counted)
    assert Coefficient.sum_of_products(pairs).render() == "-1"
    assert len(calls) == 1  # the atom a, tried once on the total
    value = t / a
    calls.clear()
    lone = Coefficient.sum_of_products([(value, 3)])
    assert lone.render() == "-3*t11/(t11*conj(t11) - 1)"
    assert Coefficient.sum_of_products([]).is_zero()
    assert calls == []


def test_lone_part_skips_the_lcm_pass():
    setup_symbols()
    t, u = C("t11"), C("t21")
    a = ONE() - t * t.conjugate()
    x, y = t / a, a * u / (t + u)
    part = (_mul(x._num, y._num, x._ctx), x._den + y._den, x._q * y._q)
    assert _over_common_denominator([part], x._ctx) is part
    # the atom a of x cancels against the numerator of y in the one _make
    got = Coefficient.sum_of_products([(x, y)])
    assert got.render() == (x * y).render() == "t11*t21/(t11 + t21)"


def test_an_atom_is_rendered_once(monkeypatch):
    setup_symbols()
    t, u = C("t11"), C("t21")
    x = t / (ONE() - t * t.conjugate())
    y = x * u
    (atom, _), = x._den
    assert y._den[0][0] is atom  # the two values share the atom object
    calls = []
    render_poly = coefficients_module._render_poly

    def counted(p, ctx, scale=None):
        calls.append(p)
        return render_poly(p, ctx, scale)

    monkeypatch.setattr(coefficients_module, "_render_poly", counted)
    texts = x.render(), y.render()
    assert texts == ("-t11/(t11*conj(t11) - 1)",
                     "-t11*t21/(t11*conj(t11) - 1)")
    assert sum(p is atom for p in calls) == 1
    # a wider ring lifts the value, atoms and all, to new objects, which
    # keep their own memo and render the same text
    registry.ensure_pair("t12")
    lifted = x._refreshed()
    (wide, _), = lifted._den
    bits = lifted._ctx.deg_shift - x._ctx.deg_shift
    assert wide is not atom and wide == _lift_poly(atom, bits)
    calls.clear()
    assert lifted.render() == x.render() == texts[0]
    assert sum(p is wide for p in calls) == 1
    assert not any(p is atom for p in calls)
    assert atom._text == wide._text == "t11*conj(t11) - 1"


def test_derivative_normalizes_once(monkeypatch):
    setup_symbols()
    t = C("t11")
    # two atoms depend on t11, and so does the numerator
    value = t / (t + 1) / (t + 2)
    calls = []
    make = Coefficient._make

    def counted(*args):
        calls.append(args[0])
        return make(*args)

    monkeypatch.setattr(Coefficient, "_make", staticmethod(counted))
    got = value.diff("t11")
    assert len(calls) == 1
    monkeypatch.undo()
    assert got == (2 - t * t) / ((t + 1) * (t + 1)) / ((t + 2) * (t + 2))


@st.composite
def equality_pairs(draw):
    """Two values built from pool members that share denominator atoms;
    three times in four the second is the first rewritten into an equal
    value."""
    setup_symbols()
    pool = _product_pool()
    index = st.integers(0, len(pool) - 1)
    a = pool[draw(index)] * pool[draw(index)] + pool[draw(index)]
    x = pool[draw(index)]
    how = draw(st.sampled_from(["other", "sum", "product", "quotient"]))
    if how == "other":
        b = pool[draw(index)] + pool[draw(index)] * pool[draw(index)]
    elif how == "sum":
        b = (a + x) - x
    elif how == "product":
        b = (a * x) / x
    else:
        b = a * x * x / (x * x)  # the numerator of x*x becomes one atom
    return a, b


@settings(max_examples=80)
@given(equality_pairs())
def test_equality_matches_the_zero_test_of_the_difference(pair):
    a, b = pair
    assert (a == b) == (a - b).is_zero()
    assert (b == a) == (a == b)


# -- squarefree parts against sympy's sqf_part ---------------------------------

def _factor_pool():
    t, u, s, E = C("t11"), C("t21"), C("s"), C("E1")
    tc = t.conjugate()
    return [t, u, tc, s, E, t + u, t * tc - 1, t * u - 2 * tc + Coefficient.i(),
            s * t + u * u, E * t + 1]


@st.composite
def planted_products(draw, max_factors=2):
    """(scale, [(factor index, multiplicity)], denominator index or None)."""
    # each factor of multiplicity at most 3; sympy's sqf_part over Q(i)
    # took up to 2 s on two factors, and over a minute on a product of
    # three squared factors, so the tests it checks plant at most two
    factors = draw(st.lists(
        st.tuples(st.integers(0, 9), st.integers(1, 3)), min_size=1,
        max_size=max_factors
    ))
    scale = draw(gaussians.filter(bool))
    denominator = draw(st.none() | st.integers(0, 9))
    return scale, factors, denominator


def _build(spec):
    scale, factors, denominator = spec
    pool = _factor_pool()
    value = Coefficient.from_scalar(scale)
    for k, mult in factors:
        value = value * pool[k] ** mult
    if denominator is not None:
        value = value / pool[denominator]
    return value


@settings(max_examples=30)
@given(planted_products())
@example((GaussianRational.i(), [(0, 1)], 0))  # i*t11/t11: a constant
def test_squarefree_numerator_matches_sqf_part(spec):
    registry.reset()
    setup_symbols()
    value = _build(spec)
    got = value.squarefree_numerator()
    # the generators are passed so that a numerator the denominator
    # cancelled down to a constant is still a polynomial to sqf_part
    gens = [sympy.Symbol(name) for name in registry.context().names]
    num = _parse(value.numerator_normalized().render())
    expected = sympy.sqf_part(num, *gens)
    ratio = sympy.cancel(_parse(got.render()) / expected)
    assert ratio != 0 and not ratio.free_symbols
    assert sympy.Poly(_parse(got.render()), *gens).LC(order="grlex") == 1


@settings(max_examples=20)
@given(planted_products())
def test_squarefree_numerator_ignores_unrelated_generators(spec):
    # 40 more pairs in the ring do not change the answer
    registry.reset()
    setup_symbols()
    value = _build(spec)
    before = value.squarefree_numerator()
    for k in range(40):
        registry.ensure_pair(f"w{k}")
    with mock.patch.object(coefficients_module, "_poly_gcd",
                           wraps=coefficients_module._poly_gcd) as gcd:
        after = value.squarefree_numerator()
    assert after.render() == before.render()
    assert after == before
    # a gcd runs exactly when the numerator has more than one term and
    # some exponent above 1
    num, ctx = value.numerator_normalized()._num, registry.context()
    assert gcd.called == (len(num) > 1 and any(e > 1 for m in num
                                               for e in ctx.unpack(m)))


def test_squarefree_fast_paths_skip_the_gcd():
    # a one-term numerator c*prod x^e has the part prod x^min(e, 1); one
    # with no exponent above 1 is its own part
    setup_symbols()
    t, u, s, E, i = C("t11"), C("t21"), C("s"), C("E1"), Coefficient.i()
    multilinear = [(2 * t * u - 4 * s + 2 * i) / 3,
                   E * t * u.conjugate() + t - i * s,
                   (1 + i) * t * t.conjugate() / (u * u + 1)]
    with mock.patch.object(coefficients_module, "_poly_gcd",
                           side_effect=AssertionError):
        assert (3 * t**3 * u**2 / (t + 1)).squarefree_numerator() == t * u
        assert (i * E**4 * s / 5).squarefree_numerator().render() == "s*E1"
        assert Coefficient.from_scalar(7).squarefree_numerator() == ONE()
        for value in multilinear:
            got = value.squarefree_numerator()
            assert got == value.numerator_normalized()
            assert got.render() == value.numerator_normalized().render()
    assert multilinear[0].squarefree_numerator().render() == "t11*t21 - 2*s + i"


def test_squarefree_numerator_of_a_kuranishi_condition():
    # a degree-3 condition of the solv4d build, in a 25-generator ring
    for i in range(1, 5):
        for lam in range(1, 4):
            registry.ensure_pair(f"t{i}{lam}")
    registry.ensure_char("E1")
    f = 2 * (C("t12") * C("t13") * C("t43") - C("t12") * C("t23") * C("t33")
             + C("t13") * C("t23") * C("t32"))
    assert f.squarefree_numerator() == f / 2
    assert (f * f * C("t12")).squarefree_numerator() == f * C("t12") / 2


@settings(max_examples=40)
@given(planted_products(max_factors=3))
@example((1, [(7, 3), (8, 3), (9, 3)], 8))
@example((1, [(0, 2), (5, 1)], None))  # t11^2*(t11 + t21)
def test_squarefree_numerator_is_the_product_of_the_planted_factors(spec):
    # the pool factors are irreducible and pairwise coprime, so the part
    # is the product of the distinct factors the denominator leaves
    registry.reset()
    setup_symbols()
    _, factors, denominator = spec
    mults = [0] * 10
    for k, mult in factors:
        mults[k] += mult
    if denominator is not None and mults[denominator]:
        mults[denominator] -= 1
    want = ONE()
    for factor, mult in zip(_factor_pool(), mults):
        if mult:
            want = want * factor
    got = _build(spec).squarefree_numerator()
    assert got.render() == want.numerator_normalized().render()


def test_squarefree_numerator_of_three_squared_factors():
    # sympy's gcd over Q(i) ran for over 90 s on this 54-term numerator
    # (a 2-vCPU host)
    setup_symbols()
    t, u, s, E, i = C("t11"), C("t21"), C("s"), C("E1"), Coefficient.i()
    f = (t * u - 2 * t.conjugate() + i) * (s * t + u * u) * (E * t + 1)
    value = f * f
    assert value.numerator_terms() == 54
    start = time.perf_counter()
    got = value.squarefree_numerator()
    assert time.perf_counter() - start < 1
    assert got.render() == f.numerator_normalized().render()


def test_squarefree_numerator_raises_when_the_heuristic_gcd_fails():
    # with no candidate dividing, every evaluation point fails, and there
    # is no second gcd to fall back on
    setup_symbols()
    t, u = C("t11"), C("t21")
    value = (t + u) ** 2 * u
    with mock.patch.object(coefficients_module, "_exact_quotient",
                           return_value=None):
        with pytest.raises(ArithmeticError, match=re.escape(
                "heuristic gcd failed on t11^2*t21 + 2*t11*t21^2 + t21^3")):
            value.squarefree_numerator()


def test_conjugates_of_a_shared_atom_share_one_atom():
    # a conjugate atom is cached on its atom, so values that share an atom
    # object get conjugates that share one
    setup_symbols()
    t, u, E, i = C("t11"), C("t21"), C("E1"), Coefficient.i()
    for a in (i * t * u.conjugate() + 1, E * t + 1, t * t.conjugate() - 1):
        x = t / a
        y = x * x * (u - 1)
        atom = x._den[0][0]
        assert y._den[0][0] is atom
        xc, yc = x.conjugate(), y.conjugate()
        assert xc == t.conjugate() / a.conjugate()
        assert yc == xc * xc * (u.conjugate() - 1)
        shared = {id(b) for c in (xc, yc) for b, _ in c._den if b == xc._den[0][0]}
        assert len(shared) == 1
        assert xc.conjugate() == x


def test_conjugate_takes_the_unit_of_a_conjugated_atom():
    # conj(t + i*conj(t)) = conj(t) - i*t is -i times the atom itself, so
    # the conjugate of a value over it carries the unit's conjugate i to
    # the power of the atom's multiplicity; a divisor's numerator is one
    # atom, so atom ** 3 is a new atom, with unit i, and a negative power
    # keeps the atom, with multiplicity 2
    setup_symbols()
    t, i = C("t11"), Coefficient.i()
    atom = t + i * t.conjugate()
    point = {"t11": GaussianRational(Fraction(1, 3), Fraction(2, 7))}
    for c, want in ((ONE() / atom, i / atom),
                    ((t + 1) / atom ** 3, -i * (t.conjugate() + 1) / atom ** 3),
                    (atom ** -2, -(atom ** -2))):
        assert c.conjugate() == want
        assert c.conjugate().substitute(point) == c.substitute(point).conjugate()


# -- the Gaussian-integer kernel -----------------------------------------------


def test_rational_scale_renders_over_q_i():
    setup_symbols()
    t = C("t11")
    assert ((2 * t + 1) / 2).render() == "t11 + 1/2"
    assert (t / (2 * t + 1)).render() == "1/2*t11/(t11 + 1/2)"
    assert (t / (2 * t + 1)).conjugate().render() == "1/2*conj(t11)/(conj(t11) + 1/2)"
    assert (Fraction(1, 6) / (4 * t - 2) + Coefficient.i() / (2 * t - 1)
            ).render() == "(1/24 + 1/2*i)/(t11 - 1/2)"
    # dividing by (5 + 5i)/2 leaves q = 5, not the divisor's numerator 5 + 5i
    value = t / GaussianRational(Fraction(5, 2), Fraction(5, 2))
    assert value.render() == "(1/5 - 1/5*i)*t11"
    assert value.conjugate().render() == "(1/5 + 1/5*i)*conj(t11)"
    assert value.conjugate().conjugate() == value


def test_normalized_numerators_are_monic_over_q_i():
    setup_symbols()
    t, u, i = C("t11"), C("t21"), Coefficient.i()
    for value, monic in ((2 * t + 1, "t11 + 1/2"),
                         ((1 + i) * t + 2, "t11 + (1 - i)"),
                         (((1 + i) * t + 2) ** 2 * u / 3,
                          "t11*t21 + (1 - i)*t21")):
        assert value.squarefree_numerator().render() == monic
    assert (2 * t + 1).numerator_normalized().render() == "t11 + 1/2"
    assert ((1 + i) * t + 2).numerator_normalized().render() == "t11 + (1 - i)"


def test_inexact_coefficient_division_does_not_divide():
    # the leading coefficient 1 of t + 1 is not a multiple of 2 in Z[i]
    setup_symbols()
    t = C("t11")
    assert not (t + 1).is_multiple_of(2 * t + 1)
    assert ((t + 1) / (2 * t + 1)).render() == "(1/2*t11 + 1/2)/(t11 + 1/2)"


def test_reduce_modulo_scales_the_remainder_it_has_set_aside():
    # t^3 passes to the remainder before u^2 needs the scale 3
    setup_symbols()
    t, u = C("t11"), C("t21")
    got = (t ** 3 + u * u).reduce_modulo([3 * u * u - t])
    assert got == t ** 3 + t / 3
    assert got.render() == "t11^3 + 1/3*t11"


def test_reduce_modulo_returns_its_input_when_no_step_is_taken():
    setup_symbols()
    t, u = C("t11"), C("t21")
    value = (t * t + 1) / (u + 2)
    assert value.reduce_modulo([u * u - 1, 3 * t * u]) is value
    assert value.reduce_modulo([]) is value
    # a step: t^2 = 2 modulo t^2 - 2, over the same denominator
    got = value.reduce_modulo([2 * t * t - 4])
    assert got is not value
    assert got == Coefficient.from_scalar(3) / (u + 2)
    assert got.render() == "3/(t21 + 2)"


@pytest.mark.parametrize("a, b", [
    ((3, 0, 1), (5, 0, 1)),  # real over real
    ((0, 2, 1), (0, 7, 1)),  # imaginary over imaginary
    ((-4, 6, 3), (-2, 0, 5)),  # over a negative real
    ((1, 0, 1), (1, 1, 1)),  # a non-unit Gaussian integer
    ((6, -9, 5), (4, 6, 7)),  # common content, scales on both sides
    ((0, 0, 1), (3, -4, 2)),  # zero over a scalar
])
def test_scalar_quotient_matches_the_normal_form(a, b):
    ctx = registry.context()

    def scalar(re, im, q):
        return Coefficient.from_scalar(GaussianRational(
            Fraction(re, q), Fraction(im, q)))

    x, y = scalar(*a), scalar(*b)
    got = x / y
    # the general route: num * den(y) over the atom num(y), normalized
    want = Coefficient._make(_mul(x._num, y._den_product(), ctx),
                             [(y._num, 1)], x._q, ctx)
    assert got == want
    assert (got._num, got._den, got._q) == (want._num, want._den, want._q)
    assert got.render() == want.render()
    assert got * y == x
    with pytest.raises(DivisionByZero):
        y / Coefficient.zero()


def test_is_multiple_of_divides_by_the_primitive_part():
    setup_symbols()
    t, u = C("t11"), C("t21")
    assert t.is_multiple_of(Coefficient.from_scalar(2))
    assert t.is_multiple_of(2 * t)
    assert (t / 3).is_multiple_of(2 * t)
    assert (t * u).is_multiple_of((2 + 2 * Coefficient.i()) * t)
    assert not t.is_multiple_of(2 * t * t)
    assert not (2 * t + 1).is_multiple_of(2 * t)


def test_associate_atoms_merge():
    # (1+i)t + 2 = (1+i)(t + 1 - i): one primitive atom up to a unit
    setup_symbols()
    t, i = C("t11"), Coefficient.i()
    a, b = (1 + i) * t + 2, t + 1 - i
    assert (ONE() / a / b).render() == "(1/2 - 1/2*i)/(t11 + (1 - i))^2"
    assert a / b == 1 + i
    assert (a / b).is_scalar()
    assert (b / a * a).render() == b.render()


_KERNEL_SCALARS = (st.fractions(min_value=-4, max_value=4, max_denominator=6)
                   .filter(bool) | gaussians.filter(bool))


def _kernel_pool():
    """(value, sympy expression) pairs with non-primitive atoms."""
    setup_symbols()
    t, u, i = C("t11"), C("t21"), Coefficient.i()
    tc = t.conjugate()
    T, U, TC, I = sympy.Symbol("t11"), sympy.Symbol("t21"), sympy.Symbol("t11_c"), sympy.I
    return [
        (t, T),
        (2 * t + 1, 2 * T + 1),
        ((1 + i) * t + 2, (1 + I) * T + 2),
        (3 * t - 3 * u, 3 * T - 3 * U),
        ((2 + 2 * i) * t * tc - 4, (2 + 2 * I) * T * TC - 4),
        (t + 1 - i, T + 1 - I),
        (6 * u * u - 2 * i, 6 * U**2 - 2 * I),
    ]


@st.composite
def kernel_chains(draw):
    pool = _kernel_pool()
    value, expr = pool[draw(st.integers(0, len(pool) - 1))]
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            x = draw(_KERNEL_SCALARS)
            other = (Coefficient.from_scalar(x),
                     sympy.Rational(x.numerator, x.denominator)
                     if isinstance(x, Fraction) else
                     sympy.Rational(x.re.numerator, x.re.denominator)
                     + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator))
        else:
            other = pool[draw(st.integers(0, len(pool) - 1))]
        op = draw(st.sampled_from("+-*/"))
        if op == "+":
            value, expr = value + other[0], expr + other[1]
        elif op == "-":
            value, expr = value - other[0], expr - other[1]
        elif op == "*":
            value, expr = value * other[0], expr * other[1]
        else:
            value, expr = value / other[0], expr / other[1]
    return value, expr


@settings(max_examples=60)
@given(kernel_chains())
def test_kernel_matches_sympy_on_rendered_values(chain):
    value, expr = chain
    assert sympy.cancel(_parse(value.render()) - expr) == 0
    assert value.conjugate().conjugate() == value
    assert (value - value).is_zero()


# -- the integer scale q ----------------------------------------------------------


def _assert_normal(value):
    """No atom is a constant, and q is a positive integer coprime to the
    integer content of the numerator."""
    assert type(value._q) is int and value._q >= 1
    assert not any(_is_ground(atom) for atom, _ in value._den)
    content = math.gcd(*(x for c in value._num.values() for x in c))
    assert math.gcd(value._q, content) == 1


_POINT = {"t11": 0.21 + 0.13j, "t21": -0.4 + 0.05j, "s": 0.7, "E1": 0.6 + 0.8j}


@settings(max_examples=60)
@given(kernel_chains(), coefficients(), st.integers(-2, 3), gaussians)
def test_every_result_keeps_q_out_of_the_atoms(chain, b, k, v):
    # the values of + - * / ** and conjugate are checked against complex
    # arithmetic at a point, which divides by q on its own
    a = chain[0]
    x, y = a.numeric(_POINT), b.numeric(_POINT)
    checked = [(a + b, x + y), (a - b, x - y), (a * b, x * y),
               (a.conjugate(), x.conjugate()), (b.conjugate(), y.conjugate())]
    if b:
        checked.append((a / b, x / y))
    if a or k >= 0:
        checked.append((a ** k, x ** k))
    for value, want in checked:
        _assert_normal(value)
        assert value.numeric(_POINT) == pytest.approx(want, rel=1e-9, abs=1e-12)
    product = a * b
    derived = [product.diff("t11"), product.diff("t11_c"), b.euler("E1")]
    try:
        derived.append(product.substitute({"t21": v}))
    except DenominatorVanishes:
        pass
    parts = product.char_decompose()
    derived += parts.values()
    for value in derived:
        _assert_normal(value)
    assert sum((part * C("E1") ** e for (e,), part in parts.items()),
               Coefficient.zero()) == product


def test_scales_are_summed_over_their_integer_lcm():
    setup_symbols()
    t, u = C("t11"), C("t21")
    x, y = t / 4, u / 6
    assert (x._den, x._q, y._q) == ((), 4, 6)
    num, den, q = _over_common_denominator(
        ((x._num, x._den, x._q), (y._num, y._den, y._q)), x._ctx)
    assert (num, den, q) == ((3 * t + 2 * u)._num, [], 12)
    assert (x + y).render() == "1/4*t11 + 1/6*t21"
    assert x != t / 6
    assert x * y == t * u / 24
    assert x * 4 == t
    assert (x * 4)._q == 1
    # a q that shares a factor with the numerator's content is reduced
    assert ((2 * t + 2) / (4 * u))._q == 2


def test_shared_atoms_with_different_scales_sum_like_the_pairwise_sum():
    # every part has the atom tuple of a; only the scales 4 and 6 differ
    setup_symbols()
    t, u = C("t11"), C("t21")
    a = t * t.conjugate() - 1
    x, y = t / (4 * a), u / (6 * a)
    assert x._den == y._den and (x._q, y._q) == (4, 6)
    num, den, q = _over_common_denominator(
        ((x._num, x._den, x._q), (y._num, y._den, y._q)), x._ctx)
    assert (num, den, q) == ((3 * t + 2 * u)._num, list(x._den), 12)
    pairwise = x + y
    got = Coefficient.sum_of_products([(t, ONE() / (4 * a)),
                                       (u / 6, ONE() / a)])
    assert got == pairwise == (3 * t + 2 * u) / (12 * a)
    assert got.render() == pairwise.render()
    assert got.render() == "(1/4*t11 + 1/6*t21)/(t11*conj(t11) - 1)"
    # each part's tuple repeats the atom, which merges in the normal form
    inv = ONE() / a
    sq = Coefficient.sum_of_products([(t * inv, inv), (u * inv, inv)])
    want = t * inv * inv + u * inv * inv
    assert sq == want and sq.render() == want.render()
    assert sq.render() == "(t11 + t21)/(t11*conj(t11) - 1)^2"


def test_sum_over_current_operands_never_pairs_or_refreshes():
    setup_symbols()
    t, u, s = C("t11"), C("t21"), C("s")
    a = ONE() - t * t.conjugate()
    pairs = [(t / a, u), (s, 3 * ONE()), (u / (2 * a), t.conjugate()),
             (Coefficient.zero(), t), (s, -s)]
    want = t * u / a + 3 * s + u * t.conjugate() / (2 * a) - s * s
    with mock.patch.object(Coefficient, "_pair", side_effect=AssertionError), \
            mock.patch.object(Coefficient, "_refreshed",
                              side_effect=AssertionError):
        got = Coefficient.sum_of_products(pairs)
    assert got == want and got.render() == want.render()


def _divisor_pool():
    setup_symbols()
    t, u, i = C("t11"), C("t21"), Coefficient.i()
    return [2 * t * u - 1, (1 + i) * t + 2, 3 * u * u - t,
            2 * t.conjugate() + 3, t * t - 2 * u]


@settings(max_examples=40)
@given(kernel_chains(), st.lists(st.integers(0, 4), min_size=1, max_size=3))
def test_reduce_modulo_matches_division_over_q_i(chain, picks):
    # the fraction-free remainder over Z[i], against sympy's division over
    # Q(i) of the monic numerator, in the same generator order and grlex;
    # one reducer fed the same generators by append, reducing after each,
    # gives the one-shot result of every prefix
    value, _ = chain
    pool = _divisor_pool()
    divisors = [pool[k] for k in picks]
    got = value.reduce_modulo(divisors)
    reducer = _Reducer()
    for k in range(len(divisors) + 1):
        step, one_shot = reducer.reduce(value), value.reduce_modulo(divisors[:k])
        assert step == one_shot and step.render() == one_shot.render()
        assert (step is value) == (one_shot is value)
        if k < len(divisors):
            reducer.append(divisors[k])
    assert step.render() == got.render()
    if value.is_zero():
        assert got.is_zero()
        return
    monic = value.numerator_normalized()
    gens = [sympy.Symbol(name) for name in registry.context().names]
    _, rem = sympy.reduced(_parse(monic.render()),
                           [_parse(g.render()) for g in divisors],
                           *gens, order="grlex")
    want = rem * _parse((value / monic).render())
    assert sympy.cancel(_parse(got.render()) - want) == 0


# -- exact signs ----------------------------------------------------------------


class TestCertifiedSign:
    def test_near_miss_below_a_norm_is_inconclusive(self):
        # t*conj(t) - 1/1000 is -1/1000 at t = 0 and positive for |t| > 1/31
        setup_symbols()
        t = C("t11")
        assert (t * t.conjugate() - Fraction(1, 1000)).certified_sign() == (0, ())

    def test_indefinite_real_values_are_inconclusive(self):
        setup_symbols()
        t, u = C("t11"), C("t21")
        e = C("E1")
        for value in (t + t.conjugate(), t * t.conjugate() - u * u.conjugate(),
                      C("s"), C("s") / (ONE() + t * t.conjugate()),
                      e + e.conjugate()):
            assert value.certified_sign() == (0, ()), value.render()

    def test_non_real_values_are_inconclusive(self):
        setup_symbols()
        t = C("t11")
        for value in (Coefficient.i(), t, C("E1") + 1):
            assert value.certified_sign() == (0, ()), value.render()

    def test_sums_of_norms(self):
        setup_symbols()
        t, u, s = C("t11"), C("t21"), C("s")
        assert Coefficient.from_scalar(Fraction(-3, 2)).certified_sign() == (-1, ())
        assert (s * s + 2 * t * t.conjugate() + 1).certified_sign() == (1, ())
        norms = t * t.conjugate() + 3 * u * u.conjugate()
        sign, (zero,) = (-norms / (ONE() + norms)).certified_sign()
        assert sign == -1
        assert zero == norms

    def test_norm_of_a_holomorphic_polynomial(self):
        # (t + u)(conj t + conj u) has no term free of conjugates
        setup_symbols()
        t, u = C("t11"), C("t21")
        value = -5 * (t + u) * (t + u).conjugate()
        sign, (zero,) = value.certified_sign()
        assert (sign, zero) == (-1, t + u)

    def test_even_power_of_a_non_self_conjugate_atom_is_not_positive(self):
        # t + i*conj(t) = (1 + i)(x + y) at t = x + iy, so its fourth power
        # is -4(x + y)^4: the value is real and negative
        setup_symbols()
        t = C("t11")
        value = ONE() / (t + Coefficient.i() * t.conjugate()) ** 4
        assert value == value.conjugate()
        assert value.substitute({"t11": 1}).scalar() == GaussianRational.of(
            Fraction(-1, 4))
        assert value.certified_sign() == (0, ())


_GAUSSIAN_INTS = st.builds(
    lambda a, b: GaussianRational.of(a) + b * GaussianRational.i(),
    st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=60)
@given(st.lists(_GAUSSIAN_INTS, min_size=1, max_size=3).filter(any),
       st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
       st.integers(1, 2), st.lists(gaussians, min_size=4, max_size=4))
def test_certified_sign_of_a_norm_quotient(coeffs, c, k, points):
    # c*f*conj(f)/(1 + t*conj(t))^k has the sign of c off V(f); the oracle
    # is exact evaluation at Gaussian-rational points
    setup_symbols()
    t = C("t11")
    f = sum((Coefficient.from_scalar(a) * t ** e for e, a in enumerate(coeffs)),
            Coefficient.zero())
    value = c * f * f.conjugate() * (ONE() + t * t.conjugate()) ** -k
    sign, locus = value.certified_sign()
    assert sign == (1 if c > 0 else -1)
    for point in points:
        if f.substitute({"t11": point}).is_zero():
            continue
        assert all(not z.substitute({"t11": point}).is_zero() for z in locus)
        got = value.substitute({"t11": point}).scalar()
        assert got.im == 0
        assert (got.re > 0) - (got.re < 0) == sign


def test_monomial_text_is_decoded_once_per_context(monkeypatch):
    setup_symbols()
    t = C("t11")
    value = (t * t.conjugate() ** 2 + 3 * C("s")) / (1 + t)
    text = value.render()
    calls = []
    exponents = RingContext.exponents

    def counted(ctx, m):
        calls.append(m)
        return exponents(ctx, m)

    monkeypatch.setattr(RingContext, "exponents", counted)
    assert value.render() == text
    assert not calls
    # the text is the same in every context of the lifetime and is kept
    registry.ensure_pair("u")
    assert value.render() == text
    assert not calls
    # a wider context packs the same monomials differently: a lifted copy
    # decodes each of them once
    assert value._refreshed().render() == text
    assert len(calls) == len(set(calls)) == 4


def test_a_kept_text_does_not_outlive_its_lifetime():
    setup_symbols()
    value = C("t11") / (1 + C("t21"))
    text = value.render()
    assert value.render() is text
    registry.reset()
    with pytest.raises(StaleCoefficient):
        value.render()
