"""Field arithmetic, scalars, involution, derivatives, substitution, trial
division, sums of products over one denominator and squarefree parts."""

from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyElement, ring

from ihg import (
    Coefficient,
    DenominatorVanishes,
    DivisionByZero,
    GaussianRational,
    MixedRadicals,
    QuadraticSurd,
    StaleCoefficient,
)
from ihg.coefficients import _exact_quotient, _over_common_denominator
from ihg.symbols import registry


def setup_symbols():
    registry.ensure_pair("t11")
    registry.ensure_pair("t21")
    registry.ensure_real("s")
    registry.ensure_char("E1")


def C(name):
    return Coefficient.symbol(name)


ONE = Coefficient.one


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


class TestQuadraticSurd:
    def test_root_of_paper_quartic_factor(self):
        # T^2 - 4T + 1 vanishes at 2 +- sqrt(3)
        for sgn in (1, -1):
            r = QuadraticSurd(GaussianRational.of(2), GaussianRational.of(sgn), 3)
            assert (r * r - 4 * r + 1).is_zero()

    def test_field_ops(self):
        x = QuadraticSurd(GaussianRational.of(Fraction(1, 2)), GaussianRational.of(3), 3)
        y = QuadraticSurd(GaussianRational.of(-2), GaussianRational.of(Fraction(1, 5)), 3)
        assert (x / y) * y == x
        assert x * y == y * x
        assert (x + y) - y == x

    def test_sign(self):
        mk = lambda a, b: QuadraticSurd(GaussianRational.of(a), GaussianRational.of(b), 3)
        assert mk(2, -1).sign() == 1  # 2 - sqrt3 > 0
        assert mk(1, -1).sign() == -1  # 1 - sqrt3 < 0
        assert mk(-3, 2).sign() == 1  # 2 sqrt3 > 3
        assert mk(0, 0).sign() == 0

    def test_mixed_radicals_rejected(self):
        x = QuadraticSurd(GaussianRational.of(1), GaussianRational.of(1), 3)
        y = QuadraticSurd(GaussianRational.of(1), GaussianRational.of(1), 5)
        with pytest.raises(MixedRadicals):
            x + y


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
        registry.ensure_real("T")
        T = C("T")
        P = (T + 1) ** 2 * (T ** 2 - 4 * T + 1)
        r = QuadraticSurd(GaussianRational.of(2), GaussianRational.of(-1), 3)
        assert P.substitute({"T": r}).is_zero()
        with pytest.raises(ValueError):
            registry.ensure_real("S")
            (T + C("S")).substitute({"T": r})

    def test_char_binding_zero_rejected(self):
        setup_symbols()
        E = C("E1")
        with pytest.raises(DenominatorVanishes):
            (E + ONE()).substitute({"E1": 0})


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

    def test_char_free(self):
        setup_symbols()
        t, E = C("t11"), C("E1")
        assert (t / (ONE() - t * t.conjugate())).char_free()
        assert not (t * E).char_free()


class TestRegistryLifetime:
    def test_value_from_same_width_context_is_stale(self):
        # both contexts hold two symbols, so a width test cannot tell them apart
        registry.register_pair("a")
        a = C("a")
        registry.reset()
        registry.register_pair("b")
        with pytest.raises(StaleCoefficient):
            a + C("b")

    def test_value_from_narrower_context_is_stale(self):
        # padding a's exponents would read it as c, the new first symbol
        registry.register_pair("a")
        a = C("a")
        registry.reset()
        registry.register_pair("c")
        registry.register_real("r")
        with pytest.raises(StaleCoefficient):
            a + C("r")

    def test_value_lifts_within_its_lifetime(self):
        registry.register_pair("a")
        a = C("a")
        registry.register_real("r")
        assert (a + C("r")).render() == "a + r"


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


@settings(max_examples=60, deadline=None)
@given(coefficients(), coefficients(), coefficients())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(coefficients(), coefficients())
def test_conjugation_is_ring_morphism(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@settings(max_examples=40, deadline=None)
@given(coefficients(), gaussians, gaussians)
def test_substitution_is_homomorphism(a, v, w):
    bindings = {"t11": v, "t21": w, "E1": GaussianRational.of(2)}
    try:
        lhs = (a * a).substitute(bindings)
        rhs = a.substitute(bindings) * a.substitute(bindings)
    except DenominatorVanishes:
        return
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(coefficients(), coefficients())
def test_derivative_leibniz_random(a, b):
    lhs = (a * b).diff("t11")
    rhs = a.diff("t11") * b + a * b.diff("t11")
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
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


# -- trial division: _exact_quotient against sympy's divmod ---------------------

R, X, Y, Z = ring("x,y,z", QQ_I, grlex)


@st.composite
def polys(draw, min_terms=0):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        gaussians.filter(bool),
        min_size=min_terms,
        max_size=4,
    ))
    return R.from_dict({m: c.to_qqi() for m, c in terms.items()})


def _check_against_divmod(p, g):
    quo, rem = divmod(p, g)
    got = _exact_quotient(p, g)
    if rem:
        assert got is None
    else:
        assert got == quo
    return quo, rem


@settings(max_examples=50, deadline=None)
@given(polys(), polys(min_terms=1), polys(), st.booleans())
def test_exact_quotient_matches_divmod(p, g, q, planted):
    if planted:
        p = g * q
    _, rem = _check_against_divmod(p, g)
    if planted:
        assert not rem


def test_exact_quotient_fails_late():
    # x^3 and then x^2 divide by LT(g) = x before y, a middle term, does not;
    # the remainder y + 1 has a term after it
    g = X + QQ_I(0, 1)
    p = g * (X**2 + X) + Y + 1
    quo, rem = _check_against_divmod(p, g)
    assert quo == X**2 + X
    assert rem == Y + 1


def test_exact_quotient_by_a_ground_divisor():
    g = R(QQ_I(2, 3))
    p = X**2 * Y + 3 * Z
    _check_against_divmod(p, g)
    assert _exact_quotient(p, g) * g == p


def test_exact_quotient_repeated_atom():
    g = X * Y - 1
    p = g**2 * (Z + 1)
    once, _ = _check_against_divmod(p, g)
    twice, _ = _check_against_divmod(once, g)
    assert twice == Z + 1
    assert _exact_quotient(twice, g) is None
    # normalization cancels an atom of multiplicity > 1 as far as it divides
    setup_symbols()
    t = C("t11")
    a = ONE() - t * t.conjugate()
    assert ((t / a) ** 2 * (a * a)).render() == "t11^2"
    assert ((t / a) ** 3 * a).render() == "t11^3/(t11*conj(t11) - 1)^2"
    assert (t * a * a).is_multiple_of(a * t)
    assert not (t * a).is_multiple_of(a * a)


def test_scalar_products_skip_trial_division(monkeypatch):
    setup_symbols()
    t = C("t11")
    a = ONE() - t * t.conjugate()
    value = t * t / a
    expected = {
        k: (k * t * t) / a for k in (3, Fraction(-1, 2), Coefficient.i())
    }
    calls = []

    def counted(p, g):
        calls.append(g)
        return _exact_quotient(p, g)

    monkeypatch.setattr("ihg.coefficients._exact_quotient", counted)
    for k, want in expected.items():
        scalar = k if isinstance(k, Coefficient) else Coefficient.from_scalar(k)
        assert scalar * value == want
        assert value * scalar == want
        assert (value * k).render() == want.render()
    assert calls == []


# -- scalars: the direct route against the Fraction/GaussianRational route -----


def _scalar_by_gaussian(x):
    g = GaussianRational.of(x)
    c = QQ_I.new(*(QQ.convert(f.numerator) / QQ.convert(f.denominator)
                   for f in (g.re, g.im)))
    ctx = registry.context()
    if not c:
        return Coefficient(ctx.ring.zero, (), ctx)
    return Coefficient(ctx.ring.from_dict({ctx.ring.zero_monom: c}), (), ctx)


@settings(max_examples=40, deadline=None)
@given(st.integers(-10**20, 10**20) | st.fractions(max_denominator=10**6)
       | gaussians | st.just(GaussianRational.i()))
def test_from_scalar_matches_the_gaussian_route(x):
    setup_symbols()
    got, want = Coefficient.from_scalar(x), _scalar_by_gaussian(x)
    assert got == want
    assert got.render() == want.render()
    value = C("t11") / (ONE() - C("t11") * C("t11").conjugate())
    assert (value * x).render() == (value * want).render()


def test_one_is_the_ring_unit():
    setup_symbols()
    assert ONE() == _scalar_by_gaussian(1)
    assert ONE().render() == "1"
    assert ONE()._num == registry.context().ring.one
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
    if draw(st.booleans()):
        # (t*conj(t) - 1)/a = -1: the atom a cancels only in the total
        t = C("t11")
        a = ONE() - t * t.conjugate()
        pairs += [(ONE() / a, t * t.conjugate()), (ONE() / a, -1)]
    if draw(st.booleans()):
        pairs += [(-x, y) for x, y in pairs]  # a total of zero
    return pairs


@settings(max_examples=60, deadline=None)
@given(product_lists())
def test_sum_of_products_matches_the_pairwise_sum(pairs):
    want = Coefficient.zero()
    for x, y in pairs:
        want = want + x * y
    got = Coefficient.sum_of_products(pairs)
    assert got == want
    assert got.render() == want.render()


def test_sum_of_products_normalizes_once(monkeypatch):
    setup_symbols()
    t, u = C("t11"), C("t21")
    a = ONE() - t * t.conjugate()
    pairs = [(ONE() / a, t * t.conjugate()), (u / a, t), (ONE() / a, -1),
             (-u, t / a)]
    calls = []

    def counted(p, g):
        calls.append(g)
        return _exact_quotient(p, g)

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
    part = (x._num * y._num, x._den + y._den)
    assert _over_common_denominator([part]) is part
    # the atom a of x cancels against the numerator of y in the one _make
    got = Coefficient.sum_of_products([(x, y)])
    assert got.render() == (x * y).render() == "t11*t21/(t11 + t21)"


def test_derivative_normalizes_once(monkeypatch):
    setup_symbols()
    t = C("t11")
    # two atoms depend on t11, and so does the numerator
    value = t / (t + 1) / (t + 2)
    calls = []
    make = Coefficient._make

    def counted(num, den, ctx):
        calls.append(num)
        return make(num, den, ctx)

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


@settings(max_examples=80, deadline=None)
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
def planted_products(draw):
    """(scale, [(factor index, multiplicity)], denominator index or None)."""
    # at most two factors, each of multiplicity at most 3: the backing
    # library's gcd over Q(i) took up to 2 s on these, and over a minute
    # on a product of three squared factors
    factors = draw(st.lists(
        st.tuples(st.integers(0, 9), st.integers(1, 3)), min_size=1, max_size=2
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


@settings(max_examples=30, deadline=None)
@given(planted_products())
@example((GaussianRational.i(), [(0, 1)], 0))  # i*t11/t11: a constant
def test_squarefree_numerator_matches_sqf_part(spec):
    registry.reset()
    setup_symbols()
    value = _build(spec)
    got = value.squarefree_numerator()
    # the generators are passed so that a numerator the denominator
    # cancelled down to a constant is still a polynomial to sqf_part
    num = value.numerator_normalized()._num
    expected = sympy.sqf_part(num.as_expr(), *num.ring.symbols)
    ratio = sympy.cancel(got._num.as_expr() / expected)
    assert ratio != 0 and not ratio.free_symbols
    assert got._num.LC == QQ_I.one


@settings(max_examples=20, deadline=None)
@given(planted_products())
def test_squarefree_numerator_ignores_unrelated_generators(spec):
    # the gcd runs over the numerator's own generators: 40 more pairs in the
    # ring change neither the answer nor the ring any gcd runs in
    registry.reset()
    setup_symbols()
    value = _build(spec)
    before = value.squarefree_numerator()
    for k in range(40):
        registry.ensure_pair(f"w{k}")
    used = value.numerator_normalized().free_symbols()
    widths = []
    gcd = PolyElement.gcd

    def guarded(f, g):
        names = {str(x) for x in f.ring.symbols}
        assert names <= used, names - used
        widths.append(len(names))
        return gcd(f, g)

    with mock.patch.object(PolyElement, "gcd", guarded):
        after = value.squarefree_numerator()
    assert after.render() == before.render()
    assert after == before
    # a ground numerator needs no gcd, any other at least one
    assert bool(widths) == (before != ONE())


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
