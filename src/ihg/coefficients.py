"""Exact arithmetic in Frac(Q[i][params, conj-params][chars^{+-1}]).

A Coefficient is num / (q * product of atom**m).  The numerator and every
denominator atom are sparse polynomials over the Gaussian integers, kept
as dicts from packed monomial (one int per exponent vector, in the layout
of symbols.RingContext) to an (re, im) pair of Python ints, with no zero
entries (_Poly).  Every atom is primitive, its coefficients having
Gaussian gcd 1, with its leading coefficient in the first quadrant; q is
one positive integer, coprime to the integer content of the numerator,
held in its own slot (_q), so no atom is a constant.  Every element of
the field has this form (content and primitive part, von zur
Gathen-Gerhard, Modern Computer Algebra, section 6.2), so products and
sums cost Python integer arithmetic, where rationals would cost a gcd per
coefficient operation.
render() shows the value over Q(i): the numerator divided by q and by the
atoms' leading coefficients, and each atom monic, with terms in
grlex-descending order.

The arithmetic of Z[i] and of its polynomials is this module's own; it
imports no sympy.  There is one private kernel per operation:
_add_product (out + f*p*q; _mul is out = 0, f = 1), _sum, _scale, _neg,
_pow, _exact_quotient, _remainder, _conj_poly, _diff, _poly_euler and
_poly_gcd, over the scalar kernels _gauss_gcd and _canonical_unit.
Products and sums add each term into one output dict keyed by monomial,
on ints (the dict accumulation of sparse polynomial arithmetic;
Monagan-Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", 2007, compare it with heaps).
With packed monomials a monomial product is one int addition, the grlex
leading term is max() of the keys, kept on a finished polynomial (_lm) so
that it is scanned once and not at every use, and a divisibility test is
one subtraction and a mask test.  A kernel that raises degrees (_add_product,
_pow, _conj_poly) compares the total degree of its result with MAX_DEGREE
once, since no exponent exceeds the total degree, and raises
DegreeOverflow past it.

Normalization cancels atoms out of the numerator by exact division: by
Gauss's lemma a primitive atom divides the numerator over Q(i) exactly when
it divides it over Z[i].  Atoms are sorted, so zero tests are
numerator-only and equality is decided exactly by cross-multiplication.
Arithmetic computes no polynomial gcd: multivariate gcd is slow, and every
cancellation arising here is an exact-division event.  The one gcd user is
squarefree_numerator, which the Kuranishi condition extraction calls on
each candidate generator; it needs no gcd for a one-term or multilinear
numerator, and otherwise takes the heuristic gcd _poly_gcd, which
evaluates only the generators its inputs use.  A product with a nonzero
scalar only scales the other numerator and q, since a unit cannot make an
atom divide.

A linear combination is normalized once: sum_of_products groups its
products by their atom tuple and adds each term product of a group into
one polynomial over the integer lcm of the group's scales (_add_product);
the group totals are brought over the lcm of the atoms and of the scales
(_over_common_denominator, which addition, equality and the quotient rule
also use), so an atom a group lacks multiplies its total once, and only
the sum is trial-divided.  Summing pairwise instead normalizes every
partial sum, and nearly all of those trial divisions fail.  The engine's linear combinations go through it: sums of
forms by way of exterior.Form.combination, and linalg's matrix products.
Atoms key the lcm, so a _Poly hashes by value, with the hash cached, and
each atom caches its conjugate and its lead: conjugates of values that
share an atom object share its conjugate atom object, which the lcm finds
by identity.  A Coefficient caches its text, rendered once.

Trial division has one home, _exact_quotient, which both normalization and
is_multiple_of use.  It runs the one-divisor division algorithm and gives up
at the first leading term of the running remainder that LT(g) does not
divide.  With one divisor such a term passes to the remainder and is never
cancelled, since every later step only touches smaller terms, so giving up
there is exactly the case of a nonzero remainder; most trial divisions fail,
and most of those fail at the first term.  Division by an ideal has one
home, _Reducer, over _remainder; every divisor keeps its division table.

Characters enter as ordinary generators; conj(E) = 1/E puts them into the
denominator, where an atom that is a bare character monomial cancels by
monomial shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .symbols import (CHAR, FIELD_BITS, MAX_DEGREE, REAL, RingContext,
                      base_names, check_degree, registry, with_partners)

_ONE = (1, 0)


class DivisionByZero(ZeroDivisionError):
    pass


class DenominatorVanishes(ZeroDivisionError):
    """A substitution made a denominator vanish: the value is undefined there."""

    def __init__(self, atom_text: str):
        super().__init__(f"denominator vanishes at substitution: {atom_text}")
        self.atom = atom_text


class SectorMixing(ValueError):
    pass


class StaleCoefficient(ValueError):
    """A value built before the last registry reset() was used."""


@dataclass(frozen=True)
class GaussianRational:
    """re + im*i with exact rational components."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(Fraction(x), Fraction(0))
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    def __eq__(self, o):
        # a real value equals the equal int or Fraction, as it hashes
        if isinstance(o, GaussianRational):
            return self.re == o.re and self.im == o.im
        if isinstance(o, (int, Fraction)):
            return not self.im and self.re == o
        return NotImplemented

    def __hash__(self):
        # a real value hashes as its Fraction, so as an equal int
        return hash((self.re, self.im)) if self.im else hash(self.re)

    @staticmethod
    def i() -> "GaussianRational":
        return GaussianRational(Fraction(0), Fraction(1))

    def __add__(self, o):
        o = GaussianRational.of(o)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-GaussianRational.of(o))

    def __rsub__(self, o):
        return GaussianRational.of(o) + (-self)

    def __mul__(self, o):
        o = GaussianRational.of(o)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = GaussianRational.of(o)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise DivisionByZero("division by zero GaussianRational")
        return self * GaussianRational(o.re / n, -o.im / n)

    def __rtruediv__(self, o):
        return GaussianRational.of(o) / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def render(self) -> str:
        return _gaussian_text((self.re.numerator, self.re.denominator),
                              (self.im.numerator, self.im.denominator))

    def __str__(self) -> str:
        return self.render()


def _fraction_text(f) -> str:
    """The text of a reduced fraction (numerator, denominator > 0)."""
    return str(f[0]) if f[1] == 1 else f"{f[0]}/{f[1]}"


def _imag_text(f) -> str:
    if f == (1, 1):
        return "i"
    if f == (-1, 1):
        return "-i"
    return f"{_fraction_text(f)}*i"


def _gaussian_text(re, im) -> str:
    """The text of re + im*i, each a reduced fraction (numerator,
    denominator > 0)."""
    if not im[0]:
        return _fraction_text(re)
    if not re[0]:
        return _imag_text(im)
    sign = "+" if im[0] > 0 else "-"
    return f"({_fraction_text(re)} {sign} {_imag_text((abs(im[0]), im[1]))})"


class _Poly(dict):
    """A polynomial over Z[i]: packed monomial -> (re, im), a pair of Python
    ints that is never (0, 0).  A monomial is one int in the layout of its
    RingContext, the total degree above one guarded field per generator,
    so int order is grlex order and 0 is the constant monomial; no total
    degree passes MAX_DEGREE.

    A kernel changes only the accumulator it is building (_add_product),
    never a finished polynomial, so a polynomial hashes by value, with the
    hash cached: denominator atoms key the lcm of a common denominator.  A
    finished polynomial caches its lead (_lm) and, once it divides, its
    division table (_table), and an atom its conjugate (_conj_atom), its
    sort key (_poly_key) and its monic text (_atom_text).
    """

    __slots__ = ("_hash", "_conj", "_key", "_text", "_lm", "_div")

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.items()))
            return self._hash


# -- Gaussian integers as (re, im) pairs -----------------------------------------


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gpow(a, k: int):
    out = _ONE
    for _ in range(k):
        out = _gmul(out, a)
    return out


def _norm(c) -> int:
    return c[0] * c[0] + c[1] * c[1]


def _over_parts(c, d):
    """(re, im) of c / d for Gaussian integers c and d, d nonzero, each a
    reduced fraction (numerator, denominator > 0)."""
    if d[1]:
        n = _norm(d)
        x, y = c[0] * d[0] + c[1] * d[1], c[1] * d[0] - c[0] * d[1]
    else:
        (x, y), n = c, d[0]
        if n < 0:
            x, y, n = -x, -y, -n
    g, h = gcd(x, n), gcd(y, n)
    return (x // g, n // g), (y // h, n // h)


def _over(c, d=_ONE) -> GaussianRational:
    """c / d for Gaussian integers c and d, d nonzero."""
    (a, b), (x, y) = _over_parts(c, d)
    return GaussianRational(Fraction(a, b), Fraction(x, y))


def _gauss_quo(a, c):
    """a / c in Z[i], or None when c does not divide a."""
    x, y = c
    n = x * x + y * y
    re, im = a[0] * x + a[1] * y, a[1] * x - a[0] * y
    if re % n or im % n:
        return None
    return re // n, im // n


def _gauss_gcd(a, b):
    """A gcd of the Gaussian integers a and b, up to a unit: Euclid with
    the quotient a / b rounded to the nearest Gaussian integer, so each
    remainder has at most half the norm of the divisor."""
    while b[0] or b[1]:
        n = _norm(b)
        x, y = a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]
        qx, qy = (2 * x + n) // (2 * n), (2 * y + n) // (2 * n)
        a, b = b, (a[0] - qx * b[0] + qy * b[1], a[1] - qx * b[1] - qy * b[0])
    return a


def _canonical_unit(c):
    """The unit u with u*c in the first quadrant, re > 0 and im >= 0, for a
    nonzero Gaussian integer c."""
    x, y = c
    if y > 0:
        return _ONE if x > 0 else (0, -1)
    if y < 0:
        return (-1, 0) if x < 0 else (0, 1)
    return _ONE if x >= 0 else (-1, 0)


# -- polynomial kernels -------------------------------------------------------------


def _ground(c):
    """The constant polynomial c, for a nonzero Gaussian integer c."""
    return _Poly({0: c})


def _gen(ctx: RingContext, idx: int):
    """The polynomial of the generator at position idx."""
    return _Poly({ctx.gens[idx]: _ONE})


def _is_ground(p) -> bool:
    """Whether p is a constant, zero included."""
    return not p or (len(p) == 1 and 0 in p)


def _lm(p):
    """The leading monomial of a finished p in grlex, 0 for zero; scanned
    once and cached on p."""
    lm = getattr(p, "_lm", None)
    if lm is None:
        lm = p._lm = max(p) if p else 0
    return lm


def _led(p, lm):
    """p with lm cached as its leading monomial; None caches none."""
    p._lm = lm
    return p


def _lead(p):
    """(leading monomial, leading coefficient) of a nonzero p in grlex."""
    lm = _lm(p)
    return lm, p[lm]


def _table(g):
    """The division table (LM(g), LC(g), tail) of a finished nonzero
    divisor g, tail its other terms as (monomial, coefficient) pairs; built
    once and cached on g."""
    table = getattr(g, "_div", None)
    if table is None:
        lm = _lm(g)
        table = g._div = (lm, g[lm], [(m, c) for m, c in g.items() if m != lm])
    return table


def _terms(p):
    """The terms of p in grlex-descending order."""
    return sorted(p.items(), reverse=True)


def _neg(p):
    return _led(_Poly({m: (-x, -y) for m, (x, y) in p.items()}),
                getattr(p, "_lm", None))


def _scale(p, c):
    """c*p for a nonzero Gaussian integer c."""
    a, b = c
    if not b:
        out = _Poly({m: (x * a, y * a) for m, (x, y) in p.items()})
    else:
        out = _Poly({m: (x * a - y * b, x * b + y * a)
                     for m, (x, y) in p.items()})
    return _led(out, getattr(p, "_lm", None))


def _divided(p, c):
    """p / c for a Gaussian integer c that divides every coefficient."""
    a, b = c
    if not b:
        out = _Poly({m: (x // a, y // a) for m, (x, y) in p.items()})
    else:
        out = _Poly({m: _gauss_quo(v, c) for m, v in p.items()})
    return _led(out, getattr(p, "_lm", None))


def _mul(p, q, ctx: RingContext):
    """p*q, whose lead is LM(p) + LM(q): Z[i] has no zero divisors."""
    out = _add_product(None, p, q, 1, ctx)
    return _led(out, _lm(p) + _lm(q)) if out else out


def _add_product(out, p, q, f: int, ctx: RingContext):
    """out + f*p*q for a nonzero integer f, out a _Poly that is changed in
    place, or None for zero.  Each term product is added into out on ints,
    and a sum that cancels leaves the dict at once.  The degree of p*q is
    the sum of the degrees, and bounds every exponent of it, so one
    comparison guards every field.  The operands' leads are read from the
    cache; out is not finished, so its lead is neither read nor set."""
    if len(p) < len(q):
        p, q = q, p
    ds = ctx.deg_shift
    check_degree((_lm(p) >> ds) + (_lm(q) >> ds))
    if out is None:
        if len(q) == 1:
            # no two terms collide, and Z[i] has no zero divisors
            ((mq, (c, d)),) = q.items()
            c, d = c * f, d * f
            return _Poly({mp + mq: (a * c - b * d, a * d + b * c)
                          for mp, (a, b) in p.items()})
        out = _Poly()
    get = out.get
    for mq, (c, d) in q.items():
        if f != 1:
            c, d = c * f, d * f
        for mp, (a, b) in p.items():
            m = mp + mq
            x, y = a * c - b * d, a * d + b * c
            t = get(m)
            if t is not None:
                x += t[0]
                y += t[1]
                if not (x or y):
                    del out[m]
                    continue
            out[m] = (x, y)
    return out


def _sum(polys):
    """The sum of the polynomials, in one pass over their terms."""
    out = _Poly()
    get = out.get
    for p in polys:
        for m, c in p.items():
            t = get(m)
            if t is None:
                out[m] = c
                continue
            x, y = t[0] + c[0], t[1] + c[1]
            if x or y:
                out[m] = (x, y)
            else:
                del out[m]
    return out


def _pow(p, k: int, ctx: RingContext):
    """p**k for k >= 1, by repeated squaring; refused before any product
    when its degree passes MAX_DEGREE."""
    check_degree((_lm(p) >> ctx.deg_shift) * k)
    if len(p) == 1:
        ((m, c),) = p.items()
        return _led(_Poly({m * k: _gpow(c, k)}), m * k)
    out = None
    while True:
        if k & 1:
            out = p if out is None else _mul(out, p, ctx)
        k >>= 1
        if not k:
            return out
        p = _mul(p, p, ctx)


def _int_content(p) -> int:
    """The gcd of the real and imaginary parts of every coefficient."""
    g = 0
    for x, y in p.values():
        g = gcd(g, x, y)
        if g == 1:
            break
    return g


def _primitive(p):
    """(c, a) with p = c*a, a primitive over Z[i] and LC(a) in the first
    quadrant; a is p itself when c is 1."""
    lc = _lead(p)[1]
    if lc == _ONE:
        return _ONE, p
    g = _ONE
    if _norm(lc) != 1:
        g = (0, 0)
        for coeff in p.values():
            g = _gauss_gcd(coeff, g)
            if _norm(g) == 1:
                break
    u = _canonical_unit(_gauss_quo(lc, g))
    c = _gmul(g, (u[0], -u[1]))
    if c == _ONE:
        return _ONE, p
    return c, _divided(p, c)


def _clear(c, mult: int, unit, q: int):
    """Fold 1 / c**mult, c a nonzero Gaussian integer, into (unit, q): the
    factor of the numerator and the integer scale, 1/c = conj(c) / N(c)."""
    if not c[1]:
        q *= abs(c[0]) ** mult
        if c[0] < 0 and mult % 2:
            unit = (-unit[0], -unit[1])
        return unit, q
    return _gmul(unit, _gpow((c[0], -c[1]), mult)), q * _norm(c) ** mult


def _with_scale(num, atoms, q: int):
    """(num, atoms, q) of num / (q * atoms), with q reduced against the
    integer content of num."""
    if q != 1:
        g = gcd(q, _int_content(num))
        if g != 1:
            num = _divided(num, (g, 0))
            q //= g
    return num, atoms, q


def _poly_key(atom, ctx: RingContext):
    """Deterministic total order key for denominator atoms: the terms of
    the monic atom, atom / LC(atom), in lexicographic order of their
    exponent vectors, which is the int order of the monomials' fields
    below the degree.

    Cached on the atom, as _conj_atom caches its conjugate: an atom is
    never changed and never changes context (_refreshed lifts a copy)."""
    got = getattr(atom, "_key", None)
    if got is None:
        lc = _lead(atom)[1]
        fields = (1 << ctx.deg_shift) - 1
        items = []
        for exps, c in sorted((m & fields, c) for m, c in atom.items()):
            (a, b), (x, y) = _over_parts(c, lc)
            items.append((exps, a, b, x, y))
        got = atom._key = tuple(items)
    return got


def _lift_poly(p, bits: int):
    """p over a wider context of its lifetime, whose fields sit bits
    higher."""
    return _Poly({m << bits: c for m, c in p.items()})


def _conj_poly(p, ctx: RingContext):
    """Conjugate a polynomial.

    Returns (q, shifts) with conj(p) = q / prod(E_k ** shifts[k]): parameter
    exponents are swapped with their partners', scalars conjugated, and each
    character exponent e becomes shift - e after clearing by the max exponent.
    The map on monomials is injective, so no two terms collide.
    """
    pm, cm, chars = ctx.param_mask, ctx.partner_mask, ctx.char_mask
    keep = ~(pm | cm)
    if not any(m & chars for m in p):
        return _Poly({((m & pm) >> FIELD_BITS) | ((m & cm) << FIELD_BITS)
                      | (m & keep): (x, -y) for m, (x, y) in p.items()}), {}
    field, ds = ctx.field_mask, ctx.deg_shift
    shifts = {}
    for k in ctx.char_indices:
        s = max((m >> ctx.shifts[k]) & field for m in p)
        if s:
            shifts[k] = s
    # E^e -> E^(s - e): subtract each term's character monomial from the
    # monomial of the shifts, prod E_k^s_k
    top = sum(s * ctx.gens[k] for k, s in shifts.items())
    out = _Poly()
    for m, (x, y) in p.items():
        ch = m & chars
        ch_degree = sum((ch >> ctx.shifts[k]) & field for k in shifts)
        image = ctx.swap(m) - 2 * (ch | (ch_degree << ds)) + top
        check_degree(image >> ds)
        out[image] = (x, -y)
    return out, shifts


def _conj_atom(atom, ctx: RingContext):
    """(a, u, shifts) with conj(atom) = u*a / prod(E_k ** shifts[k]), a the
    canonical primitive atom of the conjugate and u a unit.

    Cached on the atom, so the conjugates of values that share an atom
    object share one conjugate atom object.
    """
    got = getattr(atom, "_conj", None)
    if got is None:
        image, shifts = _conj_poly(atom, ctx)
        u, a = _primitive(image)
        got = atom._conj = (a, u, shifts)
    return got


def _exact_quotient(p, g, ctx: RingContext):
    """p / g when g divides p exactly, else None; g must be nonzero.

    The division algorithm by one divisor (Cox-Little-O'Shea, section 2.3),
    stopped at the first leading term of the remainder that LT(g) does not
    divide: that term could only pass to the remainder.  Over Z[i] it also
    stops at a leading coefficient that LC(g) does not divide: a quotient
    in Z[i][x] makes every such division exact, and for a primitive g
    (Gauss's lemma) dividing over Z[i] is dividing over Q(i).  A monomial
    lm is divisible by LM(g) when lm - LM(g) borrows into no guard bit;
    most trial divisions fail at the first step, which is tested before p
    is copied.  g is read through its division table (_table).
    """
    if not p:
        return _Poly()
    guard = ctx.guard_mask
    lm_g, lc_g, tail = _table(g)
    lm = _lm(p)
    if (lm - lm_g) & guard:
        return None
    monic = lc_g == _ONE  # nearly all denominator atoms are
    rem, q = dict(p), _Poly()
    while rem:
        shift = lm - lm_g
        if shift & guard:
            return None
        c = rem.pop(lm)
        if not monic:
            c = _gauss_quo(c, lc_g)
            if c is None:
                return None
        q[shift] = c
        cx, cy = c
        for m, (x, y) in tail:
            m += shift
            x, y = -(x * cx - y * cy), -(x * cy + y * cx)
            v = rem.get(m)
            if v is not None:
                x += v[0]
                y += v[1]
                if not (x or y):
                    del rem[m]
                    continue
            rem[m] = (x, y)
        lm = max(rem) if rem else 0
    # the first shift, LM(p) - LM(g), leads the quotient
    return _led(q, _lm(p) - lm_g)


def _remainder(p, tables, ctx: RingContext):
    """(r, s): r / s is the remainder of p under multivariate division by
    the divisors over Q(i), in their order (Cox-Little-O'Shea, section
    2.3), with s a nonzero Gaussian integer.  Each divisor is given by its
    division table (_table).

    The division runs fraction-free over Z[i]: where LC(g) does not divide
    the leading coefficient, the running remainder is scaled until it does.
    A scalar never changes which monomial is leading or which LT(g)
    divides it, so every step is the step over Q(i), scaled.  When no
    leading term is divisible, r is p itself and s is one.
    """
    guard = ctx.guard_mask
    rem, out, scale = dict(p), {}, _ONE
    stepped = False
    while rem:
        lm = max(rem)
        for lm_g, lc_g, tail in tables:
            shift = lm - lm_g
            if not shift & guard:
                break
        else:
            out[lm] = rem.pop(lm)
            continue
        stepped = True
        c = rem.pop(lm)
        quo = _gauss_quo(c, lc_g)
        if quo is None:
            k = _gauss_quo(lc_g, _gauss_gcd(c, lc_g))
            scale = _gmul(scale, k)
            rem = {m: _gmul(v, k) for m, v in rem.items()}
            out = {m: _gmul(v, k) for m, v in out.items()}
            quo = _gauss_quo(_gmul(c, k), lc_g)
        qx, qy = quo
        for m, (x, y) in tail:
            m += shift
            x, y = -(x * qx - y * qy), -(x * qy + y * qx)
            v = rem.get(m)
            if v is not None:
                x += v[0]
                y += v[1]
                if not (x or y):
                    del rem[m]
                    continue
            rem[m] = (x, y)
    return (_Poly(out) if stepped else p), scale


def _over_common_denominator(parts, ctx: RingContext):
    """Sum num / (q * den) over parts (at least one), brought over the lcm
    of the denominators.

    Each part is (num, den, q) with den a sequence of (atom, multiplicity)
    in which an atom may repeat, and q a positive integer.  Returns
    (numerator, [(atom, multiplicity)], scale) with nothing cancelled: the
    scale is the integer lcm of the q, and each numerator times its share
    of it and the product of the atoms its denominator lacks from the lcm
    is added into the sum (_add_product).  A lone part is its own sum and
    is returned as it is.  When every part carries an equal den, that den
    is the lcm and is returned as it is, repeated atoms and all; only the
    scales are brought over their lcm.  Only this den may repeat an atom.
    """
    if len(parts) == 1:
        return parts[0]
    scale = lcm(*[q for _, _, q in parts])
    first = parts[0][1]
    for _, den, _ in parts:
        if den != first:
            break
    else:
        return _sum([num if q == scale else _scale(num, (scale // q, 0))
                     for num, _, q in parts]), list(first), scale
    common: dict = {}
    counted = []
    for _, den, q in parts:
        mults: dict = {}
        for atom, m in den:
            mults[atom] = mults.get(atom, 0) + m
        for atom, m in mults.items():
            if m > common.get(atom, 0):
                common[atom] = m
        counted.append(mults)
    out = None
    for (num, _, q), mults in zip(parts, counted):
        lacking = _ground(_ONE)
        for atom, m in common.items():
            m -= mults.get(atom, 0)
            if m:
                lacking = _mul(lacking, _pow(atom, m, ctx), ctx)
        out = _add_product(out, num, lacking, scale // q, ctx)
    return out, list(common.items()), scale


def _diff(p, idx: int, ctx: RingContext):
    """dp/dx for the generator x at position idx."""
    shift, field, gen = ctx.shifts[idx], ctx.field_mask, ctx.gens[idx]
    out = _Poly()
    for m, (x, y) in p.items():
        e = (m >> shift) & field
        if e:
            out[m - gen] = (x * e, y * e)
    return out


def _poly_euler(p, idx: int, ctx: RingContext):
    """E * d/dE as a polynomial map: multiplies each term by its E-exponent."""
    shift, field = ctx.shifts[idx], ctx.field_mask
    out = _Poly()
    for m, (x, y) in p.items():
        e = (m >> shift) & field
        if e:
            out[m] = (x * e, y * e)
    return out


def _used(polys, ctx: RingContext) -> list[int]:
    """The positions of the generators that occur in the polynomials."""
    acc = 0
    for p in polys:
        for m in p:
            acc |= m
    return [i for i, _ in ctx.exponents(acc)]


def _evaluate(p, idx: int, xi: int, ctx: RingContext):
    """p at x = xi, for the generator x at position idx and an integer xi."""
    shift, field, gen = ctx.shifts[idx], ctx.field_mask, ctx.gens[idx]
    terms = []
    for m, (x, y) in p.items():
        e = (m >> shift) & field
        w = xi ** e
        terms.append(_Poly({m - e * gen: (x * w, y * w)}))
    return _sum(terms)


def _interpolate(h, idx: int, xi: int, ctx: RingContext):
    """The polynomial in x, the generator at position idx, whose value at
    x = xi is h: each coefficient of h is read in xi-adic digits, the real
    and imaginary parts each by the symmetric remainder, and digit k
    multiplies x^k."""
    gen, half = ctx.gens[idx], xi // 2
    out = _Poly()
    for m, (x, y) in h.items():
        while x or y:
            a, b = x % xi, y % xi
            a -= xi if a > half else 0
            b -= xi if b > half else 0
            if a or b:
                out[m] = (a, b)
            x, y, m = (x - a) // xi, (y - b) // xi, m + gen
    return out


def _poly_gcd(f, g, ctx: RingContext):
    """A gcd of the nonzero f and g over Z[i], up to a unit, or None when
    the heuristic fails.

    The heuristic gcd (Char-Geddes-Gonnet, "GCDHEU", J. Symb. Comput. 7,
    1989): the contents are divided out, and their gcd multiplied back at
    the end.  One generator x of the primitive parts is evaluated at an
    integer xi > 2*min(|f|, |g|) + 2, |.| the largest |re| + |im| of a
    coefficient, and the gcd of the images, computed the same way down to
    a scalar Euclid, is read back in xi-adic digits.  The primitive part of
    that candidate is accepted only when it divides both inputs exactly,
    which proves it a common divisor; the bound on xi makes it the greatest
    (CGG, Theorem 1).  Otherwise xi grows, at most six times.
    """
    (cf, f), (cg, g) = _primitive(f), _primitive(g)
    common = _gauss_gcd(cf, cg)
    if _is_ground(f) or _is_ground(g):
        return _ground(common)
    idx = _used([f, g], ctx)[0]
    xi = 2 * min(max(abs(x) + abs(y) for x, y in p.values()) for p in (f, g)) + 3
    for _ in range(6):
        ff, gg = _evaluate(f, idx, xi, ctx), _evaluate(g, idx, xi, ctx)
        h = _poly_gcd(ff, gg, ctx) if ff and gg else None
        if h is not None:
            h = _primitive(_interpolate(h, idx, xi, ctx))[1]
            if (_exact_quotient(f, h, ctx) is not None
                    and _exact_quotient(g, h, ctx) is not None):
                return _scale(h, common)
        xi = xi * 73794 // 27011
    return None


def _definite(p, ctx: RingContext):
    """(s, z): the nonzero polynomial p is real-valued with strict sign s off
    the zero set of the polynomial z, everywhere when z is None; s is 0 when
    neither rule applies.

    A sum of norms, every term a real multiple of m*conj(m) with no
    character, all of one sign, is strict everywhere with a constant term
    and off its own zero set without one.  Otherwise p = |f|^2 / c when
    p*c == f*conj(f) for a nonzero real c.  For p = k*F*conj(F) with F free
    of conjugates, the terms of p sharing the conjugate part nu of one term
    are k*conj(F_nu')*F, nu' the partner monomial of nu, and the term at
    nu*nu' is k*|F_nu'|^2; those are the f and c tried.
    """
    # the low bit of each real field: set on an odd power of a real
    odd_real = sum(1 << ctx.shifts[s.index] for s in ctx.symbols if s.kind == REAL)
    chars, swap = ctx.char_mask, ctx.swap

    def is_norm(m):
        return swap(m) == m and not m & (odd_real | chars)

    signs = {0 if y or not is_norm(m) else (1 if x > 0 else -1)
             for m, (x, y) in p.items()}
    if len(signs) == 1 and 0 not in signs:
        return signs.pop(), None if 0 in p else p

    cm = ctx.partner_mask
    nu_fields = next(iter(p)) & cm
    nu = ctx.pack(ctx.unpack(nu_fields))
    f = _Poly({m - nu: c for m, c in p.items() if m & cm == nu_fields})
    fc, shifts = _conj_poly(f, ctx)
    c = p.get(nu + swap(nu))
    if shifts or c is None or c[1] or _scale(p, c) != _mul(f, fc, ctx):
        return 0, None
    return (1 if c[0] > 0 else -1), None if _is_ground(f) else f


class Coefficient:
    """Element of the coefficient field; immutable, so its text is kept."""

    __slots__ = ("_num", "_den", "_q", "_ctx", "_text")

    def __init__(self, num, den, q, ctx):
        self._num = num
        self._den = den  # tuple of (atom _Poly, multiplicity)
        self._q = q  # the positive integer scale
        self._ctx = ctx

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(num, den_list, q: int, ctx: RingContext) -> "Coefficient":
        """The normal form of num / (q * den_list); a ground atom in
        den_list is folded into the numerator's unit and q."""
        if not num:
            return Coefficient(_Poly(), (), 1, ctx)
        merged: list = []
        unit = _ONE
        for atom, mult in den_list:
            if mult == 0:
                continue
            if not atom:
                raise DivisionByZero("zero denominator atom")
            if _is_ground(atom):
                c = next(iter(atom.values()))
            else:
                c, atom = _primitive(atom)
                merged.append([atom, mult])
            if c != _ONE:
                unit, q = _clear(c, mult, unit, q)
        if unit != _ONE:
            num = _scale(num, unit)
        # merge equal atoms
        if len(merged) > 1:
            merged.sort(key=lambda am: _poly_key(am[0], ctx))
        packed: list = []
        for atom, mult in merged:
            if packed and packed[-1][0] == atom:
                packed[-1][1] += mult
            else:
                packed.append([atom, mult])
        # cancel atoms dividing the numerator exactly
        out = []
        for atom, mult in packed:
            while mult > 0:
                quo = _exact_quotient(num, atom, ctx)
                if quo is None:
                    break
                num, mult = quo, mult - 1
            if mult:
                out.append((atom, mult))
        return Coefficient(*_with_scale(num, tuple(out), q), ctx)

    @staticmethod
    def _monic(num, ctx: RingContext) -> "Coefficient":
        """num / LC(num), for a nonzero numerator over ctx."""
        unit, q = _clear(_lead(num)[1], 1, _ONE, 1)
        if unit != _ONE:
            num = _scale(num, unit)
        return Coefficient(*_with_scale(num, (), q), ctx)

    @staticmethod
    def from_scalar(x) -> "Coefficient":
        ctx = registry.context()
        if isinstance(x, (int, Fraction)):
            re, im, q = x.numerator, 0, x.denominator
        else:
            g = GaussianRational.of(x)
            q = lcm(g.re.denominator, g.im.denominator)
            re = g.re.numerator * (q // g.re.denominator)
            im = g.im.numerator * (q // g.im.denominator)
        if not (re or im):
            return Coefficient(_Poly(), (), 1, ctx)
        return Coefficient(_ground((re, im)), (), q, ctx)

    @staticmethod
    def symbol(name: str) -> "Coefficient":
        ctx = registry.context()
        return Coefficient(_gen(ctx, ctx.index_of[name]), (), 1, ctx)

    @staticmethod
    def zero() -> "Coefficient":
        ctx = registry.context()
        return Coefficient(_Poly(), (), 1, ctx)

    @staticmethod
    def one() -> "Coefficient":
        ctx = registry.context()
        return Coefficient(_ground(_ONE), (), 1, ctx)

    @staticmethod
    def i() -> "Coefficient":
        return Coefficient.from_scalar(GaussianRational.i())

    # -- plumbing ----------------------------------------------------------

    def _check_lifetime(self, ctx: RingContext) -> None:
        """Raise StaleCoefficient unless the value is of ctx's lifetime."""
        if ctx.lifetime is not self._ctx.lifetime:
            raise StaleCoefficient(
                "coefficient was built before the last registry reset()"
            )

    def _refreshed(self) -> "Coefficient":
        ctx = registry.context()
        if ctx is self._ctx:
            return self
        self._check_lifetime(ctx)
        bits = ctx.deg_shift - self._ctx.deg_shift
        num = _lift_poly(self._num, bits)
        den = tuple((_lift_poly(a, bits), m) for a, m in self._den)
        return Coefficient(num, den, self._q, ctx)

    @staticmethod
    def _pair(a: "Coefficient", b) -> tuple["Coefficient", "Coefficient"]:
        if not isinstance(b, Coefficient):
            b = Coefficient.from_scalar(b)
        ctx = registry.context()
        if a._ctx is ctx and b._ctx is ctx:
            return a, b
        return a._refreshed(), b._refreshed()

    def _den_product(self):
        ctx = self._ctx
        prod = _ground((self._q, 0))
        for atom, mult in self._den:
            prod = _mul(prod, _pow(atom, mult, ctx), ctx)
        return prod

    # -- predicates and views ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_one(self) -> bool:
        """Whether the value is exactly 1, read off its normal form."""
        return self._q == 1 and not self._den and self._num == {0: _ONE}

    def is_scalar(self) -> bool:
        r = self._refreshed()
        return not r._den and _is_ground(r._num)

    def scalar(self) -> GaussianRational:
        r = self._refreshed()
        if not r.is_scalar():
            raise ValueError(f"not a scalar: {self}")
        if not r._num:
            return GaussianRational()
        return _over(_lead(r._num)[1], (r._q, 0))

    def free_symbols(self) -> set[str]:
        r = self._refreshed()
        names = r._ctx.names
        used = _used([r._num] + [a for a, _ in r._den], r._ctx)
        return {names[i] for i in used}

    def has_characters(self) -> bool:
        """Whether a character occurs in the numerator or an atom, read in
        the value's own context: only its lifetime is checked."""
        self._check_lifetime(registry.context())
        chars = self._ctx.char_mask
        return any(m & chars for p in (self._num, *(a for a, _ in self._den))
                   for m in p)

    def has_free_parameters(self) -> bool:
        """Whether any symbol other than a character appears."""
        return bool(base_names((self,)))

    def certified_sign(self) -> tuple[int, tuple["Coefficient", ...]]:
        """(sign, locus): the value is real with this strict sign wherever
        it is defined, off the zero sets of the locus polynomials; (0, ())
        when no exact rule decides it.

        The scale q is positive and an even power of a self-conjugate atom
        is positive; the numerator and every other atom must be definite
        (_definite), and only the numerator's zero set joins the locus.
        An even power of an atom that is not self-conjugate can be negative:
        1/(t + i*conj(t))^4 = -1/(4*(Re t + Im t)^4).
        """
        r = self._refreshed()
        if not r._num:
            return 0, ()
        ctx = r._ctx
        sign, zero = _definite(r._num, ctx)
        for atom, mult in r._den:
            if mult % 2 == 0 and _conj_atom(atom, ctx) == (atom, _ONE, {}):
                continue
            sign *= _definite(atom, ctx)[0] ** mult
        if not sign:
            return 0, ()
        return sign, () if zero is None else (Coefficient._monic(zero, ctx),)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = Coefficient._pair(self, other)
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        return Coefficient._make(*_over_common_denominator(
            ((a._num, a._den, a._q), (b._num, b._den, b._q)), a._ctx
        ), a._ctx)

    __radd__ = __add__

    def __neg__(self):
        return Coefficient(_neg(self._num), self._den, self._q, self._ctx)

    def __sub__(self, other):
        a, b = Coefficient._pair(self, other)
        return a + (-b)

    def __rsub__(self, other):
        a, b = Coefficient._pair(self, other)
        return b + (-a)

    @staticmethod
    def _times(a: "Coefficient", b: "Coefficient") -> "Coefficient":
        """a*b for nonzero current a and b.  A product with a scalar is
        normal: a unit cannot make an atom newly divide the numerator, so
        only q is reduced.  A product with exactly 1 is the other factor,
        and with exactly -1 its negation, computed as such."""
        for x, s in ((a, b), (b, a)):
            if s._q == 1 and not s._den and len(s._num) == 1 and 0 in s._num:
                c = s._num[0]
                if c == _ONE:
                    return x
                if c == (-1, 0):
                    return Coefficient(_neg(x._num), x._den, x._q, a._ctx)
        for x, s in ((a, b), (b, a)):
            # a scalar's numerator is {0: c}
            if not s._den and 0 in s._num and len(s._num) == 1:
                num = _scale(x._num, s._num[0])
                return Coefficient(*_with_scale(num, x._den, x._q * s._q),
                                   a._ctx)
        return Coefficient._make(_mul(a._num, b._num, a._ctx),
                                 a._den + b._den, a._q * b._q, a._ctx)

    def __mul__(self, other):
        a, b = Coefficient._pair(self, other)
        if a.is_zero() or b.is_zero():
            return Coefficient(_Poly(), (), 1, a._ctx)
        return Coefficient._times(a, b)

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs) -> "Coefficient":
        """The sum of a*b over pairs, normalized once.

        The products are grouped by their atom tuple, a's atoms then b's,
        and each term product of a group is added into one polynomial over
        the integer lcm of the group's scales q_a*q_b (_add_product).  A
        group that cancels drops out; only the group totals are brought
        over the lcm of their denominators, and only the sum is
        trial-divided.  Equal to the pairwise sum, which normalizes every
        product and every partial sum.  A lone product is normalized as
        __mul__ normalizes it: not at all when an operand is a scalar.

        The registry's context is read once per sum.  Only an operand that
        is not a Coefficient of that context goes through _pair, which
        lifts a value of a narrower context of the same lifetime and
        raises StaleCoefficient for one of an earlier lifetime, zero or
        not.
        """
        ctx = registry.context()
        groups: dict = {}
        lone = None
        for a, b in pairs:
            if (a._ctx is not ctx or not isinstance(b, Coefficient)
                    or b._ctx is not ctx):
                a, b = Coefficient._pair(a, b)
            if a._num and b._num:
                groups.setdefault(a._den + b._den, []).append(
                    (a._num, b._num, a._q * b._q))
                # the one nonzero product, False once there are two
                lone = (a, b) if lone is None else False
        if lone:
            return Coefficient._times(*lone)
        parts = []
        for den, group in groups.items():
            scale = lcm(*[q for _, _, q in group])
            num = None
            for x, y, q in group:
                num = _add_product(num, x, y, scale // q, ctx)
            if num:
                parts.append((num, den, scale))
        if not parts:
            return Coefficient(_Poly(), (), 1, ctx)
        return Coefficient._make(*_over_common_denominator(parts, ctx), ctx)

    def __truediv__(self, other):
        a, b = Coefficient._pair(self, other)
        if b.is_zero():
            raise DivisionByZero("division by zero Coefficient")
        if not (a._den or b._den) and _is_ground(a._num) and _is_ground(b._num):
            return Coefficient._scalar_quotient(a, b)
        # 1/b = den_product(b) / num(b), the product starting from q(b)
        num = _mul(a._num, b._den_product(), a._ctx)
        return Coefficient._make(num, list(a._den) + [(b._num, 1)], a._q,
                                 a._ctx)

    @staticmethod
    def _scalar_quotient(a: "Coefficient", b: "Coefficient") -> "Coefficient":
        """a / b for Gaussian scalars a and b, b nonzero, in the normal form
        _make gives: (x + iy)/q_a over (u + iv)/q_b is
        (x + iy)(u - iv) q_b / (q_a (u^2 + v^2)), with q reduced against
        the content."""
        if not a._num:
            return a
        (x, y), (u, v) = a._num[0], b._num[0]
        re, im = (x * u + y * v) * b._q, (y * u - x * v) * b._q
        q = a._q * (u * u + v * v)
        g = gcd(q, re, im)
        return Coefficient(_ground((re // g, im // g)), (), q // g, a._ctx)

    def __rtruediv__(self, other):
        a, b = Coefficient._pair(self, other)
        return b / a

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("Coefficient powers must be integers")
        if k == 0:
            return Coefficient.one()
        if k < 0:
            # invert first, so the numerator becomes one atom of multiplicity -k
            return (Coefficient.one() / self) ** (-k)
        r = self._refreshed()
        return Coefficient._make(
            _pow(r._num, k, r._ctx), [(a, m * k) for a, m in r._den], r._q ** k,
            r._ctx
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Coefficient, int, Fraction, GaussianRational)):
            return NotImplemented
        a, b = Coefficient._pair(self, other)
        if a._num == b._num and a._den == b._den and a._q == b._q:
            return True
        # cross-multiply: a - b over the lcm of the denominators
        return not _over_common_denominator(
            ((a._num, a._den, a._q), (_neg(b._num), b._den, b._q)), a._ctx
        )[0]

    def __hash__(self):
        # only scalars hash structurally; field elements are not dict keys
        r = self._refreshed()
        if r.is_scalar():
            return hash(r.scalar())
        raise TypeError("non-scalar Coefficient is unhashable")

    def is_multiple_of(self, other: "Coefficient") -> bool:
        """Exact ideal membership: self lies in the ideal generated by other.

        Denominator atoms are invertible, so this reduces to polynomial
        divisibility of the numerators.
        """
        a, b = Coefficient._pair(self, other)
        if not b._num:
            return not a._num
        if not a._num or _is_ground(b._num):
            return True
        ctx = a._ctx
        return _exact_quotient(a._num, _primitive(b._num)[1], ctx) is not None

    def numerator_normalized(self) -> "Coefficient":
        """Monic numerator with the denominator dropped: the canonical
        generator of the zero locus within the domain of definition."""
        r = self._refreshed()
        if not r._num:
            return Coefficient(_Poly(), (), 1, r._ctx)
        return Coefficient._monic(r._num, r._ctx)

    def reduce_modulo(self, gens) -> "Coefficient":
        """Remainder of the numerator under multivariate division by the
        numerators of gens, taken in the given order: the one-shot use of
        the reducer (_Reducer), whose docstring has the contract."""
        return _Reducer(g if isinstance(g, Coefficient)
                        else Coefficient.from_scalar(g) for g in gens).reduce(self)

    def numerator_terms(self) -> int:
        """Number of monomials in the numerator."""
        return len(self._refreshed()._num)

    def squarefree_numerator(self) -> "Coefficient":
        """Monic squarefree part of the numerator, denominator dropped.

        Repeated factors are collapsed (t^2 u -> t u), so the result cuts
        out the same locus as the original within its domain of
        definition; multi-factor content stays intact.

        A term c * prod x^e has the part prod x^min(e, 1), and a numerator
        with no exponent above 1 is its own part: were g^2 to divide it
        with x in g, its degree in x would be at least 2.  Otherwise the
        part is f / gcd(f, df/dx_1, ..., df/dx_k) over the generators
        x_1..x_k that f contains, the gcd folded one derivative at a time
        by _poly_gcd until it is a constant.  The gcd's primitive part
        divides f over Z[i] (Gauss's lemma).  When the heuristic gcd fails
        at every evaluation point, ArithmeticError names the numerator.
        """
        r = self._refreshed()
        num, ctx = r._num, r._ctx
        if not num:
            return Coefficient(_Poly(), (), 1, ctx)
        # the bits 1 .. FIELD_BITS - 2 of every field: set by an exponent above 1
        above_one = ctx.guard_mask - (ctx.guard_mask >> (FIELD_BITS - 2))
        if len(num) == 1:
            ((monom, _),) = num.items()
            num = _Poly({sum(ctx.gens[i] for i, _ in ctx.exponents(monom)): _ONE})
        elif any(m & above_one for m in num):
            common = num
            for idx in _used([num], ctx):
                common = _poly_gcd(common, _diff(num, idx, ctx), ctx)
                if common is None:
                    raise ArithmeticError("the heuristic gcd failed on "
                                          + _render_poly(num, ctx, _ONE))
                if _is_ground(common):
                    break
            if not _is_ground(common):
                num = _exact_quotient(num, _primitive(common)[1], ctx)
        return Coefficient._monic(num, ctx)

    # -- involution, derivatives --------------------------------------------

    def conjugate(self) -> "Coefficient":
        r = self._refreshed()
        ctx = r._ctx
        num, shifts = _conj_poly(r._num, ctx)
        den: list = []
        unit, lift = _ONE, 0
        for atom, mult in r._den:
            a, u, a_shifts = _conj_atom(atom, ctx)
            den.append((a, mult))
            # 1/conj(atom)^mult = prod E^(shift*mult) * conj(u)^mult / a^mult
            if u != _ONE:
                unit = _gmul(unit, _gpow((u[0], -u[1]), mult))
            for k, s in a_shifts.items():
                lift += s * mult * ctx.gens[k]
        if unit != _ONE:
            num = _scale(num, unit)
        if lift:
            num = _mul(num, _Poly({lift: _ONE}), ctx)
        den += [(_gen(ctx, k), s) for k, s in shifts.items()]
        return Coefficient._make(num, den, r._q, ctx)

    def _derive(self, derivation) -> "Coefficient":
        """Quotient rule for a derivation given as a map on polynomials;
        self must be current (refreshed).  The pieces are summed over one
        common denominator and normalized once."""
        ctx = self._ctx
        parts = [(derivation(self._num), self._den, self._q)]
        for atom, mult in self._den:
            da = derivation(atom)
            if da:
                parts.append((_scale(_mul(da, self._num, ctx), (-mult, 0)),
                              self._den + ((atom, 1),), self._q))
        return Coefficient._make(*_over_common_denominator(parts, ctx), ctx)

    def diff(self, name: str) -> "Coefficient":
        """Partial derivative with every generator treated independently."""
        r = self._refreshed()
        if name not in r._ctx.index_of:
            return Coefficient.zero()
        idx = r._ctx.index_of[name]
        return r._derive(lambda p: _diff(p, idx, r._ctx))

    def param_derivative(self, name: str) -> "Coefficient":
        """Derivative along a distinguished real parameter (conj(t) = t).

        Complex parameters carry an independent conjugate generator, so a
        one-parameter curve derivative is only meaningful for REAL kind.
        """
        registry.require_real(name)
        return self.diff(name)

    def euler(self, char_name: str) -> "Coefficient":
        """E * d/dE for a character generator (degree-preserving).

        When E occurs in no atom but the atom E itself, of multiplicity K,
        the quotient rule is closed: E*d/dE (num / (q*E^K*rest)) =
        (E*d/dE num - K*num) / (q*E^K*rest), each numerator term scaled
        by its E-exponent less K, over the same denominator, in one _make.
        E is prime and divides no other atom, so that _make cancels what
        the quotient rule's would, and the normal form is the same.  Any
        other atom that contains E takes the quotient rule: a monomial
        atom E*t beside an atom t, say, would cancel differently there."""
        r = self._refreshed()
        ctx = r._ctx
        idx = ctx.index_of[char_name]
        shift, field, gen = ctx.shifts[idx], ctx.field_mask, ctx.gens[idx]
        k = 0
        for atom, mult in r._den:
            if gen in atom and len(atom) == 1:
                k = mult
            elif any((m >> shift) & field for m in atom):
                return r._derive(lambda p: _poly_euler(p, idx, ctx))
        num = _Poly()
        for m, (x, y) in r._num.items():
            e = ((m >> shift) & field) - k
            if e:
                num[m] = (x * e, y * e)
        return Coefficient._make(num, r._den, r._q, ctx)

    # -- substitution ---------------------------------------------------------

    def substitute(self, bindings: dict):
        """Evaluate at bindings {symbol or name: value}.

        Binding a parameter also binds its conjugate partner to the
        conjugated value unless the partner is bound explicitly.  Unbound
        symbols stay symbolic, so the result is a Coefficient.  A square
        root of d is a real symbol s, bound like any other, with the result
        read modulo s**2 - d (reduce_modulo).
        """
        return Coefficient._point(bindings)(self)

    @staticmethod
    def _point(bindings: dict):
        """The map c -> c.substitute(bindings), with the point prepared once
        in the registry's context: the partners bound, the values of real
        symbols and characters checked, and the field mask of the bound
        generators taken, so a caller that substitutes many coefficients
        at one point prepares it once."""
        ctx = registry.context()
        field = with_partners(
            {k: v if isinstance(v, Coefficient) else Coefficient.from_scalar(v)
             for k, v in bindings.items()})
        for name, val in field.items():
            kind = registry.lookup(name).kind
            if kind == REAL and val.conjugate() != val:
                raise ValueError(f"real symbol {name!r} bound to non-real value")
            if kind == CHAR and not val:
                raise DenominatorVanishes(f"character {name} bound to 0")
            # conj(E) is stored as 1/E, which holds only on the unit circle
            if kind == CHAR and val * val.conjugate() - 1:
                raise ValueError(f"character {name!r} bound off the unit circle")
        value = field.__getitem__
        # the fields of the bound generators; every other one stays free
        bound = sum(ctx.field_mask << ctx.shifts[ctx.index_of[nm]]
                    for nm in field)

        def const(p):
            return Coefficient(p, (), 1, ctx)
        return lambda c: c._refreshed()._at(
            value, const, Coefficient.sum_of_products, bound)

    def _at(self, value, const, total, bound=-1):
        """num / (q * den) at a point; self must be current.

        The generators in the field mask bound take the values value(name);
        the others stay free, in the packed monomial.  A term c*m splits
        into the value x of its bound part, a product of powers each
        computed once, and its free monomial f; a zero value drops the
        term.  A polynomial's value is const of the polynomial of its
        terms without a bound generator, and total(pairs) when some term
        has one, over the pairs (const(c*f), x) and that polynomial's.
        The numerator comes first, then out / a ** mult per atom, then
        / q; an atom that evaluates to zero raises DenominatorVanishes.
        """
        ctx = self._ctx
        names, exponents, gens = ctx.names, ctx.exponents, ctx.gens
        one = const(_ground(_ONE))
        powers: dict = {}

        def at(p):
            fixed, pairs = _Poly(), []
            for monom, c in p.items():
                x = None
                for idx, e in exponents(monom & bound):
                    y = powers.get((idx, e))
                    if y is None:
                        y = value(names[idx])
                        y = powers[idx, e] = y ** e if y and e > 1 else y
                    if not y:
                        break
                    x = y if x is None else x * y
                    monom -= e * gens[idx]
                else:
                    if x is None:
                        fixed[monom] = c
                    else:
                        pairs.append((const(_Poly({monom: c})), x))
            if not pairs:
                return const(fixed)
            if fixed:
                pairs.append((const(fixed), one))
            return total(pairs)

        out = at(self._num)
        for atom, mult in self._den:
            a = at(atom)
            if not a:
                raise DenominatorVanishes(_render_poly(atom, ctx))
            out = out / a ** mult
        return out if self._q == 1 else out / const(_ground((self._q, 0)))

    # -- sector decomposition -------------------------------------------------

    def char_decompose(self) -> dict[tuple[int, ...], "Coefficient"]:
        """Split into character sectors: keys are exponent vectors, values
        the character-free parts.

        A denominator atom is character-free (kept), a bare character
        monomial (it shifts every key) or mixed, which raises SectorMixing.
        A character-free value is its own sector-0 part, already normal.
        """
        r = self._refreshed()
        ctx = r._ctx
        if r._num and not r.has_characters():
            return {(0,) * len(ctx.char_indices): r}
        chars, field, ds = ctx.char_mask, ctx.field_mask, ctx.deg_shift
        char_shifts = [ctx.shifts[i] for i in ctx.char_indices]
        shift = [0] * len(char_shifts)
        den = []
        for atom, mult in r._den:
            if not any(m & chars for m in atom):
                den.append((atom, mult))
                continue
            monom = next(iter(atom))
            if len(atom) != 1 or monom & ((1 << ds) - 1) & ~chars:
                raise SectorMixing(
                    f"denominator atom mixes characters with parameters: "
                    f"{_render_poly(atom, ctx)}"
                )
            for k, s in enumerate(char_shifts):
                shift[k] -= ((monom >> s) & field) * mult
        buckets: dict[tuple[int, ...], _Poly] = {}
        for monom, c in r._num.items():
            exps = [(monom >> s) & field for s in char_shifts]
            key = tuple(e + s for e, s in zip(exps, shift))
            rest = (monom & ~chars) - (sum(exps) << ds)
            buckets.setdefault(key, _Poly())[rest] = c
        return {
            key: Coefficient._make(terms, den, r._q, ctx)
            for key, terms in buckets.items()
        }

    # -- rendering --------------------------------------------------------------

    def render(self) -> str:
        """The value over Q(i): the numerator divided by q and by the
        atoms' leading coefficients, over the monic atoms.  The text is the
        same in every context of a lifetime, so it is kept (_text) and
        rendered in the value's own context; a value of an earlier lifetime
        still raises StaleCoefficient."""
        self._check_lifetime(registry.context())
        text = getattr(self, "_text", None)
        if text is None:
            text = self._text = self._render()
        return text

    def _render(self) -> str:
        """The text of render(), in the value's own context."""
        if self.is_zero():
            return "0"
        ctx, atoms = self._ctx, self._den
        scale = (self._q, 0)
        for atom, mult in atoms:
            scale = _gmul(scale, _gpow(_lead(atom)[1], mult))
        num = _render_poly(self._num, ctx, scale)
        if not atoms:
            return num
        dens = []
        for atom, mult in atoms:
            text = _atom_text(atom, ctx)
            # a sum, a power or a product of several factors
            if len(atom) > 1 or mult > 1 or "*" in text:
                text = f"({text})"
            dens.append(text if mult == 1 else f"{text}^{mult}")
        den = "*".join(dens) if len(dens) == 1 else "(" + "*".join(dens) + ")"
        if len(self._num) > 1:
            num = f"({num})"
        return f"{num}/{den}"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Coefficient({self.render()})"

    def numeric(self, point: dict) -> complex:
        """Float evaluation at a point {symbol or name: number}, for numeric
        cross-checks; a parameter's unbound partner takes the conjugate.

        A generator the point does not bind by name is looked up in
        with_partners(point), so a caller that evaluates many coefficients
        at one point fills it once with with_partners.
        """
        return self._refreshed()._at(
            lambda nm: point[nm] if nm in point else with_partners(point)[nm],
            lambda p: complex(*p.get(0, (0, 0))), _plain_sum(0j),
        )


class _Reducer:
    """Division by an ideal: the generators (gens) in order, with the
    division tables of their nonzero numerators (_tables), built once, and
    the lowest total degree of their leads; it grows by append.

    reduce(c) is the remainder of c's numerator under division by the
    numerators in order, fraction-free (_remainder), over c's denominator:
    an equality modulo the ideal.  It is c itself when no step is taken,
    as when c's lead has a lower degree than every lead.  This is plain
    division, not a Groebner normal form: the remainder depends on the
    order and can be nonzero for an ideal member.

    What it prepares is kept for the registry context it was prepared in:
    a wider context of the same lifetime lifts the generators again, and a
    generator, zero or not, or a c of an earlier lifetime raises
    StaleCoefficient.
    """

    __slots__ = ("gens", "_ctx", "_tables", "_low")

    def __init__(self, gens=()):
        self.gens: list[Coefficient] = list(gens)
        self._ctx = None

    def append(self, g: Coefficient) -> None:
        self.gens.append(g)
        if g._ctx is not self._ctx:
            self._ctx = None  # prepared again at the next reduce
        elif g._num:
            self._add(g._num)

    def _add(self, num) -> None:
        table = _table(num)
        self._tables.append(table)
        self._low = min(self._low, table[0] >> self._ctx.deg_shift)

    def _prepare(self, ctx: RingContext) -> None:
        self._ctx, self._tables, self._low = ctx, [], MAX_DEGREE + 1
        for g in self.gens:
            g = g if g._ctx is ctx else g._refreshed()
            if g._num:
                self._add(g._num)

    def reduce(self, c: Coefficient) -> Coefficient:
        ctx = registry.context()
        if self._ctx is not ctx:
            self._prepare(ctx)
        r = c if c._ctx is ctx else c._refreshed()
        num = r._num
        if not num or (_lm(num) >> ctx.deg_shift) < self._low:
            return r
        rem, scale = _remainder(num, self._tables, ctx)
        if rem is num:
            return r
        den = list(r._den)
        if scale != _ONE:
            den.append((_ground(scale), 1))
        return Coefficient._make(rem, den, r._q, ctx)


def _plain_sum(zero):
    """total for Coefficient._at: the plain sum of the pairs' products."""
    return lambda pairs: sum((a * b for a, b in pairs), zero)


def _render_poly(p, ctx, scale=None) -> str:
    """p / scale over Q(i), for a nonzero Gaussian integer scale, with its
    terms in grlex-descending order.  The scale defaults to the leading
    coefficient, which shows p monic."""
    if not p:
        return "0"
    terms = _terms(p)
    if scale is None:
        scale = terms[0][1]
    pieces = []
    for monom, c in terms:
        re, im = _over_parts(c, scale)
        m = ctx.render(monom)
        if not m:
            text = _gaussian_text(re, im)
        elif im[0]:
            text = f"{_gaussian_text(re, im)}*{m}"
        elif re == (1, 1):
            text = m
        elif re == (-1, 1):
            text = f"-{m}"
        else:
            text = f"{_fraction_text(re)}*{m}"
        pieces.append(text)
    out = pieces[0]
    for piece in pieces[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def _atom_text(atom, ctx) -> str:
    """The monic text of a denominator atom, cached on it as _poly_key
    caches its key."""
    got = getattr(atom, "_text", None)
    if got is None:
        got = atom._text = _render_poly(atom, ctx)
    return got


def normalized_generators(coefficients) -> tuple[Coefficient, ...]:
    """Monic numerators of the coefficients, deduplicated in first-seen
    order: generators of the locus where all of them vanish."""
    gens: list[Coefficient] = []
    for c in coefficients:
        g = c.numerator_normalized()
        if not any(g == seen for seen in gens):
            gens.append(g)
    return tuple(gens)
