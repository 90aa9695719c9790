"""Exact arithmetic in Frac(Q[i][params, conj-params][chars^{+-1}]).

A Coefficient is num / (q * product of atom**m).  The numerator and every
denominator atom are sparse multivariate polynomials over the Gaussian
integers (sympy PolyRing over ZZ_I).  Every atom is primitive, its
coefficients having Gaussian gcd 1, with its leading coefficient put in the
first quadrant by ZZ_I.canonical_unit; q is one positive integer, coprime
to the integer content of the numerator, kept as a ground atom after the
others.  Every element of the field has this form (content and primitive
part, von zur Gathen-Gerhard, Modern Computer Algebra, section 6.2), so
products and sums cost Python integer arithmetic, where rationals would
cost a gcd per coefficient operation.  render() shows the value over Q(i):
the numerator divided by q and by the atoms' leading coefficients, and each
atom monic.

Normalization cancels atoms out of the numerator by exact division: by
Gauss's lemma a primitive atom divides the numerator over Q(i) exactly when
it divides it over Z[i].  Atoms are sorted, so zero tests are
numerator-only and equality is decided exactly by cross-multiplication.
Arithmetic computes no polynomial gcd: multivariate gcd is slow in the
backing library, and every cancellation arising here is an exact-division
event.  The one gcd user is squarefree_numerator, which the Kuranishi
condition extraction calls on each candidate generator.  It takes its gcds
in the ring of only the generators the numerator uses: the library's gcd
recurses through every generator of its ring, and the registry's ring
holds every symbol ever registered.  A product with a nonzero scalar only
scales the other numerator and q, since a unit cannot make an atom divide.

A linear combination is normalized once: sum_of_products forms each
product's numerator and atom multiplicities unnormalized, brings them over
the lcm of the atoms (_over_common_denominator, which addition, equality and
the quotient rule also use) and trial-divides only the total.  Summing
pairwise instead normalizes every partial sum, and nearly all of those trial
divisions fail.  The engine's linear combinations go through it: sums of
forms by way of exterior.Form.combination, and linalg's matrix products.

Trial division has one home, _exact_quotient, which both normalization and
is_multiple_of use.  It runs the one-divisor division algorithm and gives up
at the first leading term of the running remainder that LT(g) does not
divide.  With one divisor such a term passes to the remainder and is never
cancelled, since every later step only touches smaller terms, so giving up
there is exactly the case of a nonzero remainder; most trial divisions fail,
and most of those fail at the first term.

Characters enter as ordinary generators; conj(E) = 1/E puts them into the
denominator, where an atom that is a bare character monomial cancels by
monomial shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from sympy.polys.domains import ZZ_I
from sympy.polys.domains.gaussiandomains import GaussianInteger
from sympy.polys.rings import PolyRing

from .symbols import CHAR, CONJ, PARAM, REAL, RingContext, registry

_gauss = GaussianInteger.new  # (re, im) -> element of ZZ_I, no conversion
_ONE = ZZ_I.one


class DivisionByZero(ZeroDivisionError):
    pass


class DenominatorVanishes(ZeroDivisionError):
    """A substitution made a denominator vanish: the value is undefined there."""

    def __init__(self, atom_text: str):
        super().__init__(f"denominator vanishes at substitution: {atom_text}")
        self.atom = atom_text


class MixedRadicals(ValueError):
    pass


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
        if self.im == 0:
            return _frac_str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"({_frac_str(self.re)} {sign} {_imag_str(abs(self.im))})"

    def __str__(self) -> str:
        return self.render()


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

def _imag_str(f: Fraction) -> str:
    if f == 1:
        return "i"
    if f == -1:
        return "-i"
    return f"{_frac_str(f)}*i"


@dataclass(frozen=True)
class QuadraticSurd:
    """a + b*sqrt(d) with GaussianRational a, b and one square-free d > 0."""

    a: GaussianRational
    b: GaussianRational
    d: int

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("surd discriminant must be positive")

    @staticmethod
    def of(x, d: int) -> "QuadraticSurd":
        if isinstance(x, QuadraticSurd):
            if x.d != d and not x.b.is_zero():
                raise MixedRadicals(f"mixed radicals sqrt({x.d}) and sqrt({d})")
            return QuadraticSurd(x.a, x.b if x.d == d else GaussianRational(), d)
        return QuadraticSurd(GaussianRational.of(x), GaussianRational(), d)

    def _check(self, o) -> "QuadraticSurd":
        o = QuadraticSurd.of(o, self.d) if not isinstance(o, QuadraticSurd) else o
        if o.d != self.d and not (o.b.is_zero() or self.b.is_zero()):
            raise MixedRadicals(f"mixed radicals sqrt({self.d}) and sqrt({o.d})")
        return QuadraticSurd(o.a, o.b, self.d) if o.b.is_zero() else o

    def __add__(self, o):
        o = self._check(o)
        return QuadraticSurd(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd(-self.a, -self.b, self.d)

    def __sub__(self, o):
        return self + (-self._check(o))

    def __rsub__(self, o):
        return self._check(o) + (-self)

    def __mul__(self, o):
        o = self._check(o)
        return QuadraticSurd(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._check(o)
        norm = o.a * o.a - o.b * o.b * self.d
        if norm.is_zero():
            if o.is_zero():
                raise DivisionByZero("division by zero QuadraticSurd")
            raise MixedRadicals("non-invertible surd (sqrt(d) rational?)")
        inv = QuadraticSurd(o.a / norm, -o.b / norm, self.d)
        return self * inv

    def __rtruediv__(self, o):
        return self._check(o) / self

    def conjugate(self) -> "QuadraticSurd":
        return QuadraticSurd(self.a.conjugate(), self.b.conjugate(), self.d)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def is_rational_real(self) -> bool:
        return self.a.im == 0 and self.b.im == 0

    def sign(self) -> int:
        """Sign of a + b*sqrt(d) for rational-real components."""
        if not self.is_rational_real():
            raise ValueError("sign defined only for real surds")
        a, b = self.a.re, self.b.re
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against d*b^2
        lhs, rhs = a * a, b * b * self.d
        if lhs == rhs:
            return 0
        bigger_is_a = lhs > rhs
        return (1 if a > 0 else -1) if bigger_is_a else (1 if b > 0 else -1)

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.d})"


def _norm(c) -> int:
    return c.x * c.x + c.y * c.y


def _over(c, d=_ONE) -> GaussianRational:
    """c / d for Gaussian integers c and d, d nonzero."""
    if d == _ONE:
        return GaussianRational(Fraction(c.x), Fraction(c.y))
    n = _norm(d)
    return GaussianRational(Fraction(c.x * d.x + c.y * d.y, n),
                            Fraction(c.y * d.x - c.x * d.y, n))


def _gauss_quo(a, c):
    """a / c in Z[i], or None when c does not divide a."""
    x, y = c.x, c.y
    n = x * x + y * y
    re, im = a.x * x + a.y * y, a.y * x - a.x * y
    if re % n or im % n:
        return None
    return _gauss(re // n, im // n)


def _divided(p, c):
    """p / c for a Gaussian integer c that divides every coefficient."""
    return p.new([(m, _gauss_quo(a, c)) for m, a in p.items()])


def _int_content(p) -> int:
    """The gcd of the real and imaginary parts of every coefficient."""
    g = 0
    for c in p.values():
        g = gcd(g, c.x, c.y)
        if g == 1:
            break
    return g


def _primitive(p):
    """(c, a) with p = c*a, a primitive over Z[i] and LC(a) in the first
    quadrant (ZZ_I.canonical_unit)."""
    lc = p.LC
    if lc == _ONE:
        return _ONE, p
    g = _ONE
    if _norm(lc) != 1:
        g = ZZ_I.zero
        for coeff in p.values():
            g = ZZ_I.gcd(g, coeff)
            if _norm(g) == 1:
                break
    u = ZZ_I.canonical_unit(_gauss_quo(lc, g))
    c = g * _gauss(u.x, -u.y)
    return c, _divided(p, c)


def _clear(c, mult: int, unit, q: int):
    """Fold 1 / c**mult, c a nonzero Gaussian integer, into (unit, q): the
    factor of the numerator and the integer scale, 1/c = conj(c) / N(c)."""
    if not c.y:
        q *= abs(c.x) ** mult
        if c.x < 0 and mult % 2:
            unit = -unit
        return unit, q
    return unit * _gauss(c.x, -c.y) ** mult, q * _norm(c) ** mult


def _ground(ring, c):
    """The constant polynomial c of ring, for a nonzero Gaussian integer c."""
    return ring.one.new([(ring.zero_monom, c)])


def _split_scale(den):
    """(atoms, q) of a normalized denominator: q is its trailing ground
    atom's value, or 1."""
    if den:
        last = den[-1][0]
        if last.is_ground:
            return den[:-1], next(iter(last.values())).x
    return den, 1


def _with_scale(num, atoms, q: int, ring):
    """(num, den) of num / (q * atoms), with q reduced against the integer
    content of num and appended as a ground atom."""
    if q != 1:
        g = gcd(q, _int_content(num))
        if g != 1:
            num = _divided(num, _gauss(g, 0))
            q //= g
    if q == 1:
        return num, atoms
    return num, atoms + ((_ground(ring, _gauss(q, 0)), 1),)


def _poly_key(atom):
    """Deterministic total order key for denominator atoms: the terms of
    the monic atom, atom / LC(atom)."""
    lc = atom.LC
    items = []
    for monom, c in sorted(atom.items()):
        g = _over(c, lc)
        items.append((monom, g.re.numerator, g.re.denominator,
                      g.im.numerator, g.im.denominator))
    return tuple(items)


def _lift_poly(p, src: RingContext, dst: RingContext):
    pad = len(dst.ring.gens) - (len(src.ring.gens) if src.names else 0)
    if not src.names:
        # source ring is the 1-gen scratch ring; p is constant
        c = p.coeff(1) if p else dst.ring.domain.zero
        return dst.ring.from_dict({dst.ring.zero_monom: c}) if c else dst.ring.zero
    return dst.ring.from_dict({m + (0,) * pad: c for m, c in p.items()})


def _conj_poly(p, ctx: RingContext):
    """Conjugate a polynomial.

    Returns (q, shifts) with conj(p) = q / prod(E_k ** shifts[k]): parameter
    exponents are permuted onto their partners, scalars conjugated, and each
    character exponent e becomes shift - e after clearing by the max exponent.
    """
    if not p:
        return p, {}
    shifts: dict[int, int] = {}
    for monom in p.keys():
        for k in ctx.char_indices:
            if monom[k] > shifts.get(k, 0):
                shifts[k] = monom[k]
    perm = ctx.conj_perm
    chars = set(ctx.char_indices)
    new: dict = {}
    n = len(ctx.ring.gens)  # scratch ring has a dummy gen beyond the symbols
    for monom, c in p.items():
        out = [0] * n
        for idx, e in enumerate(monom):
            if not e:
                continue
            if idx in chars:
                out[idx] = shifts[idx] - e
            else:
                out[perm[idx]] += e
        for k, s in shifts.items():
            if monom[k] == 0:
                out[k] = s
        key = tuple(out)
        cc = _gauss(c.x, -c.y)
        if key in new:
            new[key] = new[key] + cc
        else:
            new[key] = cc
    q = ctx.ring.from_dict({m: c for m, c in new.items() if c})
    return q, shifts


def _exact_quotient(p, g):
    """p / g when g divides p exactly, else None; g must be nonzero.

    The division algorithm by one divisor (Cox-Little-O'Shea, section 2.3),
    stopped at the first leading term of the remainder that LT(g) does not
    divide: that term could only pass to the remainder.  Over Z[i] it also
    stops at a leading coefficient that LC(g) does not divide: a quotient
    in Z[i][x] makes every such division exact, and for a primitive g
    (Gauss's lemma) dividing over Z[i] is dividing over Q(i).
    """
    ring, domain = p.ring, p.ring.domain
    order, zero = ring.order, domain.zero
    monomial_div, monomial_mul = ring.monomial_div, ring.monomial_mul
    lm_g = max(g, key=order)
    lc_g = g[lm_g]
    monic = lc_g == domain.one  # nearly all denominator atoms are
    tail = [(m, c) for m, c in g.items() if m != lm_g]
    rem = dict(p)
    q = ring.zero
    while rem:
        lm = max(rem, key=order)
        shift = monomial_div(lm, lm_g)
        if shift is None:
            return None
        c = rem.pop(lm)
        if not monic:
            c, r = divmod(c, lc_g)
            if r:
                return None
        q[shift] = c
        for m, cg in tail:
            m = monomial_mul(m, shift)
            v = rem.get(m, zero) - cg * c
            if v:
                rem[m] = v
            else:
                del rem[m]
    return q


def _remainder(p, divisors):
    """(r, s): r / s is the remainder of p under multivariate division by
    the divisors over Q(i), in their order (Cox-Little-O'Shea, section
    2.3), with s a nonzero Gaussian integer.

    The division runs fraction-free over Z[i]: where LC(g) does not divide
    the leading coefficient, the running remainder is scaled until it does.
    A scalar never changes which monomial is leading or which LT(g)
    divides it, so every step is the step over Q(i), scaled.
    """
    ring = p.ring
    order, zero = ring.order, ring.domain.zero
    monomial_div, monomial_mul = ring.monomial_div, ring.monomial_mul
    leads = []
    for g in divisors:
        lm = max(g, key=order)
        leads.append((lm, g[lm], [(m, c) for m, c in g.items() if m != lm]))
    rem, out, scale = dict(p), {}, _ONE
    while rem:
        lm = max(rem, key=order)
        for lm_g, lc_g, tail in leads:
            shift = monomial_div(lm, lm_g)
            if shift is not None:
                break
        else:
            out[lm] = rem.pop(lm)
            continue
        c = rem.pop(lm)
        quo = _gauss_quo(c, lc_g)
        if quo is None:
            k = _gauss_quo(lc_g, ZZ_I.gcd(c, lc_g))
            scale = scale * k
            rem = {m: v * k for m, v in rem.items()}
            out = {m: v * k for m, v in out.items()}
            quo = _gauss_quo(c * k, lc_g)
        for m, cg in tail:
            m = monomial_mul(m, shift)
            v = rem.get(m, zero) - cg * quo
            if v:
                rem[m] = v
            else:
                del rem[m]
    return p.new(out), scale


def _over_common_denominator(parts):
    """Sum num / den over parts (at least one), brought over the lcm of the
    denominators.

    Each part is (num, den) with den a sequence of (atom, multiplicity) in
    which an atom may repeat.  Returns (numerator, [(atom, multiplicity)])
    with nothing cancelled: each numerator is scaled by the atoms its
    denominator lacks from the lcm.  A lone part is its own sum and is
    returned as it is.
    """
    if len(parts) == 1:
        return parts[0]
    lcm: dict = {}
    counted = []
    for num, den in parts:
        mults: dict = {}
        for atom, m in den:
            mults[atom] = mults.get(atom, 0) + m
        for atom, m in mults.items():
            if m > lcm.get(atom, 0):
                lcm[atom] = m
        counted.append((num, mults))
    scaled = []
    for num, mults in counted:
        for atom, m in lcm.items():
            lacking = m - mults.get(atom, 0)
            if lacking:
                num = num * atom ** lacking
        scaled.append(num)
    return sum(scaled[1:], scaled[0]), list(lcm.items())


def _widen(monom, used, width: int) -> tuple:
    """The exponent vector, over width generators, of a monomial over the
    generators at positions used."""
    out = [0] * width
    for i, e in zip(used, monom):
        out[i] = e
    return tuple(out)


def _poly_euler(p, gen_index: int, ring):
    """E * d/dE as a polynomial map: multiplies each term by its E-exponent."""
    out = {}
    for monom, c in p.items():
        e = monom[gen_index]
        if e:
            out[monom] = _gauss(c.x * e, c.y * e)
    return ring.from_dict(out)


class Coefficient:
    """Element of the coefficient field; immutable."""

    __slots__ = ("_num", "_den", "_ctx")

    def __init__(self, num, den, ctx):
        self._num = num
        self._den = den  # tuple of (atom PolyElement, multiplicity)
        self._ctx = ctx

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(num, den_list, ctx: RingContext) -> "Coefficient":
        if not num:
            return Coefficient(ctx.ring.zero, (), ctx)
        merged: list = []
        unit, q = _ONE, 1
        for atom, mult in den_list:
            if mult == 0:
                continue
            if not atom:
                raise DivisionByZero("zero denominator atom")
            if atom.is_ground:
                c = next(iter(atom.values()))
            else:
                c, atom = _primitive(atom)
                merged.append([atom, mult])
            if c != _ONE:
                unit, q = _clear(c, mult, unit, q)
        if unit != _ONE:
            num = num.mul_ground(unit)
        # merge equal atoms
        if len(merged) > 1:
            merged.sort(key=lambda am: _poly_key(am[0]))
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
                quo = _exact_quotient(num, atom)
                if quo is None:
                    break
                num, mult = quo, mult - 1
            if mult:
                out.append((atom, mult))
        return Coefficient(*_with_scale(num, tuple(out), q, ctx.ring), ctx)

    @staticmethod
    def _monic(num, ctx: RingContext) -> "Coefficient":
        """num / LC(num), for a nonzero numerator of ctx's ring."""
        unit, q = _clear(num.LC, 1, _ONE, 1)
        if unit != _ONE:
            num = num.mul_ground(unit)
        return Coefficient(*_with_scale(num, (), q, ctx.ring), ctx)

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
        ring = ctx.ring
        if not (re or im):
            return Coefficient(ring.zero, (), ctx)
        num = _ground(ring, _gauss(re, im))
        den = () if q == 1 else ((_ground(ring, _gauss(q, 0)), 1),)
        return Coefficient(num, den, ctx)

    @staticmethod
    def symbol(name: str) -> "Coefficient":
        ctx = registry.context()
        return Coefficient(ctx.gen(name), (), ctx)

    @staticmethod
    def zero() -> "Coefficient":
        ctx = registry.context()
        return Coefficient(ctx.ring.zero, (), ctx)

    @staticmethod
    def one() -> "Coefficient":
        ctx = registry.context()
        return Coefficient(ctx.ring.one, (), ctx)

    @staticmethod
    def i() -> "Coefficient":
        return Coefficient.from_scalar(GaussianRational.i())

    # -- plumbing ----------------------------------------------------------

    def _refreshed(self) -> "Coefficient":
        ctx = registry.context()
        if ctx is self._ctx:
            return self
        if ctx.lifetime is not self._ctx.lifetime:
            raise StaleCoefficient(
                "coefficient was built before the last registry reset()"
            )
        num = _lift_poly(self._num, self._ctx, ctx)
        den = tuple((_lift_poly(a, self._ctx, ctx), m) for a, m in self._den)
        return Coefficient(num, den, ctx)

    @staticmethod
    def _pair(a: "Coefficient", b) -> tuple["Coefficient", "Coefficient"]:
        if not isinstance(b, Coefficient):
            b = Coefficient.from_scalar(b)
        a, b = a._refreshed(), b._refreshed()
        return a, b

    def _den_product(self):
        prod = self._ctx.ring.one
        for atom, mult in self._den:
            prod = prod * atom ** mult
        return prod

    # -- predicates and views ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_scalar(self) -> bool:
        r = self._refreshed()
        return not _split_scale(r._den)[0] and (not r._num or r._num.is_ground)

    def scalar(self) -> GaussianRational:
        r = self._refreshed()
        if not r.is_scalar():
            raise ValueError(f"not a scalar: {self}")
        if not r._num:
            return GaussianRational()
        return _over(r._num.LC, _gauss(_split_scale(r._den)[1], 0))

    def free_symbols(self) -> set[str]:
        r = self._refreshed()
        names = r._ctx.names
        out: set[str] = set()
        polys = [r._num] + [a for a, _ in r._den]
        for p in polys:
            for monom in p.keys():
                for idx, e in enumerate(monom):
                    if e:
                        out.add(names[idx])
        return out

    def has_free_parameters(self) -> bool:
        """Whether any symbol other than a character appears."""
        return any(
            registry.lookup(nm).kind != CHAR for nm in self.free_symbols()
        )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = Coefficient._pair(self, other)
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        num, den = _over_common_denominator(((a._num, a._den), (b._num, b._den)))
        return Coefficient._make(num, den, a._ctx)

    __radd__ = __add__

    def __neg__(self):
        return Coefficient(-self._num, self._den, self._ctx)

    def __sub__(self, other):
        a, b = Coefficient._pair(self, other)
        return a + (-b)

    def __rsub__(self, other):
        a, b = Coefficient._pair(self, other)
        return b + (-a)

    @staticmethod
    def _product(a: "Coefficient", b: "Coefficient"):
        """(numerator, atoms, normal) of a*b for nonzero current a and b,
        with nothing cancelled.  A product with a scalar is normal: a unit
        cannot make an atom newly divide the numerator, so only q is
        reduced."""
        for x, s in ((a, b), (b, a)):
            if s._num.is_ground:
                atoms, q = _split_scale(s._den)
                if not atoms:
                    atoms, qx = _split_scale(x._den)
                    num = x._num.mul_ground(next(iter(s._num.values())))
                    return (*_with_scale(num, atoms, qx * q, x._ctx.ring),
                            True)
        return a._num * b._num, a._den + b._den, False

    def __mul__(self, other):
        a, b = Coefficient._pair(self, other)
        if a.is_zero() or b.is_zero():
            return Coefficient(a._ctx.ring.zero, (), a._ctx)
        num, den, normal = Coefficient._product(a, b)
        if normal:
            return Coefficient(num, den, a._ctx)
        return Coefficient._make(num, den, a._ctx)

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs) -> "Coefficient":
        """The sum of a*b over pairs, normalized once.

        Each product keeps its numerator and its atom multiplicities
        unnormalized, as __mul__ forms them (a scalar operand scales the
        other numerator); the products are brought over the lcm of their
        denominators and only the total is trial-divided.  Equal to the
        pairwise sum, which normalizes every product and every partial
        sum.  A lone product is normalized as __mul__ normalizes it: not at
        all when an operand is a scalar.
        """
        ctx = registry.context()
        parts = []
        normal = True
        for a, b in pairs:
            if not (a and b):
                continue
            a, b = Coefficient._pair(a, b)
            num, den, scaled = Coefficient._product(a, b)
            normal = normal and scaled
            parts.append((num, den))
        if not parts:
            return Coefficient(ctx.ring.zero, (), ctx)
        if len(parts) == 1 and normal:
            return Coefficient(parts[0][0], parts[0][1], ctx)
        num, den = _over_common_denominator(parts)
        return Coefficient._make(num, den, ctx)

    def __truediv__(self, other):
        a, b = Coefficient._pair(self, other)
        if b.is_zero():
            raise DivisionByZero("division by zero Coefficient")
        # 1/b = den_product(b) / num(b)
        inv_num = b._den_product()
        return Coefficient._make(
            a._num * inv_num, list(a._den) + [(b._num, 1)], a._ctx
        )

    def __rtruediv__(self, other):
        a, b = Coefficient._pair(self, other)
        return b / a

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("Coefficient powers must be integers")
        if k == 0:
            return Coefficient.one()
        if k < 0:
            return Coefficient.one() / self ** (-k)
        r = self._refreshed()
        return Coefficient._make(
            r._num ** k, [(a, m * k) for a, m in r._den], r._ctx
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Coefficient, int, Fraction, GaussianRational)):
            return NotImplemented
        a, b = Coefficient._pair(self, other)
        if a._num == b._num and a._den == b._den:
            return True
        # cross-multiply: a - b over the lcm of the denominators
        return not _over_common_denominator(
            ((a._num, a._den), (-b._num, b._den))
        )[0]

    def __hash__(self):
        # only scalars hash structurally; field elements are not dict keys
        r = self._refreshed()
        if r.is_scalar():
            g = r.scalar()
            return hash((g.re, g.im))
        raise TypeError("non-scalar Coefficient is unhashable")

    def is_multiple_of(self, other: "Coefficient") -> bool:
        """Exact ideal membership: self lies in the ideal generated by other.

        Denominator atoms are invertible, so this reduces to polynomial
        divisibility of the numerators.
        """
        a, b = Coefficient._pair(self, other)
        if not b._num:
            return not a._num
        if not a._num or b._num.is_ground:
            return True
        return _exact_quotient(a._num, _primitive(b._num)[1]) is not None

    def numerator_normalized(self) -> "Coefficient":
        """Monic numerator with the denominator dropped: the canonical
        generator of the zero locus within the domain of definition."""
        r = self._refreshed()
        if not r._num:
            return Coefficient(r._ctx.ring.zero, (), r._ctx)
        return Coefficient._monic(r._num, r._ctx)

    def reduce_modulo(self, gens) -> "Coefficient":
        """Remainder of the numerator under multivariate division by the
        numerators of gens, taken in the given order.

        Denominator atoms are invertible, so replacing the numerator by
        its remainder is an equality modulo the ideal.  This is plain
        division, not a Groebner normal form: the remainder depends on
        the generator order and can be nonzero for ideal members.
        """
        r = self._refreshed()
        divisors = []
        for g in gens:
            if not isinstance(g, Coefficient):
                g = Coefficient.from_scalar(g)
            gr = g._refreshed()
            if gr._num:
                divisors.append(gr._num)
        if not r._num or not divisors:
            return r
        rem, scale = _remainder(r._num, divisors)
        den = list(r._den)
        if scale != _ONE:
            den.append((_ground(rem.ring, scale), 1))
        return Coefficient._make(rem, den, r._ctx)

    def numerator_terms(self) -> int:
        """Number of monomials in the numerator."""
        return len(self._refreshed()._num)

    def squarefree_numerator(self) -> "Coefficient":
        """Monic squarefree part of the numerator, denominator dropped.

        Repeated factors are collapsed (t^2 u -> t u), so the result cuts
        out the same locus as the original within its domain of
        definition; multi-factor content stays intact.

        The part is f / gcd(f, df/dx_1, ..., df/dx_k), taken in the
        polynomial ring over only the generators x_1..x_k that f contains:
        the gcd of polynomials in those generators is the same, up to a
        unit, in any wider ring, and the backing library's gcd costs time
        in every generator of the ring it runs in.  The gcd is taken over
        Z[i]; its primitive part divides f there (Gauss's lemma).
        """
        r = self._refreshed()
        num = r._num
        if not num:
            return Coefficient(r._ctx.ring.zero, (), r._ctx)
        if not num.is_ground:
            ring = num.ring
            used = sorted({i for m in num.keys() for i, e in enumerate(m) if e})
            sub = PolyRing([ring.symbols[i] for i in used], ring.domain,
                           ring.order)
            f = sub.from_dict(
                {tuple(m[i] for i in used): c for m, c in num.items()}
            )
            common = f
            for gen in sub.gens:
                common = common.gcd(f.diff(gen))
                if common.is_ground:
                    break
            if not common.is_ground:
                quo = _exact_quotient(f, _primitive(common)[1])
                num = num.new([
                    (_widen(m, used, ring.ngens), c) for m, c in quo.items()
                ])
        return Coefficient._monic(num, r._ctx)

    # -- involution, derivatives --------------------------------------------

    def conjugate(self) -> "Coefficient":
        r = self._refreshed()
        ctx = r._ctx
        num, shifts = _conj_poly(r._num, ctx)
        den: list = []
        extra = dict(shifts)
        for atom, mult in r._den:
            a_conj, a_shifts = _conj_poly(atom, ctx)
            den.append((a_conj, mult))
            # conj(1/atom^mult) multiplies the numerator by prod E^(shift*mult)
            for k, s in a_shifts.items():
                if s:
                    num = num * ctx.ring.gens[k] ** (s * mult)
        for k, s in extra.items():
            if s:
                den.append((ctx.ring.gens[k], s))
        return Coefficient._make(num, den, ctx)

    def _derive(self, derivation) -> "Coefficient":
        """Quotient rule for a derivation given as a map on polynomials;
        self must be current (refreshed).  The pieces are summed over one
        common denominator and normalized once."""
        ctx = self._ctx
        parts = [(derivation(self._num), self._den)]
        for atom, mult in self._den:
            da = derivation(atom)
            if da:
                parts.append(((da * self._num).mul_ground(_gauss(-mult, 0)),
                              self._den + ((atom, 1),)))
        num, den = _over_common_denominator(parts)
        return Coefficient._make(num, den, ctx)

    def diff(self, name: str) -> "Coefficient":
        """Partial derivative with every generator treated independently."""
        r = self._refreshed()
        if name not in r._ctx.index_of:
            return Coefficient.zero()
        gen = r._ctx.gen(name)
        return r._derive(lambda p: p.diff(gen))

    def param_derivative(self, name: str) -> "Coefficient":
        """Derivative along a distinguished real parameter (conj(t) = t).

        Complex parameters carry an independent conjugate generator, so a
        one-parameter curve derivative is only meaningful for REAL kind.
        """
        try:
            sym = registry.lookup(name)
        except KeyError:
            sym = None
        if sym is None or sym.kind != REAL:
            raise ValueError(f"{name!r} is not a registered real parameter")
        return self.diff(name)

    def euler(self, char_name: str) -> "Coefficient":
        """E * d/dE for a character generator (degree-preserving)."""
        r = self._refreshed()
        idx = r._ctx.index_of[char_name]
        return r._derive(lambda p: _poly_euler(p, idx, r._ctx.ring))

    # -- substitution ---------------------------------------------------------

    def substitute(self, bindings: dict):
        """Evaluate at bindings {symbol-name: value}.

        Binding a parameter automatically binds its conjugate partner with the
        conjugated value unless bound explicitly.  QuadraticSurd values force a
        full evaluation and return a QuadraticSurd.
        """
        r = self._refreshed()
        ctx = r._ctx
        resolved: dict[int, object] = {}
        surd_d: int | None = None
        items = list(bindings.items())
        for key, val in items:
            name = key if isinstance(key, str) else key.name
            sym = registry.lookup(name)
            idx = ctx.index_of[name]
            resolved[idx] = val
            if isinstance(val, QuadraticSurd):
                if surd_d is not None and surd_d != val.d:
                    raise MixedRadicals(
                        f"mixed radicals sqrt({surd_d}) and sqrt({val.d})"
                    )
                surd_d = val.d
            if sym.kind in (PARAM, CONJ):
                partner = ctx.index_of[sym.conjugate_of]
                if partner not in resolved and not any(
                    (k if isinstance(k, str) else k.name) == sym.conjugate_of
                    for k, _ in items
                ):
                    resolved[partner] = _conj_value(val)
            elif sym.kind == REAL:
                if not _value_is_real(val):
                    raise ValueError(f"real symbol {name!r} bound to non-real value")
            elif sym.kind == CHAR:
                if _value_is_zero(val):
                    raise DenominatorVanishes(f"character {name} bound to 0")
        if surd_d is not None:
            return r._substitute_surd(resolved, surd_d)
        return r._substitute_field(resolved)

    def _substitute_field(self, values: dict[int, object]) -> "Coefficient":
        ctx = self._ctx
        coeff_values = {
            i: (v if isinstance(v, Coefficient) else Coefficient.from_scalar(v))
            for i, v in values.items()
        }
        num = _eval_poly_field(self._num, ctx, coeff_values)
        out = num
        for atom, mult in self._den:
            a = _eval_poly_field(atom, ctx, coeff_values)
            if a.is_zero():
                raise DenominatorVanishes(_render_poly(atom, ctx, atom.LC))
            out = out / a ** mult
        return out

    def _substitute_surd(self, values: dict[int, object], d: int) -> QuadraticSurd:
        ctx = self._ctx
        needed = {
            idx
            for p in [self._num] + [a for a, _ in self._den]
            for monom in p.keys()
            for idx, e in enumerate(monom)
            if e
        }
        missing = needed - set(values)
        if missing:
            names = ", ".join(ctx.names[i] for i in sorted(missing))
            raise ValueError(f"surd substitution must bind all symbols; missing {names}")
        surd_values = {i: QuadraticSurd.of(v, d) for i, v in values.items()}
        num = _eval_poly_surd(self._num, ctx, surd_values, d)
        out = num
        for atom, mult in self._den:
            a = _eval_poly_surd(atom, ctx, surd_values, d)
            if a.is_zero():
                raise DenominatorVanishes(_render_poly(atom, ctx, atom.LC))
            for _ in range(mult):
                out = out / a
        return out

    # -- sector decomposition -------------------------------------------------

    def char_decompose(self) -> dict[tuple[int, ...], "Coefficient"]:
        """Split into character sectors: keys are exponent vectors, values
        the character-free parts.

        A denominator atom is character-free (kept), a bare character
        monomial (it shifts every key) or mixed, which raises SectorMixing.
        """
        r = self._refreshed()
        ctx = r._ctx
        chars = ctx.char_indices
        shift = [0] * len(chars)
        den = []
        for atom, mult in r._den:
            if not any(monom[i] for monom in atom.keys() for i in chars):
                den.append((atom, mult))
                continue
            monom = next(iter(atom.keys()))
            if len(atom) != 1 or any(
                e and not ctx.is_char(i) for i, e in enumerate(monom)
            ):
                raise SectorMixing(
                    f"denominator atom mixes characters with parameters: "
                    f"{_render_poly(atom, ctx, atom.LC)}"
                )
            for k, i in enumerate(chars):
                shift[k] -= monom[i] * mult
        buckets: dict[tuple[int, ...], dict] = {}
        for monom, c in r._num.items():
            key = tuple(monom[i] + s for i, s in zip(chars, shift))
            stripped = tuple(
                0 if i in chars else e for i, e in enumerate(monom)
            )
            buckets.setdefault(key, {})[stripped] = c
        return {
            key: Coefficient._make(ctx.ring.from_dict(terms), den, ctx)
            for key, terms in buckets.items()
        }

    # -- rendering --------------------------------------------------------------

    def render(self) -> str:
        """The value over Q(i): the numerator divided by q and by the
        atoms' leading coefficients, over the monic atoms."""
        r = self._refreshed()
        if r.is_zero():
            return "0"
        atoms, q = _split_scale(r._den)
        scale = _gauss(q, 0)
        for atom, mult in atoms:
            scale = scale * atom.LC ** mult
        num = _render_poly(r._num, r._ctx, scale)
        if not atoms:
            return num
        dens = []
        for atom, mult in atoms:
            text = _render_poly(atom, r._ctx, atom.LC)
            if len(atom) > 1 or mult > 1:
                text = f"({text})"
            dens.append(text if mult == 1 else f"{text}^{mult}")
        den = "*".join(dens) if len(dens) == 1 else "(" + "*".join(dens) + ")"
        if len(r._num) > 1:
            num = f"({num})"
        return f"{num}/{den}"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Coefficient({self.render()})"

    def numeric(self, point: dict[str, complex]) -> complex:
        """Float evaluation at a sample point, for numeric cross-checks."""
        r = self._refreshed()
        ctx = r._ctx

        def ev(p):
            total = 0j
            for monom, c in p.items():
                v = complex(c.x, c.y)
                for idx, e in enumerate(monom):
                    if e:
                        v *= point[ctx.names[idx]] ** e
                total += v
            return total

        out = ev(r._num)
        for atom, mult in r._den:
            out /= ev(atom) ** mult
        return out


def _conj_value(val):
    if isinstance(val, Coefficient):
        return val.conjugate()
    if isinstance(val, (QuadraticSurd, GaussianRational)):
        return val.conjugate()
    if isinstance(val, (int, Fraction)):
        return val
    raise TypeError(f"cannot conjugate binding value {type(val).__name__}")


def _value_is_real(val) -> bool:
    if isinstance(val, (int, Fraction)):
        return True
    if isinstance(val, GaussianRational):
        return val.im == 0
    if isinstance(val, QuadraticSurd):
        return val.is_rational_real()
    if isinstance(val, Coefficient):
        return val == val.conjugate()
    return False


def _value_is_zero(val) -> bool:
    if isinstance(val, Coefficient):
        return val.is_zero()
    if isinstance(val, (QuadraticSurd, GaussianRational)):
        return val.is_zero()
    return val == 0


def _eval_poly_field(p, ctx, values: dict[int, Coefficient]) -> Coefficient:
    powers: dict[tuple[int, int], Coefficient] = {}

    def power(idx: int, e: int) -> Coefficient:
        key = (idx, e)
        got = powers.get(key)
        if got is None:
            base = values.get(idx)
            if base is None:
                base = Coefficient.symbol(ctx.names[idx])
                values[idx] = base
            got = base ** e
            powers[key] = got
        return got

    pairs = []
    for monom, c in p.items():
        term = Coefficient.one()
        for idx, e in enumerate(monom):
            if e:
                term = term * power(idx, e)
        pairs.append((Coefficient(_ground(ctx.ring, c), (), ctx), term))
    return Coefficient.sum_of_products(pairs)


def _eval_poly_surd(p, ctx, values: dict[int, QuadraticSurd], d: int) -> QuadraticSurd:
    total = QuadraticSurd.of(0, d)
    for monom, c in p.items():
        term = QuadraticSurd.of(_over(c), d)
        for idx, e in enumerate(monom):
            if e:
                v = values[idx]
                for _ in range(e):
                    term = term * v
        total = total + term
    return total


def _render_monom(monom, ctx) -> str:
    parts = []
    for idx, e in enumerate(monom):
        if not e:
            continue
        sym = ctx.symbols[idx]
        base = f"conj({sym.conjugate_of})" if sym.kind == CONJ else sym.name
        parts.append(base if e == 1 else f"{base}^{e}")
    return "*".join(parts)


def _render_poly(p, ctx, scale=_ONE) -> str:
    """p / scale over Q(i), for a nonzero Gaussian integer scale."""
    if not p:
        return "0"
    pieces = []
    for monom, c in p.terms():
        g = _over(c, scale)
        m = _render_monom(monom, ctx)
        if not m:
            text = g.render()
        elif g.re == 1 and g.im == 0:
            text = m
        elif g.re == -1 and g.im == 0:
            text = f"-{m}"
        else:
            text = f"{g.render()}*{m}"
        pieces.append(text)
    out = pieces[0]
    for piece in pieces[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def normalized_generators(coefficients) -> tuple[Coefficient, ...]:
    """Monic numerators of the coefficients, deduplicated in first-seen
    order: generators of the locus where all of them vanish."""
    gens: list[Coefficient] = []
    for c in coefficients:
        g = c.numerator_normalized()
        if not any(g == seen for seen in gens):
            gens.append(g)
    return tuple(gens)
