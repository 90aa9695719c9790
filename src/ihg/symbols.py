"""Symbol registry for the coefficient field.

Four kinds of generators:
  * param           a complex parameter t with a formal conjugate partner
  * conj-param      the partner symbol (t paired bijectively with conj t)
  * real            a self-conjugate parameter (curve time, metric entries)
  * char            a multiplicative character generator E; conj(E) = 1/E

The registry is process-global and append-only between resets; its
snapshot, the ring context that Coefficient arithmetic runs in, is rebuilt
lazily whenever new symbols appear, and existing values lift into the
extended context on demand.  reset() starts a new lifetime: every ring
context records the lifetime it was built in, and a value from an earlier
lifetime is stale.

A context also fixes the layout of packed monomials: each exponent vector
is one int, the total degree on top of one guarded field per symbol, so a
monomial product is one addition, a grlex comparison one int comparison and
a divisibility test one subtraction and a mask test (Monagan-Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", 2007).  Every exponent is at most the total degree, so one
degree bound, MAX_DEGREE, keeps every field below its guard bit.  This
module imports no sympy.

Other modules ask this one what a symbol stands for: base_name and
base_names give the parameter behind a symbol, require_real checks a real
parameter, with_partners binds each bound parameter's partner to the
conjugate value, and the ensure_* methods register a symbol of one kind, a
parameter together with its partner, in one step.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

PARAM = "parameter"
CONJ = "conjugate-parameter"
REAL = "real"
CHAR = "character"


@dataclass(frozen=True)
class ParameterSymbol:
    name: str
    kind: str
    conjugate_of: str | None
    index: int

    def __repr__(self) -> str:
        return f"ParameterSymbol({self.name!r}, {self.kind})"


FIELD_BITS = 16
# the largest total degree of a monomial: every exponent is at most the
# total degree, so below this bound no field reaches its guard bit
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1


class DegreeOverflow(ArithmeticError):
    """A monomial's total degree passed MAX_DEGREE, the largest exponent a
    packed field holds."""


def check_degree(degree: int) -> None:
    """Refuse a total degree above MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise DegreeOverflow(f"total degree {degree} exceeds {MAX_DEGREE}")


class RingContext:
    """Immutable snapshot of the registry, with the layout of the packed
    monomials of polynomials over its symbols.

    A monomial is one non-negative int: its total degree in the top field,
    above one FIELD_BITS-wide field per symbol, in registration order with
    symbol 0 the most significant, each with a guard bit on top that a
    valid monomial leaves clear.  Int order is then grlex order, a product
    of monomials is their sum, and a divides b exactly when the guard bits
    of b - a are clear.  The exponent of symbol i is (m >> shifts[i]) &
    field_mask, gens[i] is the monomial of symbol i and 0 the constant
    monomial.  A total degree above MAX_DEGREE is refused with
    DegreeOverflow, never carried into a neighbouring field.

    A parameter and its partner sit in adjacent fields, the parameter
    above, so conjugation swaps the fields of param_mask and partner_mask
    by two masked shifts.  render gives a monomial's text, memoized per
    context.  The coefficient layer keeps the polynomials
    themselves.  Contexts of one lifetime are prefixes of each other, so a
    value lifts into a later context of its lifetime by shifting each
    monomial left by the difference of their deg_shift.
    """

    def __init__(self, symbols: tuple[ParameterSymbol, ...], lifetime: object):
        names = tuple(s.name for s in symbols)
        width = len(names)
        for s in symbols:
            if s.kind == PARAM and (s.index + 1 == width
                                    or names[s.index + 1] != s.conjugate_of):
                raise ValueError(f"partner of {s.name!r} is not the next symbol")
        self.symbols = symbols
        self.lifetime = lifetime
        self.names = names
        self.shifts = tuple((width - 1 - i) * FIELD_BITS for i in range(width))
        self.deg_shift = width * FIELD_BITS
        self.field_mask = (1 << FIELD_BITS) - 1
        self.gens = tuple((1 << self.deg_shift) | (1 << s) for s in self.shifts)
        self.guard_mask = sum(1 << (s + FIELD_BITS - 1) for s in self.shifts)
        # how render() shows each generator
        self.display_names = tuple(
            f"conj({s.conjugate_of})" if s.kind == CONJ else s.name
            for s in symbols
        )
        self._texts: dict[int, str] = {}
        self.index_of = {s.name: s.index for s in symbols}
        self.char_indices = tuple(s.index for s in symbols if s.kind == CHAR)

        def fields(kind):
            return sum(self.field_mask << self.shifts[s.index]
                       for s in symbols if s.kind == kind)

        self.char_mask = fields(CHAR)
        self.param_mask = fields(PARAM)
        self.partner_mask = fields(CONJ)

    def pack(self, exponents) -> int:
        """The monomial with these exponents, one per symbol."""
        degree = sum(exponents)
        check_degree(degree)
        m = degree << self.deg_shift
        for s, e in zip(self.shifts, exponents):
            m |= e << s
        return m

    def unpack(self, m: int) -> tuple[int, ...]:
        """The exponents of the monomial m, one per symbol."""
        field = self.field_mask
        return tuple((m >> s) & field for s in self.shifts)

    def exponents(self, m: int) -> list[tuple[int, int]]:
        """(position, exponent) of each symbol in the monomial m, in
        registration order, found from the top set bit down."""
        rest = m & ((1 << self.deg_shift) - 1)
        top = len(self.shifts) - 1
        out = []
        while rest:
            i = top - (rest.bit_length() - 1) // FIELD_BITS
            s = self.shifts[i]
            out.append((i, rest >> s))
            rest &= (1 << s) - 1
        return out

    def render(self, m: int) -> str:
        """The text of the monomial m, "" for the constant monomial; each
        monomial is decoded once per context."""
        text = self._texts.get(m)
        if text is None:
            names = self.display_names
            text = self._texts[m] = "*".join([
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in self.exponents(m)
            ])
        return text

    def swap(self, m: int) -> int:
        """m with each parameter's exponent exchanged with its partner's."""
        pm, cm = self.param_mask, self.partner_mask
        return ((m & pm) >> FIELD_BITS) | ((m & cm) << FIELD_BITS) | (m & ~(pm | cm))


class _Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self._symbols: list[ParameterSymbol] = []
        self._by_name: dict[str, ParameterSymbol] = {}
        self._context: RingContext | None = None
        self._lifetime = object()

    def reset(self) -> None:
        with self._lock:
            self._symbols.clear()
            self._by_name.clear()
            self._context = None
            self._lifetime = object()

    def _add(self, name: str, kind: str, conjugate_of: str | None) -> ParameterSymbol:
        if not name.isidentifier():
            raise ValueError(f"symbol name must be an identifier: {name!r}")
        if name in self._by_name:
            raise ValueError(f"symbol already registered: {name!r}")
        sym = ParameterSymbol(name, kind, conjugate_of, len(self._symbols))
        self._symbols.append(sym)
        self._by_name[name] = sym
        self._context = None
        return sym

    def _ensure(self, name: str, kind: str) -> tuple[ParameterSymbol, ...]:
        """The symbol name of the given kind, with its conjugate partner
        name + "_c" for a parameter, registered if new.  Checked and added
        under one hold of the lock, so a parameter is never registered
        without its partner, whose field is the next one (RingContext
        conjugates by swapping the two), and threads ensuring one new name
        all get the same symbols."""
        with self._lock:
            sym = self._by_name.get(name)
            if sym is not None:
                if sym.kind != kind:
                    raise ValueError(f"{name!r} already registered as {sym.kind}")
                if kind != PARAM:
                    return (sym,)
                return sym, self._by_name[sym.conjugate_of]
            if kind != PARAM:
                return (self._add(name, kind, None),)
            partner = name + "_c"
            if partner in self._by_name:
                raise ValueError(f"symbol already registered: {partner!r}")
            return self._add(name, PARAM, partner), self._add(partner, CONJ, name)

    def lookup(self, name: str) -> ParameterSymbol:
        sym = self._by_name.get(name)
        if sym is None:
            raise KeyError(f"unknown symbol: {name!r}")
        return sym

    def require_real(self, name: str) -> ParameterSymbol:
        sym = self._by_name.get(name)
        if sym is None or sym.kind != REAL:
            raise ValueError(f"{name!r} is not a registered real parameter")
        return sym

    def ensure_pair(self, name: str) -> tuple[ParameterSymbol, ParameterSymbol]:
        """A complex parameter and its conjugate partner, named name + "_c"."""
        return self._ensure(name, PARAM)

    def ensure_real(self, name: str) -> ParameterSymbol:
        return self._ensure(name, REAL)[0]

    def ensure_char(self, name: str) -> ParameterSymbol:
        return self._ensure(name, CHAR)[0]

    def context(self) -> RingContext:
        # a built context is immutable: read it without the lock, which
        # only guards building one
        ctx = self._context
        if ctx is not None:
            return ctx
        with self._lock:
            if self._context is None:
                self._context = RingContext(
                    tuple(self._symbols), self._lifetime
                )
            return self._context


registry = _Registry()


def conjugate_name(name: str) -> str:
    sym = registry.lookup(name)
    if sym.kind in (PARAM, CONJ):
        return sym.conjugate_of
    return name


def base_name(name: str) -> str | None:
    """The parameter a symbol stands for: a conjugate stands for its
    partner, a character for none, any other symbol for itself."""
    sym = registry.lookup(name)
    if sym.kind == CONJ:
        return sym.conjugate_of
    return None if sym.kind == CHAR else name


def with_partners(bindings) -> dict:
    """Bindings {name or symbol: value} keyed by name, with each complex
    parameter's partner bound to value.conjugate() unless the partner is
    bound explicitly.  Every key must be a registered symbol."""
    named = {k if isinstance(k, str) else k.name: v for k, v in bindings.items()}
    out = dict(named)
    for nm, val in named.items():
        partner = registry.lookup(nm).conjugate_of
        if partner is not None and partner not in named:
            out[partner] = val.conjugate()
    return out


def base_names(coefficients) -> list[str]:
    """Sorted names of the parameters and reals the coefficients use."""
    names = {nm for c in coefficients for nm in c.free_symbols()}
    return sorted({base_name(nm) for nm in names} - {None})
