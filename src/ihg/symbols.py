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

Other modules ask this one what a symbol stands for: base_name and
base_names give the parameter behind a symbol, require_real checks a real
parameter, with_partners binds each bound parameter's partner to the
conjugate value, and the ensure_* methods register a symbol of one kind, a
parameter together with its partner, in one step.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cache

from sympy.polys.monomials import MonomialOps
from sympy.polys.orderings import grlex

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


@cache
def _monomial_ops(width: int):
    """(monomial_mul, monomial_div) on exponent tuples of the given width:
    sympy's generated functions, or, with no generator, the constant ()."""
    if not width:
        return (lambda a, b: ()), (lambda a, b: ())
    ops = MonomialOps(width)
    return ops.mul(), ops.div()


class RingContext:
    """Immutable snapshot of the registry, with the monomial arithmetic of
    polynomials over its symbols.

    A monomial is a tuple of exponents, one per symbol in registration
    order; with no symbol registered it is ().  monomial_mul adds two
    monomials, monomial_div subtracts them or gives None when the second
    does not divide the first, and order is the grlex key.  The
    coefficient layer keeps the polynomials themselves.  Contexts of one
    lifetime are prefixes of each other, so a value lifts into a later
    context of its lifetime by padding exponents.
    """

    def __init__(self, symbols: tuple[ParameterSymbol, ...], lifetime: object):
        self.symbols = symbols
        self.lifetime = lifetime
        names = tuple(s.name for s in symbols)
        self.names = names
        self.zero_monom = (0,) * len(names)
        self.monomial_mul, self.monomial_div = _monomial_ops(len(names))
        self.order = grlex
        # how render() shows each generator
        self.display_names = tuple(
            f"conj({s.conjugate_of})" if s.kind == CONJ else s.name
            for s in symbols
        )
        self.index_of = {s.name: s.index for s in symbols}
        # conj_perm[i] = index whose exponent receives gen i's exponent under
        # conjugation; characters map to themselves (exponent negation is
        # handled by the fraction layer).
        perm = []
        for s in symbols:
            if s.kind in (PARAM, CONJ):
                perm.append(self.index_of[s.conjugate_of])
            else:
                perm.append(s.index)
        self.conj_perm = tuple(perm)
        self.char_indices = tuple(s.index for s in symbols if s.kind == CHAR)

    def is_char(self, idx: int) -> bool:
        return self.symbols[idx].kind == CHAR


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
        without its partner and threads ensuring one new name all get the
        same symbols."""
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
