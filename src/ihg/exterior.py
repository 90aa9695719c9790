"""Sparse bigraded exterior algebra on an invariant coframe.

Monomials are pairs of strictly increasing 1-based index tuples (holomorphic
block, antiholomorphic block); the canonical factor order is the holomorphic
block first.  Signs from reordering are absorbed into coefficients, so a form
is a dict from canonical monomials to field elements with no stored zeros.

A sum of forms is formed in one place, Form.combination: it gathers the
products landing on each monomial and sums them with one
Coefficient.sum_of_products, so each output coefficient is normalized once.
The wedge product and VectorForm.iota gather their term products the same
way; + and - merge two forms.

A coframe substitution is a CoframeMap, whose table builds the image of
each monomial once.  Wedge powers of a pure (1,1)-form read their
coefficients off one such map: the coefficients of omega^k are k x k
minors of omega's coefficient matrix (compound matrices, Cauchy-Binet),
so omega^n is n! times its determinant times the volume monomial, up to
the sign of moving the holomorphic block first.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import Callable, Iterable, Iterator, NamedTuple

from .coefficients import Coefficient


def sort_signed(seq: Iterable[int]) -> tuple[tuple[int, ...] | None, int]:
    """Sort indices counting swap parity; a repeated index kills the term."""
    lst = list(seq)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and lst[j - 1] == lst[j]:
            return None, 0
    return tuple(lst), sign


class MultiIndex(NamedTuple):
    """A coframe monomial: the holomorphic and the antiholomorphic index
    block.  A tuple, so hashing and equality run in C."""

    holo: tuple[int, ...]
    anti: tuple[int, ...]

    @property
    def bidegree(self) -> tuple[int, int]:
        return len(self.holo), len(self.anti)

    @property
    def degree(self) -> int:
        return len(self.holo) + len(self.anti)

    def render(self) -> str:
        h = ",".join(map(str, self.holo))
        a = ",".join(map(str, self.anti))
        if a:
            return f"phi[{h}|{a}]" if h else f"phi[|{a}]"
        return f"phi[{h}]" if h else "1"

    def __str__(self) -> str:
        return self.render()


SCALAR = MultiIndex((), ())


def _merge(a: MultiIndex, b: MultiIndex) -> tuple[MultiIndex | None, int]:
    holo, s1 = sort_signed(a.holo + b.holo)
    if s1 == 0:
        return None, 0
    anti, s2 = sort_signed(a.anti + b.anti)
    if s2 == 0:
        return None, 0
    # b's holomorphic block crosses a's antiholomorphic block
    cross = -1 if (len(b.holo) * len(a.anti)) % 2 else 1
    return MultiIndex(holo, anti), s1 * s2 * cross


def _as_coeff(x) -> Coefficient:
    if isinstance(x, Coefficient):
        return x
    return Coefficient.from_scalar(x)


class Form:
    """Invariant form: finite sum of coefficient * monomial."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[MultiIndex, Coefficient] | None = None):
        clean: dict[MultiIndex, Coefficient] = {}
        if terms:
            for mi, c in terms.items():
                if not c.is_zero():
                    clean[mi] = c  # do not store 0-values
        self._terms = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Form":
        return Form()

    @staticmethod
    def monomial(holo: Iterable[int] = (), anti: Iterable[int] = (), coeff=1) -> "Form":
        h, s1 = sort_signed(holo)
        if s1 == 0:
            return Form()
        a, s2 = sort_signed(anti)
        if s2 == 0:
            return Form()
        c = _as_coeff(coeff)
        return Form({MultiIndex(h, a): c if s1 == s2 else -c})

    @staticmethod
    def scalar(coeff) -> "Form":
        return Form({SCALAR: _as_coeff(coeff)})

    # -- views --------------------------------------------------------------

    def terms(self) -> Iterator[tuple[MultiIndex, Coefficient]]:
        return iter(self._terms.items())

    def monomials(self) -> list[MultiIndex]:
        return sorted(self._terms, key=lambda m: (m.degree, m.holo, m.anti))

    def coeff(self, holo: Iterable[int] = (), anti: Iterable[int] = ()) -> Coefficient:
        mi = MultiIndex(tuple(holo), tuple(anti))
        return self._terms.get(mi, Coefficient.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def bidegrees(self) -> set[tuple[int, int]]:
        return {mi.bidegree for mi in self._terms}

    def component(self, p: int, q: int) -> "Form":
        return Form(
            {mi: c for mi, c in self._terms.items() if mi.bidegree == (p, q)}
        )

    def components(self) -> dict[tuple[int, int], "Form"]:
        out: dict[tuple[int, int], dict] = {}
        for mi, c in self._terms.items():
            out.setdefault(mi.bidegree, {})[mi] = c
        return {pq: Form(t) for pq, t in out.items()}

    def is_pure(self, p: int, q: int) -> bool:
        return all(mi.bidegree == (p, q) for mi in self._terms)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        out = dict(self._terms)
        for mi, c in other._terms.items():
            if mi in out:
                s = out[mi] + c
                if s.is_zero():
                    del out[mi]
                else:
                    out[mi] = s
            else:
                out[mi] = c
        f = Form.__new__(Form)
        f._terms = out
        return f

    def __neg__(self) -> "Form":
        f = Form.__new__(Form)
        f._terms = {mi: -c for mi, c in self._terms.items()}
        return f

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, scalar) -> "Form":
        c = _as_coeff(scalar)
        if c.is_zero():
            return Form()
        f = Form.__new__(Form)
        f._terms = {mi: v * c for mi, v in self._terms.items()}
        return f

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Form":
        return self * (Coefficient.one() / _as_coeff(scalar))

    def wedge(self, other: "Form") -> "Form":
        return _collect(_wedge_terms(self, other))

    @staticmethod
    def combination(pairs) -> "Form":
        """The sum of f*c over pairs of a form f and a coefficient c, with
        each output coefficient normalized once."""
        return _collect(
            (mi, v, c) for f, c in pairs for mi, v in f._terms.items()
        )

    def wedge_power(self, k: int) -> "Form":
        """self^k.  A pure (1,1)-form omega = sum_j phi^j ^ beta_j, with
        beta_j = sum_l c_jl phi^{lbar}, has

            omega^k = k! (-1)^(k(k-1)/2) sum_{|I|=k} phi^I ^ B(phi^{Ibar}),

        where B is the CoframeMap sending phi^{jbar} to beta_j: each
        coefficient is one k x k minor of (c_jl), built once by the map's
        Laplace chain.  I runs over the indices j with beta_j nonzero, the
        rows of B.  Any other form is wedged with itself k times."""
        if k < 0:
            raise ValueError("negative wedge power")
        if not self.is_pure(1, 1):
            return wedge(*[self] * k)
        rows: dict[int, dict[MultiIndex, Coefficient]] = {}
        for mi, c in self._terms.items():
            rows.setdefault(mi.holo[0], {})[MultiIndex((), mi.anti)] = c
        minors = CoframeMap({("a", j): Form(row) for j, row in rows.items()})
        scale = _as_coeff(factorial(k) * (-1) ** (k * (k - 1) // 2))
        # phi^I ^ phi^{Jbar} is canonical, and distinct (I, J) are distinct
        # monomials: nothing to sum
        return Form({
            MultiIndex(holo, mj.anti): c * scale
            for holo in combinations(sorted(rows), k)
            for mj, c in minors.image(MultiIndex((), holo)).terms()
        })

    def conjugate(self) -> "Form":
        out: dict[MultiIndex, Coefficient] = {}
        for mi, c in self._terms.items():
            p, q = mi.bidegree
            c = c.conjugate()
            out[MultiIndex(mi.anti, mi.holo)] = -c if (p * q) % 2 else c
        return Form(out)

    def map_coefficients(self, fn: Callable[[Coefficient], Coefficient]) -> "Form":
        return Form({mi: fn(c) for mi, c in self._terms.items()})

    def param_derivative(self, name: str) -> "Form":
        """Coefficient-wise derivative along a real parameter."""
        return self.map_coefficients(lambda c: c.param_derivative(name))

    def substitute(self, bindings: dict) -> "Form":
        """Coefficient-wise substitute, the point prepared once."""
        if not self._terms:
            return self
        return self.map_coefficients(Coefficient._point(bindings))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("forms are unhashable")

    # -- contractions and coframe substitution -------------------------------

    def contract_holo(self, a: int) -> "Form":
        """Interior product with the a-th holomorphic frame vector."""
        # distinct monomials contract to distinct monomials: nothing to sum
        out: dict[MultiIndex, Coefficient] = {}
        for mi, c in self._terms.items():
            if a in mi.holo:
                k = mi.holo.index(a)
                rest = MultiIndex(mi.holo[:k] + mi.holo[k + 1:], mi.anti)
                out[rest] = -c if k % 2 else c
        return Form(out)

    def contract_anti(self, a: int) -> "Form":
        """Interior product with the conjugate of the a-th frame vector."""
        out: dict[MultiIndex, Coefficient] = {}
        for mi, c in self._terms.items():
            if a in mi.anti:
                k = mi.anti.index(a)
                rest = MultiIndex(mi.holo, mi.anti[:k] + mi.anti[k + 1:])
                out[rest] = -c if (len(mi.holo) + k) % 2 else c
        return Form(out)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for mi in self.monomials():
            c = self._terms[mi]
            text = c.render()
            if mi is not SCALAR and mi.degree:
                if text == "1":
                    text = mi.render()
                elif text == "-1":
                    text = f"-{mi.render()}"
                else:
                    if "+" in text or (text.count("-") - text.startswith("-")) > 0:
                        text = f"({text})"
                    text = f"{text}*{mi.render()}"
            pieces.append(text)
        out = pieces[0]
        for p in pieces[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Form({self.render()})"


class CoframeMap:
    """The algebra map induced by a coframe substitution, with a lazily
    filled table of monomial images.

    rows sends ('h', i) and ('a', i) to the image of the i-th
    holomorphic / antiholomorphic coframe element; missing entries keep
    the element fixed.  The image of a coframe element is its row, and the
    image of a longer monomial is the image of its prefix wedged with the
    row of its last factor, in canonical factor order; each is built once
    and kept for the map's lifetime.  A form c*m maps to c*image(m), so
    coefficients enter after the wedge chain, not through it, and the
    image of a form is one Form.combination of the images of its
    monomials, which normalizes each output coefficient once.
    """

    __slots__ = ("rows", "_images")

    def __init__(self, rows: dict[tuple[str, int], Form]):
        self.rows = dict(rows)
        self._images: dict[MultiIndex, Form] = {SCALAR: Form.scalar(1)}

    def image(self, mi: MultiIndex) -> Form:
        """The image of one coframe monomial."""
        img = self._images.get(mi)
        if img is not None:
            return img
        if mi.anti:
            key, fixed = ("a", mi.anti[-1]), MultiIndex((), mi.anti[-1:])
            prefix = MultiIndex(mi.holo, mi.anti[:-1])
        else:
            key, fixed = ("h", mi.holo[-1]), MultiIndex(mi.holo[-1:], ())
            prefix = MultiIndex(mi.holo[:-1], ())
        row = self.rows.get(key)
        if row is None:
            row = Form({fixed: Coefficient.one()})
        img = self.image(prefix).wedge(row) if prefix != SCALAR else row
        self._images[mi] = img
        return img

    def apply(self, form: Form) -> Form:
        """The image of a form: the sum of c*image(m) over its terms c*m.
        The image of a lone monomial with coefficient 1 is the stored one,
        as forms are immutable."""
        if len(form._terms) == 1:
            ((mi, c),) = form._terms.items()
            if c.is_one():
                return self.image(mi)
        return Form.combination(
            (self.image(mi), c) for mi, c in form.terms()
        )


def _wedge_terms(f: Form, g: Form):
    """The term products of f^g as (monomial, a, b) triples, signs folded
    into a."""
    for m1, c1 in f._terms.items():
        for m2, c2 in g._terms.items():
            mi, sign = _merge(m1, m2)
            if sign:
                yield mi, (c1 if sign > 0 else -c1), c2


def _collect(triples) -> Form:
    """The form sum of a*b*m over (m, a, b) triples: the products on each
    monomial go through one Coefficient.sum_of_products."""
    gathered: dict[MultiIndex, list] = {}
    for mi, a, b in triples:
        gathered.setdefault(mi, []).append((a, b))
    return Form({
        mi: Coefficient.sum_of_products(pairs)
        for mi, pairs in gathered.items()
    })


def wedge(*forms: Form) -> Form:
    out = Form.scalar(1)
    for f in forms:
        out = out.wedge(f)
    return out


class VectorForm:
    """Form with values in the holomorphic frame: components[a] is the form
    paired with frame vector Z_a."""

    __slots__ = ("components",)

    def __init__(self, components: dict[int, Form] | None = None):
        clean = {}
        if components:
            for a, f in components.items():
                if not f.is_zero():
                    clean[a] = f
        self.components = clean

    @staticmethod
    def zero() -> "VectorForm":
        return VectorForm()

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "VectorForm") -> "VectorForm":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        out = dict(self.components)
        for a, f in other.components.items():
            out[a] = out.get(a, Form()) + f
        return VectorForm(out)

    def __neg__(self) -> "VectorForm":
        return self.map_forms(lambda f: -f)

    def __sub__(self, other: "VectorForm") -> "VectorForm":
        return self + (-other)

    def __mul__(self, scalar) -> "VectorForm":
        return self.map_forms(lambda f: f * scalar)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorForm):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("vector forms are unhashable")

    def iota(self, sigma: Form) -> Form:
        """Derivation: sum over frame legs of (form leg) wedge (contraction)."""
        return _collect(
            term
            for a, eta in self.components.items()
            for term in _wedge_terms(eta, sigma.contract_holo(a))
        )

    def map_forms(self, fn: Callable[[Form], Form]) -> "VectorForm":
        return VectorForm({a: fn(f) for a, f in self.components.items()})

    def map_coefficients(self,
                         fn: Callable[[Coefficient], Coefficient]) -> "VectorForm":
        return self.map_forms(lambda f: f.map_coefficients(fn))

    def substitute(self, bindings: dict) -> "VectorForm":
        """Coefficient-wise substitute, the point prepared once for all
        legs."""
        if not self.components:
            return self
        return self.map_coefficients(Coefficient._point(bindings))

    def param_derivative(self, name: str) -> "VectorForm":
        return self.map_forms(lambda f: f.param_derivative(name))

    def render(self) -> str:
        if not self.components:
            return "0"
        return " + ".join(
            f"({self.components[a].render()}) (x) Z{a}"
            for a in sorted(self.components)
        )

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"VectorForm({self.render()})"
