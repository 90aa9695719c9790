"""Finite-dimensional cohomology of the invariant complex.

d preserves the character exponent vector, so the complex splits into
sectors indexed by those vectors; each sector with fixed bidegree is a
finite monomial space over the parameter-rational field and everything
reduces to exact linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .coefficients import Coefficient, SectorMixing
from .exterior import Form, MultiIndex
from .geometry import Geometry
from .symbols import registry


def monomial_basis(n: int, p: int, q: int) -> list[MultiIndex]:
    if p < 0 or q < 0 or p > n or q > n:
        return []
    return [
        MultiIndex(h, a)
        for h in combinations(range(1, n + 1), p)
        for a in combinations(range(1, n + 1), q)
    ]


def char_sector_names() -> list[str]:
    ctx = registry.context()
    return [ctx.names[i] for i in ctx.char_indices]


class SectorComplex:
    """One character sector of a geometry's invariant form complex."""

    def __init__(self, geom: Geometry, sector: tuple[int, ...] | None = None):
        names = char_sector_names()
        if sector is None:
            sector = tuple(0 for _ in names)
        if len(sector) != len(names):
            raise ValueError(
                f"sector needs {len(names)} exponents, got {len(sector)}"
            )
        self.geom = geom
        self.sector = tuple(sector)
        self._names = names
        prefix = Coefficient.one()
        for nm, e in zip(names, sector):
            if e:
                prefix = prefix * Coefficient.symbol(nm) ** e
        self._prefix = prefix

    def basis(self, p: int, q: int) -> list[MultiIndex]:
        return monomial_basis(self.geom.n, p, q)

    def embed(self, mi: MultiIndex) -> Form:
        return Form({mi: self._prefix})

    def vector_to_form(self, vec, p: int, q: int) -> Form:
        out = Form.zero()
        for mi, c in zip(self.basis(p, q), vec):
            if not c.is_zero():
                out = out + Form({mi: c * self._prefix})
        return out

    def to_vector(self, form: Form, p: int, q: int):
        index = {mi: k for k, mi in enumerate(self.basis(p, q))}
        vec = [Coefficient.zero() for _ in index]
        for mi, c in form.terms():
            if mi not in index:
                raise ValueError(
                    f"monomial {mi.render()} is not of bidegree ({p},{q})"
                )
            parts = c.char_decompose()
            for key, value in parts.items():
                if key != self.sector:
                    raise SectorMixing(
                        f"coefficient of {mi.render()} lives in sector "
                        f"{key}, expected {self.sector}"
                    )
                vec[index[mi]] = value
        return vec

    def matrix(self, op, p: int, q: int, dp: int, dq: int) -> linalg.Matrix:
        src = self.basis(p, q)
        dst_p, dst_q = p + dp, q + dq
        dst = self.basis(dst_p, dst_q)
        cols = [
            self.to_vector(op(self.embed(mi)), dst_p, dst_q) for mi in src
        ]
        return [
            [cols[j][i] for j in range(len(src))] for i in range(len(dst))
        ]


@dataclass(frozen=True)
class BottChernClass:
    sector: tuple[int, ...]
    representative: Form
    coords: tuple[Coefficient, ...]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)


class BottChernSector:
    """H^{p,q} of ker(del) ∩ ker(dbar) modulo im(del dbar) in one sector."""

    def __init__(self, geom: Geometry, p: int, q: int,
                 sector: tuple[int, ...] | None = None):
        self.complex = SectorComplex(geom, sector)
        self.geom = geom
        self.p = p
        self.q = q
        cx = self.complex
        self._del = cx.matrix(geom.del_op, p, q, 1, 0)
        self._dbar = cx.matrix(geom.dbar, p, q, 0, 1)
        both = self._del + self._dbar
        dim = len(cx.basis(p, q))
        if both:
            kernel = linalg.nullspace(both)
        else:
            kernel = linalg.nullspace([[Coefficient.zero()] * dim])
        image_matrix = cx.matrix(geom.ddbar, p - 1, q - 1, 1, 1)
        image_cols = (
            [list(col) for col in zip(*image_matrix)] if image_matrix else []
        )
        self.image = linalg.extend_to_basis([], image_cols)
        self.quotient = linalg.extend_to_basis(self.image, kernel)

    @property
    def dimension(self) -> int:
        return len(self.quotient)

    def basis_forms(self) -> list[Form]:
        return [
            self.complex.vector_to_form(v, self.p, self.q)
            for v in self.quotient
        ]

    def is_closed(self, form: Form) -> bool:
        return all(part.is_zero() for part in self.geom.d_split(form))

    def class_of(self, form: Form) -> BottChernClass:
        if not self.is_closed(form):
            raise ValueError("form is not closed under del and dbar")
        v = self.complex.to_vector(form, self.p, self.q)
        span = self.image + self.quotient
        coords = linalg.coordinates_in_span(span, v)
        if coords is None:
            raise ValueError("closed form escaped the kernel span")
        tail = coords[len(self.image):]
        return BottChernClass(self.complex.sector, form, tuple(tail))


def bott_chern(geom: Geometry, p: int, q: int,
               sector: tuple[int, ...] | None = None) -> BottChernSector:
    return BottChernSector(geom, p, q, sector)


def _bidegree_and_sector(form: Form):
    """(p, q, sector) of a form with a single bidegree and one character
    sector."""
    degrees = form.bidegrees()
    if len(degrees) != 1:
        raise ValueError("form must have a single bidegree")
    (p, q), = degrees
    sectors: set = set()
    for _, c in form.terms():
        sectors.update(c.char_decompose())
    if len(sectors) > 1:
        raise SectorMixing(f"form spans sectors {sorted(sectors)}")
    return p, q, sectors.pop()


def harmonic_certificate(geom: Geometry,
                         form: Form) -> tuple[bool, tuple[str, ...]]:
    """Certify Bott-Chern harmonicity modulo the attached constraint ideal.

    On a family geometry the sector complex over the parameter-rational
    field can see exactness that fails at actual points of the constraint
    locus, so class decisions go through the harmonic representative
    instead: a form that is closed under del and dbar and orthogonal to
    every invariant del-dbar image (diagonal monomial inner product, all
    identities taken modulo the constraints) is the harmonic representative
    of its class at every parameter point, and the class vanishes exactly
    where the form does.
    """
    p, q, sector = _bidegree_and_sector(form)
    del_form, dbar_form = geom.d_split(form)
    if not geom.reduce(del_form).is_zero():
        return False, ("not del-closed modulo constraints",)
    if not geom.reduce(dbar_form).is_zero():
        return False, ("not dbar-closed modulo constraints",)
    if p < 1 or q < 1:
        return True, ("no del-dbar image in this bidegree",)
    cx = SectorComplex(geom, sector)
    for mi in cx.basis(p - 1, q - 1):
        image = geom.reduce(geom.ddbar(cx.embed(mi)))
        acc = Coefficient.zero()
        for mj, w in image.terms():
            u = form.coeff(mj.holo, mj.anti)
            if not u.is_zero():
                acc = acc + u * w.conjugate()
        if acc.is_zero() or geom.in_ideal(acc):
            continue
        return False, (
            f"pairs with the del-dbar image of {mi.render()}",
        )
    return True, ("orthogonal to every invariant del-dbar image",)


def bc_class(geom: Geometry, form: Form) -> BottChernClass:
    """Bott-Chern class of a pure-bidegree form, sector inferred."""
    p, q, sector = _bidegree_and_sector(form)
    return bott_chern(geom, p, q, sector).class_of(form)


def _solve_primitive(geom: Geometry, op, rhs: Form, p: int, q: int,
                     dp: int, dq: int) -> Form | None:
    """An invariant (p,q)-form beta with op(beta) = rhs, or None; op raises
    the bidegree by (dp, dq).

    Solved sector by sector; the minimum-norm solution of each sector is
    taken so the output is canonical.
    """
    if rhs.is_zero():
        return Form.zero()
    out = Form.zero()
    for sector, part in rhs.char_sectors().items():
        cx = SectorComplex(geom, sector)
        matrix = cx.matrix(op, p, q, dp, dq)
        target = cx.to_vector(part, p + dp, q + dq)
        x = linalg.solve_min_norm(matrix, target)
        if x is None:
            return None
        out = out + cx.vector_to_form(x, p, q)
    return out


def solve_dbar(geom: Geometry, rhs: Form, p: int, q: int) -> Form | None:
    """An invariant (p,q)-form beta with dbar(beta) = rhs, or None."""
    return _solve_primitive(geom, geom.dbar, rhs, p, q, 0, 1)


def solve_del(geom: Geometry, rhs: Form, p: int, q: int) -> Form | None:
    """An invariant (p,q)-form beta with del(beta) = rhs, or None."""
    return _solve_primitive(geom, geom.del_op, rhs, p, q, 1, 0)
