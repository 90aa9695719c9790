"""Finite-dimensional cohomology of the invariant complex.

d preserves the character exponent vector, so the complex splits into
sectors indexed by those vectors; each sector with fixed bidegree is a
finite monomial space over the parameter-rational field and everything
reduces to exact linear algebra.  A Bott-Chern sector reads two
matrices: d on pure (p,q)-forms, whose kernel is ker(del) ∩ ker(dbar),
and del dbar from (p-1,q-1); one elimination over the image columns
followed by the kernel vectors picks both spans as pivot columns.

Invariant primitives are solved in one place, split_primitive, which
returns the minimum-norm primitive of the part of a form in im(op) and
the residue orthogonal to it; solve_dbar, solve_del and the Kuranishi
step read both.  The sector systems it splits against are built once per
geometry.
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
        return Form.combination(zip(map(self.embed, self.basis(p, q)), vec))

    def to_vector(self, form: Form, *bidegrees: tuple[int, int]):
        """Coordinates of form over the monomials of the given bidegrees,
        in the order given."""
        return self._coordinates(form, self._index(bidegrees), bidegrees)

    def _index(self, bidegrees) -> dict[MultiIndex, int]:
        monomials = [mi for p, q in bidegrees for mi in self.basis(p, q)]
        return {mi: k for k, mi in enumerate(monomials)}

    def _coordinates(self, form: Form, index: dict[MultiIndex, int],
                     bidegrees) -> linalg.Vector:
        vec = [Coefficient.zero() for _ in index]
        for mi, c in form.terms():
            if mi not in index:
                raise ValueError(
                    f"monomial {mi.render()} is not of bidegree "
                    + " or ".join(f"({p},{q})" for p, q in bidegrees)
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

    def matrix(self, op, p: int, q: int,
               *targets: tuple[int, int]) -> linalg.Matrix:
        """Matrix of op from the (p,q) monomials to the monomials of the
        target bidegrees, stacked in the order given."""
        index = self._index(targets)
        cols = [
            self._coordinates(op(self.embed(mi)), index, targets)
            for mi in self.basis(p, q)
        ]
        return [[col[i] for col in cols] for i in range(len(index))]


@dataclass(frozen=True)
class BottChernClass:
    sector: tuple[int, ...]
    representative: Form
    coords: tuple[Coefficient, ...]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)


class BottChernSector:
    """H^{p,q} of ker(del) ∩ ker(dbar) modulo im(del dbar) in one sector.

    On pure (p,q)-forms del and dbar land in different bidegrees, so
    ker(del) ∩ ker(dbar) is ker(d) with d taken into (p+1,q) + (p,q+1).
    """

    def __init__(self, geom: Geometry, p: int, q: int,
                 sector: tuple[int, ...] | None = None):
        self.complex = SectorComplex(geom, sector)
        self.geom = geom
        self.p = p
        self.q = q
        cx = self.complex
        d_matrix = cx.matrix(geom.d, p, q, (p + 1, q), (p, q + 1))
        # at (n,n) d has no target monomial: one zero row keeps every column
        kernel = linalg.nullspace(
            d_matrix or [[Coefficient.zero()] * len(cx.basis(p, q))]
        )
        image_matrix = cx.matrix(geom.ddbar, p - 1, q - 1, (p, q))
        image_cols = [list(col) for col in zip(*image_matrix)]
        # image columns first: the kernel columns that are pivots then span
        # a complement of the image inside the kernel
        columns = image_cols + kernel
        pivots = linalg.pivot_columns(columns)
        self.image = [columns[c] for c in pivots if c < len(image_cols)]
        self.quotient = [columns[c] for c in pivots if c >= len(image_cols)]

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
        v = self.complex.to_vector(form, (self.p, self.q))
        span = self.image + self.quotient
        coords = linalg.coordinates_in_span(span, v)
        if coords is None:
            raise ValueError("closed form escaped the kernel span")
        tail = coords[len(self.image):]
        return BottChernClass(self.complex.sector, form, tuple(tail))


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
        pairs = ((form.coeff(mj.holo, mj.anti), w) for mj, w in image.terms())
        acc = Coefficient.sum_of_products(
            (u, w.conjugate()) for u, w in pairs if u
        )
        if acc.is_zero() or geom.in_ideal(acc):
            continue
        return False, (
            f"pairs with the del-dbar image of {mi.render()}",
        )
    return True, ("orthogonal to every invariant del-dbar image",)


def bc_class(geom: Geometry, form: Form) -> BottChernClass:
    """Bott-Chern class of a pure-bidegree form, sector inferred."""
    p, q, sector = _bidegree_and_sector(form)
    return BottChernSector(geom, p, q, sector).class_of(form)


_SHIFTS = {"del": (1, 0), "dbar": (0, 1)}


def split_primitive(geom: Geometry, op: str, rhs: Form,
                    p: int, q: int) -> tuple[Form, linalg.Vector]:
    """Split rhs against the invariant image of op ("del" or "dbar") on
    (p,q)-forms: returns (beta, residue), where beta is the (p,q)-form of
    minimum norm whose image is the part of rhs in im(op), and residue
    holds the coordinates of the rest, orthogonal to im(op).

    Sectors are visited in sorted order; each contributes its coordinates
    with the character stripped, as SectorComplex.to_vector gives them.
    rhs lies in im(op) exactly when every residue entry is zero.

    Each sector's matrix of op and its normal systems depend only on the
    geometry, so they are built once, on first use, into a table the
    geometry keeps for its lifetime; the table holds only matrices, never
    a reference back to the geometry.
    """
    dp, dq = _SHIFTS[op]
    target = (p + dp, q + dq)
    terms: list = []
    residue: linalg.Vector = []
    sectors = rhs.char_sectors()
    for sector in sorted(sectors):
        cx = SectorComplex(geom, sector)
        key = (op, p, q, sector)
        systems = geom._sector_systems.get(key)
        if systems is None:
            operator = geom.dbar if op == "dbar" else geom.del_op
            systems = linalg.normal_systems(cx.matrix(operator, p, q, target))
            geom._sector_systems[key] = systems
        x, rest = linalg.split_normal(
            systems, cx.to_vector(sectors[sector], target)
        )
        terms.extend(zip(map(cx.embed, cx.basis(p, q)), x))
        residue.extend(rest)
    return Form.combination(terms), residue


def solve_dbar(geom: Geometry, rhs: Form, p: int, q: int) -> Form | None:
    """The minimum-norm invariant (p,q)-form beta with dbar(beta) = rhs,
    or None."""
    beta, residue = split_primitive(geom, "dbar", rhs, p, q)
    return None if any(not r.is_zero() for r in residue) else beta


def solve_del(geom: Geometry, rhs: Form, p: int, q: int) -> Form | None:
    """The minimum-norm invariant (p,q)-form beta with del(beta) = rhs,
    or None."""
    beta, residue = split_primitive(geom, "del", rhs, p, q)
    return None if any(not r.is_zero() for r in residue) else beta
