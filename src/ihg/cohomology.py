"""Finite-dimensional cohomology of the invariant complex.

d preserves the character exponent vector, so the complex splits into
sectors indexed by those vectors; each sector with fixed bidegree is a
finite monomial space over the parameter-rational field and everything
reduces to exact linear algebra, in linalg's one format: a vector is
sparse (monomial index -> nonzero value) and a matrix is the list of its
columns.  A form is split into sectors in one place, _sector_vectors:
one Coefficient.char_decompose per coefficient writes each part, its
character divided out, into its sector's coordinate vector.
SectorComplex.to_vector reads its own sector's vector and raises
SectorMixing when the form meets another.

The matrix of an operator ("d", "del", "dbar" or "ddbar") in sector s is
read off the geometry's tables: d(chi^s*m) = chi^s*(dm + dlog chi^s ^ m)
with dlog chi^s = sum_c s_c dlog_c, so a column is the table entry of m
twisted by the sector's exponents (Geometry.twisted_split, whose dlog
table holds every character term of d, or for del, dbar and ddbar the
one half each reads, Geometry._twisted_half), and no coefficient is
ever multiplied by chi^s and split again.  Its terms go straight into the
column by monomial index: a column, the prefix divided out, stays in the
sector exactly when no coefficient carries a character, and one that does
raises SectorMixing.  The target bidegrees follow from the operator
(_SHIFTS).  A sector matrix depends only on the geometry, so
SectorComplex.matrix builds it once, into the geometry's sector table,
and hands out copies of its columns from then on; every reader below goes
through it.  Only matrices are kept: eliminations, kernels and whole
sectors are computed again on each query.

A Bott-Chern sector reads two matrices: d on pure (p,q)-forms, whose
kernel is ker(del) ∩ ker(dbar), and del dbar from (p-1,q-1).  One
elimination over the image columns followed by the kernel vectors picks
both spans as pivot columns, read on the free coordinates of ker d: the
image lies in ker d whenever d^2 = 0 over the coefficient field, which
Geometry validation records (d2_exact) and BottChernSector requires.
Kernel vectors are built last, and only for the classes kept.

Invariant primitives are solved in one place, split_primitive, which
returns the minimum-norm primitive of the part of a form in im(op) and
the residue orthogonal to it; solve_dbar, solve_del and the Kuranishi
step read both.  Each sector matrix it splits against is factored into its
pseudo-inverse once per geometry, kept beside the matrix in the sector
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from . import linalg
from .coefficients import Coefficient, SectorMixing
from .exterior import Form, MultiIndex
from .geometry import Geometry, StructureError
from .symbols import registry


@lru_cache(maxsize=None)
def monomial_basis(n: int, p: int, q: int) -> tuple[MultiIndex, ...]:
    """The (p,q) coframe monomials of dimension n, built once."""
    if p < 0 or q < 0 or p > n or q > n:
        return ()
    return tuple(
        MultiIndex(h, a)
        for h in combinations(range(1, n + 1), p)
        for a in combinations(range(1, n + 1), q)
    )


# the bidegree shifts of each operator's targets, stacked in this order
_SHIFTS = {"d": ((1, 0), (0, 1)), "del": ((1, 0),), "dbar": ((0, 1),),
           "ddbar": ((1, 1),)}


def _targets(op: str, p: int, q: int,
             accepted=tuple(_SHIFTS)) -> tuple[tuple[int, int], ...]:
    """The target bidegrees of op on (p,q)-forms; an op outside accepted
    raises ValueError naming the accepted ones."""
    if op not in accepted:
        raise ValueError(f"unknown operator {op!r}; expected one of "
                         + ", ".join(map(repr, accepted)))
    return tuple((p + a, q + b) for a, b in _SHIFTS[op])


def _index(n: int, bidegrees) -> dict[MultiIndex, int]:
    monomials = [mi for p, q in bidegrees for mi in monomial_basis(n, p, q)]
    return {mi: k for k, mi in enumerate(monomials)}


def _sector_vectors(form: Form, index: dict[MultiIndex, int],
                    bidegrees) -> dict[tuple[int, ...], linalg.SparseVector]:
    """Coordinates of form over the monomials of index, one sparse vector
    per character sector it meets, each with the sector's character
    divided out."""
    out: dict[tuple[int, ...], linalg.SparseVector] = {}
    for mi, c in form.terms():
        k = index.get(mi)
        if k is None:
            raise ValueError(
                f"monomial {mi.render()} is not of bidegree "
                + " or ".join(f"({p},{q})" for p, q in bidegrees)
            )
        for sector, value in c.char_decompose().items():
            if sector in out:
                out[sector][k] = value
            else:
                out[sector] = {k: value}
    return out


class SectorComplex:
    """One character sector of a geometry's invariant form complex."""

    def __init__(self, geom: Geometry, sector: tuple[int, ...] | None = None):
        ctx = registry.context()
        names = [ctx.names[i] for i in ctx.char_indices]
        if sector is None:
            sector = tuple(0 for _ in names)
        if len(sector) != len(names):
            raise ValueError(
                f"sector needs {len(names)} exponents, got {len(sector)}"
            )
        self.geom = geom
        self.sector = tuple(sector)
        prefix = Coefficient.one()
        for nm, e in zip(names, sector):
            if e:
                prefix = prefix * Coefficient.symbol(nm) ** e
        self._prefix = prefix
        # d(prefix*f) = prefix*(d f + sum_E s_E dlog E ^ f), E running over
        # the geometry's characters: any other is constant on it
        self._twist = {nm: e for nm, e in zip(names, sector)
                       if e and nm in geom.chars}

    def basis(self, p: int, q: int) -> tuple[MultiIndex, ...]:
        return monomial_basis(self.geom.n, p, q)

    def embed(self, mi: MultiIndex) -> Form:
        return Form({mi: self._prefix})

    def vector_to_form(self, vec: linalg.SparseVector, p: int,
                       q: int) -> Form:
        """The form with the given coordinates; in sector 0 the prefix is
        one."""
        # distinct basis monomials: nothing to sum
        basis = self.basis(p, q)
        if not any(self.sector):
            return Form({basis[k]: v for k, v in vec.items()})
        return Form({basis[k]: self._prefix * v for k, v in vec.items()})

    def to_vector(self, form: Form,
                  *bidegrees: tuple[int, int]) -> linalg.SparseVector:
        """Coordinates of form over the monomials of the given bidegrees,
        in the order given."""
        index = _index(self.geom.n, bidegrees)
        vectors = _sector_vectors(form, index, bidegrees)
        others = sorted(set(vectors) - {self.sector})
        if others:
            raise SectorMixing(
                f"form meets sectors {others}, expected {self.sector}"
            )
        return vectors.get(self.sector, {})

    def _column(self, op: str, mi: MultiIndex,
                index: dict[MultiIndex, int]) -> linalg.SparseVector:
        """op_s of the monomial mi, op of prefix*mi with the prefix
        divided out, on the monomials of index; d reads the (del, dbar)
        pair, never merged, and del, dbar and ddbar form only the halves
        they read.  A coefficient that carries a character leaves the
        sector and raises SectorMixing."""
        geom, twist = self.geom, self._twist
        form = Form({mi: Coefficient.one()})
        # sector 0 reads the d-table entry itself
        if op == "d":
            parts = (geom.twisted_split(form, twist) if twist
                     else geom._d_monomial(mi))
        else:
            side = 0 if op == "del" else 1
            part = (geom._twisted_half(form, side, twist) if twist
                    else geom._d_monomial(mi)[side])
            if op == "ddbar":
                part = geom._twisted_half(part, 0, twist)
            parts = (part,)
        column = {}
        for part in parts:
            for m, c in part.terms():
                if c.has_characters():
                    raise SectorMixing(
                        f"{self.geom.name}: {op} of {mi.render()} leaves "
                        f"the sector {self.sector} at {m.render()}")
                column[index[m]] = c
        return column

    def matrix(self, op: str, p: int, q: int) -> list[linalg.SparseVector]:
        """Columns of the matrix of op ("d", "del", "dbar" or "ddbar")
        from the (p,q) monomials to the monomials of its target
        bidegrees, stacked in the order of _SHIFTS: (p+1,q) then (p,q+1)
        for d.

        Each column is read off the geometry's d-table twisted by the
        sector's exponents, not taken from d of the embedded monomial: with
        a = dlog chi^s, del_s m = del m + a^{1,0} ^ m, dbar_s m = dbar m +
        a^{0,1} ^ m, d_s = del_s + dbar_s and ddbar_s = del_s dbar_s.

        The matrix depends only on the geometry, so it is built once, on
        first use, into the geometry's sector table under (sector, op, p,
        q), and read from there on; the caller gets copies of the
        columns, which it may change.  A matrix whose columns leave the
        sector raises SectorMixing, and an unknown op ValueError; both
        store nothing.
        """
        table = self.geom._sector_table
        key = (self.sector, op, p, q)
        columns = table.get(key)
        if columns is None:
            index = _index(self.geom.n, _targets(op, p, q))
            columns = [self._column(op, mi, index)
                       for mi in self.basis(p, q)]
            table[key] = columns
        return [dict(col) for col in columns]


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

    The spans are picked on kernel coordinates: a vector of ker d is fixed
    by its coordinates at the free columns of d's elimination, and the
    kernel basis reads there as the unit vectors, so the second
    elimination runs over dim ker d rows, not over every (p,q) monomial.
    image holds the kept image columns and quotient the kernel vectors of
    the kept classes, built for those only.  This needs
    im(del dbar) inside ker d over the coefficient field, which holds when
    d^2 = 0 there; on a geometry whose d^2 vanishes only modulo its
    constraints the sector raises StructureError (kind "d2_nonzero").
    """

    def __init__(self, geom: Geometry, p: int, q: int,
                 sector: tuple[int, ...] | None = None):
        self.complex = SectorComplex(geom, sector)
        self.geom = geom
        self.p = p
        self.q = q
        if not geom.d2_exact:
            raise StructureError(
                f"{geom.name}: d^2 vanishes only modulo the constraints, so "
                f"the Bott-Chern sector ({p},{q}) is not taken over the "
                "coefficient field",
                kind="d2_nonzero",
            )
        cx = self.complex
        free, kernel_vector = linalg.kernel(cx.matrix("d", p, q))
        image_cols = cx.matrix("ddbar", p - 1, q - 1)
        # image columns first: the kernel columns that are pivots then span
        # a complement of the image inside the kernel; on ker d the free
        # coordinates lose nothing, and the kernel basis reads as identity
        position = {f: k for k, f in enumerate(free)}
        one = Coefficient.one()
        pivots = linalg.pivot_columns(
            [{position[i]: x for i, x in col.items() if i in position}
             for col in image_cols]
            + [{k: one} for k in range(len(free))]
        )
        self.image = [image_cols[c] for c in pivots if c < len(image_cols)]
        self.quotient = [kernel_vector(free[c - len(image_cols)])
                         for c in pivots if c >= len(image_cols)]

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

    def class_of(self, form: Form, vector: linalg.SparseVector | None = None
                 ) -> BottChernClass:
        """The class of a closed (p,q)-form of this sector: its
        coordinates on the quotient basis, modulo the image.  vector, when
        given, is the form's to_vector coordinates, already split."""
        if not self.is_closed(form):
            raise ValueError("form is not closed under del and dbar")
        if vector is None:
            vector = self.complex.to_vector(form, (self.p, self.q))
        coords = linalg.solve(self.image + self.quotient, vector)
        if coords is None:
            raise ValueError("closed form escaped the kernel span")
        zero, first = Coefficient.zero(), len(self.image)
        return BottChernClass(self.complex.sector, form, tuple(
            coords.get(first + k, zero) for k in range(self.dimension)))


def _bidegree_and_sector(geom: Geometry, form: Form):
    """(p, q, sector, vector) of a form with a single bidegree and one
    character sector: vector is its coordinates in that sector."""
    degrees = form.bidegrees()
    if len(degrees) != 1:
        raise ValueError("form must have a single bidegree")
    (p, q), = degrees
    index = _index(geom.n, degrees)
    sectors = _sector_vectors(form, index, degrees)
    if len(sectors) > 1:
        raise SectorMixing(f"form spans sectors {sorted(sectors)}")
    (sector, vector), = sectors.items()
    return p, q, sector, vector


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

    The del-dbar image of each (p-1,q-1) monomial is a column of the
    sector's ddbar matrix, and the pairing reads the form's sector
    vector, its character divided out, against it: the sector's character
    has modulus one, so it cancels from every product u * conj(w).
    """
    p, q, sector, vector = _bidegree_and_sector(geom, form)
    del_form, dbar_form = geom.d_split(form)
    if not geom.reduce(del_form).is_zero():
        return False, ("not del-closed modulo constraints",)
    if not geom.reduce(dbar_form).is_zero():
        return False, ("not dbar-closed modulo constraints",)
    if p < 1 or q < 1:
        return True, ("no del-dbar image in this bidegree",)
    cx = SectorComplex(geom, sector)
    image = cx.matrix("ddbar", p - 1, q - 1)
    for col, mi in zip(image, cx.basis(p - 1, q - 1)):
        acc = Coefficient.sum_of_products(
            (vector[i], w.conjugate()) for i, w in col.items()
            if i in vector and not geom.in_ideal(w)
        )
        if acc.is_zero() or geom.in_ideal(acc):
            continue
        return False, (
            f"pairs with the del-dbar image of {mi.render()}",
        )
    return True, ("orthogonal to every invariant del-dbar image",)


def bc_class(geom: Geometry, form: Form) -> BottChernClass:
    """Bott-Chern class of a pure-bidegree form, sector inferred."""
    p, q, sector, vector = _bidegree_and_sector(geom, form)
    return BottChernSector(geom, p, q, sector).class_of(form, vector)


def split_primitive(geom: Geometry, op: str, rhs: Form,
                    p: int, q: int) -> tuple[Form, linalg.SparseVector]:
    """Split rhs against the invariant image of op ("del" or "dbar") on
    (p,q)-forms: returns (beta, residue), where beta is the (p,q)-form of
    minimum norm whose image is the part of rhs in im(op), and residue
    holds the nonzero coordinates of the rest, orthogonal to im(op).
    Any other op raises ValueError.

    Sectors are visited in sorted order, and the residue of the k-th of
    them (from 0) sits at its monomial indices plus k*m, m the number of
    target monomials, with the character divided out as
    SectorComplex.to_vector gives it.  rhs lies in im(op) exactly when
    the residue is empty.

    Each sector's matrix of op is read through SectorComplex.matrix, and
    factored into its pseudo-inverse (linalg.pseudo_inverse) once, on
    first use; the pseudo-inverse and the sector's embedded basis forms
    join the matrix in the geometry's sector table, under op + "+", and
    the split reads the matrix from the table itself.  Every later split
    in that sector is two matrix-vector products and builds no
    SectorComplex.  The table holds only matrices and forms, never a
    reference back to the geometry.
    """
    targets = _targets(op, p, q, ("del", "dbar"))
    index = _index(geom.n, targets)
    vectors = _sector_vectors(rhs, index, targets)
    table = geom._sector_table
    terms: list = []
    residue: linalg.SparseVector = {}
    for offset, sector in enumerate(sorted(vectors)):
        split_key = (sector, op + "+", p, q)
        entry = table.get(split_key)
        if entry is None:
            cx = SectorComplex(geom, sector)
            pinv = linalg.pseudo_inverse(cx.matrix(op, p, q), len(index))
            entry = (pinv, [cx.embed(mi) for mi in cx.basis(p, q)])
            table[split_key] = entry
        pinv, basis = entry
        x, rest = linalg.split_normal(table[(sector, op, p, q)], pinv,
                                      vectors[sector])
        terms.extend((basis[k], c) for k, c in x.items())
        start = offset * len(index)
        residue.update((start + k, r) for k, r in rest.items())
    return Form.combination(terms), residue


def solve_dbar(geom: Geometry, rhs: Form, p: int, q: int) -> Form | None:
    """The minimum-norm invariant (p,q)-form beta with dbar(beta) = rhs,
    or None."""
    beta, residue = split_primitive(geom, "dbar", rhs, p, q)
    return None if residue else beta


def solve_del(geom: Geometry, rhs: Form, p: int, q: int) -> Form | None:
    """The minimum-norm invariant (p,q)-form beta with del(beta) = rhs,
    or None."""
    beta, residue = split_primitive(geom, "del", rhs, p, q)
    return None if residue else beta
