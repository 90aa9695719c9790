"""Invariant complex geometry: structure equations and the d operator.

A geometry fixes a left-invariant coframe phi^1..phi^n of (1,0)-forms with
structure equations d(phi^k) given as (2,0)+(1,1) forms, plus unit-modulus
characters entering coefficients through their logarithmic derivatives
(d E = E * dlog E, with dlog E a closed invariant 1-form and conj(dlog E)
= -dlog E).  Everything downstream (metric conditions, deformations, the
Kuranishi construction) runs through the d operator built here.

d is derived in one place: each geometry keeps one table from coframe
monomials to their (del, dbar) pair, and one from (character, monomial)
to the pair (dlog^{1,0} ^ m, dlog^{0,1} ^ m), both filled on first use.
The second is the one home of every character term of d: twisted_split
adds its entries with the factor E*dc/dE for a coefficient c, and with
s_E*c for a sector's exponents s (d_s = d + sum_E s_E dlog E ^, whose
matrices cohomology reads).  d_split is its untwisted view and d its
sum; a caller that reads one half takes it alone (_twisted_half, the
same terms with the other half never formed), as del_op, dbar and so
ddbar do.  d of a coefficient c is d of the scalar form c.  Validation
checks d^2 on the coframe only, not on its conjugate, since d is real.
The sector matrices read off these tables are kept in a third, the
sector table, which cohomology fills; like the others it holds forms
and matrices only, never the geometry.
"""

from __future__ import annotations

from .coefficients import Coefficient, normalized_generators
from .exterior import Form, MultiIndex
from .symbols import base_name, base_names


class StructureError(ValueError):
    """Load-time consistency failure.

    kind is a stable tag: "not_integrable", "d2_nonzero", "bad_character",
    "bad_generator", or "bad_index" (a coframe index outside 1..n).
    """

    def __init__(self, message: str, kind: str = "d2_nonzero"):
        super().__init__(message)
        self.kind = kind


FrameLabel = tuple[str, int]  # ('h', i) for Z_i, ('a', i) for conj(Z_i)


class Geometry:
    def __init__(
        self,
        name: str,
        n: int,
        structure: dict[int, Form],
        chars: dict[str, Form] | None = None,
        generators: tuple[Form, ...] | None = None,
        constraints: tuple[Coefficient, ...] = (),
    ):
        self.name = name
        self.n = n
        # before anything reads them: a structure key outside 1..n would be
        # dropped below, and d looks every monomial index up in structure;
        # check_generator checks the generators
        self._check_indices((*structure.values(), *(chars or {}).values()),
                            structure)
        self.structure = {k: structure.get(k, Form.zero()) for k in range(1, n + 1)}
        self.chars = dict(chars or {})
        self.generators = tuple(generators) if generators is not None else None
        self.constraints = tuple(constraints)
        # the ideal's generators: conj(c) vanishes wherever c does
        self._ideal = normalized_generators(
            self.constraints + tuple(c.conjugate() for c in self.constraints))
        self._d_anti = {
            k: f.conjugate() for k, f in self.structure.items()
        }
        # filled lazily: a deformed geometry carries heavy coefficients and
        # most queries touch only a few of its monomials
        self._d_table: dict[MultiIndex, tuple[Form, Form]] = {}
        # (character, m) -> (dlog^{1,0} ^ m, dlog^{0,1} ^ m), filled by
        # twisted_split on first use
        self._dlog_table: dict[tuple[str, MultiIndex], tuple[Form, Form]] = {}
        # the sector table, which cohomology fills and reads
        self._sector_table: dict = {}
        # filled by bracket on first use: (x, y) -> [X, Y] on the frame
        self._bracket_table: dict | None = None
        # whether d^2 = 0 over the coefficient field, not only modulo the
        # constraints; cleared by _validate (BottChernSector needs it)
        self.d2_exact = True
        self._validate()

    # -- d and its bigraded pieces -------------------------------------------

    def _d_monomial(self, mi: MultiIndex) -> tuple[Form, Form]:
        """(del m, dbar m) of a coframe monomial m, derived once per geometry
        by the Leibniz rule on its first factor: d(f^r) = df^r - f^d(r)."""
        split = self._d_table.get(mi)
        if split is not None:
            return split
        if mi.holo:
            f = Form.monomial(mi.holo[:1])
            df = self.structure[mi.holo[0]]
            rest = MultiIndex(mi.holo[1:], mi.anti)
        elif mi.anti:
            f = Form.monomial((), mi.anti[:1])
            df = self._d_anti[mi.anti[0]]
            rest = MultiIndex((), mi.anti[1:])
        else:
            return Form.zero(), Form.zero()
        # a coframe element's d is its structure form, with no wedge by 1
        first = (df.wedge(Form({rest: Coefficient.one()})) if rest.degree
                 else df)
        del_rest, dbar_rest = self._d_monomial(rest)
        p, q = mi.bidegree
        split = (
            first.component(p + 1, q) - f.wedge(del_rest),
            first.component(p, q + 1) - f.wedge(dbar_rest),
        )
        self._d_table[mi] = split
        return split

    def d_split(self, form: Form) -> tuple[Form, Form]:
        """(del form, dbar form): twisted_split with no twist."""
        return self.twisted_split(form)

    def twisted_split(self, form: Form,
                      twist: dict[str, int] | None = None
                      ) -> tuple[Form, Form]:
        """(del_s form, dbar_s form) for the character exponents twist
        (name -> s_E), the only derivation of d: with a = sum_E s_E dlog E,
        d_s(c*m) = (dc + c*a)^m + c*dm, split by bidegree, with (del m,
        dbar m) read from the geometry's monomial table.  Neither dc nor a
        is formed: dc is the sum over characters E of E*dc/dE * dlog E, so
        each character adds its table pair (dlog^{1,0} ^ m, dlog^{0,1} ^
        m) with the factor E*dc/dE, and again with the factor s_E*c.
        Each half is one Form.combination; a caller that reads one half
        takes _twisted_half instead.

        For a character monomial chi with exponents twist, this is
        d(chi*form) with chi divided out; no twist is d itself, and a
        character that is not the geometry's twists nothing."""
        terms = [t for mi, c in form.terms()
                 for t in self._d_terms(mi, c, twist)]
        return (Form.combination((entry[0], x) for entry, x in terms),
                Form.combination((entry[1], x) for entry, x in terms))

    def _twisted_half(self, form: Form, side: int,
                      twist: dict[str, int] | None = None) -> Form:
        """twisted_split(form, twist)[side], one Form.combination over the
        same terms with the other half never formed: side 0 is del_s, 1
        dbar_s."""
        return Form.combination(
            (entry[side], x) for mi, c in form.terms()
            for entry, x in self._d_terms(mi, c, twist))

    def _d_terms(self, mi: MultiIndex, c: Coefficient,
                 twist: dict[str, int] | None):
        """The pieces of d_s(c*m) as ((del, dbar) pair of forms, factor):
        c*dm, and for each character E, E*dc/dE * dlog E ^ m and, apart,
        s_E*c * dlog E ^ m.  The pair (dlog^{1,0} ^ m, dlog^{0,1} ^ m) is
        read from a table filled on first use, beside the monomial table."""
        yield self._d_monomial(mi), c
        varies = c.has_characters()
        if not (varies or twist):
            return
        for cname, dlog in self.chars.items():
            x = c.euler(cname) if varies else None
            s = twist.get(cname) if twist else None
            if not (x or s):
                continue
            entry = self._dlog_table.get((cname, mi))
            if entry is None:
                m = Form({mi: Coefficient.one()})
                entry = (dlog.component(1, 0).wedge(m),
                         dlog.component(0, 1).wedge(m))
                self._dlog_table[(cname, mi)] = entry
            if x:
                yield entry, x
            if s:
                yield entry, c * s

    def d(self, form: Form) -> Form:
        del_part, dbar_part = self.d_split(form)
        return del_part + dbar_part

    def del_op(self, form: Form) -> Form:
        return self._twisted_half(form, 0)

    def dbar(self, form: Form) -> Form:
        return self._twisted_half(form, 1)

    def ddbar(self, form: Form) -> Form:
        return self.del_op(self.dbar(form))

    # -- frame-side structure ---------------------------------------------------

    def bracket(self, x: FrameLabel, y: FrameLabel) -> dict[FrameLabel, Coefficient]:
        """Lie bracket of frame vectors: alpha([X,Y]) = -d(alpha)(X,Y).

        The table of all pairs is read off the structure equations in one
        pass on first use: a term c*phi^u^phi^v of d(phi^s), or of its
        conjugate, gives [U,V] the component -c along ('h', s), or
        ('a', s), and [V,U] the component +c.  The caller gets a copy, so
        changing it leaves the table as it was."""
        if self._bracket_table is None:
            table: dict = {}
            for s in range(1, self.n + 1):
                for leg, form in ((("h", s), self.structure[s]),
                                  (("a", s), self._d_anti[s])):
                    for mi, c in form.terms():
                        # validation leaves only 2-forms: two factors
                        u, v = [("h", i) for i in mi.holo] + [
                            ("a", i) for i in mi.anti]
                        table.setdefault((u, v), {})[leg] = -c
                        table.setdefault((v, u), {})[leg] = c
            self._bracket_table = table
        return dict(self._bracket_table.get((x, y), {}))

    # -- validation -----------------------------------------------------------

    def _validate(self) -> None:
        """Check the structure: integrable bidegrees, registered closed
        unit-modulus characters, d^2 = 0 (modulo the constraints, which
        clears d2_exact) and the generators.

        d^2 is checked on phi^k only, as d(d phi^k) = d(structure[k]).
        d commutes with conjugation: _d_anti is the conjugate of
        structure, each dlog is checked anti-self-conjugate before the
        d^2 loop, and conj(E) = 1/E gives E*d/dE conj(c) =
        -conj(E*dc/dE), so d^2 conj(phi^k) = conj(d^2 phi^k) exactly.  The
        constraint ideal holds the conjugate of each generator, so the
        conjugate check would neither clear d2_exact nor raise where this
        one does not."""
        for k in sorted(self.structure):
            if any(mi.bidegree not in ((2, 0), (1, 1))
                   for mi, _ in self.structure[k].terms()):
                raise StructureError(
                    f"{self.name}: d(phi^{k}) has a part outside (2,0)+(1,1); "
                    "integrable structures allow only those",
                    kind="not_integrable",
                )
        for cname, dlog in self.chars.items():
            try:
                registered = base_name(cname) is None
            except KeyError:
                registered = False
            if not registered:
                raise StructureError(
                    f"{self.name}: {cname} is not a registered character",
                    kind="bad_character",
                )
            if not all(mi.degree == 1 for mi, _ in dlog.terms()):
                raise StructureError(
                    f"dlog {cname} must be a 1-form", kind="bad_character"
                )
            if not (dlog.conjugate() + dlog).is_zero():
                raise StructureError(
                    f"dlog {cname} must be anti-self-conjugate "
                    "(unit-modulus character)",
                    kind="bad_character",
                )
            if not self.d(dlog).is_zero():
                raise StructureError(
                    f"dlog {cname} is not closed", kind="bad_character"
                )
        for k in range(1, self.n + 1):
            d2 = self.d(self.structure[k])
            if d2.is_zero():
                continue
            # on a family, d^2 = 0 only on the declared constraint locus
            if self.reduce(d2).is_zero():
                self.d2_exact = False
                continue
            raise StructureError(
                f"{self.name}: d^2(phi^{k}) != 0", kind="d2_nonzero"
            )
        for g in self.generators or ():
            self.check_generator(g)

    def _check_indices(self, forms, keys=()) -> None:
        """Raise StructureError(kind="bad_index") for a key, or an index of
        a monomial of forms, outside 1..n."""
        for k in sorted(set(keys).union(*(
                mi.holo + mi.anti for f in forms for mi, _ in f.terms()))):
            if not 1 <= k <= self.n:
                raise StructureError(
                    f"{self.name}: coframe index {k} outside 1..{self.n}",
                    kind="bad_index",
                )

    def check_generator(self, g: Form) -> None:
        """Raise StructureError unless g is a nonzero (0,1)-form on the
        coframe whose dbar vanishes modulo the constraint ideal: the one
        check of a deformation generator."""
        self._check_indices((g,))
        if g.is_zero() or not g.is_pure(0, 1):
            raise StructureError(
                f"{self.name}: generator {g.render()} is not a nonzero "
                "(0,1)-form",
                kind="bad_generator",
            )
        # on a family, dbar g = 0 only on the declared constraint locus
        if not self.reduce(self.dbar(g)).is_zero():
            raise StructureError(
                f"{self.name}: generator {g.render()} is not dbar-closed",
                kind="bad_generator",
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Geometry):
            return NotImplemented
        return (
            self.name == other.name
            and self.n == other.n
            and self.structure == other.structure
            and self.chars == other.chars
            and self.generators == other.generators
            and list(self.constraints) == list(other.constraints)
        )

    def __hash__(self):
        raise TypeError("Geometry is not hashable")

    def __repr__(self) -> str:
        return f"Geometry({self.name!r}, n={self.n})"

    # -- family helpers ------------------------------------------------------

    def free_parameters(self) -> list[str]:
        """Base names of deformation parameters appearing in the structure."""
        return base_names(
            c for f in self.structure.values() for _, c in f.terms()
        )

    def in_ideal(self, c: Coefficient) -> bool:
        """Whether c lies in the attached constraint ideal, generated by
        the constraints and their conjugates.

        Membership is tested generator by generator (exact divisibility),
        which is what the catalog families need.  The generators are
        deduplicated, so a self-conjugate constraint costs one test.
        """
        return any(c.is_multiple_of(g) for g in self._ideal)

    def reduce(self, form: Form) -> Form:
        """Drop terms whose coefficient lies in the attached constraint ideal."""
        if not self.constraints:
            return form
        return Form({mi: c for mi, c in form.terms() if not self.in_ideal(c)})

    def substitute(self, bindings: dict) -> "Geometry":
        """Specialize family parameters; returns a new validated geometry."""
        structure = {
            k: f.substitute(bindings) for k, f in self.structure.items()
        }
        kept = []
        for c in self.constraints:
            value = c.substitute(bindings)
            # fully evaluated constraints carry no residual equation: zero
            # means the point sits on the locus, a nonzero scalar means it
            # sits off it; neither cuts the specialized family any further
            if not value.is_scalar():
                kept.append(value)
        generators = None
        if self.generators is not None:
            generators = tuple(g.substitute(bindings) for g in self.generators)
        return Geometry(
            self.name,
            self.n,
            structure,
            chars=dict(self.chars),
            generators=generators,
            constraints=tuple(kept),
        )

    def to_json_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "dim": self.n,
            "structure": {
                f"dphi{k}": f.render() for k, f in self.structure.items()
            },
            "characters": {
                cname: dlog.render() for cname, dlog in self.chars.items()
            },
        }
        if self.generators is not None:
            out["generators"] = [g.render() for g in self.generators]
        if self.constraints:
            out["constraints"] = [c.render() for c in self.constraints]
        return out


def check_nilpotent_shape(geom: Geometry) -> bool:
    """Whether only the top coframe differential is nonzero, omitting itself:
    d(phi^j) = 0 for j < n and d(phi^n) involves no phi^n or conj(phi^n)
    factor.  Geometries of this shape get the all-or-none pluriclosed
    dichotomy."""
    n = geom.n
    if any(not geom.structure[k].is_zero() for k in range(1, n)):
        return False
    return not any(n in mi.holo or n in mi.anti
                   for mi, _ in geom.structure[n].terms())
