"""Invariant complex geometry: structure equations and the d operator.

A geometry fixes a left-invariant coframe phi^1..phi^n of (1,0)-forms with
structure equations d(phi^k) given as (2,0)+(1,1) forms, plus unit-modulus
characters entering coefficients through their logarithmic derivatives
(d E = E * dlog E, with dlog E a closed invariant 1-form and conj(dlog E)
= -dlog E).  Everything downstream (metric conditions, deformations, the
Kuranishi construction) runs through the d operator built here.

d is derived in one place: each geometry keeps one table from coframe
monomials to their (del, dbar) pair, filled on first use, and d_split
combines table entries with the characters' action on coefficients;
d, del_op, dbar and ddbar are views of d_split.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import Coefficient
from .exterior import Form, MultiIndex
from .symbols import CHAR, CONJ, PARAM, REAL, registry


class StructureError(ValueError):
    """Load-time consistency failure.

    kind is a stable tag: "not_integrable", "d2_nonzero", "bad_character",
    or "bad_generator".
    """

    def __init__(self, message: str, kind: str = "d2_nonzero"):
        super().__init__(message)
        self.kind = kind


FrameLabel = tuple[str, int]  # ('h', i) for Z_i, ('a', i) for conj(Z_i)


@dataclass(frozen=True)
class IntegrabilityReport:
    """(0,2)-components of the structure equations.

    ok means every d(phi^k) is purely (2,0)+(1,1).  When it is not, the
    offending components are listed by coframe index.
    """

    ok: bool
    offending: tuple[tuple[int, Form], ...]


@dataclass(frozen=True)
class NilpotentShape:
    """Whether only the top coframe differential is nonzero, omitting itself.

    matches is true when d(phi^j) = 0 for j < n and d(phi^n) involves no
    phi^n or conj(phi^n) factor; geometries of this shape get the
    all-or-none pluriclosed dichotomy.
    """

    matches: bool
    top_index: int


class Geometry:
    def __init__(
        self,
        name: str,
        n: int,
        structure: dict[int, Form],
        chars: dict[str, Form] | None = None,
        generators: tuple[Form, ...] | None = None,
        constraints: tuple[Coefficient, ...] = (),
        validate: bool = True,
    ):
        self.name = name
        self.n = n
        self.structure = {k: structure.get(k, Form.zero()) for k in range(1, n + 1)}
        self.chars = dict(chars or {})
        self.generators = tuple(generators) if generators is not None else None
        self.constraints = tuple(constraints)
        self._d_anti = {
            k: f.conjugate() for k, f in self.structure.items()
        }
        # filled lazily: a deformed geometry carries heavy coefficients and
        # most queries touch only a few of its monomials
        self._d_table: dict[MultiIndex, tuple[Form, Form]] = {}
        # filled by cohomology.split_primitive: (op, p, q, sector) -> the
        # sector matrix of op with its normal systems
        self._sector_systems: dict = {}
        if validate:
            self._validate()

    # -- d and its bigraded pieces -------------------------------------------

    def d_coefficient(self, c: Coefficient) -> Form:
        """d of a function coefficient; only characters vary on the manifold."""
        return Form.combination(
            (dlog, c.euler(cname)) for cname, dlog in self.chars.items()
        )

    def d_coframe(self, flavor: str, idx: int) -> Form:
        if flavor == "h":
            return self.structure[idx]
        return self._d_anti[idx]

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
        first = df.wedge(Form({rest: Coefficient.one()}))
        del_rest, dbar_rest = self._d_monomial(rest)
        p, q = mi.bidegree
        split = (
            first.component(p + 1, q) - f.wedge(del_rest),
            first.component(p, q + 1) - f.wedge(dbar_rest),
        )
        self._d_table[mi] = split
        return split

    def d_split(self, form: Form) -> tuple[Form, Form]:
        """(del form, dbar form), the only derivation of d: for each term
        c*m, del gives (dc)^{1,0}^m + c*del(m) and dbar gives
        (dc)^{0,1}^m + c*dbar(m), with (del m, dbar m) read from the
        geometry's monomial table.  Each half is one Form.combination."""
        one = Coefficient.one()
        del_pairs, dbar_pairs = [], []
        for mi, c in form.terms():
            del_m, dbar_m = self._d_monomial(mi)
            del_pairs.append((del_m, c))
            dbar_pairs.append((dbar_m, c))
            dc = self.d_coefficient(c)
            if not dc.is_zero():
                m = Form({mi: one})
                del_pairs.append((dc.component(1, 0).wedge(m), one))
                dbar_pairs.append((dc.component(0, 1).wedge(m), one))
        return Form.combination(del_pairs), Form.combination(dbar_pairs)

    def d(self, form: Form) -> Form:
        del_part, dbar_part = self.d_split(form)
        return del_part + dbar_part

    def del_op(self, form: Form) -> Form:
        return self.d_split(form)[0]

    def dbar(self, form: Form) -> Form:
        return self.d_split(form)[1]

    def ddbar(self, form: Form) -> Form:
        return self.del_op(self.dbar(form))

    # -- frame-side structure ---------------------------------------------------

    def evaluate_2form(self, form: Form, x: FrameLabel, y: FrameLabel) -> Coefficient:
        return _contract(_contract(form, x), y).coeff((), ())

    def bracket(self, x: FrameLabel, y: FrameLabel) -> dict[FrameLabel, Coefficient]:
        """Lie bracket of frame vectors: alpha([X,Y]) = -d(alpha)(X,Y)."""
        out: dict[FrameLabel, Coefficient] = {}
        for s in range(1, self.n + 1):
            c = -self.evaluate_2form(self.structure[s], x, y)
            if not c.is_zero():
                out[("h", s)] = c
            cb = -self.evaluate_2form(self._d_anti[s], x, y)
            if not cb.is_zero():
                out[("a", s)] = cb
        return out

    def frame_action(self, x: FrameLabel, c: Coefficient) -> Coefficient:
        """Derivative of a function coefficient along a frame vector."""
        return _contract(self.d_coefficient(c), x).coeff((), ())

    # -- validation -----------------------------------------------------------

    def _validate(self) -> None:
        report = integrability_report(self.structure)
        if not report.ok:
            raise StructureError(
                f"{self.name}: d(phi^{report.offending[0][0]}) has a (0,2) "
                "component; integrable structures allow only (2,0) and (1,1)",
                kind="not_integrable",
            )
        for cname, dlog in self.chars.items():
            if registry.lookup(cname).kind != CHAR:
                raise StructureError(
                    f"{cname} is not a registered character", kind="bad_character"
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
            for flavor, f in (
                ("h", Form.monomial((k,), ())),
                ("a", Form.monomial((), (k,))),
            ):
                # on a family, d^2 = 0 only on the declared constraint locus
                if self.reduce(self.d(self.d(f))).is_zero():
                    continue
                which = f"phi^{k}" if flavor == "h" else f"conj(phi^{k})"
                raise StructureError(
                    f"{self.name}: d^2({which}) != 0", kind="d2_nonzero"
                )
        if self.generators is not None:
            for g in self.generators:
                if g.is_zero() or g.bidegrees() != {(0, 1)}:
                    raise StructureError(
                        f"{self.name}: generators must be nonzero (0,1)-forms",
                        kind="bad_generator",
                    )
                if not self.dbar(g).is_zero():
                    raise StructureError(
                        f"{self.name}: generator {g.render()} is not "
                        "dbar-closed",
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
        seen: set[str] = set()
        for f in self.structure.values():
            for _, c in f.terms():
                for nm in c.free_symbols():
                    sym = registry.lookup(nm)
                    if sym.kind == PARAM or sym.kind == REAL:
                        seen.add(nm)
                    elif sym.kind == CONJ:
                        seen.add(sym.conjugate_of)
        return sorted(seen)

    def in_ideal(self, c: Coefficient) -> bool:
        """Whether c lies in the attached constraint ideal.

        Membership is tested generator by generator (exact divisibility),
        which is what the catalog families need.
        """
        return any(c.is_multiple_of(g) for g in self.constraints)

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
            if isinstance(value, Coefficient) and not value.is_scalar():
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


def integrability_report(structure: dict[int, Form]) -> IntegrabilityReport:
    parts = ((k, structure[k].component(0, 2)) for k in sorted(structure))
    offending = tuple((k, part) for k, part in parts if not part.is_zero())
    return IntegrabilityReport(ok=not offending, offending=offending)


def check_nilpotent_shape(geom: Geometry) -> NilpotentShape:
    n = geom.n
    for k in range(1, n):
        if not geom.structure[k].is_zero():
            return NilpotentShape(matches=False, top_index=n)
    top = geom.structure[n]
    for mi, _ in top.terms():
        if n in mi.holo or n in mi.anti:
            return NilpotentShape(matches=False, top_index=n)
    return NilpotentShape(matches=True, top_index=n)


def _contract(form: Form, x: FrameLabel) -> Form:
    """Interior product with the frame vector x."""
    return form.contract_holo(x[1]) if x[0] == "h" else form.contract_anti(x[1])
