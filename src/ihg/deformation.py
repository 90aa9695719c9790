"""Deformation of invariant complex structures.

A deformation is encoded by a T^{1,0}-valued (0,1)-form psi; the deformed
(1,0)-coframe is Phi^j = phi^j + psi^j.  Re-expressing d(Phi^j) in the
deformed coframe gives the deformed structure equations exactly; their
(0,2) components are the integrability residual.  Bidegrees add under
the wedge, so the residual is d(Phi^j) pushed through the (0,1) parts of
the inverse's rows alone, the only rows construction forms; the
coordinate maps and the full structure are built on first read.

The way back is two coframe substitutions on psi.  Read psi^j in the
deformed coframe, each phi^{mu bar} standing for Phi^{mu bar}; then

    phi = S^{-1} (Phi - psi),    phi-bar = Phi-bar - conj(psi)(phi),

the second with each phi^mu in conj(psi^j) replaced by its row from the
first.  S = I - B conj(B), B the matrix of psi, is the module's one
matrix: row j of S is phi^j - psi^j(conj psi), psi^j with each
phi^{mu bar} replaced by conj(psi^mu).

The module also carries the operator route, so the two can be checked
against each other.  Deformation.dbar_t_formula is its one formula
(contractions and endomorphism inverses); del_t is its conjugate, since
d_t is real, so VectorForm only ever holds T^{1,0}-valued forms.

The bracket of T^{1,0}-valued forms is a stream of term products
(_bracket_terms), so a caller summing several brackets, as the Kuranishi
loop sums one degree's pairs, gathers them all into one sum of products
per output coefficient; vector_bracket gathers one bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

from . import linalg
from .coefficients import Coefficient, DenominatorVanishes, normalized_generators
from .exterior import (CoframeMap, Form, MultiIndex, VectorForm, _collect,
                       _wedge_terms)
from .geometry import Geometry
from .symbols import base_name, registry, with_partners


class MaurerCartanFails(ValueError):
    """Deformation is not integrable; generators cut the locus where it is."""

    def __init__(self, message, residual=None, generators=()):
        super().__init__(message)
        self.residual = residual or {}
        self.generators = tuple(generators)


class DegenerateAtLocus(ValueError):
    """The coframe change is singular at (or identically on) the locus."""

    def __init__(self, message, locus: str = ""):
        super().__init__(message)
        self.locus = locus


def _check_psi(psi: VectorForm, n: int) -> None:
    for leg, comp in psi.components.items():
        if not 1 <= leg <= n:
            raise ValueError(f"frame leg {leg} outside 1..{n}")
        if comp.bidegrees() - {(0, 1)}:
            raise ValueError(f"component of Z{leg} is not a (0,1)-form")


class Deformation:
    """Extension of a base geometry along psi = sum psi^j (x) Z_j.

    The coordinate change and its inverse are two CoframeMaps kept for the
    deformation's lifetime: each fills its table of coframe-monomial images
    on first use, so a monomial's image is one wedge of a stored prefix
    image by a row, built once, and rewriting a form multiplies each of its
    coefficients into a stored image.  The operator route keeps its
    correction maps the same way, one pair, built on first use.

    The change sends phi^j to phi^j + psi^j; its inverse is the two
    substitutions of the module docstring, after one n x n inverse, of S.
    Construction inverts S, so a singular S raises there, and forms only
    the (0,1) parts of the inverse's rows, a map of their own, from which
    mc_residual comes: deform(require_mc=False) builds neither coordinate
    map.  Each is built on first read, a full row of the inverse being its
    (1,0) part plus the stored (0,1) part, and full_structure fills the
    degree-2 images on first read, by geometry() or any caller.
    Each coefficient of the inverse is a product with S^{-1}, never a
    conjugate of it, so every entry shares the denominator atoms of
    S^{-1}: conjugating would make equal atoms distinct objects, which
    every later sum over a common denominator compares in full.  The
    change is singular exactly where S is, and that raises
    DegenerateAtLocus.
    """

    def __init__(self, base: Geometry, psi: VectorForm,
                 name: str | None = None, require_mc: bool = True):
        _check_psi(psi, base.n)
        self.base = base
        self.psi = psi
        self.name = name or f"{base.name}_deformed"
        n = base.n
        try:
            legs = {j: psi.components.get(j, Form.zero())
                    for j in range(1, n + 1)}
            holo = {j: Form.monomial((j,), ()) for j in legs}
            anti = {j: Form.monomial((), (j,)) for j in legs}
            conj_legs = {j: f.conjugate() for j, f in legs.items()}
            conj_psi = CoframeMap({("a", j): f for j, f in conj_legs.items()})
            # the rows of S as (1,0)-forms; the operator route reads E off them
            self._s_rows = {j: holo[j] - conj_psi.apply(f)
                            for j, f in legs.items()}
            try:
                s_inv = linalg.invert(linalg.transpose(
                    [{mi.holo[0] - 1: c for mi, c in row.terms()}
                     for row in self._s_rows.values()], n))
            except linalg.SingularMatrix as exc:
                raise DegenerateAtLocus(
                    f"{self.name}: deformed coframe does not span",
                    locus=str(exc),
                ) from None
            self._legs, self._conj_legs = legs, conj_legs
            self._s_inv_rows = linalg.transpose(s_inv, n)
            # the (0,1) parts of the inverse's rows: -S^{-1} psi, and
            # phi-bar minus conj(psi) pushed through those
            neg_legs = [-f for f in legs.values()]
            rows01 = {
                ("h", j + 1): Form.combination(
                    (neg_legs[k], c) for k, c in row.items())
                for j, row in enumerate(self._s_inv_rows)
            }
            pushed = CoframeMap(rows01)
            rows01.update({("a", j): anti[j] - pushed.apply(f)
                           for j, f in conj_legs.items()})
            self._rows01 = rows01
            self._endo_maps: tuple[CoframeMap, CoframeMap] | None = None
            self._d_phi_t = {j: base.d(holo[j] + f) for j, f in legs.items()}
            # bidegrees add under the wedge, so the (0,2) part of a 2-form's
            # image is its image under the rows' (0,1) parts
            residual_map = CoframeMap(rows01)
            self.mc_residual = {
                j: residual_map.apply(f) for j, f in self._d_phi_t.items()
            }
        except DenominatorVanishes as exc:
            raise self._blows_up(exc) from exc
        self._full_structure: dict[int, Form] | None = None
        self._geometry: Geometry | None = None
        if require_mc:
            self._require_integrable()

    def _blows_up(self, exc: DenominatorVanishes) -> DegenerateAtLocus:
        return DegenerateAtLocus(
            f"{self.name}: coefficient blows up", locus=str(exc))

    @cached_property
    def _to_deformed(self) -> CoframeMap:
        """The inverse of the coordinate change, built on first read: each
        row is its (1,0) part, S^{-1} phi or minus conj(psi) pushed through
        those, plus its stored (0,1) part."""
        holo10 = {("h", j + 1): Form({MultiIndex((k + 1,), ()): c
                                      for k, c in row.items()})
                  for j, row in enumerate(self._s_inv_rows)}
        pushed = CoframeMap(holo10)
        rows = {key: f + self._rows01[key] for key, f in holo10.items()}
        rows.update({("a", j): self._rows01["a", j] - pushed.apply(f)
                     for j, f in self._conj_legs.items()})
        return CoframeMap(rows)

    @cached_property
    def _to_base(self) -> CoframeMap:
        """The coordinate change phi -> phi + psi, built on first read."""
        return CoframeMap(
            {("h", j): Form.monomial((j,), ()) + f
             for j, f in self._legs.items()}
            | {("a", j): Form.monomial((), (j,)) + f
               for j, f in self._conj_legs.items()})

    @property
    def full_structure(self) -> dict[int, Form]:
        """d(Phi^j) in the deformed coframe, the deformed structure
        equations with their (0,2) residual; built on first read."""
        if self._full_structure is None:
            try:
                self._full_structure = {
                    j: self.to_deformed_coords(f)
                    for j, f in self._d_phi_t.items()
                }
            except DenominatorVanishes as exc:
                raise self._blows_up(exc) from exc
        return self._full_structure

    # -- integrability -------------------------------------------------------

    def is_integrable(self) -> bool:
        return all(f.is_zero() for f in self.mc_residual.values())

    def _require_integrable(self) -> None:
        """Raise MaurerCartanFails, with the residual and its generators,
        unless the deformation is integrable."""
        if not self.is_integrable():
            raise MaurerCartanFails(
                f"{self.name}: deformation is not integrable",
                residual=self.mc_residual,
                generators=self.mc_generators(),
            )

    def mc_generators(self) -> tuple[Coefficient, ...]:
        return normalized_generators(
            c for f in self.mc_residual.values() for _, c in f.terms()
        )

    # -- coordinate changes --------------------------------------------------

    def base_in_deformed(self, k: int, anti: bool = False) -> Form:
        """phi^k (or its conjugate) written in the deformed coframe.

        These rows are the exact inverse of the coframe change and are the
        workhorse for rewriting base-coframe identities after deformation.
        """
        return self._to_deformed.rows[("a" if anti else "h", k)]

    def to_deformed_coords(self, form: Form) -> Form:
        return self._to_deformed.apply(form)

    def to_base_coords(self, form: Form) -> Form:
        """A deformed-coframe form written in the base coframe: every slot
        phi^j (phi^{jbar}) picks up psi^j (conj psi^j).  Read on a base
        monomial pattern, this is the degree-preserving extension of a base
        (p,q)-form."""
        return self._to_base.apply(form)

    # -- the deformed geometry (structure-equation route) ---------------------

    def geometry(self) -> Geometry:
        self._require_integrable()
        if self._geometry is None:
            structure = {
                j: f for j, f in self.full_structure.items() if not f.is_zero()
            }
            chars = {
                nm: self.to_deformed_coords(dlog)
                for nm, dlog in self.base.chars.items()
            }
            self._geometry = Geometry(
                self.name,
                self.base.n,
                structure,
                chars=chars,
                constraints=self.base.constraints,
            )
        return self._geometry

    def specialize(self, bindings: dict) -> "Deformation":
        try:
            psi = self.psi.substitute(bindings)
        except DenominatorVanishes as exc:
            raise DegenerateAtLocus(
                f"{self.name}: parameter point is degenerate",
                locus=str(exc),
            ) from exc
        base = self.base
        # a key may be a symbol or a partner name, like the keys of
        # Coefficient.substitute
        bound = {base_name(nm) for nm in with_partners(bindings)}
        if set(base.free_parameters()) & bound:
            base = base.substitute(bindings)
        return Deformation(base, psi, name=self.name, require_mc=False)

    def extension_formula_check(self, alpha: Form) -> bool:
        """The two dbar_t pipelines agree on the extension of alpha: the
        deformed-coordinate split against the operator-level formula."""
        # the extension is the identity on monomial patterns, so alpha's
        # pattern doubles as e(alpha) in deformed coordinates
        return self.dbar_t_formula(alpha) == self.geometry().dbar(alpha)

    # -- operator route ------------------------------------------------------

    def dbar_t_formula(self, alpha: Form) -> Form:
        """dbar_t on monomial patterns, by the operator route:

            dbar_t = E^{-1} ([del, iota(psi)] + dbar) E,

        with E the slotwise map by I - conj(B) B = conj(S) on
        antiholomorphic slots: its row j is the conjugate of row j of S.
        E^{-1} = conj(S^{-1}) = I + conj(B) S^{-1} B is slotwise by the
        (0,1) part of base_in_deformed(j, anti=True), stored at
        construction as _rows01["a", j], so no coordinate map is built.
        It is read, not conjugated, so it keeps the denominator atoms of
        S^{-1}.  E and E^{-1} are built on first use and kept."""
        if self._endo_maps is None:
            self._endo_maps = (
                CoframeMap({
                    ("a", j): row.conjugate()
                    for j, row in self._s_rows.items()
                }),
                CoframeMap({("a", j): self._rows01["a", j]
                            for j in self._s_rows}),
            )
        fwd, bwd = self._endo_maps
        inner = fwd.apply(alpha)
        del_part, dbar_part = self.base.d_split(inner)
        return bwd.apply(
            self.base.del_op(self.psi.iota(inner))
            - self.psi.iota(del_part)
            + dbar_part
        )

    def del_t_formula(self, alpha: Form) -> Form:
        """del_t on monomial patterns: d_t is real, so del_t is the conjugate
        of dbar_t on the conjugate pattern."""
        return self.dbar_t_formula(alpha.conjugate()).conjugate()


def deform(base: Geometry, psi: VectorForm,
           require_mc: bool = True) -> Deformation:
    """Build the deformed structure for psi; raises MaurerCartanFails with
    the integrability generators unless require_mc is disabled."""
    return Deformation(base, psi, require_mc=require_mc)


# -- vector-form calculus -----------------------------------------------------


def _with_d(geom: Geometry, vf: VectorForm) -> tuple[VectorForm, dict]:
    """vf with the d table of its legs, leg -> the part of d(leg form)
    that _bracket_terms reads: what it takes, so a caller bracketing one
    form several times takes each df once.  The bracket reads df only
    through contract_holo, which kills the (0,q+1) part dbar f of a leg
    with no holomorphic factor, so such a leg keeps del f alone."""
    return vf, {j: geom.del_op(f) if all(not mi.holo for mi, _ in f.terms())
                else geom.d(f) for j, f in vf.components.items()}


def _bracket_terms(geom: Geometry, a, b, weight=1):
    """The term products of weight * [a, b] as (leg, monomial, x, y): the
    bracket's component on Z_leg is the sum of x*y*monomial, and a scalar
    weight is folded into y.  a and b are T^{1,0}-valued forms with the
    d tables of their legs, as _with_d gives them.

    [eta (x) X, rho (x) Y] = eta^rho (x) [X,Y] + eta^(L_X rho) (x) Y
                             + rho^(L_Y eta) (x) X,

    with the Lie derivative L_{Z_i} f = d(iota_i f) + iota_i(df) by the
    Cartan formula; iota_i df is read from the d tables for every pair
    the leg meets, which hold del f alone for a leg with no holomorphic
    factor.  The wedge terms of eta^rho are formed once per leg pair whose
    frame bracket [X,Y] is nonzero, and shared by its components.

    When b is a and every leg is a 1-form, as every Kuranishi term is, the
    leg pair (j, i) gives the same three terms as (i, j): both the wedge
    and the frame bracket change sign.  Then only pairs i <= j are formed,
    each i < j with weight 2.
    """
    (legs_a, d_a), (legs_b, d_b) = a, b
    symmetric = b is a and all(
        mi.degree == 1 for f in legs_a.components.values()
        for mi, _ in f.terms()
    )

    def lie(i: int, form: Form, d_form: Form) -> Form:
        # iota_i kills a (0,1)-form leg, and d of zero is zero
        inner = form.contract_holo(i)
        outer = d_form.contract_holo(i)
        return geom.d(inner) + outer if inner else outer

    # the factor of a pair, and of a pair standing for both orders; None
    # is one, which multiplies nothing
    single, double = (None if w == 1 else Coefficient.from_scalar(w)
                      for w in (weight, 2 * weight))
    for i, eta in legs_a.components.items():
        for j, rho in legs_b.components.items():
            if symmetric and j < i:
                continue
            w = double if symmetric and i < j else single
            frame = geom.bracket(("h", i), ("h", j))
            wedge = list(_wedge_terms(eta, rho)) if frame else None
            if wedge:
                for leg, c in frame.items():
                    if leg[0] != "h":
                        raise ValueError(
                            "frame brackets left the holomorphic span"
                        )
                    cw = c if w is None else c * w
                    for mi, x, y in wedge:
                        yield leg[1], mi, x, y * cw
            for leg, f, g in ((j, eta, lie(i, rho, d_b[j])),
                              (i, rho, lie(j, eta, d_a[i]))):
                for mi, x, y in _wedge_terms(f, g):
                    yield leg, mi, x, (y if w is None else y * w)


def _gather(terms) -> VectorForm:
    """The T^{1,0}-valued form whose component on Z_leg is the sum of
    x*y*monomial over the (leg, monomial, x, y) terms: one _collect per
    leg, so each output coefficient is normalized once."""
    legs: dict[int, list] = {}
    for leg, mi, x, y in terms:
        legs.setdefault(leg, []).append((mi, x, y))
    return VectorForm({leg: _collect(t) for leg, t in legs.items()})


def vector_bracket(geom: Geometry, a: VectorForm, b: VectorForm) -> VectorForm:
    """Bracket of T^{1,0}-valued forms, gathered from its term products
    (_bracket_terms): each output coefficient is one sum of products."""
    a_d = _with_d(geom, a)
    return _gather(_bracket_terms(geom, a_d,
                                  a_d if b is a else _with_d(geom, b)))


def dbar_vector(geom: Geometry, vf: VectorForm) -> VectorForm:
    """dbar on T^{1,0}-valued forms; the frame contributes through the
    (1,0)-parts of mixed brackets [conj Z_mu, Z_j]."""
    one = Coefficient.one()
    pairs: dict[int, list] = {}
    for j, eta in vf.components.items():
        pairs.setdefault(j, []).append((geom.dbar(eta), one))
        for mu in range(1, geom.n + 1):
            for leg, c in geom.bracket(("a", mu), ("h", j)).items():
                if leg[0] == "h":
                    # (-1)^{deg eta} eta^phi^mubar = phi^mubar^eta
                    pairs.setdefault(leg[1], []).append(
                        (Form.monomial((), (mu,)).wedge(eta), c))
    return VectorForm({a: Form.combination(p) for a, p in pairs.items()})


def mc_equation(geom: Geometry, psi: VectorForm) -> VectorForm:
    """Residual of the integrability equation dbar(psi) = [psi,psi]/2."""
    half = Coefficient.from_scalar(1) / 2
    return dbar_vector(geom, psi) - vector_bracket(geom, psi, psi) * half


# -- first-order obstructions along curves -------------------------------------


class BaseConditionFails(ValueError):
    """The base metric violates the del-dbar condition the theorem needs."""


class CurveOfMetrics:
    """Candidate family omega(t) along one distinguished real parameter.

    Coefficients are rational in the parameter; the derivative data is
    computed termwise, never numerically.
    """

    def __init__(self, omega: Form, param: str):
        registry.require_real(param)
        self.omega = omega
        self.param = param

    @staticmethod
    def constant(metric, param: str) -> "CurveOfMetrics":
        omega = (
            metric.fundamental_form()
            if hasattr(metric, "fundamental_form")
            else metric
        )
        return CurveOfMetrics(omega, param)

    def at_zero(self) -> Form:
        return self.omega.substitute({self.param: 0})

    def power_derivative_at_zero(self, k: int) -> Form:
        """(omega^k)'(0), the termwise parameter derivative."""
        power = self.omega.wedge_power(k)
        return power.param_derivative(self.param).substitute({self.param: 0})


@dataclass(frozen=True)
class CurveObstruction:
    """Outcome of the first-order test for one power k."""

    k: int
    lhs: Form
    rhs: Form
    imaginary: Form
    identity_residual: Form
    obstructed: object  # True | False | "conditional" | None (undecided)
    harmonic: bool | None = None
    generators: tuple[Coefficient, ...] = ()
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "power": self.k,
            "form": self.lhs.render(),
            "rhs": self.rhs.render(),
            "imaginary_part": self.imaginary.render(),
            "obstructed": self.obstructed,
            "generators": [g.render() for g in self.generators],
            "notes": list(self.notes),
        }


def curve_obstruction(geom: Geometry, phi_curve: VectorForm,
                      omega_curve: CurveOfMetrics, k: int):
    """First-order obstruction to carrying del dbar omega^k = 0 along a
    curve of complex structures through the base point.

    If a curve of metrics with the condition exists then
    2i Im(del iota_{phi(0)'} del)(omega^k) = del dbar (omega^k(0))', and in
    particular the Bott-Chern class of the imaginary part vanishes.  The
    class decision is exact on rigid geometries and goes through the
    harmonic certificate on families.
    """
    from .cohomology import bc_class, harmonic_certificate

    param = omega_curve.param
    at_zero = {param: 0}
    if not phi_curve.substitute(at_zero).is_zero():
        raise ValueError("curve of structures must vanish at the base point")
    omega_k = omega_curve.at_zero().wedge_power(k)
    if not geom.reduce(geom.ddbar(omega_k)).is_zero():
        raise BaseConditionFails(
            f"del dbar omega^{k} does not vanish at the base point"
        )
    tangent = phi_curve.param_derivative(param).substitute(at_zero)
    lhs = geom.del_op(tangent.iota(geom.del_op(omega_k)))
    imag = (lhs - lhs.conjugate()) * (Coefficient.i() / (-2))
    rhs = geom.ddbar(omega_curve.power_derivative_at_zero(k))
    identity_residual = geom.reduce((lhs - lhs.conjugate()) - rhs)
    reduced = geom.reduce(imag)
    report = partial(
        CurveObstruction, k=k, lhs=lhs, rhs=rhs, imaginary=imag,
        identity_residual=identity_residual,
    )
    if reduced.is_zero():
        return report(
            obstructed=False,
            notes=("imaginary part vanishes modulo constraints",),
        )
    if geom.free_parameters() or geom.constraints:
        harmonic, notes = harmonic_certificate(geom, reduced)
        if not harmonic:
            return report(
                obstructed=None, harmonic=False,
                notes=("class not certified at the invariant level",) + notes,
            )
        coefficients = [c for _, c in reduced.terms()]
        conditional = any(c.has_free_parameters() for c in coefficients)
        return report(
            obstructed="conditional" if conditional else True, harmonic=True,
            generators=normalized_generators(coefficients),
            notes=("harmonic representative: class vanishes exactly where "
                   "the form does",) + notes,
        )
    if bc_class(geom, imag).is_zero():
        return report(obstructed=False, notes=("Bott-Chern class vanishes",))
    return report(obstructed=True, notes=("Bott-Chern class is nonzero",))
