"""Deformation of invariant complex structures.

A deformation is encoded by a T^{1,0}-valued (0,1)-form psi; the deformed
(1,0)-coframe is Phi^j = phi^j + psi^j.  Re-expressing d(Phi^j) in the
deformed coframe gives the deformed structure equations exactly; their
(0,2) components are the integrability residual.  The module also carries
the operator-level route (contractions and endomorphism inverses) so the
two can be checked against each other.
"""

from __future__ import annotations

from . import linalg
from .coefficients import Coefficient, DenominatorVanishes, normalized_generators
from .exterior import CoframeMap, Form, MultiIndex, VectorForm
from .geometry import Geometry
from .symbols import REAL, registry


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
    if psi.mirrored:
        raise ValueError("deformation data must be T^{1,0}-valued")
    for leg, comp in psi.components.items():
        if not 1 <= leg <= n:
            raise ValueError(f"frame leg {leg} outside 1..{n}")
        if comp.bidegrees() - {(0, 1)}:
            raise ValueError(f"component of Z{leg} is not a (0,1)-form")


def _psi_matrix(psi: VectorForm, n: int) -> linalg.Matrix:
    zero = Coefficient.zero()
    rows = []
    for j in range(1, n + 1):
        comp = psi.components.get(j)
        rows.append([
            comp.coeff((), (mu,)) if comp is not None else zero
            for mu in range(1, n + 1)
        ])
    return rows


def _conj_matrix(m: linalg.Matrix) -> linalg.Matrix:
    return [[c.conjugate() for c in row] for row in m]


def _combination(row, holo_cols: int) -> Form:
    """Row of coefficients against (phi^1..phi^n, phi^{1bar}..phi^{nbar})."""
    return Form({
        MultiIndex((k + 1,), ()) if k < holo_cols
        else MultiIndex((), (k - holo_cols + 1,)): c
        for k, c in enumerate(row)
    })


class Deformation:
    """Extension of a base geometry along psi = sum psi^j (x) Z_j.

    The coordinate change and its inverse are two CoframeMaps kept for the
    deformation's lifetime: each fills its table of coframe-monomial images
    on first use, so a monomial's image is one wedge of a stored prefix
    image by a row, built once, and rewriting a form multiplies each of its
    coefficients into a stored image.  The operator route keeps its
    correction maps the same way, one pair per side, built on first use.
    """

    def __init__(self, base: Geometry, psi: VectorForm,
                 name: str | None = None, require_mc: bool = True):
        _check_psi(psi, base.n)
        self.base = base
        self.psi = psi
        self.name = name or f"{base.name}_deformed"
        n = base.n
        try:
            b = _psi_matrix(psi, n)
            bc = _conj_matrix(b)
            ident = linalg.identity(n)
            change = [
                [*ident[j], *b[j]] for j in range(n)
            ] + [
                [*bc[j], *ident[j]] for j in range(n)
            ]
            try:
                self._inverse = linalg.invert(change)
            except linalg.SingularMatrix as exc:
                raise DegenerateAtLocus(
                    f"{self.name}: deformed coframe does not span",
                    locus=str(exc),
                ) from None
            self._matrix = b
            phi_t = {
                j: Form.monomial((j,), ()) + psi.components.get(j, Form.zero())
                for j in range(1, n + 1)
            }
            deformed_rows = {("h", j): f for j, f in phi_t.items()}
            deformed_rows.update(
                {("a", j): f.conjugate() for j, f in phi_t.items()}
            )
            self._to_base = CoframeMap(deformed_rows)
            base_rows = {
                ("h", k + 1): _combination(self._inverse[k], n)
                for k in range(n)
            }
            base_rows.update({
                ("a", k + 1): _combination(self._inverse[n + k], n)
                for k in range(n)
            })
            self._to_deformed = CoframeMap(base_rows)
            self._endo_maps: dict[bool, tuple[CoframeMap, CoframeMap]] = {}
            self.full_structure = {
                j: self.to_deformed_coords(base.d(phi_t[j]))
                for j in range(1, n + 1)
            }
        except DenominatorVanishes as exc:
            raise DegenerateAtLocus(
                f"{self.name}: coefficient blows up", locus=str(exc)
            ) from exc
        self.mc_residual = {
            j: f.component(0, 2) for j, f in self.full_structure.items()
        }
        self._geometry: Geometry | None = None
        if require_mc and not self.is_integrable():
            raise MaurerCartanFails(
                f"{self.name}: deformation is not integrable",
                residual=self.mc_residual,
                generators=self.mc_generators(),
            )

    # -- integrability -------------------------------------------------------

    def is_integrable(self) -> bool:
        return all(f.is_zero() for f in self.mc_residual.values())

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
        return self._to_base.apply(form)

    def extension(self, alpha: Form) -> Form:
        """The degree-preserving extension of a base (p,q)-form, written in
        the base coframe: every slot phi^j (phi^{jbar}) picks up psi^j
        (conj psi^j).  In deformed coordinates this map is the identity on
        monomial patterns."""
        return self.to_base_coords(alpha)

    # -- the deformed geometry (structure-equation route) ---------------------

    def geometry(self) -> Geometry:
        if not self.is_integrable():
            raise MaurerCartanFails(
                f"{self.name}: deformation is not integrable",
                residual=self.mc_residual,
                generators=self.mc_generators(),
            )
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
        if set(base.free_parameters()) & set(bindings):
            base = base.substitute(bindings)
        return Deformation(base, psi, name=self.name, require_mc=False)

    def deformed_split(self, alpha: Form) -> tuple[Form, Form]:
        """(del_t part, dbar_t part) of d on the extension of alpha.

        The input pattern, given in base monomials, is rewritten verbatim
        into deformed monomials (the degree-preserving extension acts as
        the identity on patterns), then d is applied through the deformed
        structure equations and projected by the new bigrading.
        """
        return self.geometry().d_split(alpha)

    def extension_formula_check(self, alpha: Form) -> bool:
        """The two dbar_t pipelines agree on the extension of alpha: the
        deformed-coordinate split against the operator-level formula."""
        _, dbar_part = self.deformed_split(alpha)
        # the extension is the identity on monomial patterns, so alpha's
        # pattern doubles as e(alpha) in deformed coordinates
        return self.dbar_t_formula(alpha) == dbar_part

    # -- operator route ------------------------------------------------------

    def _endo_mappings(self, anti: bool) -> tuple[CoframeMap, CoframeMap]:
        """Slotwise maps by I - B conj(B) (holomorphic side) or
        I - conj(B) B (antiholomorphic side) and by its inverse, which is
        the diagonal block of the inverse coframe change on that side: both
        are Schur complements of an identity block of [[I, B], [conj B, I]],
        so they are invertible wherever the change is (Sylvester).  Built
        on first use and kept."""
        maps = self._endo_maps.get(anti)
        if maps is not None:
            return maps
        n = self.base.n
        b = self._matrix
        bc = _conj_matrix(b)
        prod = linalg.mat_mul(bc, b) if anti else linalg.mat_mul(b, bc)
        one, zero = Coefficient.one(), Coefficient.zero()
        side, off = ("a", n) if anti else ("h", 0)
        fwd, bwd = {}, {}
        for j in range(n):
            endo_row = [
                (one if j == k else zero) - prod[j][k] for k in range(n)
            ]
            fwd[(side, j + 1)] = _combination([zero] * off + endo_row, n)
            inverse_row = self._inverse[off + j][off:off + n]
            bwd[(side, j + 1)] = _combination([zero] * off + inverse_row, n)
        maps = self._endo_maps[anti] = CoframeMap(fwd), CoframeMap(bwd)
        return maps

    def _t_formula(self, alpha: Form, anti: bool) -> Form:
        """Operator route on monomial patterns: conjugate the commutator of
        the other base operator with the contraction, plus the base operator
        itself, by the correction endomorphism applied slotwise.  For dbar_t
        (anti) that is [del, iota(psi)] + dbar with (I - conj(psi) psi) on the
        antiholomorphic side; for del_t it is [dbar, iota(conj psi)] + del
        with (I - psi conj(psi)) on the holomorphic side."""
        fwd, bwd = self._endo_mappings(anti)
        contraction = self.psi if anti else self.psi.conjugate()
        own, other = (1, 0) if anti else (0, 1)
        inner = fwd.apply(alpha)
        parts = self.base.d_split(inner)
        mid = (
            self.base.d_split(contraction.iota(inner))[other]
            - contraction.iota(parts[other])
            + parts[own]
        )
        return bwd.apply(mid)

    def del_t_formula(self, alpha: Form) -> Form:
        """del_t on monomial patterns, by the operator route."""
        return self._t_formula(alpha, anti=False)

    def dbar_t_formula(self, alpha: Form) -> Form:
        """dbar_t on monomial patterns, by the operator route."""
        return self._t_formula(alpha, anti=True)


def deform(base: Geometry, psi: VectorForm, name: str | None = None,
           require_mc: bool = True) -> Deformation:
    """Build the deformed structure for psi; raises MaurerCartanFails with
    the integrability generators unless require_mc is disabled."""
    return Deformation(base, psi, name=name, require_mc=require_mc)


# -- vector-form calculus -----------------------------------------------------


def lie_derivative(geom: Geometry, leg, form: Form) -> Form:
    """Lie derivative along a frame vector, by the Cartan formula."""
    flavor, idx = leg
    if flavor == "h":
        inner = form.contract_holo(idx)
        outer = geom.d(form).contract_holo(idx)
    else:
        inner = form.contract_anti(idx)
        outer = geom.d(form).contract_anti(idx)
    return geom.d(inner) + outer


def vector_bracket(geom: Geometry, a: VectorForm, b: VectorForm) -> VectorForm:
    """Bracket of T^{1,0}-valued forms:

    [eta (x) X, rho (x) Y] = eta^rho (x) [X,Y] + eta^(L_X rho) (x) Y
                             + rho^(L_Y eta) (x) X.
    """
    if a.mirrored or b.mirrored:
        raise ValueError("bracket is defined for T^{1,0}-valued forms")
    one = Coefficient.one()
    pairs: dict[int, list] = {}
    for i, eta in a.components.items():
        for j, rho in b.components.items():
            wedge = eta.wedge(rho)
            if not wedge.is_zero():
                for leg, c in geom.bracket(("h", i), ("h", j)).items():
                    if leg[0] != "h":
                        raise ValueError(
                            "frame brackets left the holomorphic span"
                        )
                    pairs.setdefault(leg[1], []).append((wedge, c))
            pairs.setdefault(j, []).append(
                (eta.wedge(lie_derivative(geom, ("h", i), rho)), one))
            pairs.setdefault(i, []).append(
                (rho.wedge(lie_derivative(geom, ("h", j), eta)), one))
    return VectorForm({a: Form.combination(p) for a, p in pairs.items()})


def dbar_vector(geom: Geometry, vf: VectorForm) -> VectorForm:
    """dbar on T^{1,0}-valued forms; the frame contributes through the
    (1,0)-parts of mixed brackets [conj Z_mu, Z_j]."""
    if vf.mirrored:
        raise ValueError("dbar_vector expects T^{1,0}-valued forms")
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
        try:
            sym = registry.lookup(param)
        except KeyError:
            sym = None
        if sym is None or sym.kind != REAL:
            raise ValueError("curve parameter must be a registered real symbol")
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
    if reduced.is_zero():
        return CurveObstruction(
            k, lhs, rhs, imag, identity_residual, None, False, (),
            ("imaginary part vanishes modulo constraints",),
        )
    if geom.free_parameters() or geom.constraints:
        harmonic, notes = harmonic_certificate(geom, reduced)
        if not harmonic:
            return CurveObstruction(
                k, lhs, rhs, imag, identity_residual, False, None, (),
                ("class not certified at the invariant level",) + notes,
            )
        coefficients = [c for _, c in reduced.terms()]
        conditional = any(c.has_free_parameters() for c in coefficients)
        verdict = "conditional" if conditional else True
        return CurveObstruction(
            k, lhs, rhs, imag, identity_residual, True, verdict,
            normalized_generators(coefficients),
            ("harmonic representative: class vanishes exactly where the "
             "form does",) + notes,
        )
    cls = bc_class(geom, imag)
    if cls.is_zero():
        return CurveObstruction(
            k, lhs, rhs, imag, identity_residual, None, False, (),
            ("Bott-Chern class vanishes",),
        )
    return CurveObstruction(
        k, lhs, rhs, imag, identity_residual, None, True, (),
        ("Bott-Chern class is nonzero",),
    )


class CurveObstruction:
    """Outcome of the first-order test for one power k."""

    def __init__(self, k, lhs, rhs, imaginary, identity_residual,
                 harmonic, obstructed, generators, notes=()):
        self.k = k
        self.lhs = lhs
        self.rhs = rhs
        self.imaginary = imaginary
        self.identity_residual = identity_residual
        self.harmonic = harmonic
        self.obstructed = obstructed
        self.generators = tuple(generators)
        self.notes = tuple(notes)

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
