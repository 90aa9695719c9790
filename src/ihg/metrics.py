"""Invariant Hermitian metrics and special-metric condition checkers.

A metric is stored as the Hermitian matrix h with fundamental form
omega = i * sum h_jk phi^j ^ conj(phi^k); all conditions reduce to exact
residual forms (del dbar omega^k = 0, d omega^{n-1} = 0, ...).  Verdicts
on families come with constraint generators cutting out the locus where
the condition holds.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass

from .coefficients import Coefficient, DenominatorVanishes, normalized_generators
from .cohomology import solve_dbar
from .exterior import Form, MultiIndex
from .geometry import Geometry, check_nilpotent_shape
from .symbols import CHAR, CONJ, PARAM, registry


class ShapeMismatch(ValueError):
    pass


@dataclass(frozen=True)
class InvariantMetric:
    """Hermitian matrix h; conjugate symmetry is enforced at build time.

    Positivity of symbolic entries is only certified numerically at
    sample parameter points (positive_at); residual computations never
    need it.
    """

    h: tuple[tuple[Coefficient, ...], ...]

    def __post_init__(self):
        n = len(self.h)
        for row in self.h:
            if len(row) != n:
                raise ValueError("metric matrix must be square")
        for j in range(n):
            for k in range(n):
                if self.h[j][k].conjugate() != self.h[k][j]:
                    raise ValueError(
                        f"metric entry ({j + 1},{k + 1}) breaks Hermitian "
                        "symmetry"
                    )

    @property
    def n(self) -> int:
        return len(self.h)

    @staticmethod
    def identity(n: int) -> "InvariantMetric":
        one, zero = Coefficient.one(), Coefficient.zero()
        return InvariantMetric(tuple(
            tuple(one if j == k else zero for k in range(n))
            for j in range(n)
        ))

    @staticmethod
    def diagonal(entries) -> "InvariantMetric":
        entries = [
            e if isinstance(e, Coefficient) else Coefficient.from_scalar(e)
            for e in entries
        ]
        zero = Coefficient.zero()
        n = len(entries)
        return InvariantMetric(tuple(
            tuple(entries[j] if j == k else zero for k in range(n))
            for j in range(n)
        ))

    @staticmethod
    def generic(n: int, prefix: str = "h") -> "InvariantMetric":
        """Fully symbolic Hermitian metric: real diagonal, complex
        off-diagonal pairs."""
        rows = [[None] * n for _ in range(n)]
        for j in range(n):
            nm = f"{prefix}{j + 1}{j + 1}"
            registry.ensure_real(nm)
            rows[j][j] = Coefficient.symbol(nm)
        for j in range(n):
            for k in range(j + 1, n):
                nm = f"{prefix}{j + 1}{k + 1}"
                registry.ensure_pair(nm)
                c = Coefficient.symbol(nm)
                rows[j][k] = c
                rows[k][j] = c.conjugate()
        return InvariantMetric(tuple(tuple(r) for r in rows))

    def fundamental_form(self) -> Form:
        i = Coefficient.i()
        return Form({
            MultiIndex((j + 1,), (k + 1,)): i * c
            for j, row in enumerate(self.h)
            for k, c in enumerate(row)
        })

    def positive_at(self, point: dict[str, complex]) -> bool:
        """Leading principal minors at a numeric sample point."""
        values = _fill_conjugates(point)
        n = self.n
        numeric = [
            [self.h[j][k].numeric(values) for k in range(n)] for j in range(n)
        ]
        for size in range(1, n + 1):
            minor = _det([row[:size] for row in numeric[:size]])
            if abs(minor.imag) > 1e-9 or minor.real <= 0:
                return False
        return True


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0j
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(sub)
    return total


def _fill_conjugates(point: dict[str, complex]) -> dict[str, complex]:
    out = dict(point)
    for nm, val in list(point.items()):
        sym = registry.lookup(nm)
        if sym.kind == PARAM and sym.conjugate_of not in out:
            out[sym.conjugate_of] = complex(val).conjugate()
    return out


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    holds: object  # True | False | "conditional"
    residual: Form
    constraint_generators: tuple[Coefficient, ...] = ()
    witness: Form | None = None
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        out = {
            "condition": self.condition,
            "holds": self.holds,
            "residual": self.residual.render(),
        }
        if self.constraint_generators:
            out["constraint_generators"] = [
                c.render() for c in self.constraint_generators
            ]
        if self.witness is not None:
            out["witness"] = self.witness.render()
        if self.notes:
            out["notes"] = list(self.notes)
        return out


CONDITIONS = (
    "skt",
    "astheno",
    "balanced",
    "gauduchon",
    "k_pluriclosed",
    "ft_pair",
)


def _classify(condition: str, residual: Form, notes=()) -> ConditionReport:
    if residual.is_zero():
        return ConditionReport(condition, True, residual, notes=tuple(notes))
    coefficients = [c for _, c in residual.terms()]
    if any(c.has_free_parameters() for c in coefficients):
        return ConditionReport(
            condition,
            "conditional",
            residual,
            constraint_generators=normalized_generators(coefficients),
            notes=tuple(notes),
        )
    return ConditionReport(condition, False, residual, notes=tuple(notes))


def check_condition(
    geom: Geometry,
    m: InvariantMetric,
    which: str,
    k: int | None = None,
    use_constraints: bool = True,
) -> ConditionReport:
    which = which.lower()
    if m.n != geom.n:
        raise ValueError("metric dimension does not match the geometry")
    n = geom.n
    omega = m.fundamental_form()
    notes = []
    if which == "skt":
        residual = geom.ddbar(omega)
    elif which == "astheno":
        if n < 3:
            residual = Form.zero()
            notes.append("void in dimension < 3")
        else:
            residual = geom.ddbar(omega.wedge_power(n - 2))
    elif which == "balanced":
        residual = geom.d(omega.wedge_power(n - 1))
    elif which == "gauduchon":
        residual = geom.ddbar(omega.wedge_power(n - 1))
    elif which == "k_pluriclosed":
        if k is None or not 1 <= k <= n:
            raise ValueError("k_pluriclosed needs 1 <= k <= n")
        residual = geom.ddbar(omega.wedge_power(k))
    elif which == "ft_pair":
        residual = geom.ddbar(omega)
        if n >= 2:
            residual = residual + geom.ddbar(omega.wedge_power(2))
    else:
        raise ValueError(f"unknown condition {which!r}")
    if use_constraints and geom.constraints:
        residual = geom.reduce(residual)
        notes.append("reduced modulo attached constraint ideal")
    return _classify(which, residual, notes)


def pluriclosed_criterion(geom: Geometry) -> Coefficient:
    """SKT existence value for a 3-dim structure concentrated in d phi^3.

    For d phi^3 = s12 phi^{12} + s11' phi^{1 1bar} + s12' phi^{1 2bar}
    + s21' phi^{2 1bar} + s22' phi^{2 2bar} the value is

        |s21'|^2 + |s12'|^2 + |s12|^2 - 2 Re(conj(s22') s11')

    and invariant SKT metrics exist exactly on its zero locus; off it
    none exist (the dichotomy is all-or-none).
    """
    if geom.n != 3:
        raise ShapeMismatch("criterion applies to 3-dim structures only")
    if not check_nilpotent_shape(geom).matches:
        raise ShapeMismatch(
            f"{geom.name}: criterion needs d(phi^1) = d(phi^2) = 0 and "
            "d(phi^3) free of phi^3"
        )
    d3 = geom.structure[3]
    s12 = d3.coeff((1, 2), ())
    s11b = d3.coeff((1,), (1,))
    s12b = d3.coeff((1,), (2,))
    s21b = d3.coeff((2,), (1,))
    s22b = d3.coeff((2,), (2,))
    return (
        s21b * s21b.conjugate()
        + s12b * s12b.conjugate()
        + s12 * s12.conjugate()
        - s22b.conjugate() * s11b
        - s22b * s11b.conjugate()
    )


def all_or_none_skt(
    geom: Geometry, use_constraints: bool = True
) -> ConditionReport:
    """Dichotomy for towers where only d(phi^n) is nonzero and omits the
    top index: every invariant metric is SKT iff del dbar phi^{n nbar}
    vanishes.  When it does, the del-dbar conditions on omega and omega^2
    are certified for a fully symbolic metric as well.
    """
    shape = check_nilpotent_shape(geom)
    if not shape.matches:
        raise ShapeMismatch(
            f"{geom.name}: lower differentials must vanish and d(phi^n) "
            "must omit the top index"
        )
    n = geom.n
    residual = geom.ddbar(Form.monomial((n,), (n,)))
    notes = []
    if use_constraints and geom.constraints:
        residual = geom.reduce(residual)
        notes.append("reduced modulo attached constraint ideal")
    report = _classify("all_or_none_skt", residual, notes)
    if report.holds is True:
        generic = InvariantMetric.generic(n)
        ft = check_condition(
            geom, generic, "ft_pair", use_constraints=use_constraints
        )
        extra = (
            "del-dbar conditions on omega and omega^2 hold for every "
            "invariant metric"
            if ft.holds is True
            else "symbolic del-dbar certification failed"
        )
        report = ConditionReport(
            report.condition,
            report.holds,
            report.residual,
            report.constraint_generators,
            report.witness,
            report.notes + (extra,),
        )
    return report


@dataclass(frozen=True)
class ObstructionReport:
    obstructed: bool
    component: Form
    diagonal: tuple[tuple[MultiIndex, Coefficient], ...] = ()
    sign: int = 0
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "obstructed": self.obstructed,
            "component": self.component.render(),
            "diagonal": [
                [mi.render(), c.render()] for mi, c in self.diagonal
            ],
            "sign": self.sign,
            "notes": list(self.notes),
        }


def _sample_points(coefficients, count=5, seed=11):
    """Random small parameter bindings for every symbol appearing in the
    given coefficients; characters go on the unit circle."""
    names: set[str] = set()
    for c in coefficients:
        names.update(c.free_symbols())
    base: list[str] = []
    chars: list[str] = []
    for nm in sorted(names):
        sym = registry.lookup(nm)
        if sym.kind == CHAR:
            chars.append(nm)
        elif sym.kind == CONJ:
            base.append(sym.conjugate_of)
        else:
            base.append(nm)
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        point = {}
        for nm in sorted(set(base)):
            sym = registry.lookup(nm)
            if sym.kind == PARAM:
                val = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
                point[nm] = val
                point[sym.conjugate_of] = val.conjugate()
            else:
                point[nm] = complex(rng.uniform(-0.4, 0.4), 0.0)
        for nm in chars:
            point[nm] = cmath.exp(1j * rng.uniform(0, 6.28))
        points.append(point)
    return points


def _certify_sign(coefficients, samples) -> tuple[int, str]:
    """Common strict sign of real-valued coefficients at sample points;
    returns (0, reason) when certification fails."""
    overall = 0
    for c in coefficients:
        for point in samples:
            try:
                val = c.numeric(point)
            except (DenominatorVanishes, ZeroDivisionError):
                return 0, "sample point hit a denominator zero"
            if abs(val.imag) > 1e-9:
                return 0, "coefficient is not real at a sample point"
            if abs(val.real) < 1e-12:
                continue
            sign = 1 if val.real > 0 else -1
            if overall == 0:
                overall = sign
            elif overall != sign:
                return 0, "coefficients change sign"
    if overall == 0:
        return 0, "coefficients vanish at every sample point"
    return overall, f"sign certified at {len(samples)} sample points"


def pluriclosed_obstruction(
    geom: Geometry, alpha: Form, p: int, samples=None
) -> ObstructionReport:
    """No p-pluriclosed metric exists when (del dbar alpha)^{n-p,n-p} is a
    same-sign diagonal combination sum c_I phi^{I Ibar} with c_I real.

    Only that diagonal pattern is detected; anything else reports
    obstructed=False (inconclusive), never a false positive.
    """
    n = geom.n
    comp = geom.ddbar(alpha).component(n - p, n - p)
    if comp.is_zero():
        return ObstructionReport(
            False, comp, notes=("component vanishes",)
        )
    terms = []
    for mi, c in comp.terms():
        if mi.holo != mi.anti:
            return ObstructionReport(
                False, comp, notes=("not a diagonal combination",)
            )
        if c != c.conjugate():
            return ObstructionReport(
                False, comp, notes=("coefficient is not real",)
            )
        terms.append((mi, c))
    coefficients = [c for _, c in terms]
    if samples is None:
        samples = _sample_points(coefficients)
    sign, why = _certify_sign(coefficients, samples)
    return ObstructionReport(
        obstructed=sign != 0,
        component=comp,
        diagonal=tuple(terms),
        sign=sign,
        notes=(why,),
    )


@dataclass(frozen=True)
class PositivePartReport:
    positive_11_part: bool
    form: Form
    sign: int = 0
    notes: tuple[str, ...] = ()


def balanced_obstruction(
    geom: Geometry, combination: dict[int, Coefficient], samples=None
) -> PositivePartReport:
    """(1,1)-part of sum c_j d(phi^j); a positive diagonal outcome rules
    out balanced metrics (the (1,1)-part of an exact form cannot be
    positive on a balanced manifold)."""
    total = Form.combination(
        (geom.structure[j], c) for j, c in combination.items()
    )
    part = total.component(1, 1)
    if part.is_zero():
        return PositivePartReport(False, part, notes=("zero form",))
    terms = list(part.terms())
    for mi, c in terms:
        if mi.holo != mi.anti or c != c.conjugate():
            return PositivePartReport(
                False, part, notes=("not a real diagonal combination",)
            )
    coefficients = [c for _, c in terms]
    if samples is None:
        samples = _sample_points(coefficients)
    sign, why = _certify_sign(coefficients, samples)
    return PositivePartReport(
        positive_11_part=sign == 1,
        form=part,
        sign=sign,
        notes=(why,),
    )


def strongly_gauduchon(geom: Geometry, m: InvariantMetric) -> ConditionReport:
    """Solve dbar(beta) = del(omega^{n-1}) over invariant forms.

    A witness certifies the condition; failure is only invariant-level
    (non-invariant primitives are out of reach here).
    """
    n = geom.n
    rhs = geom.del_op(m.fundamental_form().wedge_power(n - 1))
    if rhs.is_zero():
        return ConditionReport(
            "strongly_gauduchon",
            True,
            rhs,
            witness=Form.zero(),
            notes=("del omega^{n-1} already vanishes",),
        )
    beta = solve_dbar(geom, rhs, n, n - 2)
    if beta is None:
        return ConditionReport(
            "strongly_gauduchon",
            False,
            rhs,
            notes=("invariant-level only: no invariant dbar-primitive",),
        )
    residual = rhs - geom.dbar(beta)
    return ConditionReport(
        "strongly_gauduchon",
        residual.is_zero(),
        residual,
        witness=beta,
    )
