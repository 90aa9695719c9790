"""Invariant Hermitian metrics and special-metric condition checkers.

A metric is stored as the Hermitian matrix h with fundamental form
omega = i * sum h_jk phi^j ^ conj(phi^k); all conditions reduce to exact
residual forms (del dbar omega^k = 0, d omega^{n-1} = 0, ...).  Verdicts
on families come with constraint generators cutting out the locus where
the condition holds.  Obstruction verdicts rest on exact signs
(Coefficient.certified_sign): a sign no exact rule decides leaves the
verdict inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .coefficients import Coefficient, normalized_generators
from .cohomology import solve_dbar
from .exterior import Form, MultiIndex
from .geometry import Geometry, check_nilpotent_shape
from .symbols import registry


class ShapeMismatch(ValueError):
    pass


@dataclass(frozen=True)
class InvariantMetric:
    """Hermitian matrix h; conjugate symmetry is enforced at build time.

    Positivity of h is not checked: residual computations never need it.

    power(k) builds omega^k once per metric into a memo that takes no
    part in equality, hashing or repr.  The memo is keyed by k within the
    registry's lifetime, so no power is read across a reset(): after one,
    power raises StaleCoefficient, as the metric's own entries do.
    """

    h: tuple[tuple[Coefficient, ...], ...]
    _powers: dict[tuple[object, int], Form] = field(
        default_factory=dict, init=False, compare=False, hash=False,
        repr=False,
    )

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
    def generic(n: int) -> "InvariantMetric":
        """Fully symbolic Hermitian metric: real diagonal, complex
        off-diagonal pairs, entry (j,k) named hjk."""
        rows = [[None] * n for _ in range(n)]
        for j in range(n):
            nm = f"h{j + 1}{j + 1}"
            registry.ensure_real(nm)
            rows[j][j] = Coefficient.symbol(nm)
        for j in range(n):
            for k in range(j + 1, n):
                nm = f"h{j + 1}{k + 1}"
                registry.ensure_pair(nm)
                c = Coefficient.symbol(nm)
                rows[j][k] = c
                rows[k][j] = c.conjugate()
        return InvariantMetric(tuple(tuple(r) for r in rows))

    def power(self, k: int) -> Form:
        """omega^k, built on first use and read from the memo after."""
        key = (registry.context().lifetime, k)
        form = self._powers.get(key)
        if form is None:
            # after a registry reset the entries of h raise StaleCoefficient
            form = self._powers[key] = self.fundamental_form().wedge_power(k)
        return form

    def fundamental_form(self) -> Form:
        i = Coefficient.i()
        return Form({
            MultiIndex((j + 1,), (k + 1,)): i * c
            for j, row in enumerate(self.h)
            for k, c in enumerate(row)
        })


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


def _classify(
    geom: Geometry, condition: str, residual: Form, notes=()
) -> ConditionReport:
    """The report on residual, first reduced modulo the geometry's
    constraint ideal."""
    notes = tuple(notes)
    if geom.constraints:
        residual = geom.reduce(residual)
        notes += ("reduced modulo attached constraint ideal",)
    if residual.is_zero():
        return ConditionReport(condition, True, residual, notes=notes)
    coefficients = [c for _, c in residual.terms()]
    if any(c.has_free_parameters() for c in coefficients):
        return ConditionReport(
            condition,
            "conditional",
            residual,
            constraint_generators=normalized_generators(coefficients),
            notes=notes,
        )
    return ConditionReport(condition, False, residual, notes=notes)


def check_condition(
    geom: Geometry,
    m: InvariantMetric,
    which: str,
    k: int | None = None,
) -> ConditionReport:
    which = which.lower()
    if m.n != geom.n:
        raise ValueError("metric dimension does not match the geometry")
    if k is not None and which != "k_pluriclosed":
        raise ValueError(f"k is a parameter of k_pluriclosed, not {which!r}")
    n = geom.n
    notes = []
    if which == "skt":
        residual = geom.ddbar(m.power(1))
    elif which == "astheno":
        if n < 3:
            residual = Form.zero()
            notes.append("void in dimension < 3")
        else:
            residual = geom.ddbar(m.power(n - 2))
    elif which == "balanced":
        residual = geom.d(m.power(n - 1))
    elif which == "gauduchon":
        residual = geom.ddbar(m.power(n - 1))
    elif which == "k_pluriclosed":
        if k is None or not 1 <= k <= n:
            raise ValueError("k_pluriclosed needs 1 <= k <= n")
        residual = geom.ddbar(m.power(k))
    elif which == "ft_pair":
        residual = geom.ddbar(m.power(1))
        if n >= 2:
            residual = residual + geom.ddbar(m.power(2))
    else:
        raise ValueError(f"unknown condition {which!r}")
    return _classify(geom, which, residual, notes)


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
    if not check_nilpotent_shape(geom):
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


def all_or_none_skt(geom: Geometry) -> ConditionReport:
    """Dichotomy for towers where only d(phi^n) is nonzero and omits the
    top index: every invariant metric is SKT iff del dbar phi^{n nbar}
    vanishes.  When it does, the del-dbar conditions on omega and omega^2
    are certified for a fully symbolic metric as well.
    """
    if not check_nilpotent_shape(geom):
        raise ShapeMismatch(
            f"{geom.name}: lower differentials must vanish and d(phi^n) "
            "must omit the top index"
        )
    n = geom.n
    residual = geom.ddbar(Form.monomial((n,), (n,)))
    report = _classify(geom, "all_or_none_skt", residual)
    if report.holds is True:
        generic = InvariantMetric.generic(n)
        ft = check_condition(geom, generic, "ft_pair")
        extra = (
            "del-dbar conditions on omega and omega^2 hold for every "
            "invariant metric"
            if ft.holds is True
            else "symbolic del-dbar certification failed"
        )
        report = replace(report, notes=report.notes + (extra,))
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


def _diagonal_sign(
    component: Form, wanted: tuple[int, ...]
) -> ObstructionReport:
    """Obstructed when component is sum c_I phi^{I Ibar} with real c_I of
    one exact sign (Coefficient.certified_sign) that is among wanted; the
    notes name the locus off which the sign is strict.  Anything else is
    inconclusive: obstructed=False."""
    if component.is_zero():
        return ObstructionReport(False, component, notes=("component vanishes",))
    terms = tuple(component.terms())
    if any(mi.holo != mi.anti or c != c.conjugate() for mi, c in terms):
        return ObstructionReport(
            False, component, notes=("not a real diagonal combination",)
        )
    signs, locus = set(), []
    for _, c in terms:
        sign, zeros = c.certified_sign()
        signs.add(sign)
        locus += [z for z in zeros if not any(z == seen for seen in locus)]
    sign = signs.pop() if len(signs) == 1 else 0
    if not sign:
        note = "no common exact sign"
    elif locus:
        note = "exact sign off " + " and off ".join(
            f"{z.render()} = 0" for z in locus
        )
    else:
        note = "exact sign everywhere"
    return ObstructionReport(sign in wanted, component, terms, sign, (note,))


def pluriclosed_obstruction(
    geom: Geometry, alpha: Form, p: int
) -> ObstructionReport:
    """No p-pluriclosed metric exists where (del dbar alpha)^{n-p,n-p} is a
    diagonal combination sum c_I phi^{I Ibar} with real c_I of one strict
    sign.  The sign is decided exactly and the notes name where it holds;
    a pattern or sign the exact rules miss reports obstructed=False
    (inconclusive)."""
    comp = geom.ddbar(alpha).component(geom.n - p, geom.n - p)
    return _diagonal_sign(comp, (1, -1))


def balanced_obstruction(
    geom: Geometry, combination: dict[int, Coefficient]
) -> ObstructionReport:
    """(1,1)-part of sum c_j d(phi^j); where it is a positive diagonal
    combination no balanced metric exists (the (1,1)-part of an exact form
    cannot be positive on a balanced manifold)."""
    total = Form.combination(
        (geom.structure[j], c) for j, c in combination.items()
    )
    return _diagonal_sign(total.component(1, 1), (1,))


def strongly_gauduchon(geom: Geometry, m: InvariantMetric) -> ConditionReport:
    """Solve dbar(beta) = del(omega^{n-1}) over invariant forms.

    A witness certifies the condition; failure is only invariant-level
    (non-invariant primitives are out of reach here).
    """
    n = geom.n
    rhs = geom.del_op(m.power(n - 1))
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
