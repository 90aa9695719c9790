"""Built-in geometries.

Five entries: two nilmanifold/solvmanifold structures with explicit
deformation literature behind them (iwasawa, nakamura_3b), the
4-dimensional solvmanifold fibered over a torus with Iwasawa fiber
(solv4d), and two parametric families (nilfamily_ft, fps_family) whose
structure coefficients are free Gaussian-rational parameters carrying an
attached constraint ideal.

Every entry is rebuilt from scratch on each call; symbol registration is
idempotent, so repeated lookups are cheap and side-effect free beyond the
first.
"""

from __future__ import annotations

from .coefficients import Coefficient
from .exterior import Form
from .geometry import Geometry
from .metrics import pluriclosed_criterion
from .symbols import registry


class UnknownName(KeyError):
    pass


CATALOG_NAMES = (
    "iwasawa",
    "nakamura_3b",
    "solv4d",
    "nilfamily_ft",
    "fps_family",
)


def _twisted_generators() -> tuple[dict[str, Form], tuple[Form, ...]]:
    """Character table and dbar-closed (0,1) generators shared by the
    holomorphically parallelizable entries.

    The character E1 has logarithmic derivative phi^1 - conj(phi^1); the
    generator set is phi^{1bar}, E1 phi^{2bar}, conj(E1) phi^{3bar}.
    """
    registry.ensure_char("E1")
    e = Coefficient.symbol("E1")
    dlog = Form.monomial((1,), ()) - Form.monomial((), (1,))
    gens = (
        Form.monomial((), (1,)),
        Form.monomial((), (2,), e),
        Form.monomial((), (3,), e.conjugate()),
    )
    return {"E1": dlog}, gens


def _iwasawa() -> Geometry:
    # d phi^3 = -phi^1 ^ phi^2; phi^{1bar}, phi^{2bar} span the dbar-closed
    # invariant (0,1)-forms
    gens = (Form.monomial((), (1,)), Form.monomial((), (2,)))
    return Geometry(
        "iwasawa",
        3,
        {3: Form.monomial((1, 2), (), -1)},
        generators=gens,
    )


def _nakamura_3b() -> Geometry:
    chars, gens = _twisted_generators()
    return Geometry(
        "nakamura_3b",
        3,
        {
            2: Form.monomial((1, 2), ()),
            3: Form.monomial((1, 3), (), -1),
        },
        chars=chars,
        generators=gens,
    )


def _solv4d() -> Geometry:
    chars, gens = _twisted_generators()
    return Geometry(
        "solv4d",
        4,
        {
            2: Form.monomial((1, 2), ()),
            3: Form.monomial((1, 3), (), -1),
            4: Form.monomial((2, 3), (), -1),
        },
        chars=chars,
        generators=gens,
    )


def _nilfamily_ft() -> Geometry:
    for nm in ("a2", "a3", "a5", "a10", "a12"):
        registry.ensure_pair(nm)
    a2, a3, a5, a10, a12 = (
        Coefficient.symbol(nm) for nm in ("a2", "a3", "a5", "a10", "a12")
    )
    d4 = (
        Form.monomial((1, 3), (), a2)
        + Form.monomial((1,), (1,), a3)
        + Form.monomial((1,), (3,), a5)
        + Form.monomial((3,), (1,), a10)
        + Form.monomial((3,), (3,), a12)
    )
    constraint = (
        a2 * a2.conjugate()
        + a5 * a5.conjugate()
        + a10 * a10.conjugate()
        - a3 * a12.conjugate()
        - a3.conjugate() * a12
    )
    return Geometry("nilfamily_ft", 4, {4: d4}, constraints=(constraint,))


def _fps_family() -> Geometry:
    for nm in ("A", "B", "C", "D", "E"):
        registry.ensure_pair(nm)
    ca, cb, cc, cd, ce = (
        Coefficient.symbol(nm) for nm in ("A", "B", "C", "D", "E")
    )
    d3 = (
        Form.monomial((2,), (1,), -ca)
        + Form.monomial((2,), (2,), -cb)
        + Form.monomial((1,), (1,), cc)
        + Form.monomial((1,), (2,), cd)
        + Form.monomial((1, 2), (), ce)
    )
    # d(phi^1) = d(phi^2) = 0, so the family is valid before it is cut
    criterion = pluriclosed_criterion(Geometry("fps_family", 3, {3: d3}))
    return Geometry("fps_family", 3, {3: d3}, constraints=(criterion,))


_BUILDERS = {
    "iwasawa": _iwasawa,
    "nakamura_3b": _nakamura_3b,
    "solv4d": _solv4d,
    "nilfamily_ft": _nilfamily_ft,
    "fps_family": _fps_family,
}


def catalog(name: str) -> Geometry:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownName(name) from None
    return builder()


def torus(n: int = 3) -> Geometry:
    """Abelian structure: every coframe differential vanishes."""
    return Geometry("torus", n, {})
