"""The three benchmark workloads: inputs, registry policy and query mix.

Every query calls public ``ihg`` functions only and returns its answer as
plain JSON data (verdicts, dimensions, and forms or coefficients as their
``render()`` text), so the answer can be stored, compared with the
reference answers in ``reference.json`` and checked exactly by
``oracle.py`` outside the timed region.

A workload is built in two steps.  ``setup()`` builds the inputs every
query shares (catalog geometries, metrics, the deformation ``psi``); it is
what ``setup_s`` times, together with the import of ``ihg``.
``queries(state)`` returns one pass of queries in a fixed order; the runner
shuffles each pass with the workload seed.  The inputs passed to ``ihg``
never depend on the seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import ihg
from ihg import kuranishi as ihg_kuranishi
from ihg import metrics as ihg_metrics


@dataclass(frozen=True)
class Query:
    key: str
    kind: str
    run: Callable[[], dict]


def render_form(form) -> dict[str, str]:
    return {mi.render(): c.render() for mi, c in form.terms()}


def render_coefficients(coeffs) -> list[str]:
    return [c.render() for c in coeffs]


def ring_width() -> int:
    return len(ihg.registry.context().names)


# -- invariants: one long session over a fixed set of structures --------------


def setup_invariants() -> dict:
    geoms = {name: ihg.catalog(name) for name in ihg.CATALOG_NAMES}
    metrics = {n: ihg.InvariantMetric.generic(n) for n in (3, 4)}
    return {"geoms": geoms, "metrics": metrics}


def _check_query(geom, metric, condition, k) -> dict:
    report = ihg.check_condition(geom, metric, condition, k=k)
    return {
        "holds": report.holds,
        "residual": render_form(report.residual),
        "generators": render_coefficients(report.constraint_generators),
    }


def _bott_chern_query(geom, p, q) -> dict:
    sector = ihg.BottChernSector(geom, p, q)
    return {
        "dimension": sector.dimension,
        "basis": [render_form(f) for f in sector.basis_forms()],
    }


def queries_invariants(state: dict) -> list[Query]:
    out = []
    for name, geom in state["geoms"].items():
        metric = state["metrics"][geom.n]
        for condition in ihg_metrics.CONDITIONS:
            ks = range(1, geom.n + 1) if condition == "k_pluriclosed" else (None,)
            for k in ks:
                key = f"check/{name}/{condition}" + (f"/{k}" if k else "")
                out.append(Query(
                    key, "check_condition",
                    lambda g=geom, m=metric, c=condition, k=k: _check_query(g, m, c, k),
                ))
        for p in range(geom.n + 1):
            for q in range(geom.n + 1):
                out.append(Query(
                    f"bott_chern/{name}/{p},{q}", "bott_chern",
                    lambda g=geom, p=p, q=q: _bott_chern_query(g, p, q),
                ))
    return out


# -- deformation: the Iwasawa six-parameter family -----------------------------

IWASAWA_PARAMETERS = ("t11", "t12", "t21", "t22", "t31", "t32")

# samples of the operator-route agreement check, all bidegrees up to (2,2)
FORMULA_SAMPLES = (
    ((1,), ()), ((3,), ()), ((), (1,)), ((1,), (1,)),
    ((1, 2), (3,)), ((3,), (1, 2)), ((1, 3), (1, 3)),
)


def iwasawa_psi():
    """The corrected six-parameter Iwasawa psi: Maurer-Cartan holds
    identically because the (3) leg carries -det(t) phi^{3bar}."""
    for name in IWASAWA_PARAMETERS:
        ihg.registry.ensure_pair(name)
    t11, t12, t21, t22, t31, t32 = (
        ihg.Coefficient.symbol(name) for name in IWASAWA_PARAMETERS
    )
    mono = ihg.Form.monomial
    det = t11 * t22 - t12 * t21
    return ihg.VectorForm({
        1: mono((), (1,), t11) + mono((), (2,), t12),
        2: mono((), (1,), t21) + mono((), (2,), t22),
        3: mono((), (1,), t31) + mono((), (2,), t32) - mono((), (3,), det),
    })


def base_monomials(n: int, degrees) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    out = []
    for deg in degrees:
        for p in range(deg + 1):
            for holo in itertools.combinations(range(1, n + 1), p):
                for anti in itertools.combinations(range(1, n + 1), deg - p):
                    out.append((holo, anti))
    return out


def setup_deformation() -> dict:
    base = ihg.catalog("iwasawa")
    psi = iwasawa_psi()
    # the deformation itself is built once here so that round-trip queries
    # measure the coordinate change, not the matrix inverse; the deform
    # query rebuilds it from scratch
    return {"base": base, "psi": psi, "deformation": ihg.deform(base, psi)}


def _deform_query(base, psi) -> dict:
    d = ihg.deform(base, psi)
    geom = d.geometry()
    return {
        "integrable": d.is_integrable(),
        "structure": {str(j): render_form(f) for j, f in sorted(geom.structure.items())},
    }


def _round_trip_query(d, alpha, direction) -> dict:
    if direction == "to_deformed":
        image = d.to_deformed_coords(alpha)
        back = d.to_base_coords(image)
    else:
        image = d.to_base_coords(alpha)
        back = d.to_deformed_coords(image)
    return {"image": render_form(image), "round_trip": render_form(back)}


def _formula_query(d, alpha) -> dict:
    return {"agrees": d.extension_formula_check(alpha)}


def _pattern(holo, anti) -> str:
    return f"{','.join(map(str, holo))}|{','.join(map(str, anti))}"


def queries_deformation(state: dict) -> list[Query]:
    base, psi, d = state["base"], state["psi"], state["deformation"]
    out = [Query("deform/iwasawa", "deform", lambda: _deform_query(base, psi))]
    for holo, anti in base_monomials(base.n, (1, 2)):
        alpha = ihg.Form.monomial(holo, anti)
        for direction in ("to_deformed", "to_base"):
            out.append(Query(
                f"round_trip/{direction}/{_pattern(holo, anti)}", "round_trip",
                lambda a=alpha, w=direction: _round_trip_query(d, a, w),
            ))
    for holo, anti in FORMULA_SAMPLES:
        alpha = ihg.Form.monomial(holo, anti)
        out.append(Query(
            f"formula_check/{_pattern(holo, anti)}", "formula_check",
            lambda a=alpha: _formula_query(d, a),
        ))
    return out


# -- kuranishi: independent one-off questions ----------------------------------

KURANISHI_ENTRIES = ("iwasawa", "nakamura_3b", "solv4d")
BRANCH_NONZEROS = ("t11",)


def setup_kuranishi() -> dict:
    ihg.registry.reset()
    return {}


def _build_query(name) -> dict:
    ihg.registry.reset()
    series = ihg_kuranishi.kuranishi_build(ihg.catalog(name))
    return {
        "terminated": series.terminated,
        "parameters": list(series.parameters),
        "ideal": render_coefficients(series.ideal),
    }


def _branch_query(name) -> dict:
    ihg.registry.reset()
    geom = ihg.catalog(name)
    series = ihg_kuranishi.kuranishi_build(geom)
    branch = ihg_kuranishi.branch_reduce(
        series, ihg_kuranishi.BranchSpec(nonzeros=BRANCH_NONZEROS)
    )
    psi = ihg_kuranishi.series_to_deformation(branch)
    d = ihg.deform(geom, psi, require_mc=False)
    return {
        "forced_zeros": list(branch.forced_zeros),
        "relations": render_coefficients(branch.ideal),
        "mc_residual": {
            str(j): render_form(f) for j, f in sorted(d.mc_residual.items())
        },
    }


def queries_kuranishi(state: dict) -> list[Query]:
    out = []
    for name in KURANISHI_ENTRIES:
        out.append(Query(f"build/{name}", "kuranishi_build",
                         lambda n=name: _build_query(n)))
        out.append(Query(f"branch/{name}", "branch",
                         lambda n=name: _branch_query(n)))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], dict]
    queries: Callable[[dict], list[Query]]
    # the registry may only change inside a query when every query
    # resets it; otherwise the ring width must stay fixed for the run
    resets_registry: bool


WORKLOADS = {
    "invariants": Workload("invariants", setup_invariants, queries_invariants, False),
    "deformation": Workload("deformation", setup_deformation, queries_deformation, False),
    "kuranishi": Workload("kuranishi", setup_kuranishi, queries_kuranishi, True),
}
