"""Power-series solutions of the Maurer-Cartan equation.

From a basis of dbar-closed decorated (0,1)-forms the series
psi(t) = sum_k psi_k(t) is grown degree by degree: the degree-k bracket
(1/2) sum_{i+j=k} [psi_i, psi_j] is split on each frame leg by
cohomology.split_primitive into a part orthogonal to im(dbar) - whose
monomial coefficients must vanish and join the obstruction ideal - and a
dbar-exact part, whose minimum-norm primitive becomes psi_k (the
harmonic gauge of Kuranishi's construction).  The loop stops once the
bracket vanishes modulo the ideal at a degree past which no nonzero
products can form.  Branches of the resulting space are explored by
declaring parameters zero or nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coefficients import Coefficient, normalized_generators
from .cohomology import split_primitive
from .deformation import vector_bracket
from .exterior import Form, VectorForm
from .geometry import Geometry, StructureError
from .symbols import conjugate_name, registry


class PrimitiveNotFound(ValueError):
    """Condition extraction never left the bracket dbar-exact modulo the
    ideal."""


class DepthCapReached(RuntimeError):
    """The bracket was still active when the degree cap ran out."""


class NotTerminated(ValueError):
    """The series was consumed as finite without a termination flag."""


class InconsistentBranch(ValueError):
    """A branch declaration forces a declared-nonzero parameter to vanish."""


@dataclass(frozen=True)
class GeneratorSet:
    """dbar-closed decorated (0,1)-forms spanning the deformation directions.

    Closedness is checked modulo the geometry's constraint ideal.
    """

    geom: Geometry
    forms: tuple[Form, ...]

    def __post_init__(self):
        for g in self.forms:
            if not g.is_pure(0, 1):
                raise StructureError(
                    f"generator {g.render()} is not a (0,1)-form",
                    kind="bad_generator",
                )
            if not self.geom.reduce(self.geom.dbar(g)).is_zero():
                raise StructureError(
                    f"generator {g.render()} is not dbar-closed",
                    kind="bad_generator",
                )

    @staticmethod
    def from_geometry(geom: Geometry) -> "GeneratorSet":
        if geom.generators is None:
            raise ValueError(
                f"geometry {geom.name!r} declares no deformation generators"
            )
        return GeneratorSet(geom, tuple(geom.generators))


class KuranishiSeries:
    """Finite Maurer-Cartan series with its obstruction ideal.

    psi_terms maps the parameter degree k to psi_k; ideal holds the
    coefficient conditions accumulated while solving; terminated means
    every later bracket vanishes identically modulo the ideal.
    """

    def __init__(
        self,
        geom: Geometry,
        generators: GeneratorSet,
        parameters: tuple[str, ...],
        psi_terms: dict[int, VectorForm],
        ideal: tuple[Coefficient, ...],
        terminated: bool,
        checked_through: int,
        forced_zeros: tuple[str, ...] = (),
    ):
        self.geom = geom
        self.generators = generators
        self.parameters = tuple(parameters)
        self.psi_terms = {
            k: v for k, v in sorted(psi_terms.items()) if not v.is_zero()
        }
        self.ideal = tuple(ideal)
        self.terminated = terminated
        self.checked_through = checked_through
        self.forced_zeros = tuple(forced_zeros)

    def psi(self) -> VectorForm:
        return _vector_sum((part, 1) for part in self.psi_terms.values())

    def to_json_dict(self) -> dict:
        return {
            "geometry": self.geom.name,
            "parameters": list(self.parameters),
            "psi": [
                {
                    "degree": k,
                    "legs": {
                        str(i): f.render()
                        for i, f in sorted(part.components.items())
                    },
                }
                for k, part in self.psi_terms.items()
            ],
            "ideal": [g.render() for g in self.ideal],
            "terminated": self.terminated,
            "checked_through": self.checked_through,
            "forced_zeros": list(self.forced_zeros),
        }


def _vector_sum(pairs) -> VectorForm:
    """The sum of w*v over pairs of a T^{1,0}-valued form v and a weight w:
    one Form.combination per leg."""
    legs: dict[int, list] = {}
    for vf, w in pairs:
        w = Coefficient.from_scalar(w)
        for leg, f in vf.components.items():
            legs.setdefault(leg, []).append((f, w))
    return VectorForm({leg: Form.combination(p) for leg, p in legs.items()})


def _reduce_vector(vf: VectorForm, ideal) -> VectorForm:
    if not ideal:
        return vf
    return vf.map_forms(
        lambda f: f.map_coefficients(lambda c: c.reduce_modulo(ideal))
    )


def _generator_order(g: Coefficient):
    return (g.numerator_terms(), g.render())


DEFAULT_DEPTH_CAP = 6

# guards the condition-extraction fixpoint; each pass either empties the
# residue or appends a generator, so in practice two passes suffice
_MAX_SPLIT_PASSES = 12


def kuranishi_build(
    geom: Geometry,
    gens: GeneratorSet | tuple[Form, ...] | None = None,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> KuranishiSeries:
    """Solve Maurer-Cartan order by order from the generator basis.

    psi_1 = sum t_{i lambda} gens[lambda] (x) Z_i with one fresh complex
    parameter per (leg, generator) pair.  At each degree the bracket is
    reduced modulo the ideal collected so far; residues orthogonal to
    im(dbar) contribute conditions (squarefree-normalized, since only
    the vanishing locus matters), the exact remainder contributes the
    minimum-norm primitive.  Stored terms are reduced modulo the final
    ideal before returning.
    """
    if gens is None:
        gens = GeneratorSet.from_geometry(geom)
    elif not isinstance(gens, GeneratorSet):
        gens = GeneratorSet(geom, tuple(gens))
    names: list[str] = []
    for i in range(1, geom.n + 1):
        for lam in range(1, len(gens.forms) + 1):
            name = f"t{i}{lam}"
            registry.ensure_pair(name)
            names.append(name)
    legs = {
        i: Form.combination(
            (g, Coefficient.symbol(f"t{i}{lam}"))
            for lam, g in enumerate(gens.forms, start=1)
        )
        for i in range(1, geom.n + 1)
    }
    psi: dict[int, VectorForm] = {1: VectorForm(legs)}
    ideal: list[Coefficient] = []
    k_top = 1
    terminated = False
    checked = 1
    for k in range(2, depth_cap + 1):
        checked = k
        # 1/2 sum_{i+j=k} [psi_i, psi_j], each pair once: the bracket is
        # symmetric on T^{1,0}-valued (0,1)-forms
        bracket = _vector_sum(
            (vector_bracket(geom, psi[i], psi[k - i]),
             Fraction(1, 2) if 2 * i == k else 1)
            for i in range(1, k // 2 + 1)
            if i in psi and k - i in psi
        )
        bracket = _reduce_vector(bracket, ideal)
        if bracket.is_zero():
            if k >= 2 * k_top:
                terminated = True
                break
            continue
        primitive = _solve_degree(geom, bracket, ideal)
        if not primitive.is_zero():
            psi[k] = primitive
            k_top = k
    if not terminated:
        raise DepthCapReached(
            f"bracket still active at degree {depth_cap} for {geom.name!r}"
        )
    psi = {
        k: _reduce_vector(part, ideal) for k, part in psi.items()
    }
    return KuranishiSeries(
        geom,
        gens,
        tuple(names),
        psi,
        tuple(ideal),
        terminated,
        checked,
    )


def _solve_degree(geom, bracket, ideal) -> VectorForm:
    """Split one degree's bracket; grows ideal in place, returns psi_k."""
    for _ in range(_MAX_SPLIT_PASSES):
        candidates: list[Coefficient] = []
        legs: dict[int, Form] = {}
        for leg in sorted(bracket.components):
            beta, residue = split_primitive(
                geom, "dbar", bracket.components[leg], 0, 1
            )
            if not beta.is_zero():
                legs[leg] = beta
            for entry in residue:
                r = entry.reduce_modulo(ideal)
                if not r.is_zero():
                    candidates.append(r.squarefree_numerator())
        if not candidates:
            return VectorForm(legs)
        unique: dict[str, Coefficient] = {}
        for g in candidates:
            unique.setdefault(g.render(), g)
        for g in sorted(unique.values(), key=_generator_order):
            if not g.reduce_modulo(ideal).is_zero():
                ideal.append(g)
        bracket = _reduce_vector(bracket, ideal)
        if bracket.is_zero():
            return VectorForm.zero()
    raise PrimitiveNotFound(
        "condition extraction failed to stabilize; generator data is "
        "inconsistent with the sector complexes"
    )


@dataclass(frozen=True)
class BranchSpec:
    """A branch of the deformation space: parameters set to zero,
    parameters declared nonzero, extra relations imposed."""

    zeros: tuple[str, ...] = ()
    nonzeros: tuple[str, ...] = ()
    relations: tuple[Coefficient, ...] = ()

    def __post_init__(self):
        overlap = set(self.zeros) & set(self.nonzeros)
        if overlap:
            raise InconsistentBranch(
                f"declared both zero and nonzero: {sorted(overlap)}"
            )


def _strip_nonzero(g: Coefficient, nonzeros) -> Coefficient:
    for name in sorted(nonzeros):
        for gen_name in (name, conjugate_name(name)):
            sym = Coefficient.symbol(gen_name)
            while not g.is_zero() and g.is_multiple_of(sym):
                g = g / sym
    return g


def _forced_variable(g: Coefficient) -> str | None:
    """The lone parameter name when g is unit * name, else None."""
    symbols = g.free_symbols()
    if len(symbols) != 1:
        return None
    name = symbols.pop()
    sym = Coefficient.symbol(name)
    if g.is_multiple_of(sym) and (g / sym).is_scalar():
        return name
    return None


def branch_reduce(series: KuranishiSeries, branch: BranchSpec) -> KuranishiSeries:
    """Specialize the series to a branch.

    Zeros are substituted, declared-nonzero factors divided out of every
    ideal generator, and the consequences propagated to a fixpoint: a
    generator reduced to a single parameter forces that parameter to
    zero.  What survives is returned as the residual relation list.
    """
    zeros = set(branch.zeros)
    nonzeros = set(branch.nonzeros)
    pending = [g for g in series.ideal] + list(branch.relations)
    while True:
        bindings = {}
        for z in zeros:
            bindings[z] = Coefficient.zero()
            bindings[conjugate_name(z)] = Coefficient.zero()
        changed = False
        survivors: list[Coefficient] = []
        for g in pending:
            if bindings:
                g = g.substitute(bindings)
            if g.is_zero():
                continue
            g = _strip_nonzero(g, nonzeros)
            if g.is_scalar():
                raise InconsistentBranch(
                    "a relation reduces to a nonzero constant"
                )
            forced = _forced_variable(g)
            if forced is not None:
                if forced in nonzeros:
                    raise InconsistentBranch(
                        f"{forced} declared nonzero but forced to vanish"
                    )
                zeros.add(forced)
                changed = True
            else:
                survivors.append(g)
        pending = survivors
        if not changed:
            break
    bindings = {}
    for z in zeros:
        bindings[z] = Coefficient.zero()
        bindings[conjugate_name(z)] = Coefficient.zero()
    psi = {
        k: part.substitute(bindings) if bindings else part
        for k, part in series.psi_terms.items()
    }
    return KuranishiSeries(
        series.geom,
        series.generators,
        tuple(n for n in series.parameters if n not in zeros),
        psi,
        normalized_generators(pending),
        series.terminated,
        series.checked_through,
        forced_zeros=tuple(sorted(zeros)),
    )


def series_to_deformation(
    series: KuranishiSeries, branch: BranchSpec | None = None
) -> VectorForm:
    """The finite sum psi(t), ready for deform(); Maurer-Cartan is then
    re-verified independently by the deformation machinery (modulo the
    residual relations when a branch is given)."""
    if not series.terminated:
        raise NotTerminated(
            "series is not flagged terminated; refusing to truncate"
        )
    if branch is not None:
        series = branch_reduce(series, branch)
    return series.psi()
