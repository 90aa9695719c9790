"""Exact comparison of benchmark answers with the stored reference answers.

Answers are JSON data whose fields are compared by kind, so that a change
of normal form that keeps every value still passes:

* verdicts, dimensions, flags and name lists are compared as they are;
* coefficients (``render()`` text) are parsed into sympy and compared as
  rational functions: equal text is equal, otherwise the difference is
  first evaluated exactly at a seeded Gaussian-rational point (a quick
  rejection) and then proved zero with ``sympy.cancel``;
* forms are dicts monomial -> coefficient, compared coefficientwise;
* a Bott-Chern basis must span the same space as the reference basis
  modulo im(ddbar), whose spanning forms the reference stores alongside
  (exact ranks over the field of rational functions), so a basis that is
  rescaled or has other representatives passes;
* constraint generators are compared up to a nonzero constant factor;
* ideals are compared by their reduced Groebner bases (``sympy.groebner``);
* the Maurer-Cartan residual of a branch must have every coefficient in
  the branch ideal (Groebner normal form 0), whatever its reference says.
"""

from __future__ import annotations

import random
import re

import sympy
from sympy.parsing.sympy_parser import auto_number, parse_expr
from sympy.polys.domains import QQ_I
from sympy.polys.matrices import DomainMatrix

_IDENT = re.compile(r"[A-Za-z_]\w*")
_CONJ = re.compile(r"conj\((\w+)\)")

# how each answer field is compared; fields not listed compare as-is
FIELD_KINDS = {
    "residual": "form",
    "basis": "basis",
    "generators": "scaled",
    "structure": "form_map",
    "image": "form",
    "round_trip": "form",
    "ideal": "ideal",
    "relations": "ideal",
    "mc_residual": "in_relations",
}

# reference-only fields: data the comparison of another field needs
AUXILIARY = {"ddbar_image"}


class Oracle:
    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._points: dict[str, sympy.Expr] = {}
        self._parsed: dict[str, sympy.Expr] = {}

    # -- parsing -----------------------------------------------------------------

    def parse(self, text: str) -> sympy.Expr:
        """sympy value of a Coefficient.render() string; conj(t) becomes
        the independent symbol t__conj, as in the engine's ring."""
        hit = self._parsed.get(text)
        if hit is not None:
            return hit
        src = _CONJ.sub(r"\1__conj", text).replace("^", "**")
        names = {
            name: sympy.I if name == "i" else sympy.Symbol(name)
            for name in _IDENT.findall(src)
        }
        expr = parse_expr(
            src, local_dict=names,
            global_dict={"Integer": sympy.Integer, "Rational": sympy.Rational,
                         "Float": sympy.Float},
            transformations=(auto_number,),
        )
        self._parsed[text] = expr
        return expr

    def _point(self, symbols) -> dict:
        for s in sorted(symbols, key=str):
            if s not in self._points:
                re_part, im_part = (
                    sympy.Rational(self._rng.randint(-9, 9), self._rng.randint(1, 7))
                    for _ in range(2)
                )
                self._points[s] = re_part + sympy.I * im_part
        return {s: self._points[s] for s in symbols}

    # -- values ------------------------------------------------------------------

    def same_coefficient(self, a: str, b: str) -> bool:
        if a == b:
            return True
        diff = self.parse(a) - self.parse(b)
        at_point = sympy.cancel(diff.subs(self._point(diff.free_symbols)))
        if at_point.is_number and at_point.is_finite and at_point != 0:
            return False
        return sympy.cancel(sympy.together(diff)) == 0

    def same_form(self, a: dict, b: dict) -> bool:
        if a == b:
            return True
        return all(
            self.same_coefficient(a.get(mono, "0"), b.get(mono, "0"))
            for mono in set(a) | set(b)
        )

    def same_up_to_scale(self, answer: list, reference: list) -> bool:
        """Generator lists agree as multisets up to nonzero constants."""
        if answer == reference:
            return True
        if len(answer) != len(reference):
            return False
        left = [self.parse(g) for g in reference]
        for g in answer:
            expr = self.parse(g)
            for k, ref in enumerate(left):
                ratio = sympy.cancel(expr / ref)
                if not ratio.free_symbols and ratio != 0:
                    del left[k]
                    break
            else:
                return False
        return True

    def _rank(self, forms: list, monos: list) -> int:
        if not forms or not monos:
            return 0
        rows = [[self.parse(f.get(m, "0")) for m in monos] for f in forms]
        return DomainMatrix.from_list_sympy(len(rows), len(monos), rows).to_field().rank()

    def same_basis(self, answer: list, reference: list, image: list) -> bool:
        """answer is a basis of span(reference) modulo span(image)."""
        if answer == reference:
            return True
        if len(answer) != len(reference):
            return False
        monos = sorted(set().union(*answer, *reference, *image))
        with_ref = self._rank(image + reference, monos)
        return (self._rank(image + answer, monos) == with_ref
                and self._rank(image + reference + answer, monos) == with_ref
                and with_ref == self._rank(image, monos) + len(reference))

    def _polys(self, texts: list) -> tuple[list, list]:
        exprs = [sympy.numer(sympy.together(self.parse(t))) for t in texts]
        gens = sorted(set().union(*(e.free_symbols for e in exprs)), key=str)
        return exprs, gens

    def same_ideal(self, answer: list, reference: list) -> bool:
        if answer == reference:
            return True
        if not answer or not reference:
            return not answer and not reference
        exprs, gens = self._polys(answer + reference)
        ga = sympy.groebner(exprs[:len(answer)], *gens, order="grevlex", domain=QQ_I)
        gb = sympy.groebner(exprs[len(answer):], *gens, order="grevlex", domain=QQ_I)
        return list(ga.exprs) == list(gb.exprs)

    def in_ideal(self, residual: dict, relations: list) -> bool:
        """Every coefficient of every form in residual lies in the ideal."""
        coeffs = [c for form in residual.values() for c in form.values()]
        if not coeffs:
            return True
        if not relations:
            return all(self.same_coefficient(c, "0") for c in coeffs)
        exprs, gens = self._polys(list(relations) + coeffs)
        basis = sympy.groebner(exprs[:len(relations)], *gens,
                               order="grevlex", domain=QQ_I)
        return all(basis.reduce(e)[1] == 0 for e in exprs[len(relations):])

    # -- answers -----------------------------------------------------------------

    def check(self, answer: dict, reference: dict) -> list[str]:
        """Names of the fields of answer that disagree with reference."""
        bad = []
        fields = set(reference) - AUXILIARY
        if set(answer) != fields:
            return sorted(set(answer) ^ fields)
        for field, got in answer.items():
            want = reference[field]
            kind = FIELD_KINDS.get(field)
            if kind == "form":
                ok = self.same_form(got, want)
            elif kind == "basis":
                ok = self.same_basis(got, want, reference["ddbar_image"])
            elif kind == "form_map":
                ok = set(got) == set(want) and all(
                    self.same_form(got[k], want[k]) for k in got)
            elif kind == "scaled":
                ok = self.same_up_to_scale(got, want)
            elif kind == "ideal":
                ok = self.same_ideal(got, want)
            elif kind == "in_relations":
                ok = self.in_ideal(got, answer.get("relations", []))
            else:
                ok = got == want
            if not ok:
                bad.append(field)
        return bad
