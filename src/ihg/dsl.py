"""Text format for invariant geometries (.ihg files).

Statements are semicolon-terminated; # starts a comment running to end of
line.  A file declares one geometry:

    geometry nakamura_3b dim 3;
    char E1 dlog = phi[1] - phi[|1];
    dphi2 = phi[1,2];
    dphi3 = -phi[1,3];
    generator phi[|1];
    generator E1*phi[|2];

Coefficient expressions use integer literals, the imaginary unit i,
declared names, conj(...), parentheses, + - * / and ^ with integer
exponents.  Basis monomials are phi[i,j|k,l] with holomorphic indices
before the bar and conjugated ones after; either side may be empty.
Conjugate structure equations are always derived, never written.
"""

from __future__ import annotations

import re

from .coefficients import Coefficient
from .exterior import Form
from .geometry import Geometry, StructureError
from .symbols import REAL, base_names, registry


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class ValidationError(ValueError):
    """Structure equations parsed but failed validation.

    code is "NotIntegrable" for a part of some dphi outside (2,0)+(1,1),
    "D2NonZero" when d squared fails to vanish, "BadIndex" for a coframe
    index outside 1..n, else the underlying tag.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


_CODES = {
    "not_integrable": "NotIntegrable",
    "d2_nonzero": "D2NonZero",
    "bad_character": "BadCharacter",
    "bad_generator": "BadGenerator",
    "bad_index": "BadIndex",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^=;,()\[\]|])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}",
                             tok.line, tok.col)
        return self.next()

    def fail(self, message: str) -> "ParseError":
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    # -- statements ----------------------------------------------------------

    def parse_geometry(self) -> Geometry:
        self.expect("ident", "geometry")
        name = self.expect("ident").text
        self.expect("ident", "dim")
        n = int(self.expect("int").text)
        self.expect("op", ";")
        if n < 1:
            raise self.fail("dimension must be at least 1")

        structure: dict[int, Form] = {}
        chars: dict[str, Form] = {}
        generators: list[Form] = []
        constraints: list[Coefficient] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                raise self.fail(f"expected a statement, found {tok.text!r}")
            head = tok.text
            if head == "param":
                self.next()
                for name_tok in self._name_list():
                    self._declare(name_tok, registry.ensure_pair)
            elif head == "real":
                self.next()
                for name_tok in self._name_list():
                    self._declare(name_tok, registry.ensure_real)
            elif head == "char":
                self.next()
                cname = self._declare(self._new_name(), registry.ensure_char)
                self.expect("ident", "dlog")
                self.expect("op", "=")
                chars[cname] = self._form()
                self.expect("op", ";")
            elif head == "generator":
                self.next()
                generators.append(self._form())
                self.expect("op", ";")
            elif head == "constraint":
                self.next()
                form = self._form()
                constraints.append(self._as_scalar(form, tok))
                self.expect("op", ";")
            else:
                m = re.fullmatch(r"dphi(\d+)", head)
                if not m:
                    raise self.fail(f"unknown statement {head!r}")
                k = int(m.group(1))
                if not 1 <= k <= n:
                    raise self.fail(f"coframe index {k} outside 1..{n}")
                if k in structure:
                    raise self.fail(f"duplicate dphi{k}")
                self.next()
                self.expect("op", "=")
                structure[k] = self._form()
                self.expect("op", ";")
        try:
            return Geometry(
                name,
                n,
                structure,
                chars=chars or None,
                generators=tuple(generators) if generators else None,
                constraints=tuple(constraints),
            )
        except StructureError as err:
            code = _CODES.get(err.kind, err.kind)
            raise ValidationError(code, str(err)) from None

    def _name_list(self) -> list[_Token]:
        names = [self._new_name()]
        while self.peek().text == ",":
            self.next()
            names.append(self._new_name())
        self.expect("op", ";")
        return names

    def _new_name(self) -> _Token:
        """The token of a name being declared; the expression syntax
        reserves i, phi and conj."""
        tok = self.expect("ident")
        if tok.text in ("i", "phi", "conj"):
            raise ParseError(f"{tok.text!r} is reserved", tok.line, tok.col)
        return tok

    @staticmethod
    def _declare(tok: _Token, ensure) -> str:
        """Register a declared name with ensure, a registry.ensure_* method,
        and return it; a clash with a registered symbol is reported at the
        name."""
        try:
            ensure(tok.text)
        except ValueError as err:
            raise ParseError(str(err), tok.line, tok.col) from None
        return tok.text

    def _as_scalar(self, form: Form, tok: _Token) -> Coefficient:
        if form.is_zero():
            return Coefficient.zero()
        if form.bidegrees() != {(0, 0)}:
            raise ParseError("expected a scalar expression", tok.line, tok.col)
        return form.coeff((), ())

    # -- expressions (everything is a Form; degree 0 means coefficient) ------

    def _form(self) -> Form:
        out = self._term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self._term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def _term(self) -> Form:
        out = self._unary()
        while self.peek().text in ("*", "/"):
            op = self.next()
            rhs = self._unary()
            if op.text == "*":
                out = _mul(out, rhs, op)
            else:
                out = out / self._as_scalar(rhs, op)
        return out

    def _unary(self) -> Form:
        if self.peek().text == "-":
            self.next()
            return -self._unary()
        if self.peek().text == "+":
            self.next()
            return self._unary()
        return self._power()

    def _power(self) -> Form:
        base = self._atom()
        if self.peek().text != "^":
            return base
        op = self.next()
        exp = int(self.expect("int").text)
        scalar = self._as_scalar(base, op)
        return Form.scalar(scalar ** exp)

    def _atom(self) -> Form:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Form.scalar(Coefficient.from_scalar(int(tok.text)))
        if tok.text == "(":
            self.next()
            inner = self._form()
            self.expect("op", ")")
            return inner
        if tok.kind != "ident":
            raise self.fail(f"expected an expression, found {tok.text!r}")
        if tok.text == "i":
            self.next()
            return Form.scalar(Coefficient.i())
        if tok.text == "conj":
            self.next()
            self.expect("op", "(")
            inner = self._form()
            self.expect("op", ")")
            return inner.conjugate()
        if tok.text == "phi":
            self.next()
            return self._phi_monomial()
        self.next()
        try:
            registry.lookup(tok.text)
        except KeyError:
            raise ParseError(f"undeclared name {tok.text!r}", tok.line,
                             tok.col) from None
        return Form.scalar(Coefficient.symbol(tok.text))

    def _phi_monomial(self) -> Form:
        self.expect("op", "[")
        holo: list[int] = []
        anti: list[int] = []
        side = holo
        while True:
            tok = self.peek()
            if tok.kind == "int":
                side.append(int(self.next().text))
            elif tok.text == ",":
                self.next()
            elif tok.text == "|":
                if side is anti:
                    raise self.fail("only one | allowed in a monomial")
                self.next()
                side = anti
            elif tok.text == "]":
                self.next()
                break
            else:
                raise self.fail(f"bad index {tok.text!r}")
        return Form.monomial(tuple(holo), tuple(anti))


def parse_geometry(text: str) -> Geometry:
    """Parse DSL source into a validated geometry.

    Raises ParseError for syntax problems and ValidationError when the
    parsed structure equations fail d^2 = 0 or integrability.
    """
    return _Parser(text).parse_geometry()


def parse_form(text: str) -> Form:
    """Parse a bare form expression against the current symbol registry."""
    parser = _Parser(text)
    out = parser._form()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return out


def parse_coefficient(text: str) -> Coefficient:
    parser = _Parser(text)
    out = parser._form()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return parser._as_scalar(out, tok)


def render_geometry(geom: Geometry) -> str:
    """Canonical DSL text; parse_geometry(render_geometry(g)) == g."""
    lines = [f"geometry {geom.name} dim {geom.n};"]
    forms = [*geom.structure.values(), *(geom.generators or ())]
    names = base_names(
        [c for f in forms for _, c in f.terms()] + list(geom.constraints)
    )
    reals = [nm for nm in names if registry.lookup(nm).kind == REAL]
    params = [nm for nm in names if nm not in reals]
    if params:
        lines.append("param " + ", ".join(params) + ";")
    if reals:
        lines.append("real " + ", ".join(reals) + ";")
    for cname, dlog in geom.chars.items():
        lines.append(f"char {cname} dlog = {dlog.render()};")
    for k in range(1, geom.n + 1):
        f = geom.structure[k]
        if not f.is_zero():
            lines.append(f"dphi{k} = {f.render()};")
    for g in geom.generators or ():
        lines.append(f"generator {g.render()};")
    for c in geom.constraints:
        lines.append(f"constraint {c.render()};")
    return "\n".join(lines) + "\n"


def _mul(a: Form, b: Form, tok: _Token) -> Form:
    a_scalar = a.bidegrees() in (set(), {(0, 0)})
    b_scalar = b.bidegrees() in (set(), {(0, 0)})
    if b_scalar:
        return a * b.coeff((), ()) if not b.is_zero() else Form.zero()
    if a_scalar:
        return b * a.coeff((), ()) if not a.is_zero() else Form.zero()
    return a.wedge(b)
