"""A small expression language over the catalog.

Grammar (whitespace between tokens is ignored):

    expr    := term { ("+" | "-") term }
    term    := factor { "*" factor }
    factor  := space | "(" expr ")"
              | "blowup" "(" expr "," expr "," INT ")"
              | "blowdown" "(" expr "," expr "," expr ")"
    space   := "P" "(" INT ")"
              | "WP" "(" INT { "," INT } ")"
              | gr
              | "F1" "(" gr ")" | "F2" "(" gr ")" | "Fx" "(" gr ")"
              | "MbarP1" "(" INT ")"
              | ("M" | "S" | "H") "(" gr "," INT ")"
    gr      := "Gr" "(" SINT "," SINT ")"

INT is a nonnegative decimal integer; SINT additionally permits a
leading "-", so that out-of-range Grassmannians can be written down and
evaluate to the empty space.  "*" binds tighter than "+" and "-", and
both levels associate to the left.

parse produces a small AST, eval_expr evaluates it to a PoincarePoly
(moduli leaves use the closed route), and to_text prints an AST back in
canonical form, round-tripping through parse.
"""

from __future__ import annotations

import re

from . import pipelines
from .catalog import (
    PoincarePoly,
    fano_lines,
    fano_planes,
    grassmannian,
    lines_through_point,
    projective,
    stable_maps_p1,
    weighted_projective,
)
from .errors import CurvebettiError, ParseError
from .record import Record
from .surgery import blowdown_apply, blowup_apply

# AST nodes: each base is a Gr, and left, right, space, center and fiber SpaceExprs.


class Proj(Record):
    __slots__ = ("m",)


class WProj(Record):
    __slots__ = ("weights",)


class Gr(Record):
    __slots__ = ("k", "n")


class FanoLines(Record):
    __slots__ = ("base",)


class FanoPlanes(Record):
    __slots__ = ("base",)


class PointedLines(Record):
    __slots__ = ("base",)


class MbarP1(Record):
    __slots__ = ("d",)


class Moduli(Record):
    __slots__ = ("compactification", "base", "d")


class Product(Record):
    __slots__ = ("left", "right")


class Sum(Record):
    __slots__ = ("left", "right")


class Diff(Record):
    __slots__ = ("left", "right")


class Blowup(Record):
    __slots__ = ("space", "center", "codim")


class Blowdown(Record):
    __slots__ = ("space", "center", "fiber")


SpaceExpr = (
    Proj | WProj | Gr | FanoLines | FanoPlanes | PointedLines | MbarP1 | Moduli
    | Product | Sum | Diff | Blowup | Blowdown
)
_NODES = SpaceExpr.__args__


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|(.))")


class _Token(Record):
    __slots__ = ("kind", "text", "offset")  # kind: "int", "name", "sym", "end"


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        start = m.start(m.lastindex)
        if m.group(1) is not None:
            out.append(_Token("int", m.group(1), start))
        elif m.group(2) is not None:
            out.append(_Token("name", m.group(2), start))
        else:
            sym = m.group(3)
            if sym not in "()+-*,":
                raise ParseError(start, "a token", repr(sym))
            out.append(_Token("sym", sym, start))
        pos = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    # Bounds both the nesting of parentheses and calls and the height of
    # the finished tree, so that parsing, evaluation and printing stay
    # well inside Python's recursion limit.
    MAX_DEPTH = 100

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str) -> ParseError:
        tok = self.peek()
        found = repr(tok.text) if tok.kind != "end" else "end of input"
        return ParseError(tok.offset, expected, found)

    def expect_sym(self, sym: str) -> None:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == sym:
            self.advance()
            return
        raise self.fail(f"'{sym}'")

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return int(tok.text)
        raise self.fail("an integer")

    def expect_signed_int(self) -> int:
        # Negative values are legal only where this is called: inside Gr.
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "-":
            self.advance()
            return -self.expect_int()
        return self.expect_int()

    def too_deep(self, offset: int, found: str) -> ParseError:
        return ParseError(offset, f"at most {self.MAX_DEPTH} levels of nesting", found)

    def parse_expr(self) -> SpaceExpr:
        if self.depth == self.MAX_DEPTH:
            tok = self.peek()
            raise self.too_deep(tok.offset, "deeper nesting")
        self.depth += 1
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text in "+-":
                self.advance()
                right = self.parse_term()
                node = Sum(node, right) if tok.text == "+" else Diff(node, right)
            else:
                self.depth -= 1
                return node

    def parse_term(self) -> SpaceExpr:
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text == "*":
                self.advance()
                node = Product(node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> SpaceExpr:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_sym(")")
            return node
        if tok.kind == "name" and tok.text == "blowup":
            self.advance()
            self.expect_sym("(")
            space = self.parse_expr()
            self.expect_sym(",")
            center = self.parse_expr()
            self.expect_sym(",")
            codim = self.expect_int()
            self.expect_sym(")")
            return Blowup(space, center, codim)
        if tok.kind == "name" and tok.text == "blowdown":
            self.advance()
            self.expect_sym("(")
            space = self.parse_expr()
            self.expect_sym(",")
            center = self.parse_expr()
            self.expect_sym(",")
            fiber = self.parse_expr()
            self.expect_sym(")")
            return Blowdown(space, center, fiber)
        return self.parse_space()

    def parse_gr(self) -> Gr:
        tok = self.peek()
        if not (tok.kind == "name" and tok.text == "Gr"):
            raise self.fail("'Gr'")
        self.advance()
        self.expect_sym("(")
        k = self.expect_signed_int()
        self.expect_sym(",")
        n = self.expect_signed_int()
        self.expect_sym(")")
        return Gr(k, n)

    def parse_space(self) -> SpaceExpr:
        tok = self.peek()
        if tok.kind != "name":
            raise self.fail("a space")
        name = tok.text
        if name == "Gr":
            return self.parse_gr()
        if name == "P":
            self.advance()
            self.expect_sym("(")
            m = self.expect_int()
            self.expect_sym(")")
            return Proj(m)
        if name == "WP":
            self.advance()
            self.expect_sym("(")
            weights = [self.expect_int()]
            while self.peek().kind == "sym" and self.peek().text == ",":
                self.advance()
                weights.append(self.expect_int())
            self.expect_sym(")")
            return WProj(tuple(weights))
        if name in ("F1", "F2", "Fx"):
            self.advance()
            self.expect_sym("(")
            base = self.parse_gr()
            self.expect_sym(")")
            cls = {"F1": FanoLines, "F2": FanoPlanes, "Fx": PointedLines}[name]
            return cls(base)
        if name == "MbarP1":
            self.advance()
            self.expect_sym("(")
            d = self.expect_int()
            self.expect_sym(")")
            return MbarP1(d)
        if name in ("M", "S", "H"):
            self.advance()
            self.expect_sym("(")
            base = self.parse_gr()
            self.expect_sym(",")
            d = self.expect_int()
            self.expect_sym(")")
            return Moduli(name, base, d)
        raise self.fail("a space")


def parse(text: str) -> SpaceExpr:
    parser = _Parser(text)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise parser.fail("end of input")
    # A long chain like P(1) + P(1) + ... parses in a loop but builds a
    # tall tree, so the height is checked on its own, without recursion.
    height, stack = 0, [(node, 1)]
    while stack:
        e, h = stack.pop()
        height = max(height, h)
        stack.extend((c, h + 1) for c in e.astuple() if isinstance(c, _NODES))
    if height > parser.MAX_DEPTH:
        raise parser.too_deep(0, f"{height} levels")
    return node


def to_text(expr: SpaceExpr) -> str:
    """Canonical printing; parse(to_text(e)) reproduces e."""

    def wrap_factor(e: SpaceExpr) -> str:
        # A sum or difference under a product needs parentheses.
        s = to_text(e)
        return f"({s})" if isinstance(e, (Sum, Diff)) else s

    if isinstance(expr, Proj):
        return f"P({expr.m})"
    if isinstance(expr, WProj):
        return f"WP({','.join(str(w) for w in expr.weights)})"
    if isinstance(expr, Gr):
        return f"Gr({expr.k},{expr.n})"
    if isinstance(expr, FanoLines):
        return f"F1({to_text(expr.base)})"
    if isinstance(expr, FanoPlanes):
        return f"F2({to_text(expr.base)})"
    if isinstance(expr, PointedLines):
        return f"Fx({to_text(expr.base)})"
    if isinstance(expr, MbarP1):
        return f"MbarP1({expr.d})"
    if isinstance(expr, Moduli):
        return f"{expr.compactification}({to_text(expr.base)},{expr.d})"
    if isinstance(expr, Product):
        # The right side also needs parentheses when it is itself a
        # product, since a bare chain reparses left-associated.
        right = to_text(expr.right)
        if isinstance(expr.right, (Sum, Diff, Product)):
            right = f"({right})"
        return f"{wrap_factor(expr.left)} * {right}"
    if isinstance(expr, Sum):
        return f"{to_text(expr.left)} + {wrap_factor(expr.right)}"
    if isinstance(expr, Diff):
        return f"{to_text(expr.left)} - {wrap_factor(expr.right)}"
    if isinstance(expr, Blowup):
        return (
            f"blowup({to_text(expr.space)}, {to_text(expr.center)}, {expr.codim})"
        )
    if isinstance(expr, Blowdown):
        return (
            f"blowdown({to_text(expr.space)}, {to_text(expr.center)}, "
            f"{to_text(expr.fiber)})"
        )
    raise TypeError(f"not a space expression: {expr!r}")


def eval_expr(expr: SpaceExpr) -> PoincarePoly:
    """Evaluate an AST; failures carry the path of the failing node."""
    return _eval(expr, "expr")


def _eval(expr: SpaceExpr, path: str) -> PoincarePoly:
    # Subexpressions first, under their own paths, so the try below tags
    # only this node's step.  A leaf's Gr base is not a subexpression.
    if isinstance(expr, (Product, Sum, Diff, Blowup, Blowdown)):
        parts = [
            _eval(child, f"{path}.{name}")
            for name, child in zip(expr.__slots__, expr.astuple())
            if isinstance(child, _NODES)
        ]
    try:
        if isinstance(expr, Proj):
            return projective(expr.m)
        if isinstance(expr, WProj):
            return weighted_projective(expr.weights)
        if isinstance(expr, Gr):
            return grassmannian(expr.k, expr.n)
        if isinstance(expr, FanoLines):
            return fano_lines(expr.base.k, expr.base.n)
        if isinstance(expr, FanoPlanes):
            return fano_planes(expr.base.k, expr.base.n)
        if isinstance(expr, PointedLines):
            return lines_through_point(expr.base.k, expr.base.n)
        if isinstance(expr, MbarP1):
            return stable_maps_p1(expr.d)
        if isinstance(expr, Moduli):
            key = pipelines.ModuliKey(
                expr.base.k, expr.base.n, expr.d, expr.compactification
            )
            return pipelines.space_poly(key, "closed")
        if isinstance(expr, Product):
            return parts[0] * parts[1]
        if isinstance(expr, Sum):
            return parts[0] + parts[1]
        if isinstance(expr, Diff):
            difference = parts[0].poly - parts[1].poly
            return PoincarePoly.from_poly(difference, what="difference")
        if isinstance(expr, Blowup):
            return blowup_apply(*parts, expr.codim)
        if isinstance(expr, Blowdown):
            return blowdown_apply(*parts)
    except CurvebettiError as e:
        # Retag in place: the class and its fields stay as raised.
        e.args = (f"{e} [at {path}]",)
        raise
    raise TypeError(f"not a space expression: {expr!r}")
