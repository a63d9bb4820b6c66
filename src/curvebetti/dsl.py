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
canonical form, round-tripping through parse.  All three read the
tables below, so a new space is one row of _KEYWORDS and one of
_EVALUATORS.

Importing this module loads no arithmetic: parse and to_text need
none.  eval_expr imports catalog when it evaluates, surgery for the
blow-up and blow-down nodes, and pipelines for a moduli node only once
keys has found its key valid.
"""

from __future__ import annotations

import importlib
import re

from .errors import CurvebettiError, ParseError
from .record import Record

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


# Calls: keyword -> (node class, one argument kind per field).  The kinds
# are int (nonnegative), sint (may be negative: only Gr takes it, so that
# out-of-range Grassmannians can be written down), ints (one or more),
# gr, expr (a subexpression), and name, which reads no token and stores
# the keyword itself.  _Parser.parse_call reads a call, to_text prints it.
_KEYWORDS = {
    "P": (Proj, ("int",)),
    "WP": (WProj, ("ints",)),
    "Gr": (Gr, ("sint", "sint")),
    "F1": (FanoLines, ("gr",)),
    "F2": (FanoPlanes, ("gr",)),
    "Fx": (PointedLines, ("gr",)),
    "MbarP1": (MbarP1, ("int",)),
    **{c: (Moduli, ("name", "gr", "int")) for c in ("M", "S", "H")},
    "blowup": (Blowup, ("expr", "expr", "int")),
    "blowdown": (Blowdown, ("expr", "expr", "expr")),
}

# Infix operators: symbol -> (node class, level); "*" binds tighter.
_INFIX = {"+": (Sum, 1), "-": (Diff, 1), "*": (Product, 2)}
_LEVEL = {cls: level for cls, level in _INFIX.values()}

# Node type -> (keyword or operator, argument kinds), for to_text and _eval.
_SPELLING = {cls: (name, kinds) for name, (cls, kinds) in _KEYWORDS.items()} | {
    cls: (sym, ("expr", "expr")) for sym, (cls, _) in _INFIX.items()
}


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<sym>.))")


class _Token(Record):
    __slots__ = ("kind", "text", "offset")  # kind: "int", "name", "sym", "end"


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind, start = m.lastgroup, m.start(m.lastindex)
        if kind == "sym" and m[kind] not in "()+-*,":
            raise ParseError(start, "a token", repr(m[kind]))
        out.append(_Token(kind, m[kind], start))
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

    def fail(self, expected: str) -> ParseError:
        tok = self.peek()
        found = repr(tok.text) if tok.kind != "end" else "end of input"
        return ParseError(tok.offset, expected, found)

    def accept(self, sym: str) -> bool:
        """Consume the next token if it is the symbol sym."""
        tok = self.peek()
        if tok.kind == "sym" and tok.text == sym:
            self.pos += 1
            return True
        return False

    def expect_sym(self, sym: str) -> None:
        if not self.accept(sym):
            raise self.fail(f"'{sym}'")

    def too_deep(self, offset: int, found: str) -> ParseError:
        return ParseError(offset, f"at most {self.MAX_DEPTH} levels of nesting", found)

    # One parse_<kind> method per argument kind of _KEYWORDS.

    def parse_int(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            raise self.fail("an integer")
        self.pos += 1
        try:
            return int(tok.text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError(tok.offset, "a shorter integer", f"{len(tok.text)} digits") from None

    def parse_sint(self) -> int:
        return -self.parse_int() if self.accept("-") else self.parse_int()

    def parse_ints(self) -> tuple[int, ...]:
        ints = [self.parse_int()]
        while self.accept(","):
            ints.append(self.parse_int())
        return tuple(ints)

    def parse_gr(self) -> Gr:
        return self.parse_call(("Gr",), "'Gr'")

    def parse_expr(self) -> SpaceExpr:
        if self.depth == self.MAX_DEPTH:
            tok = self.peek()
            raise self.too_deep(tok.offset, "deeper nesting")
        self.depth += 1
        node = self.parse_chain(1)
        self.depth -= 1
        return node

    def parse_chain(self, level: int) -> SpaceExpr:
        """A left-associated chain of the _INFIX operators of one level."""
        operand = self.parse_factor if level == 2 else lambda: self.parse_chain(2)
        node = operand()
        while (sym := self.peek().text) in _INFIX and _INFIX[sym][1] == level:
            self.pos += 1
            node = _INFIX[sym][0](node, operand())
        return node

    def parse_factor(self) -> SpaceExpr:
        if self.accept("("):
            node = self.parse_expr()
            self.expect_sym(")")
            return node
        return self.parse_call(_KEYWORDS, "a space")

    def parse_call(self, names, expected: str) -> SpaceExpr:
        """keyword "(" arg { "," arg } ")" for a keyword among names, with
        one arg per kind of its row; expected is what a failure reports."""
        tok = self.peek()
        if tok.kind != "name" or tok.text not in names:
            raise self.fail(expected)
        self.pos += 1
        cls, kinds = _KEYWORDS[tok.text]
        args: list = [tok.text] if kinds[0] == "name" else []
        self.expect_sym("(")
        for i, kind in enumerate(kinds[len(args):]):
            if i:
                self.expect_sym(",")
            args.append(getattr(self, f"parse_{kind}")())
        self.expect_sym(")")
        return cls(*args)


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
        stack.extend((c, h + 1) for c in e.astuple() if type(c) in _SPELLING)
    if height > parser.MAX_DEPTH:
        raise parser.too_deep(0, f"{height} levels")
    return node


def to_text(expr: SpaceExpr) -> str:
    """Canonical printing; parse(to_text(e)) reproduces e."""
    cls = type(expr)
    if cls not in _SPELLING:
        raise TypeError(f"not a space expression: {expr!r}")
    name, kinds = _SPELLING[cls]
    if cls in _LEVEL:
        # An operand that binds more loosely than its operator needs
        # parentheses, and so does a right operand that binds the same,
        # since a bare chain reparses left-associated.  Calls bind tightest.
        left, right = to_text(expr.left), to_text(expr.right)
        if _LEVEL.get(type(expr.left), 3) < _LEVEL[cls]:
            left = f"({left})"
        if _LEVEL.get(type(expr.right), 3) <= _LEVEL[cls]:
            right = f"({right})"
        return f"{left} {name} {right}"
    values = expr.astuple()
    if kinds[0] == "name":
        name, kinds, values = values[0], kinds[1:], values[1:]
    args = [
        ",".join(map(str, v)) if kind == "ints"
        else to_text(v) if kind in ("gr", "expr") else str(v)
        for kind, v in zip(kinds, values)
    ]
    # Surgery calls, the ones with subexpressions, space their commas.
    return f"{name}({(', ' if 'expr' in kinds else ',').join(args)})"


def _moduli(keys, c: str, base: Gr, d: int):
    """A moduli leaf by the closed route; a bad key loads no arithmetic."""
    key = keys.ModuliKey(base.k, base.n, d, c)
    keys.validate_key(key)
    return importlib.import_module(".pipelines", __package__).space_poly(key, "closed")


# Node type -> (module, value): value maps that module and the node's
# fields, each subexpression already evaluated, to the node's value.
# _eval imports the module when a node first needs it, and the builders
# are looked up on it at each call, so that a rebound module attribute
# (a tracing wrapper, say) is the one called.
_EVALUATORS = {
    Proj: ("catalog", lambda catalog, m: catalog.projective(m)),
    WProj: ("catalog", lambda catalog, weights: catalog.weighted_projective(weights)),
    Gr: ("catalog", lambda catalog, k, n: catalog.grassmannian(k, n)),
    FanoLines: ("catalog", lambda catalog, base: catalog.fano_lines(base.k, base.n)),
    FanoPlanes: ("catalog", lambda catalog, base: catalog.fano_planes(base.k, base.n)),
    PointedLines: ("catalog", lambda catalog, base: catalog.lines_through_point(base.k, base.n)),
    MbarP1: ("catalog", lambda catalog, d: catalog.stable_maps_p1(d)),
    Moduli: ("keys", _moduli),
    Product: ("catalog", lambda catalog, left, right: left * right),
    Sum: ("catalog", lambda catalog, left, right: left + right),
    Diff: ("catalog", lambda catalog, left, right: catalog.PoincarePoly.from_poly(
        left.poly - right.poly, what="difference"
    )),
    Blowup: ("surgery", lambda surgery, space, center, codim: surgery.blowup_apply(
        space, center, codim
    )),
    Blowdown: ("surgery", lambda surgery, space, center, fiber: surgery.blowdown_apply(
        space, center, fiber
    )),
}

# Names that code outside the package reads on this module: each is
# resolved from its defining module (the package, for a submodule) at
# every access and never stored here, so the defining module's binding
# is the one seen.
_FORWARDS = {"grassmannian": ".catalog", "pipelines": "."}


def __getattr__(name: str):
    if name not in _FORWARDS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_FORWARDS[name], __package__), name)


def eval_expr(expr: SpaceExpr):
    """Evaluate an AST to a PoincarePoly; failures carry the path of the
    failing node."""
    return _eval(expr, "expr")


def _eval(expr: SpaceExpr, path: str):
    # Subexpressions first, under their own paths, so the try below tags
    # only this node's step.  A leaf's Gr base is not a subexpression.
    if type(expr) not in _SPELLING:
        raise TypeError(f"not a space expression: {expr!r}")
    _, kinds = _SPELLING[type(expr)]
    args = [
        _eval(value, f"{path}.{name}") if kind == "expr" else value
        for name, kind, value in zip(expr.__slots__, kinds, expr.astuple())
    ]
    module_name, value = _EVALUATORS[type(expr)]
    module = importlib.import_module(f".{module_name}", __package__)
    try:
        return value(module, *args)
    except CurvebettiError as e:
        # Retag in place: the class and its fields stay as raised.
        e.args = (f"{e} [at {path}]",)
        raise
