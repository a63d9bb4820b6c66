import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvebetti import dsl
from curvebetti.catalog import (
    DimensionMismatch,
    InvalidParameters,
    NegativeBetti,
    grassmannian,
)
from curvebetti.dsl import (
    Blowdown,
    Blowup,
    Diff,
    FanoLines,
    FanoPlanes,
    Gr,
    MbarP1,
    Moduli,
    ParseError,
    PointedLines,
    Product,
    Proj,
    Sum,
    WProj,
    eval_expr,
    parse,
    to_text,
)
from curvebetti.polyring import IntPoly


def ev(text: str) -> IntPoly:
    return eval_expr(parse(text)).poly


def test_parse_leaves():
    assert parse("Gr(2,4)") == Gr(2, 4)
    assert parse("P(5)") == Proj(5)
    assert parse("WP(1,2,2)") == WProj((1, 2, 2))
    assert parse("MbarP1(3)") == MbarP1(3)
    assert parse("F1(Gr(2,4))") == FanoLines(Gr(2, 4))
    assert parse("S(Gr(1,3),3)") == Moduli("S", Gr(1, 3), 3)


def test_parse_operators_and_precedence():
    expr = parse("P(1) + P(2) * Gr(1,3)")
    assert expr == Sum(Proj(1), Product(Proj(2), Gr(1, 3)))
    expr = parse("(P(1) + P(2)) * Gr(1,3)")
    assert expr == Product(Sum(Proj(1), Proj(2)), Gr(1, 3))
    expr = parse("P(3) - P(1) - P(0)")
    assert expr == Diff(Diff(Proj(3), Proj(1)), Proj(0))


def test_parse_surgery_calls():
    expr = parse("blowup(P(2), P(0), 2)")
    assert expr == Blowup(Proj(2), Proj(0), 2)
    expr = parse("blowdown(blowup(P(2), P(0), 2), P(0), P(1))")
    assert isinstance(expr, Blowdown)


def test_parse_negative_ints_only_inside_gr():
    assert parse("Gr(-1,2)") == Gr(-1, 2)
    assert parse("Gr(2,-1)") == Gr(2, -1)
    with pytest.raises(ParseError):
        parse("P(-1)")
    with pytest.raises(ParseError):
        parse("MbarP1(-2)")


def test_parse_error_offsets():
    with pytest.raises(ParseError) as excinfo:
        parse("Gr(2 4)")
    assert excinfo.value.offset == 5
    assert excinfo.value.expected == "','"
    assert excinfo.value.found == "'4'"

    with pytest.raises(ParseError) as excinfo:
        parse("P(2) +")
    assert excinfo.value.found == "end of input"

    with pytest.raises(ParseError):
        parse("P(2) P(3)")
    with pytest.raises(ParseError):
        parse("Q(2)")
    with pytest.raises(ParseError):
        parse("Gr(2,4) @ P(1)")


def test_eval_leaves():
    assert ev("P(2)") == IntPoly([1, 1, 1])
    assert ev("WP(1,2,2,3,3)") == IntPoly([1, 1, 1, 1, 1])
    assert ev("Gr(2,4)") == IntPoly([1, 1, 2, 1, 1])
    assert ev("Gr(-1,2)") == IntPoly()
    assert ev("F1(Gr(2,4))") == IntPoly([1, 2, 3, 3, 2, 1])
    assert ev("F2(Gr(2,4))") == IntPoly([2, 2, 2, 2])
    assert ev("Fx(Gr(2,4))") == IntPoly([1, 2, 1])
    assert ev("MbarP1(2)") == IntPoly([1, 1, 1])


def test_eval_moduli_leaves():
    assert ev("S(Gr(1,3),3)") == IntPoly([1, 2, 3, 3, 3, 3, 3, 2, 1])
    assert ev("M(Gr(1,3),2)") == IntPoly([1, 2, 3, 3, 2, 1])
    assert ev("H(Gr(1,4),3)") == ev("S(Gr(1,4),3)")


def test_eval_algebra():
    assert ev("P(2) * P(1)") == IntPoly([1, 2, 2, 1])
    assert ev("P(1) + P(3)") == IntPoly([2, 2, 1, 1])
    assert ev("P(3) - P(1)") == IntPoly([0, 0, 1, 1])
    assert ev("Gr(1,4) * Gr(3,4) - Gr(1,4)") == grassmannian(1, 4).poly * (
        grassmannian(3, 4).poly - IntPoly([1])
    )


def test_eval_surgery():
    assert ev("blowup(P(2), P(0), 2)") == IntPoly([1, 2, 1])
    assert ev("blowdown(blowup(P(3), P(1), 2), P(1), P(1))") == IntPoly([1, 1, 1, 1])


def test_eval_errors_carry_paths():
    with pytest.raises(NegativeBetti) as excinfo:
        eval_expr(parse("P(1) - P(2)"))
    assert "[at expr]" in str(excinfo.value)

    with pytest.raises(InvalidParameters) as excinfo:
        eval_expr(parse("P(2) * MbarP1(7)"))
    assert "[at expr.right]" in str(excinfo.value)

    with pytest.raises(DimensionMismatch) as excinfo:
        eval_expr(parse("blowup(P(3), P(1), 7)"))
    assert "[at expr]" in str(excinfo.value)

    with pytest.raises(NegativeBetti) as excinfo:
        eval_expr(parse("blowdown(P(1), P(0), P(2))"))
    assert "[at expr]" in str(excinfo.value)

    with pytest.raises(InvalidParameters):
        eval_expr(parse("H(Gr(1,3),3)"))


def test_to_text_canonical_forms():
    assert to_text(parse("P(2)*P(1)")) == "P(2) * P(1)"
    assert to_text(parse("(P(1)+P(2))*Gr(1,3)")) == "(P(1) + P(2)) * Gr(1,3)"
    assert to_text(parse("blowup(P(2),P(0),2)")) == "blowup(P(2), P(0), 2)"
    assert to_text(parse("S( Gr( 1 , 3 ) , 3 )")) == "S(Gr(1,3),3)"
    assert to_text(parse("P(3) - (P(1) + P(0))")) == "P(3) - (P(1) + P(0))"


leaf_exprs = st.one_of(
    st.integers(0, 4).map(Proj),
    st.builds(Gr, st.integers(0, 3), st.integers(2, 5)),
    st.integers(2, 3).map(MbarP1),
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
        lambda ws: WProj(tuple(ws))
    ),
)


def composite(children):
    return st.one_of(
        st.builds(Sum, children, children),
        st.builds(Product, children, children),
    )


ast_exprs = st.recursive(leaf_exprs, composite, max_leaves=6)

# Every node type, including those whose value may be an error (a
# difference, a surgery, an out-of-range base), for the syntax tests.
gr_exprs = st.builds(Gr, st.integers(-2, 4), st.integers(-2, 7))
any_leaf_exprs = st.one_of(
    leaf_exprs,
    gr_exprs,
    st.builds(FanoLines, gr_exprs),
    st.builds(FanoPlanes, gr_exprs),
    st.builds(PointedLines, gr_exprs),
    st.builds(Moduli, st.sampled_from(["M", "S", "H"]), gr_exprs, st.integers(0, 4)),
)


def any_composite(children):
    return st.one_of(
        composite(children),
        st.builds(Diff, children, children),
        st.builds(Blowup, children, children, st.integers(0, 5)),
        st.builds(Blowdown, children, children, children),
    )


any_exprs = st.recursive(any_leaf_exprs, any_composite, max_leaves=8)


@given(any_exprs)
def test_print_parse_round_trip(expr):
    assert parse(to_text(expr)) == expr


def test_tables_cover_every_node_type():
    nodes = set(dsl.SpaceExpr.__args__)
    assert set(dsl._SPELLING) == set(dsl._EVALUATORS) == nodes
    assert {cls for cls, _ in dsl._KEYWORDS.values()} | {
        cls for cls, _ in dsl._INFIX.values()
    } == nodes
    for cls, (_, kinds) in dsl._SPELLING.items():
        assert len(kinds) == len(cls.__slots__), cls


@given(ast_exprs)
def test_round_trip_preserves_value(expr):
    assert eval_expr(parse(to_text(expr))).poly == eval_expr(expr).poly


@given(ast_exprs, ast_exprs)
def test_sum_and_product_commute(a, b):
    assert eval_expr(Sum(a, b)).poly == eval_expr(Sum(b, a)).poly
    assert eval_expr(Product(a, b)).poly == eval_expr(Product(b, a)).poly


@given(ast_exprs, ast_exprs, ast_exprs)
def test_sum_associates(a, b, c):
    assert (
        eval_expr(Sum(Sum(a, b), c)).poly == eval_expr(Sum(a, Sum(b, c))).poly
    )


def test_nesting_limit():
    limit = 100
    assert parse("(" * (limit - 1) + "P(1)" + ")" * (limit - 1)) == Proj(1)
    with pytest.raises(ParseError) as excinfo:
        parse("(" * limit + "P(1)" + ")" * limit)
    assert excinfo.value.offset == limit
    assert eval_expr(parse(" + ".join(["P(0)"] * limit))).poly == IntPoly([limit])
    with pytest.raises(ParseError):
        parse(" + ".join(["P(0)"] * (limit + 1)))
    with pytest.raises(ParseError):
        parse("blowup(" * limit + "P(0)" + ", P(0), 1)" * limit)
