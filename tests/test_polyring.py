import functools
from array import array
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from curvebetti import polyring
from curvebetti.catalog import grassmannian
from curvebetti.polyring import (
    ONE,
    ZERO,
    DivisionByZero,
    Geometric,
    IntPoly,
    InvalidParameters,
    NonExactDivision,
    exact_div,
    monomial,
    packed_geometric,
    packed_sum,
    ratio,
    slot_tops,
    unpack_slots,
)

coeff_lists = st.lists(st.integers(-9, 9), max_size=8)
nonzero_lists = coeff_lists.filter(lambda cs: any(cs))


def P(*cs):
    return IntPoly(cs)


def test_canonical_representation():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).coeffs == ()
    assert IntPoly() == ZERO
    assert ZERO.degree == -1
    assert P(5).degree == 0


def test_basic_arithmetic():
    assert P(1, 1) * P(1, -1) == P(1, 0, -1)
    assert P(1, 2) + P(0, -2, 3) == P(1, 0, 3)
    assert P(1, 1) - P(1, 1) == ZERO
    assert P(1) + P(0, 1) == P(1, 1)
    assert P(1) - P(0, 1) == P(1, -1)
    assert 1 - monomial(1) == P(1, -1)
    with pytest.raises(TypeError):
        P(1) + 1.5


def test_scalar_and_power():
    assert 3 * P(1, 1) == P(3, 3)
    assert P(1, 1) * P(1, 1) == P(1, 2, 1)
    assert monomial(3) == P(0, 0, 0, 1)
    assert monomial(2, -4) == P(0, 0, -4)
    assert monomial(0, 7) == P(7)
    with pytest.raises(InvalidParameters):
        monomial(-2, 5)


def test_exact_div_geometric():
    # (1 - q^4) / (1 - q) = 1 + q + q^2 + q^3
    assert exact_div(ONE - monomial(4), ONE - monomial(1)) == P(1, 1, 1, 1)


def test_exact_div_gaussian_binomial():
    num = (ONE - monomial(3)) * (ONE - monomial(4))
    den = (ONE - monomial(1)) * (ONE - monomial(2))
    assert exact_div(num, den) == P(1, 1, 2, 1, 1)


def test_exact_div_rejects_remainder():
    # long division of 1 - q^3 by 1 + q leaves remainder 2
    with pytest.raises(NonExactDivision):
        exact_div(ONE - monomial(3), ONE + monomial(1))


def test_exact_div_rejects_non_integer_quotient():
    # q^2 - 1 = (2q - 2)(q + 1)/2 has no integer-coefficient quotient
    with pytest.raises(NonExactDivision):
        exact_div(P(-1, 0, 1), P(-2, 2))


def test_exact_div_edge_cases():
    assert exact_div(ZERO, P(1, 1)) == ZERO
    with pytest.raises(DivisionByZero):
        exact_div(P(1, 1), ZERO)
    with pytest.raises(NonExactDivision):
        exact_div(P(1), P(1, 1))
    assert P(1, 0, -1) / P(1, 1) == P(1, -1)


def test_evaluate():
    assert P(1, 1, 2, 1, 1).evaluate(1) == 6
    assert P(1, 1, 2, 1, 1).evaluate(2) == 35
    assert ZERO.evaluate(7) == 0
    assert P(3, -1).evaluate(0) == 3


def test_palindrome_check():
    assert P(1, 2, 1).is_palindromic()
    assert not P(1, 2, 3).is_palindromic()
    assert ZERO.is_palindromic()
    assert P(7).is_palindromic()


def test_str_forms():
    assert str(P(1, 0, -1)) == "1 - q^2"
    assert str(P(0, 2)) == "2q"
    assert str(ZERO) == "0"


@given(coeff_lists, coeff_lists)
def test_addition_commutes(a, b):
    assert IntPoly(a) + IntPoly(b) == IntPoly(b) + IntPoly(a)


@given(coeff_lists, coeff_lists)
def test_multiplication_commutes(a, b):
    assert IntPoly(a) * IntPoly(b) == IntPoly(b) * IntPoly(a)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_distributivity(a, b, c):
    pa, pb, pc = IntPoly(a), IntPoly(b), IntPoly(c)
    assert pa * (pb + pc) == pa * pb + pa * pc


@given(coeff_lists, nonzero_lists)
def test_exact_div_undoes_multiplication(a, b):
    pa, pb = IntPoly(a), IntPoly(b)
    assert exact_div(pa * pb, pb) == pa


@given(nonzero_lists, nonzero_lists)
def test_exact_div_agrees_with_sympy(a, b):
    """Independent oracle: divide over the rationals with sympy and
    port the answer back.  exact_div must succeed exactly when the
    rational quotient exists and has integer coefficients."""
    q = sympy.Symbol("q")
    pa, pb = IntPoly(a), IntPoly(b)
    sa = sympy.Poly(list(reversed(pa.coeffs)), q, domain="QQ")
    sb = sympy.Poly(list(reversed(pb.coeffs)), q, domain="QQ")
    quo, rem = sympy.div(sa, sb, domain="QQ")
    divisible = rem.is_zero and all(
        sympy.Integer(c) == c for c in quo.all_coeffs()
    )
    if divisible:
        expected = IntPoly(int(c) for c in reversed(quo.all_coeffs()))
        assert exact_div(pa, pb) == expected
    else:
        with pytest.raises(NonExactDivision):
            exact_div(pa, pb)


@given(coeff_lists, st.integers(-5, 5))
def test_evaluate_is_ring_map(a, x):
    pa = IntPoly(a)
    assert (pa * pa).evaluate(x) == pa.evaluate(x) ** 2
    assert (pa + ONE).evaluate(x) == pa.evaluate(x) + 1


@given(coeff_lists)
def test_palindrome_iff_equal_to_reversal(a):
    p = IntPoly(a)
    assert p.is_palindromic() == (p == p.reversed())


# ------------------------------------------------ packed multiplication


def schoolbook(a: IntPoly, b: IntPoly) -> IntPoly:
    """Reference product: the quadratic double loop."""
    if not a or not b:
        return ZERO
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPoly(out)


# Zeros, units and coefficients up to 256 bits, with mixed signs, so that
# slot widths from one byte to several dozen are exercised.
wide_coeffs = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-(2**256), 2**256),
    st.integers(-(2**16), 2**16),
)
# The length is drawn first, so long operands come up as often as short.
long_lists = st.integers(1, 300).flatmap(
    lambda n: st.lists(wide_coeffs, min_size=n, max_size=n)
)


@settings(deadline=None, max_examples=30)
@given(long_lists, long_lists)
def test_product_matches_schoolbook(a, b):
    pa, pb = IntPoly(a), IntPoly(b)
    assert pa * pb == schoolbook(pa, pb)


def test_product_at_the_slot_bound():
    # Coefficients of maximal magnitude make the middle product coefficient
    # as large as the slot width allows, at either sign, with one operand
    # or both signed.
    for bits_a in range(1, 12):
        for bits_b in range(1, 12):
            for n in (1, 2, 3, 4, 7, 8, 15, 16, 31):
                a, b = [2**bits_a - 1] * n, [2**bits_b - 1] * n
                for x, y in sign_patterns(a, b):
                    assert x * y == schoolbook(x, y)


def test_product_edge_cases():
    big = 2**256 - 1
    assert IntPoly([big]) * IntPoly([-big]) == IntPoly([-(big * big)])
    runs = IntPoly([big] * 300)
    assert runs * runs == schoolbook(runs, runs)
    assert IntPoly([1, -1] * 150) * ZERO == ZERO
    assert ZERO * IntPoly([5]) == ZERO
    assert 0 * IntPoly([1, 2]) == ZERO
    assert IntPoly([-1]) * IntPoly([-1]) == ONE


def middle(bits_a: int, bits_b: int, n: int) -> int:
    """packed_sum's bound for a product of two length-n operands whose
    coefficients all have the given bit lengths at their largest,
    n (2^bits_a - 1)(2^bits_b - 1): its middle coefficient, exactly."""
    return n * (2**bits_a - 1) * (2**bits_b - 1)


def slot_width(bits_a: int, bits_b: int, n: int) -> int:
    """Bytes per slot that packed_sum asks for such a product: the fewest
    whose half-range exceeds the bound, before rounding to an item size."""
    return middle(bits_a, bits_b, n).bit_length() // 8 + 1


def operands_at_each_slot_width():
    """(width, a, b) for every slot width of 1 to 9 bytes, with all-equal
    operands whose bound fills the width to its last bit, and whose bound
    is one bit longer than fills the width below."""
    for width in range(1, 10):
        # At n = 255 the length takes a whole byte of the slot.
        for n in (1, 2, 3, 7, 16, 100, 255):
            for bits in (8 * width - 8, 8 * width - 1):  # the bound's bit length
                for bits_a in {1, max(bits // 2, 1)}:
                    fits = [b for b in range(1, bits + 1) if middle(bits_a, b, n).bit_length() == bits]
                    if fits:
                        assert slot_width(bits_a, fits[0], n) == width
                        yield width, [2**bits_a - 1] * n, [2**fits[0] - 1] * n


def sign_patterns(a: list[int], b: list[int]):
    """The operands as nonnegative x nonnegative; one operand signed
    (negated, or alternating in sign) and the other nonnegative; and both
    signed (alternating, negated or one of each).  Signed operands pack
    through the signed typecodes, with one borrow per negative slot."""
    alt_a = [(-1) ** i * c for i, c in enumerate(a)]
    alt_b = [(-1) ** i * c for i, c in enumerate(b)]
    neg_a, neg_b = [-c for c in a], [-c for c in b]
    for x, y in (
        (a, b),
        (a, neg_b), (neg_a, b), (a, alt_b), (alt_a, b),
        (alt_a, alt_b), (neg_a, neg_b), (alt_a, neg_b),
    ):
        yield IntPoly(x), IntPoly(y)


def test_product_at_every_slot_width():
    # Widths 1 to 8 bytes take the array typecodes of 1, 2, 4 and 8 bytes;
    # width 9 is the first to take byte slices.  All-equal coefficients
    # of maximal magnitude make the middle product coefficient as large
    # as the width allows, and each product is decoded at the width its
    # bound asks for, rounded up to an item size.
    widths, used = set(), set()
    for width, a, b in operands_at_each_slot_width():
        widths.add(width)
        for pa, pb in sign_patterns(a, b):
            with mock.patch.object(polyring, "unpack_slots", wraps=polyring.unpack_slots) as unpack:
                assert pa * pb == schoolbook(pa, pb), (width, len(a))
            [call] = unpack.call_args_list
            slot = call.args[2]
            assert slot == polyring._SLOTS.get(width, (width,))[0], (width, len(a))
            used.add(slot)
    assert widths == set(range(1, 10))
    assert used == {1, 2, 4, 8, 9}
    assert sorted({size for size, _ in polyring._SLOTS.values()}) == [1, 2, 4, 8]
    assert 9 not in polyring._SLOTS


@pytest.mark.parametrize("dropped", [1, 2, 4, 8])
def test_product_without_one_typecode_size(monkeypatch, dropped):
    # A platform without an item size rounds slots up to the next size,
    # or, past 8 bytes, falls back to byte slices.
    codes = [c for c in "BHILQ" if array(c).itemsize != dropped]
    monkeypatch.setattr(polyring, "_SLOTS", polyring._slot_types(codes))
    assert all(size != dropped for size, _ in polyring._SLOTS.values())
    for _, a, b in operands_at_each_slot_width():
        for pa, pb in sign_patterns(a, b):
            assert pa * pb == schoolbook(pa, pb)


@settings(deadline=None, max_examples=30)
@given(st.integers(-(2**256), 2**256), long_lists)
def test_int_times_poly(c, a):
    pa = IntPoly(a)
    assert c * pa == pa * c == IntPoly([c * x for x in a])


# --------------------------------- products by sparse and single-run factors

nonzero_coeffs = st.one_of(
    st.sampled_from([1, -1, 2, -2]),
    st.integers(-(2**100), 2**100).filter(bool),
)


@st.composite
def special_factors(draw):
    """c q^s, c q^s + d q^t with t = s + 1 or a gap, or a single run
    c q^s (1 + ... + q^(m-1)) with m from 1 to 200."""
    s = draw(st.integers(0, 60))
    c = draw(nonzero_coeffs)
    kind = draw(st.sampled_from(["monomial", "binomial", "run"]))
    if kind == "monomial":
        return monomial(s, c)
    if kind == "binomial":
        t = s + draw(st.one_of(st.just(1), st.integers(2, 300)))
        return monomial(s, c) + monomial(t, draw(nonzero_coeffs))
    return IntPoly((0,) * s + (c,) * draw(st.integers(1, 200)))


@settings(deadline=None, max_examples=60)
@given(special_factors(), long_lists, st.booleans())
def test_sparse_and_run_factors_match_schoolbook(b, a, b_first):
    # The special factor comes up both as the shorter operand and as the
    # longer one; the value is checked either way.
    pa = IntPoly(a)
    assert (b * pa if b_first else pa * b) == schoolbook(pa, b)


def test_sparse_and_run_factors_at_the_edges():
    a = IntPoly([3, -1, 4, 1, -5, 9, 2, -6])
    for b in (
        ONE,
        -ONE,
        monomial(5, 2**100),
        monomial(0, -7) + monomial(1, 7),
        monomial(2) - monomial(200),
        IntPoly([0, 0] + [-1] * 3),
        IntPoly([5] * 8),
        IntPoly([1, 2, 1]),
        IntPoly([1, 1, 0, 1]),
        IntPoly([0] * 3 + [-4] * 20),  # a run longer than a
        IntPoly([0] * 30 + [9]),  # a monomial longer than a
        IntPoly([1] * 9 + [0, 1]),  # middle 1 = top, not a run
    ):
        assert a * b == b * a == schoolbook(a, b), b


def test_addition_strips_cancelled_top_terms_and_takes_ints():
    assert IntPoly([1, 2]) + IntPoly([0, -2]) == IntPoly([1])
    assert (IntPoly([1, 2]) + IntPoly([0, -2])).coeffs == (1,)
    assert IntPoly([0, 1]) + IntPoly([0, -1]) == ZERO
    assert IntPoly([1, 2, 3]) + 4 == 4 + IntPoly([1, 2, 3]) == IntPoly([5, 2, 3])
    assert IntPoly([-3]) + 3 == ZERO and ZERO + 0 == ZERO
    assert IntPoly([1]) + IntPoly([0, 0, 5]) == IntPoly([1, 0, 5])


@given(coeff_lists, coeff_lists, st.integers(-5, 5))
def test_addition_is_termwise(a, b, c):
    n = max(len(a), len(b))
    padded = [x + y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]
    assert IntPoly(a) + IntPoly(b) == IntPoly(b) + IntPoly(a) == IntPoly(padded)
    assert IntPoly(a) + c == c + IntPoly(a) == IntPoly(a) + IntPoly([c])


@given(coeff_lists, coeff_lists, st.integers(-5, 5))
def test_subtraction_is_adding_the_negation(a, b, c):
    pa, pb = IntPoly(a), IntPoly(b)
    assert pa - pb == pa + (-pb) == -(pb - pa)
    assert c - pa == IntPoly([c]) + (-pa)
    assert pa - c == pa + IntPoly([-c])


# ------------------------------------------------------ (1 - q^j) steps


def one_minus(j: int) -> IntPoly:
    return ONE - monomial(j)


@given(coeff_lists, st.integers(0, 12))
def test_mul_one_minus_is_a_product(a, j):
    pa = IntPoly(a)
    assert ratio(pa, (j,)) == pa * one_minus(j)


@given(
    st.lists(wide_coeffs, max_size=60),
    st.integers(1, 12),
    st.integers(0, 80),
    st.sampled_from([0, 1, -1, 2**70]),
)
def test_div_one_minus_agrees_with_exact_div(a, j, at, delta):
    # An exact multiple of (1 - q^j), perturbed by delta q^at or not: both
    # dividers must return the same quotient or both must raise.
    p = ratio(IntPoly(a), (j,)) + monomial(at, delta)
    try:
        expected = exact_div(p, one_minus(j))
    except NonExactDivision:
        with pytest.raises(NonExactDivision):
            ratio(p, down=(j,))
    else:
        assert ratio(p, down=(j,)) == expected
        if delta == 0:
            assert expected == IntPoly(a)


@given(
    coeff_lists,
    st.lists(st.integers(0, 6), max_size=3),
    st.lists(st.integers(1, 6), max_size=3),
    st.integers(0, 24),
    st.sampled_from([0, 1, -1]),
)
def test_ratio_agrees_with_exact_div(a, up, down, at, delta):
    # A multiple of every divided factor, perturbed by delta q^at or not:
    # ratio must return exact_div's quotient of the whole products, or
    # raise exactly when exact_div does.
    p = functools.reduce(IntPoly.__mul__, map(one_minus, down), IntPoly(a))
    p = p + monomial(at, delta)
    num = functools.reduce(IntPoly.__mul__, map(one_minus, up), p)
    den = functools.reduce(IntPoly.__mul__, map(one_minus, down), ONE)
    try:
        expected = exact_div(num, den)
    except NonExactDivision:
        with pytest.raises(NonExactDivision):
            ratio(p, up, down)
    else:
        assert ratio(p, up, down) == expected


def outcome(f):
    """f's value, or the class and text of the division error it raises."""
    try:
        return f()
    except (NonExactDivision, DivisionByZero) as e:
        return type(e).__name__, str(e)


# Mostly nonnegative operands, so that exact quotients are often
# nonnegative and the packed division is certified.
ratio_operands = st.lists(
    st.one_of(st.integers(0, 9), st.integers(0, 2**40), st.integers(-9, 9), wide_coeffs),
    min_size=0,
    max_size=40,
)


@settings(deadline=None, max_examples=300)
@given(
    ratio_operands,
    ratio_operands,
    st.lists(st.integers(0, 6), max_size=3),
    st.lists(st.integers(0, 6), max_size=5),
    st.booleans(),
)
def test_ratio_by_is_ratio_of_the_product(x, y, up, down, divisible):
    # Packed and certified, or fallen back to the list steps: the same
    # quotient, or the same error and text, as ratio of the product.
    px, py = IntPoly(x), IntPoly(y)
    if divisible and 0 not in down:
        px = ratio(px, up=down)
    assert outcome(lambda: ratio(px, up, down, by=py)) == outcome(
        lambda: ratio(px * py, up, down)
    )


@settings(deadline=None, max_examples=200)
@given(
    ratio_operands,
    ratio_operands,
    st.lists(st.integers(0, 6), max_size=3),
    st.lists(st.integers(4, 60), min_size=1, max_size=2),
    st.booleans(),
)
def test_ratio_by_divides_small_and_large_factors(x, y, up, large, divisible):
    # The kernel's small factors and larger ones, each divided by running
    # sums and checked by Q(B) D(B) = N(B): the same quotient, or the
    # same error and text, as ratio of the product.
    down = (1, 2, 2, 3, 3, *large)
    px, py = IntPoly(x), IntPoly(y)
    if divisible:
        px = ratio(px, up=down)
    assert outcome(lambda: ratio(px, up, down, by=py)) == outcome(
        lambda: ratio(px * py, up, down)
    )


def test_ratio_by_refuses_a_perturbed_numerator_at_size():
    # The size of the H pipeline's one large ratio at (17, 44), by the
    # lines' Gr(18, 44).  Exact, it is certified packed; with one
    # coefficient changed, or a multiple of the small factors added, so
    # that only a running-sum division is inexact, it raises the list
    # path's NonExactDivision.
    down = (1, 2, 2, 3, 3, 27, 19)
    lines = grassmannian(18, 44).poly
    small = IntPoly(range(1, 90))
    num = ratio(small, up=down)
    with mock.patch.object(polyring, "accumulate", wraps=polyring.accumulate) as sums:
        assert ratio(num, down=down, by=lines) == small * lines
    assert not sums.called
    kernel_multiple = ratio(monomial(40), up=(1, 2, 2, 3, 3))
    for bad in (num + monomial(57), num + kernel_multiple):
        expected = outcome(lambda: ratio(bad * lines, down=down))
        assert expected[0] == "NonExactDivision"
        assert outcome(lambda: ratio(bad, down=down, by=lines)) == expected


def test_ratio_by_checks_each_running_sum_division():
    # Running sums mod B^s never read the top coefficients of their
    # dividend: an error there is caught only by the check that Q(B) D(B)
    # is N(B), and then the list path raises.
    down = (1, 2, 2, 3, 3, 27)
    num = ratio(IntPoly(range(1, 90)), up=down)
    bad = num + ratio(monomial(num.degree - 11), up=(1, 2, 2, 3, 3))
    expected = outcome(lambda: ratio(bad, down=down))
    assert expected[0] == "NonExactDivision"
    assert outcome(lambda: ratio(bad, down=down, by=ONE)) == expected


def test_ratio_by_checks_the_product_at_full_length(monkeypatch):
    # Running sums mod B^3 never read the top four coefficients of N =
    # (1 + q)^2 (1 - q)(1 - q^3) + q^6: they give (1 + q)^2, which passes
    # the slot test, and only Q(B) D(B) != N(B) refuses it; the list path
    # raises.  The second N, which D does not divide either, gives slots
    # that the slot test refuses.
    calls = recording_dividers(monkeypatch)
    for x, by in ((ratio(IntPoly([1, 2, 1]), (1, 3)) + monomial(6), ONE),
                  (IntPoly([-1, -2, 3, 3, 0, -2, 3]), IntPoly([8, 39]))):
        expected = outcome(lambda: ratio(x * by, (), (1, 3)))
        assert expected[0] == "NonExactDivision"
        assert outcome(lambda: ratio(x, (), (1, 3), by=by)) == expected
    assert calls == [("full", False), ("full", False)]


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=8),
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    st.sets(st.sampled_from((1, 2, 3)), min_size=1),
)
def test_ratio_by_refuses_inexact_small_numerators(x, y, down):
    # Operands this small pack in 1-byte slots, every product coefficient
    # at most 27, and every down is one of the kernel's small factors: an
    # inexact numerator is refused, with the list path's error and text.
    px, py, down = IntPoly(x), IntPoly(y), tuple(sorted(down))
    expected = outcome(lambda: ratio(px * py, (), down))
    assume(isinstance(expected, tuple))
    assert outcome(lambda: ratio(px, (), down, by=py)) == expected


@settings(deadline=None, max_examples=200)
@example(x=[-2, 1], pairs=[(1, 1)], down=[], plant=0)  # D = 1: only the mask certifies
@given(
    st.lists(st.one_of(st.integers(0, 9), st.integers(-9, 9), st.integers(0, 2**70)), min_size=1, max_size=10),
    st.lists(st.tuples(st.integers(1, 5), st.integers(1, 4)), min_size=1, max_size=3),
    st.lists(st.sampled_from((1, 2, 3, 5, 7)), max_size=4),
    st.integers(-1, 3),
)
def test_ratio_through_geometric_pairs_is_the_list_steps(x, pairs, down, plant):
    # Each pair (i m, i) multiplies by 1 + q^i + ... + q^(i (m - 1)),
    # packed in the width fixed beforehand or, patched, in one byte: an
    # exact numerator gives the list steps' quotient on either path, and
    # one with a planted q^plant the list steps' error.
    geometric = [(i * m, i) for m, i in pairs]
    num = ratio(IntPoly(x), down)
    if plant >= 0:
        num += monomial(plant)
    every_a, every_i = [a for a, _ in geometric], [i for _, i in geometric]
    expected = outcome(lambda: ratio(num, every_a, down + every_i))
    assert outcome(lambda: ratio(num, (), down, geometric=geometric)) == expected
    with mock.patch.object(polyring, "_quotient_width", lambda *args: 1):
        assert outcome(lambda: ratio(num, (), down, geometric=geometric)) == expected
    if plant >= 0 and isinstance(expected, tuple):
        assert expected[0] == "NonExactDivision"


@st.composite
def symmetric_polys(draw):
    """(p, e): p palindromic (e = 1) or anti-palindromic (e = -1), its
    constant term nonzero, so that the coefficient tuple is the one read."""
    e = draw(st.sampled_from((1, 1, -1)))
    half = [draw(st.integers(1, 9))] + draw(st.lists(st.integers(0, 2**40), max_size=6))
    middle = draw(st.lists(st.integers(0, 9), max_size=1)) if e == 1 else []
    return IntPoly(half + middle + [e * c for c in reversed(half)]), e


def recording_dividers(monkeypatch) -> list:
    """Patch the packed divider to record (path, certified) per call,
    path "half" if it divides only to the middle, else "full"."""
    calls, quotient = [], polyring._quotient

    def recording(v, nb, down, count, half, width):
        quot = quotient(v, nb, down, count, half, width)
        calls.append(("half" if half else "full", quot is not None))
        return quot

    monkeypatch.setattr(polyring, "_quotient", recording)
    return calls


@settings(deadline=None, max_examples=300)
@given(
    symmetric_polys(),
    st.one_of(st.none(), symmetric_polys()),
    st.lists(st.tuples(st.integers(1, 5), st.integers(1, 4)), max_size=3),
    st.lists(st.integers(1, 6), max_size=2),
    st.lists(st.sampled_from((1, 1, 2, 3, 4, 5, 7, 11)), max_size=5),
    st.integers(-1, 40),
)
def test_palindromic_quotients_are_divided_only_to_the_middle(m, y, pairs, up, down, plant):
    # N = M prod(1 - q^i) over down, times y, the geometric sums and up:
    # D divides N.  The packed ratio is the list steps' quotient and,
    # with no least length, divides only to the middle whenever the
    # quotient is palindromic (sign +1) and h = ceil(len(N) / 2) is below
    # its length; certified whenever the quotient is also nonnegative.
    # A planted symmetric pair of terms q^s, e q^(L-1-s) keeps N's
    # symmetry and gives the list steps' quotient or error, which no
    # certificate accepts.
    (m, e_m), (y, e_y) = m, y or (None, 1)
    geometric = [(i * k, i) for k, i in pairs]
    x = ratio(m, down)
    if 0 < plant < len(x.coeffs) - 1:  # the end coefficients stay, and so len(N)
        e_x = e_m * (-1) ** len(down)
        x += monomial(plant) + monomial(len(x.coeffs) - 1 - plant, e_x)
    every_a, every_i = [a for a, _ in geometric], [i for _, i in geometric]
    expected = outcome(lambda: ratio(x if y is None else x * y, (*up, *every_a), (*down, *every_i)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(polyring, "_HALF_MIN_COUNT", 0)
        calls = recording_dividers(monkeypatch)
        assert outcome(lambda: ratio(x, up, down, by=y, geometric=geometric)) == expected
    if not (x and (down and y is not None or geometric)):
        assert calls == []
        return
    count = len(x.coeffs) + len(y.coeffs if y else (1,)) - 1 + sum(up) - sum(down) + sum(
        a - i for a, i in geometric)
    halved = e_m * e_y * (-1) ** len(up) == 1 and (count + sum(down) + 1) // 2 < count
    if not calls:  # refused before packing: Q(1) < 0, so Q has a negative coefficient
        assert not isinstance(expected, IntPoly) or expected.evaluate(1) < 0
        return
    assert [path for path, _ in calls] == ["half" if halved else "full"]
    if halved and isinstance(expected, IntPoly) and min(expected.coeffs) >= 0:
        assert calls == [("half", True)]
    if isinstance(expected, tuple):
        assert not calls[0][1]


def test_a_quotient_negative_at_one_is_refused_before_packing(monkeypatch):
    # (q^2 - 1) / (1 - q) = -1 - q: Q(1) = -2 < 0, so Q has a negative
    # coefficient, which neither certificate accepts, and nothing is
    # packed; the list steps give the quotient.  Its negative, Q(1) = 2,
    # is packed and certified.
    calls = recording_dividers(monkeypatch)
    assert ratio(IntPoly([-1, 0, 1]), (), (1,), by=ONE) == IntPoly([-1, -1])
    assert calls == []
    assert ratio(IntPoly([1, 0, -1]), (), (1,), by=ONE) == IntPoly([1, 1])
    assert calls == [("full", True)]


@pytest.mark.parametrize("m", [[1, 1], [1, 3, 1], [2, 1, 1, 2], [1, 0, 0, 1], [5, 9, 9, 5]])
def test_a_symmetric_numerator_one_down_factor_does_not_divide_is_refused(monkeypatch, m):
    # N = M (1 - q^2)(1 - q^3)(1 - q^4) [9 choose 4]_q is
    # anti-palindromic, and D = (1 - q^2)(1 - q^3)(1 - q^5) would leave a
    # palindromic Q, divided to the middle by running sums mod B^h, with
    # no remainder to see.  No factor of N vanishes at a primitive 5th
    # root of unity, so 1 - q^5 does not divide N, and only the half
    # path's certificate stands between the low half's mirror and a
    # wrong quotient.
    x, y = ratio(IntPoly(m), (2, 3, 4)), grassmannian(4, 9).poly
    monkeypatch.setattr(polyring, "_HALF_MIN_COUNT", 0)
    calls = recording_dividers(monkeypatch)
    with pytest.raises(NonExactDivision):
        ratio(x, (), (2, 3, 5), by=y)
    assert calls == [("half", False)]


def test_a_quotient_too_short_to_halve_is_refused_before_packing(monkeypatch):
    # (1 + q)(1 - q^5)(1 - q^7) / ((1 - q^5)(1 - q^7)): len(N) = 14, so
    # h = 7 is no shorter than Q's 2 coefficients, and the division runs
    # at full length, with no least length too: decided before anything
    # is packed.
    monkeypatch.setattr(polyring, "_HALF_MIN_COUNT", 0)
    events, half_length, pack = [], polyring._half_length, polyring._pack

    def recording_length(*args):
        events.append(("length", half_length(*args)))
        return events[-1][1]

    def recording_pack(*args):
        events.append("pack")
        return pack(*args)

    monkeypatch.setattr(polyring, "_half_length", recording_length)
    monkeypatch.setattr(polyring, "_pack", recording_pack)
    calls = recording_dividers(monkeypatch)
    x = ratio(IntPoly([1, 1]), (5, 7))
    assert ratio(x, (), (5, 7), by=IntPoly([1, 2, 1])) == IntPoly([1, 3, 3, 1])
    assert events == [("length", 0), "pack", "pack"] and calls == [("full", True)]


@pytest.mark.parametrize("x, by, up, down", [
    # sign -1: (1 + q)^3 (1 - q^4) is anti-palindromic, and signed.
    (ratio(IntPoly([1, 2, 1]), (2, 3)), IntPoly([1, 1]), (4,), (2, 3)),
    # a zero constant term: q (1 + q)^2 (1 - q^2)(1 - q^3) is neither.
    (ratio(IntPoly([0, 1, 2, 1]), (2, 3)), IntPoly([1, 1]), (), (2, 3)),
    # anti-palindromic x, y palindromic, no up: sign -1 again.
    (ratio(IntPoly([1, -1]), (1, 2)), IntPoly([1, 4, 1]), (), (1, 2)),
])
def test_quotients_not_halved_take_the_full_length(monkeypatch, x, by, up, down):
    monkeypatch.setattr(polyring, "_HALF_MIN_COUNT", 0)
    calls = recording_dividers(monkeypatch)
    expected = ratio(x * by, up, down)
    calls.clear()
    assert ratio(x, up, down, by=by) == expected
    assert [path for path, _ in calls] == ["full"]
    assert calls[0][1] == (min(expected.coeffs) >= 0)


@pytest.mark.parametrize("a, path", [(191, "full"), (192, "half")])
def test_the_middle_is_taken_from_192_slots(monkeypatch, a, path):
    # 1 + q + ... + q^(a-1) as the geometric pair (a, 1): below 192
    # slots the half path's running sums cost more than halving saves.
    assert polyring._HALF_MIN_COUNT == 192
    calls = recording_dividers(monkeypatch)
    assert ratio(ONE, geometric=[(a, 1)]) == IntPoly([1] * a)
    assert calls == [(path, True)]


@pytest.mark.parametrize("m, certified", [(63, True), (64, False)])
def test_slots_too_narrow_for_the_middle_are_refused(monkeypatch, m, certified):
    # As test_ratio_by_certifies_or_falls_back: (1 - q^m)^2 / (1 - q)^2
    # in 1-byte slots is certified up to m = 63.  Halved, its low half
    # holds the peak m at q^(m-1), so m = 64 is refused by the slot test
    # and the list steps give the same polynomial.
    monkeypatch.setattr(polyring, "_HALF_MIN_COUNT", 0)
    monkeypatch.setattr(polyring, "_quotient_width", lambda *args: 1)
    calls = recording_dividers(monkeypatch)
    run = IntPoly([1] * m)
    assert ratio(ratio(ONE, (m, m)), down=(1, 1), by=ONE) == schoolbook(run, run)
    assert calls == [("half", certified)]


@pytest.mark.parametrize("lifts", [3, 5, 8])
def test_the_width_fixed_beforehand_certifies_a_quotient_equal_to_its_value_at_one(lifts):
    # c (1 - q)^l / (1 - q)^l = c: the quotient's one coefficient is Q(1)
    # itself, so a width from any bound below Q(1) is too narrow for it
    # somewhere below 80 bits, and the attempt falls back.
    d = ratio(ONE, (1,) * lifts)
    for j in range(1, 80):
        for c in (2**j - 1, 2**j, 3 << j - 1):
            with mock.patch.object(polyring, "accumulate", wraps=polyring.accumulate) as sums:
                assert ratio(IntPoly([c * e for e in d.coeffs]), (), (1,) * lifts, by=ONE) == IntPoly([c])
            assert not sums.called, (lifts, c)


def test_the_width_holds_the_numerator_times_its_geometric_sums():
    # The certificate needs nb >= every |N_j|, N = x G the product it
    # divides.  Here x_2(1) = 0, so Q(1) says nothing and nb alone sets
    # the width: with nb = max|x| prod(a / i), N's coefficients of up to
    # 11,900 still fit below half a slot.
    widths, quotient_width = [], polyring._quotient_width

    def recording(*args):
        widths.append(quotient_width(*args))
        return widths[-1]

    x, pairs = IntPoly([100, 100]), [(60, 1), (60, 1)]
    with mock.patch.object(polyring, "_quotient_width", recording):
        with pytest.raises(NonExactDivision):
            ratio(x, (), (1, 1), geometric=pairs)
    product = ratio(x, (60, 60), (1, 1))
    assert widths and max(product.coeffs) == 11900 < 2 ** (8 * widths[0] - 1)


def test_ratio_refuses_a_pair_that_is_no_geometric_sum():
    for pair in ((3, 2), (0, 1), (2, 0), (-2, -1)):
        with pytest.raises(InvalidParameters, match="geometric pairs"):
            ratio(ONE, geometric=[pair])
    assert ratio(ZERO, (1,), (1,), geometric=[(6, 2)]) == ZERO
    assert ratio(IntPoly([1, 1]), geometric=[(4, 2)]) == IntPoly([1, 1, 1, 1])


def test_packed_sum_bounds_the_lifted_coefficients():
    # -100 + 100q has norms 200 and 100, so 1-byte slots hold it, but
    # not its lift by 1 - q, -100 + 200q - 100q^2: the bound doubles per
    # lift, or the middle slot overflows and decodes as -56.
    assert packed_sum([((IntPoly([-100, 100]),), (1,))]) == IntPoly([-100, 200, -100])


# Slot edges are where a bound without its lifts picks too narrow a slot.
lifted_coeffs = st.one_of(st.integers(-300, 300), st.sampled_from((-128, -65, -64, 63, 64, 127)))


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.lists(lifted_coeffs, max_size=4), min_size=1, max_size=3),
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 2), max_size=3),
            st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=3).map(tuple),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_packed_sum_is_the_sum_of_the_lifted_products(pool, picks):
    # Parts share factor objects, as fold's do, and each factor is packed
    # once: the sum equals the plain sum of each product times its lifts.
    factors = [IntPoly(cs) for cs in pool]
    parts = [(tuple(factors[i % len(factors)] for i in which), lifts) for which, lifts in picks]
    plain = sum((ratio(functools.reduce(schoolbook, fs, ONE), lifts) for fs, lifts in parts), ZERO)
    assert packed_sum(parts) == plain


def expand(g: Geometric) -> IntPoly:
    """A Geometric's polynomial by schoolbook products of its runs."""
    runs = (IntPoly([int(j % i == 0) for j in range(a - i + 1)]) if a else ZERO for a, i in g.pairs)
    return functools.reduce(schoolbook, runs, monomial(g.shift, g.sign))


# sign q^shift times 1 + q^i + ... + q^(a-i) for each pair (a, i), a = 0 a zero factor.
geometric_factors = st.builds(
    Geometric,
    st.lists(st.tuples(st.integers(0, 7), st.integers(1, 3)).map(lambda t: (t[0] * t[1], t[1])), max_size=3),
    st.integers(0, 3),
    st.sampled_from((1, -1)),
)


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.one_of(st.lists(lifted_coeffs, max_size=4).map(IntPoly), geometric_factors),
             min_size=1, max_size=4),
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 3), max_size=4),
            st.lists(st.sampled_from((1, 2, 3)), max_size=2).map(tuple),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_packed_sum_with_geometric_factors_is_the_intpoly_expansion(pool, picks):
    # Signed IntPoly and Geometric factors, shared between parts, with
    # shifts, signs, lifts and zero factors: packed_sum is the plain sum.
    parts = [(tuple(pool[i % len(pool)] for i in which), lifts) for which, lifts in picks]
    plain = sum((ratio(functools.reduce(schoolbook, [
        expand(f) if isinstance(f, Geometric) else f for f in fs], ONE), lifts)
        for fs, lifts in parts), ZERO)
    assert packed_sum(parts) == plain


def test_a_geometric_factor_is_bounded_by_its_norm_over_its_longest_run(monkeypatch):
    # ||[128] [2]||_inf = 2 = ||.||_1 / 128: one-byte slots hold it.  A
    # bound of ||.||_1 / 2 = 128 would take two bytes.
    decoded = []

    def recording_unpack(value, count, w, bound=None):
        decoded.append(w)
        return unpack_slots(value, count, w, bound)

    monkeypatch.setattr(polyring, "unpack_slots", recording_unpack)
    g = Geometric([(128, 1), (2, 1)])
    assert (g.degree, g.l1, g.top) == (128, 256, 2)
    assert packed_sum([((g,), ())]) == IntPoly([1] + [2] * 127 + [1])
    assert decoded == [1]
    zero = Geometric([(4, 2), (0, 1)], 3, -1)
    assert not zero and (zero.degree, zero.l1, zero.top) == (-1, 0, 0)
    for pairs, shift, sign in (([(3, 2)], 0, 1), ([(2, 0)], 0, 1), ([(2, 1)], -1, 1), ([], 0, 2)):
        with pytest.raises(InvalidParameters):
            Geometric(pairs, shift, sign)


@pytest.mark.parametrize("m, packed", [(31, True), (32, True), (63, True), (64, False)])
def test_ratio_by_certifies_or_falls_back(monkeypatch, m, packed):
    # (1 - q^m)^2 / (1 - q)^2 = (1 + ... + q^(m-1))^2 peaks at m.  The
    # product (1 - q^m)^2 * 1 fits one-byte slots.  The first mask takes
    # quotient slots below 2^8 / 2^(2 + 1) = 32; the sharper bound, with
    # ||(1 - q)^2||_1 = 4 and every |N_j| <= 2, takes slots below 2^t
    # where 2 (2^t - 1) + 2 < 2^8, so below 64: in one-byte slots m = 63
    # is certified packed, m = 64 falls back to the list steps, whose
    # running sums are itertools.accumulate calls.  The width fixed
    # beforehand, from Q(1) = m^2, takes two bytes, and certifies both.
    run = IntPoly([1] * m)
    for narrow in (True, False):
        with mock.patch.object(polyring, "accumulate", wraps=polyring.accumulate) as sums:
            if narrow:
                monkeypatch.setattr(polyring, "_quotient_width", lambda *args: 1)
            got = ratio(ratio(ONE, (m, m)), down=(1, 1), by=ONE)
            monkeypatch.undo()
        assert got == schoolbook(run, run)
        assert sums.called == (narrow and not packed)


def test_div_one_minus_edge_cases():
    assert ratio(ZERO, down=(3,)) == ZERO
    assert ratio(one_minus(3), down=(3,)) == ONE
    with pytest.raises(NonExactDivision):
        ratio(ONE, down=(1,))
    with pytest.raises(NonExactDivision):
        ratio(IntPoly([1, 0, -1, 1]), down=(2,))
    with pytest.raises(DivisionByZero):
        ratio(ONE, down=(0,))
    assert ratio(IntPoly([1, 2]), (0,)) == ZERO
    assert ratio(IntPoly([1, 2])) == IntPoly([1, 2])


def test_ratio_and_packed_ratio_refuse_bad_exponents():
    # Checked on entry, before the packed or the list path: a negative
    # exponent up is a misuse, and a factor 1 - q^i with i < 1 is zero or
    # no polynomial, named as the first such factor of down.
    p = IntPoly([1, 2])
    for by, pairs in ((None, ()), (IntPoly([3, 1]), ()), (None, ((2, 1),))):
        with pytest.raises(InvalidParameters):
            ratio(p, up=(-1,), by=by, geometric=pairs)
        with pytest.raises(InvalidParameters):
            ratio(p, up=(2, -3), down=(1,), by=by, geometric=pairs)
        for i in (0, -1):
            with pytest.raises(DivisionByZero) as excinfo:
                ratio(p, down=(1, i, -5), by=by, geometric=pairs)
            assert str(excinfo.value) == f"division by 1 - q^{i}"


@pytest.mark.parametrize("j", [1, 2, 7, 48, 100])
def test_div_one_minus_per_residue_class(j):
    # The running sum runs once per residue class mod j, so a flaw in any
    # one class must show: perturb the lowest entry of each class and its
    # entry among the top j positions, where the remainder is read.
    g = grassmannian(50, 100).poly
    p = ratio(g, (j,))
    assert ratio(p, down=(j,)) == exact_div(p, one_minus(j)) == g
    n = len(p.coeffs)
    for r in range(j):
        top = n - j + (r - (n - j)) % j
        for i in (r, top):
            for delta in (1, -1):
                with pytest.raises(NonExactDivision):
                    ratio(p + monomial(i, delta), down=(j,))


def test_div_one_minus_by_a_factor_longer_than_the_dividend():
    p = IntPoly([1, 2, 3])
    for j in (3, 4, 10):
        with pytest.raises(NonExactDivision) as excinfo:
            ratio(p, down=(j,))
        assert str(excinfo.value) == (
            f"(1 + 2q + 3q^2) / (1 - q^{j}): remainder 1 + 2q + 3q^2"
        )
    assert ratio(ZERO, down=(10,)) == ZERO


def test_division_errors_print_long_polynomials_briefly():
    # A numerator over a Gaussian binomial that the list steps refuse:
    # printed whole, the message ran to 8,697 characters.
    num = ratio(IntPoly([5, 4, 3, 2, 1]), (1, 1, 1))
    with pytest.raises(NonExactDivision) as excinfo:
        ratio(num, (), (5, 13, 25), by=grassmannian(24, 48).poly)
    message = str(excinfo.value)
    assert len(message) < 200 and "\n" not in message
    assert message.startswith("(degree 565, 565 terms, lowest 5) / (1 - q^")
    with pytest.raises(NonExactDivision, match=r"^\(degree 12, 13 terms, lowest 1\) / \(1 \+ q\):"):
        exact_div(IntPoly([1] * 13), IntPoly([1, 1]))


# ------------------------------------------------------- packed integers


def pack(cs: list[int], width: int) -> int:
    """Reference packing: coefficient j in slot j of width bytes."""
    return sum(c << (8 * width * j) for j, c in enumerate(cs))


@pytest.mark.parametrize("width", range(1, 18))
def test_unpack_slots_reads_every_width(width):
    # Digits from zero to the top of the slot, with zero slots above the
    # highest nonzero one; widths 3, 5, 6 and 7 widen into larger items,
    # widths 9 to 16 are read as an 8-byte lane and a lane of the rest,
    # the second skipped when it is all zero, and wider ones as byte
    # slices.
    top = 2 ** (8 * width) - 1
    digits = [0, 1, top, top // 3, 2 ** (8 * width - 1), 7]
    assert unpack_slots(pack(digits, width), 9, width) == digits + [0, 0, 0]
    assert unpack_slots(0, 2, width) == [0, 0]
    low = [c % 2 ** (8 * width) for c in (0, 1, 2**64 - 1, 2**63, 7)]
    assert unpack_slots(pack(low, width), 5, width) == low


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9, 11, 16, 17])
def test_pack_holds_every_coefficient_below_half_a_slot(width):
    # Through array items up to 8 bytes, byte slices past them, each
    # negative coefficient borrowing from the slot above.
    half = 2 ** (8 * width - 1)
    for cs in ([0, 1, half - 1, 5], [-1, 2**62, -(2**63), 2**63 - 1, 3], [-half, half - 1, -7]):
        cs = [c for c in cs if -half <= c < half]
        assert polyring._pack(cs, width, True) == pack(cs, width)
        nonnegative = [c for c in cs if c >= 0]
        if nonnegative:
            assert polyring._pack(nonnegative, width, False) == pack(nonnegative, width)


@pytest.mark.parametrize("dropped", [4, 8])
def test_unpack_slots_without_one_typecode_size(monkeypatch, dropped):
    codes = [c for c in "BHILQ" if array(c).itemsize != dropped]
    monkeypatch.setattr(polyring, "_SLOTS", polyring._slot_types(codes))
    for width in range(1, 9):
        digits = [2 ** (8 * width) - 1, 0, 5, 2 ** (8 * width - 1)]
        assert unpack_slots(pack(digits, width), 4, width) == digits


@given(
    st.lists(st.integers(0, 9), min_size=1, max_size=30),
    st.integers(1, 6),
    st.integers(1, 5),
)
def test_packed_ratio_multiplies_by_a_geometric_sum(v, i, m):
    # (1 - q^(im)) / (1 - q^i) = 1 + q^i + ... + q^(i(m-1)): packed_geometric
    # gives the IntPoly product by shift-adds alone, in any width that
    # holds it, and so does the packed ratio with D = 1.
    geometric = IntPoly([1 if j % i == 0 else 0 for j in range(i * (m - 1) + 1)])
    expected = IntPoly(v) * geometric
    count = len(v) + i * (m - 1)
    for width in (1, 3, 8):
        quot = packed_geometric(pack(v, width), i * m, i, width)
        assert IntPoly(unpack_slots(quot, count, width)) == expected
    with mock.patch.object(polyring, "accumulate", wraps=polyring.accumulate) as sums:
        assert ratio(IntPoly(v), geometric=[(i * m, i)]) == expected
    assert not (sums.called and any(v))  # 0 takes the list steps


def test_slot_tops_and_a_passed_mask():
    assert slot_tops(1, 1, 3) == pack([0x80] * 3, 1)
    assert slot_tops(2, 3, 2) == pack([0xE000] * 2, 2)
    assert slot_tops(1, 9, 2) == pack([0xFF] * 2, 1)
    # As the packed division's mask, the top l + 1 bits pass slots below
    # B / 2^(l+1) and stop any slot at or above it.
    mask = slot_tops(1, 3, 3)
    assert not pack([31, 0, 31], 1) & mask and pack([31, 32, 0], 1) & mask
