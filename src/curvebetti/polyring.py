"""Exact univariate polynomial arithmetic over the integers.

Polynomials live in a formal variable q and are stored densely with
arbitrary-precision integer coefficients.  Downstream the coefficient of
q^j is a Betti number, so every operation here must be exact: no floats,
no modular tricks, and division either succeeds with remainder zero or
raises.

Multiplication is Kronecker substitution (kronecker_product): both
operands are evaluated at q = 2^w by packing their coefficients into
one integer each, the two integers are multiplied once (CPython's
Karatsuba multiply does the convolution), and the product's
coefficients are read back out of w-bit slots.  The slot width is
exact, not heuristic: a product coefficient sums at most
min(len a, len b) terms, each below 2^(bits a + bits b) in absolute
value, so w = bits a + bits b + bits(min(len a, len b)) + 1 bits,
rounded up to whole bytes, hold it with its sign.

A slot of at most 8 bytes is widened to the next machine word of 1, 2,
4 or 8 bytes that the platform's array module offers, and packing and
unpacking run in C: array(...).tobytes() and int.from_bytes pack, and
int.to_bytes and array(...).tolist() unpack (unpack_slots).  Packed
integers are little-endian, slot j holding coefficient j, whatever the
platform; array items are byte-swapped on a big-endian one.  When both
operands are nonnegative, as most Betti products are, every slot holds
its coefficient as it is.  Otherwise coefficients are stored with a
bias of half a slot, so every slot is a nonnegative number and no slot
carries into the next.  Slots wider than 8 bytes, which only
coefficients above about 60 bits need, are biased the same way and
packed and unpacked as byte slices.

Products and quotients of factors (1 - q^j) have one function, ratio,
which takes one O(len) step per factor: a shift and subtraction per
factor multiplied, and per factor divided one running sum per residue
class mod j, with a check that the remainder is zero.  exact_div stays
the general divider.

Before packing, IntPoly.__mul__ looks at the shape of the shorter
operand b, and at nothing else.  If b has at most two nonzero
coefficients, c q^s + d q^t, the product is the longer operand a
shifted by s and by t, scaled by c and d where they are not 1, and
added.  Otherwise, if b (1 - q) has at most two nonzero coefficients,
b is a single run c q^s (1 + q + ... + q^(m-1)), and the product is
c q^s (a (1 - q^m)) / (1 - q): one ratio, whose remainder check
still runs.  Both are sums of exact integers, so they give the
Kronecker product coefficient for coefficient; every other pair is
packed.  Blow-up corrections are
such products: the centre times P(fiber) - 1 = q + ... + q^(c-1).

packed_ratio runs one step V (1 - q^a) / (1 - q^i) on packed integers
with slots of w bytes, B = 2^(8w), holding nonnegative coefficients:
x = V(B) - V(B) B^a is one shift and subtraction, and the quotient
Q(B) is the power series x / (1 - B^i) modulo B^L, for L quotient
slots, as running sums by doubling (about log2(L / i) shift-adds, each
masked to L slots).  It is certified, not trusted: NonExactDivision is
raised unless every slot of V(B) and of Q(B) is below B/2 (no 0x80 bit
in any slot's top byte) and Q(B) - Q(B) B^i == x.  Then both sides of
Q + V q^a = V + Q q^i, evaluated at B, are sums of two polynomials
with every coefficient in [0, B/2): their coefficients lie in [0, B),
no slot carries, and equal integers have equal base-B digits.  The
integer identity is then the polynomial identity
Q (1 - q^i) = V (1 - q^a), so the division is exact and Q is its
quotient.  catalog.grassmannian chains these steps, one per row of the
q-binomial recurrence, wherever w fits a machine word (n <= 66).
"""

from __future__ import annotations

import operator
import sys
from array import array
from collections.abc import Iterable
from itertools import accumulate, chain

from .errors import DivisionByZero, NonExactDivision
from .record import Record, setfield


class IntPoly(Record):
    """Dense integer polynomial; ``coeffs[j]`` multiplies q^j.

    The representation is canonical: trailing zeros are stripped and the
    zero polynomial is the empty tuple, so ``==`` is structural equality.

    >>> IntPoly([1, 1]) * IntPoly([1, -1])
    IntPoly('1 - q^2')
    >>> IntPoly([1, 2, 1]).degree
    2
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        setfield(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, j: int) -> int:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return 0

    def __add__(self, other: int | IntPoly) -> IntPoly:
        a, b = self.coeffs, _as_poly(other).coeffs
        return _termwise(operator.add, *((a, b) if len(a) >= len(b) else (b, a)))

    __radd__ = __add__

    def __neg__(self) -> IntPoly:
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: int | IntPoly) -> IntPoly:
        return _termwise(operator.sub, self.coeffs, _as_poly(other).coeffs)

    def __rsub__(self, other: int | IntPoly) -> IntPoly:
        return _termwise(operator.sub, _as_poly(other).coeffs, self.coeffs)

    def __mul__(self, other: int | IntPoly) -> IntPoly:
        x, y = self, _as_poly(other)
        if len(x.coeffs) < len(y.coeffs):
            x, y = y, x
        a, b = x.coeffs, y.coeffs
        if not b:
            return ZERO
        # b is the shorter operand; a factor of at most two terms, or a
        # single run c q^s (1 + ... + q^(m-1)), takes O(len) steps (see
        # the module docstring).
        zeros = b.count(0)
        terms = len(b) - zeros
        if terms == 1:
            return IntPoly((0,) * zeros + _scaled(a, b[-1]))
        if terms == 2:
            t = len(b) - 1
            s = b.index(next(filter(None, b)))
            return IntPoly(
                map(
                    operator.add,
                    (0,) * s + _scaled(a, b[s]) + (0,) * (t - s),
                    (0,) * t + _scaled(a, b[t]),
                )
            )
        if b[zeros:].count(b[-1]) == terms:
            run = ratio(x, (terms,), (1,))
            return IntPoly((0,) * zeros + _scaled(run.coeffs, b[-1]))
        return kronecker_product(a, b)

    __rmul__ = __mul__

    def __truediv__(self, other: int | IntPoly) -> IntPoly:
        return exact_div(self, _as_poly(other))

    def evaluate(self, x: int) -> int:
        """Value at an integer point, by Horner's rule.

        >>> IntPoly([1, 1, 2, 1, 1]).evaluate(1)
        6
        """
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def reversed(self) -> IntPoly:
        """Coefficient reversal q^deg * p(1/q)."""
        return IntPoly(tuple(reversed(self.coeffs)))

    def is_palindromic(self) -> bool:
        """Whether the coefficient sequence reads the same both ways.

        The zero polynomial counts as palindromic.
        """
        return self.coeffs == tuple(reversed(self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if j == 0:
                body = str(mag)
            else:
                var = "q" if j == 1 else f"q^{j}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({str(self)!r})"


ZERO = IntPoly()
ONE = IntPoly([1])


def _termwise(op, a: tuple[int, ...], b: tuple[int, ...]) -> IntPoly:
    """a + b or a - b for op add or sub; past the end of b, op(a_j, 0) = a_j."""
    if len(a) < len(b):
        a += (0,) * (len(b) - len(a))
    return IntPoly(chain(map(op, a, b), a[len(b) :]))


def _scaled(cs: tuple[int, ...], c: int) -> tuple[int, ...]:
    """The coefficients cs times c; as they are when c is 1."""
    if c == 1:
        return cs
    return tuple(map(operator.neg if c == -1 else c.__mul__, cs))


def _as_poly(x: int | IntPoly) -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly([x])
    raise TypeError(f"cannot coerce {type(x).__name__} to IntPoly")


def _slot_types(codes: Iterable[str]) -> dict[int, tuple[int, str]]:
    """Map each slot width of 1 to 8 bytes to the smallest array item
    (size, typecode) among the unsigned codes given that holds it."""
    items = sorted({array(c).itemsize: c for c in codes}.items())
    return {
        width: next((size, c) for size, c in items if size >= width)
        for width in range(1, 9)
        if any(size >= width for size, _ in items)
    }


_SLOTS = _slot_types("BHILQ")
_BIG_ENDIAN = sys.byteorder == "big"


def _pack_words(code: str, cs: Iterable[int]) -> int:
    """The integer whose little-endian array items of typecode code are cs."""
    words = array(code, cs)
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def unpack_slots(value: int, count: int, width: int) -> list[int]:
    """The count slots of width bytes of a nonnegative packed integer,
    lowest first: the base-2^(8 width) digits of value.

    One to_bytes call; each slot is then copied into the low bytes of
    the smallest array item that holds it, by width extended-slice
    assignments, and array(...).tolist() reads the items.  A width with
    no such item is read as byte slices.
    """
    data = value.to_bytes(count * width, "little")
    size, code = _SLOTS.get(width, (width, ""))
    if not code:
        return [
            int.from_bytes(data[i : i + width], "little")
            for i in range(0, count * width, width)
        ]
    if size != width:
        items = bytearray(count * size)
        for b in range(width):
            items[b::size] = data[b::width]
        data = items
    words = array(code, data)
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tolist()


def kronecker_product(a: tuple[int, ...], b: tuple[int, ...]) -> IntPoly:
    """The product of two nonempty coefficient tuples, packed and
    multiplied as one integer each, whatever their shape."""
    # Kronecker substitution at q = 2^(8 * width); see the module
    # docstring for why the slot width is exact.
    lo_a, lo_b = min(a), min(b)
    width = (
        max(max(a), -lo_a).bit_length()
        + max(max(b), -lo_b).bit_length()
        + min(len(a), len(b)).bit_length()
        + 8  # one sign bit, and 7 to round up to whole bytes
    ) // 8
    size = len(a) + len(b) - 1
    # A typecode of "" marks a slot wider than 8 bytes: byte slices.
    width, code = _SLOTS.get(width, (width, ""))
    if code and lo_a >= 0 and lo_b >= 0:
        product = _pack_words(code, a) * _pack_words(code, b)
        return IntPoly(unpack_slots(product, size, width))
    bias = 1 << (8 * width - 1)
    biases = bias.to_bytes(width, "little")

    def pack(cs: tuple[int, ...]) -> int:
        if code:
            value = _pack_words(code, map(bias.__add__, cs))
        else:
            value = int.from_bytes(
                b"".join([(c + bias).to_bytes(width, "little") for c in cs]),
                "little",
            )
        return value - int.from_bytes(biases * len(cs), "little")

    product = pack(a) * pack(b) + int.from_bytes(biases * size, "little")
    return IntPoly(map(bias.__rsub__, unpack_slots(product, size, width)))


def monomial(j: int, c: int = 1) -> IntPoly:
    """c * q^j."""
    return IntPoly((0,) * j + (c,))


def ratio(p: IntPoly, up: Iterable[int] = (), down: Iterable[int] = ()) -> IntPoly:
    """p times the product of (1 - q^a) for a in up, over the product of
    (1 - q^i) for i in down, one O(len) step per factor; each i >= 1.

    Multiplying by 1 - q^a is one shift and subtraction.  Dividing by
    1 - q^i takes the running sums q_m = p_m + q_(m-i) of the power
    series, one itertools.accumulate over each residue class of m mod i.
    That division is exact if and only if the last i of them are zero;
    otherwise NonExactDivision is raised.

    >>> ratio(IntPoly([1, 1]), up=(2,))
    IntPoly('1 + q - q^2 - q^3')
    >>> ratio(IntPoly([1, 0, 0, 0, -1]), down=(1,))
    IntPoly('1 + q + q^2 + q^3')
    """
    cs = list(p.coeffs)
    for a in up:
        pad = [0] * a
        cs = list(map(operator.sub, cs + pad, pad + cs))
    for i in down:
        if i < 1:
            raise DivisionByZero(f"division by 1 - q^{i}")
        num, cs = cs, cs.copy()
        # A class r with r + i past the end has one entry, its own sum.
        for r in range(min(i, len(cs) - i)):
            cs[r::i] = accumulate(cs[r::i])
        top = max(len(cs) - i, 0)
        if any(cs[top:]):
            raise NonExactDivision(
                f"({IntPoly(num)}) / (1 - q^{i}): "
                f"remainder {IntPoly([0] * top + cs[top:])}"
            )
        del cs[top:]
    return IntPoly(cs)


def packed_ratio(v: int, a: int, i: int, count: int, width: int) -> int:
    """V (1 - q^a) / (1 - q^i) on integers packed in width-byte slots;
    i >= 1.

    v packs a polynomial V with nonnegative coefficients, and the result
    packs the quotient Q in count slots.  Multiplying by 1 - q^a is one
    shift and subtraction, and Q is the power series of x = V (1 - q^a)
    over 1 - q^i, modulo q^count: running sums, by doubling a span that
    starts at i.  Q is then certified as the module docstring says:
    NonExactDivision is raised unless every slot of V and of Q is below
    half a slot and Q (1 - q^i) = x as integers.

    >>> packed_ratio(1, 2, 1, 2, 1)  # (1 - q^2) / (1 - q) = 1 + q
    257
    """
    if i < 1:
        raise DivisionByZero(f"division by 1 - q^{i}")
    shift = 8 * width
    x = v - (v << shift * a)
    mask = (1 << shift * count) - 1
    quot = x & mask
    span = i
    while span < count:
        quot = (quot + (quot << shift * span)) & mask
        span *= 2
    slots = max(count, -(-v.bit_length() // shift))
    top = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    if (quot | v) & top or quot - (quot << shift * i) != x:
        raise NonExactDivision(
            f"(1 - q^{a}) / (1 - q^{i}) in {count} slots of {width} bytes: "
            "not exact, or a slot at or above half its range"
        )
    return quot


def exact_div(num: IntPoly, den: IntPoly) -> IntPoly:
    """Quotient num/den when den divides num over the integers.

    Synthetic long division from the top coefficient down.  Quotient
    coefficients are forced, so the first non-integer step or a nonzero
    final remainder proves inexactness and raises NonExactDivision.

    >>> exact_div(IntPoly([1, 0, 0, 0, -1]), IntPoly([1, -1]))
    IntPoly('1 + q + q^2 + q^3')
    """
    if den.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if num.is_zero():
        return ZERO
    if num.degree < den.degree:
        raise NonExactDivision(
            f"({num}) / ({den}): degree of the numerator is too small"
        )
    rem = list(num.coeffs)
    dd = den.degree
    lead = den.coeffs[-1]
    quot = [0] * (num.degree - dd + 1)
    for i in range(num.degree - dd, -1, -1):
        c = rem[i + dd]
        if c == 0:
            continue
        if c % lead != 0:
            raise NonExactDivision(
                f"({num}) / ({den}): coefficient {c} not divisible by {lead}"
            )
        t = c // lead
        quot[i] = t
        for j, dc in enumerate(den.coeffs):
            rem[i + j] -= t * dc
    if any(rem):
        raise NonExactDivision(f"({num}) / ({den}): remainder {IntPoly(rem)}")
    return IntPoly(quot)
