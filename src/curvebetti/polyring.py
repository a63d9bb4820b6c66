"""Exact univariate polynomial arithmetic over the integers.

Polynomials live in a formal variable q and are stored densely with
arbitrary-precision integer coefficients.  Downstream the coefficient of
q^j is a Betti number, so every operation here must be exact: no floats,
no modular tricks, and division either succeeds with remainder zero or
raises.

Multiplication is Kronecker substitution: each factor is packed into
one integer, its value at q = 2^w, the integers are multiplied (CPython's
Karatsuba multiply does the convolution), and the product's coefficients
are read back out of w-bit slots.  A product x * y is packed_sum of the
one part ((x, y), ()), in the slot that packed_sum's bound fixes.

A slot of at most 8 bytes is widened to the next machine word of 1, 2,
4 or 8 bytes that the platform's array module offers, so that packing
and unpacking run in C; packed integers are little-endian on every
platform, slot j holding coefficient j.  With B = 2^(8w), a nonnegative
operand packs as it is, a signed one through the signed typecode, each
negative c as c + B, less its slots' sign bits moved up one bit: one
borrow of B per negative slot.  A signed product P is read as
(P + biases) ^ biases through the signed typecode, biases holding B/2 in
every slot (each slot of the sum lies in [0, B), and the xor gives its
two's complement), only given a bound below B/2 on the coefficients'
absolute values.  Slots wider than 8 bytes pack as byte slices.  A
nonnegative decode from 9 to 16 bytes reads an 8-byte lane and a lane
of the rest, the second dropped when all zero; wider or signed ones
read byte slices.

packed_sum adds products of small factors, each times its lifts
(1 - q^a), at one such point, a ring homomorphism: the products, lifts
v -= v << 8w a and sum are integer arithmetic, decoded once.  The bound
is the sum of ||a||_inf prod ||b||_1 2^(lifts), a the factor of largest
||.||_1 / ||.||_inf and b the others (||x y||_inf <= ||x||_inf ||y||_1,
and 1 - q^a at most doubles it).  The slot is the smallest, of 1, 2, 4
or 8 bytes or byte slices above, whose half-range B/2 exceeds the bound.
A Geometric factor G = sign q^s prod (1 - q^a) / (1 - q^i) over pairs
(a, i), i | a, has no coefficients: its degree, ||G||_1 = prod a / i and
||G||_inf <= ||G||_1 / max(a / i), as ||g h||_inf <= ||g||_inf ||h||_1
and one geometric sum has ||.||_inf = 1, are fixed when it is built.  It
multiplies in as G(B), sign B^s times the product of the runs (B^a - 1)
/ (B^i - 1), kept on G per width.

Products and quotients of factors (1 - q^j) have one function, ratio,
which takes one O(len) step per factor: a shift and subtraction per
factor multiplied, and per factor divided one running sum per residue
class mod j, with a check that the remainder is zero.  exact_div stays
the general divider.  peel(x, down) takes those running sums only for
each i of down, largest first, whose class sums sum(x_m, m = r mod i)
all vanish: x mod (q^i - 1) is their polynomial, so 1 - q^i divides x
exactly.  ratio(x, up, down, by=y, geometric=pairs), which builds every
Gaussian binomial, keeps the large product packed: x(B) y(B), times
1 + q^i + ... + q^(a-i) by packed_geometric for each pair (a, i), i
dividing a, times each 1 - q^a of up as v -= v << 8w a, is N(B), every
|N_j| <= nb = max|x| max|y| min(len) prod(a / i) 2^len(up).  D =
prod(1 - q^i), over the l factors of down, is divided out mod B^s, s
the quotient's slots, by running sums by doubling per factor, and Q is
kept only if Q(B) D(B), one shift and subtraction per factor, is N(B).
Given nb < B/2, Q is accepted if every slot of Q is below 2^t with
(U/2)(2^t - 1) + nb < B, U = 2^l >= ||D||_1.  As D(1) = 0, its positive
and negative coefficients each sum to ||D||_1 / 2 <= 2^(l-1), so
|(Q D - N)_j| < B: Q D - N vanishes at B and is the zero polynomial,
and Q = N / D exactly.  With no down, D = 1 is no such D, and only
slots below B/2 certify Q = N.
To the middle: if x and y are each palindromic or anti-palindromic, Q's
sign +1, count >= 192 and h = ceil(L / 2) < count, L = count + sum(down)
= len(N), every step runs mod B^h, with running sums for every i of
down, and the same slot test gives Q_low D = N mod q^h.  If the overlap
low[count - h:h] reads the same reversed, Q is low followed by
low[count - 1 - h::-1]: Q D - N, of length L and one symmetry, vanishes
in its h low and so in its h top coefficients, and 2h >= L.  A Q the
full length certifies passes these tests too, so a refused half is not
retried.  A refused attempt leaves x * y to the list steps, with the
same quotient or the same NonExactDivision, whose messages print a
polynomial of over 8 terms by its degree, term count and lowest term.
The width is fixed before, and decides only whether the attempt
certifies: a Q >= 0 has no coefficient above Q(1) = y(1) prod(a / i)
x_r(1) prod a / prod i over up and down, x_r = x / (q - 1)^r for r =
len(down) - len(up), x_r(1) = sum C(m, r) x_m, so the narrowest slot
with 2^l (2^bits(Q(1)) - 1) + 2 nb < 2B and nb < B/2 passes the slot
test given a down.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from collections.abc import Iterable
from itertools import accumulate, chain, repeat

from .errors import DivisionByZero, InvalidParameters, NonExactDivision
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

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, j: int) -> int:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return 0

    def __add__(self, other: int | IntPoly) -> IntPoly:
        a, b = self.coeffs, _as_poly(other).coeffs
        if not (a and b):  # x + 0 is x itself: an IntPoly never changes
            return self if a else _as_poly(other)
        return _termwise(operator.add, *((a, b) if len(a) >= len(b) else (b, a)))

    __radd__ = __add__

    def __neg__(self) -> IntPoly:
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: int | IntPoly) -> IntPoly:
        return _termwise(operator.sub, self.coeffs, _as_poly(other).coeffs)

    def __rsub__(self, other: int | IntPoly) -> IntPoly:
        return _termwise(operator.sub, _as_poly(other).coeffs, self.coeffs)

    def __mul__(self, other: int | IntPoly) -> IntPoly:
        return packed_sum([((self, _as_poly(other)), ())])

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


class Geometric:
    """sign q^shift times (1 - q^a) / (1 - q^i) = 1 + q^i + ... + q^(a-i)
    for each pair (a, i), i dividing a >= 0, as packed_sum takes it:
    degree, l1 = ||.||_1 and top >= ||.||_inf (module docstring) are fixed
    here; a = 0 makes it zero, falsy and of degree -1.

    >>> packed_sum([((Geometric([(4, 2), (2, 1)], 1, -1),), ())])
    IntPoly('-q - q^2 - q^3 - q^4')
    """

    __slots__ = ("pairs", "shift", "sign", "degree", "l1", "top", "values")

    def __init__(self, pairs: Iterable[tuple[int, int]], shift: int = 0, sign: int = 1):
        pairs = self.pairs = tuple(pairs)
        self.shift, self.sign = shift, sign
        l1, run, degree = 1, 1, shift  # run: the largest a / i
        for a, i in pairs:
            if i < 1 or a < 0 or a % i:
                raise InvalidParameters(f"geometric pair {(a, i)}: need i dividing a >= 0, i >= 1")
            l1, degree = l1 * (a // i), degree + a - i
            if a // i > run:
                run = a // i
        if shift < 0 or sign not in (1, -1):
            raise InvalidParameters(f"geometric factor {sign} q^{shift}")
        self.l1, self.top, self.degree = l1, l1 and l1 // run, degree if l1 else -1
        self.values: dict[int, int] = {}

    def at(self, width: int) -> int:
        """Its value at B = 2^(8 width), kept per width: sign B^shift times
        each run (B^a - 1) / (B^i - 1), multiplied."""
        if width not in self.values:
            runs = (int.from_bytes(b"\1".ljust(width * i, b"\0") * (a // i), "little") for a, i in self.pairs)
            self.values[width] = self.sign * math.prod(runs) << 8 * width * self.shift
        return self.values[width]

    def __bool__(self) -> bool:
        return self.l1 != 0


def _termwise(op, a: tuple[int, ...], b: tuple[int, ...]) -> IntPoly:
    """a + b or a - b for op add or sub; past the end of b, op(a_j, 0) = a_j."""
    if len(a) < len(b):
        a += (0,) * (len(b) - len(a))
    return IntPoly(chain(map(op, a, b), a[len(b) :]))


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


def slot_tops(width: int, bits: int, count: int) -> int:
    """The mask of the top bits bits of each of count width-byte slots."""
    top = (1 << 8 * width) - (1 << max(8 * width - bits, 0))
    return int.from_bytes(top.to_bytes(width, "little") * count, "little")


def unpack_slots(value: int, count: int, width: int, bound: int | None = None) -> list[int]:
    """The count slots of width bytes of a packed integer, lowest first:
    base-2^(8 width) digits or, given a bound on their absolute values,
    signed coefficients (module docstring), refused with InvalidParameters
    unless bound < 2^(8 width - 1).  Each slot is read through the
    smallest array item that holds it, unsigned ones of 9 to 16 bytes
    through two, or as a byte slice."""
    signed = bound is not None
    if signed:
        if bound >> 8 * width - 1:
            raise InvalidParameters(f"bound {bound} is not below half a {width}-byte slot")
        biases = slot_tops(width, 1, count)
        value = (value + biases) ^ biases
    data = value.to_bytes(count * width, "little")
    size, code = _SLOTS.get(width, (width, ""))
    if code and size == width:
        words = array(code.lower() if signed else code, data)
        if _BIG_ENDIAN:
            words.byteswap()
        return words.tolist()
    if code:  # never signed: a signed width is an item size
        return _lane(data, width, 0, width).tolist()
    if signed or width > 16 or _SLOTS.get(8, (0,))[0] != 8:
        return [
            int.from_bytes(data[i : i + width], "little", signed=signed)
            for i in range(0, count * width, width)
        ]
    low, high = _lane(data, width, 0, 8), _lane(data, width, 8, width - 8)
    if not int.from_bytes(high, "little"):  # every slot below 2^64
        return low.tolist()
    return list(map(operator.or_, map(operator.lshift, high, repeat(64)), low))


def _lane(data: bytes, width: int, start: int, size: int) -> array:
    """Bytes start to start + size of each width-byte slot of data, as
    the unsigned items of the smallest array type that holds size bytes."""
    item, code = _SLOTS[size]
    items = bytearray(len(data) // width * item)
    for b in range(size):
        items[b::item] = data[start + b :: width]
    words = array(code, items)
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def _pack(cs: tuple[int, ...], width: int, signed: bool) -> int:
    """cs(B), B = 2^(8 width), each |c| < B/2 if signed (module docstring)."""
    code = _SLOTS.get(width, (width, ""))[1]
    if code:
        words = array(code.lower() if signed else code, cs)
        if _BIG_ENDIAN:
            words.byteswap()
        data = words.tobytes()
    else:
        data = b"".join([c.to_bytes(width, "little", signed=True) for c in cs])
    u = int.from_bytes(data, "little")
    return u - ((u & slot_tops(width, 1, len(cs))) << 1) if signed else u


def packed_sum(parts: Iterable[tuple[tuple[IntPoly | Geometric, ...], tuple[int, ...]]]) -> IntPoly:
    """The sum over parts (factors, lifts) of the factors' product times
    (1 - q^a) for a in lifts, at one packed point (module docstring): each
    IntPoly packed and each Geometric valued once, and parts with equal
    lifts lifted once."""
    parts = [(fs, lifts) for fs, lifts in parts if all(fs)]  # a zero factor adds 0
    if len(parts) == 1 and len(parts[0][0]) < 2 and not parts[0][1]:
        (f,) = parts[0][0] or (ONE,)
        if f.__class__ is IntPoly:  # nothing to multiply
            return f
    # norms: id -> (||f||_1, ||f||_inf, degree); forms: id -> f or (coeffs, signed)
    norms, forms, bound, count = {}, {}, 0, 0
    for fs, lifts in parts:
        l1, a1, a_top, size = 1, 1, 1, sum(lifts) + 1  # a: the factor of largest l1 / top
        for f in fs:
            norm = norms.get(id(f))
            if norm is None:
                if f.__class__ is Geometric:
                    norm, form = (f.l1, f.top, f.degree), f
                else:
                    cs, lo, hi = f.coeffs, min(f.coeffs), max(f.coeffs)
                    norm = (sum(map(abs, cs)) if lo < 0 else sum(cs), max(hi, -lo), len(cs) - 1)
                    form = (cs, lo < 0)
                norms[id(f)], forms[id(f)] = norm, form
            n1, top, degree = norm
            l1, size = l1 * n1, size + degree
            if top * a1 < a_top * n1:
                a1, a_top = n1, top
        bound += l1 // a1 * a_top << len(lifts)
        count = max(count, size)
    width = bound.bit_length() // 8 + 1  # the smallest slot with bound < B/2
    width = _SLOTS.get(width, (width, ""))[0]
    packed = {i: f.at(width) if f.__class__ is Geometric else _pack(f[0], width, f[1])
              for i, f in forms.items()}
    sums: dict[tuple[int, ...], int] = {}
    for fs, lifts in parts:
        sums[lifts] = sums.get(lifts, 0) + math.prod(packed[id(f)] for f in fs)
    total, shift = 0, 8 * width
    for lifts, v in sums.items():
        for a in lifts:
            v -= v << shift * a
        total += v
    return IntPoly(unpack_slots(total, count, width, bound))


def monomial(j: int, c: int = 1) -> IntPoly:
    """c * q^j, for j >= 0."""
    if j < 0:
        raise InvalidParameters(f"monomial q^{j}: negative exponent")
    return IntPoly((0,) * j + (c,))


def ratio(p: IntPoly, up: Iterable[int] = (), down: Iterable[int] = (),
          by: IntPoly | None = None, geometric: Iterable[tuple[int, int]] = ()) -> IntPoly:
    """p, times by if given, times (1 - q^a) / (1 - q^i) for each pair
    (a, i) of geometric, i dividing a, times the product of (1 - q^a) for
    a in up, over the product of (1 - q^i) for i in down.  Each a must be
    >= 0, or InvalidParameters is raised, and each i >= 1, or
    DivisionByZero.

    Multiplying by 1 - q^a is one shift and subtraction.  Dividing by
    1 - q^i takes the running sums q_m = p_m + q_(m-i) of the power
    series, one itertools.accumulate over each residue class of m mod i.
    That division is exact if and only if the last i of them are zero;
    otherwise NonExactDivision is raised.  With by and a down, or with
    geometric, p is first multiplied by them packed, and the quotient
    taken by running sums and certified (module docstring); otherwise,
    or if that fails, by p * by and the list steps.  A caller may peel p
    first, so that down holds only factors p does not.

    >>> ratio(IntPoly([1, 1]), up=(2,))
    IntPoly('1 + q - q^2 - q^3')
    >>> ratio(IntPoly([1, 0, 0, 0, -1]), down=(1,))
    IntPoly('1 + q + q^2 + q^3')
    >>> ratio(IntPoly([1, 1]), (3,), (1, 1), by=IntPoly([1, -1]))
    IntPoly('1 + 2q + 2q^2 + q^3')
    >>> ratio(IntPoly([1, 1]), geometric=[(4, 2)])
    IntPoly('1 + q + q^2 + q^3')
    """
    up, down, geometric = tuple(up), tuple(down), tuple(geometric)
    if up and min(up) < 0:
        raise InvalidParameters(
            f"factor 1 - q^{next(a for a in up if a < 0)}: negative exponent"
        )
    if down and min(down) < 1:
        raise DivisionByZero(f"division by 1 - q^{next(i for i in down if i < 1)}")
    if geometric and any(not 1 <= i <= a or a % i for a, i in geometric):
        raise InvalidParameters(f"geometric pairs {geometric}: need i dividing a >= i >= 1")
    y = ONE if by is None else by
    if p and y and (down and by is not None or geometric):
        quot = _packed_ratio(p.coeffs, y.coeffs, geometric, up, down)
        if quot is not None:
            return quot
    cs = list((p if by is None else p * by).coeffs)
    for a in up + tuple(a for a, _ in geometric):
        pad = [0] * a
        cs = list(map(operator.sub, cs + pad, pad + cs))
    for i in down + tuple(i for _, i in geometric):
        num, cs = cs, cs.copy()
        top = _class_running_sums(cs, i)
        if any(cs[top:]):
            raise NonExactDivision(
                f"({_brief(IntPoly(num))}) / (1 - q^{i}): "
                f"remainder {_brief(IntPoly([0] * top + cs[top:]))}"
            )
        del cs[top:]
    return IntPoly(cs)


def _brief(p: IntPoly) -> str:
    """p as str prints it or, past 8 terms, its degree, term count and
    lowest term: an error message stays one short line."""
    terms = len(p.coeffs) - p.coeffs.count(0)
    if terms <= 8:
        return str(p)
    j = next(j for j, c in enumerate(p.coeffs) if c)
    return f"degree {p.degree}, {terms} terms, lowest {monomial(j, p.coeffs[j])}"


def _class_running_sums(cs: list[int], i: int) -> int:
    """Replace cs by the running sums of each residue class mod i, i >= 1,
    and return top: cs[:top] is cs / (1 - q^i) if cs[top:] is all zero."""
    # A class r with r + i past the end has one entry, its own sum.
    for r in range(min(i, len(cs) - i)):
        cs[r::i] = accumulate(cs[r::i])
    return max(len(cs) - i, 0)


def peel(p: IntPoly, down: Iterable[int]) -> tuple[IntPoly, tuple[int, ...]]:
    """p over each 1 - q^i, i of down largest first, that divides it
    exactly, its class sums mod i all zero (module docstring), and the i left.

    >>> peel(IntPoly([1, 0, -1, 0, 1, 0, -1]), (1, 2, 4))  # (1 - q^2)(1 + q^4)
    (IntPoly('1 + q^4'), (4, 1))
    """
    cs, left = list(p.coeffs), []
    for i in sorted(down, reverse=True):
        if i < len(cs) and not any(sum(cs[r::i]) for r in range(i)):
            del cs[_class_running_sums(cs, i):]
        else:
            left.append(i)
    return IntPoly(cs), tuple(left)


def _packed_ratio(x: tuple, y: tuple, pairs: tuple, up: tuple, down: tuple) -> IntPoly | None:
    """x y times the pairs' geometric sums, by shift-adds, times up over
    down: packed once in the width _quotient_width fixes, divided once,
    to the middle where _half_length allows; None unless certified."""
    lo_x, lo_y, g, count = min(x), min(y), 1, len(x) + len(y) - 1 + sum(up) - sum(down)
    for a, i in pairs:
        g, count = g * (a // i), count + a - i
    nb = max(max(x), -lo_x) * max(max(y), -lo_y) * min(len(x), len(y)) * g << len(up)
    width = _quotient_width(x, up, down, sum(y) * g, nb)
    if width is None or nb >> 8 * width - 1:  # doomed, or too narrow to pack
        return None
    half = _half_length(x, y, up, down, count)
    mask = (1 << 8 * width * half) - 1 if half else -1
    v = _pack(x, width, lo_x < 0)
    if y != (1,):
        v *= _pack(y, width, lo_y < 0)
    for a, i in pairs:
        v = packed_geometric(v, a, i, width) & mask
    for a in up:
        v = (v - (v << 8 * width * a)) & mask
    quot = _quotient(v, nb, down, count, half, width)
    return None if quot is None else IntPoly(quot)


def _half_length(x: tuple, y: tuple, up: tuple, down: tuple, count: int) -> int:
    """h = ceil(len(N) / 2) if h < count, count >= _HALF_MIN_COUNT, and x
    and y are each palindromic or anti-palindromic, Q's sign +1; else 0."""
    half, sign = (count + sum(down) + 1) // 2, (-1) ** (len(up) + len(down))
    if count < _HALF_MIN_COUNT or half >= count:
        return 0
    for cs in (x, y):
        rev = cs[::-1]
        sign *= 1 if cs == rev else -(cs == tuple(map(operator.neg, rev)))
    return half if sign == 1 else 0


def _quotient_width(x: tuple, up: tuple, down: tuple, at_one: int, nb: int) -> int | None:
    """The narrowest slot, rounded as _pack needs, that certifies Q = x g
    up / down if Q >= 0, g(1) = at_one (module docstring); None if Q(1) <
    0, as such a Q has a negative coefficient, which no test accepts."""
    r, q1 = len(down) - len(up), 0
    if r >= 0:  # Q(1) = at_one x_r(1) prod a / prod i
        xr = sum(map(operator.mul, map(math.comb, range(r, len(x)), repeat(r)), x[r:]))
        q1 = -(-at_one * (-xr if r & 1 else xr) * math.prod(up) // math.prod(down))
        if q1 < 0:
            return None
    need = max(((1 << q1.bit_length()) - 1 << len(down)) + 2 * nb, 4 * nb)  # below 2B
    width = (need.bit_length() + 6) // 8
    return _SLOTS.get(width, (width, ""))[0]


# Quotients of fewer slots took longer halved (x1.05-1.12 replayed; x0.89-0.97 above).
_HALF_MIN_COUNT = 192


def _quotient(v: int, nb: int, down: tuple, count: int, half: int, width: int) -> list[int] | None:
    """The count coefficients of Q = N / D, from Q mod B^(half or count)
    by running sums, v = N(B) or, halved, N(B) mod B^half, B/2 > nb >=
    max|N_j|; None unless certified (module docstring)."""
    slots, shift = half or count, 8 * width
    if slots <= 0:
        return None
    quot = v & (1 << shift * slots) - 1
    for i in down:
        quot = _running_sums(quot, i, slots, shift)
    if not _certified(quot, slots, width, down, nb):
        return None
    if not half:
        product = quot
        for i in down:
            product -= product << shift * i
        return unpack_slots(quot, count, width) if product == v else None
    low = unpack_slots(quot, half, width)
    middle = low[count - half :]
    return low + low[count - 1 - half :: -1] if middle == middle[::-1] else None


def _certified(quot: int, slots: int, width: int, down: tuple, nb: int) -> bool:
    """Whether the slots of Q(B) = quot, 0 <= quot < B^slots, are below
    2^t, (U/2)(2^t - 1) + nb < B with U = 2^l, or below B/2 with no down
    (module docstring)."""
    shift = 8 * width
    t = ((2 * ((1 << shift) - nb) - 1 >> len(down)) + 1).bit_length() - 1 if down else shift - 1
    return not quot & slot_tops(width, shift - t, slots)


def _running_sums(x: int, i: int, slots: int, shift: int) -> int:
    """x / (1 - B^i) as a power series mod B^slots, B = 2^shift, by
    running sums that double a span from i; in [0, B^slots)."""
    mask = (1 << shift * slots) - 1
    quot, span = x & mask, i
    while span < slots:
        quot = (quot + (quot << shift * span)) & mask
        span *= 2
    return quot


def packed_geometric(v: int, a: int, i: int, width: int) -> int:
    """V (1 - q^a) / (1 - q^i) = V (1 + q^i + ... + q^(a-i)), i dividing
    a >= i >= 1, V packed in width-byte slots as v, by doubling; unchecked.

    >>> packed_geometric(3, 4, 2, 1)  # 3 (1 + q^2)
    196611
    """
    step, run, terms = 8 * width * i, v, 1
    for bit in bin(a // i)[3:]:
        run, terms = run + (run << step * terms), 2 * terms
        if bit == "1":
            run, terms = v + (run << step), terms + 1
    return run


def exact_div(num: IntPoly, den: IntPoly) -> IntPoly:
    """Quotient num/den when den divides num over the integers.

    Synthetic long division from the top coefficient down.  Quotient
    coefficients are forced, so the first non-integer step or a nonzero
    final remainder proves inexactness and raises NonExactDivision.

    >>> exact_div(IntPoly([1, 0, 0, 0, -1]), IntPoly([1, -1]))
    IntPoly('1 + q + q^2 + q^3')
    """
    if not den:
        raise DivisionByZero("division by the zero polynomial")
    if not num:
        return ZERO
    what = f"({_brief(num)}) / ({_brief(den)})"
    if num.degree < den.degree:
        raise NonExactDivision(f"{what}: degree of the numerator is too small")
    rem = list(num.coeffs)
    dd = den.degree
    lead = den.coeffs[-1]
    quot = [0] * (num.degree - dd + 1)
    for i in range(num.degree - dd, -1, -1):
        c = rem[i + dd]
        if c == 0:
            continue
        if c % lead != 0:
            raise NonExactDivision(f"{what}: coefficient {c} not divisible by {lead}")
        t = c // lead
        quot[i] = t
        for j, dc in enumerate(den.coeffs):
            rem[i + j] -= t * dc
    if any(rem):
        raise NonExactDivision(f"{what}: remainder {_brief(IntPoly(rem))}")
    return IntPoly(quot)
