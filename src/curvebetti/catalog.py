"""Catalog of spaces with known Poincare polynomials.

A Poincare polynomial here records rational cohomology: the coefficient
of q^j is the 2j-th Betti number, and all odd Betti numbers of the
spaces in this package vanish.  Everything is exact; builders either
return a valid polynomial or raise.

The catalog covers projective spaces (including weighted ones, whose
rational cohomology agrees with the straight projective space of the
same dimension), Grassmannians as Gaussian binomials, the space of
lines in a Grassmannian and of lines through a fixed point, the
two-component space of planes, and the stable-map spaces of degree 2 and
3 rational curves.

The Gaussian binomial [n choose k]_q, m = min(k, n-k) and d = n - m, is
the product of (1 - q^a) / (1 - q^i) over pairs of a in d+1..n and i in
1..m.  Each i, from m down, takes the largest free multiple a of i, a
geometric pair of polyring.ratio, multiplied in by shift-adds; the a
and the i left over join its up and down.  grassmannian is that one
ratio of 1: packed once and divided once, certified.

A Quotient keeps a space as small factors over a large anchor; fold sums
Quotients by one packed sum, one decode and one ratio per anchor.  An
anchor is a space, whose polynomial ratio multiplies in, or a
GaussianAnchor(k, n), grassmannian(k, n) never expanded: from dimension
_THROUGH_MIN_DIM, fold peels off each 1 - q^i of down and of the
leftover i that the numerator holds, then runs it through grassmannian's
one ratio, the leftover a and i joining its up and down.
Both stable-map spaces are Quotients over the lines'
gaussian_anchor(k+1, n), and so is every route.  Routes take their small
spaces as GeometricSpaces: geometric_projective, and geometric_grassmannian
where _gaussian_pairs leaves no a and no i (every m <= 2).
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator

from .errors import DimensionMismatch, InvalidParameters, NegativeBetti
from .polyring import ONE, ZERO, Geometric, IntPoly, packed_sum, peel, ratio
from .polyring import exact_div  # noqa: F401  (bench/test_bench.py looks it up here)
from .record import Record, setfield


class PoincarePoly(Record):
    """The Poincare polynomial of a space.

    dim, the complex dimension, is the q-degree, and components, the
    number of connected pieces, the constant coefficient; the empty
    space, the zero polynomial, has both 0.  PoincarePoly(poly) trusts
    its caller; from_poly checks the coefficients and the degree.
    """

    __slots__ = ("poly",)

    def __init__(self, poly: IntPoly):
        setfield(self, "poly", poly)

    @property
    def dim(self) -> int:
        return max(len(self.poly.coeffs) - 1, 0)

    @property
    def components(self) -> int:
        return self.poly.coefficient(0)

    @classmethod
    def from_poly(cls, poly: IntPoly, claimed_dim: int | None = None,
                  what: str = "space") -> PoincarePoly:
        if min(poly.coeffs, default=0) < 0:
            j, c = next((j, c) for j, c in enumerate(poly.coeffs) if c < 0)
            raise NegativeBetti(f"{what}: coefficient of q^{j} is {c}")
        if claimed_dim is not None and poly and poly.degree != claimed_dim:
            raise DimensionMismatch(
                f"{what}: degree {poly.degree} but expected dimension {claimed_dim}"
            )
        return cls(poly)

    def betti_numbers(self) -> list[int]:
        """Full Betti list b_0, b_1, ..., b_{2 dim}; odd entries are 0."""
        if not self.poly:
            return []
        out: list[int] = []
        for c in self.poly.coeffs:
            out.append(c)
            out.append(0)
        return out[:-1]

    def euler(self) -> int:
        return self.poly.evaluate(1)

    def is_palindromic(self) -> bool:
        return self.poly.is_palindromic()

    def __mul__(self, other: PoincarePoly) -> PoincarePoly:
        """Total space of a fibration: polynomials multiply."""
        return PoincarePoly(self.poly * other.poly)

    def __add__(self, other: PoincarePoly) -> PoincarePoly:
        """Disjoint union: polynomials add, components add."""
        return PoincarePoly(self.poly + other.poly)

    def __str__(self) -> str:
        return str(self.poly)

    # A space is the Quotient over itself with no small factor (see Quotient).
    small, up, down, anchor, geometric = (), (), (), property(lambda self: self), None

    def ratio(self, x: IntPoly, up: tuple, down: tuple) -> IntPoly:
        """x times this space, times up over down: fold's one step per anchor."""
        return ratio(x, up, down, by=self.poly)


EMPTY = PoincarePoly(ZERO)
POINT = PoincarePoly(ONE)


# From this dimension k(n - k) on, fold runs a numerator through a
# Gaussian binomial's pairs: below it, with the Grassmannian cached as in
# verify, multiplying by its polynomial was quicker, by 3-7% per route.
_THROUGH_MIN_DIM = 128


class GaussianAnchor(PoincarePoly):
    """grassmannian(k, n), 0 <= k <= n, as an anchor that fold never
    expands: dim comes from k and n, and poly, if asked for, is the
    cached grassmannian's."""

    __slots__ = ("k", "n")

    def __init__(self, k: int, n: int):
        setfield(self, "k", k)
        setfield(self, "n", n)

    poly = property(lambda self: grassmannian(self.k, self.n).poly)
    dim = property(lambda self: self.k * (self.n - self.k))

    def ratio(self, x: IntPoly, up: tuple, down: tuple) -> IntPoly:
        """x times [n choose k]_q, times up over down: through the pairs
        of _gaussian_pairs where the module docstring says, else by the
        polynomial."""
        k, n = self.k, self.n
        if k * (n - k) < _THROUGH_MIN_DIM:
            return ratio(x, up, down, by=grassmannian(k, n).poly)
        pairs, free, left = _gaussian_pairs(min(k, n - k), max(k, n - k))
        x, down = peel(x, down + left)
        return ratio(x, up + free, down, geometric=pairs)


# One GaussianAnchor per (k, n), shared by every term of a route, as
# fold groups terms by anchor object.
gaussian_anchor = functools.lru_cache(maxsize=None)(GaussianAnchor)


class GeometricSpace(PoincarePoly):
    """A Gaussian binomial kept as its pairs, one polyring.Geometric, that
    fold takes as it is; poly, if asked for, is expanded by packed_sum."""

    __slots__ = ("geometric",)

    def __init__(self, geometric: Geometric):
        setfield(self, "geometric", geometric)

    poly = property(lambda self: packed_sum([((self.geometric,), ())]))
    dim, components = property(lambda self: self.geometric.degree), 1


@functools.lru_cache(maxsize=None)
def geometric_projective(m: int) -> GeometricSpace:
    """projective(m), m >= 0, for a route: [m + 1] = (1 - q^(m+1)) / (1 - q)."""
    return GeometricSpace(Geometric(((m + 1, 1),)))


@functools.lru_cache(maxsize=None)
def geometric_grassmannian(k: int, n: int) -> PoincarePoly:
    """grassmannian(k, n) for a route: a GeometricSpace where _gaussian_pairs
    leaves no a and no i, else grassmannian(k, n) itself."""
    if 0 <= k <= n:
        pairs, free, left = _gaussian_pairs(min(k, n - k), max(k, n - k))
        if not (free or left):
            return GeometricSpace(Geometric(pairs))
    return grassmannian(k, n)


class Quotient(Record):
    """anchor times the small factors, IntPoly or Geometric, times (1 - q^a)
    for a in up, over (1 - q^i) for i in down: a space kept as factored
    small parts over a large anchor that fold shares.  dim needs no ratio."""

    __slots__ = ("anchor", "small", "up", "down")

    def __init__(self, anchor: PoincarePoly, small: tuple[IntPoly, ...] = (),
                 up: tuple[int, ...] = (), down: tuple[int, ...] = ()):
        setfield(self, "anchor", anchor)
        setfield(self, "small", small)
        setfield(self, "up", up)
        setfield(self, "down", down)

    poly = property(lambda self: fold([self]))

    @property
    def dim(self) -> int:
        return self.anchor.dim + sum(f.degree for f in self.small) + sum(self.up) - sum(self.down)


def fold(terms: Iterable[PoincarePoly | Quotient]) -> IntPoly:
    """The sum of the terms, one anchor.ratio(N, up, down) per anchor
    object (never per equal polynomial), N the packed_sum of its terms'
    small parts.  Terms that differ in (up, down) are each lifted, by the
    up and what the down lacks, to up = () and the downs' multiset maximum."""
    groups: dict[int, tuple[PoincarePoly, list]] = {}
    for term in terms:
        groups.setdefault(id(term.anchor), (term.anchor, []))[1].append(term)
    total = ZERO
    for anchor, group in groups.values():
        shapes = {(t.up, t.down) for t in group}
        (up, down), lifts = next(iter(shapes)), dict.fromkeys(shapes, ())
        if len(shapes) > 1:  # down holds each i as often as the down with most of it
            most = {i: max(d.count(i) for _, d in shapes) for _, d in shapes for i in d}
            up, down = (), tuple(i for i, m in most.items() for _ in range(m))
            lifts = {(u, d): tuple(sorted((*u, *_minus(down, d)))) for u, d in shapes}
        parts = [(t.small, lifts[t.up, t.down]) for t in group]
        total += anchor.ratio(packed_sum(parts), up, down)
    return total


def _minus(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The multiset a less b, which it contains."""
    rest = list(a)
    for i in b:
        rest.remove(i)
    return rest


def projective(m: int) -> PoincarePoly:
    """Projective space of dimension m, so 1 + q + ... + q^m.

    >>> str(projective(2))
    '1 + q + q^2'
    """
    if m < 0:
        raise InvalidParameters(f"projective space of dimension {m}")
    return PoincarePoly(IntPoly([1] * (m + 1)))


def weighted_projective(weights: Iterable[int]) -> PoincarePoly:
    """Weighted projective space.

    Rational cohomology does not see the weights, so this is the
    straight projective space of dimension len(weights) - 1.
    """
    ws = tuple(weights)
    if not ws or any(w < 1 for w in ws):
        raise InvalidParameters(f"bad weights {ws}")
    return projective(len(ws) - 1)


def _gaussian_pairs(m: int, d: int) -> tuple[list[tuple[int, int]], tuple[int, ...], tuple[int, ...]]:
    """[d+m choose m] as the module docstring's geometric pairs (a, i),
    smallest i first, and the a and the i left over."""
    pairs, left, free = [], [], set(range(d + 1, d + m + 1))
    for i in range(m, 0, -1):
        for a in range(d + m - (d + m) % i, d, -i):
            if a in free:
                free.remove(a)
                pairs.append((a, i))
                break
        else:
            left.append(i)
    return pairs[::-1], tuple(sorted(free)), tuple(left)


@functools.lru_cache(maxsize=None)
def grassmannian(k: int, n: int) -> PoincarePoly:
    """Grassmannian of k-dimensional subspaces of an n-dimensional space.

    The Gaussian binomial [n choose k]_q, as the module docstring says;
    no step is kept between calls.  Out-of-range k yields the
    empty space as a value, which downstream formulas rely on to drop
    vacuous terms.

    >>> str(grassmannian(2, 4))
    '1 + q + 2q^2 + q^3 + q^4'
    """
    if n < 0:
        raise InvalidParameters(f"grassmannian({k}, {n}): need n >= 0")
    if k < 0 or k > n:
        return EMPTY
    pairs, free, left = _gaussian_pairs(min(k, n - k), max(k, n - k))
    value = ratio(ONE, free, left, geometric=pairs)
    return PoincarePoly.from_poly(value, claimed_dim=k * (n - k), what=f"grassmannian({k},{n})")


def grassmannian_over(j: int, a: int, n: int) -> Quotient:
    """grassmannian(j, n), 0 <= j, a <= n, as a Quotient over
    grassmannian(a, n): the recurrence's steps from row a to row j."""
    rows = range(min(j, a) + 1, max(j, a) + 1)
    up, down = tuple(n - i + 1 for i in rows), tuple(rows)
    return Quotient(gaussian_anchor(a, n), (), *((up, down) if j > a else (down, up)))


@functools.lru_cache(maxsize=None)
def fano_lines(k: int, n: int) -> PoincarePoly:
    """Space of lines in grassmannian(k, n).

    A line sits inside a unique (k+1)-dimensional envelope and contains
    a unique (k-1)-dimensional core, which fibers the space over
    grassmannian(k+1, n) with grassmannian(k-1, k+1) fibers.
    """
    if not 1 <= k <= n - 1:
        raise InvalidParameters(f"fano_lines({k}, {n}): need 1 <= k <= n-1")
    value = grassmannian(k + 1, n) * grassmannian(k - 1, k + 1)
    expected = (k + 1) * (n - k - 1) + 2 * (k - 1)
    return PoincarePoly.from_poly(
        value.poly, claimed_dim=expected, what=f"fano_lines({k},{n})"
    )


@functools.lru_cache(maxsize=None)
def fano_planes(k: int, n: int) -> PoincarePoly:
    """Space of planes in grassmannian(k, n); up to two disjoint pieces.

    One piece parametrizes planes whose members share a (k-2)-core
    inside a common (k+1)-envelope, the other planes with a (k-1)-core
    inside a (k+2)-envelope.  Either piece may be empty; if both are,
    the result is the empty space.
    """
    if not 1 <= k <= n - 1:
        raise InvalidParameters(f"fano_planes({k}, {n}): need 1 <= k <= n-1")
    total = EMPTY
    for core, envelope, _, _ in plane_families(k, n):
        total = total + core * envelope
    return total


def plane_families(k: int, n: int) -> Iterator[tuple]:
    """The nonempty pieces of fano_planes(k, n), as (core, envelope,
    codim, label): the piece is core x envelope, and codim is the
    codimension of the planar cubics over it in the Hilbert scheme of
    twisted cubics.  Both envelopes have the lines' Gr(k+1, n) as anchor."""
    if k >= 2:
        yield geometric_grassmannian(k - 2, k + 1), gaussian_anchor(k + 1, n), 2 * n - k - 4, "Delta_A"
    if n >= k + 2:
        yield geometric_grassmannian(k - 1, k + 2), grassmannian_over(k + 2, k + 1, n), n + k - 4, "Delta_B"


@functools.lru_cache(maxsize=None)
def lines_through_point(k: int, n: int) -> PoincarePoly:
    """Lines in grassmannian(k, n) through a fixed point.

    P^(k-1) x P^(n-k-1), of dimension n - 2.  Together with the
    Grassmannian itself this multiplies out to the polynomial of the
    full space of pointed lines; see the identity tested in the
    verification suites.
    """
    if not 1 <= k <= n - 1:
        raise InvalidParameters(f"lines_through_point({k}, {n}): need 1 <= k <= n-1")
    return projective(k - 1) * projective(n - k - 1)


def stable_maps_p1(d: int) -> PoincarePoly:
    """Stable-map space of degree d rational curves on a line, d = 2 or 3."""
    if d == 2:
        return PoincarePoly(IntPoly([1, 1, 1]))
    if d == 3:
        return PoincarePoly(IntPoly([1, 1, 2, 1, 1]))
    raise InvalidParameters(f"stable_maps_p1({d}): degree must be 2 or 3")


# The weight polynomials f1, f2, f3, f4 of the degree 3 stable-map kernel.
DEGREE3_KERNEL = (
    IntPoly([1, 0, 2, 3, 3, -1, 1, -3, -3, -2, 0, -1]),
    IntPoly([1, 0, 5, 2, -2, -5, 0, -1]),
    IntPoly([2, 0, 3, 1, -1, -3, 0, -2]),
    IntPoly([1, 6, 3, 2, -2, -3, -6, -1]),
)


def _check_kernel_weights() -> None:
    # Each weight vanishes at q = 1 and is anti-palindromic; a typo in
    # the hard-coded coefficients would almost surely break one of these.
    for name, w in zip(("f1", "f2", "f3", "f4"), DEGREE3_KERNEL):
        if w.evaluate(1) != 0:
            raise RuntimeError(f"kernel weight {name} does not vanish at 1")
        if w.reversed() != -w:
            raise RuntimeError(f"kernel weight {name} is not anti-palindromic")


_check_kernel_weights()


# The degree 3 kernel is degree3_kernel(k, n) over the product of
# (1 - q^j) for j in DEGREE3_KERNEL_DEN; the quotient alone need not be
# a polynomial, only its product with the space of lines is.  The
# degree 2 numerators are divided by the product for j in DEGREE2_DEN.
DEGREE3_KERNEL_DEN = (1, 2, 2, 3, 3)
DEGREE2_DEN = (1, 1, 2, 2)


# The fixed multiplier of each weight in degree3_kernel, as
# (coefficient, exponent) terms: 1, (1 + q)^2 (1 + q^2), -q (1 + q)^2, q^2.
_KERNEL_MULTIPLIERS = (
    ((1, 0),),
    ((1, 0), (2, 1), (2, 2), (2, 3), (1, 4)),
    ((-1, 1), (-2, 2), (-1, 3)),
    ((1, 2),),
)


def degree3_kernel(k: int, n: int) -> IntPoly:
    """Numerator of the degree 3 stable-map kernel over DEGREE3_KERNEL_DEN.

    With f1, f2, f3, f4 the weights of DEGREE3_KERNEL it is

        f1 (1 + q^(2n)) + (1 + q)^2 (1 + q^2) f2 q^n
        - q (1 + q)^2 f3 (q^k + q^(n-k) + q^(n+k) + q^(2n-k))
        + q^2 f4 (q^(2k) + q^(2n-2k)),

    a sum of shifted weights: each term of a weight's fixed multiplier,
    at each of its shifts, adds the weight's coefficients, times the
    term's coefficient, into one list.  DEGREE3_KERNEL is read at each
    call.
    """
    shifts = ((0, 2 * n), (n,), (k, n - k, n + k, 2 * n - k), (2 * k, 2 * n - 2 * k))
    weights = [w.coeffs for w in DEGREE3_KERNEL]
    out = [0] * (2 * n + 4 + max(map(len, weights)))
    for w, terms, places in zip(weights, _KERNEL_MULTIPLIERS, shifts):
        for c, e in terms:
            for p in places:
                for i, x in enumerate(w, p + e):
                    out[i] += c * x
    return IntPoly(out)


def degree2_bracket(k: int, n: int) -> IntPoly:
    """(1 + q^n)(1 + q^3) - q(1 + q)(q^k + q^(n-k)), the bracket of the
    degree 2 stable-map numerator; the d = 2 sheaf space adds a term.
    Its eight terms are added into one list, 0 <= k <= n."""
    if not 0 <= k <= n:
        raise InvalidParameters(f"degree2_bracket({k}, {n})")
    out = [0] * (n + 4)
    for e in (0, 3, n, n + 3):
        out[e] += 1
    for e in (k + 1, k + 2, n - k + 1, n - k + 2):
        out[e] -= 1
    return IntPoly(out)


def degree2_quotient(k: int, n: int) -> Quotient:
    """M(Gr(k, n), 2) as a Quotient over the lines' grassmannian(k+1, n):
    degree2_bracket times (1 - q^k) (1 - q^(k+1)) over DEGREE2_DEN."""
    return Quotient(gaussian_anchor(k + 1, n), (degree2_bracket(k, n),), (k, k + 1), DEGREE2_DEN)


@functools.lru_cache(maxsize=None)
def degree3_quotient(k: int, n: int) -> Quotient:
    """M(Gr(k, n), 3) as a Quotient over the lines' grassmannian(k+1, n):
    degree3_kernel times grassmannian(k-1, k+1) over DEGREE3_KERNEL_DEN."""
    small = (degree3_kernel(k, n), geometric_grassmannian(k - 1, k + 1).geometric)
    return Quotient(gaussian_anchor(k + 1, n), small, down=DEGREE3_KERNEL_DEN)


def check_curve_range(k: int, n: int, d: int, what: str) -> None:
    """Raise InvalidParameters, naming what, unless the stable-map
    formulas cover degree d curves in grassmannian(k, n)."""
    if d not in (2, 3):
        raise InvalidParameters(f"{what}: degree must be 2 or 3")
    if not 1 <= k <= n - 1:
        raise InvalidParameters(f"{what}: need 1 <= k <= n-1")
    if n < 3:
        raise InvalidParameters(f"{what}: need n >= 3")


@functools.lru_cache(maxsize=None)
def stable_maps_gr(k: int, n: int, d: int) -> PoincarePoly:
    """Stable-map space of degree d rational curves in grassmannian(k, n).

    Closed form: a numerator over a fixed product of (1 - q^j), times
    the lines' grassmannian(k+1, n), which ratio multiplies in packed:
    degree2_quotient or degree3_quotient.  The result has dimension
    k(n-k) + dn - 3 and the degree is checked.
    """
    check_curve_range(k, n, d, f"M(Gr({k},{n}),{d})")
    quotient = degree2_quotient(k, n) if d == 2 else degree3_quotient(k, n)
    return PoincarePoly.from_poly(
        quotient.poly,
        claimed_dim=k * (n - k) + d * n - 3,
        what=f"stable_maps_gr({k},{n},{d})",
    )
