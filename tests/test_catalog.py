import functools
import math
import random
import time
from array import array
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.rings import ring

from curvebetti import catalog, pipelines, polyring
from curvebetti.catalog import (
    DEGREE2_DEN,
    DEGREE3_KERNEL,
    DEGREE3_KERNEL_DEN,
    EMPTY,
    POINT,
    PoincarePoly,
    degree2_bracket,
    degree3_kernel,
    fano_lines,
    fano_planes,
    grassmannian,
    lines_through_point,
    projective,
    stable_maps_p1,
    weighted_projective,
)
from curvebetti.errors import DimensionMismatch, InvalidParameters, NegativeBetti, NonExactDivision
from curvebetti.keys import validate_key
from curvebetti.pipelines import ModuliKey, dim_expected, space_poly, stable_maps_gr
from curvebetti.polyring import ONE, IntPoly, monomial, ratio

GRID = [(k, n) for k in range(1, 5) for n in range(k + 1, 11)]


def box_partition_counts(k: int, m: int) -> list[int]:
    """Brute-force oracle: number of partitions of j that fit in a k x m
    box, for each j.  Cell counting for the Grassmannian, independent of
    the product formula."""
    counts = [0] * (k * m + 1)

    def walk(remaining_rows: int, cap: int, total: int):
        if remaining_rows == 0:
            counts[total] += 1
            return
        for part in range(cap + 1):
            walk(remaining_rows - 1, part, total + part)

    walk(k, m, 0)
    return counts


def test_projective():
    assert projective(0).poly == IntPoly([1])
    assert projective(2).poly == IntPoly([1, 1, 1])
    assert projective(5).poly == IntPoly([1] * 6)
    assert projective(3).dim == 3
    assert projective(3).euler() == 4
    with pytest.raises(InvalidParameters):
        projective(-1)


def test_weighted_projective_ignores_weights():
    assert weighted_projective((1, 2, 2)).poly == projective(2).poly
    assert weighted_projective((1, 2, 2, 3, 3)).poly == projective(4).poly
    assert weighted_projective((1,)).poly == POINT.poly
    with pytest.raises(InvalidParameters):
        weighted_projective(())
    with pytest.raises(InvalidParameters):
        weighted_projective((1, 0, 2))


def test_grassmannian_reference_values():
    assert grassmannian(2, 4).poly == IntPoly([1, 1, 2, 1, 1])
    assert grassmannian(1, 5).poly == projective(4).poly
    assert grassmannian(0, 5) == POINT
    assert grassmannian(5, 5) == POINT
    assert grassmannian(-1, 2) == EMPTY
    assert grassmannian(6, 5) == EMPTY
    with pytest.raises(InvalidParameters):
        grassmannian(0, -1)


@pytest.mark.parametrize("k,n", [(k, n) for k in range(0, 8) for n in range(k, 8)])
def test_grassmannian_against_cell_count(k, n):
    assert list(grassmannian(k, n).poly.coeffs) == box_partition_counts(k, n - k)


@pytest.mark.parametrize("k,n", [(3, 7), (5, 12), (8, 21), (13, 30), (11, 40)])
def test_grassmannian_against_sympy_gaussian_binomial(k, n):
    # Independent oracle: the Gaussian binomial assembled and divided
    # once by sympy's polynomial arithmetic over the rationals.
    q = sympy.Symbol("q")
    num = sympy.Poly(sympy.prod([1 - q ** (n - i + 1) for i in range(1, k + 1)]), q)
    den = sympy.Poly(sympy.prod([1 - q**i for i in range(1, k + 1)]), q)
    quot, rem = sympy.div(num, den, domain="QQ")
    assert rem.is_zero
    expected = [int(c) for c in reversed(quot.all_coeffs())]
    assert list(grassmannian(k, n).poly.coeffs) == expected


ZZq, Q = ring("q", sympy.ZZ)


@functools.lru_cache(maxsize=None)
def q_pascal(n: int) -> tuple:
    """Independent oracle: the Gaussian binomials [n choose k], k = 0..n,
    in sympy's ring ZZ[q], by the q-Pascal rule
    [n choose k] = [n-1 choose k-1] + q^k [n-1 choose k]."""
    if n == 0:
        return (ZZq.one,)
    prev = q_pascal(n - 1)
    return tuple(
        (prev[k - 1] if k else ZZq.zero) + (prev[k] * Q**k if k < n else ZZq.zero)
        for k in range(n + 1)
    )


def q_pascal_coeffs(k: int, n: int) -> tuple[int, ...]:
    return row_coeffs(q_pascal(n)[k])


def row_coeffs(row) -> tuple[int, ...]:
    terms = row.to_dict()
    return tuple(int(terms.get((e,), 0)) for e in range(max(terms)[0] + 1))


def clear_caches(*kept) -> None:
    """Clear every cache of catalog and pipelines but those kept, as the
    benchmark does: a cache cleared alone leaves others holding the old
    anchor objects."""
    for module in (catalog, pipelines):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)) and obj not in kept:
                obj.cache_clear()


@pytest.mark.parametrize("n", range(1, 73))
def test_grassmannian_against_q_pascal_across_the_packed_boundary(n):
    # Every pairing of geometric and leftover steps up to n = 72, across
    # the machine word at n = 66/67 (C(67, 33) >= 2^63).
    for k in range(n + 1):
        assert grassmannian(k, n).poly.coeffs == q_pascal_coeffs(k, n), (k, n)


def test_packed_rows_stop_at_the_measured_crossover(monkeypatch):
    # At every n one certified division, after a geometric step wherever
    # i divides a free a, only to the middle from 192 coefficients on;
    # m <= 2 leaves no i over, and the division is D = 1.
    clear_caches()
    geometric = mock.Mock(wraps=polyring.packed_geometric)
    monkeypatch.setattr(polyring, "packed_geometric", geometric)
    divisions = recording_packed_dividers(monkeypatch)
    for (k, n), calls, path in (((3, 251), 3, "half"), ((3, 250), 3, "half"), ((3, 66), 3, "full"),
                                ((64, 66), 2, "full"), ((24, 48), 19, "half"),
                                ((28, 61), 20, "half")):
        geometric.reset_mock()
        divisions.clear()
        assert grassmannian(k, n).poly == ratio(ONE, range(n - k + 1, n + 1), range(1, k + 1))
        assert geometric.call_count == calls, (k, n)
        assert [(p, certified) for p, _, certified in divisions] == [(path, True)], (k, n)
    clear_caches()


@pytest.mark.parametrize("n", [251, 300])
def test_grassmannian_above_250_against_oracles_that_share_no_packed_code(n):
    # P(1) = C(n, k); P(2) = prod_{j<k} (2^(n-j) - 1) / (2^(j+1) - 1),
    # the number of k-dimensional subspaces of F_2^n; degree k(n - k),
    # and palindromic.
    for k in (3, n // 8, n // 4, n // 2):
        p = grassmannian(k, n).poly
        assert p.evaluate(1) == math.comb(n, k), (k, n)
        assert p.evaluate(2) * math.prod(2 ** (j + 1) - 1 for j in range(k)) == math.prod(
            2 ** (n - j) - 1 for j in range(k)), (k, n)
        assert p.degree == k * (n - k) and p.is_palindromic(), (k, n)


def test_grassmannian_above_250_against_q_pascal():
    # q_pascal's rows k <= 3 only: the whole triangle to n = 253 is too
    # large to build.
    rows = (ZZq.one,)
    for n in range(1, 254):
        rows = tuple((rows[k - 1] if k else ZZq.zero) + (rows[k] * Q**k if k < n else ZZq.zero)
                     for k in range(min(n, 3) + 1))
        if n >= 251:
            for k, row in enumerate(rows):
                assert grassmannian(k, n).poly.coeffs == row_coeffs(row), (k, n)


def test_slots_too_narrow_for_the_geometric_steps_are_refused(monkeypatch):
    # In 1-byte slots a packed attempt is certified or refused, before
    # packing or by its certificate, and the list steps then give the
    # oracle's polynomial.
    packed_ratio, certified = polyring._packed_ratio, []

    def recording(*args):
        quot = packed_ratio(*args)
        certified.append(quot is not None)
        return quot

    monkeypatch.setattr(polyring, "_quotient_width", lambda *args: 1)
    monkeypatch.setattr(polyring, "_packed_ratio", recording)
    clear_caches()
    try:
        for n in range(1, 21):
            for k in range(n + 1):
                assert grassmannian(k, n).poly.coeffs == q_pascal_coeffs(k, n), (k, n)
    finally:
        clear_caches()
    assert True in certified and False in certified


def test_grassmannian_independent_of_request_order():
    pairs = [(k, n) for n in (20, 47, 66, 67, 68) for k in range(n + 1)]
    shuffled = pairs[:]
    random.Random(7).shuffle(shuffled)
    results = []
    for order in (pairs, pairs[::-1], shuffled):
        clear_caches()
        results.append({p: grassmannian(*p).poly.coeffs for p in order})
    clear_caches()
    assert results[0] == results[1] == results[2]
    for k, n in pairs:
        assert results[0][k, n] == q_pascal_coeffs(k, n)


@pytest.mark.parametrize("dropped", [4, 8])
def test_packed_rows_without_one_typecode_size(monkeypatch, dropped):
    # Without 4-byte items, 3- and 4-byte slots widen into 8-byte items;
    # without 8-byte items, 5- to 8-byte slots are read as byte slices.
    codes = [c for c in "BHILQ" if array(c).itemsize != dropped]
    monkeypatch.setattr(polyring, "_SLOTS", polyring._slot_types(codes))
    clear_caches()
    try:
        # One n for each slot width from 1 to 8 bytes.
        for n in (9, 17, 25, 33, 42, 50, 58, 66):
            for k in range(n + 1):
                assert grassmannian(k, n).poly.coeffs == q_pascal_coeffs(k, n)
    finally:
        clear_caches()


def test_grassmannian_at_size():
    # Budget 2 s of CPU time, about ten times what the q-binomial
    # recurrence takes.
    clear_caches()
    start = time.process_time()
    gr = grassmannian(100, 200)
    elapsed = time.process_time() - start
    clear_caches()
    assert gr.poly.degree == 10_000
    assert gr.is_palindromic()
    assert gr.euler() == math.comb(200, 100)
    assert elapsed < 2.0, f"grassmannian(100, 200): {elapsed:.2f} s, budget 2 s"


@pytest.mark.parametrize("k,n", GRID)
def test_grassmannian_structure(k, n):
    g = grassmannian(k, n)
    assert g.dim == k * (n - k)
    assert g.euler() == math.comb(n, k)
    assert g.is_palindromic()
    assert g.poly == grassmannian(n - k, n).poly


def test_fano_lines():
    assert fano_lines(1, 4).poly == grassmannian(2, 4).poly
    assert fano_lines(2, 4).poly == IntPoly([1, 2, 3, 3, 2, 1])
    assert fano_lines(1, 3).poly == IntPoly([1, 1, 1])
    assert fano_lines(1, 2) == POINT
    with pytest.raises(InvalidParameters):
        fano_lines(0, 4)
    with pytest.raises(InvalidParameters):
        fano_lines(4, 4)


@pytest.mark.parametrize("k,n", GRID)
def test_fano_lines_dimension(k, n):
    assert fano_lines(k, n).dim == (k + 1) * (n - k - 1) + 2 * (k - 1)


def test_fano_planes():
    two_piece = fano_planes(2, 4)
    assert two_piece.poly == IntPoly([2, 2, 2, 2])
    assert two_piece.components == 2
    one_piece = fano_planes(1, 4)
    assert one_piece.poly == grassmannian(3, 4).poly
    assert one_piece.components == 1
    assert fano_planes(1, 3) == POINT
    assert fano_planes(1, 2) == EMPTY
    with pytest.raises(InvalidParameters):
        fano_planes(3, 3)


@pytest.mark.parametrize(
    "k,n", [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5), (3, 7), (4, 6), (5, 6)]
)
def test_plane_families_make_up_fano_planes(k, n):
    families = list(catalog.plane_families(k, n))
    labels = ["Delta_A"] * (k >= 2) + ["Delta_B"] * (n >= k + 2)
    assert [label for *_, label in families] == labels
    total = IntPoly()
    for core, envelope, codim, _ in families:
        total = total + (core * envelope).poly
        # Planar cubics (dimension 8) over each plane, inside the Hilbert scheme.
        assert codim == dim_expected(ModuliKey(k, n, 3, "H")) - core.dim - envelope.dim - 8
    assert total == fano_planes(k, n).poly


@pytest.mark.parametrize("k,n", [(1, 3), (1, 4), (2, 4), (2, 7), (3, 9)])
def test_degree2_bracket_is_palindromic_and_dual(k, n):
    bracket = catalog.degree2_bracket(k, n)
    assert bracket.degree == n + 3
    assert bracket.is_palindromic()
    assert bracket.evaluate(1) == 0
    assert bracket == catalog.degree2_bracket(n - k, n)
    for bad in (-1, n + 1):
        with pytest.raises(InvalidParameters):
            catalog.degree2_bracket(bad, n)


def test_lines_through_point():
    assert lines_through_point(2, 4).poly == IntPoly([1, 2, 1])
    for n in range(3, 9):
        assert lines_through_point(1, n).poly == projective(n - 2).poly
    with pytest.raises(InvalidParameters):
        lines_through_point(0, 3)


@pytest.mark.parametrize("k,n", GRID)
def test_pointed_lines_fibration_identity(k, n):
    # Forgetting the point fibers the pointed-line space over the line
    # space with line fibers, and evaluation fibers it over the ambient
    # Grassmannian.  The two factorizations give the same total space.
    lhs = lines_through_point(k, n).poly * grassmannian(k, n).poly
    rhs = (
        projective(1).poly
        * grassmannian(k - 1, k + 1).poly
        * grassmannian(k + 1, n).poly
    )
    assert lhs == rhs


def test_stable_maps_p1():
    assert stable_maps_p1(2).poly == IntPoly([1, 1, 1])
    assert stable_maps_p1(3).poly == IntPoly([1, 1, 2, 1, 1])
    with pytest.raises(InvalidParameters):
        stable_maps_p1(4)
    with pytest.raises(InvalidParameters):
        stable_maps_p1(1)


def test_kernel_weights_frozen_values():
    assert len(DEGREE3_KERNEL) == 4
    assert DEGREE3_KERNEL[0].coeffs == (1, 0, 2, 3, 3, -1, 1, -3, -3, -2, 0, -1)
    assert DEGREE3_KERNEL[1].coeffs == (1, 0, 5, 2, -2, -5, 0, -1)
    assert DEGREE3_KERNEL[2].coeffs == (2, 0, 3, 1, -1, -3, 0, -2)
    assert DEGREE3_KERNEL[3].coeffs == (1, 6, 3, 2, -2, -3, -6, -1)
    for w in DEGREE3_KERNEL:
        assert w.evaluate(1) == 0
        assert w.reversed() == -w


def product_form_kernel(k: int, n: int) -> IntPoly:
    """degree3_kernel as a sum of products of polynomials, the form it
    was first written in."""
    f1, f2, f3, f4 = DEGREE3_KERNEL
    return (
        f1 * (ONE + monomial(2 * n))
        + (ONE + monomial(1)) * (ONE + monomial(1))
        * (
            f2 * monomial(n) * (ONE + monomial(2))
            - f3 * monomial(1) * (ONE + monomial(n)) * (monomial(k) + monomial(n - k))
        )
        + f4 * monomial(2) * (monomial(2 * k) + monomial(2 * n - 2 * k))
    )


def test_degree3_kernel_is_the_product_form():
    for n in range(3, 81):
        for k in range(n + 1):
            assert degree3_kernel(k, n) == product_form_kernel(k, n), (k, n)


def test_stable_maps_gr_degree_two_reference():
    # hand expansion at k=1, n=3
    assert stable_maps_gr(1, 3, 2).poly == IntPoly([1, 2, 3, 3, 2, 1])


def test_stable_maps_gr_guards():
    # stable_maps_gr validates its key with keys.validate_key, so a bad
    # key reads the same from every entry point.
    for k, n, d, message in (
        (1, 2, 2, "M(Gr(1,2),2): need n >= 3"),
        (0, 4, 2, "M(Gr(0,4),2): need 1 <= k <= n-1"),
        (4, 4, 3, "M(Gr(4,4),3): need 1 <= k <= n-1"),
        (1, 4, 4, "M(Gr(1,4),4): degree must be 2 or 3"),
        (-1, 3, 2, "M(Gr(-1,3),2): need 1 <= k <= n-1"),
        (2, 1, 0, "M(Gr(2,1),0): degree must be 2 or 3"),
    ):
        with pytest.raises(InvalidParameters) as direct:
            stable_maps_gr(k, n, d)
        with pytest.raises(InvalidParameters) as validated:
            validate_key(ModuliKey(k, n, d, "M"))
        with pytest.raises(InvalidParameters) as keyed:
            space_poly(ModuliKey(k, n, d, "M"))
        assert str(direct.value) == str(validated.value) == str(keyed.value) == message


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k,n", [(k, n) for k, n in GRID if n >= 3])
def test_stable_maps_gr_structure(k, n, d):
    m = stable_maps_gr(k, n, d)
    assert m.dim == k * (n - k) + d * n - 3
    assert m.components == 1
    assert m.is_palindromic()
    assert all(c >= 0 for c in m.poly.coeffs)
    assert m.poly == stable_maps_gr(n - k, n, d).poly


def recording_packed_dividers(monkeypatch) -> list:
    """Patch polyring's packed divider _quotient to record (path, down,
    certified) per call, path "half" if it divides only to the middle,
    else "full"."""
    calls, quotient = [], polyring._quotient

    def recording(v, nb, down, count, half, width):
        quot = quotient(v, nb, down, count, half, width)
        calls.append(("half" if half else "full", sorted(down), quot is not None))
        return quot

    monkeypatch.setattr(polyring, "_quotient", recording)
    return calls


@pytest.mark.parametrize("k, n, packed", [(10, 40, True), (24, 48, False)])
def test_stable_maps_gr_degree_three_divides_packed_or_by_list(monkeypatch, k, n, packed):
    # The quotient of M(Gr(10,40),3) has coefficients of 48 bits, that of
    # M(Gr(24,48),3) 65.  The slot width fixed beforehand holds either, so
    # both are certified packed.  Forced into 8-byte slots, the first is
    # still certified and the second's one packed attempt is refused, and
    # the list steps run: a width too narrow changes the path, never the
    # result.  Either way it is the expanded space of lines times the
    # kernel, divided factor by factor.
    expected = ratio(degree3_kernel(k, n) * fano_lines(k, n).poly, down=DEGREE3_KERNEL_DEN)
    calls = recording_packed_dividers(monkeypatch)
    for narrow in (False, True):
        if narrow:
            monkeypatch.setattr(polyring, "_quotient_width", lambda *args: 8)
        calls.clear()
        got = stable_maps_gr(k, n, 3).poly
        assert got == expected
        assert [(path, certified) for path, _, certified in calls] == [("half", not narrow or packed)]
    assert max(got.coeffs).bit_length() == (48 if packed else 65)


def test_stable_maps_gr_degree_three_never_expands_the_lines(monkeypatch, packed_operands):
    # The small factor Gr(k-1, k+1) of the lines goes into the kernel by
    # its geometric pairs; the numerator then runs through the pairs of
    # the large one, Gr(k+1, n): on a cold route no packed operand is as
    # long as Gr(12, 40), and no Grassmannian nor the space of lines is built.
    expected = ratio(degree3_kernel(12, 40) * fano_lines(12, 40).poly, down=DEGREE3_KERNEL_DEN)

    def no_lines(k, n):
        raise AssertionError("fano_lines called")

    for cache in (catalog.degree3_quotient, catalog.gaussian_anchor):
        cache.cache_clear()
    lengths, asked = packed_operands()
    monkeypatch.setattr(catalog, "fano_lines", no_lines)
    assert stable_maps_gr(12, 40, 3).poly == expected
    assert lengths and max(lengths) < len(grassmannian(12, 40).poly.coeffs)
    assert not asked


@pytest.mark.parametrize("k, n, through", [(8, 24, True), (7, 24, False)])
def test_gaussian_anchors_run_through_their_pairs_from_dimension_128(packed_operands, k, n, through):
    # Measured with the Grassmannians cached, as in verify: below a
    # dimension k(n - k) of about 128, multiplying by the cached
    # polynomial is quicker; from there on, running the numerator
    # through the pairs is.  Cold, the pairs are quicker at every size.
    assert catalog._THROUGH_MIN_DIM == 128 and k * (n - k) - 128 in (0, -9)
    m2 = catalog.degree2_quotient(k - 1, n)  # a Quotient over Gr(k, n)
    (x,), up, down = m2.small, m2.up, m2.down
    expected = ratio(x, up, down, by=grassmannian(k, n).poly)
    _, asked = packed_operands()
    assert catalog.GaussianAnchor(k, n).ratio(x, up, down) == expected
    assert asked == ([] if through else [(k, n)])


def planted_numerators(rng: random.Random, j: int, n: int, signed: bool):
    """N, up and down whose quotient times [n choose j]_q is a polynomial:
    N = M (1 - q^j) prod(1 - q^i) over down less its last i, n, which
    only the anchor's pairs divide out (its factor (1 - q^n) / (1 - q^j))."""
    low = -3 if signed else 0
    m = IntPoly([rng.randint(low, 9) for _ in range(rng.randint(1, 12))] + [1])
    down = tuple(rng.choice((1, 2, 2, 3, 3, 4, 5, 7)) for _ in range(rng.randint(0, 4)))
    up = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 2))) if signed else ()
    return ratio(m, (j, *down)), up, (*down, n)


ORACLE_PAIRS = [(0, 0), (0, 5), (5, 5), (1, 2), (1, 66), (65, 66), (33, 66), (32, 66),
                (12, 41), (24, 48), (13, 40), (28, 61), (20, 58), (9, 31), (30, 64)]


@pytest.mark.parametrize("j, n", ORACLE_PAIRS)
def test_anchor_pairs_equal_the_product_by_the_polynomial(monkeypatch, j, n):
    # Oracle: through the pairs, certified or not, a group is the product
    # by the expanded Gaussian binomial, divided step by step.  Every
    # anchor takes the pairs here, and every nonnegative quotient is
    # certified in the width fixed beforehand.
    monkeypatch.setattr(catalog, "_THROUGH_MIN_DIM", 0)
    calls = recording_packed_dividers(monkeypatch)
    rng, anchor = random.Random(f"{j},{n}"), catalog.GaussianAnchor(j, n)
    for signed in (False, True) * 3:
        if j == 0 or n == j:  # the point: no pair, so no factor to divide
            x, up, down = IntPoly([rng.randint(0, 9) for _ in range(5)]), (), ()
        else:
            x, up, down = planted_numerators(rng, j, n, signed)
        expected = ratio(x, up, down, by=grassmannian(j, n).poly)
        calls.clear()
        assert anchor.ratio(x, up, down) == expected, (signed, x, up, down)
        if down and not signed:
            assert [certified for _, _, certified in calls] == [True]


@pytest.mark.parametrize("j, n", ORACLE_PAIRS[3:])
def test_anchor_pairs_refuse_a_planted_inexact_numerator(monkeypatch, j, n):
    monkeypatch.setattr(catalog, "_THROUGH_MIN_DIM", 0)
    rng, anchor = random.Random(f"inexact {j},{n}"), catalog.GaussianAnchor(j, n)
    for _ in range(4):
        x, up, down = planted_numerators(rng, j, n, False)
        bad = x + monomial(rng.randint(0, len(x.coeffs)), rng.choice((-1, 1)))
        with pytest.raises(NonExactDivision):
            anchor.ratio(bad, up, down)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([(8, 24), (12, 40), (13, 41), (24, 48), (20, 58), (30, 64), (33, 66)]),
    st.lists(st.integers(-3, 9), max_size=12),
    st.lists(st.sampled_from((1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 11)), max_size=5),
    st.data(),
)
def test_peeled_anchor_pairs_equal_the_product_by_the_polynomial(jn, m, down, data):
    # N = M prod(1 - q^i) over a random sub-multiset of down, and up holds
    # the rest of down and maybe more: the quotient is a polynomial, the
    # peel moves some factors of N and the certified division gets the
    # others.  With more factors down than up, N + q^s has a pole at 1.
    (j, n), down = jn, tuple(down)
    assert j * (n - j) >= catalog._THROUGH_MIN_DIM
    mask = data.draw(st.lists(st.booleans(), min_size=len(down), max_size=len(down)))
    extra = tuple(data.draw(st.lists(st.integers(1, 6), max_size=2)))
    up = tuple(i for i, peeled in zip(down, mask) if not peeled) + extra
    x = ratio(IntPoly([*m, 1]), [i for i, peeled in zip(down, mask) if peeled])
    y, left = polyring.peel(x, down)
    assert ratio(y, catalog._minus(down, left)) == x
    for i in left:
        with pytest.raises(NonExactDivision):
            ratio(y, down=(i,))
    anchor = catalog.GaussianAnchor(j, n)
    assert anchor.ratio(x, up, down) == ratio(x, up, down, by=grassmannian(j, n).poly)
    if len(down) > len(up):
        s, c = data.draw(st.integers(0, len(x.coeffs))), data.draw(st.sampled_from((-1, 1)))
        with pytest.raises(NonExactDivision):
            anchor.ratio(x + monomial(s, c), up, down)


@pytest.mark.parametrize("j, n, down", [
    (12, 40, (5,)), (12, 40, (5, 13)), (12, 40, (17, 19)), (24, 48, (5,)),
    (24, 48, (13, 29)), (33, 66, (7,)), (33, 66, (5, 7)), (20, 58, (7,)),
])
def test_numerators_the_peel_cannot_touch_reach_the_division_whole(monkeypatch, j, n, down):
    # N = (1 - q)^r M, r = len(down), M of positive falling coefficients,
    # has no zero on the unit circle but at 1 (Enestrom-Kakeya).  Every i
    # here and among the leftover i is at least 2, so 1 - q^i, zero at
    # -1 or at a primitive i-th root of unity, divides no such N: the
    # certified division gets every factor, and certifies iff Q >= 0.
    rng = random.Random(f"untouched {j},{n},{down}")
    x = ratio(IntPoly(sorted(rng.sample(range(1, 60), 8), reverse=True)), (1,) * len(down))
    _, _, left = catalog._gaussian_pairs(min(j, n - j), max(j, n - j))
    whole = sorted(down + left)
    assert polyring.peel(x, whole) == (x, tuple(sorted(whole, reverse=True)))
    calls = recording_packed_dividers(monkeypatch)
    expected = ratio(x, (), down, by=grassmannian(j, n).poly)
    calls.clear()
    assert catalog.GaussianAnchor(j, n).ratio(x, (), down) == expected
    assert calls == [("full", whole, min(expected.coeffs) >= 0)]


@pytest.mark.parametrize("comp, mode, chains", [("M", "closed", (8, 3)), ("H", "pipeline", (10, 3))])
def test_peel_moves_what_the_numerator_holds_on_a_cold_route(monkeypatch, comp, mode, chains):
    # Cold routes at (12, 40), without the peel and with it: the same
    # polynomial, fewer factors handed to the certified division (M3: 8
    # to 3, its large 5 and 9 staying), fewer running-sum chains (one per
    # factor handed over, as the division runs only to the middle), and
    # no i handed over that the numerator's class sums clear.  Only the
    # anchor's division is recorded: a first run builds the small
    # Grassmannians, which stay cached.
    handed, running = [], []
    divisions = recording_packed_dividers(monkeypatch)
    packed_ratio_, running_sums = polyring._packed_ratio, polyring._running_sums

    def recording_packed_ratio(x, y, pairs, up, down):
        handed.append((x, down))
        return packed_ratio_(x, y, pairs, up, down)

    def counting_running_sums(*args):
        running.append(args[1])
        return running_sums(*args)

    monkeypatch.setattr(polyring, "_packed_ratio", recording_packed_ratio)
    monkeypatch.setattr(polyring, "_running_sums", counting_running_sums)
    routes, factors, counts = [], [], []
    for peel in (lambda x, down: (x, tuple(down)), polyring.peel):
        monkeypatch.setattr(catalog, "peel", peel)
        clear_caches()
        space_poly(ModuliKey(12, 40, 3, comp), mode)
        clear_caches(catalog.grassmannian)
        handed.clear()
        running.clear()
        divisions.clear()
        routes.append(space_poly(ModuliKey(12, 40, 3, comp), mode).poly)
        factors.append(sum(len(down) for _, down in handed))
        counts.append(len(running))
        assert [(path, certified) for path, _, certified in divisions] == [("half", True)]
    clear_caches()
    assert routes[0] == routes[1] and factors[1] < factors[0] and tuple(counts) == chains
    assert all(any(sum(x[r::i]) for r in range(i)) for x, down in handed for i in down)


DEGREE2_ANCHOR_KEYS = [(k, n) for n in range(3, 31) for k in range(1, n)] + [
    (k, n) for n in (66, 67) for k in (1, 2, 32, 33, n - 1)
] + [(k, n) for n in (250, 251) for k in (1, 2, n - 1)]


def test_degree2_over_the_lines_is_the_formula_over_gr_k_minus_1():
    # Gr(k-1, n) (1 - q^(n-k)) (1 - q^(n-k+1)) = Gr(k+1, n) (1 - q^k)
    # (1 - q^(k+1)): the printed formula, anchored on Gr(k-1, n), gives
    # the same polynomial, up to n = 251.  The bracket is the printed
    # product, expanded.
    q = monomial(1)
    for k, n in DEGREE2_ANCHOR_KEYS:
        assert degree2_bracket(k, n) == (ONE + monomial(n)) * (ONE + monomial(3)) - (
            q * (ONE + q) * (monomial(k) + monomial(n - k))
        ), (k, n)
        printed = ratio(degree2_bracket(k, n), (n - k, n - k + 1), DEGREE2_DEN,
                        by=grassmannian(k - 1, n).poly)
        assert stable_maps_gr(k, n, 2).poly == printed, (k, n)


def euler_count(k: int, n: int, d: int) -> int:
    """The number of torus-fixed stable maps of degree d <= 3 into
    Gr(k, n), counted on the GKM graph: V = C(n, k) fixed points, each on
    N = k(n-k) invariant lines.  Every such map is isolated, so the count
    is the Euler number.  d = 2: one double edge, or two edges at a
    vertex.  d = 3: one triple edge, a double and a single edge at a
    vertex, a chain of three edges (reversal fixes none), or three
    edges at a contracted vertex.  It shares no code with the formulas.
    """
    v, e = math.comb(n, k), k * (n - k)
    if d == 2:
        return v * e * (e + 2) // 2
    return v * (e + 2 * e**2 + e**3 + 2 * math.comb(e + 2, 3)) // 2


EULER_KEYS = [(k, n) for n in range(3, 31) for k in range(1, n)]


def test_stable_maps_gr_euler_number_is_the_fixed_point_count():
    assert len(EULER_KEYS) * 2 == 868
    for k, n in EULER_KEYS:
        for d in (2, 3):
            assert stable_maps_gr(k, n, d).euler() == euler_count(k, n, d), (k, n, d)


def test_euler_count_catches_a_kernel_fault_that_every_division_allows(monkeypatch):
    # Adding q^n times the kernel's denominator keeps every division
    # exact and changes M(Gr(k, n), 3) by q^n times the lines.
    kernel = catalog.degree3_kernel
    fault = ratio(ONE, DEGREE3_KERNEL_DEN)
    monkeypatch.setattr(catalog, "degree3_kernel", lambda k, n: kernel(k, n) + monomial(n) * fault)
    caches = (catalog.degree3_quotient,)
    for cache in caches:
        cache.cache_clear()
    try:
        caught = [(k, n) for k, n in EULER_KEYS if n <= 20
                  if stable_maps_gr(k, n, 3).euler() != euler_count(k, n, 3)]
    finally:
        for cache in caches:
            cache.cache_clear()
    assert len(caught) == 189 == len([key for key in EULER_KEYS if key[1] <= 20])


def test_stable_maps_gr_cubics_in_plane_properties():
    m = stable_maps_gr(2, 4, 3)
    assert m.dim == 13
    assert m.is_palindromic()


def test_poincare_poly_constructor_checks():
    with pytest.raises(NegativeBetti):
        PoincarePoly.from_poly(IntPoly([1, -1]))
    with pytest.raises(DimensionMismatch):
        PoincarePoly.from_poly(IntPoly([1, 1]), claimed_dim=2)
    p = PoincarePoly.from_poly(IntPoly([2, 1, 2]))
    assert p.components == 2
    assert p.dim == 2


def test_negative_betti_names_the_first_negative_coefficient():
    with pytest.raises(NegativeBetti) as excinfo:
        PoincarePoly.from_poly(IntPoly([1, 0, -2, 3, -5]))
    assert str(excinfo.value) == "space: coefficient of q^2 is -2"
    with pytest.raises(NegativeBetti) as excinfo:
        PoincarePoly.from_poly(IntPoly([4, -1, -7]), what="pipeline total")
    assert str(excinfo.value) == "pipeline total: coefficient of q^1 is -1"


def test_poincare_poly_operations():
    total = grassmannian(3, 4) * projective(5)
    assert total.poly == IntPoly([1, 2, 3, 4, 4, 4, 3, 2, 1])
    assert total.dim == 8
    both = projective(1) + projective(1)
    assert both.components == 2
    assert both.poly == IntPoly([2, 2])
    assert (EMPTY + POINT) == POINT
    assert (EMPTY * projective(3)) == EMPTY
    assert projective(2).betti_numbers() == [1, 0, 1, 0, 1]
    assert EMPTY.betti_numbers() == []
