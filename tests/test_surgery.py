import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvebetti import catalog, pipelines, polyring
from curvebetti.catalog import (
    EMPTY,
    POINT,
    DimensionMismatch,
    InvalidParameters,
    NegativeBetti,
    PoincarePoly,
    Quotient,
    fold,
    grassmannian,
    projective,
)
from curvebetti.pipelines import (
    ModuliKey,
    grid_keys,
    has_pipeline,
    keys_for_pair,
    normalize_key,
    pipeline_for,
    space_poly,
)
from curvebetti.polyring import ONE, Geometric, IntPoly, monomial, ratio, unpack_slots
from curvebetti.surgery import (
    Pipeline,
    SurgeryStep,
    blowdown_apply,
    blowup_apply,
    run_pipeline,
    run_pipeline_traced,
)


def space(coeffs) -> PoincarePoly:
    return PoincarePoly.from_poly(IntPoly(coeffs))


# strategy: a space polynomial with positive constant and lead coefficient
spaces = st.tuples(
    st.integers(1, 5),
    st.lists(st.integers(0, 5), max_size=5),
    st.integers(1, 5),
).map(lambda t: space([t[0], *t[1], t[2]]))


def test_bundle_total():
    assert (grassmannian(3, 4) * projective(5)).poly == IntPoly(
        [1, 2, 3, 4, 4, 4, 3, 2, 1]
    )
    assert (space([1]) * projective(2)).poly == IntPoly([1, 1, 1])
    assert EMPTY * projective(2) == EMPTY


def test_union_disjoint():
    u = projective(1) + projective(3)
    assert u.poly == IntPoly([2, 2, 1, 1])
    assert u.components == 2


def test_blowup_point_in_plane():
    out = blowup_apply(projective(2), space([1]), 2)
    assert out.poly == IntPoly([1, 2, 1])


def test_blowup_line_in_threespace():
    out = blowup_apply(projective(3), projective(1), 2)
    assert out.poly == IntPoly([1, 2, 2, 1])


def test_blowup_codim_one_is_identity():
    assert blowup_apply(projective(4), projective(3), 1).poly == projective(4).poly


def test_blowup_empty_center_is_identity():
    assert blowup_apply(projective(4), EMPTY, 3).poly == projective(4).poly


def test_blowup_dimension_check():
    with pytest.raises(DimensionMismatch):
        blowup_apply(projective(3), projective(1), 3)
    with pytest.raises(InvalidParameters):
        blowup_apply(projective(3), projective(2), 0)


def test_blowdown_undoes_blowup():
    up = blowup_apply(projective(3), projective(1), 2)
    down = blowdown_apply(up, projective(1), projective(1))
    assert down.poly == projective(3).poly


def test_blowdown_negative_betti():
    with pytest.raises(NegativeBetti):
        blowdown_apply(space([1, 1]), space([1]), projective(2))


def test_blowdown_disconnected_fiber_rejected():
    two_points = space([2])
    with pytest.raises(InvalidParameters):
        blowdown_apply(projective(3), projective(1), two_points)


@given(spaces, st.integers(1, 6))
def test_blowup_blowdown_round_trip(center, codim):
    ambient = center * projective(codim)  # any space of the right dim
    up = blowup_apply(ambient, center, codim)
    down = blowdown_apply(up, center, projective(codim - 1))
    assert down.poly == ambient.poly
    assert up.dim == ambient.dim
    assert up.components == ambient.components


def test_run_pipeline_empty_steps():
    base = grassmannian(2, 4)
    assert run_pipeline(Pipeline(base=(base,), steps=())) == base


def test_run_pipeline_matches_step_application():
    base = projective(4)
    center = projective(1)
    pipe = Pipeline(
        base=(base,),
        steps=(
            SurgeryStep("blowup", center, projective(2), "up"),
            SurgeryStep("blowdown", center, projective(2), "down"),
        ),
    )
    up, down = run_pipeline_traced(pipe)
    assert [up["label"], down["label"]] == ["up", "down"]
    assert [up["kind"], down["kind"]] == ["blowup", "blowdown"]
    assert up["cumulative"] == list(blowup_apply(base, center, 3).poly.coeffs)
    assert down["cumulative"] == list(base.poly.coeffs)
    assert down["correction"] == [-c for c in up["correction"]]


def test_run_pipeline_is_permutation_invariant():
    pipe = pipeline_for(ModuliKey(2, 5, 3, "S"))
    reference = run_pipeline(pipe)
    for perm in itertools.permutations(pipe.steps):
        permuted = Pipeline(base=pipe.base, steps=perm)
        assert run_pipeline(permuted).poly == reference.poly


def test_run_pipeline_trace_stays_nonnegative_in_canonical_order():
    pipe = pipeline_for(ModuliKey(1, 5, 3, "S"))
    for row in run_pipeline_traced(pipe):
        assert all(c >= 0 for c in row["cumulative"]), row["label"]


def test_a_pipeline_whose_step_does_not_fit_is_refused_when_built():
    # A line blown up in P^4 with P^1 fibers leaves a divisor of dimension 2.
    step = SurgeryStep("blowup", projective(1), projective(1), "bad-step")
    with pytest.raises(DimensionMismatch) as excinfo:
        Pipeline(base=(projective(4),), steps=(step,))
    assert str(excinfo.value) == "step bad-step: center dimension 1 + codimension 2 != 4"
    for kind in ("blowup", "blowdown"):
        step = SurgeryStep(kind, projective(1), projective(2), "fits")
        assert Pipeline(base=(projective(4),), steps=(step,)).steps == (step,)


@pytest.mark.parametrize("d, steps", [(2, "_simpson2_steps"), (3, "_simpson3_steps")])
def test_a_blowdown_fiber_one_dimension_short_is_caught_when_built(monkeypatch, d, steps):
    build = getattr(pipelines, steps)
    blowdowns = [step.label for step in build(2, 6) if step.kind == "blowdown"]
    assert blowdowns == (["Gamma^1_2"] if d == 2 else ["Gamma^2_3", "Gamma^3_4", "Gamma^1_5"])
    for label in blowdowns:
        def faulty(k, n, label=label):
            return tuple(
                SurgeryStep(step.kind, step.center, projective(step.fiber.dim - 1), label)
                if step.label == label else step
                for step in build(k, n)
            )

        monkeypatch.setattr(pipelines, steps, faulty)
        key = ModuliKey(2, 6, d, "S")
        with pytest.raises(DimensionMismatch) as excinfo:
            pipeline_for(key)
        message = str(excinfo.value)
        assert message.startswith(f"step {label}: center dimension "), message
        assert message.endswith(f" != {pipelines.dim_expected(key)}"), message


def test_run_pipeline_negative_total_names_step():
    # 1 + q^3 less q + q^2.
    bad = Pipeline(
        base=(space([1, 0, 0, 1]),),
        steps=(SurgeryStep("blowdown", projective(0), projective(2), "too-much"),),
    )
    with pytest.raises(NegativeBetti, match="too-much"):
        run_pipeline(bad)


def test_negative_total_names_the_first_step_even_after_a_recovery():
    # 1 + q^4, then 1 - q - q^2 - q^3 + q^4 (negative), 1 + q^4 again,
    # then 1 - q - 2q^2 - q^3 + q^4.
    bad = Pipeline(
        base=(space([1, 0, 0, 0, 1]),),
        steps=(
            SurgeryStep("blowdown", projective(0), projective(3), "dip"),
            SurgeryStep("blowup", projective(0), projective(3), "recover"),
            SurgeryStep("blowdown", projective(1), projective(2), "dip-again"),
        ),
    )
    for run in (run_pipeline, run_pipeline_traced):
        with pytest.raises(NegativeBetti) as excinfo:
            run(bad)
        assert str(excinfo.value) == (
            "pipeline total has a negative coefficient (first went negative at step dip)"
        )


def test_a_negative_base_is_named_not_its_first_step():
    # 1 - 2q + q^3, alone (as a closed S route is) and with a blow-up of
    # a point that leaves it negative: the base went negative, not a step.
    base = PoincarePoly(IntPoly([1, -2, 0, 1]))
    bump = SurgeryStep("blowup", POINT, projective(2), "bump")
    for steps in ((), (bump,)):
        for run in (run_pipeline, run_pipeline_traced):
            with pytest.raises(NegativeBetti) as excinfo:
                run(Pipeline(base=(base,), steps=steps))
            assert str(excinfo.value) == (
                "pipeline total has a negative coefficient (first went negative in the base)"
            )


def test_step_kind_validation():
    with pytest.raises(InvalidParameters):
        SurgeryStep("fold", projective(1), projective(1), "x")


def test_a_center_without_factors_is_refused():
    for kind in ("blowup", "blowdown"):
        with pytest.raises(InvalidParameters) as excinfo:
            SurgeryStep(kind, (), projective(1), "x")
        assert str(excinfo.value) == "step x: center has no factor"


def test_a_bare_center_is_a_one_factor_tuple():
    step = SurgeryStep("blowup", POINT, projective(1), "b")
    assert step.center == (POINT,)
    assert step == SurgeryStep("blowup", (POINT,), projective(1), "b")
    assert step.term() == Quotient(POINT, (IntPoly([0, 1]),))


def test_factored_center_fits_and_corrects_as_its_product():
    factors = (projective(2), projective(1), grassmannian(2, 4))
    expanded = factors[0] * factors[1] * factors[2]
    step = SurgeryStep("blowup", factors, projective(2), "f")
    flat = SurgeryStep("blowup", expanded, projective(2), "f")
    step.check_fit(expanded.dim + 3)
    with pytest.raises(DimensionMismatch, match="center dimension 7 "):
        step.check_fit(expanded.dim + 2)
    term = step.term()
    # The head is the anchor; the other factors and P(fiber) - 1 stay factored.
    assert term.anchor is factors[0]
    assert term.small == (factors[1].poly, factors[2].poly, IntPoly([0, 1, 1]))
    assert term.poly == flat.term().poly
    # An empty factor empties the center, which then fits anywhere.
    SurgeryStep("blowup", (projective(3), EMPTY), projective(1), "e").check_fit(0)


# With the grid, the keys whose heads Gr(k, n) and Gr(k+1, n) (n = 2k+1),
# Gr(k+1, n) and Gr(k+2, n) (n = 2k+2) or Gr(k, n) and Gr(k+2, n)
# (n = 2k+3) are equal polynomials, and the planar cubics.
FOLD_KEYS = sorted(
    {normalize_key(key) for key in grid_keys(1, 19, None, 20) if has_pipeline(key)}
    | {key for k, n in ((18, 37), (17, 37), (23, 48), (22, 47))
       for key in keys_for_pair(k, n) if has_pipeline(key)}
    | {ModuliKey(1, 3, 3, "S")}
)


@pytest.mark.parametrize("order", ["canonical", "reversed"])
def test_grouped_fold_equals_the_per_step_fold(order):
    """run_pipeline adds the small parts per head before multiplying;
    run_pipeline_traced multiplies out every step on its own."""
    assert {key.d for key in FOLD_KEYS} == {2, 3} and len(FOLD_KEYS) > 200
    for key in FOLD_KEYS:
        pipe = pipeline_for(key)
        if order == "reversed":
            pipe = Pipeline(base=pipe.base, steps=pipe.steps[::-1])
        grouped = run_pipeline(pipe).poly
        assert list(grouped.coeffs) == run_pipeline_traced(pipe)[-1]["cumulative"], str(key)


def test_each_degree3_route_never_expands_the_lines(packed_operands):
    # Every term of a degree 3 route of S or H is a Quotient over the
    # lines' Gr(13, 40), in H also Delta_A's envelope, and Gr(12, 40) and
    # Delta_B's Gr(14, 40) enter as one recurrence step over it.  Each
    # route runs its numerator through the pairs of Gr(13, 40): no packed
    # operand is as long as Gr(12, 40), and none of the three
    # Grassmannians is built.
    expected = {
        comp: IntPoly(run_pipeline_traced(pipeline_for(ModuliKey(12, 40, 3, comp)))[-1]["cumulative"])
        for comp in "SH"
    }
    large = len(grassmannian(12, 40).poly.coeffs)
    lengths, asked = packed_operands()
    for comp, mode in (("S", "pipeline"), ("H", "pipeline"), ("S", "closed"), ("H", "closed")):
        for cache in (pipelines._raw_space_poly, pipelines._simpson3_closed, catalog.stable_maps_gr,
                      catalog.degree3_quotient, catalog.gaussian_anchor, catalog.geometric_grassmannian):
            cache.cache_clear()
        lengths.clear()
        asked.clear()
        key = ModuliKey(12, 40, 3, comp)
        assert space_poly(key, mode).poly == expected[comp], (comp, mode)
        assert lengths and max(lengths) < large, (comp, mode)
        assert comp == "S" or asked, (comp, mode)  # H still builds Delta_A's core
        assert not {(12, 40), (13, 40), (14, 40)} & set(asked), (comp, mode)


def test_each_degree3_route_packs_once_and_evaluates_no_nested_route(monkeypatch):
    # Every catalog and pipelines cache cleared, each route at (12, 40)
    # multiplies out no center and makes one packed_sum, its fold's:
    # closed S's printed terms are folded with the route.  H takes the
    # planar cubics as Gr(2,3) x P^6, so no route evaluates S(Gr(1,3),3).
    caches = [obj for module in (catalog, pipelines) for obj in vars(module).values()
              if callable(getattr(obj, "cache_clear", None))]
    calls = []

    def record(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls.append((name, args))
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((catalog, "packed_sum"), (pipelines, "_raw_space_poly"),
                         (pipelines, "_simpson3_closed")):
        record(module, name)
    planar_cubics = ((ModuliKey(1, 3, 3, "S"),), (1, 3))
    for comp, mode in (("S", "pipeline"), ("H", "pipeline"), ("S", "closed"), ("H", "closed")):
        for cache in caches:
            cache.cache_clear()
        calls.clear()
        space_poly(ModuliKey(12, 40, 3, comp), mode)
        names = [name for name, _ in calls]
        assert names.count("packed_sum") == 1, (comp, mode)
        # _raw_space_poly takes (key, mode): its key alone is compared.
        assert not [args for _, args in calls
                    if args in planar_cubics or args[:1] in planar_cubics], (comp, mode)


@pytest.mark.parametrize("k, n", [(2, 6), (12, 40), (2, 251)])
def test_no_route_multiplies_two_intpolys(monkeypatch, k, n):
    # Every cache cleared, no route of M, S or H, at degree 2 or 3 and in
    # either mode, calls IntPoly's product: each route's products are made
    # in its fold's one packed_sum.
    caches = [obj for module in (catalog, pipelines) for obj in vars(module).values()
              if callable(getattr(obj, "cache_clear", None))]
    products, mul = [], IntPoly.__mul__

    def recording(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(IntPoly, "__mul__", recording)
    monkeypatch.setattr(IntPoly, "__rmul__", recording)
    assert 2 * (IntPoly([1, 1]) * IntPoly([1, 2])) == IntPoly([2, 6, 4]) and len(products) == 2
    for comp, d, mode in itertools.product("MSH", (2, 3), ("closed", "pipeline")):
        key = ModuliKey(k, n, d, comp)
        if mode == "pipeline" and not has_pipeline(key):
            continue
        for cache in caches:
            cache.cache_clear()
        products.clear()
        assert space_poly(key, mode).dim == k * (n - k) + d * n - 3
        assert not products, (key, mode)


def test_routes_keep_their_small_spaces_geometric(monkeypatch, packed_operands):
    # Every cache cleared, no route at (12, 40) builds the core Gr(11, 13),
    # Gamma^1_5's Gr(2, 38), the planar cubics' Gr(2, 3), Delta_B's core
    # Gr(11, 14) or the lines through a point: each is a geometric factor.
    # Delta_A's core Gr(10, 13) = [13 choose 3] leaves the i = 2 unpaired
    # and stays expanded, so the H routes, and only they, build it.
    def no_pointed_lines(k, n):
        raise AssertionError("lines_through_point called")

    monkeypatch.setattr(catalog, "lines_through_point", no_pointed_lines)
    caches = [obj for module in (catalog, pipelines) for obj in vars(module).values()
              if callable(getattr(obj, "cache_clear", None))]
    _, asked = packed_operands()
    for comp, mode in (("S", "pipeline"), ("H", "pipeline"), ("S", "closed"), ("H", "closed")):
        for cache in caches:
            cache.cache_clear()
        asked.clear()
        space_poly(ModuliKey(12, 40, 3, comp), mode)
        assert not {(11, 13), (2, 38), (2, 3), (11, 14)} & set(asked), (comp, mode)
        assert ((10, 13) in asked) == (comp == "H"), (comp, mode)


# --------------------------------------------------------------- packed fold

# Two anchors, and a third object with the first one's polynomial: fold
# groups by object, so it is a group of its own with the same value.
ANCHORS = (grassmannian(2, 5), projective(3), PoincarePoly(grassmannian(2, 5).poly))
signed_polys = st.lists(st.integers(-(2**40), 2**40), max_size=6).map(IntPoly)
exponents = st.lists(st.integers(1, 4), max_size=3).map(tuple)


# sign q^shift times 1 + q^i + ... + q^(a-i) per pair (a, i); a = 0 is zero.
geometrics = st.builds(
    Geometric,
    st.lists(st.tuples(st.integers(0, 6), st.integers(1, 3)).map(lambda t: (t[0] * t[1], t[1])), max_size=3),
    st.integers(0, 3),
    st.sampled_from((1, -1)),
)


@st.composite
def factored_terms(draw):
    """Quotients with signed, geometric, zero and empty factor tuples over
    shared and distinct anchors.  Each term's down either is in its up or
    divides a factor, ∏(1 - q^i) multiplied out, so every term and the
    total is exact; the downs still differ, so fold lifts them."""
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        anchor = ANCHORS[draw(st.integers(0, len(ANCHORS) - 1))]
        factors = draw(st.lists(st.one_of(signed_polys, geometrics), max_size=3))
        up, down = draw(exponents), draw(exponents)
        if draw(st.booleans()):
            up += down
        else:
            factors.append(ratio(ONE, down))
        terms.append(Quotient(anchor, tuple(factors), up, down))
    return terms


def plain_product(a: IntPoly, b: IntPoly) -> IntPoly:
    """a b by the double loop, sharing no code with packed_sum."""
    out = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPoly(out)


def expanded(term: Quotient) -> IntPoly:
    """A term's polynomial by plain products and list ratio steps."""
    product = term.anchor.poly
    for factor in term.small:
        if isinstance(factor, Geometric):  # its runs, each (1 - q^a) / (1 - q^i)
            for a, i in factor.pairs:
                product = ratio(product, (a,), (i,))
            factor = monomial(factor.shift, factor.sign)
        product = plain_product(product, factor)
    return ratio(product, term.up, term.down)


@settings(deadline=None, max_examples=200)
@given(factored_terms())
def test_packed_fold_equals_the_intpoly_expansion(terms):
    assert fold(terms) == sum((expanded(t) for t in terms), IntPoly())
    assert [t.poly for t in terms] == [expanded(t) for t in terms]


@pytest.mark.parametrize("width, wider", [(1, 2), (2, 4), (4, 8), (8, 9), (9, 10)])
def test_a_bound_below_half_a_slot_keeps_the_width(monkeypatch, width, wider):
    # The product f * 1 reaches its bound ||f||_inf at q^0 and q^2.
    decoded = []

    def recording_unpack(value, count, w, bound=None):
        decoded.append(w)
        return unpack_slots(value, count, w, bound)

    monkeypatch.setattr(polyring, "unpack_slots", recording_unpack)
    half = 2 ** (8 * width - 1)
    for c, w in ((half - 1, width), (half, wider)):
        for f in (IntPoly([c, -c, c]), IntPoly([-c, c, -c])):
            assert fold([Quotient(POINT, (f, ONE))]) == f
            assert decoded.pop() == w


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9])
def test_the_decode_refuses_a_bound_at_half_a_slot(width):
    half = 2 ** (8 * width - 1)
    value = half - 1 - ((half - 1) << 8 * width)  # the slots half - 1, -(half - 1)
    assert unpack_slots(value, 2, width, half - 1) == [half - 1, -(half - 1)]
    for bound in (half, 2 * half):
        with pytest.raises(InvalidParameters, match="not below half"):
            unpack_slots(value, 2, width, bound)
