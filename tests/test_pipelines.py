import functools
import gc
import hashlib
import time

import pytest

from curvebetti import catalog, pipelines
from curvebetti.catalog import (
    POINT,
    InvalidParameters,
    PoincarePoly,
    grassmannian,
    projective,
    stable_maps_gr,
)
from curvebetti.pipelines import (
    CheckResult,
    ModuliKey,
    dim_expected,
    grid_keys,
    has_pipeline,
    hilbert_d3,
    keys_for_pair,
    mirror_key,
    normalize_key,
    pipeline_for,
    simpson_d2,
    simpson_d3,
    space_poly,
    validate_key,
    verify_pair,
    verify_suite,
)
from curvebetti.polyring import IntPoly, NonExactDivision, monomial
from curvebetti.surgery import run_pipeline

S13 = IntPoly([1, 2, 3, 3, 3, 3, 3, 2, 1])


def test_dim_expected():
    assert dim_expected(ModuliKey(1, 4, 3, "S")) == 12
    assert dim_expected(ModuliKey(2, 4, 2, "S")) == 9
    assert dim_expected(ModuliKey(1, 3, 3, "H")) == 8


def test_validate_key_accepts_and_rejects():
    validate_key(ModuliKey(1, 3, 3, "S"))
    validate_key(ModuliKey(1, 3, 2, "M"))
    validate_key(ModuliKey(4, 10, 3, "H"))
    with pytest.raises(InvalidParameters):
        validate_key(ModuliKey(1, 3, 3, "H"))
    with pytest.raises(InvalidParameters):
        validate_key(ModuliKey(2, 3, 3, "H"))  # same space as (1,3) by duality
    with pytest.raises(InvalidParameters):
        validate_key(ModuliKey(0, 4, 2, "S"))
    with pytest.raises(InvalidParameters):
        validate_key(ModuliKey(4, 4, 2, "S"))
    with pytest.raises(InvalidParameters):
        validate_key(ModuliKey(1, 2, 2, "S"))
    with pytest.raises(InvalidParameters):
        validate_key(ModuliKey(1, 4, 4, "S"))
    with pytest.raises(InvalidParameters):
        validate_key(ModuliKey(1, 4, 3, "X"))


def test_key_normalization():
    assert normalize_key(ModuliKey(3, 4, 2, "S")) == ModuliKey(1, 4, 2, "S")
    assert mirror_key(ModuliKey(1, 5, 3, "H")) == ModuliKey(4, 5, 3, "H")


def test_simpson_d2_conics_in_plane():
    assert simpson_d2(1, 3).poly == projective(5).poly
    assert simpson_d2(1, 3, "pipeline").poly == projective(5).poly


def test_simpson_d2_reference_value():
    expected = IntPoly([1, 2, 3, 4, 4, 4, 3, 2, 1])
    assert simpson_d2(1, 4).poly == expected
    assert simpson_d2(1, 4, "pipeline").poly == expected
    assert simpson_d2(1, 4).euler() == 24


def test_simpson_d3_plane_cubics_reference():
    assert simpson_d3(1, 3).poly == S13
    assert simpson_d3(1, 3, "pipeline").poly == S13


def test_simpson_d3_modes_agree_at_14():
    closed = simpson_d3(1, 4)
    pipe = simpson_d3(1, 4, "pipeline")
    assert closed.poly == pipe.poly
    assert closed.dim == 12


def test_hilbert_equals_simpson_at_p3():
    assert hilbert_d3(1, 4).poly == simpson_d3(1, 4).poly


def test_hilbert_d3_correction_at_15():
    # The planar locus has two plane families; at (1, 5) only one is
    # nonempty and its codimension is 2, so the correction is the locus
    # polynomial times q.
    correction = grassmannian(3, 5).poly * S13 * monomial(1)
    assert hilbert_d3(1, 5).poly == simpson_d3(1, 5).poly + correction


def test_hilbert_d3_correction_at_24():
    # Both plane families are nonempty and both corrections are degree
    # one blow-ups of codimension 2 loci.
    correction = 2 * grassmannian(3, 4).poly * S13 * monomial(1)
    assert hilbert_d3(2, 4).poly == simpson_d3(2, 4).poly + correction


def test_duality_normalization_in_public_api():
    assert simpson_d3(3, 4).poly == simpson_d3(1, 4).poly
    assert hilbert_d3(4, 5, "pipeline").poly == hilbert_d3(1, 5, "pipeline").poly


@pytest.mark.parametrize("mode", ["closed", "pipeline"])
def test_mode_dispatch(mode):
    key = ModuliKey(2, 5, 3, "S")
    assert space_poly(key, mode).dim == dim_expected(key)


def test_space_poly_rejects_bad_mode_and_m_pipeline():
    with pytest.raises(InvalidParameters):
        space_poly(ModuliKey(1, 4, 2, "S"), "fast")
    with pytest.raises(InvalidParameters):
        space_poly(ModuliKey(1, 4, 2, "M"), "pipeline")


def test_degree_two_hilbert_is_simpson():
    key = ModuliKey(1, 4, 2, "H")
    assert space_poly(key).poly == simpson_d2(1, 4).poly


def test_pipeline_for_shape():
    pipe = pipeline_for(ModuliKey(1, 4, 2, "S"))
    assert [s.kind for s in pipe.steps] == ["blowup", "blowdown"]
    assert run_pipeline(pipe).poly == simpson_d2(1, 4).poly

    pipe3 = pipeline_for(ModuliKey(1, 5, 3, "S"))
    assert [s.kind for s in pipe3.steps] == ["blowup"] * 3 + ["blowdown"] * 3
    assert [s.label for s in pipe3.steps] == [
        "Gamma^1_0",
        "Gamma^2_1",
        "Gamma^3_2",
        "Gamma^2_3",
        "Gamma^3_4",
        "Gamma^1_5",
    ]

    pipe_h = pipeline_for(ModuliKey(2, 5, 3, "H"))
    assert [s.label for s in pipe_h.steps[-2:]] == ["Delta_A", "Delta_B"]
    with pytest.raises(InvalidParameters):
        pipeline_for(ModuliKey(1, 4, 2, "M"))


def test_verify_pair_passing_key():
    assert verify_pair(ModuliKey(2, 5, 3, "S")) == [
        CheckResult("duality", "S(Gr(2,5),3)", True),
        CheckResult("pipeline", "S(Gr(2,5),3)", True),
    ]


def test_verify_pair_euler():
    # Both checks read the polynomial whose Euler number is 24.
    key = ModuliKey(1, 4, 2, "S")
    assert [c.passed for c in verify_pair(key)] == [True, True]
    assert space_poly(key).euler() == 24


def test_verify_pair_m_key_has_no_mode_flag():
    assert verify_pair(ModuliKey(1, 4, 3, "M")) == [
        CheckResult("duality", "M(Gr(1,4),3)", True)
    ]


def test_verify_pair_captures_errors_as_entries():
    checks = verify_pair(ModuliKey(1, 3, 3, "H"))
    assert [(c.suite, c.passed) for c in checks] == [("duality", False), ("pipeline", False)]
    assert checks[0].detail == checks[1].detail
    assert checks[0].detail.startswith("InvalidParameters: H(Gr(1,3),3): every cubic")


def test_keys_for_pair_filters_invalid():
    assert len(keys_for_pair(1, 3)) == 4  # H(1,3) is out
    assert len(keys_for_pair(1, 4)) == 5
    assert keys_for_pair(1, 2) == []


def test_grid_keys_default_window():
    keys = grid_keys()
    assert ModuliKey(1, 3, 3, "H") not in keys
    assert ModuliKey(4, 10, 3, "H") in keys
    assert keys == sorted(keys)


def test_verify_suite_small_grid():
    keys = keys_for_pair(1, 4)
    report = verify_suite(keys)
    assert report.total_failures == 0
    counts = report.counts()
    assert counts["pipeline"][0] == 3  # S d2, S d3, H d3
    assert counts["special"][0] == 3
    assert counts["duality"][0] == len(keys)
    assert counts["symmetry"][0] == len(keys)


def test_verify_suite_suite_selection_and_json():
    report = verify_suite(keys_for_pair(2, 5), suites=("pipeline",))
    assert set(c.suite for c in report.checks) == {"pipeline"}
    payload = report.to_json()
    assert payload["total_failures"] == 0
    assert payload["suites"]["pipeline"]["failed"] == []
    with pytest.raises(InvalidParameters):
        verify_suite(keys_for_pair(2, 5), suites=("smoke",))


def test_verify_suite_refuses_an_empty_key_list():
    for suite in ("duality", "pipeline", "symmetry"):
        with pytest.raises(InvalidParameters, match="no keys to verify"):
            verify_suite([], (suite, "special"))
    assert verify_suite([], ("special",)).counts() == {"special": (3, 0)}


def test_special_checks_report_arithmetic_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise NonExactDivision("injected")

    monkeypatch.setattr(pipelines, "simpson_d3", broken)
    report = verify_suite(keys_for_pair(1, 4), suites=("special",))
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == [
        "H(Gr(1,4),3) = S(Gr(1,4),3)",
        "S(Gr(1,3),3) reference value",
    ]
    assert all(c.detail == "NonExactDivision: injected" for c in failed)
    assert report.total_checks == 3


def _failed_report(keys, suites, expected):
    """verify_suite over keys and suites gives exactly the checks
    expected, and its JSON lists the failed ones with their details."""
    report = verify_suite(keys, suites)
    assert report.checks == tuple(expected)
    failed = {}
    for check in expected:
        entry = failed.setdefault(check.suite, {"checks": 0, "failures": 0, "failed": []})
        entry["checks"] += 1
        if not check.passed:
            entry["failures"] += 1
            entry["failed"].append({"name": check.name, "detail": check.detail})
    assert report.to_json() == {
        "total_checks": len(expected),
        "total_failures": sum(not c.passed for c in expected),
        "suites": failed,
    }


def test_duality_failure_detail(monkeypatch):
    # M's closed route is stable_maps_gr itself: a one-sided polynomial of
    # degree 1 fails both halves of the duality check.
    monkeypatch.setattr(pipelines, "stable_maps_gr", lambda k, n, d: projective(1) + POINT)
    _failed_report(
        [ModuliKey(1, 4, 2, "M")],
        ("duality",),
        [CheckResult("duality", "M(Gr(1,4),2)", False, "not palindromic; degree != 8")],
    )


def test_pipeline_failure_detail(monkeypatch):
    key = ModuliKey(1, 4, 2, "S")  # closed: 1 2 3 4 4 4 3 2 1
    closed = space_poly(key).poly
    monkeypatch.setattr(
        pipelines, "_pipeline_poly", lambda key: PoincarePoly.from_poly(closed + monomial(2))
    )
    _failed_report(
        [key],
        ("duality", "pipeline"),
        [
            CheckResult("duality", "S(Gr(1,4),2)", True),
            CheckResult(
                "pipeline", "S(Gr(1,4),2)", False, "first difference at q^2: closed 3, pipeline 4"
            ),
        ],
    )


def test_symmetry_failure_detail(monkeypatch):
    closed = pipelines._simpson2_closed

    def skewed(k, n):
        value = closed(k, n)
        return PoincarePoly.from_poly(value.poly + monomial(1)) if 2 * k > n else value

    monkeypatch.setattr(pipelines, "_simpson2_closed", skewed)
    _failed_report(
        [ModuliKey(1, 4, 2, "S"), ModuliKey(1, 4, 3, "S")],
        ("symmetry",),
        [
            CheckResult("symmetry", "S(Gr(1,4),2)", False, "k <-> n-k broken at q^1"),
            CheckResult("symmetry", "S(Gr(1,4),3)", True),
        ],
    )


def test_evaluation_error_fails_duality_and_pipeline(monkeypatch):
    bad = ModuliKey(1, 4, 3, "H")
    validate = pipelines.validate_key

    def refuse(key):
        if key == bad:
            raise InvalidParameters("injected")
        validate(key)

    monkeypatch.setattr(pipelines, "validate_key", refuse)
    detail = "InvalidParameters: injected"
    _failed_report(
        [ModuliKey(1, 4, 3, "M"), bad],
        ("duality", "pipeline", "symmetry"),
        [
            CheckResult("duality", "H(Gr(1,4),3)", False, detail),
            CheckResult("duality", "M(Gr(1,4),3)", True),
            CheckResult("pipeline", "H(Gr(1,4),3)", False, detail),
            CheckResult("symmetry", "H(Gr(1,4),3)", True),
            CheckResult("symmetry", "M(Gr(1,4),3)", True),
        ],
    )


@pytest.mark.parametrize("n", range(11, 21))
def test_closed_equals_pipeline_beyond_the_default_grid(n):
    for k in range(1, n // 2 + 1):
        for key in (ModuliKey(k, n, 2, "S"), ModuliKey(k, n, 3, "S"), ModuliKey(k, n, 3, "H")):
            closed = space_poly(key, "closed")
            assert closed.poly == space_poly(key, "pipeline").poly, key
            assert closed.dim == dim_expected(key), key
            assert closed.is_palindromic(), key


def _clear_caches():
    for module in (catalog, pipelines):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.fixture
def empty_caches():
    _clear_caches()
    yield
    _clear_caches()


def test_kernel_perturbations_are_inexact(monkeypatch, empty_caches):
    # A typo in any coefficient of any weight leaves a remainder in one of
    # the (1 - q^j) divisions, both in M and in the closed S route.
    kernel = catalog.DEGREE3_KERNEL
    perturbations = 0
    for i, weight in enumerate(kernel):
        for j in range(len(weight.coeffs)):
            for sign in (1, -1):
                perturbed = kernel[:i] + (weight + monomial(j, sign),) + kernel[i + 1 :]
                monkeypatch.setattr(catalog, "DEGREE3_KERNEL", perturbed)
                perturbations += 1
                with pytest.raises(NonExactDivision):
                    stable_maps_gr(2, 5, 3)
                with pytest.raises(NonExactDivision):
                    simpson_d3(2, 5)
    assert perturbations == 72


def test_hilbert_at_size_agrees_on_both_routes(empty_caches):
    # Budget 2 s of CPU time per route, over ten times what either takes.
    key = ModuliKey(40, 80, 3, "H")
    polys = {}
    for mode in ("closed", "pipeline"):
        _clear_caches()
        start = time.process_time()
        polys[mode] = space_poly(key, mode)
        elapsed = time.process_time() - start
        assert elapsed < 2.0, f"{key} {mode}: {elapsed:.2f} s, budget 2 s"
    assert polys["closed"].poly == polys["pipeline"].poly
    assert polys["closed"].dim == dim_expected(key)
    assert polys["closed"].is_palindromic()


def test_verify_suite_evaluates_each_key_once(monkeypatch):
    calls = []

    def counting(key):
        calls.append(key)
        return verify_pair(key)

    monkeypatch.setattr(pipelines, "verify_pair", counting)
    keys = grid_keys(1, 2, None, 6)
    report = verify_suite(keys)
    assert sorted(calls) == sorted(keys)
    assert report.total_failures == 0


def test_grid_keys_offset_and_cap():
    assert grid_keys() == grid_keys(1, 4, None, 10, n_offset=1)
    assert len(grid_keys()) == 143
    # No key has k >= n, so k stops at n_hi - 1 however far k_hi reaches.
    assert grid_keys(1, 10**11, None, 5) == grid_keys(1, 4, None, 5)
    assert grid_keys(7, 10**11, None, 5) == []
    wide = grid_keys(1, 3, None, 8)
    assert grid_keys(1, 3, None, 8, n_offset=2) == [key for key in wide if key.n >= key.k + 2]
    assert grid_keys(1, 3, 6, 8) == [key for key in wide if key.n >= 6]
    assert grid_keys(1, 3, 6, 8, n_offset=4) == [
        key for key in wide if key.n >= max(6, key.k + 4)
    ]


def test_has_pipeline_exactly_for_s_and_h():
    assert [has_pipeline(ModuliKey(1, 4, 3, c)) for c in "MSH"] == [False, True, True]
    with pytest.raises(InvalidParameters, match="has no pipeline"):
        pipeline_for(ModuliKey(1, 4, 3, "M"))
    with pytest.raises(InvalidParameters, match="has no pipeline"):
        space_poly(ModuliKey(1, 4, 2, "M"), "pipeline")


def test_every_cache_is_a_module_attribute_of_catalog_or_pipelines():
    """The benchmark clears the caches it finds among the attributes of
    catalog and pipelines; a cache kept anywhere else, say in a dispatch
    table, would stay warm across its timed operations."""
    from curvebetti import cli, dsl  # noqa: F401  (every module and table built)

    gc.collect()
    caches = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, functools._lru_cache_wrapper)
        and (getattr(obj, "__module__", None) or "").startswith("curvebetti")
    ]
    placed = {id(v) for module in (catalog, pipelines) for v in vars(module).values()}
    stray = [f"{c.__module__}.{c.__qualname__}" for c in caches if id(c) not in placed]
    assert stray == []
    assert {"catalog.grassmannian", "pipelines._simpson3_closed"} <= {
        f"{c.__module__.rpartition('.')[2]}.{c.__qualname__}" for c in caches
    }


def _output_lines():
    """One line per key with n <= 30 (k from -1 to n+1, d from 2 to 4,
    M/S/H, both modes) and per grassmannian(k, n) with n <= 72: the
    coefficients of each valid result, the exception class of each
    invalid key."""
    for n in range(31):
        for k in range(-1, n + 2):
            for d in (2, 3, 4):
                for c in pipelines.COMPACTIFICATIONS:
                    for mode in ("closed", "pipeline"):
                        try:
                            value = space_poly(ModuliKey(k, n, d, c), mode).poly.coeffs
                        except Exception as exc:  # noqa: BLE001
                            value = type(exc).__name__
                        yield f"{k} {n} {d} {c} {mode}: {value}"
    _clear_caches()
    # n <= 72 crosses the packed-row boundary at n = 66/67.
    for n in range(73):
        for k in range(n + 1):
            yield f"Gr({k},{n}): {grassmannian(k, n).poly.coeffs}"
        grassmannian.cache_clear()


# sha256 of _output_lines(), one "\n"-terminated line each, computed with
# the multiply, surgery and kernel code as they stood before products by
# sparse and single-run factors took their own O(len) path.
OUTPUT_DIGEST = "bf6288d1ce05dbc869a868ea4d7dcacef1928295a546182f7010e77f1f8a16e9"


def test_outputs_match_the_recorded_digest(empty_caches):
    digest = hashlib.sha256()
    for line in _output_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == OUTPUT_DIGEST
