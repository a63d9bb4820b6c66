"""The acceptance gate.

Each test checks one release criterion and reports a single pass/fail
line through the acceptance fixture; the lines are echoed in the
terminal summary.  All comparisons are exact (integer polynomial
coefficients), the two timed criteria state their budgets inline.
"""

import json
import random
import time

from curvebetti import catalog, pipelines
from curvebetti.catalog import grassmannian, lines_through_point, projective
from curvebetti.cli import main as cli_main
from curvebetti.keys import keys_for_pair
from curvebetti.pipelines import (
    dim_expected,
    grid_keys,
    hilbert_d3,
    mirror_key,
    simpson_d2,
    simpson_d3,
    space_poly,
)
from curvebetti.polyring import IntPoly
from curvebetti.surgery import (
    Pipeline,
    blowdown_apply,
    blowup_apply,
    run_pipeline,
)

REFERENCE_13 = IntPoly([1, 2, 3, 3, 3, 3, 3, 2, 1])

GRID_PAIRS = [(k, n) for k in range(1, 5) for n in range(k + 1, 11)]


def _clear_caches() -> None:
    for module in (catalog, pipelines):
        for obj in vars(module).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def test_criterion_1_reference_value_both_routes(acceptance):
    _clear_caches()
    start = time.perf_counter()
    closed = simpson_d3(1, 3, "closed")
    stepped = simpson_d3(1, 3, "pipeline")
    elapsed = time.perf_counter() - start
    ok = closed.poly == REFERENCE_13 and stepped.poly == REFERENCE_13
    ok = ok and elapsed < 1.0
    acceptance(
        "1. degree-3 sheaf space on Gr(1,3) equals the reference "
        "polynomial by both routes",
        ok,
        f"{elapsed * 1000:.1f} ms, budget 1 s",
    )


def test_criterion_2_hilbert_equals_sheaf_on_projective_3_space(acceptance):
    ok = hilbert_d3(1, 4).poly == simpson_d3(1, 4).poly
    acceptance(
        "2. degree-3 Hilbert and sheaf compactifications agree on Gr(1,4)",
        ok,
    )


def test_criterion_3_closed_form_equals_pipeline_on_the_grid(acceptance):
    _clear_caches()
    start = time.perf_counter()
    checked = 0
    bad = []
    for k, n in GRID_PAIRS:
        for key in keys_for_pair(k, n):
            if key.compactification == "M":
                continue
            if space_poly(key, "closed").poly != space_poly(key, "pipeline").poly:
                bad.append(str(key))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    acceptance(
        "3. closed form equals surgery pipeline for every key on the "
        "k=1..4, n=k+1..10 grid",
        ok,
        f"{checked} keys, {elapsed:.2f} s, budget 10 s"
        + (f"; mismatches: {', '.join(bad)}" if bad else ""),
    )


def test_criterion_4_structural_suite_on_the_grid(acceptance):
    bad = []
    keys = grid_keys()
    for key in keys:
        p = space_poly(key)
        if any(c < 0 for c in p.poly.coeffs):
            bad.append(f"{key}: negative coefficient")
        if p.poly.coefficient(0) != 1:
            bad.append(f"{key}: constant term {p.poly.coefficient(0)}")
        if p.dim != dim_expected(key):
            bad.append(f"{key}: degree {p.dim} != {dim_expected(key)}")
        if not p.is_palindromic():
            bad.append(f"{key}: not palindromic")
        raw = pipelines._raw_space_poly(key, "closed")
        mirrored = pipelines._raw_space_poly(mirror_key(key), "closed")
        if raw.poly != mirrored.poly:
            bad.append(f"{key}: breaks k <-> n-k symmetry")
    acceptance(
        "4. every grid output is nonnegative, starts at 1, has the "
        "expected degree, is palindromic and is k <-> n-k symmetric",
        not bad,
        f"{len(keys)} keys" + (f"; {bad[0]}" if bad else ""),
    )


def test_criterion_5_conics_are_a_projective_5_bundle(acceptance):
    bad = []
    for n in range(3, 11):
        expected = projective(5).poly * grassmannian(3, n).poly
        if simpson_d2(1, n).poly != expected:
            bad.append(f"n={n}")
    acceptance(
        "5. degree-2 sheaf space on Gr(1,n) equals P^5 x Gr(3,n) for "
        "n=3..10",
        not bad,
        ", ".join(bad) if bad else "8 values",
    )


def test_criterion_6_pointed_lines_fibration_identity(acceptance):
    bad = []
    for k, n in GRID_PAIRS:
        left = lines_through_point(k, n).poly * grassmannian(k, n).poly
        right = (
            projective(1).poly
            * grassmannian(k - 1, k + 1).poly
            * grassmannian(k + 1, n).poly
        )
        if left != right:
            bad.append(f"({k},{n})")
    acceptance(
        "6. pointed-line fibration identity holds at every grid pair",
        not bad,
        f"{len(GRID_PAIRS)} pairs" + (f"; {', '.join(bad)}" if bad else ""),
    )


def test_criterion_7_surgery_round_trip_and_order_independence(acceptance):
    rng = random.Random(20260816)
    bad = 0
    for _ in range(1000):
        dim = rng.randint(1, 10)
        space_coeffs = [1] + [rng.randint(0, 9) for _ in range(dim - 1)] + [
            rng.randint(1, 9)
        ]
        space = catalog.PoincarePoly.from_poly(IntPoly(space_coeffs))
        codim = rng.randint(1, dim)
        center_coeffs = [rng.randint(0, 9) for _ in range(dim - codim)] + [
            rng.randint(1, 9)
        ]
        center = catalog.PoincarePoly.from_poly(IntPoly(center_coeffs))
        blown = blowup_apply(space, center, codim)
        back = blowdown_apply(blown, center, projective(codim - 1))
        if back.poly != space.poly:
            bad += 1

    shuffles_ok = True
    for comp in ("S", "H"):
        pipeline = pipelines.pipeline_for(pipelines.ModuliKey(2, 5, 3, comp))
        baseline = run_pipeline(pipeline).poly
        steps = list(pipeline.steps)
        for _ in range(50):
            rng.shuffle(steps)
            permuted = Pipeline(pipeline.base, tuple(steps))
            if run_pipeline(permuted).poly != baseline:
                shuffles_ok = False

    acceptance(
        "7. 1000 random blow-up/blow-down round trips return the input "
        "and pipeline totals ignore step order",
        bad == 0 and shuffles_ok,
        f"{bad} bad round trips" if bad else "seed 20260816",
    )


def test_criterion_8_cli_contract(acceptance, capsys):
    problems = []

    code = cli_main(["verify", "--suite", "all", "--color", "never"])
    out = capsys.readouterr().out
    if code != 0:
        problems.append(f"verify exited {code}")
    if not out.splitlines()[-1].endswith("0 failures"):
        problems.append("verify reported failures")

    args = [
        "betti", "--k", "1", "--n", "3", "--d", "3",
        "--compactification", "S", "--format", "json",
    ]
    cli_main(args)
    first = capsys.readouterr().out
    cli_main(args)
    second = capsys.readouterr().out
    if first != second:
        problems.append("betti json output is not byte-deterministic")
    record = json.loads(first)
    if record["q_coefficients"] != list(REFERENCE_13.coeffs):
        problems.append("betti json coefficients are wrong")

    code = cli_main(["betti", "--space", "Gr(2 4)"])
    capsys.readouterr()
    if code != 2:
        problems.append(f"parse error exited {code}, not 2")

    code = cli_main(["betti", "--space", "blowdown(P(1), P(0), P(2))"])
    capsys.readouterr()
    if code != 3:
        problems.append(f"arithmetic error exited {code}, not 3")

    acceptance(
        "8. CLI: verify exits 0 on the default grid, betti json is "
        "byte-deterministic, bad input exits 2 and 3",
        not problems,
        "; ".join(problems),
    )
