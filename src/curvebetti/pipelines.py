"""Betti numbers of three compactifications, each computed two ways.

A space of smooth degree d rational curves in a Grassmannian can be
compactified as a stable-map space (M), as a moduli space of semistable
sheaves (S), or as a Hilbert scheme of curves (H).  For d = 2 and 3 all
three have closed-form Poincare polynomials, and S and H are also
reachable from M by an explicit chain of blow-ups and blow-downs.

This module computes S and H along both routes, each a
surgery.Pipeline that surgery.run_pipeline evaluates:

* closed mode starts from the printed formula for S, its terms Quotients
  over the lines folded with the route; S takes no step, and H is S
  blown up along the locus of planar cubics;
* pipeline mode starts from the stable-map polynomial and folds the
  surgery steps, with centers kept as unexpanded products of catalog
  spaces (H's planar cubics S(Gr(1,3),3) as Gr(2,3) x P^6).

Every route is one ratio through the lines' Gr(k+1, n), never expanded:
every term is a Quotient over its gaussian_anchor (catalog.fold), and
the lines are the factors (Gr(k+1, n), Gr(k-1, k+1)).  Small spaces whose
Gaussian pairs are complete, the core, P^m, Gr(2, n-2), Gr(2,3) and the
paired plane-family cores, are catalog's GeometricSpaces, never expanded.

Both routes build on the catalog spaces and start from the same degree
3 stable-map kernel, but combine them differently: the closed route
term by term as printed, the pipeline route as blow-up and blow-down
corrections.  Exact agreement on a whole grid of (k, n) is therefore a
strong check of the surgery steps, though not of the kernel itself;
H's two routes share the planar-locus steps, so theirs checks S's.
verify_pair turns one key's two routes into CheckResults (that check,
and palindromicity with the expected dimension); verify_suite adds
duality under k -> n-k and collects a grid's checks in one report.

Keys are normalized to k <= n-k before evaluation; the duality suite
evaluates the raw, unnormalized formulas on both sides so that the
symmetry stays an actual test.
"""

from __future__ import annotations

import functools

from .catalog import (
    DEGREE2_DEN,
    DEGREE3_KERNEL_DEN,
    PoincarePoly,
    Quotient,
    check_curve_range,
    degree2_bracket,
    degree2_quotient,
    degree3_kernel,
    degree3_quotient,
    gaussian_anchor,
    geometric_grassmannian,
    geometric_projective,
    grassmannian,
    grassmannian_over,
    plane_families,
    projective,
    stable_maps_gr,
    stable_maps_p1,
    weighted_projective,
)
from .errors import CurvebettiError, InvalidParameters
from .keys import SUITES, ModuliKey
from .polyring import (
    ONE,
    Geometric,
    IntPoly,
    exact_div,  # noqa: F401  (bench/test_bench.py looks it up here)
    monomial,
    packed_sum,
    ratio,
)
from .record import Record
from .surgery import Pipeline, SurgeryStep, run_pipeline

COMPACTIFICATIONS = ("M", "S", "H")


def validate_key(key: ModuliKey) -> None:
    """Raise InvalidParameters unless the key names a supported space."""
    if key.compactification not in COMPACTIFICATIONS:
        raise InvalidParameters(
            f"compactification {key.compactification!r} not one of M, S, H"
        )
    check_curve_range(key.k, key.n, key.d, str(key))
    if key.compactification == "H" and key.d == 3 and key.n == 3:
        raise InvalidParameters(
            f"{key}: every cubic here lies in a plane, so the planar locus "
            "is the whole space and the blow-up to the Hilbert scheme "
            "degenerates"
        )


def has_pipeline(key: ModuliKey) -> bool:
    """S and H keys have a surgery pipeline; M is its base and has none."""
    return key.compactification != "M"


def normalize_key(key: ModuliKey) -> ModuliKey:
    """Fold k -> n-k duality so k <= n-k, returning such a key itself."""
    return key if 2 * key.k <= key.n else mirror_key(key)


def mirror_key(key: ModuliKey) -> ModuliKey:
    return ModuliKey(key.n - key.k, key.n, key.d, key.compactification)


def dim_expected(key: ModuliKey) -> int:
    """k(n-k) + dn - 3, the dimension of any of the three spaces."""
    return key.k * (key.n - key.k) + key.d * key.n - 3


# ---------------------------------------------------------------- degree 2


def _simpson2_steps(k: int, n: int) -> tuple[SurgeryStep, ...]:
    f1 = (gaussian_anchor(k + 1, n), geometric_grassmannian(k - 1, k + 1))  # the lines
    pn3 = geometric_projective(n - 3)
    return (SurgeryStep("blowup", (*f1, stable_maps_p1(2)), pn3, "Gamma^1"),
            SurgeryStep("blowdown", (*f1, pn3), stable_maps_p1(2), "Gamma^1_2"))


# ---------------------------------------------------------------- degree 3


# The fiber over the reducible conics with a tail, built once at import.
MIXED_RULING = ((ONE + monomial(1)) * stable_maps_p1(3).poly
                + monomial(1) * (ONE + monomial(1)) * stable_maps_p1(2).poly)


@functools.lru_cache(maxsize=None)
def _simpson3_closed(k: int, n: int) -> tuple[Quotient, ...]:
    """Closed S as its printed terms, Quotients over the lines' Gr(k+1, n)
    that fold sums with the route, each times the core Gr(k-1, k+1): in
    each, the core, [j] = (1 - q^j) / (1 - q) and [j] - 1 = q [j - 1] are
    one Geometric, and the pointed pencils Fx + q [n - 3], Fx = [n - k] [k],
    split their terms in two.  The last carries the one truly rational
    factor (1 - q^(n-3)) / (1 - q^2)."""
    core = geometric_grassmannian(k - 1, k + 1).geometric.pairs

    def geom(*js: int, shift: int = 0, sign: int = 1) -> Geometric:
        # sign q^shift [j] for j in js, times the core.
        return Geometric((*((j, 1) for j in js), *core), shift, sign)

    anchor, mb2, mb3 = gaussian_anchor(k + 1, n), stable_maps_p1(2).poly, stable_maps_p1(3).poly
    polynomial_terms = (
        (mb3, geom(2 * n - 5, shift=1)),  # mb3 ([2n - 4] - 1)
        (mb2, geom(2, n - k, k, n - 2, shift=1)),  # [2] (pointed pencils) mb2 ([n - 1] - 1)
        (mb2, geom(2, n - 3, n - 2, shift=2)),
        (MIXED_RULING, geom(n - 2, n - 3, shift=1)),  # [n - 2] MIXED_RULING ([n - 2] - 1)
        (geom(2, n - 1, n - k, k, 2, shift=1, sign=-1),),  # [2] [n - 1] (pointed pencils) (1 - [3])
        (geom(2, n - 1, n - 3, 2, shift=2, sign=-1),),
        (geom(2, 2, n - 2, n - 3, 2, shift=2, sign=-1),),  # [2]^2 [n - 2] ([n - 2] - 1) (1 - [3])
        (geom(2, n - 2, n - 2, 4, shift=1, sign=-1),),  # [2] [n - 2]^2 (1 - [5])
    )
    return (
        Quotient(anchor, (degree3_kernel(k, n), geom()), (), DEGREE3_KERNEL_DEN),
        *(Quotient(anchor, factors) for factors in polynomial_terms),
        Quotient(anchor, (geom(n - 2, 7, shift=1, sign=-1),), (n - 3,), (2,)),  # [n - 2] (1 - [8])
    )


@functools.lru_cache(maxsize=None)
def _simpson3_steps(k: int, n: int) -> tuple[SurgeryStep, ...]:
    """The steps from M to S, each center led by its large factor, the
    lines' Gr(k+1, n) or x over it: every head shares that anchor (in H,
    with Delta_A and B).  Pairs of pointed lines blown up along the
    diagonal (codimension n - 2) stay factored: Fx (Fx + P^(n-3) - 1)."""
    x = grassmannian_over(k, k + 1, n)
    f1 = (gaussian_anchor(k + 1, n), geometric_grassmannian(k - 1, k + 1))  # the lines
    fx = (geometric_projective(n - k - 1), geometric_projective(k - 1))  # lines through a point
    p1, pn2, pn3 = (geometric_projective(m) for m in (1, n - 2, n - 3))
    pn3_raised = Geometric(((n - 3, 1),), 1)  # P^(n-3) - 1 = q [n - 3]
    # Bl(Fx x Fx) over Fx, and the rest of Gamma^2_3's center: bl_rest P^(n-2) + P^1 P^(n-3) (P^(n-3) - 1).
    bl_rest = packed_sum([((fx[0].geometric, fx[1].geometric), ()), ((pn3_raised,), ())])
    down4_rest = packed_sum([((bl_rest, pn2.geometric), ()), ((p1.geometric, pn3.geometric, pn3_raised), ())])
    return (
        SurgeryStep("blowup", (*f1, stable_maps_p1(3)), geometric_projective(2 * n - 5), "Gamma^1_0"),
        SurgeryStep("blowup", (x, *fx, PoincarePoly(bl_rest), stable_maps_p1(2)), pn2, "Gamma^2_1"),
        SurgeryStep("blowup", (*f1, pn3, PoincarePoly(MIXED_RULING)), pn3, "Gamma^3_2"),
        SurgeryStep("blowdown", (x, *fx, PoincarePoly(down4_rest)), weighted_projective((1, 2, 2)),
                    "Gamma^2_3"),
        SurgeryStep("blowdown", (*f1, p1, pn3, pn3), weighted_projective((1, 2, 2, 3, 3)), "Gamma^3_4"),
        SurgeryStep("blowdown", (*f1, geometric_grassmannian(2, n - 2)), geometric_projective(7),
                    "Gamma^1_5"),
    )


def _delta_steps(k: int, n: int) -> tuple[SurgeryStep, ...]:
    """Blow-ups along the planar-curve locus, one per plane family.

    The locus fibers over the space of planes, in up to two pieces of
    different codimensions in the Hilbert scheme, with fibers the planar
    cubics S(Gr(1,3),3), kept as the closed formula's Gr(2,3) x P^6.
    """
    cubics = (geometric_grassmannian(2, 3), geometric_projective(6))
    return tuple(SurgeryStep("blowup", (envelope, core, *cubics), geometric_projective(codim - 1), label)
                 for core, envelope, codim, label in plane_families(k, n))


def _pipeline(key: ModuliKey, mode: str) -> Pipeline:
    """A valid S or H key's route as a pipeline.  Closed mode starts from
    the closed S formula, with no step in S and the planar-locus blow-ups
    in H; pipeline mode starts from the stable-map space."""
    if not has_pipeline(key):
        raise InvalidParameters(
            f"{key}: the stable-map space is the pipeline base and has no "
            "pipeline of its own"
        )
    k, n = key.k, key.n
    if key.d == 2:
        # In degree 2 the sheaf and Hilbert compactifications coincide.
        if mode == "pipeline":
            return Pipeline(base=(degree2_quotient(k, n),), steps=_simpson2_steps(k, n))
        # Closed S over the lines as degree2_quotient is M, with the sheaf term.
        bracket = degree2_bracket(k, n) + ratio(monomial(3) - monomial(n - 2), (2,))
        base = Quotient(gaussian_anchor(k + 1, n), (bracket,), (k, k + 1), DEGREE2_DEN)
        return Pipeline(base=(base,), steps=())
    delta = _delta_steps(k, n) if key.compactification == "H" else ()
    if mode == "closed":
        return Pipeline(base=_simpson3_closed(k, n), steps=delta)
    return Pipeline(base=(degree3_quotient(k, n),), steps=_simpson3_steps(k, n) + delta)


# ------------------------------------------------------------- public API


@functools.lru_cache(maxsize=None)
def _raw_space_poly(key: ModuliKey, mode: str) -> PoincarePoly:
    """A valid key's route, unnormalized: closed M is stable_maps_gr,
    every other route a pipeline, checked against the key's dimension."""
    if mode == "closed" and not has_pipeline(key):
        return stable_maps_gr(key.k, key.n, key.d)
    return run_pipeline(_pipeline(key, mode), dim_expected(key), f"{key} {mode}")


def space_poly(key: ModuliKey, mode: str = "closed") -> PoincarePoly:
    """Poincare polynomial of the space a key names, by the route mode
    names, checked before the route cache sees it."""
    validate_key(key)
    if mode not in ("closed", "pipeline"):
        raise InvalidParameters(f"mode {mode!r} not one of closed, pipeline")
    return _raw_space_poly(normalize_key(key), mode)


def simpson_d2(k: int, n: int, mode: str = "closed") -> PoincarePoly:
    return space_poly(ModuliKey(k, n, 2, "S"), mode)


def simpson_d3(k: int, n: int, mode: str = "closed") -> PoincarePoly:
    return space_poly(ModuliKey(k, n, 3, "S"), mode)


def hilbert_d3(k: int, n: int, mode: str = "closed") -> PoincarePoly:
    return space_poly(ModuliKey(k, n, 3, "H"), mode)


def pipeline_for(key: ModuliKey) -> Pipeline:
    """The surgery pipeline behind a key's pipeline mode."""
    validate_key(key)
    return _pipeline(normalize_key(key), "pipeline")


# ------------------------------------------------------------ verification


class CheckResult(Record):
    __slots__ = ("suite", "name", "passed", "detail")
    _defaults = {"detail": ""}


class SuiteReport(Record):
    __slots__ = ("checks",)  # a tuple of CheckResult

    @property
    def total_checks(self) -> int:
        return len(self.checks)

    @property
    def total_failures(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def counts(self) -> dict[str, tuple[int, int]]:
        out: dict[str, tuple[int, int]] = {}
        for c in self.checks:
            done, failed = out.get(c.suite, (0, 0))
            out[c.suite] = (done + 1, failed + (0 if c.passed else 1))
        return out

    def to_json(self) -> dict:
        suites: dict[str, dict] = {}
        for suite, (done, failed) in self.counts().items():
            suites[suite] = {
                "checks": done,
                "failures": failed,
                "failed": [
                    {"name": c.name, "detail": c.detail}
                    for c in self.checks
                    if c.suite == suite and not c.passed
                ],
            }
        return {
            "total_checks": self.total_checks,
            "total_failures": self.total_failures,
            "suites": suites,
        }


def keys_for_pair(k: int, n: int) -> list[ModuliKey]:
    """The valid keys over one (k, n): both degrees of M and S, plus H."""
    out = []
    for d, comp in ((2, "M"), (2, "S"), (3, "M"), (3, "S"), (3, "H")):
        key = ModuliKey(k, n, d, comp)
        try:
            validate_key(key)
        except InvalidParameters:
            continue
        out.append(key)
    return out


def grid_keys(
    k_lo: int = 1, k_hi: int = 4, n_lo: int | None = None, n_hi: int = 10,
    n_offset: int = 1,
) -> list[ModuliKey]:
    """The valid keys with k_lo <= k <= k_hi and max(n_lo, k + n_offset)
    <= n <= n_hi; n_lo of None sets no bound beyond k + n_offset.  The
    defaults give keys.DEFAULT_GRID.  Every key has k < n, so k stops at
    n_hi - 1, however large k_hi is."""
    keys: list[ModuliKey] = []
    for k in range(k_lo, min(k_hi, n_hi - 1) + 1):
        for n in range(max(k + n_offset, n_lo or 0), n_hi + 1):
            keys.extend(keys_for_pair(k, n))
    return sorted(keys)


def _error_detail(e: CurvebettiError) -> str:
    return f"{type(e).__name__}: {e}"


def _first_difference(a: IntPoly, b: IntPoly) -> tuple[int, int, int]:
    """The lowest power of q where two unequal polynomials differ, and
    their two coefficients there."""
    j = next(j for j in range(max(a.degree, b.degree) + 1)
             if a.coefficient(j) != b.coefficient(j))
    return j, a.coefficient(j), b.coefficient(j)


def verify_pair(key: ModuliKey) -> list[CheckResult]:
    """The duality check of one key and, for S and H keys, its pipeline
    check, from one evaluation of each route.

    An arithmetic failure fails each of the key's checks with the error's
    class and message rather than raising, so a sweep over a grid always
    completes.
    """
    name = str(key)
    try:
        closed = space_poly(key, "closed")
        pipe = space_poly(key, "pipeline") if has_pipeline(key) else None
    except CurvebettiError as e:
        suites = ("duality", "pipeline") if has_pipeline(key) else ("duality",)
        return [CheckResult(suite, name, False, _error_detail(e)) for suite in suites]
    problems = []
    if not closed.is_palindromic():
        problems.append("not palindromic")
    if closed.dim != dim_expected(key):
        problems.append(f"degree != {dim_expected(key)}")
    checks = [CheckResult("duality", name, not problems, "; ".join(problems))]
    if pipe is not None and closed.poly == pipe.poly:
        checks.append(CheckResult("pipeline", name, True))
    elif pipe is not None:
        j, a, b = _first_difference(closed.poly, pipe.poly)
        detail = f"first difference at q^{j}: closed {a}, pipeline {b}"
        checks.append(CheckResult("pipeline", name, False, detail))
    return checks


def _check_symmetry(key: ModuliKey) -> CheckResult:
    try:
        validate_key(key)
        a = _raw_space_poly(key, "closed")
        b = _raw_space_poly(mirror_key(key), "closed")
    except CurvebettiError as e:
        return CheckResult("symmetry", str(key), False, _error_detail(e))
    if a.poly == b.poly:
        return CheckResult("symmetry", str(key), True)
    j = _first_difference(a.poly, b.poly)[0]
    return CheckResult("symmetry", str(key), False, f"k <-> n-k broken at q^{j}")


def _special_checks() -> list[CheckResult]:
    """Three fixed identities; each check returns "" when it holds."""

    def conic_bundle() -> str:
        bad = [
            f"n={n}"
            for n in range(3, 11)
            if simpson_d2(1, n).poly != (projective(5) * grassmannian(3, n)).poly
        ]
        return ", ".join(bad)

    def hilbert_is_simpson() -> str:
        ok = hilbert_d3(1, 4).poly == simpson_d3(1, 4).poly
        return "" if ok else "polynomials differ"

    def reference_value() -> str:
        got = simpson_d3(1, 3).poly
        return "" if got == IntPoly([1, 2, 3, 3, 3, 3, 3, 2, 1]) else f"got {got}"

    out: list[CheckResult] = []
    for name, check in (
        ("conic-bundle: S(Gr(1,n),2) = P^5 x Gr(3,n)", conic_bundle),
        ("H(Gr(1,4),3) = S(Gr(1,4),3)", hilbert_is_simpson),
        ("S(Gr(1,3),3) reference value", reference_value),
    ):
        try:
            detail = check()
        except CurvebettiError as e:
            detail = _error_detail(e)
        out.append(CheckResult("special", name, not detail, detail))
    return out


def verify_suite(
    keys: list[ModuliKey] | None = None, suites: tuple[str, ...] = SUITES
) -> SuiteReport:
    """Run the named suites over a key grid and collect one report.

    Suites: duality (palindromicity and expected degree), pipeline
    (closed mode equals pipeline mode, S and H keys only), special
    (three fixed identity families), symmetry (raw formulas agree at k
    and n-k).  Checks come in SUITES order, each suite's by sorted key.
    An empty key list is refused unless special is the only suite, and
    an empty suites tuple always.
    """
    if not suites:
        raise InvalidParameters("no suites to run")
    for s in suites:
        if s not in SUITES:
            raise InvalidParameters(f"unknown suite {s!r}")
    if keys is None:
        keys = grid_keys()
    if not keys and {"duality", "pipeline", "symmetry"} & set(suites):
        raise InvalidParameters("no keys to verify")
    checks: dict[str, list[CheckResult]] = {suite: [] for suite in SUITES}
    for key in sorted(set(keys)):
        if "duality" in suites or ("pipeline" in suites and has_pipeline(key)):
            for check in verify_pair(key):
                checks[check.suite].append(check)
        if "symmetry" in suites:
            checks["symmetry"].append(_check_symmetry(key))
    if "special" in suites:
        checks["special"] = _special_checks()
    return SuiteReport(checks=tuple(c for s in SUITES if s in suites for c in checks[s]))
