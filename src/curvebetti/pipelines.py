"""Betti numbers of three compactifications, each computed two ways.

A space of smooth degree d rational curves in a Grassmannian can be
compactified as a stable-map space (M), as a moduli space of semistable
sheaves (S), or as a Hilbert scheme of curves (H).  For d = 2 and 3 all
three have closed-form Poincare polynomials, and S and H are also
reachable from M by an explicit chain of blow-ups and blow-downs.

This module computes S and H along both routes:

* closed mode evaluates the printed formulas; each quotient among them
  divides the assembled numerator by a fixed product of (1 - q^j), one
  factor at a time;
* pipeline mode starts from the stable-map polynomial and folds the
  surgery steps, with centers built out of catalog spaces.

Both routes build on the catalog spaces and start from the same degree
3 stable-map kernel, but combine them differently: the closed route
term by term as printed, the pipeline route as blow-up and blow-down
corrections.  Exact agreement on a whole grid of (k, n) is therefore a
strong check of the surgery steps, though not of the kernel itself.
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
    DEGREE3_KERNEL_DEN,
    PoincarePoly,
    check_curve_range,
    degree2_bracket,
    degree3_kernel,
    fano_lines,
    grassmannian,
    lines_through_point,
    plane_families,
    projective,
    stable_maps_gr,
    stable_maps_p1,
    weighted_projective,
)
from .errors import CurvebettiError, InvalidParameters
from .polyring import (
    ONE,
    IntPoly,
    div_one_minus,
    exact_div,  # noqa: F401  (bench/test_bench.py looks it up here)
    monomial,
    mul_one_minus,
)
from .record import Record, setfield
from .surgery import Pipeline, SurgeryStep, blowup_apply, run_pipeline

COMPACTIFICATIONS = ("M", "S", "H")
SUITES = ("duality", "pipeline", "special", "symmetry")
DEFAULT_GRID = "k=1..4,n=k+1..10"  # grid_keys() with its defaults


@functools.total_ordering
class ModuliKey(Record):
    """One compactified space: curves of degree d in grassmannian(k, n).
    Keys sort by (k, n, d, compactification)."""

    __slots__ = ("k", "n", "d", "compactification")

    def __init__(self, k: int, n: int, d: int, compactification: str):
        setfield(self, "k", k)
        setfield(self, "n", n)
        setfield(self, "d", d)
        setfield(self, "compactification", compactification)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.astuple() < other.astuple()
        return NotImplemented

    def __str__(self) -> str:
        return f"{self.compactification}(Gr({self.k},{self.n}),{self.d})"


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
    """Fold k -> n-k duality so k <= n-k."""
    return ModuliKey(min(key.k, key.n - key.k), key.n, key.d, key.compactification)


def mirror_key(key: ModuliKey) -> ModuliKey:
    return ModuliKey(key.n - key.k, key.n, key.d, key.compactification)


def dim_expected(key: ModuliKey) -> int:
    """k(n-k) + dn - 3, the dimension of any of the three spaces."""
    return key.k * (key.n - key.k) + key.d * key.n - 3


# ---------------------------------------------------------------- degree 2


@functools.lru_cache(maxsize=None)
def _simpson2_closed(k: int, n: int) -> PoincarePoly:
    bracket = degree2_bracket(k, n) + mul_one_minus(monomial(3) - monomial(n - 2), 2)
    num = functools.reduce(
        mul_one_minus, (k, k + 1), bracket * grassmannian(k + 1, n).poly
    )
    return PoincarePoly.from_poly(
        functools.reduce(div_one_minus, (1, 1, 2, 2), num),
        claimed_dim=k * (n - k) + 2 * n - 3,
        what=f"S(Gr({k},{n}),2) closed",
    )


def _simpson2_pipeline_obj(k: int, n: int) -> Pipeline:
    f1 = fano_lines(k, n)
    return Pipeline(
        base=stable_maps_gr(k, n, 2),
        steps=(
            SurgeryStep(
                kind="blowup",
                center=f1 * stable_maps_p1(2),
                fiber=projective(n - 3),
                label="Gamma^1",
                expected_codim=n - 2,
            ),
            SurgeryStep(
                kind="blowdown",
                center=f1 * projective(n - 3),
                fiber=stable_maps_p1(2),
                label="Gamma^1_2",
            ),
        ),
    )


# ---------------------------------------------------------------- degree 3


def _mixed_ruling_poly() -> IntPoly:
    # Fiber polynomial over the locus of reducible conics with a tail:
    # (1+q) copies of the degree 3 fiber plus a shifted (1+q) copy of
    # the degree 2 one.
    return (ONE + monomial(1)) * stable_maps_p1(3).poly + monomial(1) * (
        ONE + monomial(1)
    ) * stable_maps_p1(2).poly


@functools.lru_cache(maxsize=None)
def _simpson3_closed(k: int, n: int) -> PoincarePoly:
    def geom(j: int) -> IntPoly:
        # (1 - q^j) / (1 - q), the projective space of dimension j - 1.
        return projective(j - 1).poly

    fx = lines_through_point(k, n).poly
    mb2 = stable_maps_p1(2).poly
    mb3 = stable_maps_p1(3).poly
    ruled = _mixed_ruling_poly()

    # The braced sum of the printed formula, taken over the kernel's
    # denominator.  Every term but the kernel and the last one is a
    # polynomial; the last carries the one truly rational factor
    # (1 - q^(n-3)) / (1 - q^2), which times the kernel's denominator
    # is (1 - q^(n-3))(1 - q)(1 - q^2)(1 - q^3)^2.
    pointed_pencils = fx + geom(n - 2) - ONE
    polynomial_terms = (
        mb3 * (geom(2 * n - 4) - ONE)
        + geom(2) * pointed_pencils * mb2 * (geom(n - 1) - ONE)
        + geom(n - 2) * ruled * (geom(n - 2) - ONE)
        - geom(2)
        * (
            geom(n - 1) * pointed_pencils
            + geom(2) * geom(n - 2) * (geom(n - 2) - ONE)
        )
        * (geom(3) - ONE)
        - geom(2) * geom(n - 2) * geom(n - 2) * (geom(5) - ONE)
    )
    braced = (
        degree3_kernel(k, n)
        + functools.reduce(mul_one_minus, DEGREE3_KERNEL_DEN, polynomial_terms)
        - functools.reduce(
            mul_one_minus, (n - 3, 1, 2, 3, 3), geom(n - 2) * (geom(8) - ONE)
        )
    )
    value = functools.reduce(
        div_one_minus, DEGREE3_KERNEL_DEN, braced * fano_lines(k, n).poly
    )
    return PoincarePoly.from_poly(
        value,
        claimed_dim=k * (n - k) + 3 * n - 3,
        what=f"S(Gr({k},{n}),3) closed",
    )


def _simpson3_steps(k: int, n: int) -> tuple[SurgeryStep, ...]:
    x = grassmannian(k, n)
    f1 = fano_lines(k, n)
    fx = lines_through_point(k, n)
    # Pairs of pointed lines with the diagonal blown up; codimension of
    # the diagonal is n - 2.
    bl_diag = blowup_apply(fx * fx, fx, n - 2)
    ruled = PoincarePoly.from_poly(_mixed_ruling_poly())
    down4_center = PoincarePoly.from_poly(
        x.poly
        * (
            bl_diag.poly * projective(n - 2).poly
            + projective(1).poly
            * fx.poly
            * projective(n - 3).poly
            * (projective(n - 3).poly - ONE)
        )
    )
    # Centers multiply their small factors first; the order is for cost only.
    return (
        SurgeryStep(
            kind="blowup",
            center=f1 * stable_maps_p1(3),
            fiber=projective(2 * n - 5),
            label="Gamma^1_0",
            expected_codim=2 * n - 4,
        ),
        SurgeryStep(
            kind="blowup",
            center=x * (bl_diag * stable_maps_p1(2)),
            fiber=projective(n - 2),
            label="Gamma^2_1",
            expected_codim=n - 1,
        ),
        SurgeryStep(
            kind="blowup",
            center=f1 * (projective(n - 3) * ruled),
            fiber=projective(n - 3),
            label="Gamma^3_2",
            expected_codim=n - 2,
        ),
        SurgeryStep(
            kind="blowdown",
            center=down4_center,
            fiber=weighted_projective((1, 2, 2)),
            label="Gamma^2_3",
        ),
        SurgeryStep(
            kind="blowdown",
            center=f1 * (projective(1) * projective(n - 3) * projective(n - 3)),
            fiber=weighted_projective((1, 2, 2, 3, 3)),
            label="Gamma^3_4",
        ),
        SurgeryStep(
            kind="blowdown",
            center=f1 * grassmannian(2, n - 2),
            fiber=projective(7),
            label="Gamma^1_5",
        ),
    )


def _simpson3_pipeline_obj(k: int, n: int) -> Pipeline:
    return Pipeline(base=stable_maps_gr(k, n, 3), steps=_simpson3_steps(k, n))


def _delta_steps(k: int, n: int, planar_cubics: PoincarePoly) -> tuple[SurgeryStep, ...]:
    """Blow-ups along the planar-curve locus, one per plane family.

    The locus fibers over the space of planes with fibers the space of
    planar cubics, and the plane space has up to two pieces with
    different codimensions in the ambient Hilbert scheme.
    """
    # Centers multiply their small factors first; the order is for cost only.
    return tuple(
        SurgeryStep(
            kind="blowup",
            center=envelope * (core * planar_cubics),
            fiber=projective(codim - 1),
            label=label,
            expected_codim=codim,
        )
        for core, envelope, codim, label in plane_families(k, n)
    )


@functools.lru_cache(maxsize=None)
def _hilbert3_closed(k: int, n: int) -> PoincarePoly:
    # Closed S plus the corrections of the same planar-locus blow-ups
    # that the pipeline route applies.
    total = _simpson3_closed(k, n).poly
    for step in _delta_steps(k, n, _simpson3_closed(1, 3)):
        total = total + step.correction()
    return PoincarePoly.from_poly(
        total,
        claimed_dim=k * (n - k) + 3 * n - 3,
        what=f"H(Gr({k},{n}),3) closed",
    )


def _hilbert3_pipeline_obj(k: int, n: int) -> Pipeline:
    return Pipeline(
        base=stable_maps_gr(k, n, 3),
        steps=_simpson3_steps(k, n)
        + _delta_steps(k, n, _pipeline_poly(ModuliKey(1, 3, 3, "S"))),
    )


def _pipeline(key: ModuliKey) -> Pipeline:
    """The surgery pipeline of a valid, normalized key."""
    if not has_pipeline(key):
        raise InvalidParameters(
            f"{key}: the stable-map space is the pipeline base and has no "
            "pipeline of its own"
        )
    if key.d == 2:
        # In degree 2 the sheaf and Hilbert compactifications coincide.
        return _simpson2_pipeline_obj(key.k, key.n)
    if key.compactification == "S":
        return _simpson3_pipeline_obj(key.k, key.n)
    return _hilbert3_pipeline_obj(key.k, key.n)


@functools.lru_cache(maxsize=None)
def _pipeline_poly(key: ModuliKey) -> PoincarePoly:
    return run_pipeline(_pipeline(key))


# ------------------------------------------------------------- public API


def _raw_space_poly(key: ModuliKey, mode: str) -> PoincarePoly:
    if mode == "pipeline":
        return _pipeline_poly(key)
    if mode != "closed":
        raise InvalidParameters(f"mode {mode!r} not one of closed, pipeline")
    if not has_pipeline(key):
        return stable_maps_gr(key.k, key.n, key.d)
    if key.d == 2:
        return _simpson2_closed(key.k, key.n)
    if key.compactification == "S":
        return _simpson3_closed(key.k, key.n)
    return _hilbert3_closed(key.k, key.n)


def space_poly(key: ModuliKey, mode: str = "closed") -> PoincarePoly:
    """Poincare polynomial of the space a key names."""
    validate_key(key)
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
    return _pipeline(normalize_key(key))


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
    defaults give DEFAULT_GRID.  Every key has k < n, so k stops at
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
    An empty key list is refused unless special is the only suite.
    """
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
