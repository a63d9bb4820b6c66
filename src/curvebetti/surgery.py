"""Blow-up and blow-down surgery on Poincare polynomials.

Blowing up a smooth center Z of codimension c inside X replaces Z by a
projective bundle with ℙ^(c-1) fibers, which on Poincare polynomials
reads

    P(Bl_Z X) = P(X) + P(Z) * (P(fiber) - 1).

A blow-down subtracts the same kind of correction, with the fiber given
explicitly (it may be a weighted projective space).  A pipeline is a
base space plus an ordered list of such steps; since each correction
depends only on the step's own center and fiber, the total is a signed
sum and the order affects only the trace, not the result.

A center is a tuple of factors, a bare space a one-factor tuple.
term() keeps the first, the head, apart and appends the others and the
signed P(fiber) - 1, unmultiplied, to its small factors.  The base and a
head may be catalog.Quotients over a large anchor: run_pipeline, which
evaluates every route of pipelines, closed or not, sums all terms with
one packed evaluation, one decode and one ratio per anchor
(catalog.fold), and run_pipeline_traced expands every step.

A step's checks live on SurgeryStep alone: __init__ checks its kind, a
connected fiber and a center of at least one factor; check_fit checks
that the exceptional divisor, center times fiber, is a divisor of the
space, whatever the kind.  Pipeline.__init__ runs check_fit on every
step against the base, so a pipeline that exists fits.  blowup_apply
runs it too; blowdown_apply does not, so the DSL's blowdown() keeps its
results and errors.
"""

from __future__ import annotations

from .catalog import PoincarePoly, Quotient, fold, projective
from .errors import DimensionMismatch, InvalidParameters, NegativeBetti
from .polyring import ONE, Geometric
from .record import Record, setfield


class SurgeryStep(Record):
    """One blow-up or blow-down: a center, a fiber and a label.

    center is a tuple of factors, head first; a bare space is stored as
    a one-factor tuple.  The fiber fixes the center's codimension: it is
    fiber.dim + 1, for a blow-up and a blow-down alike.
    """

    __slots__ = ("kind", "center", "fiber", "label")

    def __init__(self, kind: str, center: PoincarePoly | Quotient | tuple,
                 fiber: PoincarePoly, label: str):
        if kind not in ("blowup", "blowdown"):
            raise InvalidParameters(f"step kind {kind!r}")
        if fiber.components != 1:
            raise InvalidParameters(f"step {label}: fiber must be connected")
        center = center if isinstance(center, tuple) else (center,)
        if not center:
            raise InvalidParameters(f"step {label}: center has no factor")
        setfield(self, "kind", kind)
        setfield(self, "center", center)
        setfield(self, "fiber", fiber)
        setfield(self, "label", label)

    def check_fit(self, space_dim: int, dims: dict | None = None) -> None:
        """Check that center dim + fiber dim + 1 == space_dim: the
        exceptional divisor has codimension one.  A center with an empty
        factor fits anywhere (tested last: it expands a Quotient head).
        dims keeps each factor's dim by id, so a pipeline reads it once."""
        dims, dim = {} if dims is None else dims, 0
        for factor in self.center:
            known = dims.get(id(factor))
            if known is None:
                known = dims[id(factor)] = factor.dim
            dim += known
        codim = self.fiber.dim + 1
        if dim + codim != space_dim and all(factor.poly for factor in self.center):
            raise DimensionMismatch(
                f"step {self.label}: center dimension {dim} + "
                f"codimension {codim} != {space_dim}"
            )

    def term(self) -> Quotient:
        """The correction as a Quotient over the head's anchor: the other
        factors, geometric where they are, and the signed P(fiber) - 1 join
        the head's small factors; a geometric fiber P^c = [c + 1] gives q [c]."""
        head, *rest = self.center
        fiber, up = self.fiber.geometric, self.kind == "blowup"
        if fiber is not None and len(fiber.pairs) == 1 and fiber.pairs[0][1] == 1:
            sign = Geometric(((fiber.pairs[0][0] - 1, 1),), 1, 1 if up else -1)
        else:
            sign = self.fiber.poly - ONE if up else ONE - self.fiber.poly
        small = (*head.small, *(f.poly if f.geometric is None else f.geometric for f in rest), sign)
        return Quotient(head.anchor, small, head.up, head.down)


class Pipeline(Record):
    """A base, a tuple of terms (PoincarePoly or Quotient) that sum to the
    base space, the largest term's dim its dim, and a tuple of
    SurgerySteps, each checked to fit the base when the pipeline is built."""

    __slots__ = ("base", "steps")

    def __init__(self, base: tuple[PoincarePoly | Quotient, ...], steps: tuple[SurgeryStep, ...]):
        space_dim, dims = max(t.dim for t in base), {}  # each read once per pipeline
        for step in steps:
            step.check_fit(space_dim, dims)
        setfield(self, "base", base)
        setfield(self, "steps", steps)


def blowup_apply(space: PoincarePoly, center: PoincarePoly, codim: int) -> PoincarePoly:
    """Blow up a center of the given codimension.

    >>> str(blowup_apply(projective(3), projective(1), 2))
    '1 + 2q + 2q^2 + q^3'
    """
    if codim < 1:
        raise InvalidParameters(f"blow-up codimension {codim} must be >= 1")
    step = SurgeryStep("blowup", center, projective(codim - 1), "blow-up")
    step.check_fit(space.dim)
    return PoincarePoly.from_poly(space.poly + step.term().poly, what=step.label)


def blowdown_apply(
    space: PoincarePoly, center_downstairs: PoincarePoly, fiber: PoincarePoly
) -> PoincarePoly:
    """Undo a blow-up whose exceptional fibers over the downstairs center
    are the given (possibly weighted projective) fiber."""
    step = SurgeryStep("blowdown", center_downstairs, fiber, "blow-down")
    return PoincarePoly.from_poly(space.poly + step.term().poly, what=step.label)


def run_pipeline_traced(pipeline: Pipeline) -> list[dict]:
    """The --trace rows: each step's label, kind, correction and the
    cumulative total after it, the last two as coefficient lists.

    Corrections commute, so the final total is independent of the step
    order; a transiently negative partial total under a permuted order
    is tolerated, but a negative final total raises NegativeBetti naming
    a negative base, or else the first step where the total went bad.
    """
    current = fold(pipeline.base)
    rows: list[dict] = []
    first_bad = "in the base" if min(current.coeffs, default=0) < 0 else None
    for step in pipeline.steps:
        correction = step.term().poly
        current = current + correction
        if first_bad is None and min(current.coeffs, default=0) < 0:
            first_bad = f"at step {step.label}"
        rows.append({"label": step.label, "kind": step.kind,
                     "correction": list(correction.coeffs),
                     "cumulative": list(current.coeffs)})
    if min(current.coeffs, default=0) < 0:
        raise NegativeBetti(
            f"pipeline total has a negative coefficient (first went negative {first_bad})"
        )
    return rows


def run_pipeline(pipeline: Pipeline, dim: int | None = None,
                 what: str = "pipeline total") -> PoincarePoly:
    """run_pipeline_traced's total by fold, of degree dim if given.  A
    negative total reruns traced, to name the first step that went bad."""
    total = fold([*pipeline.base, *(step.term() for step in pipeline.steps)])
    try:
        return PoincarePoly.from_poly(total, dim, what)
    except NegativeBetti:
        run_pipeline_traced(pipeline)  # raises with the first bad step: its total is this one
        raise
