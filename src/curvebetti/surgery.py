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
head may be catalog.Quotients over a large anchor: run_pipeline sums all
terms with one packed evaluation, one decode and one ratio per anchor
(catalog.fold), and run_pipeline_traced expands every step.

A step's checks live on SurgeryStep alone: check_fit for a blow-up's
center, from its factors, and __init__ for its kind, a connected fiber
and a center of at least one factor.  blowup_apply and blowdown_apply
build a step too, so they run the same checks.
"""

from __future__ import annotations

from .catalog import PoincarePoly, Quotient, fold, projective
from .errors import DimensionMismatch, InvalidParameters, NegativeBetti
from .polyring import ONE, IntPoly
from .record import Record, setfield


class SurgeryStep(Record):
    """One blow-up or blow-down: a center, a fiber and a label.

    center is a tuple of factors, head first; a bare space is stored as
    a one-factor tuple.  expected_codim, when set on a blow-up, enables
    the dimension check center dim + codim == space.dim.  Blow-downs and
    steps where only the fiber is pinned leave it unset.
    """

    __slots__ = ("kind", "center", "fiber", "label", "expected_codim")

    def __init__(self, kind: str, center: PoincarePoly | Quotient | tuple,
                 fiber: PoincarePoly, label: str, expected_codim: int | None = None):
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
        setfield(self, "expected_codim", expected_codim)

    def check_fit(self, space_dim: int) -> None:
        """Check that a blow-up's center has codimension expected_codim
        in a space of dimension space_dim; a center with an empty factor
        fits anywhere (tested last: it expands a Quotient head)."""
        dim = sum(factor.dim for factor in self.center)
        if (
            self.kind == "blowup"
            and self.expected_codim is not None
            and dim + self.expected_codim != space_dim
            and all(factor.poly for factor in self.center)
        ):
            raise DimensionMismatch(
                f"step {self.label}: center dimension {dim} + "
                f"codimension {self.expected_codim} != {space_dim}"
            )

    def term(self) -> Quotient:
        """The correction as a Quotient over the head's anchor: the other
        factors and the signed P(fiber) - 1 join the head's small factors."""
        head, *rest = self.center
        sign = self.fiber.poly - ONE if self.kind == "blowup" else ONE - self.fiber.poly
        small = (*head.small, *(factor.poly for factor in rest), sign)
        return Quotient(head.anchor, small, head.up, head.down)

    def correction(self) -> IntPoly:
        """Signed contribution of this step to the total."""
        return self.term().poly


class Pipeline(Record):
    __slots__ = ("base", "steps")  # a PoincarePoly or Quotient, a tuple of SurgeryStep


class TraceRecord(Record):
    __slots__ = ("label", "kind", "correction", "cumulative")

    def __init__(self, label: str, kind: str, correction: IntPoly, cumulative: IntPoly):
        setfield(self, "label", label)
        setfield(self, "kind", kind)
        setfield(self, "correction", correction)
        setfield(self, "cumulative", cumulative)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "correction": list(self.correction.coeffs),
            "cumulative": list(self.cumulative.coeffs),
        }


class PipelineRun(Record):
    __slots__ = ("result", "trace")  # a PoincarePoly, a tuple of TraceRecord


def blowup_apply(space: PoincarePoly, center: PoincarePoly, codim: int) -> PoincarePoly:
    """Blow up a center of the given codimension.

    >>> str(blowup_apply(projective(3), projective(1), 2))
    '1 + 2q + 2q^2 + q^3'
    """
    if codim < 1:
        raise InvalidParameters(f"blow-up codimension {codim} must be >= 1")
    step = SurgeryStep(
        "blowup", center, projective(codim - 1), "blow-up", expected_codim=codim
    )
    step.check_fit(space.dim)
    return PoincarePoly.from_poly(space.poly + step.correction(), what=step.label)


def blowdown_apply(
    space: PoincarePoly, center_downstairs: PoincarePoly, fiber: PoincarePoly
) -> PoincarePoly:
    """Undo a blow-up whose exceptional fibers over the downstairs center
    are the given (possibly weighted projective) fiber."""
    step = SurgeryStep("blowdown", center_downstairs, fiber, "blow-down")
    return PoincarePoly.from_poly(space.poly + step.correction(), what=step.label)


def run_pipeline_traced(pipeline: Pipeline) -> PipelineRun:
    """Fold the steps over the base, recording each partial total.

    Corrections commute, so the final polynomial is independent of the
    step order; a transiently negative partial total under a permuted
    order is tolerated, but a negative final result raises NegativeBetti
    with the first step at which the running total went bad.
    """
    current = pipeline.base.poly
    trace: list[TraceRecord] = []
    first_bad: SurgeryStep | None = None
    for step in pipeline.steps:
        step.check_fit(pipeline.base.dim)
        correction = step.correction()
        current = current + correction
        if first_bad is None and min(current.coeffs, default=0) < 0:
            first_bad = step
        trace.append(TraceRecord(step.label, step.kind, correction, current))
    if min(current.coeffs, default=0) < 0:
        label = first_bad.label if first_bad is not None else "?"
        raise NegativeBetti(
            f"pipeline total has a negative coefficient (first went negative "
            f"at step {label})"
        )
    return PipelineRun(PoincarePoly(current), tuple(trace))


def run_pipeline(pipeline: Pipeline) -> PoincarePoly:
    """run_pipeline_traced's total by fold.  A negative total reruns
    traced, to name the first step that went bad."""
    for step in pipeline.steps:
        step.check_fit(pipeline.base.dim)
    total = fold([pipeline.base, *(step.term() for step in pipeline.steps)])
    if min(total.coeffs, default=0) < 0:
        return run_pipeline_traced(pipeline).result
    return PoincarePoly(total)
