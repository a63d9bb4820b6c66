"""Exact Betti numbers of compactified spaces of rational curves in
Grassmannians, computed along two routes that are checked against each other."""

from .catalog import (
    EMPTY,
    POINT,
    PoincarePoly,
    fano_lines,
    fano_planes,
    grassmannian,
    lines_through_point,
    projective,
    stable_maps_gr,
    stable_maps_p1,
    weighted_projective,
)
from .dsl import eval_expr, parse, to_text
from .errors import (
    CurvebettiError,
    DimensionMismatch,
    DivisionByZero,
    InvalidParameters,
    NegativeBetti,
    NonExactDivision,
    ParseError,
)
from .pipelines import (
    CheckResult,
    ModuliKey,
    SuiteReport,
    dim_expected,
    grid_keys,
    hilbert_d3,
    pipeline_for,
    simpson_d2,
    simpson_d3,
    space_poly,
    verify_pair,
    verify_suite,
)
from .polyring import IntPoly, exact_div, monomial
from .surgery import (
    Pipeline,
    SurgeryStep,
    blowdown_apply,
    blowup_apply,
    run_pipeline,
    run_pipeline_traced,
)

__version__ = "0.1.0"
