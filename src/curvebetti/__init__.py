"""Exact Betti numbers of compactified spaces of rational curves in
Grassmannians, computed along two routes that are checked against each other.

``import curvebetti`` loads no submodule.  Each public name below, and
each submodule, is imported on first access (PEP 562), so that a
command that needs only the parser compiles only the parser.
"""

import importlib

# Submodule -> the public names it defines.
_DEFINED_IN = {
    "catalog": (
        "EMPTY", "POINT", "PoincarePoly", "fano_lines", "fano_planes", "grassmannian",
        "lines_through_point", "projective", "stable_maps_gr", "stable_maps_p1",
        "weighted_projective",
    ),
    "dsl": ("eval_expr", "parse", "to_text"),
    "errors": (
        "CurvebettiError", "DimensionMismatch", "DivisionByZero", "InvalidParameters",
        "NegativeBetti", "NonExactDivision", "ParseError",
    ),
    "keys": ("ModuliKey",),
    "pipelines": (
        "CheckResult", "SuiteReport", "dim_expected", "grid_keys", "hilbert_d3",
        "pipeline_for", "simpson_d2", "simpson_d3", "space_poly", "verify_pair",
        "verify_suite",
    ),
    "polyring": ("IntPoly", "exact_div", "monomial"),
    "surgery": (
        "Pipeline", "SurgeryStep", "blowdown_apply", "blowup_apply", "run_pipeline",
        "run_pipeline_traced",
    ),
}
_EXPORTS = {name: module for module, names in _DEFINED_IN.items() for name in names}
_SUBMODULES = frozenset(
    ("catalog", "cli", "dsl", "errors", "keys", "pipelines", "polyring", "record", "surgery")
)

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Resolved at every access and not stored here, so the defining
    # module's binding, patched or not, is the one returned.
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return list(__all__)
