"""The package's public names: each imported from its defining module on
first access, and nothing else importable from the package itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvebetti
from curvebetti import catalog, dsl, errors, pipelines, polyring, surgery

# Module -> the names the package has always exported from it.
PUBLIC = {
    catalog: (
        "EMPTY", "POINT", "PoincarePoly", "fano_lines", "fano_planes", "grassmannian",
        "lines_through_point", "projective", "stable_maps_p1", "weighted_projective",
    ),
    dsl: ("eval_expr", "parse", "to_text"),
    errors: (
        "CurvebettiError", "DimensionMismatch", "DivisionByZero", "InvalidParameters",
        "NegativeBetti", "NonExactDivision", "ParseError",
    ),
    pipelines: (
        "CheckResult", "ModuliKey", "SuiteReport", "dim_expected", "grid_keys", "hilbert_d3",
        "pipeline_for", "simpson_d2", "simpson_d3", "space_poly", "stable_maps_gr",
        "verify_pair", "verify_suite",
    ),
    polyring: ("IntPoly", "exact_div", "monomial"),
    surgery: (
        "Pipeline", "SurgeryStep", "blowdown_apply", "blowup_apply", "run_pipeline",
        "run_pipeline_traced",
    ),
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


@pytest.mark.parametrize(
    "module, name", [(m, name) for m, names in PUBLIC.items() for name in names],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_each_public_name_is_the_defining_modules_object(module, name):
    namespace: dict = {}
    exec(f"from curvebetti import {name}", namespace)
    assert namespace[name] is getattr(module, name)
    assert getattr(curvebetti, name) is getattr(module, name)


def test_all_and_dir_list_exactly_the_public_names():
    assert sorted(curvebetti.__all__) == NAMES
    assert dir(curvebetti) == NAMES
    namespace: dict = {}
    exec("from curvebetti import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        curvebetti.no_such_name
    with pytest.raises(ImportError):
        exec("from curvebetti import no_such_name", {})


def test_a_submodule_is_an_attribute_before_it_is_imported():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, curvebetti\n"
        "assert 'curvebetti.catalog' not in sys.modules\n"
        "print(curvebetti.catalog is sys.modules['curvebetti.catalog'])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "True\n"


def test_catalog_loads_neither_keys_nor_pipelines():
    # The catalog knows spaces, not keys: validating a key and naming its
    # route is pipelines' work.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, curvebetti.catalog\n"
        "print(sorted({'curvebetti.keys', 'curvebetti.pipelines'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"
