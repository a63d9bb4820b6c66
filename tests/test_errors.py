"""One error hierarchy: every package error is a CurvebettiError that
carries the command line's exit code, and each message says where it
came from exactly once."""

import importlib
import inspect
import pkgutil

import pytest

import curvebetti
from curvebetti import cli, pipelines
from curvebetti.catalog import PoincarePoly, projective
from curvebetti.dsl import eval_expr, parse
from curvebetti.errors import (
    CurvebettiError,
    DimensionMismatch,
    DivisionByZero,
    InvalidParameters,
    NegativeBetti,
    NonExactDivision,
    ParseError,
)
from curvebetti.pipelines import (
    CheckResult,
    ModuliKey,
    pipeline_for,
    space_poly,
    verify_pair,
)
from curvebetti.polyring import IntPoly
from curvebetti.surgery import blowdown_apply, blowup_apply

# class -> (exit code, builtin base)
HIERARCHY = {
    InvalidParameters: (2, ValueError),
    ParseError: (2, ValueError),
    DimensionMismatch: (3, ValueError),
    NegativeBetti: (3, ValueError),
    NonExactDivision: (3, ArithmeticError),
    DivisionByZero: (3, ZeroDivisionError),
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make(cls):
    if cls is ParseError:
        return ParseError(4, "')'", "end of input")
    return cls("boom")


def package_exception_classes():
    found = set()
    for info in pkgutil.iter_modules(curvebetti.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"curvebetti.{info.name}")
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and issubclass(obj, BaseException)
                and obj.__module__.startswith("curvebetti")
            ):
                found.add(obj)
    return found


def test_every_package_exception_is_in_the_one_hierarchy():
    classes = package_exception_classes()
    assert classes == set(HIERARCHY) | {CurvebettiError}
    assert CurvebettiError.exit_code == 3
    for cls, (code, base) in HIERARCHY.items():
        assert issubclass(cls, CurvebettiError), cls
        assert issubclass(cls, base), cls
        assert cls.exit_code == code, cls
    assert curvebetti.CurvebettiError is CurvebettiError


@pytest.mark.parametrize("cls", list(HIERARCHY), ids=lambda c: c.__name__)
def test_cli_exits_with_the_class_exit_code(cls, capsys, monkeypatch):
    error = make(cls)

    def fail(*args):
        raise error

    monkeypatch.setattr(cli, "space_poly", fail)
    code, out, err = run(
        capsys, "betti", "--k", "1", "--n", "4", "--d", "2", "--compactification", "S"
    )
    assert code == cls.exit_code
    assert out == ""
    assert err == f"error: {error}\n"


@pytest.mark.parametrize("cls", list(HIERARCHY), ids=lambda c: c.__name__)
def test_verify_pair_reports_the_class_and_message(cls, monkeypatch):
    error = make(cls)

    def fail(*args):
        raise error

    monkeypatch.setattr(pipelines, "space_poly", fail)
    detail = f"{cls.__name__}: {error}"
    assert verify_pair(ModuliKey(1, 4, 2, "S")) == [
        CheckResult("duality", "S(Gr(1,4),2)", False, detail),
        CheckResult("pipeline", "S(Gr(1,4),2)", False, detail),
    ]


@pytest.mark.parametrize(
    "text, cls, path",
    [
        ("P(1) - P(2)", NegativeBetti, "expr"),
        ("P(1) * (P(1) - P(2))", NegativeBetti, "expr.right"),
        ("P(2) * MbarP1(7)", InvalidParameters, "expr.right"),
        ("blowup(P(3), P(1), 7) + P(1)", DimensionMismatch, "expr.left"),
        ("blowdown(P(1), P(0), P(2))", NegativeBetti, "expr"),
        ("blowdown(P(3), P(1), blowup(P(3), P(1), 7))", DimensionMismatch, "expr.fiber"),
        ("P(2) + H(Gr(1,3),3)", InvalidParameters, "expr.right"),
    ],
)
def test_dsl_errors_carry_one_path_tag(text, cls, path):
    with pytest.raises(cls) as excinfo:
        eval_expr(parse(text))
    message = str(excinfo.value)
    assert message.count("[at ") == 1
    assert message.endswith(f" [at {path}]")
    assert type(excinfo.value) is cls


def test_difference_message_names_the_path_once():
    with pytest.raises(NegativeBetti) as excinfo:
        eval_expr(parse("P(1) - P(2)"))
    assert str(excinfo.value) == "difference: coefficient of q^2 is -1 [at expr]"


# The four messages whose wording moved when their checks were merged.


def test_blowup_dimension_message(capsys):
    expected = "step blow-up: center dimension 1 + codimension 7 != 3"
    with pytest.raises(DimensionMismatch) as excinfo:
        blowup_apply(projective(3), projective(1), 7)
    assert str(excinfo.value) == expected
    code, out, err = run(capsys, "betti", "--space", "blowup(P(3),P(1),7)")
    assert (code, out, err) == (3, "", f"error: {expected} [at expr]\n")


def test_blowdown_disconnected_fiber_message(capsys):
    two_points = PoincarePoly.from_poly(IntPoly([2]))
    with pytest.raises(InvalidParameters) as excinfo:
        blowdown_apply(projective(3), projective(1), two_points)
    assert str(excinfo.value) == "step blow-down: fiber must be connected"
    code, out, err = run(capsys, "betti", "--space", "blowdown(P(3),P(1),P(0)+P(0))")
    assert (code, out, err) == (
        2, "", "error: step blow-down: fiber must be connected [at expr]\n"
    )


def test_difference_message_on_the_command_line(capsys):
    code, out, err = run(capsys, "betti", "--space", "P(1)-P(2)")
    assert (code, out, err) == (
        3, "", "error: difference: coefficient of q^2 is -1 [at expr]\n"
    )


def test_stable_map_space_has_no_pipeline_message():
    expected = (
        "M(Gr(1,4),2): the stable-map space is the pipeline base and has no "
        "pipeline of its own"
    )
    for call in (
        lambda: space_poly(ModuliKey(1, 4, 2, "M"), "pipeline"),
        lambda: space_poly(ModuliKey(3, 4, 2, "M"), "pipeline"),
        lambda: pipeline_for(ModuliKey(1, 4, 2, "M")),
    ):
        with pytest.raises(InvalidParameters) as excinfo:
            call()
        assert str(excinfo.value) == expected


def test_surgery_negative_betti_still_names_the_coefficient():
    with pytest.raises(NegativeBetti) as excinfo:
        blowdown_apply(projective(1), projective(0), projective(2))
    assert str(excinfo.value) == "blow-down: coefficient of q^2 is -1"


# Integers too large to compute with are bad input, not a crash.


@pytest.mark.parametrize(
    "argv",
    [
        ("betti", "--space", "P(99999999999999999999)"),
        ("betti", "--space", "Gr(1,99999999999999999999999)"),
        ("betti", "--k", "99999999999999999999", "--n", "99999999999999999999999",
         "--d", "2", "--compactification", "M"),
    ],
)
def test_oversize_integers_exit_2(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: input too large: ")
    assert err.count("\n") == 1


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def fail(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "space_poly", fail)
    code, out, err = run(
        capsys, "betti", "--k", "1", "--n", "4", "--d", "2", "--compactification", "S"
    )
    assert (code, out, err) == (2, "", "error: input too large: out of memory\n")
