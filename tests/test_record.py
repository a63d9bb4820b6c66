"""The records' behaviour, and what importing the command line loads."""

import copy
import functools
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from curvebetti import dsl
from curvebetti.catalog import POINT, PoincarePoly, Quotient, projective
from curvebetti.pipelines import CheckResult, ModuliKey, SuiteReport
from curvebetti.polyring import IntPoly
from curvebetti.record import Record
from curvebetti.surgery import Pipeline, SurgeryStep

LINE = projective(1)
PLANE = projective(2)
STEP = SurgeryStep("blowup", POINT, LINE, "b")  # a point in the plane, with a line over it
CHECK = CheckResult("duality", "S(Gr(1,3),3)", True)
# A failed check as verify_pair builds it, every field given.
FAILED = ("pipeline", "S(Gr(1,4),2)", False, "first difference at q^2: closed 3, pipeline 4")

# (class, positional arguments, the defaulted fields left out of them)
EXAMPLES = [
    (IntPoly, ((1, 2),), {}),
    (PoincarePoly, (LINE.poly,), {}),
    (Quotient, (LINE,), {"small": (), "up": (), "down": ()}),
    (SurgeryStep, ("blowup", POINT, LINE, "b"), {}),
    (Pipeline, ((PLANE,), (STEP,)), {}),
    (ModuliKey, (1, 3, 3, "S"), {}),
    (CheckResult, ("duality", "S(Gr(1,3),3)", True), {"detail": ""}),
    (CheckResult, FAILED, {}),
    (SuiteReport, ((CHECK,),), {}),
    (dsl.Proj, (2,), {}),
    (dsl.WProj, ((1, 2),), {}),
    (dsl.Gr, (1, 3), {}),
    (dsl.FanoLines, (dsl.Gr(1, 3),), {}),
    (dsl.FanoPlanes, (dsl.Gr(1, 3),), {}),
    (dsl.PointedLines, (dsl.Gr(1, 3),), {}),
    (dsl.MbarP1, (2,), {}),
    (dsl.Moduli, ("S", dsl.Gr(1, 3), 3), {}),
    (dsl.Product, (dsl.Proj(1), dsl.Proj(2)), {}),
    (dsl.Sum, (dsl.Proj(1), dsl.Proj(2)), {}),
    (dsl.Diff, (dsl.Proj(1), dsl.Proj(2)), {}),
    (dsl.Blowup, (dsl.Proj(3), dsl.Proj(1), 2), {}),
    (dsl.Blowdown, (dsl.Proj(3), dsl.Proj(1), dsl.Proj(1)), {}),
]
CLASSES = [cls for cls, _, _ in EXAMPLES]
IDS = [cls.__name__ + ("-failed" if args == FAILED else "") for cls, args, _ in EXAMPLES]


def test_examples_cover_every_public_record():
    records = Record.__subclasses__()
    assert {cls for cls in records if not cls.__name__.startswith("_")} == set(CLASSES)


@pytest.mark.parametrize(
    ("cls", "args", "defaults"), EXAMPLES, ids=IDS
)
def test_records_keep_the_frozen_dataclass_behaviour(cls, args, defaults):
    record = cls(*args)
    names = cls.__slots__
    values = record.astuple()
    assert len(values) == len(names) and cls.__match_args__ == names

    # Keyword construction, and defaults for the fields left out.
    assert cls(**dict(zip(names, args))) == record
    for name, value in defaults.items():
        assert getattr(record, name) == value
    full = cls(*values)
    assert full == record and hash(full) == hash(record) == hash(values)

    # == is strict about class: the same fields under another class differ.
    for other in CLASSES:
        if other is not cls and other.__slots__ == names:
            assert other(*values) != record and record != other(*values)
    assert record != values

    # Frozen: no field can be assigned or deleted, and no attribute added.
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record.astuple() == values

    # repr names the class and, unless written by hand, every field.
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(")
    if cls is not IntPoly:
        assert text == f"{cls.__name__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(names, values)
        ) + ")"

    # Copies and pickles rebuild an equal record.
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record

    # Too many, repeated or unknown fields are refused.
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:1], **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)

    if cls is ModuliKey:
        keys = [ModuliKey(2, 4, 2, "M"), ModuliKey(1, 4, 3, "S"),
                ModuliKey(1, 4, 2, "S"), ModuliKey(1, 3, 3, "H")]
        assert sorted(keys) == sorted(keys, key=ModuliKey.astuple)
        assert [str(key) for key in sorted(keys)] == [
            "H(Gr(1,3),3)", "S(Gr(1,4),2)", "S(Gr(1,4),3)", "M(Gr(2,4),2)"
        ]
        low, high = ModuliKey(1, 4, 2, "S"), ModuliKey(1, 4, 3, "M")
        assert low < high and low <= high and high > low and high >= low
        assert not (high < low or high <= low or low > high or low >= high)
        with pytest.raises(TypeError):
            ModuliKey(1, 3, 3, "S") < (1, 3, 3, "S")

        @functools.lru_cache(maxsize=None)
        def dims(key):
            return key.k * (key.n - key.k)

        assert dims(ModuliKey(1, 3, 3, "S")) == dims(record) == 2
        assert dims.cache_info().hits == 1


def test_surgery_step_checks_its_fields_when_built():
    with pytest.raises(ValueError, match="step kind 'flip'"):
        SurgeryStep("flip", POINT, LINE, "b")
    with pytest.raises(ValueError, match="step b: fiber must be connected"):
        SurgeryStep(kind="blowup", center=POINT, fiber=LINE + LINE, label="b")
    with pytest.raises(ValueError, match=r"step b: center dimension 0 \+ codimension 2 != 1"):
        Pipeline((LINE,), (STEP,))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, curvebetti.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"


def _loaded_after(argv: list[str] | None) -> tuple[int | None, set[str]]:
    """In a fresh process, the exit code of cli.main(argv) and the
    curvebetti submodules then loaded; argv None only imports curvebetti."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import json, sys\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv is None:\n"
        "    import curvebetti\n"
        "    code = None\n"
        "else:\n"
        "    import curvebetti.cli\n"
        "    code = curvebetti.cli.main(argv)\n"
        "names = [m for m in sys.modules if m.startswith('curvebetti.')]\n"
        "print(json.dumps([code, names]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    code, names = json.loads(proc.stdout.splitlines()[-1])
    return code, {name.removeprefix("curvebetti.") for name in names}


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after(None) == (None, set())


NO_ARITHMETIC = {"dsl", "pipelines", "surgery", "catalog", "polyring"}


@pytest.mark.parametrize(
    "argv, code, loads, skips",
    [
        (["frobnicate"], 2, {"cli", "keys"}, NO_ARITHMETIC),
        (["table", "--k", "1", "--n", "9..4", "--d", "3", "--compactification", "S"], 2,
         {"cli", "keys"}, NO_ARITHMETIC),
        (["verify", "--grid", "k=1..x"], 2, {"cli", "keys"}, NO_ARITHMETIC),
        (["betti", "--space", "P(3"], 2, {"dsl"}, {"pipelines", "surgery", "catalog", "polyring"}),
        (["betti", "--k", "2", "--n", "6", "--d", "3", "--compactification", "H", "--trace"], 0,
         {"pipelines", "surgery"}, {"dsl"}),
        (["betti", "--space", "P(2) * Gr(2,4)"], 0, {"dsl", "catalog", "polyring"},
         {"pipelines", "surgery"}),
        (["betti", "--k", "1", "--n", "3", "--d", "4", "--compactification", "S"], 2,
         {"cli", "keys"}, NO_ARITHMETIC),
        (["table", "--k", "1", "--n", "4..6", "--d", "4", "--compactification", "S"], 2,
         {"cli", "keys"}, NO_ARITHMETIC),
        (["verify", "--grid", "k=5..4,n=1..2"], 2, {"cli", "keys"}, NO_ARITHMETIC),
        (["betti", "--space", "S(Gr(1,4),4)"], 2, {"dsl", "keys"},
         {"pipelines", "surgery", "catalog", "polyring"}),
        (["betti", "--space", "H(Gr(1,3),3)"], 2, {"dsl", "keys"},
         {"pipelines", "surgery", "catalog", "polyring"}),
    ],
    ids=["unknown-command", "empty-range", "bad-grid", "parse-error", "key-trace", "product",
         "bad-key", "range-of-bad-keys", "empty-grid", "bad-moduli-leaf", "degenerate-moduli-leaf"],
)
def test_each_command_loads_only_the_modules_it_runs(argv, code, loads, skips):
    got_code, loaded = _loaded_after(argv)
    assert got_code == code
    assert loads <= loaded, loads - loaded
    assert not skips & loaded, skips & loaded
