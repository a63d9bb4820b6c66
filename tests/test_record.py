"""The records' behaviour, and what importing the command line loads."""

import copy
import functools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from curvebetti import dsl
from curvebetti.catalog import POINT, PoincarePoly, projective
from curvebetti.pipelines import CheckResult, ModuliKey, SuiteReport
from curvebetti.polyring import ONE, IntPoly
from curvebetti.record import Record
from curvebetti.surgery import Pipeline, PipelineRun, SurgeryStep, TraceRecord

LINE = projective(1)
STEP = SurgeryStep("blowup", POINT, LINE, "b")
TRACE = TraceRecord("b", "blowup", ONE, ONE)
CHECK = CheckResult("duality", "S(Gr(1,3),3)", True)
# A failed check as verify_pair builds it, every field given.
FAILED = ("pipeline", "S(Gr(1,4),2)", False, "first difference at q^2: closed 3, pipeline 4")

# (class, positional arguments, the defaulted fields left out of them)
EXAMPLES = [
    (IntPoly, ((1, 2),), {}),
    (PoincarePoly, (LINE.poly, 1, 1), {}),
    (SurgeryStep, ("blowup", POINT, LINE, "b"), {"expected_codim": None}),
    (Pipeline, (LINE, (STEP,)), {}),
    (TraceRecord, ("b", "blowup", ONE, ONE), {}),
    (PipelineRun, (LINE, (TRACE,)), {}),
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
    assert SurgeryStep("blowup", POINT, LINE, "b", expected_codim=2).expected_codim == 2


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
