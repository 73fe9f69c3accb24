"""The package's records: named tuples built without generated code.

Importing ``gtkit`` and ``gtkit.cli`` loads neither ``dataclasses`` nor
``inspect``.  The seven immutable records refuse assignment, hash equal
values alike and keep the ``Name(field=value, ...)`` repr; ``RunReport``,
which collects a command's results and verdicts, keeps that repr too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gtkit.cli import RunReport, SweepConfig
from gtkit.counting import CountResult, TopRowKey
from gtkit.exact import LaurentPolyQ
from gtkit.identities import IntFunction
from gtkit.patterns import (
    DimensionMismatch, GenPattern, Partition, ShapeViolation, StrictPlanePartition,
)

ROOT = Path(__file__).resolve().parents[1]

#: factory, a field name and the expected repr of each immutable record
RECORDS = {
    "TopRowKey": (lambda: TopRowKey(2, 3, 2, [1]), "ks", "TopRowKey(r=2, n=3, c=2, ks=(1,))"),
    "CountResult": (lambda: CountResult(3, LaurentPolyQ({0: 1, 2: 2})), "plain",
                    "CountResult(plain=3, q_weighted=LaurentPolyQ({0: 1, 2: 2}))"),
    "Partition": (lambda: Partition([3, 1, 1]), "parts", "Partition(parts=(3, 1, 1))"),
    "StrictPlanePartition": (lambda: StrictPlanePartition([[3, 1], [2]]), "rows",
                             "StrictPlanePartition(rows=((3, 1), (2,)))"),
    "GenPattern": (lambda: GenPattern(1, 2, 2, [[0, 1, 2], [0, 1, 1, 2]]), "rows",
                   "GenPattern(r=1, n=2, c=2, rows=((0, 1, 2), (0, 1, 1, 2)))"),
    "IntFunction": (lambda: IntFunction(1, abs), "arity",
                    "IntFunction(arity=1, fn=<built-in function abs>)"),
    "SweepConfig": (lambda: SweepConfig(lemma2_d=7), "lemma2_d",
                    "SweepConfig(lemma2_d=7, lemma2_xy=3, decomp_c=2, decomp_klo=-2, "
                    "decomp_khi=4, hyper_max_m=4, qvand_max_m=3, qpoch_max_n=3, zeros_max_n=4, "
                    "zeros_max_c=4, extra_max_n=4, extra_max_c=4, ssyt_max_part=4, "
                    "ssyt_max_k=4, tableaux_max_k=3, tableaux_lo=-2, tableaux_hi=3, "
                    "asm_max_n=5)"),
}

#: each record that validates in __new__: a valid record, a valid change, a
#: change that __new__ refuses, and the error it raises
CHECKED = {
    "TopRowKey": (lambda: TopRowKey(1, 2, 1, (0,)), {"c": 5}, {"ks": (1, 2, 3)}, ValueError),
    "Partition": (lambda: Partition([3, 1]), {"parts": (2, 2)}, {"parts": (1, 5)},
                  ShapeViolation),
    "StrictPlanePartition": (lambda: StrictPlanePartition([[3, 1], [2]]), {"rows": ((2,),)},
                             {"rows": ((1,), (2,))}, ShapeViolation),
    "GenPattern": (lambda: GenPattern(1, 2, 2, [[0, 1, 2], [0, 1, 1, 2]]), {"c": 3}, {"r": 2},
                   DimensionMismatch),
}


@pytest.mark.parametrize("name", CHECKED)
def test_make_and_replace_check_like_new(name):
    # the named tuple's _make and _replace go through __new__'s checks
    make, good, bad, error = CHECKED[name]
    record = make()
    cls = type(record)
    changed = record._replace(**good)
    assert type(changed) is cls and changed == cls(**{**record._asdict(), **good})
    assert cls._make(record) == record and type(cls._make(record)) is cls
    with pytest.raises(error):
        record._replace(**bad)
    with pytest.raises(error):
        cls._make([bad.get(field, value) for field, value in zip(cls._fields, record)])


def test_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import gtkit, gtkit.cli, sys; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable_hashable_and_keeps_its_repr(name):
    make, field, expected = RECORDS[name]
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    twin = make()
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert repr(record) == expected


def test_run_report_keeps_its_repr_and_json():
    report = RunReport("verify", {"seed": 42})
    report.add_verdict("identity", "params", True, instances=3)
    verdict = {"identity": "identity", "parameters": "params", "pass": True, "instances": 3}
    assert repr(report) == (f"RunReport(command='verify', parameters={{'seed': 42}}, "
                            f"results=[], verdicts=[{verdict!r}])")
    assert json.loads(report.to_json()) == {"command": "verify", "parameters": {"seed": 42},
                                            "results": [], "verdicts": [verdict]}
