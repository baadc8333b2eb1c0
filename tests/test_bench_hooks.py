"""The names the benchmark in perfbench/ wraps and calls still exist.

perfbench is kept apart from the package, so renaming or deleting a traced
function would otherwise break only the benchmark's tracer, not these tests.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced() -> dict:
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer").TRACED
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attrs in _traced().items() for attr in attrs],
)
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(f"shscert.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize(
    "module, cls, method",
    [
        ("model", "SHSModel", "to_json"),
        ("certify", "CbcCandidate", "to_json"),
        ("certify", "CbcCandidate", "from_dict"),
        ("augment", "Acbc", "to_json"),
        ("synth", "SynthResult", "to_dict"),
    ],
)
def test_workload_method_exists(module, cls, method):
    owner = getattr(importlib.import_module(f"shscert.{module}"), cls)
    assert callable(getattr(owner, method))
