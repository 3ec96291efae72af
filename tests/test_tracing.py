"""The benchmark's tracer wraps library functions by module attribute name;
every name it lists must exist, or a traced benchmark run cannot start."""

import importlib
from pathlib import Path

import polyextremal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_boundaries_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [f"{module}.{attribute}" for module, attribute, _ in tracing.BOUNDARIES
               if not hasattr(getattr(polyextremal, module), attribute)]
    assert missing == []
