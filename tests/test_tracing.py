"""The benchmark's tracer wraps library functions by module attribute name;
every name it lists must exist, or a traced benchmark run cannot start."""

import importlib
import json
from pathlib import Path

import numpy as np

import polyextremal
import polyextremal.cli  # noqa: F401  (the tracer wraps attributes of cli too)

from conftest import FIXTURES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_boundaries_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [f"{module}.{attribute}" for module, attribute, _ in tracing.BOUNDARIES
               if not hasattr(getattr(polyextremal, module), attribute)]
    assert missing == []


def test_traced_setup_records_spans_and_restores(monkeypatch):
    """A traced set-up records ``supports.try_simplex`` spans, which the
    benchmark's per-layer metrics divide by, and no ``supports.try_strip``
    span, since the strip screen certifies strips itself; ``restore`` puts
    every wrapped attribute back."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = {(module, attribute): getattr(getattr(polyextremal, module), attribute)
                 for module, attribute, _ in tracing.BOUNDARIES}
    normals = np.random.default_rng(1).normal(size=(10, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    documents = [json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
                 for name in ("quad", "prism")]
    documents.append({"dim": 3, "halfspaces": [{"normal": list(n), "offset": 1.0}
                                               for n in normals]})
    tracer = tracing.Tracer()
    tracer.install(polyextremal)
    kinds = set()
    try:
        for document in documents:
            polytope = polyextremal.polytope.validate(
                [(h["normal"], h["offset"]) for h in document["halfspaces"]], document["dim"])
            kinds.update(s.kind for s in polyextremal.supports.enumerate_supports(polytope))
    finally:
        tracer.restore()
    totals = tracer.totals()
    assert kinds == {"simplex", "strip"}
    assert totals["supports.try_simplex"]["calls"] > 0
    assert "supports.try_strip" not in totals
    assert totals["polytope.enumerate_vertices"]["calls"] == len(documents)
    assert all(getattr(getattr(polyextremal, module), attribute) is original
               for (module, attribute), original in originals.items())
