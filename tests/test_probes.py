"""The benchmark's tracer patches stressnet functions by name; a rename or
removal of a probed name must fail here rather than in a traced run."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_probe_finds_its_target(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    import stressnet.cli  # noqa: F401  (the CLI's bindings get patched too)

    undo = tracing.patch(tracing.Tracer("t"))
    tracing.unpatch(undo)
