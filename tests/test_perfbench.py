import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_resolves_every_traced_function(monkeypatch):
    """perfbench/spans.py wraps canids functions by name; deleting or renaming
    one breaks traced benchmark runs, so catch it here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    traced = [f"{m.__name__}.{f}" for funcs in spans.LAYERS.values() for m, f, _ in funcs]
    assert tracer.names == traced
