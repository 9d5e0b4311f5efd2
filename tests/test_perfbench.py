import importlib
from pathlib import Path

from canids import gcn
from canids.graph_builder import graph_from_ids
from canids.kernel import make_rng
from helpers import random_id_window

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_resolves_every_traced_function(monkeypatch):
    """perfbench/spans.py wraps canids functions by name; deleting or renaming
    one breaks traced benchmark runs, so catch it here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    traced = [f"{m.__name__}.{f}" for funcs in spans.LAYERS.values() for m, f, _ in funcs]
    assert tracer.names == traced


def test_library_calls_perfbench_makes():
    """perfbench/workloads.py calls predict_many with batch_size=16 for its
    reference answer and predict per window for its latency sweep; both
    calls must keep their signatures and results."""
    rng = make_rng(3)
    graphs = [graph_from_ids(random_id_window(rng, 60), attacked=bool(i % 2))
              for i in range(20)]
    params = gcn.init_params(2)
    labels, probs = gcn.predict_many(graphs, params, batch_size=16)
    want_labels, want_probs = gcn.predict_many(graphs, params)
    assert labels.tolist() == want_labels.tolist()
    assert probs.tolist() == want_probs.tolist()
    label, prob = gcn.predict(graphs[0], params)
    assert type(label) is int and type(prob) is float
    assert (label, prob) == (labels[0], probs[0])
