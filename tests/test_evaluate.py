import json

import numpy as np
import pytest

from canids.evaluate import (
    PAPER_TARGETS,
    SCENARIOS,
    ConfusionMatrix,
    EmptyInput,
    EmptyMatrix,
    EvalError,
    LengthMismatch,
    confusion,
    metrics,
    scenario_report,
)
from canids.kernel import make_rng


def test_confusion_all_correct():
    preds = [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
    cm = confusion(preds, preds)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (5, 0, 5, 0)


def test_confusion_all_false_positive():
    cm = confusion([1, 1, 1, 1], [0, 0, 0, 0])
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (0, 4, 0, 0)


def test_confusion_matches_loop_oracle():
    rng = make_rng(0)
    preds = rng.integers(0, 2, size=1000).tolist()
    labels = rng.integers(0, 2, size=1000).tolist()
    cm = confusion(preds, labels)
    tp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 1)
    fp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 0)
    tn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 0)
    fn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 1)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)
    assert cm.total == 1000


def test_confusion_errors():
    with pytest.raises(LengthMismatch):
        confusion([1], [1, 0])
    with pytest.raises(EmptyInput):
        confusion([], [])


def test_metrics_hand_example():
    m = metrics(ConfusionMatrix(tp=9, fp=1, tn=90, fn=0))
    assert m.precision == 0.9
    assert m.recall == 1.0
    assert abs(m.f1 - 18 / 19) < 1e-12
    assert m.accuracy == 0.99


def test_metrics_perfect():
    m = metrics(ConfusionMatrix(tp=5, fp=0, tn=5, fn=0))
    assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)


def test_metrics_undefined_precision():
    m = metrics(ConfusionMatrix(tp=0, fp=0, tn=8, fn=2))
    assert m.precision is None
    assert m.recall == 0.0
    assert m.f1 is None
    assert m.accuracy == 0.8


def test_metrics_undefined_recall():
    m = metrics(ConfusionMatrix(tp=0, fp=3, tn=7, fn=0))
    assert m.recall is None
    assert m.f1 is None


def test_metrics_empty():
    with pytest.raises(EmptyMatrix):
        metrics(ConfusionMatrix())


def test_metrics_match_formula_oracle():
    rng = make_rng(1)
    for _ in range(50):
        tp, fp, tn, fn = (int(x) for x in rng.integers(0, 50, size=4))
        if tp + fp + tn + fn == 0:
            continue
        m = metrics(ConfusionMatrix(tp, fp, tn, fn))
        assert abs(m.accuracy - (tp + tn) / (tp + fp + tn + fn)) <= 1e-12
        if tp + fp:
            assert abs(m.precision - tp / (tp + fp)) <= 1e-12
        if tp + fn:
            assert abs(m.recall - tp / (tp + fn)) <= 1e-12
        if m.precision is not None and m.recall is not None and m.precision + m.recall:
            expected = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert abs(m.f1 - expected) <= 1e-12


def test_swapping_positive_class_convention():
    rng = make_rng(2)
    preds = rng.integers(0, 2, size=200).tolist()
    labels = rng.integers(0, 2, size=200).tolist()
    cm = confusion(preds, labels)
    flipped = confusion([1 - p for p in preds], [1 - y for y in labels])
    assert (flipped.tp, flipped.fp, flipped.tn, flipped.fn) == (cm.tn, cm.fn, cm.tp, cm.fp)
    if flipped.tp + flipped.fp:
        assert metrics(flipped).precision == cm.tn / (cm.tn + cm.fn)


def test_accuracy_permutation_invariant():
    rng = make_rng(3)
    preds = rng.integers(0, 2, size=100).tolist()
    labels = rng.integers(0, 2, size=100).tolist()
    base = metrics(confusion(preds, labels)).accuracy
    order = rng.permutation(100)
    permuted = metrics(
        confusion([preds[i] for i in order], [labels[i] for i in order])
    ).accuracy
    assert base == permuted


def test_scenario_report_with_paper_targets():
    report = scenario_report("DoS", [1, 1, 0, 0], [1, 1, 0, 0], PAPER_TARGETS["DoS"])
    assert (report.paper_precision, report.paper_recall, report.paper_f1) == (0.99, 1.00, 1.00)
    deltas = report.deltas()
    assert abs(deltas["precision"] - (1.0 - 0.99)) < 1e-12
    assert deltas["f1"] == 0.0


def test_replay_reference_triple():
    assert PAPER_TARGETS["Replay"] == (0.99, 0.88, 0.93)
    report = scenario_report("Replay", [1, 0], [1, 1], PAPER_TARGETS["Replay"])
    assert report.paper_recall == 0.88


def test_scenario_report_without_targets():
    """A report given no triple carries its scenario's published one."""
    for name in SCENARIOS:
        report = scenario_report(name, [1, 0], [1, 0])
        assert report == scenario_report(name, [1, 0], [1, 0], PAPER_TARGETS[name])
        assert (report.paper_precision, report.paper_recall,
                report.paper_f1) == PAPER_TARGETS[name]
        assert json.loads(report.to_json())["paper"] == dict(
            zip(("precision", "recall", "f1"), PAPER_TARGETS[name]))


def test_scenario_report_unknown_name():
    with pytest.raises(EvalError):
        scenario_report("Phantom", [1], [1])


def test_all_scenarios_have_targets():
    assert SCENARIOS == tuple(PAPER_TARGETS)


def test_report_json_and_table_render():
    report = scenario_report(
        "Mixed-DFSR", [1, 1, 0, 1], [1, 0, 0, 1], PAPER_TARGETS["Mixed-DFSR"]
    )
    payload = json.loads(report.to_json())
    assert payload["scenario"] == "Mixed-DFSR"
    assert payload["confusion"] == {"tp": 2, "fp": 1, "tn": 1, "fn": 0}
    assert payload["paper"]["f1"] == 0.99
    table = report.format_table()
    assert "Mixed-DFSR" in table and "precision" in table and "delta" in table


def test_undefined_rendered_explicitly():
    report = scenario_report("Spoofing", [0, 0], [0, 0])
    assert "undefined" in report.format_table()
    payload = json.loads(report.to_json())
    assert payload["metrics"]["precision"] is None


# Golden renderings of two reports: one with defined metrics, and one whose
# precision, recall and F1 are all undefined.
GOLDEN_REPORTS = {
    "reference": (
        ("Mixed-DFSR", [1, 1, 0, 0, 1, 0, 1], [1, 0, 0, 1, 1, 0, 1],
         PAPER_TARGETS["Mixed-DFSR"]),
        "scenario: Mixed-DFSR\n"
        "  counts    tp=3 fp=1 tn=2 fn=1 total=7\n"
        "  metric          ours     paper     delta\n"
        "  accuracy      0.7143 undefined undefined\n"
        "  precision     0.7500    0.9800   -0.2300\n"
        "  recall        0.7500    1.0000   -0.2500\n"
        "  f1            0.7500    0.9900   -0.2400",
        '{\n  "scenario": "Mixed-DFSR",\n'
        '  "confusion": {\n    "tp": 3,\n    "fp": 1,\n    "tn": 2,\n    "fn": 1\n  },\n'
        '  "metrics": {\n    "accuracy": 0.7142857142857143,\n'
        '    "precision": 0.75,\n    "recall": 0.75,\n    "f1": 0.75\n  },\n'
        '  "paper": {\n    "precision": 0.98,\n    "recall": 1.0,\n    "f1": 0.99\n  },\n'
        '  "delta": {\n    "precision": -0.22999999999999998,\n'
        '    "recall": -0.25,\n    "f1": -0.24\n  }\n}',
        {"precision": -0.22999999999999998, "recall": -0.25, "f1": -0.24},
    ),
    "undefined": (
        ("Replay", [0, 0, 0], [0, 0, 0], PAPER_TARGETS["Replay"]),
        "scenario: Replay\n"
        "  counts    tp=0 fp=0 tn=3 fn=0 total=3\n"
        "  metric          ours     paper     delta\n"
        "  accuracy      1.0000 undefined undefined\n"
        "  precision  undefined    0.9900 undefined\n"
        "  recall     undefined    0.8800 undefined\n"
        "  f1         undefined    0.9300 undefined",
        '{\n  "scenario": "Replay",\n'
        '  "confusion": {\n    "tp": 0,\n    "fp": 0,\n    "tn": 3,\n    "fn": 0\n  },\n'
        '  "metrics": {\n    "accuracy": 1.0,\n    "precision": null,\n'
        '    "recall": null,\n    "f1": null\n  },\n'
        '  "paper": {\n    "precision": 0.99,\n    "recall": 0.88,\n    "f1": 0.93\n  },\n'
        '  "delta": {\n    "precision": null,\n    "recall": null,\n    "f1": null\n  }\n}',
        {"precision": None, "recall": None, "f1": None},
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_REPORTS))
def test_report_renderings_match_golden_strings(case):
    args, table, payload, deltas = GOLDEN_REPORTS[case]
    report = scenario_report(*args)
    assert report.format_table() == table
    assert report.to_json() == payload
    assert report.deltas() == deltas


def test_confusion_counts_numpy_arrays_and_bools():
    """0/1 numpy arrays and bool sequences count as the int lists do."""
    preds = [1, 1, 0, 0, 1, 0, 1]
    labels = [1, 0, 0, 1, 1, 0, 1]
    expected = ConfusionMatrix(tp=3, fp=1, tn=2, fn=1)
    assert confusion(preds, labels) == expected
    assert confusion(np.array(preds), np.array(labels)) == expected
    assert confusion(np.array(preds, dtype=np.int8), labels) == expected
    assert confusion([bool(p) for p in preds], [bool(y) for y in labels]) == expected
    assert confusion(np.array(preds, dtype=bool), np.array(labels, dtype=bool)) == expected
    with pytest.raises(LengthMismatch):
        confusion(np.zeros(3, dtype=int), np.zeros(2, dtype=int))
    with pytest.raises(EmptyInput):
        confusion(np.array([], dtype=bool), np.array([], dtype=bool))
