"""Binary detection metrics and per-scenario reports.

The positive class is "attacked" throughout. Precision and recall are left
undefined (None, rendered as "undefined") when their denominators are zero;
silently reporting 0 would distort attack-scarce scenarios.

confusion counts the (prediction, truth) pairs in one pass, and metrics turns
the counts into a Metrics. A scenario's MetricsReport is that Metrics plus the
scenario name, the counts, the reference precision/recall/F1 triple of the
scenario (PAPER_TARGETS[name] unless another triple is given) and per-metric
deltas (ours minus reference). Every report carries a reference; the
scenarios are the keys of PAPER_TARGETS. The references are reporting aids
only and are never asserted against. `canids eval` reads its model before
its input and prints scenario_report against the published triple.

Two name tuples drive every rendering (format_table, to_json and deltas):
METRIC_NAMES, read from the fields of Metrics, and REFERENCE_NAMES, the order
of a PAPER_TARGETS triple. A metric added to Metrics and to metrics() shows up
in every report with no other change.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, fields
from typing import Sequence

# Published GCN results per scenario: (precision, recall, f1).
PAPER_TARGETS: dict[str, tuple[float, float, float]] = {
    "DoS": (0.99, 1.00, 1.00),
    "Fuzzy": (1.00, 1.00, 1.00),
    "Spoofing": (0.99, 1.00, 1.00),
    "Replay": (0.99, 0.88, 0.93),
    "Mixed-DFS": (1.00, 0.99, 0.99),
    "Mixed-DFSR": (0.98, 1.00, 0.99),
}
SCENARIOS = tuple(PAPER_TARGETS)


class EvalError(ValueError):
    """Base class for evaluation errors."""


class LengthMismatch(EvalError):
    pass


class EmptyInput(EvalError):
    pass


class EmptyMatrix(EvalError):
    pass


@dataclass
class ConfusionMatrix:
    """Counts with attacked as the positive class."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class Metrics:
    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None


METRIC_NAMES = tuple(f.name for f in fields(Metrics))
REFERENCE_NAMES = ("precision", "recall", "f1")  # the order of a PAPER_TARGETS triple


def _fmt(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.4f}"


@dataclass
class MetricsReport(Metrics):
    """One scenario's metrics with its confusion counts and reference."""

    scenario: str
    confusion: ConfusionMatrix
    paper_precision: float
    paper_recall: float
    paper_f1: float

    def deltas(self) -> dict[str, float | None]:
        """ours - paper per metric; None where ours is undefined."""
        deltas = {}
        for name in REFERENCE_NAMES:
            ours = getattr(self, name)
            deltas[name] = None if ours is None else ours - getattr(self, f"paper_{name}")
        return deltas

    def _columns(self) -> dict[str, dict[str, float | None]]:
        """Our metrics, the reference triple and deltas(), each by name."""
        return {"metrics": {name: getattr(self, name) for name in METRIC_NAMES},
                "paper": {name: getattr(self, f"paper_{name}") for name in REFERENCE_NAMES},
                "delta": self.deltas()}

    def to_json(self) -> str:
        return json.dumps({"scenario": self.scenario, "confusion": vars(self.confusion),
                           **self._columns()}, indent=2)

    def format_table(self) -> str:
        """Aligned plain-text rendering: our metrics, the reference and the
        deltas."""
        columns = list(self._columns().values())
        cm = self.confusion
        lines = [
            f"scenario: {self.scenario}",
            f"  counts    tp={cm.tp} fp={cm.fp} tn={cm.tn} fn={cm.fn} total={cm.total}",
            f"  {'metric':<10}{'ours':>10}{'paper':>10}{'delta':>10}",
        ]
        for name in METRIC_NAMES:
            cells = (_fmt(column.get(name)) for column in columns)
            lines.append(f"  {name:<10}" + "".join(f"{cell:>10}" for cell in cells))
        return "\n".join(lines)


def confusion(predictions: Sequence[int], labels: Sequence[int]) -> ConfusionMatrix:
    """Count tp/fp/tn/fn; inputs are 0 (attack-free) / 1 (attacked), read
    by truth value."""
    if len(predictions) != len(labels):
        raise LengthMismatch(f"{len(predictions)} predictions for {len(labels)} labels")
    if len(predictions) == 0:
        raise EmptyInput("nothing to evaluate")
    pairs = Counter(zip(map(bool, predictions), map(bool, labels)))
    return ConfusionMatrix(tp=pairs[True, True], fp=pairs[True, False],
                           tn=pairs[False, False], fn=pairs[False, True])


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Accuracy, precision, recall, F1 from counts; degenerate cases are None."""
    if cm.total == 0:
        raise EmptyMatrix("confusion matrix has no counts")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp > 0 else None
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else None
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return Metrics(accuracy, precision, recall, f1)


def scenario_report(
    name: str,
    predictions: Sequence[int],
    labels: Sequence[int],
    paper_targets: tuple[float, float, float] | None = None,
) -> MetricsReport:
    """Assemble the full report for one named scenario, against the
    (precision, recall, f1) triple paper_targets, by default the published
    PAPER_TARGETS[name]."""
    if name not in PAPER_TARGETS:
        raise EvalError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")
    cm = confusion(predictions, labels)
    if paper_targets is None:
        paper_targets = PAPER_TARGETS[name]
    paper = {f"paper_{metric}": value
             for metric, value in zip(REFERENCE_NAMES, paper_targets, strict=True)}
    return MetricsReport(**vars(metrics(cm)), scenario=name, confusion=cm, **paper)
