"""Binary detection metrics and per-scenario reports.

The positive class is "attacked" throughout. Precision and recall are left
undefined (None, rendered as "undefined") when their denominators are zero;
silently reporting 0 would distort attack-scarce scenarios.

confusion counts the (prediction, truth) pairs in one pass, and metrics turns
the counts into a Metrics. A scenario's MetricsReport is that Metrics plus the
scenario name, the counts and, optionally, the reference precision/recall/F1
triple published for the scenario, in which case per-metric deltas (ours minus
reference) are included. The references are reporting aids only and are never
asserted against.

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

SCENARIOS = ("DoS", "Fuzzy", "Spoofing", "Replay", "Mixed-DFS", "Mixed-DFSR")

# Published GCN results per scenario: (precision, recall, f1).
PAPER_TARGETS: dict[str, tuple[float, float, float]] = {
    "DoS": (0.99, 1.00, 1.00),
    "Fuzzy": (1.00, 1.00, 1.00),
    "Spoofing": (0.99, 1.00, 1.00),
    "Replay": (0.99, 0.88, 0.93),
    "Mixed-DFS": (1.00, 0.99, 0.99),
    "Mixed-DFSR": (0.98, 1.00, 0.99),
}


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
    """One scenario's metrics with its confusion counts and optional reference."""

    scenario: str
    confusion: ConfusionMatrix
    paper_precision: float | None = None
    paper_recall: float | None = None
    paper_f1: float | None = None

    def deltas(self) -> dict[str, float | None]:
        """ours - paper per metric; None when either side is undefined."""
        deltas = {}
        for name in REFERENCE_NAMES:
            ours, ref = getattr(self, name), getattr(self, f"paper_{name}")
            deltas[name] = None if ours is None or ref is None else ours - ref
        return deltas

    def _columns(self) -> dict[str, dict[str, float | None]]:
        """Our metrics by name, then the reference triple and deltas() when
        the report has a reference: the one place that decides it has one."""
        columns = {"metrics": {name: getattr(self, name) for name in METRIC_NAMES}}
        paper = {name: getattr(self, f"paper_{name}") for name in REFERENCE_NAMES}
        if any(value is not None for value in paper.values()):
            columns.update(paper=paper, delta=self.deltas())
        return columns

    def to_json(self) -> str:
        return json.dumps({"scenario": self.scenario, "confusion": vars(self.confusion),
                           **self._columns()}, indent=2)

    def format_table(self) -> str:
        """Aligned plain-text rendering: our metrics, then the reference and
        delta columns when the report has a reference."""
        columns = list(self._columns().values())
        titles = ("ours", "paper", "delta")[:len(columns)]
        cm = self.confusion
        lines = [
            f"scenario: {self.scenario}",
            f"  counts    tp={cm.tp} fp={cm.fp} tn={cm.tn} fn={cm.fn} total={cm.total}",
            f"  {'metric':<10}" + "".join(f"{title:>10}" for title in titles),
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
    """Assemble the full report for one named scenario.

    paper_targets is an explicit (precision, recall, f1) triple; use
    PAPER_TARGETS[name] for the published numbers.
    """
    if name not in SCENARIOS:
        raise EvalError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")
    cm = confusion(predictions, labels)
    paper = {} if paper_targets is None else {
        f"paper_{metric}": value
        for metric, value in zip(REFERENCE_NAMES, paper_targets, strict=True)}
    return MetricsReport(**vars(metrics(cm)), scenario=name, confusion=cm, **paper)
