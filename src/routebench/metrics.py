"""Binary hallucination metrics and the composite average.

Covers three report shapes consumed from external benchmark outcome files:
yes/no object-presence questions scored as a confusion matrix (accuracy,
precision, recall, F1 with "yes" as the positive class), scenario-tagged
accuracy aggregation over synthetic and real-world items, and the composite
average of an F1 score with an overall accuracy.  All values are percentages
in [0, 100], kept at full precision internally; rounding is a display
concern.

Wire formats, one JSON object per line: ``{"pred": "yes"|"no", "label":
"yes"|"no"}`` for binary outcomes and ``{"scenario": "synthetic"|"real",
"correct": bool}`` for scenario results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

from .benchmark import parse_jsonl
from .experts import check_known_keys, check_rules, json_field, json_fields, rule, ruled

YES = "yes"
NO = "no"
SCENARIOS = ("synthetic", "real")


@dataclass(frozen=True)
class BinaryOutcome:
    pred: str = ruled("one of", (YES, NO))
    label: str = ruled("one of", (YES, NO))

    __post_init__ = check_rules


@dataclass(frozen=True)
class MetricsRow:
    """One ``pope_metrics`` result: percentages in [0, 100], and in
    ``degenerate`` the metrics that were 0/0 (reported as 0.0), as a tuple
    in the order precision, recall, f1."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate: tuple = ()

    def to_json_dict(self) -> dict:
        return {**asdict(self), "degenerate": list(self.degenerate)}


def confusion_counts(outcomes) -> tuple:
    """(tp, fp, fn, tn) with "yes" as the positive class."""
    counts = Counter((outcome.pred == YES, outcome.label == YES) for outcome in outcomes)
    return counts[True, True], counts[True, False], counts[False, True], counts[False, False]


def pope_metrics(outcomes) -> MetricsRow:
    """Confusion-matrix metrics over yes/no outcomes, as percentages.

    Precision, recall and F1 are each 0.0 when their denominator (tp + fp,
    tp + fn, precision + recall) is not positive, and are then named in
    ``degenerate``.
    """
    items = list(outcomes)
    if not items:
        raise ValueError("pope_metrics needs at least one outcome")
    tp, fp, fn, tn = confusion_counts(items)
    accuracy = 100.0 * (tp + tn) / len(items)
    precision = 100.0 * tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    denominators = (("precision", tp + fp), ("recall", tp + fn), ("f1", precision + recall))
    degenerate = tuple(name for name, denominator in denominators if not denominator > 0)
    return MetricsRow(accuracy, precision, recall, f1, degenerate)


def autohallusion_aggregate(results, scenario_mean: bool = False) -> dict:
    """Accuracy per scenario plus overall, as percentages.

    ``results`` holds (scenario, correct) pairs with scenario "synthetic" or
    "real".  Overall is item-weighted by default; ``scenario_mean`` averages
    the per-scenario accuracies instead.  An empty scenario is reported as
    None and excluded from the scenario mean.
    """
    items = list(results)
    if not items:
        raise ValueError("autohallusion_aggregate needs at least one result")
    for scenario, _ in items:
        rule("one of", SCENARIOS).check(scenario, "scenario")
    per_scenario = {}
    for scenario in SCENARIOS:
        sub = [correct for s, correct in items if s == scenario]
        per_scenario[scenario] = 100.0 * sum(sub) / len(sub) if sub else None
    if scenario_mean:
        present = [v for v in per_scenario.values() if v is not None]
        overall = sum(present) / len(present)
    else:
        overall = 100.0 * sum(correct for _, correct in items) / len(items)
    return {"overall": overall, **per_scenario}


def avg_metric(pope_f1: float, autohallusion_overall: float) -> float:
    """Arithmetic mean of an F1 percentage and an overall-accuracy percentage."""
    for name, value in (("pope_f1", pope_f1), ("autohallusion_overall", autohallusion_overall)):
        rule("in [0, 100]").check(value, name)
    return (pope_f1 + autohallusion_overall) / 2.0


def loads_binary_outcomes(text: str) -> list:
    return parse_jsonl(
        text,
        lambda doc: BinaryOutcome(**json_fields(BinaryOutcome, doc, "outcome")),
        "outcome file contains no entries",
    )


def load_binary_outcomes(path) -> list:
    return loads_binary_outcomes(Path(path).read_text(encoding="utf-8"))


def _scenario_result(doc: dict) -> tuple:
    check_known_keys(("scenario", "correct"), doc, "scenario result")
    scenario, correct = json_field(doc, "scenario", str), json_field(doc, "correct", bool)
    rule("one of", SCENARIOS).check(scenario, "scenario")
    return scenario, correct


def loads_scenario_results(text: str) -> list:
    return parse_jsonl(text, _scenario_result, "scenario file contains no entries")


def load_scenario_results(path) -> list:
    return loads_scenario_results(Path(path).read_text(encoding="utf-8"))
