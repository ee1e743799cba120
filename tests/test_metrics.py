"""Tests for confusion-matrix metrics, scenario aggregation, and the composite average."""

import itertools
import json
import random

import pytest

from routebench.benchmark import DatasetError
from routebench.metrics import (
    BinaryOutcome,
    MetricsRow,
    autohallusion_aggregate,
    avg_metric,
    confusion_counts,
    load_binary_outcomes,
    loads_binary_outcomes,
    loads_scenario_results,
    pope_metrics,
)

# Published (F1, overall-accuracy) pairs and the composite average each must
# reproduce within +/-0.05.
FROZEN_AVG_PAIRS = [
    (86.1, 44.5, 65.3),
    (86.8, 44.3, 65.6),
    (87.9, 47.6, 67.8),
    (88.8, 48.2, 68.5),
    (85.2, 53.2, 69.2),
    (85.2, 53.9, 69.6),
    (86.7, 54.3, 70.5),
]


def outcomes(pred_labels):
    return [BinaryOutcome(pred=p, label=l) for p, l in pred_labels]


class TestPopeMetrics:
    def test_hand_confusion_matrix(self):
        row = pope_metrics(
            outcomes([("yes", "yes"), ("no", "yes"), ("no", "no"), ("no", "no")])
        )
        assert row.accuracy == pytest.approx(75.0, abs=1e-12)
        assert row.precision == pytest.approx(100.0, abs=1e-12)
        assert row.recall == pytest.approx(50.0, abs=1e-12)
        assert row.f1 == pytest.approx(200.0 / 3.0, abs=1e-9)
        assert row.degenerate == ()

    def test_perfect_classifier(self):
        row = pope_metrics(outcomes([("yes", "yes"), ("no", "no")] * 3))
        assert (row.accuracy, row.precision, row.recall, row.f1) == (100.0, 100.0, 100.0, 100.0)

    def test_all_yes_half_positive(self):
        row = pope_metrics(
            outcomes([("yes", "yes"), ("yes", "no"), ("yes", "yes"), ("yes", "no")])
        )
        assert row.precision == pytest.approx(50.0, abs=1e-12)
        assert row.recall == pytest.approx(100.0, abs=1e-12)

    def test_degenerate_precision_flagged(self):
        row = pope_metrics(outcomes([("no", "yes"), ("no", "no")]))
        assert row.precision == 0.0
        assert "precision" in row.degenerate
        assert "f1" in row.degenerate

    def test_degenerate_recall_flagged(self):
        row = pope_metrics(outcomes([("no", "no"), ("no", "no")]))
        assert row.recall == 0.0
        assert set(row.degenerate) == {"precision", "recall", "f1"}

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            pope_metrics([])

    def test_matches_brute_force_counts(self):
        rng = random.Random(5)
        for _ in range(200):
            items = outcomes(
                [
                    (rng.choice(["yes", "no"]), rng.choice(["yes", "no"]))
                    for _ in range(rng.randint(1, 50))
                ]
            )
            tp = sum(1 for o in items if o.pred == "yes" and o.label == "yes")
            fp = sum(1 for o in items if o.pred == "yes" and o.label == "no")
            fn = sum(1 for o in items if o.pred == "no" and o.label == "yes")
            tn = sum(1 for o in items if o.pred == "no" and o.label == "no")
            assert confusion_counts(items) == (tp, fp, fn, tn)
            row = pope_metrics(items)
            assert row.accuracy == pytest.approx(100.0 * (tp + tn) / len(items), abs=1e-9)
            if row.precision + row.recall > 0:
                expected_f1 = 2 * row.precision * row.recall / (row.precision + row.recall)
                assert row.f1 == pytest.approx(expected_f1, abs=1e-9)

    def test_permutation_invariant(self):
        rng = random.Random(8)
        items = outcomes(
            [(rng.choice(["yes", "no"]), rng.choice(["yes", "no"])) for _ in range(40)]
        )
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert pope_metrics(items) == pope_metrics(shuffled)

    def test_outcome_validation(self):
        with pytest.raises(ValueError, match="pred"):
            BinaryOutcome(pred="maybe", label="yes")
        with pytest.raises(ValueError, match="label"):
            BinaryOutcome(pred="yes", label="1")

    def test_equals_if_else_reference(self):
        # Every field equal bit for bit, flags in order, against the metrics
        # written as one if/else block per 0/0 case.
        def reference(tp, fp, fn, tn):
            degenerate = []
            if tp + fp > 0:
                precision = 100.0 * tp / (tp + fp)
            else:
                precision = 0.0
                degenerate.append("precision")
            if tp + fn > 0:
                recall = 100.0 * tp / (tp + fn)
            else:
                recall = 0.0
                degenerate.append("recall")
            if precision + recall > 0:
                f1 = 2.0 * precision * recall / (precision + recall)
            else:
                f1 = 0.0
                degenerate.append("f1")
            accuracy = 100.0 * (tp + tn) / (tp + fp + fn + tn)
            return MetricsRow(accuracy, precision, recall, f1, tuple(degenerate))

        for counts in itertools.product(range(5), repeat=4):
            if not any(counts):
                continue
            tp, fp, fn, tn = counts
            items = outcomes(
                [("yes", "yes")] * tp + [("yes", "no")] * fp
                + [("no", "yes")] * fn + [("no", "no")] * tn
            )
            assert confusion_counts(items) == counts
            row, expected = pope_metrics(items), reference(*counts)
            assert row == expected and repr(row) == repr(expected), counts
            assert json.dumps(row.to_json_dict()) == json.dumps(expected.to_json_dict())


class TestAutohallusion:
    def test_all_correct(self):
        result = autohallusion_aggregate([("synthetic", True), ("real", True)])
        assert result == {"overall": 100.0, "synthetic": 100.0, "real": 100.0}

    def test_direct_count(self):
        result = autohallusion_aggregate(
            [("synthetic", True), ("synthetic", False), ("real", True), ("real", True)]
        )
        assert result["synthetic"] == pytest.approx(50.0)
        assert result["real"] == pytest.approx(100.0)
        assert result["overall"] == pytest.approx(75.0)

    def test_empty_scenario_absent(self):
        result = autohallusion_aggregate([("synthetic", True), ("synthetic", False)])
        assert result["real"] is None
        assert result["overall"] == result["synthetic"] == pytest.approx(50.0)

    def test_item_weighted_vs_scenario_mean(self):
        results = [("synthetic", True), ("real", True), ("real", False), ("real", False)]
        item_weighted = autohallusion_aggregate(results)
        assert item_weighted["overall"] == pytest.approx(50.0)
        mean = autohallusion_aggregate(results, scenario_mean=True)
        assert mean["overall"] == pytest.approx((100.0 + 100.0 / 3.0) / 2.0, abs=1e-9)

    def test_rejects_empty_and_unknown_scenario(self):
        with pytest.raises(ValueError, match="at least one"):
            autohallusion_aggregate([])
        with pytest.raises(ValueError, match="scenario must be one of"):
            autohallusion_aggregate([("synthetic", True), ("mixed", False)])


class TestAvgMetric:
    @pytest.mark.parametrize("f1,overall,expected", FROZEN_AVG_PAIRS)
    def test_frozen_pairs(self, f1, overall, expected):
        assert avg_metric(f1, overall) == pytest.approx(expected, abs=0.05 + 1e-9)

    def test_exact_mean(self):
        assert avg_metric(80.0, 60.0) == pytest.approx(70.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="pope_f1"):
            avg_metric(100.5, 50.0)
        with pytest.raises(ValueError, match="autohallusion_overall"):
            avg_metric(50.0, -0.1)


class TestOutcomeIO:
    def test_binary_round_trip(self, tmp_path):
        text = '{"pred": "yes", "label": "no"}\n{"pred": "no", "label": "no"}\n'
        path = tmp_path / "outcomes.jsonl"
        path.write_text(text, encoding="utf-8")
        loaded = load_binary_outcomes(path)
        assert loaded == [BinaryOutcome("yes", "no"), BinaryOutcome("no", "no")]

    def test_binary_line_numbered_errors(self):
        with pytest.raises(DatasetError, match="line 2"):
            loads_binary_outcomes('{"pred": "yes", "label": "no"}\n{"pred": "up"}\n')
        with pytest.raises(DatasetError, match="line 1.*missing field"):
            loads_binary_outcomes('{"pred": "yes"}\n')
        with pytest.raises(DatasetError, match="no entries"):
            loads_binary_outcomes("\n")

    def test_scenario_loader(self):
        text = '{"scenario": "synthetic", "correct": true}\n{"scenario": "real", "correct": false}\n'
        assert loads_scenario_results(text) == [("synthetic", True), ("real", False)]

    def test_scenario_errors(self):
        with pytest.raises(DatasetError, match="line 1.*scenario must be one of"):
            loads_scenario_results('{"scenario": "cgi", "correct": true}\n')
        with pytest.raises(DatasetError, match="line 1.*boolean"):
            loads_scenario_results('{"scenario": "real", "correct": "yes"}\n')
