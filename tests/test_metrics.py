import math
import random

import pytest

from driftfilter.cli import TABLE_COLUMNS, emit_report
from driftfilter.metrics import (
    ConfusionMatrix, MetricsError, MetricsReport, confusion, roc_points,
    write_roc_tsv,
)

import oracles


class TestConfusion:
    def test_all_correct(self):
        cm = confusion([1, -1, 1], [1, -1, 1])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 0, 0)

    def test_all_flipped(self):
        cm = confusion([-1, 1, -1], [1, -1, 1])
        assert (cm.tp, cm.tn) == (0, 0)
        assert (cm.fp, cm.fn) == (1, 2)

    def test_hand_tally(self):
        preds = [1, 1, -1, -1, 1, -1, 1, -1, 1, -1]
        truth = [1, -1, 1, -1, 1, -1, 1, 1, -1, -1]
        cm = confusion(preds, truth)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (3, 3, 2, 2)

    def test_length_mismatch(self):
        with pytest.raises(MetricsError, match="mismatch"):
            confusion([1], [1, -1])


measures = MetricsReport.from_confusion


class TestRates:
    def test_hand_example(self):
        report = measures(ConfusionMatrix(tp=3, tn=5, fp=1, fn=1))
        assert report.accuracy == 0.8
        assert report.fpr == 1 / 6
        assert report.fnr == 0.25

    def test_perfect(self):
        report = measures(ConfusionMatrix(tp=4, tn=6))
        assert (report.accuracy, report.fpr, report.fnr) == (1.0, 0.0, 0.0)

    def test_absent_fpr(self):
        report = measures(ConfusionMatrix(tp=3, fn=1))
        assert report.fpr is None
        assert report.fnr == 0.25

    def test_empty_error(self):
        with pytest.raises(MetricsError):
            measures(ConfusionMatrix())

    def test_accuracy_identity(self):
        rng = random.Random(2)
        for _ in range(100):
            cm = ConfusionMatrix(*(rng.randint(0, 20) for _ in range(4)))
            if cm.total == 0:
                continue
            accuracy = measures(cm).accuracy
            assert abs(accuracy - (1 - (cm.fp + cm.fn) / cm.total)) <= 1e-15

    def test_fpr_specificity_identity(self):
        rng = random.Random(3)
        for _ in range(100):
            cm = ConfusionMatrix(*(rng.randint(0, 20) for _ in range(4)))
            if cm.n_legit == 0:
                continue
            fpr = measures(cm).fpr
            assert abs(fpr + cm.tn / cm.n_legit - 1.0) <= 1e-15


class TestFMeasures:
    def test_micro_equals_p_when_p_equals_r(self):
        report = measures(ConfusionMatrix(tp=3, tn=5, fp=1, fn=1))
        assert report.micro_f1 == 0.75  # P == R == 0.75

    def test_perfect(self):
        report = measures(ConfusionMatrix(tp=4, tn=6))
        assert (report.micro_f1, report.macro_f1) == (1.0, 1.0)

    def test_hand_macro(self):
        report = measures(ConfusionMatrix(tp=3, tn=5, fp=1, fn=1))
        assert report.micro_f1 == 0.75
        # legitimate class: P = 5/6, R = 5/6 -> F1 = 5/6
        assert abs(report.macro_f1 - (0.75 + 5 / 6) / 2) <= 1e-12

    def test_zero_denominator(self):
        report = measures(ConfusionMatrix(tn=3, fn=2))  # nothing predicted spam, no tp
        assert report.micro_f1 == 0.0

    def test_empty_rejected(self):
        with pytest.raises(MetricsError, match="empty confusion matrix"):
            measures(ConfusionMatrix())


class TestMcc:
    def test_perfect(self):
        assert measures(ConfusionMatrix(tp=4, tn=6)).mcc == 1.0

    def test_inverted(self):
        assert measures(ConfusionMatrix(fp=6, fn=4)).mcc == -1.0

    def test_hand_example(self):
        value = measures(ConfusionMatrix(tp=3, tn=5, fp=1, fn=1)).mcc
        assert abs(value - 14 / 24) <= 1e-12

    def test_zero_denominator_zero(self):
        assert measures(ConfusionMatrix(tp=3, fn=1)).mcc == 0.0

    def test_empty_rejected(self):
        with pytest.raises(MetricsError, match="empty confusion matrix"):
            measures(ConfusionMatrix())

    def test_swap_invariance(self):
        rng = random.Random(4)
        for _ in range(100):
            cm = ConfusionMatrix(*(rng.randint(0, 15) for _ in range(4)))
            if cm.total == 0:
                continue
            swapped = ConfusionMatrix(tp=cm.tn, tn=cm.tp, fp=cm.fn, fn=cm.fp)
            assert abs(measures(cm).mcc - measures(swapped).mcc) <= 1e-12


class TestMetricsReport:
    def test_round_numbers(self):
        report = MetricsReport.from_confusion(ConfusionMatrix(tp=3, tn=5, fp=1, fn=1))
        assert report.accuracy == 0.8
        assert report.micro_f1 == 0.75
        assert abs(report.mcc - 14 / 24) <= 1e-12

    def test_precision_and_recall_per_class(self):
        report = measures(ConfusionMatrix(tp=3, tn=4, fp=2, fn=1))
        assert (report.precision_spam, report.recall_spam) == (3 / 5, 3 / 4)
        assert (report.precision_legit, report.recall_legit) == (4 / 5, 4 / 6)
        # No mail predicted legitimate: that class's precision is 0, not an error.
        report = measures(ConfusionMatrix(tp=2, fp=3))
        assert (report.precision_legit, report.recall_legit) == (0.0, 0.0)
        assert report.fnr == 0.0

    def test_absent_rate_serializes_empty(self, tmp_path):
        # No legitimate mail: the FPR is undefined, and results.csv renders
        # it as an empty cell.
        report = MetricsReport.from_confusion(ConfusionMatrix(tp=3, fn=1))
        assert report.fpr is None
        row = dict.fromkeys(TABLE_COLUMNS) | {
            "accuracy": report.accuracy, "avg_fpr": report.fpr,
        }
        emit_report((row,), tmp_path)
        header, line = (tmp_path / "results.csv").read_text(encoding="utf-8").splitlines()
        cells = dict(zip(header.split(","), line.split(",")))
        assert cells["avg_fpr"] == ""
        assert cells["accuracy"] == "0.75"


class TestRoc:
    def test_perfect_separation(self):
        points = roc_points([2.0, 1.5, -1.0, -2.0], [1, 1, -1, -1])
        assert points == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

    def test_identical_scores(self):
        points = roc_points([0.5, 0.5, 0.5, 0.5], [1, -1, 1, -1])
        assert points == [(0.0, 0.0), (1.0, 1.0)]

    def test_tpr_monotone(self):
        rng = random.Random(5)
        scores = [rng.uniform(-2, 2) for _ in range(50)]
        truths = [rng.choice((1, -1)) for _ in range(50)]
        truths[0], truths[1] = 1, -1
        points = roc_points(scores, truths)
        tprs = [tpr for _, tpr in points]
        assert tprs == sorted(tprs)
        fprs = [fpr for fpr, _ in points]
        assert fprs == sorted(fprs)

    def test_single_class_error(self):
        with pytest.raises(MetricsError):
            roc_points([1.0, 2.0], [1, 1])

    def test_nan_score_error(self):
        # A NaN equals no threshold, so the sweep would never pass it.
        with pytest.raises(MetricsError, match="NaN"):
            roc_points([1.0, math.nan, -1.0], [1, -1, -1])

    def test_length_mismatch_error(self):
        with pytest.raises(MetricsError, match="2 scores, 3 truths"):
            roc_points([1.0, 2.0], [1, -1, 1])

    def test_auc_matches_pair_count_oracle(self):
        rng = random.Random(6)
        scores = [rng.choice((-1.5, -0.5, 0.0, 0.5, 1.5)) for _ in range(20)]
        truths = [rng.choice((1, -1)) for _ in range(20)]
        truths[0], truths[1] = 1, -1
        points = roc_points(scores, truths)
        assert abs(oracles.auc(points) - oracles.wilcoxon_auc(scores, truths)) <= 1e-9

    def test_auc_oracle_continuous_scores(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(5, 30)
            scores = [rng.gauss(0, 1) for _ in range(n)]
            truths = [rng.choice((1, -1)) for _ in range(n)]
            truths[0], truths[1] = 1, -1
            points = roc_points(scores, truths)
            assert abs(oracles.auc(points) - oracles.wilcoxon_auc(scores, truths)) <= 1e-9

    def test_tsv_output(self, tmp_path):
        points = roc_points([2.0, -1.0], [1, -1])
        path = tmp_path / "out.roc.tsv"
        write_roc_tsv(points, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "fpr\ttpr"
        assert lines[1] == "0.0\t0.0"
