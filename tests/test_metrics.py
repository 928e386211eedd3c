import math

import numpy as np
import pytest

from icumort.errors import DataError, DimensionError
from icumort.metrics import (
    auc,
    auc_oracle,
    confusion,
    evaluate_scores,
    prf1,
    roc_curve_with_thresholds,
    write_report_csv,
    write_roc_csv,
)


def fpr_tpr(scores, labels):
    """The (fpr, tpr) points of the ROC sweep, without the thresholds."""
    return [p[:2] for p in roc_curve_with_thresholds(scores, labels)]


class TestConfusion:
    def test_basic_counts(self):
        assert confusion([0.9, 0.2], [1, 0], 0.5) == (1, 0, 1, 0)

    def test_score_equal_to_threshold_is_positive(self):
        assert confusion([0.5], [0], 0.5) == (0, 1, 0, 0)

    def test_all_positives_scored_zero(self):
        assert confusion([0.0] * 4, [1] * 4, 0.5) == (0, 0, 0, 4)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            confusion([0.1, 0.2], [1], 0.5)

    def test_bad_labels(self):
        with pytest.raises(DataError):
            confusion([0.1], [2], 0.5)


class TestPrf1:
    def test_exact_fractions(self):
        assert prf1(2, 1, 5, 2) == (2 / 3, 1 / 2, 4 / 7)

    def test_degenerate_zero_conventions(self):
        assert prf1(0, 0, 10, 0) == (0.0, 0.0, 0.0)
        assert prf1(0, 3, 10, 0) == (0.0, 0.0, 0.0)
        assert prf1(0, 0, 10, 3) == (0.0, 0.0, 0.0)

    def test_all_in_unit_interval_and_f1_zero_iff_p_or_r_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            tp, fp, tn, fn = (int(x) for x in rng.integers(0, 8, size=4))
            p, r, f1 = prf1(tp, fp, tn, fn)
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
            assert (f1 == 0.0) == (p == 0.0 or r == 0.0)


class TestRocCurve:
    def test_perfectly_separated_pair(self):
        assert fpr_tpr([0.9, 0.2], [1, 0]) == [(0, 0), (0, 1), (1, 1)]

    def test_all_scores_identical(self):
        assert fpr_tpr([0.5, 0.5, 0.5], [1, 0, 1]) == [(0, 0), (1, 1)]

    def test_hand_enumerated_sweep(self):
        scores = [0.9, 0.8, 0.8, 0.6, 0.4, 0.4]
        labels = [1, 1, 0, 1, 0, 0]
        expected = [
            (0.0, 0.0),
            (0.0, 1 / 3),      # t=0.9: one positive called
            (1 / 3, 2 / 3),    # t=0.8: tie block enters together
            (1 / 3, 1.0),      # t=0.6
            (1.0, 1.0),        # t=0.4
        ]
        assert fpr_tpr(scores, labels) == expected
        assert auc(expected) == pytest.approx(5 / 6, abs=1e-12)

    def test_thresholds_annotated_and_endpoints_blank(self):
        points = roc_curve_with_thresholds([0.9, 0.1, 0.5], [1, 0, 1])
        assert points[0] == (0.0, 0.0, None)
        assert points[-1][2] is not None or points[-1][:2] == (1.0, 1.0)
        interior = [p for p in points if p[2] is not None]
        assert [p[2] for p in interior] == sorted(
            (p[2] for p in interior), reverse=True
        )

    def test_monotone_in_both_coordinates(self):
        rng = np.random.default_rng(1)
        scores = rng.random(50).round(1)
        labels = rng.integers(0, 2, size=50)
        if len(set(labels.tolist())) < 2:
            labels[0] = 1 - labels[0]
        points = fpr_tpr(scores, labels)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            fpr_tpr([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(DataError, match="scores must be finite"):
            fpr_tpr([0.1, bad, 0.3], [1, 0, 1])
        with pytest.raises(DataError, match="scores must be finite"):
            evaluate_scores([0.1, bad, 0.3], [1, 0, 1])

    def test_matches_a_loop_reference(self):
        def reference(scores, labels):
            # One tie block at a time, in descending score order.
            order = np.argsort(-scores, kind="stable")
            n_pos = int(labels.sum())
            n_neg = labels.size - n_pos
            points, tp, fp, idx = [(0.0, 0.0, None)], 0, 0, 0
            while idx < scores.size:
                value = scores[order[idx]]
                while idx < scores.size and scores[order[idx]] == value:
                    tp += int(labels[order[idx]])
                    fp += 1 - int(labels[order[idx]])
                    idx += 1
                points.append((fp / n_neg, tp / n_pos, float(value)))
            return points

        rng = np.random.default_rng(3)
        for _ in range(300):
            size = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, size=size)
            labels[:2] = [0, 1]
            # Rounding to 0-2 decimals gives tie blocks of every size.
            scores = rng.random(size).round(int(rng.integers(0, 3)))
            assert (roc_curve_with_thresholds(scores, labels)
                    == reference(scores, labels))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc(roc_curve_with_thresholds([0.9, 0.8, 0.1], [1, 1, 0])) == 1.0

    def test_constant_scores_are_chance(self):
        assert auc(roc_curve_with_thresholds([0.4] * 6,
                                             [1, 0, 1, 0, 1, 0])) == 0.5
        assert auc_oracle([0.4] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_trapezoid_agrees_with_concordance_oracle(self):
        # 200 random instances with heavy ties; the two routes must agree to
        # machine precision.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 101))
            scores = rng.integers(0, 10, size=n) / 10.0
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert abs(auc(roc_curve_with_thresholds(scores, labels))
                       - auc_oracle(scores, labels)) < 1e-12

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(9)
        scores = rng.random(60)
        labels = rng.integers(0, 2, size=60)
        labels[0], labels[1] = 0, 1
        base = auc_oracle(scores, labels)
        assert auc_oracle(np.exp(3 * scores), labels) == pytest.approx(
            base, abs=1e-12
        )

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(10)
        scores = rng.integers(0, 5, size=40) / 4.0
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        assert auc_oracle(1.0 - scores, 1 - labels) == pytest.approx(
            auc_oracle(scores, labels), abs=1e-12
        )


class TestReportExport:
    def test_evaluate_scores_fields(self):
        report = evaluate_scores([0.9, 0.6, 0.2, 0.1], [1, 0, 1, 0], 0.5)
        assert report.n == 4
        assert report.positives == 2
        assert (report.tp, report.fp, report.tn, report.fn) == (1, 1, 1, 1)
        assert report.tp + report.fp + report.tn + report.fn == report.n
        assert report.auc == 0.75

    def test_roc_csv_format(self, tmp_path):
        path = tmp_path / "roc.csv"
        write_roc_csv(path, [0.9, 0.5, 0.1], [1, 1, 0])
        lines = path.read_text().splitlines()
        assert lines[0] == "fpr,tpr,threshold"
        assert lines[1] == "0,0,"
        assert len(lines) >= 4

    def test_report_csv_one_row_per_model_split(self, tmp_path):
        report = evaluate_scores([0.9, 0.1], [1, 0], 0.5)
        path = tmp_path / "report.csv"
        write_report_csv(path, [("LSTM", "test", report),
                                ("LogisticRegression", "test", report)])
        lines = path.read_text().splitlines()
        assert lines[0].startswith("model,split,n,positives")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "LSTM"

    def test_one_class_split_reports_nan_auc_and_counts(self):
        report = evaluate_scores([0.9, 0.6, 0.4, 0.1], [0, 0, 0, 0], 0.5)
        assert math.isnan(report.auc)
        assert (report.n, report.positives) == (4, 0)
        assert (report.tp, report.fp, report.tn, report.fn) == (0, 2, 2, 0)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)
        report = evaluate_scores([0.9, 0.2], [1, 1], 0.5)
        assert math.isnan(report.auc)
        assert (report.tp, report.fp, report.tn, report.fn) == (1, 0, 0, 1)

    def test_one_class_roc_csv_holds_only_the_header(self, tmp_path):
        path = tmp_path / "roc.csv"
        write_roc_csv(path, [0.9, 0.1], [1, 1])
        assert path.read_text() == "fpr,tpr,threshold\n"
