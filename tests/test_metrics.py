"""Saliency metrics against brute-force oracles: weighted F-measure, MAE,
threshold sweeps, and the CSV report."""

import csv

import numpy as np
import pytest

from poolnet.errors import ShapeError
from poolnet.metrics import (
    BETA2,
    N_THRESHOLDS,
    PRCurve,
    _threshold_bins,
    evaluate_pairs,
    f_measure,
    mae,
    max_f,
    pr_sweep,
    write_metrics_csv,
)


def random_pair(rng, size=8):
    saliency = rng.random((size, size))
    ground_truth = (rng.random((size, size)) < rng.uniform(0.0, 0.8)).astype(np.float64)
    return saliency, ground_truth


class TestFMeasure:
    def test_weighted_harmonic_value(self):
        # beta^2 = 0.3: F(0.8, 0.5) = 1.3 * 0.4 / (0.3 * 0.8 + 0.5)
        assert f_measure(0.8, 0.5) == pytest.approx(0.52 / 0.74, abs=1e-12)

    def test_zero_denominator_yields_zero(self):
        assert f_measure(0.0, 0.0) == 0.0

    def test_perfect_scores(self):
        assert f_measure(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_beta_weights_precision_over_recall(self):
        assert f_measure(0.9, 0.3) > f_measure(0.3, 0.9)

    @pytest.mark.parametrize("p,r", [(-0.1, 0.5), (0.5, 1.5)])
    def test_out_of_range_raises(self, p, r):
        with pytest.raises(ValueError):
            f_measure(p, r)

    def test_matches_oracle_on_grid(self, metric_oracles):
        for p in np.linspace(0.0, 1.0, 21):
            for r in np.linspace(0.0, 1.0, 21):
                assert f_measure(p, r) == pytest.approx(
                    metric_oracles["f_measure"](p, r), abs=1e-12)


class TestMae:
    def test_identical_maps_zero(self):
        x = np.full((4, 4), 0.25)
        assert mae(x, x) == 0.0

    def test_complement_maps_one(self):
        ones = np.ones((3, 3))
        assert mae(ones, np.zeros((3, 3))) == 1.0

    def test_matches_pixel_loop_oracle(self, metric_oracles):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s, g = rng.random((6, 6)), rng.random((6, 6))
            assert mae(s, g) == pytest.approx(metric_oracles["mae"](s, g), abs=1e-15)

    def test_out_of_range_values_raise(self):
        with pytest.raises(ValueError):
            mae(np.full((2, 2), 1.5), np.zeros((2, 2)))

    def test_non_finite_map_raises(self):
        nan_map = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="finite"):
            mae(nan_map, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            pr_sweep([(nan_map, np.zeros((2, 2)))])

    def test_non_2d_raises(self):
        with pytest.raises(ShapeError):
            mae(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("pixels,message", [
        ((0.5, np.nan), "be finite"), ((0.5, np.inf), "be finite"),
        ((0.5, -np.inf), "be finite"), ((2.0, np.nan), "be finite"),
        ((0.5, 1.5), "lie in [0, 1]"), ((-0.5, 0.5), "lie in [0, 1]"),
    ])
    def test_each_bad_map_names_its_fault(self, pixels, message):
        # a non-finite pixel beside an out-of-range one still reads as not finite
        ok, bad = np.zeros((1, 2)), np.array([pixels])
        for role, call in (("saliency map", lambda: mae(bad, ok)),
                           ("ground truth", lambda: mae(ok, bad)),
                           ("saliency map", lambda: pr_sweep([(bad, ok)])),
                           ("ground truth", lambda: pr_sweep([(ok, bad)]))):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"{role} values must {message}"


class TestThresholdBins:
    def test_match_binary_search_at_every_close_value(self, metric_oracles):
        thresholds = np.arange(N_THRESHOLDS, dtype=np.float64) / 255.0
        midpoints = (np.arange(N_THRESHOLDS - 1) + 0.5) / 255.0
        close = [thresholds, midpoints]
        for points, steps in ((thresholds, 2), (midpoints, 1)):
            for direction in (-np.inf, np.inf):
                near = points
                for _ in range(steps):
                    near = np.nextafter(near, direction)
                    close.append(near)
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([-0.0, 0.0, tiny, 2 * tiny, 1e-310, np.finfo(np.float64).tiny,
                            1.0 - 2.0 ** -53, 1.0])
        values = np.concatenate([*close, special])
        values = values[(values >= 0.0) & (values <= 1.0)]
        assert np.array_equal(_threshold_bins(values), metric_oracles["threshold_bins"](values))

    def test_match_binary_search_on_uniform_values(self, metric_oracles):
        rng = np.random.default_rng(255)
        for _ in range(4):
            values = rng.random(10**6)
            assert np.array_equal(_threshold_bins(values),
                                  metric_oracles["threshold_bins"](values))


class TestPrSweep:
    def test_threshold_grid(self):
        curve = pr_sweep([random_pair(np.random.default_rng(0))])
        assert N_THRESHOLDS == 256
        assert len(curve.thresholds) == 256
        assert curve.thresholds[0] == 0.0
        assert curve.thresholds[-1] == 1.0
        assert curve.thresholds[51] == 51 / 255.0

    def test_matches_confusion_count_oracle(self, metric_oracles):
        rng = np.random.default_rng(42)
        pairs = [random_pair(rng) for _ in range(3)]
        curve = pr_sweep(pairs)
        precision, recall, empty = metric_oracles["pr_curves"](pairs)
        assert np.max(np.abs(curve.precision - np.array(precision))) <= 1e-12
        assert np.max(np.abs(curve.recall - np.array(recall))) <= 1e-12
        assert curve.empty_gt_count == empty

    def test_randomized_trials_exact(self, metric_oracles):
        # unit-level slice of the 1000-trial oracle comparison
        rng = np.random.default_rng(2024)
        for _ in range(60):
            pairs = [random_pair(rng) for _ in range(rng.integers(1, 3))]
            curve = pr_sweep(pairs)
            precision, recall, _ = metric_oracles["pr_curves"](pairs)
            assert np.max(np.abs(curve.precision - np.array(precision))) <= 1e-12
            assert np.max(np.abs(curve.recall - np.array(recall))) <= 1e-12
            assert max_f(curve) == pytest.approx(
                metric_oracles["max_f"](precision, recall), abs=1e-12)

    def test_perfect_prediction(self):
        gt = np.zeros((8, 8))
        gt[2:6, 2:6] = 1.0
        curve = pr_sweep([(gt.copy(), gt)])
        # every threshold above 0 keeps exactly the positives
        assert np.all(curve.precision[1:] == 1.0)
        assert np.all(curve.recall == 1.0)
        assert max_f(curve) == pytest.approx(1.0, abs=1e-12)

    def test_recall_is_nonincreasing(self):
        curve = pr_sweep([random_pair(np.random.default_rng(5), size=16)])
        assert np.all(np.diff(curve.recall) <= 1e-15)

    def test_empty_prediction_scores_precision_one(self):
        gt = np.zeros((4, 4))
        gt[0, 0] = 1.0
        curve = pr_sweep([(np.zeros((4, 4)), gt)])
        # threshold above 0 predicts nothing: no false positives to punish
        assert np.all(curve.precision[1:] == 1.0)
        assert np.all(curve.recall[1:] == 0.0)

    def test_empty_ground_truth_excluded_from_recall(self):
        full = np.ones((4, 4))
        empty = np.zeros((4, 4))
        rng = np.random.default_rng(9)
        s1, s2 = rng.random((4, 4)), rng.random((4, 4))
        with_empty = pr_sweep([(s1, full), (s2, empty)])
        alone = pr_sweep([(s1, full)])
        assert with_empty.empty_gt_count == 1
        assert alone.empty_gt_count == 0
        # recall averages only over images that have positives
        assert np.array_equal(with_empty.recall, alone.recall)
        assert not np.array_equal(with_empty.precision, alone.precision)

    def test_per_image_averaging_differs_from_pooling(self):
        # a tiny image scored perfectly and a big one scored badly: averaging
        # per image weights them equally, pooling would not
        good_gt = np.ones((2, 2))
        bad_gt = np.zeros((8, 8))
        bad_gt[0, 0] = 1.0
        bad_pred = np.full((8, 8), 0.6)
        curve = pr_sweep([(np.ones((2, 2)), good_gt), (bad_pred, bad_gt)])
        k = 128  # threshold 128/255 ~ 0.502 < 0.6
        expected_image2_precision = 1.0 / 64.0
        assert curve.precision[k] == pytest.approx(
            (1.0 + expected_image2_precision) / 2.0, abs=1e-12)
        pooled = (4 + 1) / (4 + 64)
        assert abs(curve.precision[k] - pooled) > 0.1

    def test_duplicate_pairs_leave_averages_unchanged(self):
        pair = random_pair(np.random.default_rng(3))
        once = pr_sweep([pair])
        thrice = pr_sweep([pair, pair, pair])
        assert np.allclose(once.precision, thrice.precision, atol=1e-15)
        assert np.allclose(once.recall, thrice.recall, atol=1e-15)

    def test_empty_pair_list_raises(self):
        with pytest.raises(ValueError):
            pr_sweep([])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            pr_sweep([(np.zeros((4, 4)), np.zeros((4, 5)))])


class TestMaxF:
    def test_selects_best_threshold(self, metric_oracles):
        rng = np.random.default_rng(17)
        pairs = [random_pair(rng, size=12) for _ in range(2)]
        curve = pr_sweep(pairs)
        best = max(f_measure(p, r) for p, r in zip(curve.precision, curve.recall))
        assert max_f(curve) == best

    def test_out_of_range_point_raises(self):
        ones = np.ones(N_THRESHOLDS)
        for bad in (1.5, -0.1, np.nan):
            precision = ones.copy()
            precision[7] = bad
            with pytest.raises(ValueError, match="must lie in"):
                max_f(PRCurve(ones, precision, ones, 0))

    def test_inverted_prediction_scores_low(self):
        gt = np.zeros((8, 8))
        gt[:2] = 1.0
        inverted = 1.0 - gt
        curve = pr_sweep([(inverted, gt)])
        assert max_f(curve) < 0.6  # only the degenerate all-positive threshold helps


class TestEvaluatePairs:
    def test_bundles_max_f_and_mean_mae(self):
        rng = np.random.default_rng(23)
        pairs = [random_pair(rng) for _ in range(3)]
        record = evaluate_pairs(pairs)
        assert record.max_f == max_f(pr_sweep(pairs))
        assert record.mae == pytest.approx(
            np.mean([mae(s, g) for s, g in pairs]), abs=1e-15)

    def test_perfect_prediction_record(self):
        gt = np.zeros((6, 6))
        gt[1:4, 2:5] = 1.0
        record = evaluate_pairs([(gt.copy(), gt)])
        assert record.max_f == pytest.approx(1.0, abs=1e-12)
        assert record.mae == 0.0


class TestMetricsCsv:
    def test_report_layout_and_values(self, tmp_path):
        rng = np.random.default_rng(31)
        record = evaluate_pairs([random_pair(rng)])
        path = tmp_path / "metrics.csv"
        write_metrics_csv(record, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["max_f", "mae", "empty_gt_count"]
        assert float(rows[1][0]) == pytest.approx(record.max_f, abs=1e-6)
        assert float(rows[1][1]) == pytest.approx(record.mae, abs=1e-6)
        assert rows[2] == ["threshold", "precision", "recall"]
        assert len(rows) == 3 + 256
        assert float(rows[3][0]) == 0.0
        assert float(rows[-1][0]) == 1.0

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        rng = np.random.default_rng(37)
        record = evaluate_pairs([random_pair(rng)])
        path = tmp_path / "metrics.csv"
        write_metrics_csv(record, path)
        before = path.read_bytes()
        # the last curve point cannot be formatted, so the write fails midway
        record.pr_curve.precision = record.pr_curve.precision.astype(object)
        record.pr_curve.precision[-1] = None
        with pytest.raises(TypeError):
            write_metrics_csv(record, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]
