import numpy as np
import pytest

from dmlseg.errors import DataError, UsageError
from dmlseg.gt_gen import IGNORE
from dmlseg.metrics import EvalReport, accumulate, finalize, report_csv, report_table

from reference import iou_from_confusion, seg_metrics_loops


def test_perfect_prediction():
    rng = np.random.default_rng(0)
    mask = rng.integers(0, 3, size=(8, 8)).astype(np.uint8)
    report = finalize(accumulate(mask, mask, EvalReport(num_classes=4)))
    assert report.mean_wrong_class == 0
    assert report.mean_wrong_label == 0
    for c in range(3):
        assert report.per_class_iou[c] == pytest.approx(1.0)
    assert np.isnan(report.per_class_iou[3])  # absent everywhere -> undefined
    assert report.mean_iou == pytest.approx(1.0)


def test_extra_predicted_classes_counted():
    gt = np.zeros((6, 6), dtype=np.uint8)
    gt[0:2] = 1
    gt[2:4] = 2
    pred = gt.copy()
    pred[5, 5] = 3
    pred[5, 4] = 4
    pred[4, 4] = 4
    report = finalize(accumulate(pred, gt, EvalReport(num_classes=5)))
    assert report.mean_wrong_class == 2
    assert report.mean_wrong_label == 3


def test_random_pairs_match_loop_oracle():
    rng = np.random.default_rng(1)
    k = 5
    for _ in range(25):
        gt = rng.integers(0, k, size=(9, 9)).astype(np.uint8)
        gt[rng.random((9, 9)) < 0.15] = IGNORE
        pred = rng.integers(0, k, size=(9, 9)).astype(np.uint8)
        report = finalize(accumulate(pred, gt, EvalReport(num_classes=k)))
        confusion, wrong_class, wrong_label = seg_metrics_loops(pred, gt, k)
        assert np.array_equal(report.confusion, confusion)
        assert report.mean_wrong_class == wrong_class
        assert report.mean_wrong_label == wrong_label
        expect_iou = iou_from_confusion(confusion)
        for got, want in zip(report.per_class_iou, expect_iou):
            if np.isnan(want):
                assert np.isnan(got)
            else:
                assert got == pytest.approx(want)


def _oracle_pair(rng, case, k):
    """One (pred, gt) pair of the given kind, with predictions >= k (and
    up to 255) at ignore pixels, which no statistic may see."""
    h, w = (int(v) for v in rng.integers(1, 13, size=2))
    # case 3 draws gt from the lower half of the classes, so most
    # predictions fall in classes the gt does not hold
    top = max(1, k // 2) if case == 3 else k
    gt = rng.integers(0, top, size=(h, w)).astype(np.uint8)
    if case == 1:  # a single gt class
        gt[:] = rng.integers(0, k)
    gt[rng.random((h, w)) < 0.2] = IGNORE
    if case == 2:  # all ignore
        gt[:] = IGNORE
    pred = rng.integers(0, k, size=(h, w)).astype(np.uint8)
    ignore = gt == IGNORE
    pred[ignore] = rng.integers(k, 256, size=int(ignore.sum()))
    return pred, gt


def test_accumulate_matches_loop_oracle_on_edge_cases():
    rng = np.random.default_rng(7)
    for i in range(240):
        k = int(rng.integers(1, 21))
        pred, gt = _oracle_pair(rng, i % 4, k)
        report = accumulate(pred, gt, EvalReport(num_classes=k))
        confusion, wrong_class, wrong_label = seg_metrics_loops(pred, gt, k)
        assert np.array_equal(report.confusion, confusion)
        assert report.wrong_class_sum == wrong_class
        assert report.wrong_label_sum == wrong_label


def test_means_are_per_image():
    gt = np.zeros((4, 4), dtype=np.uint8)
    pred_a = gt.copy()
    pred_a[0, :2] = 1
    pred_a[1, :2] = 2  # 2 wrong classes, 4 wrong pixels
    pred_b = gt.copy()
    pred_b[0, :4] = 1
    pred_b[1, :4] = 2
    pred_b[2, :4] = 3
    pred_b[3, :4] = 4  # 4 wrong classes, 16 wrong pixels
    report = EvalReport(num_classes=5)
    accumulate(pred_a, gt, report)
    accumulate(pred_b, gt, report)
    report = finalize(report)
    assert report.image_count == 2
    assert report.mean_wrong_class == pytest.approx(3.0)
    assert report.mean_wrong_label == pytest.approx(10.0)


def test_order_independence():
    rng = np.random.default_rng(2)
    pairs = []
    for _ in range(10):
        gt = rng.integers(0, 4, size=(6, 6)).astype(np.uint8)
        pred = rng.integers(0, 4, size=(6, 6)).astype(np.uint8)
        pairs.append((pred, gt))
    fwd = EvalReport(num_classes=4)
    rev = EvalReport(num_classes=4)
    for pred, gt in pairs:
        accumulate(pred, gt, fwd)
    for pred, gt in reversed(pairs):
        accumulate(pred, gt, rev)
    fwd, rev = finalize(fwd), finalize(rev)
    assert np.array_equal(fwd.confusion, rev.confusion)
    assert fwd.mean_wrong_class == rev.mean_wrong_class
    assert fwd.mean_wrong_label == rev.mean_wrong_label


def test_bounds_invariants():
    rng = np.random.default_rng(3)
    k = 6
    for _ in range(10):
        gt = rng.integers(0, k, size=(7, 7)).astype(np.uint8)
        gt[rng.random((7, 7)) < 0.3] = IGNORE
        pred = rng.integers(0, k, size=(7, 7)).astype(np.uint8)
        report = finalize(accumulate(pred, gt, EvalReport(num_classes=k)))
        valid = int((gt != IGNORE).sum())
        assert report.wrong_label_sum <= valid
        assert report.wrong_class_sum <= k
        assert report.confusion.sum() == valid


def test_confusion_row_col_sums():
    rng = np.random.default_rng(4)
    gt = rng.integers(0, 3, size=(10, 10)).astype(np.uint8)
    pred = rng.integers(0, 3, size=(10, 10)).astype(np.uint8)
    report = accumulate(pred, gt, EvalReport(num_classes=3))
    for c in range(3):
        assert report.confusion[c].sum() == (gt == c).sum()
        assert report.confusion[:, c].sum() == (pred == c).sum()


def test_shape_mismatch_raises():
    with pytest.raises(DataError):
        accumulate(np.zeros((2, 2), dtype=np.uint8), np.zeros((3, 3), dtype=np.uint8),
                   EvalReport(num_classes=2))


def test_empty_finalize_raises():
    with pytest.raises(UsageError):
        finalize(EvalReport(num_classes=2))


def test_report_rendering():
    gt = np.zeros((4, 4), dtype=np.uint8)
    report = finalize(accumulate(gt, gt, EvalReport(num_classes=2)))
    csv = report_csv(report)
    assert csv.startswith("class,iou\n0,1.000000\n1,\n")
    assert "mean_wrong_class,0.000000" in csv
    table = report_table(report, "baseline")
    assert "IOU" in table and "#Wrong class" in table and "baseline" in table
