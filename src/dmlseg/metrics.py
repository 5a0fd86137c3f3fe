"""Evaluation: mean IoU plus region-consistency diagnostics.

Wrong class counts how many classes an image's prediction contains that
its ground truth does not; wrong label counts the pixels assigned to
those classes.  Both are reported as per-image means.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, UsageError
from .gt_gen import IGNORE


@dataclass
class EvalReport:
    num_classes: int
    confusion: np.ndarray = field(default=None)  # (K, K) rows=gt, cols=pred
    wrong_class_sum: int = 0
    wrong_label_sum: int = 0
    image_count: int = 0
    per_class_iou: list = field(default_factory=list)
    mean_iou: float = float("nan")
    mean_wrong_class: float = float("nan")
    mean_wrong_label: float = float("nan")

    def __post_init__(self):
        if self.confusion is None:
            self.confusion = np.zeros((self.num_classes, self.num_classes), dtype=np.int64)

    def pixel_accuracy(self) -> float:
        total = self.confusion.sum()
        return float(np.diag(self.confusion).sum() / total) if total else float("nan")


def accumulate(pred: np.ndarray, gt: np.ndarray, report: EvalReport) -> EvalReport:
    """Fold one image pair into the running report.  Ignore pixels in gt
    are excluded from every statistic.

    One bincount gives the image's confusion counts: its gt classes are
    the nonzero rows, its predicted classes the nonzero columns, and a
    wrong class is a nonzero column whose row is empty."""
    if pred.shape != gt.shape:
        raise DataError(f"prediction shape {pred.shape} != ground truth {gt.shape}")
    k = report.num_classes
    valid = gt != IGNORE
    g = gt[valid].astype(np.int64)
    p = pred[valid].astype(np.int64)
    if g.size:
        if g.max() >= k:
            raise DataError(f"ground-truth class {int(g.max())} outside 0..{k - 1}")
        if p.max() >= k:
            raise DataError(f"predicted class {int(p.max())} outside 0..{k - 1}")
    counts = np.bincount(g * k + p, minlength=k * k).reshape(k, k)
    report.confusion += counts
    predicted = counts.sum(axis=0)
    wrong = (predicted > 0) & (counts.sum(axis=1) == 0)
    report.wrong_class_sum += int(wrong.sum())
    report.wrong_label_sum += int(predicted[wrong].sum())
    report.image_count += 1
    return report


def finalize(report: EvalReport) -> EvalReport:
    """Compute per-class IoU and per-image means.  Classes absent from
    both prediction and ground truth have undefined IoU and are excluded
    from the mean."""
    if report.image_count < 1:
        raise UsageError("finalize on an empty report")
    conf = report.confusion
    tp = np.diag(conf).astype(np.float64)
    denom = conf.sum(axis=1) + conf.sum(axis=0) - np.diag(conf)
    iou = np.where(denom > 0, tp / np.maximum(denom, 1), np.nan)
    report.per_class_iou = iou.tolist()
    defined = ~np.isnan(iou)
    report.mean_iou = float(iou[defined].mean()) if defined.any() else float("nan")
    report.mean_wrong_class = report.wrong_class_sum / report.image_count
    report.mean_wrong_label = report.wrong_label_sum / report.image_count
    return report


def report_csv(report: EvalReport) -> str:
    """Per-class rows followed by a summary row."""
    lines = ["class,iou"]
    for c, v in enumerate(report.per_class_iou):
        lines.append(f"{c},{'' if np.isnan(v) else f'{v:.6f}'}")
    lines.append(f"mean,{report.mean_iou:.6f}")
    lines.append("metric,value")
    lines.append(f"mean_wrong_class,{report.mean_wrong_class:.6f}")
    lines.append(f"mean_wrong_label,{report.mean_wrong_label:.6f}")
    lines.append(f"image_count,{report.image_count}")
    return "\n".join(lines) + "\n"


def report_table(report: EvalReport, name: str = "model") -> str:
    """Plain-text summary with IOU as a percentage, wrong counts as
    per-image means."""
    header = f"{'Model':<16}{'IOU':>8}{'#Wrong class':>14}{'#Wrong label':>14}"
    row = (f"{name:<16}{100 * report.mean_iou:>8.2f}"
           f"{report.mean_wrong_class:>14.3f}{report.mean_wrong_label:>14.1f}")
    return header + "\n" + row + "\n"
