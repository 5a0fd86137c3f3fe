"""Ground truth for dense multi-label supervision.

A segmentation mask is decimated to the backbone grid; then, per class,
the presence of that class in a centered window (borders clipped) is
sampled on the coarser grid the multi-label heads predict on.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError

IGNORE = 255


def check_labels(mask: np.ndarray, num_classes: int) -> None:
    """Raise DataError naming the first pixel of an (H, W) mask, or of the
    first mask of an (N, H, W) stack, whose value is neither a class below
    `num_classes` nor IGNORE."""
    bad = (mask >= num_classes) & (mask != IGNORE)
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        y, x = at[-2:]
        raise DataError(f"mask value {int(mask[at])} at pixel ({y}, {x}) "
                        f"is outside 0..{num_classes - 1}")


def _kept_spans(n: int, window: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """(start, end) of the border-clipped window centered on each kept cell
    r*stride + (stride-1)//2 of an axis of n cells."""
    half = (window - 1) // 2
    centers = np.arange((stride - 1) // 2, n, stride)
    return np.maximum(centers - half, 0), np.minimum(centers + half + 1, n)


def dilate_window(labels: np.ndarray, windows, out_stride: int,
                  num_classes: int) -> np.ndarray:
    """Per-class presence in centered windows, clipped at borders, strided.

    `labels` is an (H, W) label grid or any stack of them; the output is
    (..., J, K, H/s, W/s) uint8.  Cell (r, c) of level j, channel k is 1 when
    label k lies in the window of `windows[j]` centered on pixel
    (r*s + (s-1)//2, c*s + (s-1)//2); a label outside 0..K-1, IGNORE
    included, belongs to no class.  The window holds k when its count of k
    is positive, taken from prefix sums down the columns, made once per class
    for all levels, and then along the kept rows.  One class is done at a
    time, so the temporaries grow with neither K nor J.
    """
    for window in windows:
        if window % 2 == 0 or window < 1:
            raise ConfigError(f"dilation window must be odd and positive, got {window}")
    *lead, h, w = labels.shape
    if h % out_stride or w % out_stride:
        raise ConfigError(f"mask size {h}x{w} not divisible by stride {out_stride}")
    count = np.min_scalar_type(max(h, w))  # no prefix sum exceeds a side
    spans = [(_kept_spans(h, v, out_stride), _kept_spans(w, v, out_stride)) for v in windows]
    out = np.empty((*lead, len(spans), num_classes, h // out_stride, w // out_stride), np.uint8)
    down = np.zeros((*lead, h + 1, w), count)
    across = np.zeros((*lead, h // out_stride, w + 1), count)
    for k in range(num_classes):
        np.cumsum(labels == k, axis=-2, dtype=count, out=down[..., 1:, :])
        for j, ((row_start, row_end), (col_start, col_end)) in enumerate(spans):
            hit = np.take(down, row_end, axis=-2) > np.take(down, row_start, axis=-2)
            np.cumsum(hit, axis=-1, dtype=count, out=across[..., 1:])
            np.greater(np.take(across, col_end, axis=-1),
                       np.take(across, col_start, axis=-1), out=out[..., j, k, :, :])
    return out


def effective_window(window: int, stride: int) -> int:
    """Mask-grid extent of a window defined on a grid `stride` times coarser.

    A window of w cells spans stride*w pixels; the centered odd window
    closest to that extent is stride*w - 1 when the stride is even.
    """
    return stride * window if stride % 2 else stride * window - 1


def downsample_mask(mask: np.ndarray, factor: int, num_classes: int) -> np.ndarray:
    """Majority-vote decimation of an (H, W) mask or an (N, H, W) stack;
    ignore excluded, ties to the lowest class, all-ignore cells stay ignore.
    A label that is neither a class below `num_classes` nor ignore is a
    DataError."""
    check_labels(mask, num_classes)
    *lead, h, w = mask.shape
    if h % factor or w % factor:
        raise ConfigError(f"mask size {h}x{w} not divisible by factor {factor}")
    ho, wo = h // factor, w // factor
    out = np.full((*lead, ho, wo), IGNORE, dtype=mask.dtype)
    count = np.min_scalar_type(factor * factor)
    best = np.zeros(out.shape, count)
    for c in range(num_classes):
        # votes per cell: the block's rows summed, then its columns, each
        # by adding strided slices; on 112 96x96 masks at factor 4 this
        # takes 5.4 ms against 40 ms for one .sum(axis=(-3, -1)) over the
        # (N, ho, f, wo, f) view (2-core x86, numpy 2.4)
        hits = (mask == c).view(np.uint8).reshape(*lead, ho, factor, w)
        rows = hits[..., 0, :].astype(count)
        for i in range(1, factor):
            rows += hits[..., i, :]
        rows = rows.reshape(*lead, ho, wo, factor)
        votes = rows[..., 0].copy()
        for i in range(1, factor):
            votes += rows[..., i]
        wins = votes > best  # strict: a tie keeps the lower class
        out[wins] = c
        best[wins] = votes[wins]
    return out


def multilabel_from_grid_mask(grid_mask: np.ndarray, config) -> np.ndarray:
    """(J, K, H_dml, W_dml) presence targets, all levels in one pass, from a
    mask already decimated to the backbone output grid, or (N, J, K, H_dml,
    W_dml) from an (N, H, W) stack of them; window sizes are defined on the
    multi-label grid and mapped to their extent on this one.  A label that
    is neither a class below `num_classes` nor IGNORE is a DataError."""
    s = config.dml_extra_stride
    h, w = grid_mask.shape[-2:]
    if h % s or w % s:
        raise ConfigError(f"grid mask {h}x{w} not divisible by extra stride {s}")
    check_labels(grid_mask, config.num_classes)
    return dilate_window(grid_mask, [effective_window(wj, s) for wj in config.window_sizes],
                         s, config.num_classes)


def check_targets(grids: np.ndarray, targets: np.ndarray, config, count: int) -> None:
    """Raise ConfigError unless `grids` and `targets` are `count` images'
    (Hg, Wg) and (J, K, Hd, Wd) stacks for `config`, and DataError naming
    the pixel of a grid label that is neither a class below K nor IGNORE."""
    want = (count, *config.seg_grid), (count, config.levels, config.num_classes, *config.dml_grid)
    got = (np.shape(grids), np.shape(targets))
    if got != want:
        raise ConfigError(f"targets of shapes {got[0]} and {got[1]} do not fit "
                          f"{want[0]} and {want[1]}")
    check_labels(grids, config.num_classes)
