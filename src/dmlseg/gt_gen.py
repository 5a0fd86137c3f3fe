"""Ground truth for dense multi-label supervision.

A segmentation mask is turned into per-class binary channels, then each
channel is dilated with a centered window (sliding max, borders clipped)
and sampled on the coarser grid the multi-label heads predict on.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError

IGNORE = 255


def check_labels(mask: np.ndarray, num_classes: int) -> None:
    """Raise DataError naming the first pixel of an (H, W) mask whose value
    is neither a class below `num_classes` nor IGNORE."""
    bad = (mask >= num_classes) & (mask != IGNORE)
    if bad.any():
        y, x = np.argwhere(bad)[0]
        raise DataError(f"mask value {int(mask[y, x])} at pixel ({y}, {x}) "
                        f"is outside 0..{num_classes - 1}")


def binarize_channels(mask: np.ndarray, num_classes: int) -> np.ndarray:
    """(H, W) class indices -> (K, H, W) {0,1} stack; ignore is 0 everywhere."""
    check_labels(mask, num_classes)
    return (mask[None, :, :] == np.arange(num_classes)[:, None, None]).astype(np.uint8)


def dilate_window(binary: np.ndarray, window: int, out_stride: int) -> np.ndarray:
    """Per-channel window max, centered, clipped at borders, strided output.

    Output cell (r, c) looks at the window centered on mask pixel
    (r*s + (s-1)//2, c*s + (s-1)//2).  Zero padding is equivalent to
    clipping for binary input.
    """
    if window % 2 == 0 or window < 1:
        raise ConfigError(f"dilation window must be odd and positive, got {window}")
    k, h, w = binary.shape
    if h % out_stride or w % out_stride:
        raise ConfigError(f"mask size {h}x{w} not divisible by stride {out_stride}")
    half = (window - 1) // 2
    off = (out_stride - 1) // 2
    padded = np.zeros((k, h + 2 * half, w + 2 * half), dtype=binary.dtype)
    padded[:, half:half + h, half:half + w] = binary
    h_out, w_out = h // out_stride, w // out_stride
    # separable max over the kept cells only: rows, then columns, each a
    # (window, out) view whose first window starts at `off`; the ndarray
    # constructor checks each view against its buffer's bounds
    sk, sh, sw = padded.strides
    rows = np.ndarray((k, h_out, window, w + 2 * half), padded.dtype, buffer=padded,
                      offset=off * sh, strides=(sk, sh * out_stride, sh, sw)).max(axis=2)
    rk, rh, rw = rows.strides
    return np.ndarray((k, h_out, window, w_out), rows.dtype, buffer=rows,
                      offset=off * rw, strides=(rk, rh, rw, rw * out_stride)).max(axis=2)


def effective_window(window: int, stride: int) -> int:
    """Mask-grid extent of a window defined on a grid `stride` times coarser.

    A window of w cells spans stride*w pixels; the centered odd window
    closest to that extent is stride*w - 1 when the stride is even.
    """
    return stride * window if stride % 2 else stride * window - 1


def downsample_mask(mask: np.ndarray, factor: int, num_classes: int) -> np.ndarray:
    """Majority-vote decimation; ignore excluded, ties to the lowest class,
    all-ignore cells stay ignore.  A label that is neither a class below
    `num_classes` nor ignore is a DataError."""
    check_labels(mask, num_classes)
    h, w = mask.shape
    if h % factor or w % factor:
        raise ConfigError(f"mask size {h}x{w} not divisible by factor {factor}")
    blocks = (mask.reshape(h // factor, factor, w // factor, factor)
                  .transpose(0, 2, 1, 3)
                  .reshape(h // factor, w // factor, factor * factor))
    counts = np.stack([(blocks == c).sum(axis=2) for c in range(num_classes)])
    out = counts.argmax(axis=0).astype(mask.dtype)
    out[counts.sum(axis=0) == 0] = IGNORE
    return out


def multilabel_from_grid_mask(grid_mask: np.ndarray, config) -> list[np.ndarray]:
    """One (K, H_dml, W_dml) presence target per level from a mask already
    decimated to the backbone output grid; window sizes are defined on the
    multi-label grid and mapped to their extent on this one."""
    s = config.dml_extra_stride
    h, w = grid_mask.shape
    if h % s or w % s:
        raise ConfigError(f"grid mask {h}x{w} not divisible by extra stride {s}")
    binary = binarize_channels(grid_mask, config.num_classes)
    return [dilate_window(binary, effective_window(wj, s), s)
            for wj in config.window_sizes]
