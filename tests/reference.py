"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive (nested loops, scalar math) and never
imports the implementation paths it is used to check.
"""

from __future__ import annotations

import math

import numpy as np

IGNORE = 255


def conv2d_loops(x, w, b, stride=1, dilation=1, padding=0):
    n, c_in, h, wdt = x.shape
    c_out, _, kh, kw = w.shape
    eff_h = (kh - 1) * dilation + 1
    eff_w = (kw - 1) * dilation + 1
    h_out = (h + 2 * padding - eff_h) // stride + 1
    w_out = (wdt + 2 * padding - eff_w) // stride + 1
    out = np.zeros((n, c_out, h_out, w_out), dtype=x.dtype)
    for ni in range(n):
        for oc in range(c_out):
            for oh in range(h_out):
                for ow in range(w_out):
                    acc = 0.0
                    for ic in range(c_in):
                        for u in range(kh):
                            for v in range(kw):
                                ih = oh * stride - padding + u * dilation
                                iw = ow * stride - padding + v * dilation
                                if 0 <= ih < h and 0 <= iw < wdt:
                                    acc += x[ni, ic, ih, iw] * w[oc, ic, u, v]
                    out[ni, oc, oh, ow] = acc + b[oc]
    return out


def maxpool2d_loops(x, kernel, stride, padding=0):
    n, c, h, w = x.shape
    h_out = (h + 2 * padding - kernel) // stride + 1
    w_out = (w + 2 * padding - kernel) // stride + 1
    out = np.empty((n, c, h_out, w_out), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for oh in range(h_out):
                for ow in range(w_out):
                    best = -math.inf
                    for u in range(kernel):
                        for v in range(kernel):
                            ih = oh * stride - padding + u
                            iw = ow * stride - padding + v
                            if 0 <= ih < h and 0 <= iw < w:
                                best = max(best, x[ni, ci, ih, iw])
                    out[ni, ci, oh, ow] = best
    return out


def maxpool2d_grad_loops(x, g, kernel, stride, padding=0):
    """Input gradient of max pooling: each output gradient goes to the first
    in-bounds window element, in row-major order, holding the window max."""
    n, c, h, w = x.shape
    _, _, h_out, w_out = g.shape
    gx = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for oh in range(h_out):
                for ow in range(w_out):
                    best, at = -math.inf, None
                    for u in range(kernel):
                        for v in range(kernel):
                            ih = oh * stride - padding + u
                            iw = ow * stride - padding + v
                            if 0 <= ih < h and 0 <= iw < w and x[ni, ci, ih, iw] > best:
                                best, at = x[ni, ci, ih, iw], (ih, iw)
                    gx[ni, ci, at[0], at[1]] += g[ni, ci, oh, ow]
    return gx


def sum_loops(arrays):
    out = np.zeros_like(arrays[0])
    flat = [a.reshape(-1) for a in arrays]
    of = out.reshape(-1)
    for i in range(of.size):
        acc = 0.0
        for a in flat:
            acc += a[i]
        of[i] = acc
    return out


def dilate_loops(binary, window, out_stride):
    """Centered, border-clipped window max sampled on the strided grid."""
    k, h, w = binary.shape
    half = (window - 1) // 2
    off = (out_stride - 1) // 2
    ho, wo = h // out_stride, w // out_stride
    out = np.zeros((k, ho, wo), dtype=binary.dtype)
    for ki in range(k):
        for r in range(ho):
            for c in range(wo):
                cy = r * out_stride + off
                cx = c * out_stride + off
                hit = 0
                for y in range(max(0, cy - half), min(h, cy + half + 1)):
                    for x in range(max(0, cx - half), min(w, cx + half + 1)):
                        if binary[ki, y, x]:
                            hit = 1
                out[ki, r, c] = hit
    return out


def downsample_loops(mask, factor, num_classes):
    """Majority vote per factor x factor block: ignore excluded, ties to the
    lowest class, a block of only ignore stays IGNORE."""
    h, w = mask.shape
    out = np.empty((h // factor, w // factor), dtype=mask.dtype)
    for r in range(h // factor):
        for c in range(w // factor):
            votes = [0] * num_classes
            for y in range(r * factor, (r + 1) * factor):
                for x in range(c * factor, (c + 1) * factor):
                    if mask[y, x] != IGNORE:
                        votes[int(mask[y, x])] += 1
            best = max(votes)
            out[r, c] = IGNORE if best == 0 else votes.index(best)
    return out


def multilabel_nll_ref(m, y):
    """Scalar-math mean negative log likelihood of per-class presence."""
    n, k, h, w = m.shape
    total = 0.0
    for idx in np.ndindex(m.shape):
        sig = 1.0 / (1.0 + math.exp(-float(m[idx])))
        if y[idx]:
            total -= math.log(sig)
        else:
            total -= math.log(1.0 - sig)
    return total / (n * h * w * k)


def softmax_nll_ref(p, y):
    """Scalar-math mean cross entropy over non-ignore pixels."""
    n, k, h, w = p.shape
    total = 0.0
    valid = 0
    for ni in range(n):
        for hi in range(h):
            for wi in range(w):
                cls = int(y[ni, hi, wi])
                if cls == IGNORE:
                    continue
                logits = [float(p[ni, ki, hi, wi]) for ki in range(k)]
                mx = max(logits)
                lse = mx + math.log(sum(math.exp(v - mx) for v in logits))
                total -= logits[cls] - lse
                valid += 1
    return total / valid if valid else 0.0


def seg_metrics_loops(pred, gt, num_classes):
    """Confusion counts plus per-image wrong-class / wrong-label counts."""
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    gt_classes = set()
    pred_classes = set()
    for y in range(pred.shape[0]):
        for x in range(pred.shape[1]):
            g = int(gt[y, x])
            if g == IGNORE:
                continue
            p = int(pred[y, x])
            confusion[g, p] += 1
            gt_classes.add(g)
            pred_classes.add(p)
    wrong = pred_classes - gt_classes
    wrong_label = 0
    for y in range(pred.shape[0]):
        for x in range(pred.shape[1]):
            if int(gt[y, x]) == IGNORE:
                continue
            if int(pred[y, x]) in wrong:
                wrong_label += 1
    return confusion, len(wrong), wrong_label


def iou_from_confusion(confusion):
    k = confusion.shape[0]
    ious = []
    for c in range(k):
        tp = confusion[c, c]
        denom = confusion[c, :].sum() + confusion[:, c].sum() - tp
        ious.append(tp / denom if denom > 0 else math.nan)
    return ious


def fd_grad(f, arr, step=1e-5):
    """Central-difference gradient of scalar f w.r.t. every element of arr."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        hi = f()
        arr[idx] = orig - step
        lo = f()
        arr[idx] = orig
        g[idx] = (hi - lo) / (2 * step)
        it.iternext()
    return g


def grad_mismatch(analytic, numeric, abs_floor=1e-8):
    """Worst relative error, with tiny elements compared absolutely."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    worst = 0.0
    for av, nv in zip(a, n):
        mag = abs(av) + abs(nv)
        if mag < abs_floor:
            worst = max(worst, abs(av - nv))
        else:
            worst = max(worst, abs(av - nv) / mag)
    return worst
