"""Training objectives: per-class logistic presence loss, softmax pixel
loss over the fused scores, and their weighted combination."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .gt_gen import IGNORE
from .ops import elementwise_sum, scale
from .tensor import Tensor, push_node, scalar


@dataclass
class LossReport:
    l_seg: float
    l_mul: list[float]
    total: float

    def csv_row(self, iteration: int) -> str:
        mul = ",".join(f"{v:.9g}" for v in self.l_mul)
        row = f"{iteration},{self.l_seg:.9g}"
        if mul:
            row += f",{mul}"
        return row + f",{self.total:.9g}"

    @staticmethod
    def csv_header(levels: int) -> str:
        mul = ",".join(f"l_mul_{j + 1}" for j in range(levels))
        return "iter,l_seg" + (f",{mul}" if mul else "") + ",total"


def multilabel_nll(m: Tensor, y: np.ndarray) -> Tensor:
    """Mean binary log loss of presence logits against {0,1} targets.

    Stabilized so no overflow occurs for |logit| up to 1e4; gradient is
    (sigmoid(m) - y) / (N*h*w*K).
    """
    if y.shape != m.shape:
        raise ConfigError(f"multilabel target shape {y.shape} != logits {m.shape}")
    md = m.data
    yd = y.astype(md.dtype)
    n, k, h, w = m.shape
    denom = n * h * w * k
    elem = np.maximum(md, 0) - md * yd + np.log1p(np.exp(-np.abs(md)))

    def backward_fn(g: np.ndarray) -> None:
        e = np.exp(-np.abs(md))
        sig = np.where(md >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        m.accumulate_grad((sig - yd) * (float(g.reshape(())) / denom))

    return push_node((m,), np.full((1, 1, 1, 1), elem.sum() / denom), backward_fn)


def seg_picks(y: np.ndarray, shape: tuple[int, int, int, int]
              ) -> tuple[np.ndarray, int, np.ndarray]:
    """What `softmax_nll` reads of a target y for (N, K, h, w) scores: the
    valid-pixel mask, its count, and the flat index of each pixel's target
    score (class 0 at ignore pixels).  y is (N, h, w) class indices with
    255 for ignore; any other shape is a ConfigError."""
    n, k, h, w = shape
    if y.shape != (n, h, w):
        raise ConfigError(f"segmentation target shape {y.shape} != ({n}, {h}, {w})")
    valid = y != IGNORE
    cls = np.where(valid, y, 0).astype(np.int64)
    flat = (np.arange(n)[:, None, None] * k + cls) * (h * w) + np.arange(h * w).reshape(h, w)
    return valid, int(valid.sum()), flat


def softmax_nll(p: Tensor, y: np.ndarray, picks=None) -> Tensor:
    """Mean cross entropy of fused scores at non-ignore pixels.

    y is (N, h, w) class indices with 255 for ignore; `picks`, when given,
    is `seg_picks(y, p.shape)` made earlier.  Log-sum-exp is stabilized with
    a per-pixel max; gradient is (softmax - onehot) divided by the
    valid-pixel count, zero at ignore pixels.
    """
    valid, n_valid, flat = seg_picks(y, p.shape) if picks is None else picks
    if n_valid == 0:
        warnings.warn("softmax_nll: no valid pixels, loss is 0 with zero gradient")
        return scalar(0.0)
    pd = p.data
    mx = pd.max(axis=1, keepdims=True)
    z = pd - mx
    ez = np.exp(z)
    lse = np.log(ez.sum(axis=1, keepdims=True)) + mx  # (N,1,h,w)
    picked = pd.reshape(-1)[flat]
    nll = (lse[:, 0] - picked) * valid

    def backward_fn(g: np.ndarray) -> None:
        gp = ez / ez.sum(axis=1, keepdims=True)  # softmax, minus one-hot below
        gp.reshape(-1)[flat] -= 1.0
        gp *= valid[:, None, :, :]
        p.accumulate_grad(gp * (float(g.reshape(())) / n_valid))

    return push_node((p,), np.full((1, 1, 1, 1), nll.sum() / n_valid), backward_fn)


def total_objective(l_seg: Tensor, l_mul: Sequence[Tensor],
                    lam: float) -> tuple[Tensor, LossReport]:
    """total = l_seg + lam * sum(l_mul), kept on the tape for backward."""
    total = (elementwise_sum([l_seg, scale(elementwise_sum(list(l_mul)), lam)])
             if l_mul else l_seg)
    report = LossReport(
        l_seg=l_seg.item(),
        l_mul=[t.item() for t in l_mul],
        total=total.item(),
    )
    return total, report
