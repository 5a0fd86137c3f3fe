"""Forward/backward implementations of the network's operation set.

Convolution copies a strided window view once into contiguous columns
(im2col) and runs one batched GEMM per pass; backward rebuilds the columns
for the weight gradient instead of keeping them on the tape.  The input
gradient takes one of two paths, chosen by the layer's stride:

* stride 1: a correlation of the output gradient, padded by eff-1-p (or
  cropped when that is negative), with the flipped, transposed kernel, one
  column copy and one GEMM per image, written straight into dX;
* stride > 1: one GEMM gives the gradient of every window element, which
  kh*kw strided adds scatter back onto the padded input.

Each of those three passes (forward GEMM, weight-gradient GEMM, input
gradient) is written once over an image range [a, b), and `_over_images`
decides how a batch is covered.  A pass runs inline, as [0, N) on the
caller, when N is 1, when it costs fewer than INLINE_MACS (2^20)
multiply-adds per image, or when there is one lane.  Otherwise W lanes,
the caller and W-1 pool threads, each take the next image until none is
left.  W is fixed once per process: the cores this process may run on
(its affinity) divided by the BLAS threads each GEMM may use
(OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else MKL_NUM_THREADS; unset
means every core), at least 1.  So `taskset -c 0` or a BLAS thread count
picks the cores, and with default settings every pass is inline.  Every
image's GEMM, copy and scatter is the same whichever lane runs it, and
the pads, the bias gradient, the sum of the per-image weight gradients and
the finiteness check stay on the caller, so output and gradient bytes
never depend on W.

Max pooling is separable: the forward takes a running maximum over the k
column shifts, then over the k row shifts, and keeps no index.  Backward
rebuilds the argmax from the padded input and those maxima, as convolution
rebuilds its columns, and routes each gradient to the winning element,
ties to the lowest linear index.

Every op computes its output array and its backward closure and hands
both to `tensor.push_node`, which alone decides whether the result needs a
gradient (iff an input does) and whether the closure is taped.

Pads are one fill plus one slice copy, and window views come from the
ndarray constructor, which checks the strides against the buffer: on the
small inputs of a gradient check, np.pad and as_strided cost more in
Python than the op's arithmetic.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import Tensor, push_node


def _pad(a: np.ndarray, ph: int, pw: int, fill: float) -> np.ndarray:
    """Copy of a (N, C, H, W) array with ph rows and pw columns of `fill`
    added on each side, or removed from each side where negative."""
    n, c, h, w = a.shape
    out = np.full((n, c, h + 2 * ph, w + 2 * pw), fill, dtype=a.dtype)
    ih, iw = max(-ph, 0), max(-pw, 0)
    oh, ow = max(ph, 0), max(pw, 0)
    out[:, :, oh:oh + h - 2 * ih, ow:ow + w - 2 * iw] = a[:, :, ih:h - ih, iw:w - iw]
    return out


def _window_view(padded: np.ndarray, kh: int, kw: int, stride: int,
                 dilation: int, h_out: int, w_out: int) -> np.ndarray:
    """Read-only view of shape (N, C, kh, kw, h_out, w_out) over a
    C-contiguous padded array; the constructor raises if the strides reach
    past its buffer."""
    n, c, _, _ = padded.shape
    sn, sc, sh, sw = padded.strides
    view = np.ndarray((n, c, kh, kw, h_out, w_out), padded.dtype, buffer=padded,
                      strides=(sn, sc, sh * dilation, sw * dilation, sh * stride, sw * stride))
    view.flags.writeable = False
    return view


# per-image MACs below which a conv pass runs on the caller: a hand-off to
# the lane pool costs about 50 us, a 1M-MAC GEMM about as much
INLINE_MACS = 1 << 20
_lanes: int | None = None  # set once per process by _lane_count
_pool: ThreadPoolExecutor | None = None  # lanes 1..W-1, created on first use


def _forget_pool() -> None:
    """A forked child inherits the pool object but none of its threads."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_forget_pool)


def _lane_count() -> int:
    """Usable cores divided by the BLAS threads each lane's GEMM may use
    (the first of OPENBLAS/OMP/MKL_NUM_THREADS that is set; unset means
    every core), at least 1."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    blas = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(cores // blas, 1)


def _over_images(n: int, macs: int,
                 fn: Callable[[int, int], np.ndarray | None]) -> np.ndarray | None:
    """`fn(a, b)` over images [a, b) covering [0, n): what fn(0, n) returns.

    Inline, as fn(0, n) on the caller, when n is 1, a pass costs fewer
    than INLINE_MACS per image, or there is one lane.  Otherwise W lanes,
    the caller and the pool's threads, each claim the next image until none
    is left, so a lane that is slow to start or descheduled holds back at
    most the one image it is working on; fn's per-image results are joined
    along the batch axis (None if fn returns None).  Every lane has
    finished when this returns or raises, and a lane's exception reaches
    the caller.
    """
    global _lanes, _pool
    if n == 1 or macs < INLINE_MACS:
        return fn(0, n)
    if _lanes is None:
        _lanes = _lane_count()
    lanes = min(_lanes, n)
    if lanes == 1:
        return fn(0, n)
    if _pool is None:
        _pool = ThreadPoolExecutor(_lanes - 1, thread_name_prefix="dmlseg-lane")
    images = iter(range(n))
    claim = threading.Lock()
    results = [None] * n

    def lane() -> None:
        while True:
            with claim:
                i = next(images, n)
            if i == n:
                return
            results[i] = fn(i, i + 1)

    others = [_pool.submit(lane) for _ in range(lanes - 1)]
    try:
        lane()
    finally:
        for f in others:
            f.cancel()  # a lane not started yet: the caller took its images
        wait(others)
    for f in others:
        if not f.cancelled():
            f.result()
    return None if results[0] is None else np.concatenate(results)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, *, stride: int = 1,
           dilation: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation with dilation, zero padding and bias.

    weight is (C_out, C_in, kH, kW); bias is (C_out,) stored as
    (1, C_out, 1, 1).
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ConfigError(f"conv2d: input has {c_in} channels, weight expects {c_in_w}")
    if bias.shape != (1, c_out, 1, 1):
        raise ConfigError(f"conv2d: bias shape {bias.shape} != (1, {c_out}, 1, 1)")
    eff_h = (kh - 1) * dilation + 1
    eff_w = (kw - 1) * dilation + 1
    hp, wp = h + 2 * padding, w + 2 * padding
    if eff_h > hp or eff_w > wp:
        raise ConfigError(
            f"conv2d: effective kernel {eff_h}x{eff_w} exceeds padded input {hp}x{wp}")
    h_out = (hp - eff_h) // stride + 1
    w_out = (wp - eff_w) // stride + 1
    k = c_in * kh * kw

    padded = _pad(x.data, padding, padding, 0.0) if padding > 0 else x.data
    windows = _window_view(padded, kh, kw, stride, dilation, h_out, w_out)
    macs = c_out * k * h_out * w_out  # per image and per pass

    def columns(a: int, b: int) -> np.ndarray:
        """(b-a, C_in*kh*kw, h_out*w_out) for images [a, b): one contiguous
        copy of the window view, or a view of the input itself for a 1x1
        stride-1 unpadded conv (reshape drops the size-1 kernel axes
        without copying)."""
        return windows[a:b].reshape(b - a, k, h_out * w_out)

    w_mat = weight.data.reshape(c_out, k)
    out_data = _over_images(n, macs, lambda a, b: np.matmul(w_mat, columns(a, b)))
    out_data = out_data.reshape(n, c_out, h_out, w_out)
    out_data += bias.data
    if not np.isfinite(out_data).all():
        raise NumericError("conv2d produced non-finite values")

    def backward_fn(g: np.ndarray) -> None:
        g_mat = g.reshape(n, c_out, h_out * w_out)
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(0, 2, 3), keepdims=True))
        if weight.requires_grad:
            # columns are rebuilt here rather than kept on the tape
            gw = _over_images(n, macs, lambda a, b: np.matmul(
                g_mat[a:b], columns(a, b).transpose(0, 2, 1)))
            weight.accumulate_grad(gw.sum(axis=0).reshape(weight.shape))
        if not x.requires_grad:
            return
        if stride == 1:
            # correlation with the flipped kernel; columns one image at a
            # time, since a batch-wide copy raises peak memory
            qh, qw = eff_h - 1 - padding, eff_w - 1 - padding
            g_pad = _pad(g, qh, qw, 0.0) if qh or qw else g
            view = _window_view(g_pad, kh, kw, 1, dilation, h, w)
            w_flip = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(
                c_in, c_out * kh * kw)
            gx = np.empty((n, c_in, h * w), dtype=g.dtype)

            def input_pass(a: int, b: int) -> None:
                for i in range(a, b):
                    np.matmul(w_flip, view[i].reshape(c_out * kh * kw, h * w), out=gx[i])

            _over_images(n, macs, input_pass)
            x.accumulate_grad(gx.reshape(n, c_in, h, w))
        else:
            # gradient w.r.t. every window element, then scatter-add back
            gpad = np.zeros((n, c_in, hp, wp), dtype=g.dtype)

            def input_pass(a: int, b: int) -> None:
                gcols = np.matmul(w_mat.T, g_mat[a:b]).reshape(
                    b - a, c_in, kh, kw, h_out, w_out)
                for u in range(kh):
                    rows = slice(u * dilation, u * dilation + stride * h_out, stride)
                    for v in range(kw):
                        cols = slice(v * dilation, v * dilation + stride * w_out, stride)
                        gpad[a:b, :, rows, cols] += gcols[:, :, u, v]

            _over_images(n, macs, input_pass)
            x.accumulate_grad(gpad[:, :, padding:hp - padding, padding:wp - padding])

    return push_node((x, weight, bias), out_data, backward_fn)


def relu(x: Tensor) -> Tensor:
    def backward_fn(g: np.ndarray) -> None:
        x.accumulate_grad(g * (x.data > 0))

    return push_node((x,), np.maximum(x.data, 0), backward_fn)


def maxpool2d(x: Tensor, *, kernel: int, stride: int, padding: int = 0) -> Tensor:
    """Sliding-window max with -inf padding semantics.

    The forward is a running np.maximum over the kernel column shifts, then
    over the kernel row shifts, both at `stride`: the max is exact, so no
    window copy or index array is needed.  Backward finds each window's
    winner from the same two maxima, by equality, with no window copy:
    the first (lowest linear) index on ties, as np.argmax would pick for
    finite inputs.
    """
    n, c, h, w = x.shape
    if kernel < 1:
        raise ConfigError(f"maxpool2d: kernel must be >= 1, got {kernel}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kernel > hp or kernel > wp:
        raise ConfigError(f"maxpool2d: kernel {kernel} exceeds padded input {hp}x{wp}")
    h_out = (hp - kernel) // stride + 1
    w_out = (wp - kernel) // stride + 1
    if padding >= kernel:
        # first window would sit entirely in the padding band
        raise ConfigError(f"maxpool2d: padding {padding} >= kernel {kernel}")

    padded = _pad(x.data, padding, padding, -np.inf) if padding > 0 else x.data
    span_h, span_w = stride * (h_out - 1) + 1, stride * (w_out - 1) + 1
    col_max = padded[:, :, :, 0:span_w:stride].copy()
    for v in range(1, kernel):
        np.maximum(col_max, padded[:, :, :, v:v + span_w:stride], out=col_max)
    out_data = col_max[:, :, 0:span_h:stride].copy()
    for u in range(1, kernel):
        np.maximum(out_data, col_max[:, :, u:u + span_h:stride], out=out_data)

    def backward_fn(g: np.ndarray) -> None:
        # the winner is the first row u of the window whose column max is
        # the window max, at the first column v of that row holding it: the
        # lowest linear index u*k+v, found in 2k compare passes
        first_v = np.zeros(col_max.shape, np.intp)
        for v in range(kernel - 1, -1, -1):
            np.copyto(first_v, v, where=padded[:, :, :, v:v + span_w:stride] == col_max)
        arg_u = np.zeros(out_data.shape, np.intp)
        arg_v = np.zeros(out_data.shape, np.intp)
        for u in range(kernel - 1, -1, -1):
            hit = col_max[:, :, u:u + span_h:stride] == out_data
            np.copyto(arg_u, u, where=hit)
            np.copyto(arg_v, first_v[:, :, u:u + span_h:stride], where=hit)
        gpad = np.zeros((n, c, hp, wp), dtype=g.dtype)
        rows = np.arange(h_out)[:, None] * stride + arg_u
        cols = np.arange(w_out)[None, :] * stride + arg_v
        nn = np.arange(n)[:, None, None, None]
        cc = np.arange(c)[None, :, None, None]
        flat_idx = ((nn * c + cc) * hp + rows) * wp + cols
        np.add.at(gpad.reshape(-1), flat_idx.reshape(-1), g.reshape(-1))
        x.accumulate_grad(gpad[:, :, padding:hp - padding, padding:wp - padding])

    return push_node((x,), out_data, backward_fn)


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Replicate each cell into a factor x factor block."""
    if factor < 1:
        raise ConfigError(f"upsample_nearest: factor must be >= 1, got {factor}")
    out_data = np.repeat(np.repeat(x.data, factor, axis=2), factor, axis=3)
    n, c, h, w = x.shape

    def backward_fn(g: np.ndarray) -> None:
        x.accumulate_grad(g.reshape(n, c, h, factor, w, factor).sum(axis=(3, 5)))

    return push_node((x,), out_data, backward_fn)


def elementwise_sum(inputs: Sequence[Tensor]) -> Tensor:
    """Left-to-right elementwise sum of same-shaped tensors."""
    if len(inputs) < 1:
        raise ConfigError("elementwise_sum needs at least one input")
    shape = inputs[0].shape
    for t in inputs[1:]:
        if t.shape != shape:
            raise ConfigError(f"elementwise_sum: shape {t.shape} != {shape}")
    out_data = inputs[0].data.copy()
    for t in inputs[1:]:
        out_data += t.data

    def backward_fn(g: np.ndarray) -> None:
        for t in inputs:
            if t.requires_grad:
                t.accumulate_grad(g)

    return push_node(tuple(inputs), out_data, backward_fn)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    def backward_fn(g: np.ndarray) -> None:
        x.accumulate_grad(g * c)

    return push_node((x,), x.data * c, backward_fn)


def shift(x: Tensor, c: float) -> Tensor:
    """Add a python scalar; gradient passes through unchanged."""
    def backward_fn(g: np.ndarray) -> None:
        x.accumulate_grad(g)

    return push_node((x,), x.data + c, backward_fn)
