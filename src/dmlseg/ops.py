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
gradient) is a module-level function of one shared operand and of arrays
that hold the images along their first axis, the last of them an array the
caller allocated and the pass writes, and `_over_images` decides how a
batch is covered.  A pass runs inline, as one call on the whole
arrays on the caller, when N is 1, when it costs fewer than INLINE_MACS
(2^20) multiply-adds per image, or when there is one lane.  Otherwise W
lanes, the caller and W-1 pool threads, each take the next image, a
one-image slice of every array, until none is left.  W is fixed once per
process: the cores this process may run on (its affinity) divided by the
BLAS threads each GEMM may use (OPENBLAS_NUM_THREADS, else
OMP_NUM_THREADS, else MKL_NUM_THREADS; unset means every core), at least
1.  So `taskset -c 0` or a BLAS thread count picks the cores, and with
default settings every pass is inline.  Every image's GEMM, copy and
scatter is the same whichever lane runs it, and the pads, the bias
gradient, the sum of the per-image weight gradients and the finiteness
check stay on the caller, so output and gradient bytes never depend on W.

Max pooling is separable: the forward takes a running maximum over the k
column shifts, then over the k row shifts, and keeps no index.  Backward
rebuilds the argmax from the padded input and those maxima, as convolution
rebuilds its columns, and routes each gradient to the winning element,
ties to the lowest linear index.

Every op computes its output array and its backward function and hands
both to `tensor.push_node`, which alone decides whether the result needs a
gradient (iff an input does) and whether the function is taped.

A gradient check runs tens of thousands of convolutions on a batch of two
images of at most 32x32, where a numpy call's fixed cost is as large as
its arithmetic, so a conv2d call makes few calls besides the ones that do
the work.  Shapes are read off the arrays.  A zero pad is np.zeros plus one
slice copy (a crop is a view first), and window views come from the
ndarray constructor, which checks the strides against the buffer: np.pad
and as_strided cost more in Python.  An inline pass is one call of its
pass function, with no closure and no slice, and the backward is a partial
of `_conv2d_backward`, built without a closure cell for every local.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import Tensor, push_node


def _pad(a: np.ndarray, ph: int, pw: int, fill: float = 0.0) -> np.ndarray:
    """Copy of a (N, C, H, W) array with ph rows and pw columns of `fill`
    added on each side, or removed from each side where negative."""
    if ph < 0 or pw < 0:  # crop first, as a view
        ch, cw = max(-ph, 0), max(-pw, 0)
        a = a[:, :, ch:a.shape[2] - ch, cw:a.shape[3] - cw]
        ph, pw = max(ph, 0), max(pw, 0)
    n, c, h, w = a.shape
    shape = (n, c, h + 2 * ph, w + 2 * pw)
    out = np.zeros(shape, a.dtype) if fill == 0 else np.full(shape, fill, a.dtype)
    out[:, :, ph:ph + h, pw:pw + w] = a
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


def _over_images(macs: int, fn: Callable[..., None], shared, *batched: np.ndarray) -> None:
    """Run `fn(shared, *batched)`, each array of `batched` holding the same
    n images along its first axis and fn writing its result into the last
    of them: inline, as that one call on the caller, when n is 1, a pass
    costs fewer than INLINE_MACS per image, or there is one lane; otherwise
    in min(W, n) lanes (`_in_lanes`)."""
    global _lanes
    n = len(batched[0])
    if n > 1 and macs >= INLINE_MACS:
        if _lanes is None:
            _lanes = _lane_count()
        if _lanes > 1:
            _in_lanes(min(_lanes, n), fn, shared, batched)
            return
    fn(shared, *batched)


def _in_lanes(lanes: int, fn: Callable[..., None], shared,
              batched: tuple[np.ndarray, ...]) -> None:
    """`_over_images` in `lanes` lanes, the caller and the pool's threads:
    each claims the next image i and calls fn(shared, *(a[i:i + 1] for a in
    batched)) until none is left, so a lane that is slow to start or
    descheduled holds back at most the one image it is working on, and
    writes into its one-image slice of the caller's arrays.  Every lane has
    finished when this returns or raises, and a lane's exception reaches the
    caller."""
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(_lanes - 1, thread_name_prefix="dmlseg-lane")
    n = len(batched[0])
    images = iter(range(n))
    claim = threading.Lock()

    def lane() -> None:
        while True:
            with claim:
                i = next(images, n)
            if i == n:
                return
            fn(shared, *(a[i:i + 1] for a in batched))

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


# conv2d's passes, each a function of one shared operand and of arrays of
# images, the last of which it writes, as `_over_images` calls them

def _columns(windows: np.ndarray) -> np.ndarray:
    """(B, C_in*kh*kw, h_out*w_out) columns of a (B, C_in, kh, kw, h_out,
    w_out) window view: one contiguous copy, or a view of the input itself
    for a 1x1 stride-1 unpadded conv (reshape drops the size-1 kernel axes
    without copying)."""
    b, c, kh, kw, h_out, w_out = windows.shape
    return windows.reshape(b, c * kh * kw, h_out * w_out)


def _forward_pass(w_mat: np.ndarray, windows: np.ndarray, out: np.ndarray) -> None:
    np.matmul(w_mat, _columns(windows), out=out)


def _weight_pass(_, g_mat: np.ndarray, windows: np.ndarray, out: np.ndarray) -> None:
    # columns are rebuilt here rather than kept on the tape
    np.matmul(g_mat, _columns(windows).transpose(0, 2, 1), out=out)


def _flipped_pass(w_flip: np.ndarray, view: np.ndarray, gx: np.ndarray) -> None:
    """Stride-1 input gradient: a correlation of the padded output gradient
    with the flipped, transposed kernel, written into gx (B, C_in, h*w);
    columns one image at a time, since a batch-wide copy raises peak memory."""
    for i in range(len(view)):
        np.matmul(w_flip, view[i].reshape(w_flip.shape[1], -1), out=gx[i])


def _scatter_pass(geometry: tuple, g: np.ndarray, gpad: np.ndarray) -> None:
    """Stride > 1 input gradient: the gradient of every window element from
    one GEMM, added back onto the padded input gradient gpad by kh*kw
    strided adds.  `geometry` is (weight, stride, dilation)."""
    weight, stride, dilation = geometry
    c_out, c_in, kh, kw = weight.shape
    b, _, h_out, w_out = g.shape
    gcols = np.matmul(weight.reshape(c_out, -1).T, g.reshape(b, c_out, -1)).reshape(
        b, c_in, kh, kw, h_out, w_out)
    for u in range(kh):
        rows = slice(u * dilation, u * dilation + stride * h_out, stride)
        for v in range(kw):
            cols = slice(v * dilation, v * dilation + stride * w_out, stride)
            gpad[:, :, rows, cols] += gcols[:, :, u, v]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, *, stride: int = 1,
           dilation: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation with dilation, zero padding and bias.

    weight is (C_out, C_in, kH, kW); bias is (C_out,) stored as
    (1, C_out, 1, 1).
    """
    x_data, w_data = x.data, weight.data
    n, c_in, h, w = x_data.shape
    c_out, c_in_w, kh, kw = w_data.shape
    if c_in != c_in_w:
        raise ConfigError(f"conv2d: input has {c_in} channels, weight expects {c_in_w}")
    if bias.data.shape != (1, c_out, 1, 1):
        raise ConfigError(f"conv2d: bias shape {bias.shape} != (1, {c_out}, 1, 1)")
    eff_h = (kh - 1) * dilation + 1
    eff_w = (kw - 1) * dilation + 1
    hp, wp = h + 2 * padding, w + 2 * padding
    if eff_h > hp or eff_w > wp:
        raise ConfigError(
            f"conv2d: effective kernel {eff_h}x{eff_w} exceeds padded input {hp}x{wp}")
    h_out = (hp - eff_h) // stride + 1
    w_out = (wp - eff_w) // stride + 1

    windows = _window_view(_pad(x_data, padding, padding) if padding > 0 else x_data,
                           kh, kw, stride, dilation, h_out, w_out)
    w_mat = w_data.reshape(c_out, c_in * kh * kw)
    macs = w_mat.size * h_out * w_out  # per image and per pass
    # matmul's own result type: a check64 model's weights meet train32
    # images when it is evaluated after training
    out_data = np.empty((n, c_out, h_out, w_out), np.promote_types(w_data.dtype, x_data.dtype))
    _over_images(macs, _forward_pass, w_mat, windows, out_data.reshape(n, c_out, -1))
    out_data += bias.data
    if not np.isfinite(out_data).all():
        raise NumericError("conv2d produced non-finite values")

    return push_node((x, weight, bias), out_data, functools.partial(
        _conv2d_backward, x, weight, bias, windows, stride, dilation, padding))


def _conv2d_backward(x: Tensor, weight: Tensor, bias: Tensor, windows: np.ndarray,
                     stride: int, dilation: int, padding: int, g: np.ndarray) -> None:
    """Accumulate conv2d's bias, weight and input gradients for the output
    gradient g, from the forward's window view of the padded input."""
    n, c_out, h_out, w_out = g.shape
    _, c_in, h, w = x.data.shape
    kh, kw = weight.data.shape[2:]
    macs = weight.data.size * h_out * w_out
    if bias.requires_grad:
        bias.accumulate_grad(g.sum(axis=(0, 2, 3), keepdims=True))
    if weight.requires_grad:
        gw = np.empty((n, c_out, c_in * kh * kw), np.promote_types(g.dtype, windows.dtype))
        _over_images(macs, _weight_pass, None, g.reshape(n, c_out, h_out * w_out), windows, gw)
        weight.accumulate_grad(gw.sum(axis=0).reshape(weight.shape))
    if not x.requires_grad:
        return
    if stride == 1:
        # correlation with the flipped kernel
        qh, qw = (kh - 1) * dilation - padding, (kw - 1) * dilation - padding
        view = _window_view(_pad(g, qh, qw) if qh or qw else g, kh, kw, 1, dilation, h, w)
        w_flip = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(
            c_in, c_out * kh * kw)
        gx = np.empty((n, c_in, h * w), dtype=g.dtype)
        _over_images(macs, _flipped_pass, w_flip, view, gx)
        x.accumulate_grad(gx.reshape(n, c_in, h, w))
    else:
        hp, wp = h + 2 * padding, w + 2 * padding
        gpad = np.zeros((n, c_in, hp, wp), dtype=g.dtype)
        _over_images(macs, _scatter_pass, (weight.data, stride, dilation), g, gpad)
        x.accumulate_grad(gpad[:, :, padding:hp - padding, padding:wp - padding])


def relu(x: Tensor) -> Tensor:
    def backward_fn(g: np.ndarray) -> None:
        x.accumulate_grad(g * (x.data > 0))

    return push_node((x,), np.maximum(x.data, 0.0), backward_fn)


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
    if not inputs:
        raise ConfigError("elementwise_sum needs at least one input")
    first = inputs[0].data
    for t in inputs[1:]:
        if t.data.shape != first.shape:
            raise ConfigError(f"elementwise_sum: shape {t.shape} != {first.shape}")
    out_data = first + inputs[1].data if len(inputs) > 1 else first.copy()
    for t in inputs[2:]:
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
