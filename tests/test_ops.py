import zlib

import numpy as np
import pytest

from dmlseg import ops, tensor
from dmlseg.errors import ConfigError
from dmlseg.tensor import Tensor, record

from helpers import reduce_sum
from reference import (conv2d_loops, fd_grad, grad_mismatch, maxpool2d_grad_loops,
                       maxpool2d_loops, sum_loops)


def t(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=tensor.dtype()), requires_grad)


# (kernel, stride, dilation, padding): every conv the desk and grad-check
# models run, plus padded and strided 1x1 convs.  A stride-1 input gradient
# pads the output gradient by eff-1-p: p for the model convs, 0 for 3x3 p2
# and 1x1 p0, more than p for 3x3 d2 p1, and less than 0 (a crop) for 3x3 p3
# and 1x1 p1
CONV_GEOMETRIES = [(3, 2, 1, 1), (3, 1, 2, 2), (3, 1, 1, 1), (1, 1, 1, 0),
                   (1, 1, 1, 1), (1, 2, 1, 0), (3, 1, 1, 2), (3, 1, 2, 1),
                   (3, 1, 1, 3)]
GEOMETRY_IDS = [f"{k}x{k}_s{s}_d{d}_p{p}" for k, s, d, p in CONV_GEOMETRIES]


def _conv_inputs(rng, k):
    return (t(rng.normal(size=(2, 3, 7, 7))),
            t(rng.normal(size=(4, 3, k, k))),
            t(rng.normal(size=(1, 4, 1, 1))))


class TestConv2d:
    def test_identity_kernel(self):
        x = t(np.ones((1, 1, 3, 3)))
        w = t(np.full((1, 1, 1, 1), 2.0))
        b = t(np.zeros((1, 1, 1, 1)))
        out = ops.conv2d(x, w, b)
        assert out.shape == (1, 1, 3, 3)
        assert np.all(out.data == 2.0)

    def test_zero_weight_annihilates(self):
        rng = np.random.default_rng(0)
        x = t(rng.normal(size=(2, 3, 5, 5)))
        w = t(np.zeros((4, 3, 3, 3)))
        b = t(np.zeros((1, 4, 1, 1)))
        assert np.all(ops.conv2d(x, w, b, padding=1).data == 0.0)

    def test_dilated_ramp_matches_loops(self, check64):
        x = t(np.arange(25, dtype=np.float64).reshape(1, 1, 5, 5))
        rng = np.random.default_rng(1)
        w = t(rng.normal(size=(1, 1, 3, 3)))
        b = t(rng.normal(size=(1, 1, 1, 1)))
        out = ops.conv2d(x, w, b, stride=1, dilation=2, padding=2)
        expect = conv2d_loops(x.data, w.data, b.data.reshape(-1),
                              stride=1, dilation=2, padding=2)
        assert out.shape == expect.shape
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)

    def test_random_hyperparameters_match_loops(self, check64):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 3))
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            h = int(rng.integers(4, 10))
            w = int(rng.integers(4, 10))
            k = int(rng.choice([1, 3]))
            stride = int(rng.integers(1, 3))
            dilation = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 3))
            if (k - 1) * dilation + 1 > min(h, w) + 2 * padding:
                continue
            x = t(rng.normal(size=(n, c_in, h, w)))
            wt = t(rng.normal(size=(c_out, c_in, k, k)))
            b = t(rng.normal(size=(1, c_out, 1, 1)))
            out = ops.conv2d(x, wt, b, stride=stride, dilation=dilation, padding=padding)
            expect = conv2d_loops(x.data, wt.data, b.data.reshape(-1),
                                  stride=stride, dilation=dilation, padding=padding)
            np.testing.assert_allclose(out.data, expect, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("geometry", CONV_GEOMETRIES, ids=GEOMETRY_IDS)
    def test_model_geometries_match_loops(self, geometry, check64):
        k, stride, dilation, padding = geometry
        rng = np.random.default_rng(zlib.crc32(repr(geometry).encode()))
        x, wt, b = _conv_inputs(rng, k)
        out = ops.conv2d(x, wt, b, stride=stride, dilation=dilation, padding=padding)
        expect = conv2d_loops(x.data, wt.data, b.data.reshape(-1),
                              stride=stride, dilation=dilation, padding=padding)
        assert out.shape == expect.shape
        np.testing.assert_allclose(out.data, expect, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("geometry", CONV_GEOMETRIES, ids=GEOMETRY_IDS)
    def test_float32_forward_matches_float64_loops(self, geometry):
        # positive operands: no cancellation, so a relative bound is fair
        k, stride, dilation, padding = geometry
        rng = np.random.default_rng(zlib.crc32(repr(geometry).encode()))
        x = t(rng.random((2, 3, 7, 7)))
        wt = t(rng.random((4, 3, k, k)))
        b = t(rng.random((1, 4, 1, 1)))
        out = ops.conv2d(x, wt, b, stride=stride, dilation=dilation, padding=padding)
        assert out.data.dtype == np.float32
        expect = conv2d_loops(x.data.astype(np.float64), wt.data.astype(np.float64),
                              b.data.reshape(-1).astype(np.float64),
                              stride=stride, dilation=dilation, padding=padding)
        np.testing.assert_allclose(out.data, expect, rtol=1e-5)

    def test_output_spatial_size(self):
        x = t(np.zeros((1, 1, 9, 9)))
        w = t(np.zeros((1, 1, 3, 3)))
        b = t(np.zeros((1, 1, 1, 1)))
        out = ops.conv2d(x, w, b, stride=2, dilation=2, padding=2)
        # floor((9 + 4 - 5) / 2) + 1
        assert out.shape == (1, 1, 5, 5)

    def test_channel_mismatch_raises(self):
        x = t(np.zeros((1, 2, 4, 4)))
        w = t(np.zeros((1, 3, 3, 3)))
        b = t(np.zeros((1, 1, 1, 1)))
        with pytest.raises(ConfigError, match="channels"):
            ops.conv2d(x, w, b, padding=1)

    def test_kernel_larger_than_input_raises(self):
        x = t(np.zeros((1, 1, 3, 3)))
        w = t(np.zeros((1, 1, 3, 3)))
        b = t(np.zeros((1, 1, 1, 1)))
        with pytest.raises(ConfigError, match="kernel"):
            ops.conv2d(x, w, b, dilation=2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fill", [0.0, -np.inf])
@pytest.mark.parametrize("ph, pw", [(2, 2), (1, 0), (0, 3), (0, 0), (-1, -1), (-2, 0),
                                    (-1, 2), (2, -3)])
def test_pad_matches_np_pad_of_the_cropped_array(ph, pw, fill, dtype):
    # positive widths pad, negative ones crop (the stride-1 backward's
    # eff-1-p can be either); the result is always a fresh C-contiguous copy
    a = np.random.default_rng(5).normal(size=(2, 3, 6, 7)).astype(dtype)
    ch, cw = max(-ph, 0), max(-pw, 0)
    cropped = a[:, :, ch:6 - ch, cw:7 - cw]
    widths = ((0, 0), (0, 0), (max(ph, 0),) * 2, (max(pw, 0),) * 2)
    expect = np.pad(cropped, widths, constant_values=fill)
    got = ops._pad(a, ph, pw, fill)
    assert got.dtype == dtype and got.flags.c_contiguous
    assert got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()  # signed zeros included
    assert not np.shares_memory(got, a)


def test_window_view_is_read_only():
    padded = np.zeros((1, 2, 5, 5))
    view = ops._window_view(padded, 3, 3, 1, 1, 3, 3)
    assert view.shape == (1, 2, 3, 3, 3, 3)
    with pytest.raises(ValueError):
        view[0, 0, 0, 0, 0, 0] = 1.0


class TestReLU:
    def test_basic(self):
        x = t(np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3))
        assert np.array_equal(ops.relu(x).data.reshape(-1), [0.0, 0.0, 2.0])

    def test_positive_passthrough(self):
        x = t(np.full((1, 2, 3, 3), 0.5))
        assert np.array_equal(ops.relu(x).data, x.data)

    def test_subgradient_at_zero(self):
        x = t(np.array([-1.0, 2.0]).reshape(1, 1, 1, 2), requires_grad=True)
        with record() as g:
            loss = reduce_sum(ops.relu(x))
        g.backward(loss)
        assert np.array_equal(x.grad.reshape(-1), [0.0, 1.0])


class TestMaxPool:
    def test_2x2(self):
        x = t(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = ops.maxpool2d(x, kernel=2, stride=2)
        assert out.data.reshape(-1).tolist() == [4.0]

    def test_constant_input(self):
        x = t(np.full((1, 1, 6, 6), 3.25))
        out = ops.maxpool2d(x, kernel=3, stride=1, padding=1)
        assert out.shape == (1, 1, 6, 6)
        assert np.all(out.data == 3.25)

    def test_random_matches_loops(self, check64):
        rng = np.random.default_rng(3)
        x = t(rng.normal(size=(1, 2, 9, 9)))
        out = ops.maxpool2d(x, kernel=3, stride=2, padding=1)
        expect = maxpool2d_loops(x.data, kernel=3, stride=2, padding=1)
        np.testing.assert_array_equal(out.data, expect)

    def test_random_hyperparameters_match_loops(self, check64):
        rng = np.random.default_rng(11)
        for _ in range(25):
            h = int(rng.integers(3, 12))
            k = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 4))
            padding = int(rng.integers(0, k))
            if k > h + 2 * padding:
                continue
            x = t(rng.normal(size=(2, 2, h, h)))
            out = ops.maxpool2d(x, kernel=k, stride=stride, padding=padding)
            expect = maxpool2d_loops(x.data, kernel=k, stride=stride, padding=padding)
            np.testing.assert_array_equal(out.data, expect)

    def test_gradient_mass_conserved(self, check64):
        rng = np.random.default_rng(5)
        x = t(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
        with record() as g:
            out = ops.maxpool2d(x, kernel=3, stride=2, padding=1)
            loss = reduce_sum(out)
        g.backward(loss)
        assert x.grad.sum() == pytest.approx(out.data.size, abs=1e-9)

    def test_tie_goes_to_lowest_linear_index(self):
        x = t(np.full((1, 1, 2, 2), 7.0), requires_grad=True)
        with record() as g:
            loss = reduce_sum(ops.maxpool2d(x, kernel=2, stride=2))
        g.backward(loss)
        assert x.grad.reshape(-1).tolist() == [1.0, 0.0, 0.0, 0.0]

    # every odd window at stride 1 with "same" padding, plus k = 2 and 3 at
    # stride 2
    @pytest.mark.parametrize("kernel, stride, padding", [
        *(pytest.param(k, 1, (k - 1) // 2, id=str(k)) for k in (1, 3, 5, 7, 9, 11)),
        pytest.param(2, 2, 0, id="2-s2"), pytest.param(3, 2, 1, id="3-s2")])
    def test_ties_match_loops(self, kernel, stride, padding):
        """Forward and backward against the loop oracles in both precisions,
        on small integers: almost every window holds several copies of its
        max, so only the lowest-linear-index rule routes the gradient right."""
        for precision in ("train32", "check64"):
            tensor.set_precision(precision)
            rng = np.random.default_rng(kernel * 10 + stride)
            x = t(rng.integers(0, 3, size=(2, 3, 12, 10)), requires_grad=True)
            with record() as g:
                out = ops.maxpool2d(x, kernel=kernel, stride=stride, padding=padding)
            np.testing.assert_array_equal(
                out.data, maxpool2d_loops(x.data, kernel=kernel, stride=stride, padding=padding))
            g_out = rng.normal(size=out.shape).astype(tensor.dtype())
            out.accumulate_grad(g_out)
            g.nodes[-1].backward_fn(out.grad)
            np.testing.assert_array_equal(
                x.grad, maxpool2d_grad_loops(x.data, g_out, kernel=kernel, stride=stride,
                                             padding=padding))

    def test_window_outside_raises(self):
        x = t(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ConfigError):
            ops.maxpool2d(x, kernel=2, stride=1, padding=2)


class TestUpsample:
    def test_factor_2_blocks(self):
        x = t(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = ops.upsample_nearest(x, 2)
        expect = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
        assert out.data.reshape(4, 4).tolist() == expect

    def test_factor_1_identity(self):
        x = t(np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2))
        assert np.array_equal(ops.upsample_nearest(x, 1).data, x.data)

    def test_backward_sums_blocks(self):
        x = t(np.zeros((1, 1, 2, 2)), requires_grad=True)
        with record() as g:
            loss = reduce_sum(ops.upsample_nearest(x, 2))
        g.backward(loss)
        assert np.all(x.grad == 4.0)


class TestShiftScale:
    def test_shift_adds_constant(self):
        x = t(np.zeros((1, 1, 2, 2)))
        assert np.all(ops.shift(x, -0.5).data == -0.5)

    def test_shift_gradient_passthrough(self):
        x = t(np.ones((1, 1, 2, 2)), requires_grad=True)
        with record() as g:
            loss = reduce_sum(ops.shift(x, 3.0))
        g.backward(loss)
        assert np.all(x.grad == 1.0)

    def test_scale_gradient(self):
        x = t(np.ones((1, 1, 2, 2)), requires_grad=True)
        with record() as g:
            loss = reduce_sum(ops.scale(x, -2.5))
        g.backward(loss)
        assert np.all(x.grad == -2.5)


class TestElementwiseSum:
    def test_additive_identity(self):
        rng = np.random.default_rng(0)
        a = t(rng.normal(size=(1, 2, 3, 3)))
        z = t(np.zeros((1, 2, 3, 3)))
        assert np.array_equal(ops.elementwise_sum([a, z]).data, a.data)

    def test_doubling(self):
        a = t(np.full((1, 1, 2, 2), 1.5))
        assert np.all(ops.elementwise_sum([a, a]).data == 3.0)

    def test_four_random_match_loops(self, check64):
        rng = np.random.default_rng(9)
        arrs = [rng.normal(size=(2, 3, 4, 4)) for _ in range(4)]
        out = ops.elementwise_sum([t(a) for a in arrs])
        np.testing.assert_allclose(out.data, sum_loops(arrs), rtol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigError, match="shape"):
            ops.elementwise_sum([t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 3, 3)))])


def _fd_check_op(rng, build_inputs, run_op, n_instances, wants=None):
    """FD-vs-autodiff comparison over random instances of one op.

    Seeds the output gradient with a random projection and runs the tape
    sweep by hand, so the vector-Jacobian product of a single op is checked
    rather than just the gradient of its sum.  `wants` flags which inputs
    require gradients (default all); the others must receive none.
    """
    worst = 0.0
    for _ in range(n_instances):
        tensors = build_inputs(rng)
        flags = wants if wants is not None else (True,) * len(tensors)
        proj = rng.normal(size=run_op(*tensors).shape)

        def value():
            return float((run_op(*tensors).data * proj).sum())

        for target, flag in zip(tensors, flags):
            target.requires_grad = flag
        with record() as g:
            out = run_op(*tensors)
        out.accumulate_grad(proj.astype(out.data.dtype))
        for node in reversed(g.nodes):
            if node.output.grad is not None:
                node.backward_fn(node.output.grad)
        for target, flag in zip(tensors, flags):
            if not flag:
                assert target.grad is None
                continue
            numeric = fd_grad(value, target.data)
            worst = max(worst, grad_mismatch(target.grad, numeric))
            target.zero_grad()
            target.requires_grad = False
    return worst


def _away_from_zero(rng, shape):
    """Normal values pushed at least 1e-3 from relu's kink at 0, far beyond
    the finite-difference step of 1e-5."""
    v = rng.normal(size=shape)
    return v + np.where(v >= 0, 1e-3, -1e-3)


def _distinct_grid(rng, shape):
    """A shuffled grid of values 1e-2 apart: no max-pool window holds two
    values within a finite-difference step of each other."""
    return (rng.permutation(int(np.prod(shape))).reshape(shape) - 20.0) * 1e-2


@pytest.mark.parametrize("op_name", ["conv2d", "relu", "maxpool2d", "upsample", "sum", "scale"])
def test_gradients_match_finite_differences(op_name, check64):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    n_instances = 100

    if op_name == "conv2d":
        def build(rng):
            return (t(rng.normal(size=(1, 2, 5, 5))),
                    t(rng.normal(size=(2, 2, 3, 3))),
                    t(rng.normal(size=(1, 2, 1, 1))))

        def run(x, w, b):
            return ops.conv2d(x, w, b, stride=1, dilation=2, padding=2)
    elif op_name == "relu":
        def build(rng):
            return (t(_away_from_zero(rng, (2, 2, 4, 4))),)

        def run(x):
            return ops.relu(x)
    elif op_name == "maxpool2d":
        def build(rng):
            return (t(_distinct_grid(rng, (1, 2, 6, 6))),)

        def run(x):
            return ops.maxpool2d(x, kernel=3, stride=2, padding=1)
    elif op_name == "upsample":
        def build(rng):
            return (t(rng.normal(size=(1, 2, 3, 3))),)

        def run(x):
            return ops.upsample_nearest(x, 2)
    elif op_name == "sum":
        def build(rng):
            return (t(rng.normal(size=(1, 2, 3, 3))), t(rng.normal(size=(1, 2, 3, 3))))

        def run(a, b):
            return ops.elementwise_sum([a, b])
    else:
        def build(rng):
            return (t(rng.normal(size=(1, 2, 3, 3))),)

        def run(x):
            return ops.scale(x, -1.75)

    worst = _fd_check_op(rng, build, run, n_instances)
    assert worst <= 1e-4, f"{op_name}: worst FD mismatch {worst}"


@pytest.mark.parametrize("geometry", CONV_GEOMETRIES, ids=GEOMETRY_IDS)
def test_conv2d_geometry_gradients_match_finite_differences(geometry, check64):
    k, stride, dilation, padding = geometry
    rng = np.random.default_rng(zlib.crc32(repr(geometry).encode()))

    def run(x, w, b):
        return ops.conv2d(x, w, b, stride=stride, dilation=dilation, padding=padding)

    worst = _fd_check_op(rng, lambda r: _conv_inputs(r, k), run, 5)
    assert worst <= 1e-4, f"{geometry}: worst FD mismatch {worst}"


# which of (x, weight, bias) require a gradient
PARTIAL_WANTS = [(True, False, False), (False, True, False), (False, False, True),
                 (True, False, True), (False, True, True), (True, True, False)]
PARTIAL_IDS = ["x", "weight", "bias", "x+bias", "weight+bias", "x+weight"]


@pytest.mark.parametrize("geometry", CONV_GEOMETRIES, ids=GEOMETRY_IDS)
@pytest.mark.parametrize("wants", PARTIAL_WANTS, ids=PARTIAL_IDS)
def test_conv2d_partial_gradients_match_finite_differences(geometry, wants, check64):
    k, stride, dilation, padding = geometry
    rng = np.random.default_rng(zlib.crc32(repr((geometry, wants)).encode()))

    def run(x, w, b):
        return ops.conv2d(x, w, b, stride=stride, dilation=dilation, padding=padding)

    worst = _fd_check_op(rng, lambda r: _conv_inputs(r, k), run, 2, wants=wants)
    assert worst <= 1e-4, f"{geometry} {wants}: worst FD mismatch {worst}"


def test_serial_determinism(check64):
    rng = np.random.default_rng(42)
    x_data = rng.normal(size=(2, 3, 8, 8))
    w_data = rng.normal(size=(4, 3, 3, 3))
    b_data = rng.normal(size=(1, 4, 1, 1))

    def run_once():
        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        with record() as g:
            out = ops.relu(ops.conv2d(x, w, b, stride=2, dilation=1, padding=1))
            loss = reduce_sum(out)
        g.backward(loss)
        return out.data.copy(), x.grad.copy(), w.grad.copy()

    first = run_once()
    second = run_once()
    for a, b2 in zip(first, second):
        assert np.array_equal(a, b2)


@pytest.mark.usefixtures("two_lanes")
class TestConv2dTwoLanes(TestConv2d):
    """The conv loop-oracle tests above, and the conv finite-difference
    tests, with every pass on two or more images split into two lanes."""

    @pytest.mark.parametrize("geometry", CONV_GEOMETRIES, ids=GEOMETRY_IDS)
    def test_geometry_gradients_match_finite_differences(self, geometry, check64):
        test_conv2d_geometry_gradients_match_finite_differences(geometry, check64)

    @pytest.mark.parametrize("geometry", CONV_GEOMETRIES, ids=GEOMETRY_IDS)
    @pytest.mark.parametrize("wants", PARTIAL_WANTS, ids=PARTIAL_IDS)
    def test_partial_gradients_match_finite_differences(self, geometry, wants, check64):
        test_conv2d_partial_gradients_match_finite_differences(geometry, wants, check64)
