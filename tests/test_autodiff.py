import numpy as np
import pytest

from dmlseg import ops, tensor
from dmlseg.errors import ConfigError, UsageError
from dmlseg.optim import sgd_step
from dmlseg.tensor import Parameter, Tensor, record, scalar


def test_tensor_is_rank_four_only():
    with pytest.raises(ConfigError):
        Tensor(np.zeros((3, 3)))


def test_precision_mode_switches_dtype():
    tensor.set_precision("check64")
    assert Tensor(np.zeros((1, 1, 1, 1))).data.dtype == np.float64
    tensor.set_precision("train32")
    assert Tensor(np.zeros((1, 1, 1, 1))).data.dtype == np.float32
    with pytest.raises(UsageError):
        tensor.set_precision("float16")


def test_backward_constant_scale():
    x = Tensor(np.ones((1, 2, 2, 2)), requires_grad=True)
    with record() as g:
        loss = ops.reduce_sum(ops.scale(x, 2.0))
    g.backward(loss)
    assert np.all(x.grad == 2.0)


def test_backward_relu_subgradient():
    x = Tensor(np.array([-1.0, 3.0]).reshape(1, 1, 1, 2), requires_grad=True)
    with record() as g:
        loss = ops.reduce_sum(ops.relu(x))
    g.backward(loss)
    assert x.grad.reshape(-1).tolist() == [0.0, 1.0]


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    with record() as g:
        out = ops.relu(x)
    with pytest.raises(UsageError, match="scalar"):
        g.backward(out)


def test_unreached_tensor_gets_zero_grad():
    x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    y = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    with record() as g:
        loss = ops.reduce_sum(ops.relu(x))
        ops.relu(y)  # recorded but not feeding the loss
    g.backward(loss)
    assert np.all(x.grad == 1.0)
    assert y.grad is not None and np.all(y.grad == 0.0)


def test_grad_accumulates_across_uses():
    x = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
    with record() as g:
        loss = ops.reduce_sum(ops.elementwise_sum([x, x]))
    g.backward(loss)
    assert x.grad.reshape(-1).tolist() == [2.0]


def test_no_recording_outside_tape():
    x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    with record() as g:
        pass
    ops.relu(x)
    assert g.nodes == []


class TestSgdStep:
    def _param(self, value):
        p = Parameter("w", np.full((1, 1, 1, 1), value, dtype=tensor.dtype()))
        return p

    def test_plain_step(self):
        p = self._param(1.0)
        p.tensor.grad = np.ones_like(p.tensor.data)
        sgd_step([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        assert p.tensor.data.reshape(-1)[0] == pytest.approx(0.9)
        assert p.tensor.grad is None

    def test_momentum_recursion(self):
        p = self._param(0.0)
        for expected in (-0.1, -0.29):
            p.tensor.grad = np.ones_like(p.tensor.data)
            sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0)
            assert p.tensor.data.reshape(-1)[0] == pytest.approx(expected, abs=1e-6)

    def test_decay_only(self):
        p = self._param(2.0)
        p.tensor.grad = np.zeros_like(p.tensor.data)
        sgd_step([p], lr=1.0, momentum=0.0, weight_decay=0.0005)
        assert p.tensor.data.reshape(-1)[0] == pytest.approx(1.999)

    def test_missing_gradient_raises(self):
        p = self._param(1.0)
        with pytest.raises(UsageError, match="gradient"):
            sgd_step([p], lr=0.1)

    def test_zero_lr_keeps_parameters(self):
        p = self._param(3.0)
        before = p.tensor.data.copy()
        p.tensor.grad = np.ones_like(p.tensor.data)
        sgd_step([p], lr=0.0, momentum=0.9, weight_decay=0.0005)
        assert np.array_equal(p.tensor.data, before)
        assert p.momentum.reshape(-1)[0] != 0.0  # velocity still advanced


def test_scalar_helper():
    s = scalar(3.5)
    assert s.shape == (1, 1, 1, 1)
    assert s.item() == pytest.approx(3.5)


def test_parameter_rng_is_stable():
    a = tensor.parameter_rng(7, "low.0.weight").normal(size=4)
    b = tensor.parameter_rng(7, "low.0.weight").normal(size=4)
    c = tensor.parameter_rng(7, "low.1.weight").normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
