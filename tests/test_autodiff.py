import itertools
import weakref

import numpy as np
import pytest

from dmlseg import losses, ops, tensor
from dmlseg.errors import ConfigError, UsageError
from dmlseg.gt_gen import IGNORE
from dmlseg.optim import sgd_step
from dmlseg.tensor import Graph, Parameter, Tensor, record, scalar

from helpers import reduce_sum


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
        loss = reduce_sum(ops.scale(x, 2.0))
    g.backward(loss)
    assert np.all(x.grad == 2.0)


def test_backward_relu_subgradient():
    x = Tensor(np.array([-1.0, 3.0]).reshape(1, 1, 1, 2), requires_grad=True)
    with record() as g:
        loss = reduce_sum(ops.relu(x))
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
        loss = reduce_sum(ops.relu(x))
        ops.relu(y)  # recorded but not feeding the loss
    g.backward(loss)
    assert np.all(x.grad == 1.0)
    assert y.grad is not None and np.all(y.grad == 0.0)


def test_graph_is_walked_once():
    x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    with record() as g:
        loss = reduce_sum(ops.scale(x, 2.0))
    with record() as empty:
        pass
    for graph, graph_loss in ((g, loss), (empty, scalar(1.0))):
        graph.backward(graph_loss)
        assert graph.nodes == []
        with pytest.raises(UsageError, match="already walked"):
            graph.backward(graph_loss)
    assert np.all(x.grad == 2.0)  # not added again


def test_intermediates_are_freed_as_the_walk_proceeds():
    """An intermediate's array lives on the tape only until the node that
    made it has run; the walk reaches the first recorded node with every
    later one already gone."""
    x = Tensor(np.arange(-2.0, 2.0).reshape(1, 1, 2, 2), requires_grad=True)
    alive_at_first_node = []
    with record() as g:
        def first_fn(grad):
            alive_at_first_node.append(ref())
            x.accumulate_grad(grad)
        first = tensor.push_node((x,), x.data.copy(), first_fn)
        mid = ops.relu(ops.scale(first, 2.0))
        ref = weakref.ref(mid.data)
        loss = reduce_sum(mid)
    del first, mid
    assert ref() is not None  # the tape holds it until backward
    g.backward(loss)
    assert ref() is None
    assert alive_at_first_node == [None]
    assert x.grad.reshape(-1).tolist() == [0.0, 0.0, 0.0, 2.0]


def test_grad_accumulates_across_uses():
    x = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
    with record() as g:
        loss = reduce_sum(ops.elementwise_sum([x, x]))
    g.backward(loss)
    assert x.grad.reshape(-1).tolist() == [2.0]


def test_no_recording_outside_tape():
    x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    with record() as g:
        pass
    ops.relu(x)
    assert g.nodes == []


_Y_SEG = np.array([0, 1, 2, IGNORE] * 8, dtype=np.uint8).reshape(2, 4, 4)
_Y_MUL = (_Y_SEG[:, None] == np.arange(3)[:, None, None]).astype(np.uint8)

# every op and loss: (input shapes, call on those inputs)
TAPE_OPS = {
    "conv2d": ([(1, 2, 5, 5), (3, 2, 3, 3), (1, 3, 1, 1)],
               lambda x, w, b: ops.conv2d(x, w, b, padding=1)),
    "relu": ([(1, 2, 3, 3)], ops.relu),
    "maxpool2d": ([(1, 2, 4, 4)], lambda x: ops.maxpool2d(x, kernel=3, stride=1, padding=1)),
    "upsample_nearest": ([(1, 2, 2, 2)], lambda x: ops.upsample_nearest(x, 2)),
    "elementwise_sum": ([(1, 2, 3, 3)] * 3, lambda *xs: ops.elementwise_sum(list(xs))),
    "scale": ([(1, 2, 3, 3)], lambda x: ops.scale(x, 0.5)),
    "shift": ([(1, 2, 3, 3)], lambda x: ops.shift(x, 0.5)),
    "reduce_sum": ([(1, 2, 3, 3)], reduce_sum),
    "multilabel_nll": ([(2, 3, 4, 4)], lambda m: losses.multilabel_nll(m, _Y_MUL)),
    "softmax_nll": ([(2, 3, 4, 4)], lambda p: losses.softmax_nll(p, _Y_SEG)),
}


@pytest.mark.parametrize("name, flags", [
    (name, flags) for name, (shapes, _) in TAPE_OPS.items()
    for flags in itertools.product((False, True), repeat=len(shapes))
], ids=lambda v: v if isinstance(v, str) else "".join("g" if f else "c" for f in v))
def test_tape_rule(name, flags, monkeypatch):
    """Each op's result needs a gradient iff an input does; inside record()
    exactly such a result adds one node, and outside it nothing is taped."""
    shapes, op = TAPE_OPS[name]
    rng = np.random.default_rng(0)
    inputs = [Tensor(rng.normal(size=shape), requires_grad=flag)
              for shape, flag in zip(shapes, flags)]
    wanted = any(flags)
    taped = []  # every Graph.record call, on any graph
    graph_record = Graph.record

    def spy(graph, *args):
        taped.append(args)
        graph_record(graph, *args)

    monkeypatch.setattr(Graph, "record", spy)
    with record() as g:
        out = op(*inputs)
    assert out.requires_grad == wanted
    assert len(g.nodes) == len(taped) == int(wanted)
    if wanted:
        assert g.nodes[0].output is out and g.nodes[0].inputs == tuple(inputs)
    taped.clear()
    assert op(*inputs).requires_grad == wanted
    assert taped == [] and len(g.nodes) == int(wanted)


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
