"""Rank-4 tensors with a recording tape for reverse-mode differentiation.

Element type is a process-wide mode, not a per-tensor property: float32 for
training speed ("train32"), float64 for finite-difference checking
("check64").  Everything here is plain numpy underneath and
bit-deterministic for identical inputs: the tape runs on the caller's
thread, and the only parallel work, `ops.conv2d`'s per-image lanes, gives
the same bytes for any number of lanes.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, UsageError

MODES = {"train32": np.float32, "check64": np.float64}
_dtype = np.dtype(np.float32)


def set_precision(mode: str) -> None:
    """Switch the element type for all tensors created afterwards."""
    global _dtype
    if mode not in MODES:
        raise UsageError(f"unknown precision mode {mode!r}, expected one of {sorted(MODES)}")
    _dtype = np.dtype(MODES[mode])


def precision() -> str:
    return "train32" if _dtype == np.float32 else "check64"


def dtype() -> np.dtype:
    return _dtype


class Tensor:
    """Dense (N, C, H, W) array with optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=_dtype)
        if arr.ndim != 4:
            raise ConfigError(f"tensors are rank-4 (N, C, H, W), got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:  # one pass, no zero fill: g + 0.0 is 0.0 + g bit for bit
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of shape {self.shape}")
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def scalar(value: float) -> Tensor:
    """A rank-4 scalar of shape (1, 1, 1, 1) that needs no gradient."""
    return Tensor(np.full((1, 1, 1, 1), value, dtype=_dtype))


class Node(NamedTuple):
    """One recorded operation: its input/output tensors and how to push
    the output gradient back to the inputs."""

    inputs: tuple[Tensor, ...]
    output: Tensor
    backward_fn: Callable[[np.ndarray], None]


class Graph:
    """Tape of operations in forward execution order.

    Forward order is a topological order by construction, so backward
    simply walks the list in reverse.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def record(self, inputs: tuple[Tensor, ...], output: Tensor,
               backward_fn: Callable[[np.ndarray], None]) -> None:
        self.nodes.append(Node(inputs, output, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Populate .grad on every tensor the loss depends on.

        The loss must be a scalar tensor produced while this graph was
        recording.  Gradients accumulate into existing buffers; recorded
        tensors the loss cannot reach end up with zero gradients.
        """
        if loss.size != 1:
            raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.accumulate_grad(np.ones_like(loss.data))
        for node in reversed(self.nodes):
            g = node.output.grad
            if g is None:
                continue
            node.backward_fn(g)
        for node in self.nodes:
            for t in node.inputs:
                if t.requires_grad and t.grad is None:
                    t.grad = np.zeros_like(t.data)


_active: Graph | None = None


@contextmanager
def record(graph: Graph | None = None) -> Iterator[Graph]:
    """Record all ops executed in this block onto one tape."""
    global _active
    g = graph if graph is not None else Graph()
    prev = _active
    _active = g
    try:
        yield g
    finally:
        _active = prev


def push_node(inputs: tuple[Tensor, ...], out_data: np.ndarray,
              backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Every op's and loss's result tensor, and the one home of the tape
    rule: it needs a gradient iff some input does, and only then, while
    `record()` is active, is `backward_fn` taped."""
    requires = False
    for t in inputs:  # a plain loop: any() over a generator costs more per op
        requires = requires or t.requires_grad
    out = Tensor(out_data, requires)
    if requires and _active is not None:
        _active.record(inputs, out, backward_fn)
    return out


class Parameter:
    """Named trainable tensor plus its momentum buffer."""

    __slots__ = ("name", "tensor", "momentum")

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.tensor = Tensor(data, requires_grad=True)
        self.momentum = np.zeros_like(self.tensor.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


def parameter_rng(seed: int, name: str) -> np.random.Generator:
    """Deterministic per-parameter stream, stable across model variants.

    Keyed on the parameter name so that models sharing a sub-block
    initialize that sub-block identically for the same seed.
    """
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


def check_params_have_grads(params: Sequence[Parameter]) -> None:
    missing = [p.name for p in params if p.tensor.grad is None]
    if missing:
        raise UsageError(f"sgd_step before backward: no gradient on {missing[:3]}")
