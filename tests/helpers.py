"""Graph ops only the tests use."""

import numpy as np

from dmlseg.tensor import Tensor, push_node


def reduce_sum(x: Tensor) -> Tensor:
    """Sum all elements into a (1, 1, 1, 1) scalar."""
    def backward_fn(g: np.ndarray) -> None:
        x.accumulate_grad(np.full_like(x.data, g.reshape(())))

    return push_node((x,), x.data.sum().reshape(1, 1, 1, 1), backward_fn)
