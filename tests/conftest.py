import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dmlseg import ops, tensor


@pytest.fixture(autouse=True)
def reset_precision():
    yield
    tensor.set_precision("train32")


@pytest.fixture
def check64():
    tensor.set_precision("check64")
    yield
    tensor.set_precision("train32")


@pytest.fixture
def conv_lanes(monkeypatch):
    """`conv_lanes(w, inline_macs)` fixes conv2d's lane count and inline
    bound for one test.  The test starts with no lane pool, and a pool it
    creates is shut down, its threads joined, at teardown."""
    monkeypatch.setattr(ops, "_pool", None)

    def set_lanes(lanes, inline_macs=ops.INLINE_MACS):
        monkeypatch.setattr(ops, "_lanes", lanes)
        monkeypatch.setattr(ops, "INLINE_MACS", inline_macs)

    yield set_lanes
    if ops._pool is not None:
        ops._pool.shutdown()


@pytest.fixture
def two_lanes(conv_lanes):
    """Every conv pass on a batch of two or more images runs in two lanes."""
    conv_lanes(2, 0)
