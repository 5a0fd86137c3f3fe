"""conv2d's per-image lanes: outputs, gradients and training artifacts are
byte-identical for one lane and for two, errors in any lane reach the
caller, and work below the inline bound never starts a thread."""

import hashlib
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from dmlseg import ops, tensor
from dmlseg.cli import main
from dmlseg.model import ModelConfig
from dmlseg.synth_data import SceneSpec, write_corpus
from dmlseg.tensor import Tensor, record
from dmlseg.train import TrainConfig, grad_check, train

# (kernel, stride, dilation, padding); a 1x1 kernel ignores dilation
GEOMETRIES = [(k, s, d, p) for k in (1, 3) for s in (1, 2) for d in (1, 2)
              for p in (0, 1, 2) if k == 3 or d == 1]

# (c_in, c_out, h, w, geometry): every geometry on a 7x7 input, one output
# channel, and a 1x1 output
CASES = ([(3, 4, 7, 7, g) for g in GEOMETRIES]
         + [(3, 1, 6, 6, (3, 1, 1, 1)), (2, 3, 3, 3, (3, 1, 1, 0)), (2, 3, 5, 5, (3, 2, 2, 0))])

DESK_MODEL = ModelConfig(num_classes=8, input_size=(96, 96), low_channels=((24, 2), (48, 2)),
                         seg_channels=(64, 64))
CHECK_MODEL = ModelConfig(num_classes=4, input_size=(32, 32), low_channels=((8, 2), (8, 2)),
                          seg_channels=(8, 8), window_sizes=(5, 3, 1))


def _lane_threads():
    return [t for t in threading.enumerate() if t.name.startswith("dmlseg-lane")]


def _conv_bytes(n, case, seed):
    """Output and x, weight and bias gradients of one conv, the output
    gradient a random projection."""
    c_in, c_out, h, w, (k, stride, dilation, padding) = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(n, c_in, h, w)), requires_grad=True)
    wt = Tensor(rng.normal(size=(c_out, c_in, k, k)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, c_out, 1, 1)), requires_grad=True)
    with record() as g:
        out = ops.conv2d(x, wt, b, stride=stride, dilation=dilation, padding=padding)
    out.accumulate_grad(rng.normal(size=out.shape).astype(out.data.dtype))
    for node in reversed(g.nodes):
        node.backward_fn(node.output.grad)
    return out.data, x.grad, wt.grad, b.grad


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("mode", ["train32", "check64"])
def test_two_lanes_give_the_bytes_of_one(n, mode, conv_lanes):
    tensor.set_precision(mode)
    for i, case in enumerate(CASES):
        conv_lanes(1, 0)
        inline = _conv_bytes(n, case, i)
        conv_lanes(2, 0)
        laned = _conv_bytes(n, case, i)
        for name, a, b in zip(("out", "x.grad", "weight.grad", "bias.grad"), inline, laned):
            assert a.dtype == b.dtype == tensor.dtype()
            assert np.array_equal(a, b), f"{case} n={n}: {name} differs"
    assert (ops._pool is not None) == (n > 1)  # the two-lane runs did use the pool


def test_more_lanes_than_cores_under_fast_switching(conv_lanes):
    tensor.set_precision("check64")
    conv_lanes(1, 0)
    inline = [_conv_bytes(8, case, i) for i, case in enumerate(CASES)]
    conv_lanes(4, 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        laned = [_conv_bytes(8, case, i) for i, case in enumerate(CASES)]
    finally:
        sys.setswitchinterval(interval)
    for case, a, b in zip(CASES, inline, laned):
        assert all(np.array_equal(u, v) for u, v in zip(a, b)), case


def _desk_train(corpus, out):
    result = train(corpus, DESK_MODEL, TrainConfig(iterations=4, batch_size=8, seed=3), out)
    return [hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (result.checkpoint_path, result.loss_csv_path)]


def test_desk_training_artifacts_identical_for_one_and_two_lanes(tmp_path, conv_lanes):
    spec = SceneSpec(seed=4, size=(96, 96), num_classes=8)
    corpus = write_corpus(spec, 8, 0, tmp_path / "corpus")
    conv_lanes(1)
    one = _desk_train(corpus, tmp_path / "one")
    assert ops._pool is None
    conv_lanes(2)
    two = _desk_train(corpus, tmp_path / "two")
    assert ops._pool is not None  # the desk 3x3 convs are above the inline bound
    assert one == two


class LaneError(Exception):
    pass


@pytest.mark.parametrize("failing", [0, 1])
def test_lane_exception_reaches_caller_after_every_lane_stops(failing, two_lanes):
    running, done, lock = [0], [], threading.Lock()

    def pass_(a, b):
        with lock:
            running[0] += 1
        try:
            if a == failing:
                raise LaneError(f"image {a}")
            time.sleep(0.05)  # the other lane is still busy when the error is raised
            done.append(a)
        finally:
            with lock:
                running[0] -= 1

    with pytest.raises(LaneError, match=f"image {failing}"):
        ops._over_images(4, 0, pass_)
    assert running[0] == 0  # no lane left running
    finished = sorted(done)
    time.sleep(0.2)
    assert sorted(done) == finished  # and none starts later
    assert set(finished) <= {0, 1, 2, 3} - {failing} and len(set(finished)) == len(finished)
    out, *grads = _conv_bytes(4, CASES[0], 0)  # the next conv runs normally
    assert np.isfinite(out).all() and all(np.isfinite(g).all() for g in grads)


def _conv_in_child():
    _conv_bytes(4, CASES[0], 0)


def test_forked_child_starts_its_own_lanes(two_lanes):
    _conv_bytes(4, CASES[0], 0)
    assert ops._pool is not None
    child = multiprocessing.get_context("fork").Process(target=_conv_in_child)
    child.start()
    child.join(timeout=60)
    if child.is_alive():  # waiting on lanes of the parent's pool
        child.kill()
        child.join()
        pytest.fail("conv in a forked child did not finish")
    assert child.exitcode == 0


def test_non_finite_conv_output_exits_3_with_last_good_checkpoint(tmp_path, capsys,
                                                                  two_lanes, monkeypatch):
    corpus = tmp_path / "corpus"
    assert main(["gen-data", "--out", str(corpus), "--train", "4", "--val", "0",
                 "--seed", "2", "--classes", "4", "--input-size", "32x32"]) == 0
    ckpt = tmp_path / "run" / "checkpoint.dmls"
    real_matmul = np.matmul

    def poisoned_matmul(*args, **kwargs):
        # once a checkpoint exists, every product a pool lane computes is inf
        result = real_matmul(*args, **kwargs)
        if threading.current_thread().name.startswith("dmlseg-lane") and ckpt.exists():
            result[...] = np.inf
        return result

    monkeypatch.setattr(np, "matmul", poisoned_matmul)
    code = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
                 "--classes", "4", "--input-size", "32x32", "--low-channels", "8/2,8/2",
                 "--seg-channels", "8,8", "--windows", "5,3,1", "--iterations", "50",
                 "--batch-size", "4", "--eval-every", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "conv2d produced non-finite values" in err
    assert "at iteration 1; last good checkpoint retained" in err
    assert ckpt.exists()


def test_grad_check_starts_no_lane_thread(conv_lanes):
    conv_lanes(2)  # two lanes, but every conv of the check network is inline
    before = _lane_threads()
    assert grad_check(CHECK_MODEL, 1e-4, seed=0).passed
    assert ops._pool is None
    assert _lane_threads() == before


def test_one_lane_starts_no_thread(conv_lanes):
    conv_lanes(1, 0)  # every pass above the inline bound, but one lane
    before = _lane_threads()
    _conv_bytes(8, CASES[0], 0)
    assert ops._pool is None
    assert _lane_threads() == before


def test_lane_count_divides_cores_by_blas_threads(monkeypatch):
    monkeypatch.setattr(ops.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    assert ops._lane_count() == 1  # unset: BLAS takes every core
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert ops._lane_count() == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # read before OMP_NUM_THREADS
    assert ops._lane_count() == 4
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    assert ops._lane_count() == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "junk")
    assert ops._lane_count() == 2
