"""An interrupted training run never leaves a torn loss.csv/checkpoint pair.

`train()` saves at one point: every `eval_every`-th iteration and the last,
loss.csv (the rows so far) and then checkpoint.dmls, each renamed into
place.  So a run directory holds one save's pair, or the pair an earlier
run left there untouched, and only a kill between the two renames leaves
loss.csv one interval ahead of the checkpoint."""

import hashlib
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dmlseg.train as train_module
from dmlseg.checkpoint import load_model_checkpoint
from dmlseg.cli import main
from dmlseg.errors import NumericError
from dmlseg.synth_data import SceneSpec, write_corpus
from dmlseg.train import TrainConfig, train
from test_train import tiny_model_config

ARTIFACTS = ("checkpoint.dmls", "loss.csv")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    spec = SceneSpec(seed=21, size=(32, 32), num_classes=4, shapes_min=2, shapes_max=4)
    return write_corpus(spec, 8, 4, tmp_path_factory.mktemp("corpus"))


def _pair(run: Path) -> dict[str, bytes]:
    return {name: (run / name).read_bytes() for name in ARTIFACTS}


@pytest.fixture
def earlier_run(corpus, tmp_path):
    """A directory holding a finished 4-iteration run, and its pair."""
    run = tmp_path / "run"
    train(corpus, tiny_model_config(), TrainConfig(iterations=4, batch_size=4, seed=2), run)
    return run, _pair(run)


def _interrupt(monkeypatch, name, call):
    """Make the `call`-th call (from 1) of train's `name` raise KeyboardInterrupt."""
    real, calls = getattr(train_module, name), []

    def interrupted(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(train_module, name, interrupted)


def test_interrupt_before_the_first_save_keeps_the_earlier_pair(corpus, earlier_run,
                                                                monkeypatch):
    run, before = earlier_run
    _interrupt(monkeypatch, "sgd_step", 3)
    with pytest.raises(KeyboardInterrupt):
        train(corpus, tiny_model_config(),
              TrainConfig(iterations=10, batch_size=4, seed=1, eval_every=5), run)
    assert _pair(run) == before
    assert sorted(p.name for p in run.iterdir()) == sorted(ARTIFACTS)


@pytest.mark.parametrize("name, call, rows", [
    ("sgd_step", 7, 5),  # after the save at 5
    ("save_model_checkpoint", 2, 10),  # between the two writes of the save at 10
])
def test_interrupt_after_a_save_keeps_that_save_checkpoint(corpus, tmp_path, monkeypatch,
                                                           name, call, rows):
    tcfg = TrainConfig(iterations=10, batch_size=4, lr=0.05, seed=1, eval_every=5, lr_poly=0)
    whole = train(corpus, tiny_model_config(), tcfg, tmp_path / "whole")
    five = train(corpus, tiny_model_config(), TrainConfig(iterations=5, batch_size=4, lr=0.05,
                                                          seed=1), tmp_path / "five")
    _interrupt(monkeypatch, name, call)
    run = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        train(corpus, tiny_model_config(), tcfg, run)
    lines = whole.loss_csv_path.read_text().splitlines(keepends=True)
    assert (run / "loss.csv").read_text() == "".join(lines[:1 + rows])
    assert (run / "checkpoint.dmls").read_bytes() == five.checkpoint_path.read_bytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_divergence_before_the_first_save_names_no_checkpoint(corpus, earlier_run):
    run, before = earlier_run
    with pytest.raises(NumericError, match="at iteration 2; this run saved no checkpoint") as err:
        train(corpus, tiny_model_config(),
              TrainConfig(iterations=50, batch_size=4, lr=1e8, seed=1, eval_every=40), run)
    assert "retained" not in str(err.value)  # the checkpoint there is the earlier run's
    assert _pair(run) == before


# the SIGKILL harness: a tiny network, a save every 2 iterations, and an odd
# iteration count so that the last save is one of its own
KILL_ITERATIONS, KILL_EVERY = 81, 2
KILL_FLAGS = ["--classes", "4", "--input-size", "32x32", "--low-channels", "8/2,8/2",
              "--seg-channels", "8,8", "--windows", "5,3,1", "--batch-size", "4",
              "--lr", "0.05", "--lr-poly", "0", "--iterations", str(KILL_ITERATIONS),
              "--eval-every", str(KILL_EVERY)]
KILLS = 7


def _train_argv(corpus_root, out, seed):
    return ["train", "--corpus", str(corpus_root), "--out", str(out), *KILL_FLAGS,
            "--seed", str(seed)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csv_rows(text: str) -> list[str]:
    """loss.csv's rows after its header, each checked to parse."""
    header, *rows = text.splitlines()
    assert header.split(",")[0] == "iter"
    for i, row in enumerate(rows):
        fields = row.split(",")
        assert int(fields[0]) == i and len(fields) == len(header.split(","))
        [float(v) for v in fields[1:]]  # raises on a field that is not a number
    return rows


def test_sigkill_at_any_instant_leaves_a_consistent_pair(corpus, tmp_path, monkeypatch):
    # the reference: one uninterrupted run, the checkpoint's sha256 after
    # each save keyed by the rows loss.csv then held
    saves = {}
    save = train_module.save_model_checkpoint

    def recorded(path, model):
        save(path, model)
        rows = len(_csv_rows((Path(path).parent / "loss.csv").read_text()))
        saves[rows] = _sha(Path(path).read_bytes())

    with monkeypatch.context() as m:
        m.setattr(train_module, "save_model_checkpoint", recorded)
        assert main(_train_argv(corpus.root, tmp_path / "reference", 1)) == 0
    reference = _pair(tmp_path / "reference")
    ref_rows = _csv_rows(reference["loss.csv"].decode())
    points = sorted(saves)
    assert points == [*range(KILL_EVERY, KILL_ITERATIONS, KILL_EVERY), KILL_ITERATIONS]

    earlier = tmp_path / "earlier"  # a finished run of another seed
    assert main(_train_argv(corpus.root, earlier, 2)) == 0
    old = _pair(earlier)

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(train_module.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))

    def child(out):
        return subprocess.Popen([sys.executable, "-m", "dmlseg.cli",
                                 *_train_argv(corpus.root, out, 1)], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    # one whole child run sets the span the kill instants are drawn from
    start = time.perf_counter()
    whole = child(tmp_path / "whole")
    assert whole.wait(timeout=120) == 0
    span = time.perf_counter() - start
    assert _pair(tmp_path / "whole") == reference  # a child's bytes are the reference's

    rng = random.Random(2517)
    runs = []
    for k in range(KILLS):  # one instant in each seventh of the span
        run = tmp_path / f"killed{k}"
        shutil.copytree(earlier, run)
        proc = child(run)
        try:
            proc.wait(timeout=span * (k + rng.random()) / KILLS)
        except subprocess.TimeoutExpired:
            proc.kill()  # SIGKILL, to this test's own child only
        proc.wait(timeout=120)
        runs.append(run)

        now = _pair(run)
        load_model_checkpoint(run / "checkpoint.dmls")
        rows = _csv_rows(now["loss.csv"].decode())
        if now["loss.csv"] == old["loss.csv"]:
            assert now["checkpoint.dmls"] == old["checkpoint.dmls"], f"kill {k}"
            continue
        r = len(rows)
        assert r in saves and rows == ref_rows[:r], f"kill {k}: {r} rows"
        i = points.index(r)
        # the pair of the save at r, or, killed between the two renames,
        # loss.csv of that save beside the checkpoint of the one before
        allowed = {saves[r], saves[points[i - 1]] if i else _sha(old["checkpoint.dmls"])}
        assert _sha(now["checkpoint.dmls"]) in allowed, f"kill {k}: {r} rows"

    for run in runs:  # a rerun into the same directory gives the reference's bytes
        assert main(_train_argv(corpus.root, run, 1)) == 0
        assert _pair(run) == reference
        assert not list(run.glob("*.tmp"))
