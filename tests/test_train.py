import collections
import ctypes
import dataclasses
import hashlib
import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dmlseg.train as train_module
from dmlseg import tensor
from dmlseg.checkpoint import load_container, load_gt_cache, save_gt_cache
from dmlseg.errors import ConfigError
from dmlseg.metrics import report_csv
import dmlseg.model as model_module
from dmlseg.model import ConvLayer, ModelConfig, build_model, describe
from dmlseg.tensor import Tensor
from dmlseg.synth_data import SceneSpec, read_corpus, write_corpus, write_pgm, write_ppm
from dmlseg.train import (TrainConfig, evaluate, grad_check, prepare_targets, run_experiment,
                          train)


def tiny_model_config(**kw):
    defaults = dict(num_classes=4, input_size=(32, 32),
                    low_channels=((8, 2), (8, 2)), seg_channels=(8, 8),
                    dml_extra_stride=2, window_sizes=(5, 3, 1), levels=3)
    defaults.update(kw)
    return ModelConfig(**defaults)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    spec = SceneSpec(seed=21, size=(32, 32), num_classes=4, shapes_min=2, shapes_max=4)
    return write_corpus(spec, 8, 4, tmp_path_factory.mktemp("corpus"))


def _params_digest(path):
    _, arrays = load_container(path)
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(arrays[name].tobytes())
    return h.hexdigest()


def _run_bytes(result):
    return result.checkpoint_path.read_bytes(), result.loss_csv_path.read_bytes()


def test_loss_goes_down(corpus, tmp_path):
    tcfg = TrainConfig(iterations=40, batch_size=4, lr=0.05, seed=0)
    result = train(corpus, tiny_model_config(), tcfg, tmp_path / "run")
    assert result.reports[-1].total < result.reports[0].total


def test_zero_lr_keeps_parameters_bitwise(corpus, tmp_path):
    mcfg = tiny_model_config()
    one = train(corpus, mcfg, TrainConfig(iterations=1, batch_size=4, lr=0.0, seed=5),
                tmp_path / "a")
    fresh = train(corpus, mcfg, TrainConfig(iterations=1, batch_size=4, lr=0.0, seed=5),
                  tmp_path / "b")
    for p, q in zip(one.model.parameters(), fresh.model.parameters()):
        assert np.array_equal(p.tensor.data, q.tensor.data)
    # and equal to a freshly initialized model: lr 0 never moves weights
    init = build_model(mcfg, seed=5)
    for p, q in zip(one.model.parameters(), init.parameters()):
        assert np.array_equal(p.tensor.data, q.tensor.data)


def test_train_restores_callers_precision(corpus, tmp_path):
    tensor.set_precision("check64")
    train(corpus, tiny_model_config(), TrainConfig(iterations=1, batch_size=4, seed=0),
          tmp_path / "run")
    assert tensor.precision() == "check64"
    with pytest.raises(ConfigError):
        train(corpus, tiny_model_config(), TrainConfig(iterations=1, batch_size=99),
              tmp_path / "bad")
    assert tensor.precision() == "check64"


def test_same_seed_reproduces_checkpoint_bits(corpus, tmp_path):
    mcfg = tiny_model_config()
    tcfg = TrainConfig(iterations=10, batch_size=4, lr=0.05, seed=9)
    a = train(corpus, mcfg, tcfg, tmp_path / "a")
    b = train(corpus, mcfg, tcfg, tmp_path / "b")
    assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()
    assert a.loss_csv_path.read_bytes() == b.loss_csv_path.read_bytes()


def test_loss_csv_shape_and_invariant(corpus, tmp_path):
    mcfg = tiny_model_config()
    tcfg = TrainConfig(iterations=12, batch_size=4, lr=0.05, seed=2)
    result = train(corpus, mcfg, tcfg, tmp_path / "run")
    lines = result.loss_csv_path.read_text().strip().split("\n")
    assert lines[0] == "iter,l_seg,l_mul_1,l_mul_2,l_mul_3,total"
    assert len(lines) == 13  # header + one row per iteration
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        assert int(parts[0]) == i
        l_seg, m1, m2, m3, total = map(float, parts[1:])
        assert abs(total - (l_seg + mcfg.lam * (m1 + m2 + m3))) <= 1e-6


def test_batch_size_larger_than_corpus_rejected(corpus, tmp_path):
    with pytest.raises(ConfigError, match="batch size"):
        train(corpus, tiny_model_config(),
              TrainConfig(iterations=1, batch_size=64, lr=0.1), tmp_path / "run")


def test_periodic_checkpointing(corpus, tmp_path):
    tcfg = TrainConfig(iterations=6, batch_size=4, lr=0.05, seed=1, eval_every=2)
    result = train(corpus, tiny_model_config(), tcfg, tmp_path / "run")
    assert result.checkpoint_path.exists()


@pytest.mark.parametrize("iterations, eval_every, saves", [(4, 2, 2), (5, 2, 3), (4, 0, 1)])
def test_checkpoint_written_once_per_period_and_at_the_end(corpus, tmp_path, monkeypatch,
                                                           iterations, eval_every, saves):
    # when the last iteration closes a period its save already holds the
    # final model, and it is not written again
    tcfg = TrainConfig(iterations=iterations, batch_size=4, lr=0.05, seed=2)
    plain = _run_bytes(train(corpus, tiny_model_config(), tcfg, tmp_path / "plain"))
    paths = []
    save = train_module.save_model_checkpoint
    monkeypatch.setattr(train_module, "save_model_checkpoint",
                        lambda path, model: (paths.append(path), save(path, model)))
    result = train(corpus, tiny_model_config(), dataclasses.replace(tcfg, eval_every=eval_every),
                   tmp_path / "run")
    assert paths == [result.checkpoint_path] * saves
    assert _run_bytes(result) == plain


def test_divergence_aborts_with_iteration_and_keeps_artifacts(corpus, tmp_path):
    from dmlseg.errors import NumericError
    tcfg = TrainConfig(iterations=50, batch_size=4, lr=1e8, seed=1, eval_every=1)
    ckpt = tmp_path / "run" / "checkpoint.dmls"
    with pytest.raises(NumericError, match="iteration") as err:
        train(corpus, tiny_model_config(), tcfg, tmp_path / "run")
    assert f"at iteration 2; last good checkpoint retained at {ckpt} (iteration 1)" \
        in str(err.value)
    assert ckpt.exists()  # last good one
    assert len((tmp_path / "run" / "loss.csv").read_text().splitlines()) == 1 + 2  # its rows


def test_failed_loss_csv_write_keeps_previous_file(corpus, tmp_path, monkeypatch):
    tcfg = TrainConfig(iterations=2, batch_size=4, lr=0.05, seed=1)
    run = tmp_path / "run"
    train(corpus, tiny_model_config(), tcfg, run)
    before = (run / "loss.csv").read_bytes()
    write_bytes = Path.write_bytes

    def torn_write(self, data):
        if self.name != "loss.csv.tmp":
            return write_bytes(self, data)
        with open(self, "wb") as f:
            f.write(data[:len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", torn_write)
    with pytest.raises(OSError, match="disk full"):
        train(corpus, tiny_model_config(), dataclasses.replace(tcfg, iterations=3), run)
    assert (run / "loss.csv").read_bytes() == before
    assert sorted(p.name for p in run.iterdir()) == ["checkpoint.dmls", "loss.csv"]


# desk training with sgd_step counted: the minor page faults of each step
# after the first, one line of counts on stdout
_FAULTS_SCRIPT = """
import resource, tempfile
from pathlib import Path
import dmlseg.train as train_module
from dmlseg.model import ModelConfig
from dmlseg.synth_data import SceneSpec, write_corpus

counts = []
sgd_step = train_module.sgd_step

def counted(*args, **kwargs):
    sgd_step(*args, **kwargs)
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

train_module.sgd_step = counted
cfg = ModelConfig(num_classes=8, input_size=(96, 96), low_channels=((24, 2), (48, 2)),
                  seg_channels=(64, 64))
with tempfile.TemporaryDirectory() as d:
    corpus = write_corpus(SceneSpec(seed=4, size=(96, 96), num_classes=8), 8, 0,
                          Path(d) / "corpus")
    train_module.train(corpus, cfg, train_module.TrainConfig(iterations=8, batch_size=8, seed=3),
                       Path(d) / "run")
print(*(b - a for a, b in zip(counts, counts[1:])))
"""


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt")
def test_desk_steps_reuse_memory_the_process_holds():
    """After warm-up a desk step (96x96, batch 8, levels 3) takes its arrays
    from pages earlier steps touched: at most 64 minor faults per step over
    steps 4-8, where returning freed memory to the kernel costs thousands.  BLAS is pinned to
    one thread, as the benchmark pins it, so that on two or more cores the
    conv lanes' threads allocate too."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(train_module.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    per_step = [int(v) for v in proc.stdout.split()]  # steps 2..8
    assert len(per_step) == 7
    late = per_step[2:]  # steps 4..8
    assert sum(late) <= 64 * len(late), f"minor faults per step {per_step}"


def test_every_way_of_handing_targets_gives_the_same_bytes(corpus, tmp_path):
    mcfg = tiny_model_config()
    tcfg = TrainConfig(iterations=4, batch_size=4, lr=0.05, seed=3)
    idxs = corpus.indices("train")
    save_gt_cache(tmp_path / "gt.dmls", mcfg, corpus.content_hash,
                  *prepare_targets(corpus.masks, mcfg))
    grids, targets = load_gt_cache(tmp_path / "gt.dmls", mcfg, corpus.content_hash)
    ways = {
        "none": (None, None),
        "prepared": prepare_targets(corpus.masks[idxs], mcfg),
        "cached": (grids[idxs], targets[idxs]),
        "per-image": ([grids[i] for i in idxs], [targets[i] for i in idxs]),
    }
    runs = {name: _run_bytes(train(corpus, mcfg, tcfg, tmp_path / name, g, t))
            for name, (g, t) in ways.items()}
    assert all(run == runs["none"] for run in runs.values())


@pytest.mark.parametrize("cut, message", [
    (lambda g, t: (g[:3], t[:3]), r"\(3, 8, 8\) and \(3, 3, 4, 4, 4\) do not fit \(8, 8, 8\)"),
    (lambda g, t: (g, t[:, :, :3]), r"\(8, 3, 3, 4, 4\) do not fit .* \(8, 2, 4, 4, 4\)"),
    (lambda g, t: (g, t), r"\(8, 3, 4, 4, 4\) do not fit .* \(8, 2, 4, 4, 4\)"),
], ids=["fewer-images", "fewer-classes", "more-levels"])
def test_targets_not_fitting_split_or_config_rejected(corpus, cut, message, tmp_path):
    # a levels-2 model handed levels-3 targets, or targets for only some
    # of the split's images: nothing is trained and nothing written
    grids, targets = cut(*prepare_targets(corpus.masks[corpus.indices("train")],
                                          tiny_model_config()))
    with pytest.raises(ConfigError, match=message):
        train(corpus, tiny_model_config(levels=2), TrainConfig(iterations=2, batch_size=4),
              tmp_path / "run", grids, targets)
    assert not (tmp_path / "run").exists()


def test_experiment_variant_equals_standalone_run(corpus, tmp_path):
    # the targets made once, for the deepest variant, give variant J their
    # first J levels
    mcfg = tiny_model_config()
    tcfg = TrainConfig(iterations=3, batch_size=4, lr=0.05, seed=8)
    run_experiment(corpus, mcfg, tcfg, tmp_path / "exp", levels=(0, 2, 3))
    for j in (0, 2, 3):
        alone = train(corpus, dataclasses.replace(mcfg, levels=j), tcfg, tmp_path / f"alone{j}")
        variant = tmp_path / "exp" / f"level{j}"
        assert (variant / "checkpoint.dmls").read_bytes() == alone.checkpoint_path.read_bytes()
        assert (variant / "loss.csv").read_bytes() == alone.loss_csv_path.read_bytes()


def test_evaluate_does_not_mutate_parameters(corpus, tmp_path):
    tcfg = TrainConfig(iterations=5, batch_size=4, lr=0.05, seed=3)
    result = train(corpus, tiny_model_config(), tcfg, tmp_path / "run")
    before = [p.tensor.data.copy() for p in result.model.parameters()]
    evaluate(result.model, corpus, "val")
    evaluate(result.model, corpus, "train")
    for prev, p in zip(before, result.model.parameters()):
        assert np.array_equal(prev, p.tensor.data)


def test_untrained_model_scores_near_chance(corpus):
    model = build_model(tiny_model_config(), seed=13)
    report = evaluate(model, corpus, "val")
    k = 4
    assert 0.0 <= report.mean_iou <= 1.5 / k


def test_evaluate_is_deterministic(corpus, tmp_path):
    tcfg = TrainConfig(iterations=5, batch_size=4, lr=0.05, seed=4)
    result = train(corpus, tiny_model_config(), tcfg, tmp_path / "run")
    a = evaluate(result.model, corpus, "val")
    b = evaluate(result.model, corpus, "val")
    assert np.array_equal(a.confusion, b.confusion)
    assert a.mean_iou == b.mean_iou
    assert a.mean_wrong_class == b.mean_wrong_class


def test_files_edited_after_reading_change_nothing(tmp_path):
    # a corpus is read, hashed and decoded once: a train image and a val
    # mask overwritten afterwards reach neither training nor scoring
    spec = SceneSpec(seed=21, size=(32, 32), num_classes=4, shapes_min=2, shapes_max=4)
    write_corpus(spec, 8, 4, tmp_path / "edited")
    shutil.copytree(tmp_path / "edited", tmp_path / "untouched")
    edited, untouched = read_corpus(tmp_path / "edited"), read_corpus(tmp_path / "untouched")
    write_ppm(edited.root / edited.entries[edited.indices("train")[0]][1],
              np.zeros((3, 32, 32), np.float32))
    write_pgm(edited.root / edited.entries[edited.indices("val")[0]][2],
              np.full((32, 32), 3, np.uint8))
    mcfg, tcfg = tiny_model_config(), TrainConfig(iterations=4, batch_size=4, lr=0.05, seed=3)
    runs = [train(corpus, mcfg, tcfg, tmp_path / f"run{k}")
            for k, corpus in enumerate((edited, untouched))]
    assert _run_bytes(runs[0]) == _run_bytes(runs[1])
    reports = [report_csv(evaluate(runs[0].model, corpus, "val")) for corpus in (edited, untouched)]
    assert reports[0] == reports[1]


def test_grad_check_passes_and_zero_tolerance_fails():
    # 32x32 keeps the pooled grids non-degenerate; FD near relu/max kinks
    # is probe-point sensitive, so the checked point matters
    report = grad_check(tiny_model_config(), 1e-4, seed=0)
    assert report.passed, f"max rel err {report.max_rel_err}"
    assert report.max_rel_err > 0.0  # tolerance 0 is unattainable
    assert len(report.per_layer) == 34  # every weight and bias covered


def test_grad_check_baseline_levels_zero():
    cfg = tiny_model_config(levels=0, window_sizes=())
    report = grad_check(cfg, 1e-4, seed=1)
    assert report.passed, f"max rel err {report.max_rel_err}"


@pytest.mark.parametrize("tolerance", [-1.0, float("nan")], ids=["negative", "nan"])
def test_grad_check_rejects_negative_or_nan_tolerance(tolerance, monkeypatch):
    monkeypatch.setattr(train_module, "build_model", None)  # nothing may be built
    with pytest.raises(ConfigError, match="tolerance must be non-negative"):
        grad_check(tiny_model_config(), tolerance)


def _fd_config(levels):
    return ModelConfig(num_classes=3, input_size=(16, 16), low_channels=((2, 2),),
                       seg_channels=(2, 2), window_sizes=(5, 3, 1)[:levels], levels=levels)


@pytest.mark.parametrize("levels", [3, 0])
def test_grad_check_memo_is_bit_identical_to_full_recompute(levels, monkeypatch):
    # seeds 0-2 of the smallest network, and seed 0 of the benchmark's
    # 32x32 one (CHECK_MODEL)
    cases = [(_fd_config(levels), s) for s in range(3)]
    cases.append((tiny_model_config(levels=levels, window_sizes=(5, 3, 1)[:levels]), 0))
    memoised = [grad_check(cfg, 1e-4, seed=s).per_layer for cfg, s in cases]
    objective = train_module.objective
    monkeypatch.setattr(train_module, "objective",
                        lambda model, x, y_seg, y_mul, cache=None:
                        objective(model, x, y_seg, y_mul))
    full = [grad_check(cfg, 1e-4, seed=s).per_layer for cfg, s in cases]
    assert memoised == full
    assert all(v > 0.0 for per_layer in full for v in per_layer.values())


def test_grad_check_calls_forward_once_per_evaluation(monkeypatch):
    cfg = _fd_config(3)
    calls = []
    forward = train_module.forward

    def counting_forward(model, image, trace=None):
        calls.append(model)
        return forward(model, image, trace)

    monkeypatch.setattr(train_module, "forward", counting_forward)
    grad_check(cfg, 1e-4, seed=0)
    n_params = sum(p.tensor.size for p in build_model(cfg).parameters())
    assert len(calls) == 1 + 2 * n_params


def _conv_names(model):
    """The model's conv layers in describe order: the trunk, then each head."""
    return [line.split()[0] for line in describe(model).splitlines() if " conv " in line]


def _rerun(names, layer):
    """The steps of `names` (describe order) a probe of `layer` runs: it and
    those after it on its path, which for a trunk layer is every later step."""
    later = names[names.index(layer):]
    if layer.startswith("low."):
        return later
    return [name for name in later if name.partition(".")[0] == layer.partition(".")[0]]


def _step_ops(model):
    """Each describe step's name and the ops it calls, in describe order."""
    steps = []
    for line in describe(model).splitlines()[1:-1]:
        name, kind, *rest = line.split()
        if kind == "conv":
            steps.append((name, ["conv2d"] + ["relu"] * ("relu" in rest)))
        else:
            steps.append((name, [{"-0.5": "shift", "max": "maxpool2d"}.get(
                kind, "upsample_nearest")]))
    return steps


@pytest.mark.parametrize("name", ["low.0.weight", "low.1.bias", "seg.0.weight", "seg.1.bias",
                                  "seg.proj.weight", "dml1.stage0.weight", "dml2.stage1.bias",
                                  "dml3.proj.weight", "dml1.adapt.bias", "dml2.adapt.weight"])
def test_probe_reruns_exactly_the_layers_it_moves(name, monkeypatch):
    cfg = tiny_model_config(low_channels=((8, 2), (8, 1), (8, 2)))  # a middle trunk layer
    model = build_model(cfg, seed=0)
    rng = np.random.default_rng(12)
    for p in model.parameters():
        p.tensor.data += rng.normal(scale=0.1, size=p.tensor.shape).astype(p.tensor.data.dtype)
    x = Tensor(rng.random((2, 3, 32, 32)))
    y_seg, y_mul = prepare_targets(rng.integers(0, 4, size=(2, 32, 32)).astype(np.uint8), cfg)
    memo = {}
    train_module.objective(model, x, y_seg, y_mul, memo)
    model.params[name].tensor.data.reshape(-1)[-1] += 0.25

    layers = [*model.low, *model.seg, model.seg_proj,
              *(layer for b in model.dml for layer in (*b.stage, b.proj, b.adapt))]
    names = {id(layer): name for layer, name in zip(layers, _conv_names(model))}
    ran = []
    call = ConvLayer.__call__

    def spy(layer, t):
        ran.append(names[id(layer)])
        return call(layer, t)

    monkeypatch.setattr(ConvLayer, "__call__", spy)
    total, report = train_module.objective(model, x, y_seg, y_mul,
                                           train_module._unaffected(memo, name))
    assert ran == _rerun(_conv_names(model), name.rpartition(".")[0])
    monkeypatch.undo()
    fresh, fresh_report = train_module.objective(model, x, y_seg, y_mul)
    assert np.array_equal(total.data, fresh.data)
    assert report == fresh_report


@pytest.mark.parametrize("levels", [3, 0])
def test_grad_check_op_counts_follow_the_per_layer_rule(levels, monkeypatch):
    # one forward and one fuse per evaluation (two per coordinate, plus the
    # recorded pass), and every op of every step a probe moves: a change that
    # widens recomputation, moves work between ops or drops an op boundary
    # fails here, not only in a benchmark run
    cfg = _fd_config(levels)
    ops = ("conv2d", "relu", "maxpool2d", "upsample_nearest", "shift", "elementwise_sum")
    calls = collections.Counter()
    for owner, op in [(train_module, "forward")] + [(model_module, op) for op in ops]:
        def counted(*args, op=op, orig=getattr(owner, op), **kwargs):
            calls[op] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(owner, op, counted)
    grad_check(cfg, 1e-4, seed=0)
    model = build_model(cfg)
    steps = _step_ops(model)
    names = [name for name, _ in steps]
    runs = collections.Counter(names)  # the recorded pass runs every step once
    for p in model.parameters():
        for name in _rerun(names, p.name.rpartition(".")[0]):
            runs[name] += 2 * p.tensor.size
    expected = collections.Counter({op: 0 for op in ops})
    for name, step_ops in steps:
        for op in step_ops:
            expected[op] += runs[name]
    coords = sum(p.tensor.size for p in model.parameters())
    expected["forward"] = expected["elementwise_sum"] = 2 * coords + 1
    assert calls == expected  # a missing op counts as zero
    assert expected["shift"] == 1 and (expected["maxpool2d"] > 0) == (levels > 0)


def test_experiment_structure_and_determinism(corpus, tmp_path):
    mcfg = tiny_model_config()
    tcfg = TrainConfig(iterations=6, batch_size=4, lr=0.05, seed=6)
    csv_a, reports = run_experiment(corpus, mcfg, tcfg, tmp_path / "a")
    lines = csv_a.strip().split("\n")
    assert lines[0] == "levels,mean_iou,mean_wrong_class,mean_wrong_label"
    assert [int(l.split(",")[0]) for l in lines[1:]] == [0, 1, 2, 3]
    assert len(reports) == 4
    csv_b, _ = run_experiment(corpus, mcfg, tcfg, tmp_path / "b")
    assert csv_a == csv_b
    assert (tmp_path / "a" / "experiment.csv").read_bytes() == \
        (tmp_path / "b" / "experiment.csv").read_bytes()


def test_package_does_not_shadow_train_module():
    import dmlseg.train as train_module

    assert inspect.ismodule(train_module)
    assert train_module.train is train
