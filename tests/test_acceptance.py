"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers when it holds (pytest -s shows them)."""

import dataclasses
import math
import time

import numpy as np
import pytest

from dmlseg import tensor
from dmlseg.checkpoint import load_container, load_model_checkpoint, save_model_checkpoint
from dmlseg.gt_gen import IGNORE, dilate_window
from dmlseg.losses import multilabel_nll, softmax_nll
from dmlseg.metrics import EvalReport, accumulate, finalize
from dmlseg.model import ModelConfig, build_model, forward
from dmlseg.synth_data import SceneSpec, write_corpus
from dmlseg.tensor import Tensor
from dmlseg.train import TrainConfig, evaluate, grad_check, run_experiment, train

from reference import (dilate_loops, iou_from_confusion, multilabel_nll_ref,
                       seg_metrics_loops, softmax_nll_ref)

# desk-scale defaults shared by the heavy criteria
DESK_MODEL = dict(num_classes=8, input_size=(96, 96),
                  low_channels=((24, 2), (48, 2)), seg_channels=(64, 64),
                  dml_extra_stride=2, window_sizes=(11, 5, 3), levels=3)
DESK_LR = 0.05
DESK_POLY = 1.0
DESK_ITERS = 600

CHECK_MODEL = dict(num_classes=4, input_size=(32, 32),
                   low_channels=((8, 2), (8, 2)), seg_channels=(8, 8),
                   dml_extra_stride=2, window_sizes=(5, 3, 1), levels=3)


def _report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_gradient_correctness():
    start = time.time()
    full = grad_check(ModelConfig(**CHECK_MODEL), 1e-4, seed=0)
    base_cfg = dataclasses.replace(ModelConfig(**CHECK_MODEL), levels=0, window_sizes=())
    base = grad_check(base_cfg, 1e-4, seed=0)
    elapsed = time.time() - start
    assert full.passed, f"3-level model: max rel err {full.max_rel_err:.3e}"
    assert base.passed, f"baseline: max rel err {base.max_rel_err:.3e}"
    assert elapsed < 300, f"grad check took {elapsed:.0f}s"
    _report(1, f"3-level {full.max_rel_err:.2e}, baseline {base.max_rel_err:.2e}, "
               f"{elapsed:.0f}s")


def test_criterion_2_dilation_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    combos = [(w, s) for w in (1, 3, 5, 7) for s in (1, 2, 4)]
    for i in range(200):
        window, stride = combos[i % len(combos)]
        mask = rng.integers(0, 4, size=(16, 16)).astype(np.uint8)
        mask[rng.random((16, 16)) < 0.1] = IGNORE
        binary = (mask[None] == np.arange(4)[:, None, None]).astype(np.uint8)
        got = dilate_window(mask, (window,), stride, 4)[0]
        expect = dilate_loops(binary, window, stride)
        assert np.array_equal(got, expect), f"mask {i}, window {window}, stride {stride}"
    elapsed = time.time() - start
    assert elapsed < 60, f"dilation oracle took {elapsed:.0f}s"
    _report(2, f"200 masks bit-exact in {elapsed:.1f}s")


def test_criterion_3_loss_unit_values(check64):
    rng = np.random.default_rng(3)
    ln2 = multilabel_nll(Tensor(np.zeros((2, 3, 4, 4))),
                         rng.integers(0, 2, size=(2, 3, 4, 4))).item()
    assert abs(ln2 - math.log(2)) < 1e-6
    ln4 = softmax_nll(Tensor(np.zeros((2, 4, 3, 3))),
                      rng.integers(0, 4, size=(2, 3, 3)).astype(np.uint8)).item()
    assert abs(ln4 - math.log(4)) < 1e-6

    worst = 0.0
    for _ in range(10):
        m = Tensor(rng.normal(scale=2.5, size=(2, 3, 4, 4)))
        y = rng.integers(0, 2, size=(2, 3, 4, 4))
        ref = multilabel_nll_ref(m.data, y)
        worst = max(worst, abs(multilabel_nll(m, y).item() - ref) / abs(ref))
        p = Tensor(rng.normal(scale=2.5, size=(2, 4, 4, 4)))
        ys = rng.integers(0, 4, size=(2, 4, 4)).astype(np.uint8)
        ys[rng.random((2, 4, 4)) < 0.1] = IGNORE
        ref = softmax_nll_ref(p.data, ys)
        worst = max(worst, abs(softmax_nll(p, ys).item() - ref) / abs(ref))
    assert worst <= 1e-12
    _report(3, f"ln2/ln4 exact to 1e-6, scalar reference max rel {worst:.2e}")


def test_criterion_4_fusion_identity():
    cfg = ModelConfig(**CHECK_MODEL)
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(50):
        model = build_model(cfg, seed=trial)
        for p in model.parameters():  # make every head contribute nonzero scores
            p.tensor.data += rng.normal(scale=0.1, size=p.tensor.shape).astype(
                p.tensor.data.dtype)
        out = forward(model, Tensor(rng.random((1, 3, 32, 32))))
        assert all(np.abs(t.data).max() > 0 for t in out.m_up)
        worst = max(worst, out.fusion_gap())
    assert worst == 0.0
    _report(4, "max |p - (s + sum m_up)| = 0 over 50 forwards")


@pytest.fixture(scope="module")
def overfit_corpus(tmp_path_factory):
    spec = SceneSpec(seed=55, size=(96, 96), num_classes=8)
    return write_corpus(spec, 8, 0, tmp_path_factory.mktemp("overfit"))


def test_criterion_5_overfit_sanity(overfit_corpus, tmp_path):
    start = time.time()
    model_cfg = ModelConfig(**DESK_MODEL)
    train_cfg = TrainConfig(iterations=200, batch_size=8, lr=DESK_LR, seed=0,
                            lr_poly=DESK_POLY)
    result = train(overfit_corpus, model_cfg, train_cfg, tmp_path / "overfit")
    initial, final = result.reports[0].total, result.reports[-1].total
    report = evaluate(result.model, overfit_corpus, "train")
    accuracy = report.pixel_accuracy()
    elapsed = time.time() - start
    assert final <= 0.5 * initial, f"objective {initial:.3f} -> {final:.3f}"
    assert accuracy >= 0.95, f"train pixel accuracy {accuracy:.3f}"
    assert elapsed < 600, f"overfit run took {elapsed:.0f}s"
    _report(5, f"objective {initial:.3f} -> {final:.3f}, "
               f"pixel acc {accuracy:.3f}, {elapsed:.0f}s")


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    spec = SceneSpec(seed=100, size=(96, 96), num_classes=8)
    return write_corpus(spec, 500, 100, tmp_path_factory.mktemp("desk"))


def test_criterion_6_direction_replication(desk_corpus, tmp_path):
    start = time.time()
    base_cfg = ModelConfig(**DESK_MODEL)
    wins = 0
    lines = []
    for i, seed in enumerate((1, 2, 3)):
        train_cfg = TrainConfig(iterations=DESK_ITERS, batch_size=8, lr=DESK_LR,
                                seed=seed, lr_poly=DESK_POLY)
        levels = (0, 1, 2, 3) if i == 0 else (0, 3)
        csv_text, reports = run_experiment(desk_corpus, base_cfg, train_cfg,
                                           tmp_path / f"seed{seed}", levels)
        if i == 0:  # Table-7-style ablation rows must be present
            rows = csv_text.strip().split("\n")
            assert [int(r.split(",")[0]) for r in rows[1:]] == [0, 1, 2, 3]
        by_level = dict(zip(levels, reports))
        j0, j3 = by_level[0], by_level[3]
        ok = (j3.mean_wrong_class <= j0.mean_wrong_class
              and j3.mean_iou >= j0.mean_iou - 0.005)
        wins += ok
        lines.append(f"seed {seed}: wrong_class {j0.mean_wrong_class:.2f}->"
                     f"{j3.mean_wrong_class:.2f}, iou {j0.mean_iou:.3f}->"
                     f"{j3.mean_iou:.3f} {'ok' if ok else 'MISS'}")
    elapsed = time.time() - start
    print()
    for line in lines:
        print("  " + line)
    assert wins >= 2, f"direction held in {wins}/3 seeds"
    assert elapsed < 3600, f"experiment took {elapsed:.0f}s"
    _report(6, f"{wins}/3 seeds, {elapsed / 60:.1f} min")


def test_criterion_7_determinism(tmp_path):
    spec = SceneSpec(seed=7, size=(32, 32), num_classes=4, shapes_min=2, shapes_max=4)
    corpus = write_corpus(spec, 8, 4, tmp_path / "corpus")
    model_cfg = ModelConfig(**CHECK_MODEL)
    train_cfg = TrainConfig(iterations=8, batch_size=4, lr=0.05, seed=11)
    a = train(corpus, model_cfg, train_cfg, tmp_path / "a")
    b = train(corpus, model_cfg, train_cfg, tmp_path / "b")
    assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()
    assert a.loss_csv_path.read_bytes() == b.loss_csv_path.read_bytes()
    exp_cfg = TrainConfig(iterations=4, batch_size=4, lr=0.05, seed=11)
    run_experiment(corpus, model_cfg, exp_cfg, tmp_path / "ea")
    run_experiment(corpus, model_cfg, exp_cfg, tmp_path / "eb")
    assert (tmp_path / "ea" / "experiment.csv").read_bytes() == \
        (tmp_path / "eb" / "experiment.csv").read_bytes()
    _report(7, "checkpoints, loss CSVs and experiment CSVs bit-identical")


def test_criterion_8_checkpoint_round_trip(tmp_path):
    cfg = ModelConfig(**CHECK_MODEL)
    model = build_model(cfg, seed=42)
    rng = np.random.default_rng(8)
    for p in model.parameters():
        p.momentum[:] = rng.normal(size=p.momentum.shape)
    path = tmp_path / "rt.dmls"
    save_model_checkpoint(path, model)
    loaded = load_model_checkpoint(path)
    _, arrays = load_container(path)
    for p in model.parameters():
        assert np.array_equal(arrays[p.name], p.tensor.data)
        assert np.array_equal(arrays[f"opt/{p.name}"], p.momentum)
    probe = Tensor(rng.random((2, 3, 32, 32)).astype(np.float32))
    before = forward(model, probe)
    after = forward(loaded, probe)
    assert np.array_equal(before.p.data, after.p.data)
    assert np.array_equal(before.s.data, after.s.data)
    _report(8, "parameters bit-identical, probe forward identical")


def test_criterion_9_metric_oracle():
    rng = np.random.default_rng(9)
    k = 6
    for case in range(100):
        shape = (rng.integers(4, 12), rng.integers(4, 12))
        gt = rng.integers(0, k, size=shape).astype(np.uint8)
        if case % 3 == 0:
            gt[rng.random(shape) < 0.2] = IGNORE  # ignore-pixel edge case
        if case % 4 == 0:
            gt[gt == 2] = 0  # absent-class edge case
        pred = rng.integers(0, k, size=shape).astype(np.uint8)
        report = finalize(accumulate(pred, gt, EvalReport(num_classes=k)))
        confusion, wrong_class, wrong_label = seg_metrics_loops(pred, gt, k)
        assert np.array_equal(report.confusion, confusion)
        assert report.mean_wrong_class == wrong_class
        assert report.mean_wrong_label == wrong_label
        for got, want in zip(report.per_class_iou, iou_from_confusion(confusion)):
            assert (np.isnan(got) and np.isnan(want)) or got == pytest.approx(want)
    _report(9, "100 random pairs match the loop oracle")
