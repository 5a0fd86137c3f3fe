"""Training loop, evaluation, end-to-end gradient checking and the
baseline-vs-multi-label ablation experiment."""

from __future__ import annotations

import ctypes
import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor
from .checkpoint import save_model_checkpoint, write_atomic
from .errors import ConfigError, NumericError
from .gt_gen import IGNORE, check_labels, check_targets, downsample_mask, multilabel_from_grid_mask
from .kv import KvConfig
from .losses import LossReport, multilabel_nll, seg_picks, softmax_nll, total_objective
from .metrics import EvalReport, accumulate, finalize
from .model import Model, ModelConfig, build_model, forward, predict_labels
from .optim import sgd_step
from .synth_data import Corpus
from .tensor import Tensor, record


@dataclass(frozen=True)
class TrainConfig(KvConfig):
    iterations: int = 300
    batch_size: int = 8
    momentum: float = 0.9
    weight_decay: float = 0.0005
    lr: float = 0.01
    seed: int = 0
    # iterations between saves of loss.csv and the checkpoint (no evaluation
    # runs); 0: one save, at the end
    eval_every: int = 0
    precision: str = "train32"
    lr_poly: float = 0.0  # 0: constant rate

    def __post_init__(self):
        if self.iterations < 1 or self.batch_size < 1:
            raise ConfigError("iterations and batch_size must be positive")
        if not (0 <= self.momentum < 1):
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (self.weight_decay >= 0 and self.lr >= 0 and self.lr_poly >= 0):
            raise ConfigError("lr, weight_decay and lr_poly must be non-negative")
        for key in ("eval_every", "seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be non-negative, got {getattr(self, key)}")
        if self.precision not in tensor.MODES:
            raise ConfigError(f"precision must be one of {sorted(tensor.MODES)}, "
                              f"got {self.precision!r}")


@dataclass(frozen=True)
class ExperimentConfig(KvConfig):
    run_levels: tuple[int, ...] = (0, 1, 2, 3)  # one variant per level count

    def __post_init__(self):
        if not self.run_levels:
            raise ConfigError("run_levels must name at least one level count")


@dataclass
class TrainResult:
    model: Model
    checkpoint_path: Path
    loss_csv_path: Path
    reports: list[LossReport]


def prepare_targets(masks, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (N, Hg, Wg) decimated masks and (N, J, K, Hd, Wd) presence targets
    of an (N, H, W) stack of uint8 label masks, both uint8 and made for the
    whole stack at once; masks whose shape is not the config's input size are
    a ConfigError."""
    masks = np.asarray(masks, np.uint8)
    if len(masks) and masks.shape[1:] != config.input_size:
        raise ConfigError(f"mask shape {masks.shape[1:]} is not input_size {config.input_size}")
    grids = downsample_mask(masks.reshape(len(masks), *config.input_size),
                            config.s_low, config.num_classes)
    return grids, multilabel_from_grid_mask(grids, config)


@contextmanager
def _precision(mode: str):
    """Run a block in one precision mode and restore the caller's after."""
    prev_mode = tensor.precision()
    tensor.set_precision(mode)
    try:
        yield
    finally:
        tensor.set_precision(prev_mode)


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt(3) parameters, glibc's malloc.h


def _keep_freed_heap() -> None:
    """Let the C heap keep what a training step frees, for the next step.

    A desk step allocates and frees tens of MB of arrays of a few MB each.
    With glibc's defaults the larger ones are mmapped and unmapped, and the
    heap top is trimmed, so every step faults the same pages in afresh.
    Here arrays below 32 MiB come from the heap, and the heap is trimmed
    only when more than 64 MiB is free at its top: the largest values
    glibc's own dynamic thresholds reach on a 64-bit host, fixed from the
    first step.  Setting them again changes nothing; where the C library
    has no mallopt (not glibc) this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no libc handle
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


def objective(model: Model, x: Tensor, y_seg: np.ndarray, y_mul: np.ndarray,
              memo: dict | None = None) -> tuple[Tensor, LossReport]:
    """Forward pass plus the joint loss: softmax NLL of the fused scores and
    lambda times one presence loss per DML level j, against `y_mul[:, j-1]`.

    `memo` is handed to `forward` as its memo of layer outputs, and also
    holds head j's presence loss (j from 1) under `dml{j}.loss` and the seg
    target's `seg_picks` under `picks`.  The softmax loss and the total
    always run, so with entries from the same inputs and parameters the loss
    is bit-identical to a full recompute.
    """
    memo = {} if memo is None else memo
    net = forward(model, x, memo)
    l_mul = []
    for j, m in enumerate(net.m, start=1):
        key = f"dml{j}.loss"
        if key not in memo:
            memo[key] = multilabel_nll(m, y_mul[:, j - 1])
        l_mul.append(memo[key])
    if "picks" not in memo:
        memo["picks"] = seg_picks(y_seg, net.p.shape)
    l_seg = softmax_nll(net.p, y_seg, memo["picks"])
    return total_objective(l_seg, l_mul, model.config.lam)


def _batch_iterator(n: int, batch_size: int, seed: int):
    """Seeded without-replacement epochs, partial tail batches dropped."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    while True:
        order = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            yield order[start:start + batch_size]


def _train_indices(corpus: Corpus, train_cfg: TrainConfig) -> list[int]:
    """The corpus's training images, checked to fill one batch."""
    idxs = corpus.indices("train")
    if not idxs:
        raise ConfigError("corpus has no training images")
    if train_cfg.batch_size > len(idxs):
        raise ConfigError(f"batch size {train_cfg.batch_size} exceeds "
                          f"{len(idxs)} training images")
    return idxs


def train(corpus: Corpus, model_cfg: ModelConfig, train_cfg: TrainConfig,
          out_dir: Path, grids=None, targets=None) -> TrainResult:
    """SGD over the joint objective.  Every `eval_every`-th iteration and the
    last (0: the last only) is a save point, which writes loss.csv, the rows
    so far, and then checkpoint.dmls, each atomically.
    `grids` (N, Hg, Wg) and `targets` (N, J, K, Hd, Wd), or their per-image
    rows, default to `prepare_targets` of the split; a misfit is a ConfigError.
    Memory freed by one step is kept for the next (`_keep_freed_heap`)."""
    _keep_freed_heap()
    with _precision(train_cfg.precision):
        idxs = _train_indices(corpus, train_cfg)
        if grids is None or targets is None:
            grids, targets = prepare_targets(corpus.masks[idxs], model_cfg)
        grids, targets = np.asarray(grids), np.asarray(targets)
        check_targets(grids, targets, model_cfg, len(idxs))

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)  # only once the inputs are known good
        model = build_model(model_cfg, seed=train_cfg.seed)
        params = model.parameters()
        ckpt_path = out / "checkpoint.dmls"
        csv_path = out / "loss.csv"
        batches = _batch_iterator(len(idxs), train_cfg.batch_size, train_cfg.seed)
        reports: list[LossReport] = []
        rows = [LossReport.csv_header(model_cfg.levels)]
        saved = None  # the iteration of this run's last save

        for it in range(train_cfg.iterations):
            idx = next(batches)
            x = Tensor(np.stack([corpus.load_image(idxs[i]) for i in idx]))

            try:
                with record() as g:
                    total, report = objective(model, x, grids[idx], targets[idx])
                if not math.isfinite(report.total):
                    raise NumericError("non-finite loss")
                g.backward(total)
            except NumericError as exc:
                kept = ("this run saved no checkpoint" if saved is None else
                        f"last good checkpoint retained at {ckpt_path} (iteration {saved})")
                raise NumericError(f"{exc} at iteration {it}; {kept}") from exc

            lr = train_cfg.lr
            if train_cfg.lr_poly > 0:
                lr *= (1.0 - it / train_cfg.iterations) ** train_cfg.lr_poly
            sgd_step(params, lr, train_cfg.momentum, train_cfg.weight_decay)

            reports.append(report)
            rows.append(report.csv_row(it))
            if it + 1 == train_cfg.iterations or (
                    train_cfg.eval_every and (it + 1) % train_cfg.eval_every == 0):
                # loss.csv first: a save cut short leaves it ahead, never behind
                write_atomic(csv_path, ("\n".join(rows) + "\n").encode("utf-8"))
                save_model_checkpoint(ckpt_path, model)
                saved = it
        return TrainResult(model=model, checkpoint_path=ckpt_path,
                           loss_csv_path=csv_path, reports=reports)


def evaluate(model: Model, corpus: Corpus, split: str = "val",
             batch_size: int = 8) -> EvalReport:
    """Full-resolution metric accumulation over one split; never records a
    graph and never touches parameters."""
    idxs = corpus.indices(split)
    if not idxs:
        raise ConfigError(f"corpus has no {split!r} images")
    full = corpus.spec.size
    report = EvalReport(num_classes=model.config.num_classes)
    for start in range(0, len(idxs), batch_size):
        chunk = idxs[start:start + batch_size]
        x = Tensor(np.stack([corpus.load_image(i) for i in chunk]))
        net = forward(model, x)
        pred = predict_labels(net.p, full)
        for row, i in enumerate(chunk):
            accumulate(pred[row], corpus.masks[i], report)
    return finalize(report)


@dataclass
class GradCheckReport:
    per_layer: dict[str, float]
    max_rel_err: float
    tolerance: float
    passed: bool

    def lines(self) -> list[str]:
        out = [f"{name:<24} max_rel_err {err:.3e}" for name, err in self.per_layer.items()]
        out.append(f"overall max {self.max_rel_err:.3e} "
                   f"{'<=' if self.passed else '>'} tolerance {self.tolerance:.3e}")
        return out


def _rel_err(analytic: np.ndarray, numeric: np.ndarray, abs_floor=1e-8) -> float:
    mag = np.abs(analytic) + np.abs(numeric)
    diff = np.abs(analytic - numeric)
    small = mag < abs_floor
    rel = np.where(small, diff, diff / np.where(small, 1.0, mag))
    return float(rel.max()) if rel.size else 0.0


def _unaffected(memo: dict, param: str) -> dict:
    """The entries of an objective memo, as one full pass filled it, that do
    not depend on `param`.

    The layer holding `param` is stored under its describe name.  Kept:
    every entry computed before that one on its path; for a layer outside
    the trunk (`low`), every other head too; and always the entries that
    depend on no parameter (`center` and `picks`).  Everything else is
    recomputed."""
    layer = param.rpartition(".")[0]
    head = layer.partition(".")[0]
    keys = list(memo)  # in the order the pass computed them
    moved = keys[keys.index(layer):] if layer in memo else keys
    if head != "low":
        moved = [k for k in moved if k.partition(".")[0] == head]
    drop = set(moved) - {"center", "picks"}
    return {k: v for k, v in memo.items() if k not in drop}


FD_BATCH = 2  # images in grad_check's random batch
FD_STEP = 1e-5  # grad_check's central-difference half step


def grad_check(model_cfg: ModelConfig, tolerance: float, *, seed: int = 0) -> GradCheckReport:
    """Compare every parameter gradient of the full objective against
    central finite differences on one small random batch (64-bit).

    The recorded pass fills one `objective` memo; each finite-difference
    evaluation starts from a copy of it without the entries that depend on
    the perturbed parameter (`_unaffected`), so only its layer, the layers
    after it on its path, their losses, the softmax loss and the fuse are
    recomputed, and the seg target's picks are made once.  Every evaluation
    still makes one `forward` call, and every value is bit-identical to a
    full recompute.
    """
    if not tolerance >= 0:  # nan included
        raise ConfigError(f"tolerance must be non-negative, got {tolerance}")
    with _precision("check64"):
        model = build_model(model_cfg, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        for p in model.parameters():
            # probe at a generic smooth point: the init point is degenerate
            # (adaptive layers exactly zero, zero biases putting relu inputs
            # on the kink, where central differences are unreliable)
            p.tensor.data += rng.normal(scale=0.1, size=p.tensor.shape)
            if p.name.endswith(".bias"):
                p.tensor.data += 0.1
        h, w = model_cfg.input_size
        x_data = rng.random((FD_BATCH, 3, h, w))
        masks = rng.integers(0, model_cfg.num_classes, size=(FD_BATCH, h, w)).astype(np.uint8)
        masks[rng.random((FD_BATCH, h, w)) < 0.05] = IGNORE
        y_seg, y_mul = prepare_targets(masks, model_cfg)

        x = Tensor(x_data)
        memo: dict = {}
        with record() as g:
            total, _ = objective(model, x, y_seg, y_mul, memo)
        g.backward(total)

        per_layer: dict[str, float] = {}
        for p in model.parameters():
            kept = _unaffected(memo, p.name)
            analytic = p.tensor.grad.copy()
            numeric = np.zeros_like(analytic)
            data = p.tensor.data
            flat = data.reshape(-1)
            nflat = numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + FD_STEP
                hi = objective(model, x, y_seg, y_mul, dict(kept))[0].item()
                flat[i] = orig - FD_STEP
                lo = objective(model, x, y_seg, y_mul, dict(kept))[0].item()
                flat[i] = orig
                nflat[i] = (hi - lo) / (2 * FD_STEP)
            per_layer[p.name] = _rel_err(analytic, numeric)
        worst = max(per_layer.values())
        return GradCheckReport(per_layer=per_layer, max_rel_err=worst,
                               tolerance=tolerance, passed=worst <= tolerance)


EXPERIMENT_HEADER = "levels,mean_iou,mean_wrong_class,mean_wrong_label"


def run_experiment(corpus: Corpus, base_cfg: ModelConfig, train_cfg: TrainConfig,
                   out_dir: Path, levels=(0, 1, 2, 3)) -> tuple[str, list[EvalReport]]:
    """Train and evaluate one variant per level count with a shared seed,
    corpus and schedule; returns the comparison CSV text.

    Every variant's config, the batch size and the labels of both splits
    are checked, and targets built once, for the deepest variant (variant J
    takes their first J levels), before anything is written."""
    runs = ExperimentConfig(tuple(levels))
    cfgs = [dataclasses.replace(base_cfg, levels=j) for j in runs.run_levels]
    grids, targets = prepare_targets(corpus.masks[_train_indices(corpus, train_cfg)],
                                     max(cfgs, key=lambda cfg: cfg.levels))
    val = corpus.indices("val")
    if not val:
        raise ConfigError("corpus has no 'val' images")
    check_labels(corpus.masks[val], base_cfg.num_classes)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = base_cfg.to_text() + train_cfg.to_text() + runs.to_text()
    write_atomic(out / "experiment_config.txt", manifest.encode("utf-8"))
    rows = [EXPERIMENT_HEADER]
    eval_reports = []
    for j, cfg in zip(runs.run_levels, cfgs):
        result = train(corpus, cfg, train_cfg, out / f"level{j}", grids, targets[:, :j])
        report = evaluate(result.model, corpus, "val")
        eval_reports.append(report)
        rows.append(f"{j},{report.mean_iou:.6f},{report.mean_wrong_class:.6f},"
                    f"{report.mean_wrong_label:.6f}")
    csv_text = "\n".join(rows) + "\n"
    write_atomic(out / "experiment.csv", csv_text.encode("utf-8"))
    return csv_text, eval_reports
