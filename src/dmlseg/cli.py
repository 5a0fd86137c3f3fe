"""Command-line driver.

Subcommands: gen-data, gen-gt, train, eval, predict, grad-check,
experiment, describe.  Options may come from a `key = value` config file
via --config; explicit flags override file values.  Only gen-data, train,
experiment and grad-check take --seed.  Exit codes: 0 success, 1 usage or
config (a bad flag or --config value), 2 data (a bad manifest or
checkpoint header value, named by the file's path), 3 numeric.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_gt_cache, load_model_checkpoint, save_gt_cache, write_atomic
from .errors import ConfigError, DataError, NumericError, UsageError
from .kv import parse_kv
from .metrics import report_csv, report_table
from .model import ModelConfig, build_model, describe, forward, predict_labels
from .synth_data import (SceneSpec, palette, read_corpus, read_ppm, write_corpus,
                         write_pgm, write_ppm)
from .tensor import Tensor
from .train import (TrainConfig, evaluate, grad_check, prepare_targets,
                    run_experiment, train)

MODEL_DEFAULTS = {
    "num_classes": "8",
    "input_size": "96x96",
    "low_channels": "24/2,48/2",
    "seg_channels": "64,64",
}

# small 3-level network used by grad-check unless overridden
CHECK_DEFAULTS = {
    "num_classes": "4",
    "input_size": "32x32",
    "low_channels": "8/2,8/2",
    "seg_channels": "8,8",
    "window_sizes": "5,3,1",
}

# the keys a flag may override; each flag's dest is its key
CONFIG_KEYS = frozenset((*ModelConfig.keys(), *TrainConfig.keys(),
                         "n_train", "n_val", "run_levels"))

# the keys a config file may hold: the flags' keys plus gen-data's scene keys
FILE_KEYS = CONFIG_KEYS.union(SceneSpec.keys())


class Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_model_flags(sub):
    sub.add_argument("--classes", type=int, dest="num_classes")
    sub.add_argument("--input-size", dest="input_size", help="HxW")
    sub.add_argument("--low-channels", dest="low_channels", help="w/s,w/s,...")
    sub.add_argument("--seg-channels", dest="seg_channels", help="w,w,...")
    sub.add_argument("--dml-extra-stride", type=int, dest="dml_extra_stride")
    sub.add_argument("--windows", dest="window_sizes", help="odd,decreasing")
    sub.add_argument("--lambda", type=float, dest="lambda")
    sub.add_argument("--levels", type=int)


def _add_train_flags(sub):
    sub.add_argument("--iterations", type=int)
    sub.add_argument("--batch-size", type=int, dest="batch_size")
    sub.add_argument("--lr", type=float)
    sub.add_argument("--momentum", type=float)
    sub.add_argument("--weight-decay", type=float, dest="weight_decay")
    sub.add_argument("--lr-poly", type=float, dest="lr_poly")
    sub.add_argument("--eval-every", type=int, dest="eval_every")
    sub.add_argument("--precision")


def _file_kv(args) -> dict[str, str]:
    """--config's keys; a malformed line or a key no command reads is a ConfigError."""
    if args.config is None:
        return {}
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist or is not a file")
    try:
        kv = parse_kv(path.read_text(encoding="utf-8"))
    except (ConfigError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    unknown = sorted(kv.keys() - FILE_KEYS)
    if unknown:
        raise ConfigError(f"config file {path}: unknown key(s) {', '.join(unknown)}")
    return kv


def _merged(args, defaults: dict[str, str]) -> dict[str, str]:
    """defaults < config file < explicit flags."""
    kv = dict(defaults)
    kv.update(_file_kv(args))
    kv.update({k: str(v) for k, v in vars(args).items()
               if k in CONFIG_KEYS and v is not None})
    return kv


def _cmd_gen_data(args) -> int:
    kv = _merged(args, {"n_train": "500", "n_val": "100", "seed": "0"})
    try:
        n_train, n_val = int(kv["n_train"]), int(kv["n_val"])
    except ValueError as exc:
        raise ConfigError(f"bad data option: {exc}") from exc
    if min(n_train, n_val) < 0:
        raise ConfigError(f"scene counts must be non-negative, got {n_train} and {n_val}")
    if "input_size" in kv:
        kv["size"] = kv["input_size"]
    spec = SceneSpec.from_kv(kv)
    corpus = write_corpus(spec, n_train, n_val, args.out)
    print(f"wrote {n_train} train / {n_val} val scenes to {corpus.root}")
    return 0


def _cmd_gen_gt(args) -> int:
    corpus = read_corpus(args.corpus)
    cfg = ModelConfig.from_kv(_merged(args, MODEL_DEFAULTS))
    masks = [corpus.load_mask(i) for i in range(len(corpus.entries))]
    grids, targets = prepare_targets(masks, cfg)
    save_gt_cache(args.out, cfg, corpus.content_hash, grids, targets)
    print(f"cached targets for {len(masks)} masks at {args.out}")
    return 0


def _cmd_train(args) -> int:
    corpus = read_corpus(args.corpus)
    kv = _merged(args, MODEL_DEFAULTS)
    model_cfg = ModelConfig.from_kv(kv)
    train_cfg = TrainConfig.from_kv(kv)
    grids = targets = None
    if args.gt_cache is not None:
        all_grids, all_targets = load_gt_cache(args.gt_cache, model_cfg,
                                               corpus.content_hash)
        if len(all_grids) != len(corpus.entries):
            raise DataError(f"{args.gt_cache}: cache holds {len(all_grids)} images, "
                            f"corpus has {len(corpus.entries)}")
        idxs = corpus.indices("train")
        grids = [all_grids[i] for i in idxs]
        targets = [all_targets[i] for i in idxs]
    result = train(corpus, model_cfg, train_cfg, args.out,
                   grids=grids, targets=targets)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"loss csv:   {result.loss_csv_path}")
    print(f"objective:  {result.reports[0].total:.4f} -> {result.reports[-1].total:.4f}")
    return 0


def _cmd_eval(args) -> int:
    _file_kv(args)  # nothing to read from it, but a bad file is still an error
    model = load_model_checkpoint(args.checkpoint)
    corpus = read_corpus(args.corpus)
    report = evaluate(model, corpus, args.split)
    if args.out is not None:
        write_atomic(Path(args.out), report_csv(report).encode("utf-8"))
    sys.stdout.write(report_table(report, name=f"levels={model.config.levels}"))
    return 0


def _cmd_predict(args) -> int:
    _file_kv(args)  # nothing to read from it, but a bad file is still an error
    model = load_model_checkpoint(args.checkpoint)
    image = read_ppm(args.image)
    x = Tensor(image[None])
    net = forward(model, x)
    labels = predict_labels(net.p, model.config.input_size)[0]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_pgm(out.with_suffix(".pgm"), labels)
    colors = np.rint(palette(model.config.num_classes) * 255) / 255
    write_ppm(out.with_suffix(".ppm"),
              colors[labels].transpose(2, 0, 1).astype(np.float32))
    print(f"wrote {out.with_suffix('.pgm')} and {out.with_suffix('.ppm')}")
    return 0


def _cmd_grad_check(args) -> int:
    kv = _merged(args, CHECK_DEFAULTS)
    cfg = ModelConfig.from_kv(kv)
    seed = TrainConfig.from_kv({"seed": kv.get("seed", "0")}).seed
    report = grad_check(cfg, args.tolerance, seed=seed)
    for line in report.lines():
        print(line)
    if not report.passed:
        raise NumericError(f"gradient check failed: max relative error "
                           f"{report.max_rel_err:.3e} > {args.tolerance:.3e}")
    return 0


def _cmd_experiment(args) -> int:
    corpus = read_corpus(args.corpus)
    kv = _merged(args, {**MODEL_DEFAULTS, "run_levels": "0,1,2,3"})
    base_cfg = ModelConfig.from_kv(kv)
    train_cfg = TrainConfig.from_kv(kv)
    try:
        levels = tuple(int(v) for v in kv["run_levels"].split(","))
    except ValueError as exc:
        raise ConfigError(f"bad run_levels: {exc}") from exc
    csv_text, _ = run_experiment(corpus, base_cfg, train_cfg, args.out, levels)
    sys.stdout.write(csv_text)
    return 0


def _cmd_describe(args) -> int:
    cfg = ModelConfig.from_kv(_merged(args, MODEL_DEFAULTS))
    sys.stdout.write(describe(build_model(cfg)))
    return 0


def build_parser() -> Parser:
    parser = Parser(prog="dmlseg", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="key = value config file")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int)

    p = subs.add_parser("gen-data", parents=[seeded], help="generate a synthetic corpus")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--train", type=int, dest="n_train")
    p.add_argument("--val", type=int, dest="n_val")
    p.add_argument("--classes", type=int, dest="num_classes")
    p.add_argument("--input-size", dest="input_size", help="HxW")
    p.set_defaults(func=_cmd_gen_data)

    p = subs.add_parser("gen-gt", parents=[common],
                        help="cache multi-label targets for a corpus")
    _add_model_flags(p)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_gen_gt)

    p = subs.add_parser("train", parents=[seeded], help="train a model on a corpus")
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--gt-cache", type=Path, dest="gt_cache")
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("eval", parents=[common],
                        help="evaluate a checkpoint on a corpus split")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--split", default="val", choices=("train", "val"))
    p.add_argument("--out", type=Path, help="write per-class CSV here")
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("predict", parents=[common], help="label one PPM image")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--image", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True,
                   help="output prefix (.pgm labels + .ppm colors)")
    p.set_defaults(func=_cmd_predict)

    p = subs.add_parser("grad-check", parents=[seeded],
                        help="finite-difference gradient check")
    _add_model_flags(p)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_grad_check)

    p = subs.add_parser("experiment", parents=[seeded],
                        help="levels ablation: train/eval variants")
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--run-levels", dest="run_levels",
                   help="comma list of level counts to compare (default 0,1,2,3)")
    p.set_defaults(func=_cmd_experiment)

    p = subs.add_parser("describe", parents=[common], help="print the layer inventory")
    _add_model_flags(p)
    p.set_defaults(func=_cmd_describe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
