"""Command-line driver.

Subcommands: gen-data, gen-gt, train, eval, predict, grad-check,
experiment, describe.  Options may come from a `key = value` config file
via --config; explicit flags override file values.  A command's flags
are the config keys it reads, `--` plus the key with `_` as `-`, and a
flag's value is parsed like the same key in the file.  Exit codes: 0
success, 1 usage or config (a bad flag or --config value), 2 data (a bad
manifest or checkpoint header value, named by the file's path), 3
numeric.
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
from .synth_data import (SceneSpec, SplitCounts, palette, read_corpus, read_ppm,
                         write_corpus, write_pgm, write_ppm)
from .tensor import Tensor
from .train import (ExperimentConfig, TrainConfig, evaluate, grad_check,
                    prepare_targets, run_experiment, train)

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

# every config some command reads
CONFIGS = (ModelConfig, TrainConfig, SceneSpec, SplitCounts, ExperimentConfig)

# the keys a config file may hold; a flag's dest is its key
CONFIG_KEYS = frozenset(key for cls in CONFIGS for key in cls.keys())

# how each key's value reads, for --help
FORMS = {key: form for cls in CONFIGS for key, form in cls.forms().items()}

# the flags not named `--` plus the key with `_` as `-`
FLAG_NAMES = {"num_classes": "--classes", "window_sizes": "--windows",
              "n_train": "--train", "n_val": "--val"}


class Parser(argparse.ArgumentParser):
    """Takes only whole flag names, and exits 1 on a usage error; each
    subcommand's parser is one too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


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
    unknown = sorted(kv.keys() - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"config file {path}: unknown key(s) {', '.join(unknown)}")
    return kv


def _merged(args, defaults: dict[str, str]) -> dict[str, str]:
    """defaults < config file < explicit flags."""
    kv = dict(defaults)
    kv.update(_file_kv(args))
    kv.update({k: v for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None})
    return kv


def _cmd_gen_data(args) -> int:
    kv = _merged(args, {"seed": "0"})
    counts = SplitCounts.from_kv(kv)
    if "input_size" in kv:
        kv["size"] = kv["input_size"]
    spec = SceneSpec.from_kv(kv)
    corpus = write_corpus(spec, counts.n_train, counts.n_val, args.out)
    print(f"wrote {counts.n_train} train / {counts.n_val} val scenes to {corpus.root}")
    return 0


def _cmd_gen_gt(args) -> int:
    corpus = read_corpus(args.corpus)
    cfg = ModelConfig.from_kv(_merged(args, MODEL_DEFAULTS))
    save_gt_cache(args.out, cfg, corpus.content_hash, *prepare_targets(corpus.masks, cfg))
    print(f"cached targets for {len(corpus.masks)} masks at {args.out}")
    return 0


def _cmd_train(args) -> int:
    corpus = read_corpus(args.corpus)
    kv = _merged(args, MODEL_DEFAULTS)
    model_cfg = ModelConfig.from_kv(kv)
    train_cfg = TrainConfig.from_kv(kv)
    grids = targets = None
    if args.gt_cache is not None:
        grids, targets = load_gt_cache(args.gt_cache, model_cfg, corpus.content_hash)
        if len(grids) != len(corpus.entries):
            raise DataError(f"{args.gt_cache}: cache holds {len(grids)} images, "
                            f"corpus has {len(corpus.entries)}")
        idxs = corpus.indices("train")
        grids, targets = grids[idxs], targets[idxs]
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
    kv = _merged(args, MODEL_DEFAULTS)
    base_cfg = ModelConfig.from_kv(kv)
    train_cfg = TrainConfig.from_kv(kv)
    levels = ExperimentConfig.from_kv(kv).run_levels
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
    model, trained = ModelConfig.keys(), ModelConfig.keys() + TrainConfig.keys()

    def command(name, func, about, keys=()):
        """A subcommand taking --config and one flag per config key in `keys`."""
        p = subs.add_parser(name, parents=[common], help=about)
        for key in keys:
            p.add_argument(FLAG_NAMES.get(key, "--" + key.replace("_", "-")), dest=key,
                           metavar=FORMS[key])
        p.set_defaults(func=func)
        return p

    p = command("gen-data", _cmd_gen_data, "generate a synthetic corpus",
                ("seed", *SplitCounts.keys(), "num_classes", "input_size"))
    p.add_argument("--out", type=Path, required=True)

    p = command("gen-gt", _cmd_gen_gt, "cache multi-label targets for a corpus", model)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = command("train", _cmd_train, "train a model on a corpus", trained)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--gt-cache", type=Path, dest="gt_cache")

    p = command("eval", _cmd_eval, "evaluate a checkpoint on a corpus split")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--split", default="val", choices=("train", "val"))
    p.add_argument("--out", type=Path, help="write per-class CSV here")

    p = command("predict", _cmd_predict, "label one PPM image")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--image", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True,
                   help="output prefix (.pgm labels + .ppm colors)")

    p = command("grad-check", _cmd_grad_check, "finite-difference gradient check",
                (*model, "seed"))
    p.add_argument("--tolerance", type=float, default=1e-4)

    p = command("experiment", _cmd_experiment, "levels ablation: train/eval variants",
                trained + ExperimentConfig.keys())
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    command("describe", _cmd_describe, "print the layer inventory", model)
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
