import argparse
import dataclasses
import hashlib
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from dmlseg.checkpoint import load_container, load_gt_cache, save_container
from dmlseg.cli import CONFIG_KEYS, build_parser, main
from dmlseg.kv import parse_kv
from dmlseg.model import ModelConfig
from dmlseg.synth_data import _corpus_hash, read_corpus, read_pgm, read_ppm, write_pgm, write_ppm
from dmlseg.train import TrainConfig, prepare_targets

MODEL_FLAGS = ["--classes", "4", "--input-size", "32x32",
               "--low-channels", "8/2,8/2", "--seg-channels", "8,8",
               "--windows", "5,3,1"]

# the smallest grad-check network, which keeps the check quick: its 1x1
# DML grid takes windows up to 3
SMALL_CHECK = ["--input-size", "8x8", "--levels", "2", "--windows", "3,1"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "corpus"
    code = main(["gen-data", "--out", str(out), "--train", "8", "--val", "3",
                 "--seed", "2", "--classes", "4", "--input-size", "32x32"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(out),
                 *MODEL_FLAGS, "--iterations", "15", "--batch-size", "4",
                 "--lr", "0.05", "--seed", "1"])
    assert code == 0
    return out


def test_gen_data_writes_manifest(corpus_dir):
    assert (corpus_dir / "manifest.txt").exists()
    assert len(list((corpus_dir / "images").glob("*.ppm"))) == 11


def test_train_produces_artifacts(run_dir):
    assert (run_dir / "checkpoint.dmls").exists()
    lines = (run_dir / "loss.csv").read_text().strip().split("\n")
    assert len(lines) == 16


def test_eval_writes_csv(run_dir, corpus_dir, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.dmls"),
                 "--corpus", str(corpus_dir), "--split", "val", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("class,iou")
    assert "#Wrong class" in capsys.readouterr().out


def test_eval_truncated_checkpoint_exits_2(run_dir, corpus_dir, tmp_path):
    raw = (run_dir / "checkpoint.dmls").read_bytes()
    cut = tmp_path / "cut.dmls"
    for size in (6, len(raw) // 2, len(raw) - 1):
        cut.write_bytes(raw[:size])
        code = main(["eval", "--checkpoint", str(cut), "--corpus", str(corpus_dir),
                     "--split", "val", "--out", str(tmp_path / "eval.csv")])
        assert code == 2


def _drop_seg_proj_bias(header, arrays):
    del arrays["seg.proj.bias"]
    return header


def _narrow_seg_proj_weight(header, arrays):
    arrays["seg.proj.weight"] = arrays["seg.proj.weight"][:, :4]
    return header


@pytest.mark.parametrize("edit", [
    _drop_seg_proj_bias,
    _narrow_seg_proj_weight,
    lambda header, arrays: header.replace("window_sizes = 5,3,1", "window_sizes = 6,3,1"),
    lambda header, arrays: header.replace("low_channels = 8/2,8/2", "low_channels = 8/0,8/2"),
    lambda header, arrays: header.replace("lambda = 1.0", "lambda = nan"),
    lambda header, arrays: header.replace("levels = 3", "levels = three"),
    lambda header, arrays: header + "junk line\n",
    lambda header, arrays: header.replace("num_classes = 4", "num_classes = 256"),
], ids=["missing-entry", "wrong-shape", "even-window", "zero-stride", "nan-lambda",
        "levels-word", "line-without-equals", "256-classes"])
def test_eval_malformed_checkpoint_exits_2(edit, run_dir, corpus_dir, tmp_path, capsys):
    header, arrays = load_container(run_dir / "checkpoint.dmls")
    bad = tmp_path / "bad.dmls"
    save_container(bad, edit(header, arrays), arrays)
    assert main(["eval", "--checkpoint", str(bad), "--corpus", str(corpus_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {bad}: ")


def test_eval_corrupt_manifest_exits_2(run_dir, corpus_dir, tmp_path, capsys):
    bad = tmp_path / "corpus"
    shutil.copytree(corpus_dir, bad)
    manifest = bad / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    for line, edited in (("shapes_min = 3", "shapes_min = -3"), ("jitter = 0.08", "jitter = -1"),
                         ("noise = 0.03", "noise 0.03"), ("size = 32x32", "size = 0x0"),
                         ("pools = 1|2,3", "pools = 1,2,3|"), ("seed = 2", ""),
                         ("n_train = 8", "n_train = 999"), ("n_val = 3", ""),
                         ("val\timages/img_00010.ppm\tmasks/msk_00010.pgm",
                          "test\timages/img_00010.ppm\tmasks/msk_00010.pgm")):
        assert f"\n{line}\n" in text
        manifest.write_text(text.replace(f"\n{line}\n", f"\n{edited}\n"), encoding="utf-8")
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.dmls"),
                     "--corpus", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {manifest}: ")


def test_manifest_repeating_a_key_exits_2(run_dir, corpus_dir, tmp_path, capsys):
    bad = tmp_path / "corpus"
    shutil.copytree(corpus_dir, bad)
    manifest = bad / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text.replace("noise = 0.03\n", "noise = 0.03\nnoise = 0.5\n"),
                        encoding="utf-8")
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.dmls"),
                 "--corpus", str(bad)]) == 2
    lineno = text.splitlines().index("noise = 0.03") + 1
    assert capsys.readouterr().err == (f"data error: {manifest}: line {lineno + 1}: key noise "
                                       f"is already set on line {lineno}\n")


def test_checkpoint_header_repeating_a_key_exits_2(run_dir, corpus_dir, tmp_path, capsys):
    header, arrays = load_container(run_dir / "checkpoint.dmls")
    bad = tmp_path / "bad.dmls"
    save_container(bad, header + "levels = 2\n", arrays)
    assert main(["eval", "--checkpoint", str(bad), "--corpus", str(corpus_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}: ")
    assert "key levels is already set on line" in err


def test_gt_cache_header_repeating_a_key_exits_2(corpus_dir, tmp_path, capsys):
    cache = tmp_path / "gt.dmls"
    assert main(["gen-gt", "--corpus", str(corpus_dir), "--out", str(cache),
                 *MODEL_FLAGS]) == 0
    header, arrays = load_container(cache)
    save_container(cache, header + "num_classes = 4\n", arrays)
    assert main(["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "run"),
                 *MODEL_FLAGS, "--iterations", "1", "--batch-size", "4",
                 "--gt-cache", str(cache)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {cache}: ")


def test_predict_writes_label_and_color_maps(run_dir, corpus_dir, tmp_path):
    image = corpus_dir / "images" / "img_00009.ppm"
    code = main(["predict", "--checkpoint", str(run_dir / "checkpoint.dmls"),
                 "--image", str(image), "--out", str(tmp_path / "pred")])
    assert code == 0
    labels = read_pgm(tmp_path / "pred.pgm")
    assert labels.shape == (32, 32)
    assert labels.max() < 4
    color = read_ppm(tmp_path / "pred.ppm")
    assert color.shape == (3, 32, 32)


def test_gen_gt_then_train_with_cache(corpus_dir, tmp_path):
    cache = tmp_path / "gt.dmls"
    assert main(["gen-gt", "--corpus", str(corpus_dir), "--out", str(cache),
                 *MODEL_FLAGS]) == 0
    out = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus_dir), "--out", str(out),
                 *MODEL_FLAGS, "--iterations", "3", "--batch-size", "4",
                 "--gt-cache", str(cache), "--seed", "1"]) == 0
    assert (out / "checkpoint.dmls").exists()


def test_gen_gt_then_train_with_cache_at_zero_levels(corpus_dir, tmp_path):
    # no DML levels: each image still gets a cache entry, its grid
    cache = tmp_path / "gt.dmls"
    assert main(["gen-gt", "--corpus", str(corpus_dir), "--out", str(cache),
                 *MODEL_FLAGS, "--levels", "0"]) == 0
    _, arrays = load_container(cache)
    assert len(arrays) == len(read_corpus(corpus_dir).entries)
    out = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus_dir), "--out", str(out),
                 *MODEL_FLAGS, "--levels", "0", "--iterations", "2", "--batch-size", "4",
                 "--gt-cache", str(cache), "--seed", "1"]) == 0
    assert (out / "checkpoint.dmls").exists()


def test_train_gt_cache_not_covering_corpus_exits_2(corpus_dir, tmp_path):
    cache = tmp_path / "gt.dmls"
    assert main(["gen-gt", "--corpus", str(corpus_dir), "--out", str(cache),
                 *MODEL_FLAGS]) == 0
    header, arrays = load_container(cache)
    last = f"img{len(read_corpus(corpus_dir).entries) - 1:05d}/"
    save_container(cache, header, {k: v for k, v in arrays.items()
                                   if not k.startswith(last)})
    assert main(["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "run"),
                 *MODEL_FLAGS, "--iterations", "1", "--batch-size", "4",
                 "--gt-cache", str(cache)]) == 2


@pytest.mark.parametrize("command", ["gen-gt", "train"])
def test_labels_beyond_model_classes_exit_2(command, tmp_path, capsys):
    corpus = tmp_path / "corpus8"
    assert main(["gen-data", "--out", str(corpus), "--train", "4", "--val", "0",
                 "--seed", "2", "--classes", "8", "--input-size", "32x32"]) == 0
    labels = np.concatenate([read_pgm(m).ravel() for m in (corpus / "masks").glob("*.pgm")])
    assert ((labels >= 4) & (labels != 255)).any()
    out = tmp_path / ("gt.dmls" if command == "gen-gt" else "run")
    extra = [] if command == "gen-gt" else ["--iterations", "1", "--batch-size", "2"]
    assert main([command, "--corpus", str(corpus), "--out", str(out),
                 *MODEL_FLAGS, *extra]) == 2  # MODEL_FLAGS sets --classes 4
    assert "is outside 0..3" in capsys.readouterr().err
    assert not out.exists()  # nothing written


@pytest.mark.parametrize("command", ["gen-gt", "train", "experiment"])
def test_corpus_of_another_size_exits_1(command, corpus_dir, tmp_path, capsys):
    model = [v if v != "32x32" else "16x16" for v in MODEL_FLAGS]  # corpus_dir is 32x32
    out = tmp_path / "out"
    extra = [] if command == "gen-gt" else ["--iterations", "1", "--batch-size", "2"]
    assert main([command, "--corpus", str(corpus_dir), "--out", str(out),
                 *model, *extra]) == 1
    assert "mask shape (32, 32) is not input_size (16, 16)" in capsys.readouterr().err
    assert not out.exists()  # nothing written


def _rehash(corpus: Path) -> None:
    """Restate a corpus manifest's hash for its files as they are now."""
    manifest = corpus / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    rels = [rel for line in text.splitlines() if "\t" in line for rel in line.split("\t")[1:]]
    digest = _corpus_hash([hashlib.sha256((corpus / rel).read_bytes()).digest() for rel in rels])
    manifest.write_text(re.sub(r"(?m)^hash = .*$", f"hash = {digest}", text), encoding="utf-8")


# faults that keep a corpus's hash consistent: corpus_dir is 32x32, with
# train scenes 0-7 and val scenes 8-10
CORPUS_FAULTS = {
    "small-val-image": ("images/img_00009.ppm",
                        lambda path: write_ppm(path, np.zeros((3, 16, 16), np.float32))),
    "small-train-mask": ("masks/msk_00002.pgm",
                         lambda path: write_pgm(path, np.zeros((16, 16), np.uint8))),
    "truncated-val-image": ("images/img_00010.ppm",
                            lambda path: path.write_bytes(path.read_bytes()[:-1])),
}


@pytest.mark.parametrize("command", ["gen-gt", "train", "eval", "experiment"])
@pytest.mark.parametrize("fault", sorted(CORPUS_FAULTS))
def test_hash_consistent_corrupt_corpus_exits_2(fault, command, corpus_dir, run_dir, tmp_path,
                                                capsys):
    # every file is decoded and checked as the corpus is read, so each
    # command fails on the file before it writes anything
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    rel, edit = CORPUS_FAULTS[fault]
    edit(corpus / rel)
    _rehash(corpus)
    out = tmp_path / "out"
    argv = {"gen-gt": [*MODEL_FLAGS],
            "train": [*MODEL_FLAGS, "--iterations", "1", "--batch-size", "2"],
            "eval": ["--checkpoint", str(run_dir / "checkpoint.dmls")],
            "experiment": [*MODEL_FLAGS, "--iterations", "1", "--batch-size", "2",
                           "--run-levels", "0"]}[command]
    assert main([command, "--corpus", str(corpus), "--out", str(out), *argv]) == 2
    assert f"{corpus / rel}: " in capsys.readouterr().err
    assert not out.exists()  # nothing written


def test_gen_data_two_classes(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path / "c"), "--train", "2", "--val", "1",
                 "--classes", "2", "--input-size", "16x16"]) == 0
    assert read_corpus(tmp_path / "c").spec.pools == ((1,),)


@pytest.mark.parametrize("val, extra, code, message", [
    ("2", ["--classes", "4"], 2, "is outside 0..3"),
    ("2", ["--batch-size", "5"], 1, "batch size 5 exceeds 4 training images"),
    ("2", ["--run-levels", "0,4"], 1, "levels must be 0..3, got 4"),
    ("0", [], 1, "corpus has no 'val' images")],
    ids=["labels", "batch", "variant", "no-val"])
def test_experiment_checks_every_variant_before_writing(val, extra, code, message, tmp_path,
                                                        capsys):
    corpus = tmp_path / "corpus8"
    assert main(["gen-data", "--out", str(corpus), "--train", "4", "--val", val,
                 "--seed", "2", "--classes", "8", "--input-size", "32x32"]) == 0
    out = tmp_path / "exp"
    argv = ["experiment", "--corpus", str(corpus), "--out", str(out), "--input-size", "32x32",
            "--low-channels", "8/2,8/2", "--seg-channels", "8,8", "--windows", "5,3,1",
            "--iterations", "1", "--batch-size", "2", "--run-levels", "0", *extra]
    assert main(argv) == code
    assert message in capsys.readouterr().err
    assert not out.exists()  # nothing written, not even experiment_config.txt


def test_failed_eval_out_write_keeps_previous_file(run_dir, corpus_dir, tmp_path,
                                                   monkeypatch, capsys):
    out = tmp_path / "eval.csv"
    out.write_text("previous\n")

    def torn_write(self, data):
        with open(self, "wb") as f:
            f.write(data[:len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", torn_write)
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.dmls"),
                 "--corpus", str(corpus_dir), "--out", str(out)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert out.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["eval.csv"]


def test_config_file_with_flag_override(corpus_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "num_classes = 4\ninput_size = 32x32\nlow_channels = 8/2,8/2\n"
        "seg_channels = 8,8\nwindow_sizes = 5,3,1\nlevels = 3\n"
        "iterations = 4\nbatch_size = 4\nlr = 0.05\n")
    out = tmp_path / "run"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(out),
                 "--config", str(cfg), "--iterations", "2", "--seed", "0"])
    assert code == 0
    lines = (out / "loss.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # flag overrode the file's 4 iterations


def test_gen_data_flags_override_config_file(tmp_path):
    cfg = tmp_path / "data.cfg"
    cfg.write_text("n_train = 6\nn_val = 2\nnum_classes = 4\ninput_size = 16x16\n")
    out = tmp_path / "corpus"
    assert main(["gen-data", "--out", str(out), "--config", str(cfg),
                 "--train", "3", "--seed", "1"]) == 0
    assert len(read_corpus(out).indices("train")) == 3  # flag beat the file's 6
    assert len(read_corpus(out).indices("val")) == 2  # file beat the default


def test_gen_data_reads_scene_keys_from_config_file(tmp_path):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("n_train = 2\nn_val = 1\nnum_classes = 4\nsize = 16x24\n"
                   "pools = 1|2,3\nshapes_min = 1\nshapes_max = 2\n"
                   "jitter = 0.0\nnoise = 0.01\nseed = 4\n")
    assert main(["gen-data", "--out", str(tmp_path / "c"), "--config", str(cfg)]) == 0
    spec = read_corpus(tmp_path / "c").spec
    assert (spec.seed, spec.size, spec.pools) == (4, (16, 24), ((1,), (2, 3)))
    assert (spec.shapes_min, spec.shapes_max, spec.jitter, spec.noise) == (1, 2, 0.0, 0.01)


def test_grad_check_reads_seed_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 3\n")
    small = [*SMALL_CHECK, "--tolerance", "1"]
    outputs = []
    for extra in (["--config", str(cfg)], ["--seed", "3"], ["--seed", "0"]):
        assert main(["grad-check", *small, *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0] != outputs[2]


def test_grad_check_command(capsys):
    code = main(["grad-check", "--tolerance", "1e-4", "--seed", "0"])
    assert code == 0
    assert "overall max" in capsys.readouterr().out


def test_grad_check_impossible_tolerance_exits_3(capsys):
    code = main(["grad-check", "--tolerance", "0", "--seed", "0", *SMALL_CHECK])
    assert code == 3


@pytest.mark.parametrize("tolerance, code", [("-1", 1), ("nan", 1), ("inf", 0)])
def test_grad_check_tolerance_checked_first(tolerance, code, capsys):
    assert main(["grad-check", "--tolerance", tolerance, *SMALL_CHECK]) == code
    out, err = capsys.readouterr()
    if code:
        assert not out  # rejected before the check ran
        assert err == f"error: tolerance must be non-negative, got {float(tolerance)}\n"
    else:
        assert "<= tolerance inf" in out


def test_gen_gt_of_an_empty_corpus_loads_as_empty_stacks(tmp_path):
    corpus = tmp_path / "empty"
    assert main(["gen-data", "--out", str(corpus), "--train", "0", "--val", "0",
                 "--classes", "4", "--input-size", "32x32"]) == 0
    assert main(["gen-gt", "--corpus", str(corpus), "--out", str(tmp_path / "gt.dmls"),
                 *MODEL_FLAGS]) == 0
    cfg = ModelConfig(num_classes=4, input_size=(32, 32), low_channels=((8, 2), (8, 2)),
                      seg_channels=(8, 8), window_sizes=(5, 3, 1))
    grids, targets = load_gt_cache(tmp_path / "gt.dmls", cfg, read_corpus(corpus).content_hash)
    empty = prepare_targets([], cfg)
    assert (grids.shape, targets.shape) == (empty[0].shape, empty[1].shape)
    assert (grids.shape, targets.shape) == ((0, 8, 8), (0, 3, 4, 4, 4))
    assert grids.dtype == targets.dtype == np.uint8


def test_experiment_command(corpus_dir, tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(["experiment", "--corpus", str(corpus_dir), "--out", str(out),
                 *MODEL_FLAGS, "--iterations", "3", "--batch-size", "4",
                 "--run-levels", "0,1", "--seed", "0"])
    assert code == 0
    csv = (out / "experiment.csv").read_text().strip().split("\n")
    assert csv[0] == "levels,mean_iou,mean_wrong_class,mean_wrong_label"
    assert [int(l.split(",")[0]) for l in csv[1:]] == [0, 1]


def test_experiment_config_file_reproduces_experiment(corpus_dir, tmp_path, capsys):
    # every TrainConfig field away from its default, so a field the replay
    # file leaves out shows up as a missing key or as different bytes
    train_flags = {"iterations": "2", "batch_size": "4", "momentum": "0.8",
                   "weight_decay": "0.001", "lr": "0.05", "seed": "3",
                   "eval_every": "1", "precision": "check64", "lr_poly": "0.9"}
    fields = dataclasses.fields(TrainConfig)
    assert {f.name for f in fields} == train_flags.keys()
    assert all(str(f.default) != train_flags[f.name] for f in fields)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["experiment", "--corpus", str(corpus_dir), "--out", str(first),
                 *MODEL_FLAGS, "--run-levels", "0,2",
                 *(a for k, v in train_flags.items()
                   for a in (f"--{k.replace('_', '-')}", v))]) == 0
    replay = (first / "experiment_config.txt").read_text(encoding="utf-8")
    assert train_flags.items() <= parse_kv(replay).items()
    assert main(["experiment", "--corpus", str(corpus_dir), "--out", str(second),
                 "--config", str(first / "experiment_config.txt")]) == 0
    for name in ("experiment.csv", "experiment_config.txt",
                 "level0/checkpoint.dmls", "level2/checkpoint.dmls"):
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_experiment_config_file_replays_check64_checkpoints(corpus_dir, tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["experiment", "--corpus", str(corpus_dir), "--out", str(first),
                 *MODEL_FLAGS, "--iterations", "2", "--batch-size", "4",
                 "--precision", "check64", "--eval-every", "2",
                 "--run-levels", "0,1", "--seed", "3"]) == 0
    assert main(["experiment", "--corpus", str(corpus_dir), "--out", str(second),
                 "--config", str(first / "experiment_config.txt")]) == 0
    for level in ("level0", "level1"):
        assert (second / level / "checkpoint.dmls").read_bytes() == \
            (first / level / "checkpoint.dmls").read_bytes()


def test_config_directory_exits_1(tmp_path, capsys):
    assert main(["describe", "--config", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_config_file_repeating_a_key_exits_1(tmp_path, capsys):
    config = tmp_path / "f.cfg"
    config.write_text("num_classes = 4\nnum_classes = 8\n", encoding="utf-8")
    assert main(["describe", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (f"error: config file {config}: line 2: key "
                                       f"num_classes is already set on line 1\n")


def test_abbreviated_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["describe", "--class", "4", "--win", "5,3,1", "--input", "32x32"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --class 4 --win 5,3,1 --input 32x32" in \
        capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required flags
    assert exc.value.code == 1


# each command's required flags, relative paths argparse does not open
REQUIRED = {"gen-data": ["--out", "o"], "gen-gt": ["--corpus", "c", "--out", "o"],
            "train": ["--corpus", "c", "--out", "o"],
            "eval": ["--checkpoint", "k", "--corpus", "c"],
            "predict": ["--checkpoint", "k", "--image", "i", "--out", "o"],
            "grad-check": [], "experiment": ["--corpus", "c", "--out", "o"], "describe": []}
UNREAD_FLAGS = [*((command, ["--serial"]) for command in REQUIRED),
                *((command, ["--seed", "1"]) for command in ("gen-gt", "eval", "predict",
                                                             "describe"))]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS,
                         ids=[f"{command}{flag[0]}" for command, flag in UNREAD_FLAGS])
def test_flag_the_command_does_not_read_exits_1(command, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a command that took the flag would write here
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED[command], *flag])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_bad_corpus_exits_2(tmp_path):
    code = main(["train", "--corpus", str(tmp_path / "nope"), "--out",
                 str(tmp_path / "out"), *MODEL_FLAGS, "--iterations", "1"])
    assert code == 2


def test_bad_config_value_exits_1(corpus_dir, tmp_path):
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "o"),
                 "--classes", "4", "--input-size", "32x32",
                 "--low-channels", "8/2,8/2", "--seg-channels", "8,8",
                 "--windows", "6,3,1", "--iterations", "1"])
    assert code == 1  # even window size


def test_describe_command(capsys):
    code = main(["describe", *MODEL_FLAGS])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("input 3x32x32")
    assert "fuse sum" in out


@pytest.mark.parametrize("argv, cfg_text", [
    (["describe"], "levels = three\n"),
    (["describe"], "num_classes = x\n"),
    (["train", "--corpus", "{corpus}", "--out", "{out}", *MODEL_FLAGS], "seed = x\n"),
    (["describe", "--input-size", "32"], ""),
    (["describe", "--low-channels", "8x2"], ""),
    (["describe", "--windows", "5,a"], ""),
    (["grad-check", *SMALL_CHECK], "seed = 1.5\n"),
    (["gen-data", "--out", "{out}", "--input-size", "32"], ""),
    (["gen-data", "--out", "{out}"], "n_train = many\n"),
    (["gen-data", "--out", "{out}"], "pools = 1,2|x\n"),
    (["train", "--corpus", "{corpus}", "--out", "{out}", *MODEL_FLAGS], "lr = fast\n"),
    (["experiment", "--corpus", "{corpus}", "--out", "{out}", *MODEL_FLAGS,
      "--run-levels", "0,a"], ""),
    (["describe"], "levles = 0\n"),
    (["describe"], "junk line\n"),
    (["describe"], "levels = \xff\n"),
    (["describe", "--low-channels", "8/0"], ""),
    (["describe", "--seg-channels", "0,8"], ""),
    (["describe", "--input-size", "0x0"], ""),
    (["describe", "--lambda", "nan"], ""),
    (["train", "--corpus", "{corpus}", "--out", "{out}", *MODEL_FLAGS,
      "--eval-every", "-1"], ""),
    (["train", "--corpus", "{corpus}", "--out", "{out}", *MODEL_FLAGS,
      "--lr-poly", "-1"], ""),
    (["gen-data", "--out", "{out}", "--train", "-2"], ""),
    (["gen-data", "--out", "{out}", "--input-size", "0x0"], ""),
    (["gen-data", "--out", "{out}"], "jitter = -1\n"),
    (["gen-data", "--out", "{out}"], "noise = -0.5\n"),
    (["gen-data", "--out", "{out}"], "noise = nan\n"),
    (["eval", "--checkpoint", "{ckpt}", "--corpus", "{corpus}"], "levles = 0\n"),
    (["eval", "--checkpoint", "{ckpt}", "--corpus", "{corpus}"], "junk line\n"),
    (["eval", "--checkpoint", "{ckpt}", "--corpus", "{corpus}"], None),
    (["predict", "--checkpoint", "{ckpt}", "--image", "{image}", "--out", "{out}"],
     "levles = 0\n"),
    (["predict", "--checkpoint", "{ckpt}", "--image", "{image}", "--out", "{out}"],
     "junk line\n"),
    (["predict", "--checkpoint", "{ckpt}", "--image", "{image}", "--out", "{out}"], None),
    (["train", "--corpus", "{corpus}", "--out", "{out}", *MODEL_FLAGS], "precision = float16\n"),
    (["experiment", "--corpus", "{corpus}", "--out", "{out}", *MODEL_FLAGS,
      "--run-levels", "0"], "precision = float16\n"),
    (["train", "--corpus", "{corpus}", "--out", "{out}", *MODEL_FLAGS,
      "--precision", "float16"], ""),
    (["gen-data", "--out", "{out}", "--classes", "300"], ""),
    (["describe", "--classes", "256"], ""),
    (["gen-data", "--out", "{out}", "--seed", "-1"], ""),
    (["train", "--corpus", "{corpus}", "--out", "{out}", *MODEL_FLAGS, "--seed", "-1"], ""),
    (["grad-check", *SMALL_CHECK, "--seed", "-1"], ""),
    (["describe", "--windows", "9999,5,3"], ""),
    (["gen-data", "--out", "{out}"], "num_classes = 3\npools = 1,2|\n"),
    (["experiment", "--corpus", "{corpus}", "--out", "{out}", *MODEL_FLAGS,
      "--run-levels", ""], ""),
], ids=["levels", "num_classes", "train-seed", "input-size", "low-channels",
        "windows", "grad-check-seed", "gen-data-size", "n_train", "pools", "lr",
        "run-levels", "unknown-key", "line-without-equals", "non-utf8",
        "zero-stride", "zero-width", "zero-input-size", "nan-lambda",
        "negative-eval-every", "negative-lr-poly", "negative-n-train",
        "zero-scene-size", "negative-jitter", "negative-noise", "nan-noise",
        "eval-unknown-key", "eval-line-without-equals", "eval-missing-file",
        "predict-unknown-key", "predict-line-without-equals", "predict-missing-file",
        "train-precision", "experiment-precision", "train-precision-flag",
        "gen-data-300-classes", "256-classes", "gen-data-negative-seed",
        "train-negative-seed", "grad-check-negative-seed", "huge-window",
        "empty-pool", "empty-run-levels"])
def test_malformed_option_value_exits_1(argv, cfg_text, corpus_dir, run_dir, tmp_path,
                                        capsys):
    cfg = tmp_path / "bad.cfg"
    if cfg_text is not None:  # None: --config names a file that does not exist
        cfg.write_text(cfg_text, encoding="latin-1")  # "\xff" becomes a non-UTF-8 byte
    argv = [a.format(corpus=corpus_dir, out=tmp_path / "out",
                     ckpt=run_dir / "checkpoint.dmls",
                     image=corpus_dir / "images" / "img_00008.ppm") for a in argv]
    assert main([*argv, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert {p.name for p in tmp_path.iterdir()} <= {"bad.cfg"}  # rejected before any write


@pytest.mark.parametrize("argv, key", [
    (["grad-check", *SMALL_CHECK, "--seed", "-1"], "seed"),
    (["train", "--corpus", "{corpus}", "--out", "{out}", *MODEL_FLAGS, "--eval-every", "-1"],
     "eval_every"),
])
def test_negative_value_error_names_only_its_key(argv, key, corpus_dir, tmp_path, capsys):
    # grad-check takes no eval_every, so its message must not name one
    argv = [a.format(corpus=corpus_dir, out=tmp_path / "out") for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {key} must be non-negative, got -1\n"


# every command's option strings: the flags made from config keys neither
# gain nor lose one
SURFACE = {
    "gen-data": ["--classes", "--config", "--help", "--input-size", "--out", "--seed",
        "--train", "--val", "-h"],
    "gen-gt": ["--classes", "--config", "--corpus", "--dml-extra-stride", "--help",
        "--input-size", "--lambda", "--levels", "--low-channels", "--out", "--seg-channels",
        "--windows", "-h"],
    "train": ["--batch-size", "--classes", "--config", "--corpus", "--dml-extra-stride",
        "--eval-every", "--gt-cache", "--help", "--input-size", "--iterations", "--lambda",
        "--levels", "--low-channels", "--lr", "--lr-poly", "--momentum", "--out",
        "--precision", "--seed", "--seg-channels", "--weight-decay", "--windows", "-h"],
    "eval": ["--checkpoint", "--config", "--corpus", "--help", "--out", "--split", "-h"],
    "predict": ["--checkpoint", "--config", "--help", "--image", "--out", "-h"],
    "grad-check": ["--classes", "--config", "--dml-extra-stride", "--help", "--input-size",
        "--lambda", "--levels", "--low-channels", "--seed", "--seg-channels", "--tolerance",
        "--windows", "-h"],
    "experiment": ["--batch-size", "--classes", "--config", "--corpus", "--dml-extra-stride",
        "--eval-every", "--help", "--input-size", "--iterations", "--lambda", "--levels",
        "--low-channels", "--lr", "--lr-poly", "--momentum", "--out", "--precision",
        "--run-levels", "--seed", "--seg-channels", "--weight-decay", "--windows", "-h"],
    "describe": ["--classes", "--config", "--dml-extra-stride", "--help", "--input-size",
        "--lambda", "--levels", "--low-channels", "--seg-channels", "--windows", "-h"],
}


def _commands():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_flag_surface():
    assert {name: sorted(s for a in p._actions for s in a.option_strings)
            for name, p in _commands().items()} == SURFACE
    assert sum(len(options) - 2 for options in SURFACE.values()) == 89  # without -h/--help


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_help_exits_0(command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0


def test_help_shows_each_value_spelling(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "--help"])
    out = capsys.readouterr().out
    assert all(f"{flag}\n" in out for flag in (
        "--input-size HxW", "--low-channels w/s,w/s", "--windows a,b", "--run-levels a,b",
        "--classes int", "--lambda float", "--precision str"))


# the quickest command that takes each config flag, and its other arguments
QUICKEST = [("describe", []), ("grad-check", SMALL_CHECK), ("gen-data", ["--out", "{out}"]),
            ("train", ["--corpus", "{corpus}", "--out", "{out}"]),
            ("experiment", ["--corpus", "{corpus}", "--out", "{out}"])]


def _config_flags():
    """(key, flag, command, argv) for every config key that is a flag on some command."""
    found = {}
    for command, argv in QUICKEST:
        for action in _commands()[command]._actions:
            if action.dest in CONFIG_KEYS:
                found.setdefault(action.dest, (action.option_strings[0], command, argv))
    return [(key, *found[key]) for key in sorted(found)]


CONFIG_FLAGS = _config_flags()


def test_every_config_flag_is_covered():
    flagged = {a.dest for p in _commands().values() for a in p._actions} & CONFIG_KEYS
    assert {key for key, *_ in CONFIG_FLAGS} == flagged and len(flagged) == 20


@pytest.mark.parametrize("key, flag, command, argv", CONFIG_FLAGS,
                         ids=[flag for _, flag, _, _ in CONFIG_FLAGS])
def test_flag_and_config_file_parse_a_value_alike(key, flag, command, argv, corpus_dir,
                                                   tmp_path, capsys):
    argv = [command, *(a.format(corpus=corpus_dir, out=tmp_path / "out") for a in argv)]
    assert main([*argv, flag, "x"]) == 1
    from_flag = capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = x\n", encoding="utf-8")
    assert main([*argv, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == from_flag
    # every text is a word, so `precision` can only be out of range
    assert from_flag.startswith("error: precision must be one of" if key == "precision"
                                else f"error: bad {key} 'x': ")
    assert not (tmp_path / "out").exists()
