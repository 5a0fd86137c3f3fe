"""Property test of the command line's exit codes: whatever values the
flags of any command hold, `main` returns 0, 1, 2 or 3 (a malformed config
value is 1), or argparse exits 1 (a stray token, a bad `--split` or
`--tolerance`), and no other exception escapes.  Numbers are bounded only
to keep allocations and runs small: sizes up to 64, widths up to 16, scene
counts up to 3, windows up to 10**6, classes up to 300, and at most 2
training iterations on a corpus of 16x16 scenes.  `grad-check` stops once
its config is valid: one real check can take seconds."""

import shutil
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dmlseg import cli
from dmlseg.cli import main
from dmlseg.model import ModelConfig
from dmlseg.train import GradCheckReport
from test_fuzz_config import TRICKY

MODEL_FLAGS = ["--classes", "4", "--input-size", "16x16", "--low-channels", "8/2,8/2",
               "--seg-channels", "8,8", "--windows", "5,3,1"]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A 16x16 corpus and the checkpoint of a 1-iteration run on it."""
    root = tmp_path_factory.mktemp("fuzz_cli")
    assert main(["gen-data", "--out", str(root / "corpus"), "--train", "2", "--val", "1",
                 "--classes", "4", "--input-size", "16x16"]) == 0
    assert main(["train", "--corpus", str(root / "corpus"), "--out", str(root / "run"),
                 *MODEL_FLAGS, "--iterations", "1", "--batch-size", "2"]) == 0
    assert main(["gen-gt", "--corpus", str(root / "corpus"), "--out", str(root / "gt.dmls"),
                 *MODEL_FLAGS]) == 0
    return root


def _value(numbers):
    """Half the time a bounded number, else a tricky or a random string:
    most strings fail the config codec's number parse, and a number gets
    further into the command."""
    # decimal digits are left out so the text never parses as a number;
    # lone surrogates cannot be written to the captured stderr
    text = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8)
    return st.sampled_from([numbers.map(str), numbers.map(str), st.sampled_from(TRICKY),
                            text]).flatmap(lambda values: values)


def _joined(item, sep, max_size=3):
    return st.lists(item, min_size=1, max_size=max_size).map(sep.join)


SIZE = st.builds("{}x{}".format, st.integers(0, 64), st.integers(0, 64))
WIDTH = st.integers(0, 16).map(str)
STRIDE = st.integers(0, 4).map(str)
COUNT = st.integers(-1, 3).map(str)
# half the draws near the edges: uint8 labels, non-negative seeds
CLASSES = st.one_of(st.integers(-1, 300), st.integers(250, 300))
SEED = st.one_of(st.integers(-2, 2), st.integers(0, 2 ** 40))
SCENE_FLAGS = {
    "--classes": _value(CLASSES),
    "--input-size": st.one_of(_value(st.integers(0, 64)), SIZE),
}
MODEL_FLAG_VALUES = {
    **SCENE_FLAGS,
    "--low-channels": st.one_of(_value(WIDTH), _joined(st.builds("{}/{}".format, WIDTH,
                                                                STRIDE), ",")),
    "--seg-channels": st.one_of(_value(WIDTH), _joined(WIDTH, ",")),
    "--dml-extra-stride": _value(st.integers(-1, 8)),
    "--windows": st.one_of(_value(st.integers(-1, 10 ** 6)),
                           _joined(st.integers(-1, 10 ** 6).map(str), ",", 4)),
    "--lambda": _value(st.floats(-2, 2)),
    "--levels": _value(st.integers(-1, 4)),
}

TRAIN_FLAG_VALUES = {
    "--batch-size": _value(st.integers(0, 3)),
    "--momentum": _value(st.floats(-0.5, 1.5)),
    "--weight-decay": _value(st.floats(-1, 1)),
    "--lr": _value(st.floats(-1, 10)),
    "--seed": _value(SEED),
    "--eval-every": _value(st.integers(-1, 2)),
    "--precision": _value(st.sampled_from(["train32", "check64"])),
    "--lr-poly": _value(st.floats(-1, 2)),
}
# mostly 1 or 2, else text that is no positive integer: these strings hold
# no digit, and TRICKY's " 7 " and fullwidth nine would parse as 7 and 9
ITERATIONS = st.sampled_from([
    st.integers(1, 2).map(str), st.integers(1, 2).map(str), st.integers(1, 2).map(str),
    st.sampled_from(["", "0", "-1", "1e3", "1.5", "nan", "x", "2x"]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8),
]).flatmap(lambda values: values)
# the 16x16 model the corpus fits and a batch its 2 training scenes fill,
# ahead of the drawn flags that override them
BASE_RUN = {**{flag: st.just(value) for flag, value in zip(MODEL_FLAGS[::2], MODEL_FLAGS[1::2])},
            "--batch-size": st.just("2")}


# mostly nothing; else a flag no command takes, --seed (which describe,
# gen-gt, eval and predict do not take) or a positional argument
STRAY = st.sampled_from([[]] * 5 + [["--serial"], ["--seed", "1"], ["x"]])


def _argv(command, run, out):
    """Strategy for one command's argv: the fixed paths it needs, some of
    its value flags and, now and then, a stray token."""
    ckpt = st.sampled_from([run / "run" / "checkpoint.dmls", run / "corpus" / "manifest.txt",
                            run / "missing.dmls", run / "run"]).map(str)
    corpus = st.sampled_from([run / "corpus", run / "run", run / "missing"]).map(str)
    image = st.sampled_from([run / "corpus" / "images" / "img_00000.ppm",
                             run / "corpus" / "masks" / "msk_00000.pgm",
                             run / "run" / "checkpoint.dmls", run / "missing.ppm"]).map(str)
    # the commands that train mostly get the corpus, so that most examples train
    train_corpus = st.sampled_from([run / "corpus"] * 4 + [run / "run", run / "missing"]).map(str)
    gt_cache = st.sampled_from([run / "gt.dmls", run / "run" / "checkpoint.dmls",
                                run / "missing.dmls", run / "corpus" / "manifest.txt"]).map(str)
    required, optional = {
        "describe": ({}, MODEL_FLAG_VALUES),
        # the counts are always given, as numbers: their defaults write 600 scenes
        "gen-data": ({"--out": st.just(str(out)), "--train": COUNT, "--val": COUNT},
                     {**SCENE_FLAGS, "--seed": _value(SEED)}),
        "gen-gt": ({"--corpus": corpus, "--out": st.just(str(out / "gt.dmls"))},
                   MODEL_FLAG_VALUES),
        "eval": ({"--checkpoint": ckpt, "--corpus": corpus},
                 {"--split": _value(st.sampled_from(["train", "val"])),
                  "--out": st.just(str(out / "eval.csv"))}),
        "predict": ({"--checkpoint": ckpt, "--image": image, "--out": st.just(str(out / "p"))},
                    {}),
        "train": ({"--corpus": train_corpus, "--out": st.just(str(out / "run")),
                   "--iterations": ITERATIONS, **BASE_RUN},
                  {**MODEL_FLAG_VALUES, **TRAIN_FLAG_VALUES, "--gt-cache": gt_cache}),
        "experiment": ({"--corpus": train_corpus, "--out": st.just(str(out / "exp")),
                        "--iterations": ITERATIONS, **BASE_RUN},
                       {**MODEL_FLAG_VALUES, **TRAIN_FLAG_VALUES,
                        "--run-levels": st.one_of(_value(st.integers(-1, 4)), _joined(
                            st.integers(-1, 4).map(str), ",", 4))}),
        "grad-check": ({}, {**MODEL_FLAG_VALUES, "--seed": _value(SEED),
                            "--tolerance": _value(st.floats(0, 1e-3))}),
    }[command]
    chosen = st.sets(st.sampled_from(sorted(optional)), max_size=3) if optional \
        else st.just(set())

    @st.composite
    def build(draw):
        argv = [command]
        for flag, values in required.items():
            argv += [flag, draw(values)]
        for flag in sorted(draw(chosen)):
            argv += [flag, draw(optional[flag])]
        return argv + draw(STRAY)

    return build()


def _exit_code_is_0_to_3(data, run, commands):
    out = run / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    command = data.draw(st.sampled_from(commands), label="command")
    argv = data.draw(_argv(command, run, out), label="argv")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        assert exc.code in (0, 1)
    else:
        assert code in (0, 1, 2, 3)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exit_code_is_0_to_3(data, run):
    _exit_code_is_0_to_3(data, run, ["describe", "gen-data", "gen-gt", "eval", "predict"])


def _checked_config(cfg, tolerance, *, seed):
    """grad_check's stand-in: what a valid config and seed reach, reported
    as one error of 1e-5, so a tolerance decides between exit 0 and 3."""
    assert isinstance(cfg, ModelConfig) and isinstance(seed, int) and seed >= 0
    return GradCheckReport({"low.0.weight": 1e-5}, 1e-5, tolerance, 1e-5 <= tolerance)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_training_commands_exit_code_is_0_to_3(data, run):
    with mock.patch.object(cli, "grad_check", _checked_config):
        _exit_code_is_0_to_3(data, run, ["train", "experiment", "grad-check"])
