"""Property tests of the `key = value` readers: whatever text a config file
or a corpus manifest holds, `parse_kv` plus the `from_kv` of every config
(`TrainConfig`, `ModelConfig`, `SceneSpec`, `SplitCounts` and
`ExperimentConfig`) either succeed or raise ConfigError, and `read_corpus` either succeeds or raises DataError, never
any other exception."""

import shutil

import pytest
from hypothesis import given, settings, strategies as st

from dmlseg.errors import ConfigError, DataError
from dmlseg.kv import parse_kv
from dmlseg.model import ModelConfig
from dmlseg.synth_data import SceneSpec, SplitCounts, read_corpus, write_corpus
from dmlseg.train import ExperimentConfig, TrainConfig

VALID_CONFIG = {"num_classes": "4", "input_size": "32x32", "low_channels": "8/2,8/2",
                "seg_channels": "8,8", "window_sizes": "5,3,1", "levels": "3",
                "dml_extra_stride": "2", "lambda": "1.0", "iterations": "3",
                "batch_size": "2", "momentum": "0.9", "weight_decay": "0.0005",
                "lr": "0.01", "seed": "0", "eval_every": "0", "precision": "train32",
                "lr_poly": "0.0", "size": "32x32", "pools": "1|2,3", "shapes_min": "3",
                "shapes_max": "6", "jitter": "0.08", "noise": "0.03", "n_train": "1",
                "n_val": "1", "run_levels": "0,3"}

# values that reach past the number parsers: signs, exponents, non-finite
# floats, separators out of place, empty fields
TRICKY = ["", "0", "-1", "1e3", "nan", "inf", "-inf", "1.5", "x", "3x", "x3", "0x0",
          "1/0", "8/2/2", "8/", ",", "5,,3", "|", "1,2|", "train64", " 7 ", "９"]

VALUES = st.one_of(st.sampled_from(TRICKY), st.text(max_size=12),
                   st.sampled_from(sorted(VALID_CONFIG.values())))


def _kv_text(base: dict[str, str]):
    """`key = value` text from `base` with some values replaced, some keys
    dropped or added, and stray lines mixed in."""
    keys = sorted(base)
    edits = st.dictionaries(st.sampled_from(keys) | st.text(max_size=8), VALUES, max_size=6)
    drops = st.sets(st.sampled_from(keys), max_size=4)
    stray = st.lists(st.text(max_size=20), max_size=3)

    def build(edit, drop, extra):
        kv = {k: v for k, v in {**base, **edit}.items() if k not in drop}
        return "\n".join([f"{k} = {v}" for k, v in kv.items()] + extra)

    return st.one_of(st.text(max_size=200), st.builds(build, edits, drops, stray))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_kv_text(VALID_CONFIG))
def test_config_readers_raise_only_config_error(text):
    try:
        kv = parse_kv(text)
    except ConfigError:
        return
    for cls in (TrainConfig, ModelConfig, SceneSpec, SplitCounts, ExperimentConfig):
        try:
            cls.from_kv(kv)
        except ConfigError:
            pass


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    """A valid two-image corpus and its manifest text."""
    root = tmp_path_factory.mktemp("fuzz_corpus")
    write_corpus(SceneSpec(seed=3, size=(8, 8), num_classes=4), 1, 1, root)
    return root


def _manifest_text(valid: str):
    head = [line for line in valid.splitlines() if "\t" not in line]
    entries = [line for line in valid.splitlines() if "\t" in line]
    base = dict(line.split(" = ", 1) for line in head)
    field = st.sampled_from(["train", "val", "", ".", "/", "images", "masks",
                             "images/img_00000.ppm", "masks/msk_00001.pgm"]) | st.text(max_size=6)
    bad_entry = st.one_of(st.tuples(field, field, field).map("\t".join),
                          st.lists(field, min_size=1, max_size=4).map("\t".join))

    def build(kv_text, extra):
        return "\n".join([kv_text, *entries, *extra])

    return st.one_of(
        _kv_text(base).map(lambda t: (t + "\n" + "\n".join(entries)).encode("utf-8")),
        st.builds(build, st.just("\n".join(head)),
                  st.lists(bad_entry, min_size=1, max_size=2)).map(str.encode),
        st.binary(max_size=32).map(lambda tail: valid.encode("utf-8") + tail))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_manifest_reader_raises_only_data_error(data, corpus_root):
    valid = (corpus_root / "manifest.txt").read_text(encoding="utf-8")
    copy = corpus_root.parent / "fuzz_copy"
    if not copy.exists():
        shutil.copytree(corpus_root, copy)
    (copy / "manifest.txt").write_bytes(data.draw(_manifest_text(valid), label="manifest"))
    try:
        read_corpus(copy)
    except DataError:
        pass


def test_valid_seed_texts_parse(corpus_root):
    kv = parse_kv("".join(f"{k} = {v}\n" for k, v in VALID_CONFIG.items()))
    assert TrainConfig.from_kv(kv).iterations == 3
    assert ModelConfig.from_kv(kv).levels == 3
    assert SceneSpec.from_kv(kv).pools == ((1,), (2, 3))
    assert SplitCounts.from_kv(kv) == SplitCounts(1, 1)
    assert ExperimentConfig.from_kv(kv).run_levels == (0, 3)
    assert len(read_corpus(corpus_root).entries) == 2
