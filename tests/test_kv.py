"""The `key = value` codec shared by every config dataclass.
The golden texts pin the bytes of checkpoint and gt-cache headers, corpus
manifests and experiment_config.txt."""

import dataclasses

import pytest

from dmlseg.errors import ConfigError
from dmlseg.kv import parse_kv
from dmlseg.model import ModelConfig
from dmlseg.synth_data import SceneSpec, SplitCounts
from dmlseg.train import ExperimentConfig, TrainConfig

DESK = ModelConfig(num_classes=8, input_size=(96, 96), low_channels=((24, 2), (48, 2)),
                   seg_channels=(64, 64))
DESK_TEXT = ("num_classes = 8\ninput_size = 96x96\nlow_channels = 24/2,48/2\n"
             "seg_channels = 64,64\ndml_extra_stride = 2\nwindow_sizes = 11,5,3\n"
             "lambda = 1.0\nlevels = 3\n")
SCENE = SceneSpec(seed=4, size=(16, 24), num_classes=5, pools=((3, 1), (2, 4)), jitter=0.1)


def test_golden_texts():
    assert DESK.to_text() == DESK_TEXT
    assert dataclasses.replace(DESK, levels=0).to_text() == DESK_TEXT.replace(
        "window_sizes = 11,5,3", "window_sizes = ").replace("levels = 3", "levels = 0")
    assert TrainConfig().to_text() == (
        "iterations = 300\nbatch_size = 8\nmomentum = 0.9\nweight_decay = 0.0005\n"
        "lr = 0.01\nseed = 0\neval_every = 0\nprecision = train32\nlr_poly = 0.0\n")
    assert SCENE.to_text() == ("seed = 4\nsize = 16x24\nnum_classes = 5\npools = 1,3|2,4\n"
                               "shapes_min = 3\nshapes_max = 6\njitter = 0.1\nnoise = 0.03\n")


@pytest.mark.parametrize("config", [DESK, dataclasses.replace(DESK, levels=0, lam=0.25),
                                    TrainConfig(lr=0.5, precision="check64"), SCENE,
                                    SceneSpec(seed=0, num_classes=2), SplitCounts(3, 0),
                                    ExperimentConfig((0, 3))], ids=str)
def test_text_round_trip(config):
    assert type(config).from_text(config.to_text()) == config
    assert tuple(config.to_kv()) == type(config).keys()


def test_forms_name_each_spelling():
    assert ModelConfig.forms() == {
        "num_classes": "int", "input_size": "HxW", "low_channels": "w/s,w/s",
        "seg_channels": "a,b", "dml_extra_stride": "int", "window_sizes": "a,b",
        "lambda": "float", "levels": "int"}
    assert SceneSpec.forms()["pools"] == "a,b|c"
    assert TrainConfig.forms()["precision"] == "str"


def test_keys_follow_fields_and_renames():
    assert ModelConfig.keys() == ("num_classes", "input_size", "low_channels", "seg_channels",
                                  "dml_extra_stride", "window_sizes", "lambda", "levels")
    assert SceneSpec.keys()[:4] == ("seed", "size", "num_classes", "pools")


def test_absent_fields_take_their_defaults():
    kv = {"num_classes": "8", "input_size": "96x96", "low_channels": "24/2,48/2",
          "seg_channels": "64,64", "levels": "1", "stray": "x"}
    assert ModelConfig.from_kv(kv) == dataclasses.replace(DESK, levels=1)
    assert SceneSpec.from_kv({"seed": "0", "num_classes": "2"}).pools == ((1,),)


@pytest.mark.parametrize("cls, kv, message", [
    (ModelConfig, {"num_classes": "8"}, "missing key input_size"),
    (SceneSpec, {}, "missing key seed"),
    (SceneSpec, {"seed": "0", "size": "3x4x5"}, "bad size '3x4x5': expected 2 values"),
    (SceneSpec, {"seed": "0", "pools": "1,x|2"}, "bad pools '1,x|2': invalid literal"),
    (TrainConfig, {"lr": "fast"}, "bad lr 'fast'"),
    (ModelConfig, {**DESK.to_kv(), "low_channels": "24/2/2"}, "bad low_channels"),
    (SplitCounts, {"n_val": "-1"}, "scene counts must be non-negative, got 500 and -1"),
    (ExperimentConfig, {"run_levels": "0,,3"}, "bad run_levels '0,,3'"),
    (ExperimentConfig, {"run_levels": ""}, "run_levels must name at least one level count"),
])
def test_malformed_or_missing_values_raise_config_error(cls, kv, message):
    with pytest.raises(ConfigError, match=message):
        cls.from_kv(kv)


def test_repeated_key_names_both_lines():
    with pytest.raises(ConfigError, match="^line 4: key seed is already set on line 2$"):
        parse_kv("# a scene\nseed = 4\n\nseed = 5\n")
