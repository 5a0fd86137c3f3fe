from pathlib import Path

import numpy as np
import pytest

from dmlseg.errors import ConfigError
from dmlseg.model import (ModelConfig, build_model, describe, forward, predict_labels)
from dmlseg.tensor import Tensor
from dmlseg.train import _unaffected, objective, prepare_targets

DATA = Path(__file__).parent / "data"


def tiny_config(**kw):
    defaults = dict(num_classes=4, input_size=(32, 32),
                    low_channels=((8, 2), (8, 2)), seg_channels=(8, 8),
                    dml_extra_stride=2, window_sizes=(5, 3, 1), levels=3)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestModelConfig:
    def test_stride_arithmetic(self):
        cfg = tiny_config()
        assert cfg.s_low == 4
        assert cfg.s_dml == 8
        assert cfg.seg_grid == (8, 8)
        assert cfg.dml_grid == (4, 4)

    def test_desk_scale_shapes(self):
        cfg = ModelConfig(num_classes=8, input_size=(96, 96),
                          low_channels=((16, 2), (32, 2)), seg_channels=(32, 32),
                          dml_extra_stride=2, window_sizes=(11, 5, 3), levels=3)
        assert cfg.seg_grid == (24, 24)
        assert cfg.dml_grid == (12, 12)

    def test_large_scale_strides(self):
        # 8-stride backbone with 4x extra downsampling puts the multi-label
        # heads at 1/32 resolution
        cfg = ModelConfig(num_classes=8, input_size=(224, 224),
                          low_channels=((8, 2), (8, 2), (8, 2)), seg_channels=(8, 8),
                          dml_extra_stride=4, window_sizes=(15, 9, 7), levels=3)
        assert cfg.s_low == 8
        assert cfg.s_dml == 32
        assert cfg.head_strides() == (2, 2)
        assert cfg.seg_dilations() == (2, 4)

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            tiny_config(window_sizes=(6, 3, 1))

    def test_non_decreasing_windows_rejected(self):
        with pytest.raises(ConfigError, match="decrease"):
            tiny_config(window_sizes=(3, 3, 1))

    def test_window_count_must_match_levels(self):
        with pytest.raises(ConfigError, match="window"):
            tiny_config(window_sizes=(5, 3), levels=3)

    def test_levels_keep_the_first_default_windows(self):
        cfg = ModelConfig(num_classes=4, input_size=(96, 96), low_channels=((8, 2), (8, 2)),
                          seg_channels=(8, 8), levels=1)
        assert cfg.window_sizes == (11,)

    def test_window_above_twice_the_grid_rejected(self):
        assert tiny_config(window_sizes=(9, 3, 1)).window_sizes == (9, 3, 1)  # 4x4 grid
        for windows in ((11, 3, 1), (9999, 5, 3)):
            with pytest.raises(ConfigError, match="at most 9 on a 4x4 DML grid"):
                tiny_config(window_sizes=windows)

    def test_window_bound_error_names_the_largest_windows_that_fit(self):
        desk = dict(num_classes=8, low_channels=((24, 2), (48, 2)), seg_channels=(64, 64))
        with pytest.raises(ConfigError, match=r"at most 9 on a 4x4 DML grid, got \(11, 5, 3\); "
                                              r"the largest windows that fit are 9,7,5$"):
            ModelConfig(input_size=(32, 32), **desk)
        assert ModelConfig(input_size=(32, 32), window_sizes=(9, 7, 5), **desk)

    def test_window_bound_error_names_the_most_levels_that_fit(self):
        desk = dict(num_classes=8, low_channels=((24, 2), (48, 2)), seg_channels=(64, 64))
        with pytest.raises(ConfigError, match=r"at most 3 on a 1x1 DML grid, got \(11, 5, 3\); "
                                              r"at most 2 levels \(3,1\) fit$"):
            ModelConfig(input_size=(8, 8), **desk)
        assert ModelConfig(input_size=(8, 8), levels=2, window_sizes=(3, 1), **desk)

    def test_indivisible_input_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            tiny_config(input_size=(30, 32))

    def test_text_round_trip(self):
        cfg = tiny_config()
        assert ModelConfig.from_text(cfg.to_text()) == cfg
        cfg0 = tiny_config(levels=0, window_sizes=())
        assert ModelConfig.from_text(cfg0.to_text()) == cfg0

    def test_from_kv_field_defaults_and_level_prefix(self):
        base = {"num_classes": "4", "input_size": "48x48",  # a 6x6 grid fits window 11
                "low_channels": "8/2,8/2", "seg_channels": "8,8"}
        assert ModelConfig.from_kv(base) == ModelConfig(
            num_classes=4, input_size=(48, 48), low_channels=((8, 2), (8, 2)),
            seg_channels=(8, 8))
        assert ModelConfig.from_kv({**base, "levels": "1"}).window_sizes == (11,)
        assert ModelConfig.from_kv(
            {**base, "levels": "2", "window_sizes": "7,5,3"}).window_sizes == (7, 5)
        assert ModelConfig.from_kv({**base, "levels": "0", "window_sizes": ""}).levels == 0
        with pytest.raises(ConfigError, match="3 levels but 2 window sizes"):
            ModelConfig.from_kv({**base, "window_sizes": "5,3"})


class TestForward:
    def test_output_shapes(self):
        cfg = tiny_config()
        model = build_model(cfg, seed=0)
        out = forward(model, Tensor(np.random.default_rng(0).random((2, 3, 32, 32))))
        assert out.s.shape == (2, 4, 8, 8)
        assert [t.shape for t in out.m] == [(2, 4, 4, 4)] * 3
        assert [t.shape for t in out.m_up] == [(2, 4, 8, 8)] * 3
        assert out.p.shape == (2, 4, 8, 8)

    def test_fusion_identity_is_exact(self):
        cfg = tiny_config()
        rng = np.random.default_rng(1)
        for seed in range(5):
            model = build_model(cfg, seed=seed)
            for p in model.parameters():
                p.tensor.data += rng.normal(scale=0.1, size=p.tensor.shape).astype(
                    p.tensor.data.dtype)
            out = forward(model, Tensor(rng.random((1, 3, 32, 32))))
            assert out.fusion_gap() == 0.0

    def test_zero_weights_zero_outputs(self):
        cfg = tiny_config()
        model = build_model(cfg, seed=0)
        for p in model.parameters():
            p.tensor.data[:] = 0
        out = forward(model, Tensor(np.random.default_rng(2).random((1, 3, 32, 32))))
        assert np.all(out.s.data == 0)
        assert all(np.all(t.data == 0) for t in out.m)
        assert np.all(out.p.data == 0)

    def test_level_wiring_isolation(self):
        cfg = tiny_config()
        x = Tensor(np.random.default_rng(3).random((1, 3, 32, 32)))
        model = build_model(cfg, seed=0)
        model.params["dml1.adapt.weight"].tensor.data[:] += 0.5
        base = forward(model, x)
        model.params["dml1.proj.weight"].tensor.data[:] += 0.5
        bumped = forward(model, x)
        assert np.array_equal(base.s.data, bumped.s.data)
        assert not np.array_equal(base.m[0].data, bumped.m[0].data)
        assert np.array_equal(base.m[1].data, bumped.m[1].data)
        assert np.array_equal(base.m[2].data, bumped.m[2].data)
        assert not np.array_equal(base.p.data, bumped.p.data)

    def test_adapt_starts_at_zero_so_fusion_starts_at_baseline(self):
        cfg = tiny_config()
        model = build_model(cfg, seed=0)
        out = forward(model, Tensor(np.random.default_rng(8).random((1, 3, 32, 32))))
        assert all(np.all(t.data == 0) for t in out.m)
        assert np.array_equal(out.p.data, out.s.data)

    def test_forward_deterministic(self):
        cfg = tiny_config()
        model = build_model(cfg, seed=0)
        x = Tensor(np.random.default_rng(4).random((1, 3, 32, 32)))
        a = forward(model, x)
        b = forward(model, x)
        assert np.array_equal(a.p.data, b.p.data)

    def test_no_levels_reduces_to_fcn(self):
        cfg = tiny_config(levels=0, window_sizes=())
        model = build_model(cfg, seed=0)
        out = forward(model, Tensor(np.random.default_rng(5).random((1, 3, 32, 32))))
        assert out.m == [] and out.m_up == []
        assert np.array_equal(out.p.data, out.s.data)

    def test_baseline_parameters_nest_in_full_model(self):
        full = build_model(tiny_config(), seed=7)
        base = build_model(tiny_config(levels=0, window_sizes=()), seed=7)
        full_names = set(full.params)
        base_names = set(base.params)
        assert base_names < full_names
        for name in base_names:  # same seed -> identical shared weights
            assert np.array_equal(base.params[name].tensor.data,
                                  full.params[name].tensor.data)

    def test_pooled_scores_dominate_window(self):
        cfg = tiny_config()
        model = build_model(cfg, seed=0)
        k = cfg.num_classes
        for block in model.dml:  # identity adapt: m is the pooled scores
            block.adapt.weight.tensor.data[:] = np.eye(k).reshape(k, k, 1, 1)
            block.adapt.bias.tensor.data[:] = 0.0
        memo = {}
        forward(model, Tensor(np.random.default_rng(6).random((1, 3, 32, 32))), memo)
        for j, (block, w) in enumerate(zip(model.dml, cfg.window_sizes), start=1):
            pre = memo[f"dml{j}.proj"].data
            pooled = memo[f"dml{j}.adapt"].data
            assert np.array_equal(pooled, memo[f"dml{j}.pool"].data)
            half = (w - 1) // 2
            _, _, h, wd = pre.shape
            for y in range(h):
                for x in range(wd):
                    y0, y1 = max(0, y - half), min(h, y + half + 1)
                    x0, x1 = max(0, x - half), min(wd, x + half + 1)
                    window_max = pre[:, :, y0:y1, x0:x1].max(axis=(2, 3))
                    assert np.all(pooled[:, :, y, x] >= window_max - 1e-6)

    def test_memo_reuses_blocks_bit_for_bit(self):
        cfg = tiny_config()
        rng = np.random.default_rng(9)
        model = build_model(cfg, seed=0)
        for p in model.parameters():
            p.tensor.data += rng.normal(scale=0.1, size=p.tensor.shape).astype(
                p.tensor.data.dtype)
        x = Tensor(rng.random((2, 3, 32, 32)))
        memo = {}
        full = forward(model, x, memo)
        heads = [f"dml{j}.{layer}" for j in (1, 2, 3)
                 for layer in ("stage0", "stage1", "proj", "pool", "adapt", "up")]
        assert list(memo) == ["center", "low.0", "low.1", "seg.0", "seg.1", "seg.proj", *heads]
        again = forward(model, x, dict(memo))
        assert np.array_equal(again.p.data, full.p.data)
        assert again.fusion_gap() == 0.0

        # the entries each probe recomputes: its layer's and those after it
        # on its path (for the trunk, every entry but the centring before it)
        moved = {"low.1.weight": [k for k in memo if k not in ("center", "low.0")],
                 "seg.proj.bias": ["seg.proj"],
                 "dml1.adapt.weight": ["dml1.adapt", "dml1.up"],
                 "dml2.stage0.weight": ["dml2.stage0", "dml2.stage1", "dml2.proj",
                                        "dml2.pool", "dml2.adapt", "dml2.up"],
                 "dml3.proj.bias": ["dml3.proj", "dml3.pool", "dml3.adapt", "dml3.up"]}
        for name, recomputed in moved.items():
            memo = {}
            before = forward(model, x, memo)
            model.params[name].tensor.data.reshape(-1)[0] += 0.25
            kept = _unaffected(memo, name)
            partial = forward(model, x, kept)
            fresh = forward(model, x)
            assert not np.array_equal(fresh.p.data, before.p.data), name
            assert np.array_equal(partial.p.data, fresh.p.data), name
            assert np.array_equal(partial.s.data, fresh.s.data), name
            for a, b in zip(partial.m, fresh.m):
                assert np.array_equal(a.data, b.data), name
            reused = [k for k in memo if k not in recomputed]
            assert list(kept)[:len(reused)] == reused, name
            assert all(kept[k] is memo[k] for k in reused), name
            assert list(kept)[len(reused):] == recomputed, name  # stored again, in order

    @pytest.mark.parametrize("kw", [{}, {"levels": 0, "window_sizes": ()},
                                    {"dml_extra_stride": 1}])
    def test_memo_keys_are_describe_lines(self, kw):
        # one list of named steps: a memo'd objective stores each describe
        # line's output under its name, in describe order and of its shape
        cfg = tiny_config(**kw)
        model = build_model(cfg, seed=0)
        rng = np.random.default_rng(10)
        y_seg, y_mul = prepare_targets(rng.integers(0, 4, size=(2, 32, 32)).astype(np.uint8), cfg)
        memo = {}
        objective(model, Tensor(rng.random((2, 3, 32, 32))), y_seg, y_mul, memo)
        lines = [line.split() for line in describe(model).splitlines()[1:-1]]
        layers = [k for k in memo if k != "picks" and not k.endswith(".loss")]
        assert layers == [line[0] for line in lines]
        for name, *_, arrow, shape in (line for line in lines if "->" in line):
            assert "x".join(map(str, memo[name].shape[1:])) == shape, name

    def test_wrong_input_shape_raises(self):
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(ConfigError, match="image shape"):
            forward(model, Tensor(np.zeros((1, 3, 16, 16))))


class TestPredictLabels:
    def test_dominant_channel(self):
        p = np.zeros((1, 4, 3, 3), dtype=np.float32)
        p[0, 2] = 5.0
        labels = predict_labels(p, (6, 6))
        assert labels.shape == (1, 6, 6)
        assert np.all(labels == 2)

    def test_tie_breaks_low(self):
        p = np.zeros((1, 4, 2, 2), dtype=np.float32)
        p[0, 0] = 1.0
        p[0, 3] = 1.0
        assert np.all(predict_labels(p, (2, 2)) == 0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        p = rng.normal(size=(2, 5, 4, 4)).astype(np.float32)
        labels = predict_labels(p, (8, 8))
        for n in range(2):
            for y in range(8):
                for x in range(8):
                    scores = p[n, :, y // 2, x // 2]
                    best = min(k for k in range(5) if scores[k] == scores.max())
                    assert labels[n, y, x] == best


def test_architecture_echo_golden():
    model = build_model(tiny_config(), seed=1)
    expect = (DATA / "arch_echo.txt").read_text()
    assert describe(model) == expect


# accepted configs, as `key = value` texts, whose describe bytes are pinned
# in describe_sweep.txt: levels 0-3, extra strides 1, 2 and 4, 1-3 low
# layers, 1-3 head stages and a non-square input
DESCRIBE_SWEEP = [
    "num_classes = 4\ninput_size = 32x32\nlow_channels = 8/2,8/2\nseg_channels = 8,8\n"
    "levels = 0\n",
    "num_classes = 4\ninput_size = 32x32\nlow_channels = 8/2,8/2\nseg_channels = 8,8\n"
    "dml_extra_stride = 1\nlevels = 1\nwindow_sizes = 9\n",
    "num_classes = 5\ninput_size = 64x64\nlow_channels = 8/2,8/2\nseg_channels = 8,12\n"
    "dml_extra_stride = 4\nlevels = 2\nwindow_sizes = 9,5\n",
    "num_classes = 3\ninput_size = 16x16\nlow_channels = 4/2\nseg_channels = 4,4\n"
    "window_sizes = 5,3,1\n",
    "num_classes = 4\ninput_size = 64x64\nlow_channels = 8/2,6/1,8/2\nseg_channels = 8,8\n"
    "window_sizes = 5,3,1\n",
    "num_classes = 4\ninput_size = 32x32\nlow_channels = 8/2,8/2\nseg_channels = 6\n"
    "window_sizes = 5,3,1\n",
    "num_classes = 4\ninput_size = 32x32\nlow_channels = 8/2,8/2\nseg_channels = 8,12,16\n"
    "dml_extra_stride = 4\nwindow_sizes = 5,3,1\n",
    "num_classes = 4\ninput_size = 32x64\nlow_channels = 8/2,8/2\nseg_channels = 8,8\n"
    "window_sizes = 7,3,1\n",
    "num_classes = 6\ninput_size = 24x24\nlow_channels = 6/2\nseg_channels = 6\n"
    "dml_extra_stride = 1\nwindow_sizes = 7,3,1\n",
    "num_classes = 8\ninput_size = 96x96\nlow_channels = 24/2,48/2\nseg_channels = 64,64\n",
    "num_classes = 21\ninput_size = 48x48\nlow_channels = 8/2,8/2\nseg_channels = 8,8\n"
    "levels = 2\nwindow_sizes = 5,3\n",
    "num_classes = 4\ninput_size = 64x32\nlow_channels = 4/2,4/2\nseg_channels = 4,4,4\n"
    "dml_extra_stride = 4\nlevels = 1\nwindow_sizes = 3\n",
    "num_classes = 4\ninput_size = 16x16\nlow_channels = 8/1,8/2\nseg_channels = 8,8\n"
    "window_sizes = 5,3,1\n",
]


def describe_sweep() -> str:
    """Each sweep config's text, `#`-prefixed, then its describe lines."""
    blocks = []
    for text in DESCRIBE_SWEEP:
        model = build_model(ModelConfig.from_text(text), seed=0)
        blocks.append("".join(f"# {line}\n" for line in text.splitlines()) + describe(model))
    return "\n".join(blocks)


def test_describe_sweep_golden():
    assert describe_sweep() == (DATA / "describe_sweep.txt").read_text()
