import struct
from pathlib import Path

import numpy as np
import pytest

from dmlseg.checkpoint import (load_container, load_gt_cache, load_model_checkpoint,
                               restore_model, save_container, save_gt_cache,
                               save_model_checkpoint)
from dmlseg.errors import ConfigError, DataError
from dmlseg.model import ModelConfig, build_model, forward
from dmlseg.tensor import Tensor
from dmlseg.train import prepare_targets


def tiny_config(**kw):
    defaults = dict(num_classes=4, input_size=(32, 32),
                    low_channels=((8, 2), (8, 2)), seg_channels=(8, 8),
                    dml_extra_stride=2, window_sizes=(5, 3, 1), levels=3)
    defaults.update(kw)
    return ModelConfig(**defaults)


def test_container_round_trip_bits(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a.weight": rng.normal(size=(2, 3, 3, 3)).astype(np.float32),
        "b.weight": rng.normal(size=(1, 1, 2, 2)).astype(np.float64),
        "mask": rng.integers(0, 255, size=(1, 1, 4, 4)).astype(np.uint8),
    }
    save_container(tmp_path / "c.dmls", "key = value\n", arrays)
    header, loaded = load_container(tmp_path / "c.dmls")
    assert header == "key = value\n"
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == arrays[name].dtype
        assert np.array_equal(
            loaded[name].view(np.uint8), arrays[name].view(np.uint8))


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "c.dmls"
    save_container(path, "round = 1\n", {"w": np.ones((1, 1, 2, 2), np.float32)})
    before = path.read_bytes()

    def torn_write(self, data):
        with open(self, "wb") as f:
            f.write(data[:len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", torn_write)
    with pytest.raises(OSError, match="disk full"):
        save_container(path, "round = 2\n", {"w": np.zeros((1, 1, 2, 2), np.float32)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.dmls"]


def test_bad_magic_rejected(tmp_path):
    (tmp_path / "x.dmls").write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(DataError, match="not a DMLS"):
        load_container(tmp_path / "x.dmls")


def test_unknown_version_rejected(tmp_path):
    save_container(tmp_path / "v.dmls", "", {})
    raw = bytearray((tmp_path / "v.dmls").read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    (tmp_path / "v.dmls").write_bytes(bytes(raw))
    with pytest.raises(DataError, match="version 99"):
        load_container(tmp_path / "v.dmls")


def _saved_checkpoint(tmp_path):
    model = build_model(tiny_config(input_size=(16, 16), low_channels=((2, 2), (2, 2)),
                                    seg_channels=(2, 2), num_classes=3), seed=0)
    path = tmp_path / "m.dmls"
    save_model_checkpoint(path, model)
    return path, path.read_bytes()


def test_every_truncated_prefix_is_data_error(tmp_path):
    path, raw = _saved_checkpoint(tmp_path)
    cut = tmp_path / "cut.dmls"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(DataError):
            load_container(cut)


def test_non_utf8_header_is_data_error(tmp_path):
    path, raw = _saved_checkpoint(tmp_path)
    bad = bytearray(raw)
    bad[12] = 0xFF  # first byte of the header text
    path.write_bytes(bytes(bad))
    with pytest.raises(DataError, match="UTF-8"):
        load_container(path)


def test_trailing_byte_is_data_error(tmp_path):
    path, raw = _saved_checkpoint(tmp_path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(DataError, match="after the last entry"):
        load_container(path)


def test_model_checkpoint_round_trip(tmp_path):
    model = build_model(tiny_config(), seed=3)
    for p in model.parameters():  # non-trivial optimizer state
        p.momentum[:] = np.random.default_rng(1).normal(size=p.momentum.shape)
    save_model_checkpoint(tmp_path / "m.dmls", model)
    loaded = load_model_checkpoint(tmp_path / "m.dmls")
    assert loaded.config == model.config
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert a.name == b.name
        assert np.array_equal(a.tensor.data, b.tensor.data)
        assert np.array_equal(a.momentum, b.momentum)

    probe = Tensor(np.random.default_rng(2).random((1, 3, 32, 32)))
    assert np.array_equal(forward(model, probe).p.data, forward(loaded, probe).p.data)


def test_restore_shape_mismatch(tmp_path):
    model = build_model(tiny_config(), seed=0)
    save_model_checkpoint(tmp_path / "m.dmls", model)
    other = build_model(tiny_config(seg_channels=(8, 16)), seed=0)
    _, arrays = load_container(tmp_path / "m.dmls")
    with pytest.raises(ConfigError, match="shape"):
        restore_model(other, arrays)


def test_gt_cache_round_trip(tmp_path):
    cfg = tiny_config()
    rng = np.random.default_rng(4)
    masks = [rng.integers(0, 4, size=(32, 32)).astype(np.uint8) for _ in range(3)]
    grids, targets = prepare_targets(masks, cfg)
    save_gt_cache(tmp_path / "gt.dmls", cfg, "abc123", grids, targets)
    g2, t2 = load_gt_cache(tmp_path / "gt.dmls", cfg, "abc123")
    assert g2.shape == (3, 8, 8) and t2.shape == (3, 3, 4, 4, 4)
    assert g2.dtype == t2.dtype == np.uint8
    assert np.array_equal(g2, grids)
    assert np.array_equal(t2, targets)
    with pytest.raises(DataError, match="different config"):
        load_gt_cache(tmp_path / "gt.dmls", cfg, "otherhash")


def _edited_gt_cache(tmp_path, edit, count=4):
    cfg = tiny_config()
    rng = np.random.default_rng(5)
    masks = [rng.integers(0, 4, size=(32, 32)).astype(np.uint8) for _ in range(count)]
    save_gt_cache(tmp_path / "gt.dmls", cfg, "h", *prepare_targets(masks, cfg))
    header, arrays = load_container(tmp_path / "gt.dmls")
    edit(arrays)
    save_container(tmp_path / "gt.dmls", header, arrays)
    return cfg


def _drop_image_0(arrays):
    for name in [n for n in arrays if n.startswith("img00000/")]:
        del arrays[name]


@pytest.mark.parametrize("cut, message", [
    (lambda g, t: (g, t[:2]), r"shapes \(3, 8, 8\) and \(2, 3, 4, 4, 4\) do not fit"),
    (lambda g, t: (g, t[:, :2]), r"\(3, 2, 4, 4, 4\) do not fit \(3, 8, 8\) and \(3, 3, 4"),
    (lambda g, t: (g[:, :4], t), r"\(3, 4, 8\) and \(3, 3, 4, 4, 4\) do not fit"),
], ids=["fewer-targets", "fewer-levels", "narrow-grid"])
def test_save_gt_cache_rejects_targets_not_fitting(cut, message, tmp_path):
    cfg = tiny_config()
    rng = np.random.default_rng(6)
    masks = [rng.integers(0, 4, size=(32, 32)).astype(np.uint8) for _ in range(3)]
    with pytest.raises(ConfigError, match=message):
        save_gt_cache(tmp_path / "gt.dmls", cfg, "h", *cut(*prepare_targets(masks, cfg)))
    assert not (tmp_path / "gt.dmls").exists()


@pytest.mark.parametrize("edit", [
    lambda a: a.pop("img00003/lvl1"),
    _drop_image_0,
    lambda a: a.update({"img00001/lvl0": a["img00001/lvl0"][:, :, :2]}),
    lambda a: a["img00002/seg"].fill(4),
], ids=["missing-level", "missing-image", "wrong-shape", "bad-label"])
def test_malformed_gt_cache_is_data_error(tmp_path, edit):
    cfg = _edited_gt_cache(tmp_path, edit)
    with pytest.raises(DataError, match="gt.dmls"):
        load_gt_cache(tmp_path / "gt.dmls", cfg, "h")


def test_gt_cache_label_error_names_path_and_pixel(tmp_path):
    def put_label(arrays):
        arrays["img00002/seg"][0, 0, 5, 6] = 9
    cfg = _edited_gt_cache(tmp_path, put_label)
    with pytest.raises(DataError, match=r"gt\.dmls: mask value 9 at pixel \(5, 6\) "
                                        r"is outside 0\.\.3$"):
        load_gt_cache(tmp_path / "gt.dmls", cfg, "h")


def _as_float32(arrays):
    for name, arr in arrays.items():
        arrays[name] = arr.astype(np.float32)
    arrays["img00000/seg"] += 0.5  # would load as the class below it


def _presence_7_float32(arrays):
    arrays["img00001/lvl2"] = arrays["img00001/lvl2"].astype(np.float32)
    arrays["img00001/lvl2"][0, 1, 2, 3] = 7.0


def _presence_7_uint8(arrays):
    arrays["img00001/lvl2"][0, 1, 2, 3] = 7


@pytest.mark.parametrize("edit, message", [
    (_as_float32, r"entry img00000/seg is float32, not uint8"),
    (_presence_7_float32, r"entry img00001/lvl2 is float32, not uint8"),
    (_presence_7_uint8, r"entry img00001/lvl2 holds a presence value other than 0 or 1"),
], ids=["all-float32", "presence-float32", "presence-7"])
def test_gt_cache_entry_not_uint8_or_not_binary_is_data_error(tmp_path, edit, message):
    # a cache rewritten by another writer must not load as targets it never held
    cfg = _edited_gt_cache(tmp_path, edit, count=2)
    with pytest.raises(DataError, match=r"gt\.dmls: " + message + "$"):
        load_gt_cache(tmp_path / "gt.dmls", cfg, "h")
