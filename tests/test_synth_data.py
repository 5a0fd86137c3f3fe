import hashlib
from pathlib import Path

import numpy as np
import pytest

from dmlseg.checkpoint import save_gt_cache
from dmlseg.errors import ConfigError, DataError
from dmlseg.model import ModelConfig
from dmlseg.synth_data import (SceneSpec, _corpus_hash, class_colors, default_pools,
                               generate_scene, read_corpus, read_pgm, read_ppm, write_corpus,
                               write_pgm, write_ppm)
from dmlseg.train import prepare_targets


def spec(**kw):
    defaults = dict(seed=11, size=(48, 48), num_classes=8)
    defaults.update(kw)
    return SceneSpec(**defaults)


class TestGenerateScene:
    def test_deterministic(self):
        a_img, a_mask = generate_scene(spec(), 3)
        b_img, b_mask = generate_scene(spec(), 3)
        assert np.array_equal(a_img, b_img)
        assert np.array_equal(a_mask, b_mask)

    def test_different_indices_differ(self):
        a_img, _ = generate_scene(spec(), 0)
        b_img, _ = generate_scene(spec(), 2)
        assert not np.array_equal(a_img, b_img)

    def test_zero_shapes_is_background(self):
        img, mask = generate_scene(spec(shapes_min=0, shapes_max=0, noise=0.0), 0)
        assert np.all(mask == 0)
        bg = np.rint(class_colors(spec())[0] * 255) / 255
        assert np.allclose(img, bg.reshape(3, 1, 1).astype(np.float32))

    def test_foreground_stays_in_one_pool(self):
        s = spec()
        for index in range(20):
            _, mask = generate_scene(s, index)
            fg = set(np.unique(mask).tolist()) - {0}
            pool = set(s.pools[index % len(s.pools)])
            assert fg <= pool

    def test_cross_pool_base_colors_collide(self):
        colors = class_colors(spec())
        assert np.array_equal(colors[1], colors[4])
        assert np.array_equal(colors[2], colors[5])
        assert np.array_equal(colors[3], colors[6])
        assert not any(np.array_equal(colors[7], colors[c]) for c in (0, 4, 5, 6))

    def test_image_on_255_grid(self):
        img, _ = generate_scene(spec(), 1)
        assert np.array_equal(img, np.rint(img * 255) / 255)

    def test_pools_must_partition(self):
        with pytest.raises(ConfigError, match="partition"):
            SceneSpec(seed=0, num_classes=8, pools=((1, 2), (4, 5, 6, 7)))

    def test_two_classes_make_one_pool(self, tmp_path):
        assert default_pools(8) == ((1, 2, 3), (4, 5, 6, 7))
        assert default_pools(3) == ((1,), (2,))
        assert default_pools(2) == ((1,),)
        corpus = write_corpus(SceneSpec(seed=0, size=(8, 8), num_classes=2), 2, 1, tmp_path)
        assert read_corpus(tmp_path).spec == corpus.spec

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError, match="every pool must hold a class"):
            SceneSpec(seed=0, num_classes=3, pools=((1, 2), ()))

    @pytest.mark.parametrize("field, value", [
        ("size", (0, 0)), ("size", (32, -1)), ("jitter", -1.0), ("jitter", float("inf")),
        ("noise", -0.5), ("noise", float("nan")), ("num_classes", 1), ("num_classes", 256),
        ("seed", -1)])
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be"):
            SceneSpec(**{"seed": 0, field: value})


class TestNetpbm:
    def test_ppm_round_trip(self, tmp_path):
        img, _ = generate_scene(spec(), 0)
        write_ppm(tmp_path / "a.ppm", img)
        assert np.array_equal(read_ppm(tmp_path / "a.ppm"), img)

    def test_pgm_round_trip(self, tmp_path):
        _, mask = generate_scene(spec(), 0)
        write_pgm(tmp_path / "a.pgm", mask)
        assert np.array_equal(read_pgm(tmp_path / "a.pgm"), mask)

    def test_header_with_comment(self, tmp_path):
        raw = b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03"
        (tmp_path / "c.pgm").write_bytes(raw)
        assert read_pgm(tmp_path / "c.pgm").tolist() == [[0, 1], [2, 3]]

    def test_truncated_raster_rejected(self, tmp_path):
        (tmp_path / "t.pgm").write_bytes(b"P5\n4 4\n255\nxx")
        with pytest.raises(DataError, match="truncated"):
            read_pgm(tmp_path / "t.pgm")

    @pytest.mark.parametrize("raw, read", [
        (b"P6\n-3 -3\n255\n" + bytes(27), read_ppm),
        (b"P5\n0 4\n255\n", read_pgm),
    ], ids=["negative", "zero"])
    def test_non_positive_size_rejected(self, tmp_path, raw, read):
        (tmp_path / "n.pnm").write_bytes(raw)
        with pytest.raises(DataError, match="not positive"):
            read(tmp_path / "n.pnm")

    def test_wrong_magic_rejected(self, tmp_path):
        (tmp_path / "w.ppm").write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(DataError, match="P6"):
            read_ppm(tmp_path / "w.ppm")

    @pytest.mark.parametrize("write, read, index", [
        (write_ppm, read_ppm, 0), (write_pgm, read_pgm, 1)], ids=["ppm", "pgm"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, write, read, index):
        path = tmp_path / "a.pnm"
        write(path, generate_scene(spec(), 0)[index])
        before = path.read_bytes()

        def torn_write(self, data):
            with open(self, "wb") as f:
                f.write(data[:len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", torn_write)
        with pytest.raises(OSError, match="disk full"):
            write(path, generate_scene(spec(), 1)[index])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["a.pnm"]
        assert np.array_equal(read(path), generate_scene(spec(), 0)[index])


class TestCorpus:
    def test_write_read_round_trip(self, tmp_path):
        s = spec()
        corpus = write_corpus(s, 8, 2, tmp_path / "corpus")
        loaded = read_corpus(tmp_path / "corpus")
        assert loaded.spec == s
        assert loaded.entries == corpus.entries
        assert len(loaded.indices("train")) == 8
        assert len(loaded.indices("val")) == 2
        assert loaded.images.shape == (10, 3, 48, 48) and loaded.masks.shape == (10, 48, 48)
        for held in (corpus, loaded):
            assert held.images.dtype == held.masks.dtype == np.uint8
            assert not held.images.flags.writeable and not held.masks.flags.writeable
        assert np.array_equal(loaded.images, corpus.images)
        assert np.array_equal(loaded.masks, corpus.masks)
        for i in range(10):
            img, mask = generate_scene(s, i)
            assert np.array_equal(loaded.load_image(i), img)
            assert np.array_equal(loaded.load_mask(i), mask)
            # the caller owns what it loads
            assert loaded.load_image(i).flags.writeable and loaded.load_mask(i).flags.writeable

    def test_regeneration_from_manifest_spec(self, tmp_path):
        write_corpus(spec(), 6, 0, tmp_path / "a")
        loaded = read_corpus(tmp_path / "a")
        write_corpus(loaded.spec, 6, 0, tmp_path / "b")
        for i in range(6):
            a = (tmp_path / "a" / f"images/img_{i:05d}.ppm").read_bytes()
            b = (tmp_path / "b" / f"images/img_{i:05d}.ppm").read_bytes()
            assert a == b

    def test_missing_file_named(self, tmp_path):
        write_corpus(spec(), 4, 0, tmp_path / "c")
        (tmp_path / "c" / "masks" / "msk_00002.pgm").unlink()
        with pytest.raises(DataError, match="msk_00002"):
            read_corpus(tmp_path / "c")

    @pytest.mark.parametrize("tamper", [lambda raw: raw[:-1] + bytes([raw[-1] ^ 0xFF]),
                                        lambda raw: raw[:-1]], ids=["flipped", "truncated"])
    def test_tampered_file_fails_hash(self, tmp_path, tamper):
        # a truncated raster also fails to decode, but that is reported
        # only once the hash holds
        write_corpus(spec(), 4, 0, tmp_path / "d")
        target = tmp_path / "d" / "images" / "img_00001.ppm"
        target.write_bytes(tamper(target.read_bytes()))
        with pytest.raises(DataError, match="hash mismatch"):
            read_corpus(tmp_path / "d")

    def test_mask_label_beyond_classes_named(self, tmp_path):
        corpus = write_corpus(spec(), 2, 0, tmp_path / "f")
        mask = corpus.load_mask(1)
        mask[3, 5] = 9  # spec() has 8 classes
        write_pgm(corpus.root / corpus.entries[1][2], mask)
        manifest = corpus.root / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(
            corpus.content_hash, _corpus_hash([hashlib.sha256((corpus.root / rel).read_bytes())
                                               .digest() for _, *rels in corpus.entries
                                               for rel in rels])))
        with pytest.raises(DataError, match=r"msk_00001.pgm: mask value 9 at pixel \(3, 5\)"):
            read_corpus(corpus.root)

    @pytest.mark.parametrize("size", ["24x24", "100000x100000"])
    def test_manifest_size_not_the_files_is_data_error(self, tmp_path, size):
        # the files are 48x48; stacks of the stated size are either checked
        # against the first image or too large to allocate
        corpus = write_corpus(spec(), 2, 1, tmp_path / "s")
        manifest = corpus.root / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("size = 48x48", f"size = {size}"))
        with pytest.raises(DataError, match=size):
            read_corpus(corpus.root)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            read_corpus(tmp_path)

    @pytest.mark.parametrize("tail, match", [(b"train\t.\t.\n", "missing file ."),
                                             (b"\xff\n", "utf-8")])
    def test_manifest_directory_entry_or_bad_bytes_is_data_error(self, tmp_path, tail, match):
        corpus = write_corpus(spec(), 1, 0, tmp_path / "g")
        manifest = corpus.root / "manifest.txt"
        # n_train counts the extra entry, so only the tail itself is wrong
        manifest.write_bytes(manifest.read_bytes().replace(b"n_train = 1", b"n_train = 2")
                             + tail)
        with pytest.raises(DataError, match=match):
            read_corpus(corpus.root)

    def test_failed_manifest_write_keeps_previous_manifest(self, tmp_path, monkeypatch):
        root = tmp_path / "e"
        write_corpus(spec(), 4, 1, root)
        before = (root / "manifest.txt").read_bytes()
        write_bytes, write_text = Path.write_bytes, Path.write_text

        def torn(write):
            def wrapped(self, data, *args, **kwargs):
                if not self.name.startswith("manifest.txt"):
                    return write(self, data, *args, **kwargs)
                write(self, data[:len(data) // 2], *args, **kwargs)
                raise OSError("disk full")
            return wrapped

        monkeypatch.setattr(Path, "write_bytes", torn(write_bytes))
        monkeypatch.setattr(Path, "write_text", torn(write_text))
        with pytest.raises(OSError, match="disk full"):
            write_corpus(spec(), 4, 1, root)
        assert (root / "manifest.txt").read_bytes() == before
        assert sorted(p.name for p in root.iterdir()) == ["images", "manifest.txt", "masks"]
        assert len(read_corpus(root).entries) == 5

    def test_class_balance_over_large_corpus(self, tmp_path):
        # 500+ scenes: every foreground class must show up in >= 5% of its
        # pool's images; the default generator satisfies this comfortably
        s = spec(size=(24, 24))
        corpus = write_corpus(s, 500, 20, tmp_path / "big")
        counts = np.zeros(s.num_classes)
        pool_sizes = np.zeros(len(s.pools))
        for i in range(520):
            mask = corpus.load_mask(i)
            pool_sizes[i % 2] += 1
            for cls in np.unique(mask):
                counts[cls] += 1
        for g, pool in enumerate(s.pools):
            for cls in pool:
                assert counts[cls] >= 0.05 * pool_sizes[g]


class TestGoldenBytes:
    """Corpus and target bytes pinned to their values from before scene and
    target generation became whole-corpus passes (the levels-0 and 40-class
    caches: from before targets were read straight from the label grids):
    any change to a scene, a file or a target byte fails here."""

    @pytest.mark.parametrize("scene, content_hash", [
        (SceneSpec(seed=0, size=(96, 96), num_classes=8),
         "a302d8765892652c0cceb93f095083e6513dde3fb587df5ff3dc624a5beccabd"),
        (SceneSpec(seed=1, size=(32, 32), num_classes=4),
         "eb565d6b0b1f15b386e70f63651ffa7c6a06e8beb4c708c09e1086a6c783da97"),
        (SceneSpec(seed=2, size=(16, 24), num_classes=3, pools=((1, 2),), shapes_max=8),
         "fb07a3941e31db52cd886743b080b4a3357751ba6b72b87d5d524cf0bf7daf12"),
    ], ids=["desk", "check", "one-pool"])
    def test_corpus_content_hash(self, scene, content_hash, tmp_path):
        assert write_corpus(scene, 6, 2, tmp_path).content_hash == content_hash
        assert read_corpus(tmp_path).content_hash == content_hash

    @pytest.mark.parametrize("scene, model, cache_hash", [
        (SceneSpec(seed=0, size=(96, 96), num_classes=8),
         dict(low_channels=((24, 2), (48, 2)), seg_channels=(64, 64)),
         "fb371fec536c1405d285f689e95eadb160246cf9c0b82a9590ed7bf668bb9917"),
        (SceneSpec(seed=0, size=(96, 96), num_classes=8),
         dict(low_channels=((24, 2), (48, 2)), seg_channels=(64, 64), levels=0,
              window_sizes=()),
         "46010743c9529713f9d9d7ec1cd525b3b2f51d682ca5fb983ab141778786b4a3"),
        (SceneSpec(seed=3, size=(48, 48), num_classes=40),
         dict(low_channels=((8, 2), (8, 2)), seg_channels=(8, 8), window_sizes=(5, 3, 1)),
         "b9db77ad087ca8615eadc862e99f9cae2d321cba35638cdabd87fa90e0b8f17c"),
    ], ids=["desk", "levels-0", "40-class"])
    def test_gt_cache_bytes(self, scene, model, cache_hash, tmp_path):
        corpus = write_corpus(scene, 6, 2, tmp_path / "corpus")
        cfg = ModelConfig(num_classes=scene.num_classes, input_size=scene.size, **model)
        save_gt_cache(tmp_path / "gt.dmls", cfg, corpus.content_hash,
                      *prepare_targets(corpus.masks, cfg))
        assert hashlib.sha256((tmp_path / "gt.dmls").read_bytes()).hexdigest() == cache_hash
