import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dmlseg.errors import ConfigError, DataError
from dmlseg.gt_gen import (IGNORE, dilate_window, downsample_mask,
                           effective_window, multilabel_from_grid_mask)
from dmlseg.model import ModelConfig
from dmlseg.train import prepare_targets

from reference import dilate_loops, downsample_loops


def desk_config(**kw):
    defaults = dict(num_classes=4, input_size=(32, 32),
                    low_channels=((8, 2), (8, 2)), seg_channels=(8, 8),
                    dml_extra_stride=2, window_sizes=(5, 3, 1), levels=3)
    defaults.update(kw)
    return ModelConfig(**defaults)


def one_hot(labels, num_classes):
    """(..., H, W) labels -> (..., K, H, W) {0,1} planes; a label outside
    0..K-1, IGNORE included, is in no plane."""
    return (labels[..., None, :, :] == np.arange(num_classes)[:, None, None]).astype(np.uint8)


def random_labels(rng, shape, num_classes, density):
    """Labels below `num_classes` on about a `density` share of the pixels,
    IGNORE on the rest."""
    labels = rng.integers(0, num_classes, size=shape).astype(np.uint8)
    labels[rng.random(shape) >= density] = IGNORE
    return labels


def one_level(labels, window, stride, num_classes):
    """`dilate_window`'s one level for a single window."""
    return dilate_window(labels, (window,), stride, num_classes)[..., 0, :, :, :]


class TestOneHot:
    """Window 1 at stride 1 is the one-hot of the labels."""

    def test_two_class_checkerboard(self):
        mask = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        stack = one_level(mask, 1, 1, 2)
        assert stack[0].tolist() == [[1, 0], [0, 1]]
        assert stack[1].tolist() == [[0, 1], [1, 0]]

    def test_all_ignore_is_zero(self):
        mask = np.full((3, 3), IGNORE, dtype=np.uint8)
        assert np.all(one_level(mask, 1, 1, 5) == 0)

    def test_channels_partition_valid_pixels(self):
        rng = np.random.default_rng(0)
        mask = rng.integers(0, 6, size=(10, 10)).astype(np.uint8)
        mask[rng.random((10, 10)) < 0.2] = IGNORE
        stack = one_level(mask, 1, 1, 6)
        sums = stack.sum(axis=0)
        assert np.array_equal(sums, (mask != IGNORE).astype(np.uint8))

    def test_labels_beyond_classes_in_no_channel(self):
        mask = np.array([[0, 1, 2, 7], [IGNORE, 1, 200, 0]], dtype=np.uint8)
        stack = one_level(mask, 1, 1, 2)
        assert stack.tolist() == [[[1, 0, 0, 0], [0, 0, 0, 1]],
                                  [[0, 1, 0, 0], [0, 1, 0, 0]]]

    @pytest.mark.parametrize("windows", [(1,), ()], ids=["one-level", "zero-levels"])
    def test_out_of_range_names_pixel(self, windows):
        grid = np.zeros((4, 4), dtype=np.uint8)
        grid[2, 3] = 9
        cfg = SimpleNamespace(num_classes=4, dml_extra_stride=1, window_sizes=windows)
        with pytest.raises(DataError, match=r"^mask value 9 at pixel \(2, 3\) is outside 0\.\.3$"):
            multilabel_from_grid_mask(grid, cfg)


class TestDilate:
    def test_point_becomes_block(self):
        labels = np.full((9, 9), IGNORE, dtype=np.uint8)
        labels[4, 4] = 0
        out = one_level(labels, 3, 1, 1)
        expect = np.zeros((9, 9), dtype=np.uint8)
        expect[3:6, 3:6] = 1
        assert np.array_equal(out[0], expect)

    def test_window_one_stride_one_identity(self):
        rng = np.random.default_rng(1)
        labels = random_labels(rng, (8, 8), 3, 0.9)
        assert np.array_equal(one_level(labels, 1, 1, 3), one_hot(labels, 3))

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            dilate_window(np.zeros((4, 4), dtype=np.uint8), (5, 2), 1, 1)

    @pytest.mark.parametrize("shape", [(12, 12), (3, 12, 12)], ids=["grid", "stack"])
    def test_levels_equal_one_window_at_a_time(self, shape):
        # every level of one pass is the level a one-window pass makes; no
        # window gives an empty level axis
        rng = np.random.default_rng(6)
        labels = random_labels(rng, shape, 3, 0.5)
        windows = (7, 5, 3, 1)
        out = dilate_window(labels, windows, 2, 3)
        assert out.shape == (*shape[:-2], 4, 3, 6, 6)
        assert out.dtype == np.uint8 and out.flags.c_contiguous
        for j, w in enumerate(windows):
            assert np.array_equal(out[..., j, :, :, :], one_level(labels, w, 2, 3)), w
        assert dilate_window(labels, (), 2, 3).shape == (*shape[:-2], 0, 3, 6, 6)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        combos = [(w, s) for w in (1, 3, 5, 7) for s in (1, 2, 4)]
        for i in range(48):
            w, s = combos[i % len(combos)]
            labels = random_labels(rng, (16, 16), 3, 0.75)
            out = one_level(labels, w, s, 3)
            expect = dilate_loops(one_hot(labels, 3), w, s)
            assert np.array_equal(out, expect), f"window={w} stride={s}"

    def test_wide_windows_and_odd_stride_match_loop_oracle(self):
        # the desk windows (21, 9, 5 at stride 2), windows wider than the
        # mask, and an odd stride whose kept cells sit off the grid origin
        rng = np.random.default_rng(4)
        combos = [(21, 2), (9, 2), (5, 2), (31, 2), (5, 3), (9, 3), (3, 12)]
        for w, s in combos:
            labels = random_labels(rng, (24, 24), 2, 0.1)
            out = one_level(labels, w, s, 2)
            assert out.dtype == np.uint8 and out.flags.c_contiguous
            assert np.array_equal(out, dilate_loops(one_hot(labels, 2), w, s)), \
                f"window={w} stride={s}"

    def test_monotone_in_window_size(self):
        rng = np.random.default_rng(3)
        labels = random_labels(rng, (12, 12), 2, 0.4)
        prev = one_level(labels, 1, 2, 2)
        for w in (3, 5, 7):
            cur = one_level(labels, w, 2, 2)
            assert np.all(cur >= prev)
            prev = cur

    def test_constant_channel_unchanged(self):
        labels = np.zeros((8, 8), dtype=np.uint8)
        for w in (1, 3, 7):
            out = one_level(labels, w, 2, 2)
            assert np.all(out[0] == 1) and np.all(out[1] == 0)

    def test_window_covering_more_than_255_cells(self):
        labels = np.zeros((32, 32), dtype=np.uint8)
        for w, s in ((63, 1), (31, 2), (17, 4)):
            assert np.all(one_level(labels, w, s, 1) == 1), f"window={w} stride={s}"

    def test_side_of_more_than_255_cells(self):
        # class 0 on about 88 % of a 512- or 300-cell side: its prefix sums
        # pass 255
        rng = np.random.default_rng(5)
        for shape in ((2, 512), (300, 4)):
            labels = (rng.random(shape) >= 0.9).astype(np.uint8)
            labels[rng.random(shape) < 0.02] = IGNORE
            for w, s in ((3, 2), (1, 1)):
                out = one_level(labels, w, s, 2)
                expect = dilate_loops(one_hot(labels, 2), w, s)
                assert np.array_equal(out, expect), f"{shape} {w} {s}"


class TestDownsample:
    def test_majority_wins(self):
        mask = np.array([[1, 1], [1, 2]], dtype=np.uint8)
        assert downsample_mask(mask, 2, 4)[0, 0] == 1

    def test_tie_goes_to_lowest(self):
        mask = np.array([[3, 3], [1, 1]], dtype=np.uint8)
        assert downsample_mask(mask, 2, 4)[0, 0] == 1

    def test_ignore_excluded_then_all_ignore(self):
        mask = np.array([[IGNORE, IGNORE], [IGNORE, 2]], dtype=np.uint8)
        assert downsample_mask(mask, 2, 4)[0, 0] == 2
        mask = np.full((2, 2), IGNORE, dtype=np.uint8)
        assert downsample_mask(mask, 2, 4)[0, 0] == IGNORE

    def test_factor_one_identity(self):
        mask = np.arange(9, dtype=np.uint8).reshape(3, 3) % 4
        assert np.array_equal(downsample_mask(mask, 1, 4), mask)

    def test_block_of_more_than_255_votes(self):
        mask = np.full((32, 16), 3, dtype=np.uint8)
        mask[16:, :] = 1
        assert downsample_mask(mask, 16, 4).tolist() == [[3], [1]]

    @pytest.mark.parametrize("factor", [1, 2])
    def test_label_beyond_classes_rejected(self, factor):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[2, 3] = 7  # a class of an 8-class corpus, given a 4-class model
        with pytest.raises(DataError, match=r"mask value 7 at pixel \(2, 3\) is outside 0\.\.3"):
            downsample_mask(mask, factor, 4)


def targets_of(mask, cfg):
    """Per-level presence targets of one full-size mask."""
    return prepare_targets([mask], cfg)[1][0]


class TestMultilabelGt:
    def test_uniform_mask_all_levels(self):
        cfg = desk_config()
        mask = np.full((32, 32), 2, dtype=np.uint8)
        targets = targets_of(mask, cfg)
        assert len(targets) == 3
        for t in targets:
            assert t.shape == (4, 4, 4)
            assert np.all(t[2] == 1)
            assert np.all(np.delete(t, 2, axis=0) == 0)

    def test_effective_window_arithmetic(self):
        # spans stride*w pixels on the fine grid; odd variant when even
        assert effective_window(17, 4) == 67
        assert effective_window(5, 2) == 9
        assert effective_window(3, 1) == 3
        assert effective_window(5, 3) == 15

    def test_larger_window_is_superset(self):
        cfg = desk_config()
        rng = np.random.default_rng(5)
        mask = rng.integers(0, 4, size=(32, 32)).astype(np.uint8)
        big, mid, small = targets_of(mask, cfg)
        assert np.all(big >= mid)
        assert np.all(mid >= small)

    def test_consistent_with_grid_mask(self):
        # wherever the decimated mask has class k, the covering window's
        # bit is set at every level
        cfg = desk_config()
        rng = np.random.default_rng(6)
        mask = rng.integers(0, 4, size=(32, 32)).astype(np.uint8)
        grid = downsample_mask(mask, cfg.s_low, cfg.num_classes)
        targets = targets_of(mask, cfg)
        s = cfg.dml_extra_stride
        for level, wj in enumerate(cfg.window_sizes):
            eff = effective_window(wj, s)
            half = (eff - 1) // 2
            off = (s - 1) // 2
            t = targets[level]
            for y in range(grid.shape[0]):
                for x in range(grid.shape[1]):
                    k = int(grid[y, x])
                    if k == IGNORE:
                        continue
                    for r in range(t.shape[1]):
                        for c in range(t.shape[2]):
                            cy, cx = r * s + off, c * s + off
                            if abs(y - cy) <= half and abs(x - cx) <= half:
                                assert t[k, r, c] == 1

    def test_indivisible_mask_rejected(self):
        cfg = desk_config()
        with pytest.raises(ConfigError, match="divisible"):
            downsample_mask(np.zeros((30, 32), dtype=np.uint8), cfg.s_low, cfg.num_classes)

    def test_mask_of_another_size_rejected(self):
        with pytest.raises(ConfigError, match=r"mask shape \(16, 16\) is not input_size"):
            targets_of(np.zeros((16, 16), dtype=np.uint8), desk_config())


def random_masks(seed, n, num_classes, size, factor):
    """n masks of random labels; IGNORE sprinkled over pixels, and over a
    whole run of factor x factor blocks in every other mask."""
    rng = np.random.default_rng(seed)
    masks = []
    for i in range(n):
        mask = rng.integers(0, num_classes, size=size).astype(np.uint8)
        mask[rng.random(size) < rng.choice([0.0, 0.2, 0.6])] = IGNORE
        if i % 2:
            r0, r1 = sorted(rng.integers(0, size[0] // factor + 1, 2))
            c0, c1 = sorted(rng.integers(0, size[1] // factor + 1, 2))
            mask[r0 * factor:r1 * factor, c0 * factor:c1 * factor] = IGNORE
        masks.append(mask)
    return masks


def oracle_targets(grid, num_classes, windows, stride):
    """Per-level presence targets of one decimated mask, by the loop oracle."""
    return [dilate_loops(one_hot(grid, num_classes), effective_window(w, stride), stride)
            for w in windows]


def assert_same_array(got, expect):
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.flags.c_contiguous
    assert np.array_equal(got, expect)


class TestWholeStack:
    """A stack of masks gives, mask by mask, what the loop oracles give."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), num_classes=st.integers(2, 5),
           factor=st.sampled_from([1, 2, 4]), stride=st.sampled_from([1, 2, 3]),
           cells=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           windows=st.lists(st.integers(0, 5).map(lambda k: 2 * k + 1), min_size=1, max_size=3))
    def test_stack_functions(self, seed, n, num_classes, factor, stride, cells, windows):
        # windows of up to 11 DML cells, wider than a grid of 1 to 4
        grid_size = (cells[0] * stride, cells[1] * stride)
        size = (grid_size[0] * factor, grid_size[1] * factor)
        masks = random_masks(seed, n, num_classes, size, factor)
        grids = downsample_mask(np.stack(masks), factor, num_classes)
        cfg = SimpleNamespace(num_classes=num_classes, dml_extra_stride=stride,
                              window_sizes=tuple(windows))
        levels = multilabel_from_grid_mask(grids, cfg)
        assert levels.shape == (n, len(windows), num_classes, *cells)
        for i, mask in enumerate(masks):
            grid = downsample_loops(mask, factor, num_classes)
            assert_same_array(grids[i], grid)
            for got, expect in zip(levels[i], oracle_targets(grid, num_classes, windows, stride)):
                assert_same_array(got, expect)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), num_classes=st.integers(2, 5),
           factor=st.sampled_from([1, 2, 4]), stride=st.sampled_from([1, 2, 4]),
           cells=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           picks=st.lists(st.integers(0, 3), max_size=3, unique=True),
           bad=st.one_of(st.none(), st.integers(0, 5)))
    @example(seed=0, n=3, num_classes=3, factor=2, stride=2, cells=(2, 2), picks=[], bad=None)
    def test_prepare_targets(self, seed, n, num_classes, factor, stride, cells, picks, bad):
        # the widest window a ModelConfig takes spans its DML grid from any
        # cell; no window left is a config of zero levels
        windows = sorted((2 * k + 1 for k in picks if 2 * k + 1 <= 2 * max(cells) + 1),
                         reverse=True)
        cfg = ModelConfig(num_classes=num_classes,
                          input_size=(cells[0] * stride * factor, cells[1] * stride * factor),
                          low_channels=((4, factor),), seg_channels=(4, 4),
                          dml_extra_stride=stride, window_sizes=windows, levels=len(windows))
        masks = random_masks(seed, n, num_classes, cfg.input_size, factor)
        if bad is not None:
            k = bad % n
            masks[k][-1, bad % cfg.input_size[1]] = num_classes + bad
            with pytest.raises(DataError) as alone:
                downsample_mask(masks[k], factor, num_classes)
            with pytest.raises(DataError) as stacked:
                prepare_targets(masks, cfg)
            assert str(stacked.value) == str(alone.value)
            return
        grids, targets = prepare_targets(masks, cfg)
        assert grids.shape == (n, *cfg.seg_grid)
        assert targets.shape == (n, len(windows), num_classes, *cfg.dml_grid)
        for mask, grid, levels in zip(masks, grids, targets):
            expect = downsample_loops(mask, factor, num_classes)
            assert_same_array(grid, expect)
            assert len(levels) == len(windows)
            for got, want in zip(levels, oracle_targets(expect, num_classes, windows, stride)):
                assert_same_array(got, want)

    @pytest.mark.parametrize("n, levels", [(0, 3), (0, 0), (2, 0)])
    def test_zero_sizes(self, n, levels):
        # no masks, no levels or both: the same two stacks, one axis empty
        cfg = desk_config(levels=levels)
        grids, targets = prepare_targets(random_masks(8, n, 4, (32, 32), 4), cfg)
        assert grids.shape == (n, 8, 8) and grids.dtype == np.uint8
        assert targets.shape == (n, levels, 4, 4, 4) and targets.dtype == np.uint8

    def test_peak_memory_follows_returned_bytes(self):
        # at 255 classes the targets dwarf the grids; a corpus-sized copy of
        # every class plane would peak at about 2.7x what is returned
        masks = random_masks(7, 100, 255, (32, 32), 4)
        tracemalloc.start()
        try:
            grids, targets = prepare_targets(masks, desk_config(num_classes=255))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(g.nbytes for g in grids) + sum(t.nbytes for ts in targets for t in ts)
        assert peak <= 1.5 * returned, f"peak {peak} B for {returned} B returned"
