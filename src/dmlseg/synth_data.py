"""Synthetic scenes with class co-occurrence structure.

Foreground classes are partitioned into pools; every image draws all its
shapes from a single pool.  Classes of equal rank in different pools share
a base color on purpose: a local patch cannot tell them apart, only the
surrounding scene can, which is exactly the signal windowed multi-label
supervision can exploit.
"""

from __future__ import annotations

import colorsys
import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import write_atomic
from .errors import ConfigError, DataError
from .gt_gen import IGNORE, check_labels
from .kv import KvConfig, parse_kv

MANIFEST_FORMAT = "dmlseg-corpus-v1"


def default_pools(num_classes: int) -> tuple[tuple[int, ...], ...]:
    """Split foreground classes 1..K-1 into two scene pools, or one when
    there is a single foreground class."""
    classes = tuple(range(1, num_classes))
    half = len(classes) // 2
    return tuple(p for p in (classes[:half], classes[half:]) if p)


@dataclass(frozen=True)
class SceneSpec(KvConfig):
    seed: int
    size: tuple[int, int] = (96, 96)
    num_classes: int = 8
    pools: tuple[tuple[int, ...], ...] = None
    shapes_min: int = 3
    shapes_max: int = 6
    jitter: float = 0.08
    noise: float = 0.03

    def __post_init__(self):
        object.__setattr__(self, "size", tuple(self.size))
        if not 2 <= self.num_classes <= IGNORE:  # uint8 labels; 255 is IGNORE
            raise ConfigError(f"num_classes must be 2..{IGNORE}, got {self.num_classes}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.pools is None:
            object.__setattr__(self, "pools", default_pools(self.num_classes))
        object.__setattr__(self, "pools", tuple(tuple(sorted(p)) for p in self.pools))
        if not all(self.pools):
            raise ConfigError(f"every pool must hold a class, got {self.pools}")
        flat = [c for pool in self.pools for c in pool]
        if sorted(flat) != list(range(1, self.num_classes)):
            raise ConfigError(f"pools {self.pools} must partition 1..{self.num_classes - 1}")
        if not (0 <= self.shapes_min <= self.shapes_max):
            raise ConfigError(f"bad shape count range [{self.shapes_min}, {self.shapes_max}]")
        if min(self.size) < 1:
            raise ConfigError(f"scene size must be positive, got {self.size}")
        for name in ("jitter", "noise"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class SplitCounts(KvConfig):
    """The train and val scene counts gen-data writes and a manifest states."""
    n_train: int = 500
    n_val: int = 100

    def __post_init__(self):
        if min(self.n_train, self.n_val) < 0:
            raise ConfigError(f"scene counts must be non-negative, "
                              f"got {self.n_train} and {self.n_val}")


def class_colors(spec: SceneSpec) -> np.ndarray:
    """(K, 3) base colors; same-rank classes across pools share a color."""
    colors = np.zeros((spec.num_classes, 3))
    colors[0] = (0.45, 0.45, 0.45)
    n_hues = max(len(p) for p in spec.pools)
    for pool in spec.pools:
        for rank, cls in enumerate(pool):
            colors[cls] = colorsys.hsv_to_rgb(rank / n_hues, 0.55, 0.75)
    return colors


def palette(num_classes: int) -> np.ndarray:
    """(K, 3) distinct display colors for rendering predicted label maps."""
    colors = np.zeros((num_classes, 3))
    colors[0] = (0.45, 0.45, 0.45)
    for c in range(1, num_classes):
        colors[c] = colorsys.hsv_to_rgb((c - 1) / max(num_classes - 1, 1), 0.8, 0.9)
    return colors


def _box(y0: float, y1: float, x0: float, x1: float, h: int, w: int):
    """The pixels from (y0, x0) to (y1, x1), padded by one and clipped to
    an h x w image: its (rows, cols) slices, and its row and column indices
    as a column and a row that broadcast to the box."""
    rows = slice(max(math.floor(y0) - 1, 0), min(math.ceil(y1) + 2, h))
    cols = slice(max(math.floor(x0) - 1, 0), min(math.ceil(x1) + 2, w))
    return ((rows, cols), np.arange(rows.start, rows.stop)[:, None],
            np.arange(cols.start, cols.stop))


def _render(spec: SceneSpec, index: int, colors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scene `index` as a (3, H, W) uint8 image and an (H, W) uint8 mask;
    `colors` is class_colors(spec)."""
    h, w = spec.size
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, index]))
    pool = spec.pools[index % len(spec.pools)]

    image = np.empty((3, h, w))
    image[:] = colors[0][:, None, None]
    mask = np.zeros((h, w), dtype=np.uint8)

    n_shapes = int(rng.integers(spec.shapes_min, spec.shapes_max + 1))
    for _ in range(n_shapes):
        cls = int(rng.choice(pool))
        kind = int(rng.integers(0, 3))
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        radius = rng.uniform(0.12, 0.30) * min(h, w)
        # a region is tested only inside its shape's box, which holds
        # every pixel the test can pass
        if kind == 0:  # rectangle
            ry = radius * rng.uniform(0.6, 1.4)
            rx = radius * rng.uniform(0.6, 1.4)
            box, ys, xs = _box(cy - ry, cy + ry, cx - rx, cx + rx, h, w)
            region = (np.abs(ys - cy) <= ry) & (np.abs(xs - cx) <= rx)
        elif kind == 1:  # disk
            box, ys, xs = _box(cy - radius, cy + radius, cx - radius, cx + radius, h, w)
            region = (ys - cy) ** 2 + (xs - cx) ** 2 <= radius ** 2
        else:  # triangle from three vertices on a circle
            theta = rng.uniform(0, 2 * np.pi)
            vs = [(cy + 1.4 * radius * np.sin(theta + k * 2 * np.pi / 3),
                   cx + 1.4 * radius * np.cos(theta + k * 2 * np.pi / 3))
                  for k in range(3)]
            vy, vx = zip(*vs)
            box, ys, xs = _box(min(vy), max(vy), min(vx), max(vx), h, w)
            region = True
            for (ay, ax), (by, bx) in zip(vs, vs[1:] + vs[:1]):
                cross = (bx - ax) * (ys - ay) - (by - ay) * (xs - ax)
                region = region & (cross >= 0)
        color = np.clip(colors[cls] + rng.normal(0, spec.jitter, 3), 0, 1)
        np.copyto(image[:, box[0], box[1]], color[:, None, None], where=region)
        np.copyto(mask[box], cls, where=region)

    image += rng.normal(0, spec.noise, (h, w, 3)).transpose(2, 0, 1)
    np.clip(image, 0, 1, out=image)
    image *= 255
    return np.rint(image, out=image).astype(np.uint8), mask


def generate_scene(spec: SceneSpec, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (image, mask) pair for one scene index.

    image is (3, H, W) float32 on the 1/255 grid so disk round trips are
    exact; mask is (H, W) uint8 class indices.
    """
    image, mask = _render(spec, index, class_colors(spec))
    return image.astype(np.float32) / 255.0, mask


# --- netpbm (binary PPM/PGM) -------------------------------------------------

def _pnm_bytes(magic: str, raster: np.ndarray) -> bytes:
    """A binary netpbm file of an (H, W) or (H, W, 3) raster of bytes."""
    h, w = raster.shape[:2]
    return (f"{magic}\n{w} {h}\n255\n".encode()
            + np.ascontiguousarray(raster, dtype=np.uint8).tobytes())


def write_ppm(path: Path, image: np.ndarray) -> None:
    """image is (3, H, W) float in [0, 1] on the 1/255 grid."""
    write_atomic(path, _pnm_bytes("P6", np.rint(image * 255).astype(np.uint8).transpose(1, 2, 0)))


def write_pgm(path: Path, mask: np.ndarray) -> None:
    write_atomic(path, _pnm_bytes("P5", mask))


def _read_pnm(path: Path, magic: bytes) -> np.ndarray:
    return _parse_pnm(path, magic, Path(path).read_bytes())


def _parse_pnm(name: Path, magic: bytes, data: bytes) -> np.ndarray:
    """Parse the bytes of netpbm file `name`, which names it in errors."""
    if not data.startswith(magic):
        raise DataError(f"{name}: expected {magic.decode()} netpbm file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        try:
            fields.append(int(data[start:pos]))
        except ValueError as exc:
            raise DataError(f"{name}: malformed netpbm header") from exc
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise DataError(f"{name}: netpbm size {w}x{h} is not positive")
    if maxval != 255:
        raise DataError(f"{name}: only maxval 255 supported, got {maxval}")
    channels = 3 if magic == b"P6" else 1
    raster = data[pos:pos + w * h * channels]
    if len(raster) != w * h * channels:
        raise DataError(f"{name}: truncated raster")
    arr = np.frombuffer(raster, dtype=np.uint8)
    return arr.reshape(h, w, 3) if channels == 3 else arr.reshape(h, w)


def read_ppm(path: Path) -> np.ndarray:
    """-> (3, H, W) float32 in [0, 1]."""
    u8 = _read_pnm(path, b"P6")
    return (u8.astype(np.float32) / 255.0).transpose(2, 0, 1)


def read_pgm(path: Path) -> np.ndarray:
    return _read_pnm(path, b"P5").copy()


# --- corpus ------------------------------------------------------------------

@dataclass
class Corpus:
    """A corpus as read once: its manifest's entries and every file's
    pixels, held as two read-only uint8 stacks that nothing reads again."""
    root: Path
    spec: SceneSpec
    entries: list[tuple[str, str, str]]  # (split, image rel path, mask rel path)
    content_hash: str
    images: np.ndarray  # (N, 3, H, W) uint8
    masks: np.ndarray  # (N, H, W) uint8

    def __post_init__(self):
        self.images.setflags(write=False)
        self.masks.setflags(write=False)

    def indices(self, split: str) -> list[int]:
        return [i for i, (s, _, _) in enumerate(self.entries) if s == split]

    def load_image(self, i: int) -> np.ndarray:
        """(3, H, W) float32 in [0, 1], as `read_ppm` gives of the file."""
        return self.images[i].astype(np.float32) / 255.0

    def load_mask(self, i: int) -> np.ndarray:
        """(H, W) uint8 labels, a copy the caller may write."""
        return self.masks[i].copy()


def _stacks(n: int, size: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Empty (n, 3, H, W) image and (n, H, W) mask stacks of uint8; stacks
    too large to allocate are a ConfigError."""
    try:
        return np.empty((n, 3, *size), np.uint8), np.empty((n, *size), np.uint8)
    except MemoryError as exc:
        raise ConfigError(f"{n} scenes of size {size[0]}x{size[1]} do not fit "
                          f"in memory") from exc


def _corpus_hash(digests: list[bytes]) -> str:
    """sha256 over the sha256 digest of each file's bytes, taken in manifest
    order: every entry's image, then its mask."""
    return hashlib.sha256(b"".join(digests)).hexdigest()


def write_corpus(spec: SceneSpec, n_train: int, n_val: int, out_dir: Path) -> Corpus:
    """Generate scenes, write PPM/PGM pairs and a hashed manifest.

    With 500+ scenes a class-balance check runs: every foreground class
    must appear in at least 5% of its pool's images.
    """
    counts = SplitCounts(n_train, n_val)
    root = Path(out_dir)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(parents=True, exist_ok=True)
    entries = []
    appearance = np.zeros(spec.num_classes, dtype=np.int64)
    pool_images = np.zeros(len(spec.pools), dtype=np.int64)
    colors = class_colors(spec)
    digests = []
    images, masks = _stacks(n_train + n_val, spec.size)
    for i in range(n_train + n_val):
        image, mask = _render(spec, i, colors)
        images[i], masks[i] = image, mask
        img_rel = f"images/img_{i:05d}.ppm"
        msk_rel = f"masks/msk_{i:05d}.pgm"
        for rel, data in ((img_rel, _pnm_bytes("P6", image.transpose(1, 2, 0))),
                          (msk_rel, _pnm_bytes("P5", mask))):
            write_atomic(root / rel, data)
            digests.append(hashlib.sha256(data).digest())
        entries.append(("train" if i < n_train else "val", img_rel, msk_rel))
        pool_images[i % len(spec.pools)] += 1
        appearance += np.bincount(mask.ravel(), minlength=spec.num_classes) > 0

    content_hash = _corpus_hash(digests)
    total = n_train + n_val
    if total >= 500:
        for g, pool in enumerate(spec.pools):
            for cls in pool:
                if appearance[cls] < 0.05 * pool_images[g]:
                    raise DataError(
                        f"class {cls} appears in {appearance[cls]} of "
                        f"{pool_images[g]} pool-{g} images (< 5%); "
                        f"regenerate with a different seed")

    text = (f"format = {MANIFEST_FORMAT}\n{spec.to_text()}{counts.to_text()}"
            f"hash = {content_hash}\n"
            + "".join(f"{split}\t{img}\t{msk}\n" for split, img, msk in entries))
    write_atomic(root / "manifest.txt", text.encode("utf-8"))
    return Corpus(root=root, spec=spec, entries=entries, content_hash=content_hash,
                  images=images, masks=masks)


def read_corpus(dir_path: Path) -> Corpus:
    """Parse and verify a corpus directory against its manifest hash."""
    root = Path(dir_path)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise DataError(f"no manifest.txt in {root}")
    try:
        text = manifest.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{manifest}: {exc}") from exc
    kv_lines = []  # an entry leaves its line blank, so line numbers hold
    entries = []
    for raw in text.splitlines():
        if raw.strip() and "\t" in raw:
            parts = raw.split("\t")
            if len(parts) != 3:
                raise DataError(f"bad manifest file entry {raw!r}")
            entries.append((parts[0], parts[1], parts[2]))
            raw = ""
        kv_lines.append(raw)
    try:
        kv = parse_kv("\n".join(kv_lines))
        if kv.get("format") != MANIFEST_FORMAT:
            raise ConfigError(f"unknown corpus format {kv.get('format')!r}")
        if missing := [k for k in (*SceneSpec.keys(), *SplitCounts.keys()) if k not in kv]:
            raise ConfigError(f"missing key {', '.join(missing)}")
        spec = SceneSpec.from_kv(kv)
        counts = SplitCounts.from_kv(kv)
        splits = Counter(split for split, _, _ in entries)
        if other := sorted(splits.keys() - {"train", "val"}):
            raise ConfigError(f"entry split {other[0]!r} is neither 'train' nor 'val'")
        if (splits["train"], splits["val"]) != (counts.n_train, counts.n_val):
            raise ConfigError(f"n_train = {counts.n_train} and n_val = {counts.n_val}, but "
                              f"the entries hold {splits['train']} and {splits['val']}")
        images, masks = _stacks(len(entries), spec.size)
    except ConfigError as exc:
        raise DataError(f"{manifest}: {exc}") from exc
    for _, img, msk in entries:
        for rel in (img, msk):
            if not (root / rel).is_file():
                raise DataError(f"manifest lists missing file {rel}")
    digests = []
    fault = None  # the first bad file, reported only once the hash holds
    for i, (_, img, msk) in enumerate(entries):
        for rel, magic, out in ((img, b"P6", images[i]), (msk, b"P5", masks[i])):
            data = (root / rel).read_bytes()
            digests.append(hashlib.sha256(data).digest())
            if fault is None:
                try:
                    _decode(root, rel, magic, data, out, spec.num_classes)
                except DataError as exc:
                    fault = exc
    got = _corpus_hash(digests)
    if got != kv.get("hash"):
        raise DataError(f"corpus hash mismatch: manifest {kv.get('hash')}, files {got}")
    if fault:
        raise fault
    return Corpus(root=root, spec=spec, entries=entries, content_hash=got,
                  images=images, masks=masks)


def _decode(root: Path, rel: str, magic: bytes, data: bytes, out: np.ndarray,
            num_classes: int) -> None:
    """Parse corpus file `rel`, whose bytes are `data`, into `out`: an image's
    (3, H, W) or a mask's (H, W) row of a corpus stack.  A malformed file, a
    raster that is not the manifest's H x W, or a mask label outside the
    spec's classes is a DataError naming the file."""
    raster = _parse_pnm(root / rel, magic, data)
    if raster.shape[:2] != out.shape[-2:]:
        (h, w), (size_h, size_w) = raster.shape[:2], out.shape[-2:]
        raise DataError(f"{root / rel}: raster is {h}x{w}, "
                        f"but the manifest's size is {size_h}x{size_w}")
    out[...] = raster.transpose(2, 0, 1) if out.ndim == 3 else raster
    if out.ndim == 2:
        try:
            check_labels(out, num_classes)
        except DataError as exc:
            raise DataError(f"{rel}: {exc}") from exc
