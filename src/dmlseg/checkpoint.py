"""Versioned binary container for named arrays.

Layout: magic "DMLS", u32 format version, length-prefixed UTF-8 header
text (a key=value config echo), then length-prefixed entries of
(name, dtype tag, 4 dims, little-endian raw values).  Used for model
checkpoints (momentum buffers under "opt/<name>") and for cached
multi-label targets.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .model import Model, ModelConfig, build_model

MAGIC = b"DMLS"
VERSION = 1
_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
_TAG_FOR_KIND = {"f4": 0, "f8": 1, "u1": 2}


def save_container(path: Path, header: str, arrays: dict[str, np.ndarray]) -> None:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    header_bytes = header.encode("utf-8")
    blob += struct.pack("<I", len(header_bytes)) + header_bytes
    blob += struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        if arr.ndim != 4:
            raise ConfigError(f"container entries are rank-4, {name} has shape {arr.shape}")
        kind = {("f", 4): "f4", ("f", 8): "f8", ("u", 1): "u1"}.get(
            (arr.dtype.kind, arr.dtype.itemsize))
        if kind is None:
            raise ConfigError(f"unsupported dtype {arr.dtype} for entry {name}")
        name_bytes = name.encode("utf-8")
        blob += struct.pack("<I", len(name_bytes)) + name_bytes
        blob += struct.pack("<B", _TAG_FOR_KIND[kind])
        blob += struct.pack("<4I", *arr.shape)
        blob += np.ascontiguousarray(arr, dtype=f"<{kind}").tobytes()
    Path(path).write_bytes(bytes(blob))


def load_container(path: Path) -> tuple[str, dict[str, np.ndarray]]:
    """Parse a container; any malformed, truncated or over-long file is a
    DataError naming the path."""
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise DataError(f"{path}: not a DMLS container")
    pos = 4

    def take(nbytes: int, what: str) -> bytes:
        nonlocal pos
        if pos + nbytes > len(data):
            raise DataError(f"{path}: truncated {what} at byte {pos}")
        pos += nbytes
        return data[pos - nbytes:pos]

    def text(nbytes: int, what: str) -> str:
        try:
            return take(nbytes, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {what} is not UTF-8: {exc}") from None

    (version,) = struct.unpack("<I", take(4, "version"))
    if version != VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    (hlen,) = struct.unpack("<I", take(4, "header length"))
    header = text(hlen, "header")
    (count,) = struct.unpack("<I", take(4, "entry count"))
    arrays: dict[str, np.ndarray] = {}
    for i in range(count):
        (nlen,) = struct.unpack("<I", take(4, f"entry {i} name length"))
        name = text(nlen, f"entry {i} name")
        (tag,) = struct.unpack("<B", take(1, f"entry {name} dtype tag"))
        if tag not in _DTYPE_TAGS:
            raise DataError(f"{path}: unknown dtype tag {tag} for {name}")
        dims = struct.unpack("<4I", take(16, f"entry {name} dims"))
        dt = _DTYPE_TAGS[tag]
        raw = take(math.prod(dims) * dt.itemsize, f"entry {name}")
        arrays[name] = np.frombuffer(raw, dtype=dt).reshape(dims).copy()
    if pos != len(data):
        raise DataError(f"{path}: {len(data) - pos} unexpected bytes after the last entry")
    return header, arrays


def save_model_checkpoint(path: Path, model: Model) -> None:
    arrays: dict[str, np.ndarray] = {}
    for p in model.parameters():
        arrays[p.name] = p.tensor.data
    for p in model.parameters():
        arrays[f"opt/{p.name}"] = p.momentum
    save_container(path, model.config.to_text(), arrays)


def load_model_checkpoint(path: Path) -> Model:
    """Rebuild a model (weights and optimizer state) from a checkpoint."""
    header, arrays = load_container(path)
    config = ModelConfig.from_text(header)
    model = build_model(config, seed=0)
    restore_model(model, arrays, path=path)
    return model


def restore_model(model: Model, arrays: dict[str, np.ndarray], path: Path = "") -> None:
    for p in model.parameters():
        for key, target in ((p.name, p.tensor.data), (f"opt/{p.name}", p.momentum)):
            if key not in arrays:
                raise ConfigError(f"{path}: checkpoint is missing entry {key}")
            arr = arrays[key]
            if arr.shape != target.shape:
                raise ConfigError(f"{path}: entry {key} has shape {arr.shape}, "
                                  f"model expects {target.shape}")
            target[:] = arr.astype(target.dtype)
    extra = set(arrays) - {p.name for p in model.parameters()} \
        - {f"opt/{p.name}" for p in model.parameters()}
    if extra:
        raise ConfigError(f"{path}: unexpected checkpoint entries {sorted(extra)[:3]}")


# --- cached multi-label targets ----------------------------------------------

def save_gt_cache(path: Path, config: ModelConfig, corpus_hash: str,
                  grids: list[np.ndarray], targets: list[list[np.ndarray]]) -> None:
    """Persist decimated masks and per-level presence targets for a corpus."""
    header = config.to_text() + f"corpus_hash = {corpus_hash}\n"
    arrays: dict[str, np.ndarray] = {}
    for i, (grid, levels) in enumerate(zip(grids, targets)):
        arrays[f"img{i:05d}/seg"] = grid[None, None].astype(np.uint8)
        for j, t in enumerate(levels):
            arrays[f"img{i:05d}/lvl{j}"] = t[None].astype(np.uint8)
    save_container(path, header, arrays)


def load_gt_cache(path: Path, config: ModelConfig, corpus_hash: str
                  ) -> tuple[list[np.ndarray], list[list[np.ndarray]]]:
    header, arrays = load_container(path)
    expect = config.to_text() + f"corpus_hash = {corpus_hash}\n"
    if header != expect:
        raise DataError(f"{path}: cache was built for a different config or corpus")
    grids = []
    targets = []
    i = 0
    while f"img{i:05d}/seg" in arrays:
        grids.append(arrays[f"img{i:05d}/seg"][0, 0])
        levels = []
        for j in range(config.levels):
            levels.append(arrays[f"img{i:05d}/lvl{j}"][0])
        targets.append(levels)
        i += 1
    return grids, targets
