"""Versioned binary container for named arrays.

Layout: magic "DMLS", u32 format version, length-prefixed UTF-8 header
text (a key=value config echo), then length-prefixed entries of
(name, dtype tag, 4 dims, little-endian raw values).  Used for model
checkpoints (momentum buffers under "opt/<name>") and for cached
multi-label targets.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .gt_gen import check_targets
from .model import Model, ModelConfig, build_model

MAGIC = b"DMLS"
VERSION = 1
_DTYPES = (np.dtype("<f4"), np.dtype("<f8"), np.dtype("u1"))  # stored dtype by tag


def write_atomic(path: Path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path`, then rename it over
    `path`, so a failed write leaves the previous file intact."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_container(path: Path, header: str, arrays: dict[str, np.ndarray]) -> None:
    """Serialize the container and write it atomically over `path`."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    header_bytes = header.encode("utf-8")
    blob += struct.pack("<I", len(header_bytes)) + header_bytes
    blob += struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        if arr.ndim != 4:
            raise ConfigError(f"container entries are rank-4, {name} has shape {arr.shape}")
        dt = arr.dtype.newbyteorder("<")
        if dt not in _DTYPES:
            raise ConfigError(f"unsupported dtype {arr.dtype} for entry {name}")
        name_bytes = name.encode("utf-8")
        blob += struct.pack("<I", len(name_bytes)) + name_bytes
        blob += struct.pack("<B", _DTYPES.index(dt))
        blob += struct.pack("<4I", *arr.shape)
        blob += np.ascontiguousarray(arr, dtype=dt).tobytes()
    write_atomic(path, bytes(blob))


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
        if tag >= len(_DTYPES):
            raise DataError(f"{path}: unknown dtype tag {tag} for {name}")
        dims = struct.unpack("<4I", take(16, f"entry {name} dims"))
        dt = _DTYPES[tag]
        raw = take(math.prod(dims) * dt.itemsize, f"entry {name}")
        arrays[name] = np.frombuffer(raw, dtype=dt).reshape(dims).copy()
    if pos != len(data):
        raise DataError(f"{path}: {len(data) - pos} unexpected bytes after the last entry")
    return header, arrays


def _model_arrays(model: Model) -> dict[str, np.ndarray]:
    """Checkpoint entry name -> the live array it saves and restores:
    parameters, then momentum buffers under "opt/<name>"."""
    arrays = {p.name: p.tensor.data for p in model.parameters()}
    arrays.update({f"opt/{p.name}": p.momentum for p in model.parameters()})
    return arrays


def save_model_checkpoint(path: Path, model: Model) -> None:
    save_container(path, model.config.to_text(), _model_arrays(model))


def load_model_checkpoint(path: Path) -> Model:
    """Rebuild a model (weights and optimizer state) from a checkpoint; a
    file that does not make a valid model is a DataError."""
    header, arrays = load_container(path)
    try:
        model = build_model(ModelConfig.from_text(header), seed=0)
        restore_model(model, arrays)
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return model


def restore_model(model: Model, arrays: dict[str, np.ndarray]) -> None:
    targets = _model_arrays(model)
    if arrays.keys() != targets.keys():
        odd = sorted(arrays.keys() ^ targets.keys())[:3]
        raise ConfigError(f"checkpoint entries missing or unexpected: {odd}")
    for key, target in targets.items():
        if arrays[key].shape != target.shape:
            raise ConfigError(f"entry {key} has shape {arrays[key].shape}, "
                              f"model expects {target.shape}")
        target[:] = arrays[key].astype(target.dtype)


# --- cached multi-label targets ----------------------------------------------

def save_gt_cache(path: Path, config: ModelConfig, corpus_hash: str,
                  grids: np.ndarray, targets: np.ndarray) -> None:
    """Persist a corpus's `prepare_targets` stacks, one entry per image and level."""
    check_targets(grids, targets, config, len(grids))
    header = config.to_text() + f"corpus_hash = {corpus_hash}\n"
    arrays: dict[str, np.ndarray] = {}
    for i in range(len(grids)):
        arrays[f"img{i:05d}/seg"] = grids[i, None, None].astype(np.uint8)
        for j in range(config.levels):
            arrays[f"img{i:05d}/lvl{j}"] = targets[i, j, None].astype(np.uint8)
    save_container(path, header, arrays)


def load_gt_cache(path: Path, config: ModelConfig, corpus_hash: str
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Targets cached for this config and corpus as `prepare_targets` makes
    them, (N, Hg, Wg) and (N, J, K, Hd, Wd) uint8; anything else is a DataError."""
    header, arrays = load_container(path)
    expect = config.to_text() + f"corpus_hash = {corpus_hash}\n"
    if header != expect:
        raise DataError(f"{path}: cache was built for a different config or corpus")
    shapes = {"seg": (1, 1, *config.seg_grid)}
    shapes.update({f"lvl{j}": (1, config.num_classes, *config.dml_grid)
                   for j in range(config.levels)})
    count = len(arrays) // len(shapes)
    names = {f"img{i:05d}/{k}": shape for i in range(count) for k, shape in shapes.items()}
    if arrays.keys() != names.keys() or any(arrays[k].shape != v for k, v in names.items()):
        raise DataError(f"{path}: entries are not {count} images of {shapes}")
    for name, arr in arrays.items():
        if arr.dtype != np.uint8:
            raise DataError(f"{path}: entry {name} is {arr.dtype}, not uint8")
    grids = np.array([arrays[n] for n in names if n.endswith("/seg")], np.uint8)
    targets = np.array([arrays[n] for n in names if "/lvl" in n], np.uint8)
    grids = grids.reshape(count, *config.seg_grid)
    targets = targets.reshape(count, config.levels, config.num_classes, *config.dml_grid)
    if (targets > 1).any():
        i, j = np.argwhere(targets > 1)[0][:2]
        raise DataError(f"{path}: entry img{i:05d}/lvl{j} holds a presence value "
                        f"other than 0 or 1")
    try:
        check_targets(grids, targets, config, count)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return grids, targets
