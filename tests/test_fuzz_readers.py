"""Property tests of the file readers: whatever bytes a PPM, PGM or DMLS
container holds, reading it either succeeds or raises DataError, never any
other exception.  Each reader gets random bytes, random bytes behind its
magic, and truncated, byte-edited and over-long copies of a valid file."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmlseg.checkpoint import load_container, save_container
from dmlseg.errors import DataError
from dmlseg.synth_data import read_pgm, read_ppm, write_pgm, write_ppm

READERS = {"ppm": (read_ppm, b"P6"), "pgm": (read_pgm, b"P5"), "dmls": (load_container, b"DMLS")}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A directory holding one small valid file per reader."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    write_ppm(root / "valid.ppm", rng.integers(0, 256, size=(3, 4, 5)) / 255.0)
    write_pgm(root / "valid.pgm", rng.integers(0, 256, size=(4, 5)))
    save_container(root / "valid.dmls", "key = value\n", {
        "w": rng.normal(size=(2, 1, 3, 3)).astype(np.float32),
        "m": rng.integers(0, 256, size=(1, 1, 2, 2)).astype(np.uint8)})
    return root


def _edit(valid: bytes, edits) -> bytes:
    blob = bytearray(valid)
    for pos, value in edits:
        blob[pos % len(blob)] = value
    return bytes(blob)


def _variants(valid: bytes, magic: bytes):
    return st.one_of(
        st.binary(max_size=256),
        st.binary(max_size=256).map(lambda tail: magic + tail),
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)),
                 min_size=1, max_size=8).map(lambda edits: _edit(valid, edits)),
        st.binary(min_size=1, max_size=32).map(lambda tail: valid + tail),
    )


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_reader_raises_only_data_error(kind, data, valid_files):
    reader, magic = READERS[kind]
    valid = (valid_files / f"valid.{kind}").read_bytes()
    path = valid_files / f"fuzz.{kind}"
    path.write_bytes(data.draw(_variants(valid, magic), label="file bytes"))
    try:
        reader(path)
    except DataError:
        pass


@pytest.mark.parametrize("kind", sorted(READERS))
def test_valid_seed_file_reads(kind, valid_files):
    reader, _ = READERS[kind]
    reader(valid_files / f"valid.{kind}")
