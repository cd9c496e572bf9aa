"""The container reader: sections streamed into arrays, checked on exit."""
import struct

import numpy as np
import pytest

from motifset.container import read_container, write_container
from motifset.errors import DataError

MAGIC = b"TESTCONT"


class Damaged(DataError):
    pass


def _write(path, sections=(b"text", np.arange(6.0))):
    write_container(path, MAGIC, 1, {"n": 6}, sections)


def _open(path):
    return read_container(path, MAGIC, 1, Damaged)


def test_sections_read_as_bytes_and_into_arrays(tmp_path):
    path = tmp_path / "c.bin"
    _write(path)
    target = np.empty(6)
    with _open(path) as (meta, sizes, read):
        assert meta == {"n": 6} and sizes == [4, 48]
        assert read() == b"text"
        assert read(target) is target
    np.testing.assert_array_equal(target, np.arange(6.0))


@pytest.mark.parametrize("target", [np.empty(5), np.empty(12)[::2],
                                    np.empty((2, 3)).T],
                         ids=["short", "strided", "transposed"])
def test_array_that_does_not_fit_rejected(tmp_path, target):
    path = tmp_path / "c.bin"
    _write(path)
    with pytest.raises(Damaged, match="does not fit"):
        with _open(path) as (_, _, read):
            read()
            read(target)


def test_unread_section_rejected(tmp_path):
    path = tmp_path / "c.bin"
    _write(path)
    with pytest.raises(Damaged, match="more than the sections read"):
        with _open(path) as (_, _, read):
            read()


def test_read_past_last_section_rejected(tmp_path):
    path = tmp_path / "c.bin"
    _write(path, [b"only"])
    with pytest.raises(Damaged, match="holds only 1 sections"):
        with _open(path) as (_, _, read):
            read()
            read()


def test_digest_checked_when_the_block_ends(tmp_path):
    # a damaged payload byte is read as is, then refused on exit
    path = tmp_path / "c.bin"
    _write(path)
    raw = bytearray(path.read_bytes())
    raw[-33] ^= 0x01  # last byte of the array section
    path.write_bytes(bytes(raw))
    target = np.empty(6)
    with pytest.raises(Damaged, match="checksum mismatch"):
        with _open(path) as (_, _, read):
            read()
            read(target)
    assert target[-1] != 5.0


def test_framed_length_beyond_the_file_rejected_on_entry(tmp_path):
    # the framing is bounded by the file's size before the block runs, so
    # a length no file could hold never reaches an allocation
    path = tmp_path / "c.bin"
    _write(path, [b"abc"])
    raw = bytearray(path.read_bytes())
    at = raw.index(b"abc") - 8
    raw[at:at + 8] = struct.pack("<Q", 2**62)
    path.write_bytes(bytes(raw))
    entered = False
    with pytest.raises(Damaged, match="do not fill the file"):
        with _open(path):
            entered = True
    assert not entered


def test_caller_error_passes_through(tmp_path):
    path = tmp_path / "c.bin"
    _write(path)
    with pytest.raises(KeyError):
        with _open(path) as (meta, _, _):
            meta["missing"]
