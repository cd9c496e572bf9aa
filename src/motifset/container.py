"""The one binary file format (checkpoints, dataset cache) and atomic writes.

Layout, integers little-endian::

    magic (8 bytes) | u32 version | u32 n | n bytes of JSON metadata
    | per section: u64 n | n raw bytes
    | SHA-256 of every byte before it (32 bytes)

The reader checks the magic and version, then bounds every framed length
by the file's size before the caller allocates anything.  It streams each
section straight into the caller's array, hashing as it reads, and checks
the digest before the caller's block ends, so any damaged byte raises the
caller's error class before the caller returns anything.  Every file
is written to ``<path>.tmp`` and renamed over ``path`` once complete, so a
killed process never leaves a half-written file under the final name.
There is no fsync: a power cut may still lose the latest write.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct

import numpy as np

_HEAD = struct.Struct("<II")  # version, metadata length
_SECTION = struct.Struct("<Q")
_DIGEST_SIZE = hashlib.sha256().digest_size


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open ``<path>.tmp`` for writing; rename it to ``path`` on success.

    On an exception the temporary file is removed and ``path`` kept as is.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_container(path, magic: bytes, version: int, meta: dict, sections):
    """Write ``meta`` and the ``sections``, in order, to ``path``.

    NumPy arrays and scalars in ``meta`` are stored as JSON lists and
    numbers.  Sections are bytes-like objects (bytes, C-contiguous arrays);
    each is hashed and written as it comes, so the payload is never copied.
    """
    digest = hashlib.sha256()
    meta_bytes = json.dumps(meta, sort_keys=True,
                            default=lambda value: value.tolist()).encode()
    with atomic_open(path, "wb") as f:
        def put(*chunks):
            for chunk in chunks:
                digest.update(chunk)
                f.write(chunk)

        put(magic, _HEAD.pack(version, len(meta_bytes)), meta_bytes)
        for section in sections:
            put(_SECTION.pack(memoryview(section).nbytes), section)
        f.write(digest.digest())


@contextlib.contextmanager
def read_container(path, magic: bytes, version: int, error):
    """Stream a container's sections into the caller's arrays.

    Yields ``(meta, sizes, read)``: the metadata, every section's framed
    byte length, and ``read(into=None)``, which reads the next section in
    order and returns it: straight into ``into`` (a C-contiguous array of
    exactly that many bytes), or as fresh ``bytes``.  When the block
    exits normally every section must have been read and the digest must
    match, so a damaged file raises before the caller returns anything.

    Raises ``error``, a :class:`~motifset.errors.DataError` subclass, for a
    short file, another magic or version, framing or metadata that does not
    parse, an array of the wrong size, or a checksum mismatch.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        def take(n: int, into=None):
            """The next ``n`` bytes, hashed, as fresh bytes or in ``into``."""
            if into is None:
                into = view = f.read(n)
                got = len(view)
            else:
                view = into.reshape(-1).view(np.uint8)
                got = f.readinto(view)
            if got != n:
                raise error(f"{path}: file ended while it was being read")
            digest.update(view)
            return into

        end = os.fstat(f.fileno()).st_size - _DIGEST_SIZE
        head = len(magic) + _HEAD.size
        if end < head:
            raise error(f"{path}: {end + _DIGEST_SIZE} bytes is shorter "
                        f"than the header")
        raw = take(head)
        if raw[:len(magic)] != magic:
            raise error(f"{path}: bad magic {raw[:len(magic)]!r}, "
                        f"expected {magic!r}")
        found, meta_len = _HEAD.unpack_from(raw, len(magic))
        if found != version:
            raise error(f"{path}: unsupported version {found} (this program "
                        f"reads version {version}); regenerate the file")
        # walk the framing first, so that every length is bounded by the
        # file's size before anything the file asks for is allocated
        pos, sizes = head + meta_len, []
        while pos + _SECTION.size <= end:
            f.seek(pos)
            (size,) = _SECTION.unpack(f.read(_SECTION.size))
            pos += _SECTION.size + size
            sizes.append(size)
        if pos != end:
            raise error(f"{path}: metadata and sections do not fill the file")
        f.seek(head)
        try:
            meta = json.loads(take(meta_len))
        except ValueError as exc:
            raise error(f"{path}: unreadable metadata") from exc
        if not isinstance(meta, dict):
            raise error(f"{path}: metadata is not a JSON object")

        unread = iter(sizes)

        def read(into=None):
            size = next(unread, None)
            if size is None:
                raise error(f"{path}: holds only {len(sizes)} sections")
            take(_SECTION.size)
            if into is not None and not (into.flags.c_contiguous
                                         and into.nbytes == size):
                raise error(f"{path}: a section of {size} bytes does not "
                            f"fit a {into.shape} {into.dtype} array")
            return take(size, into)

        yield meta, sizes, read
        if next(unread, None) is not None:
            raise error(f"{path}: holds more than the sections read")
        if f.read() != digest.digest():
            raise error(f"{path}: checksum mismatch (corrupt or truncated)")
