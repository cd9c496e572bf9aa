"""The one binary file format (checkpoints, dataset cache) and atomic writes.

Layout, integers little-endian::

    magic (8 bytes) | u32 version | u32 n | n bytes of JSON metadata
    | per section: u64 n | n raw bytes
    | SHA-256 of every byte before it (32 bytes)

The reader checks the size, magic, version and digest before it parses
anything, so any damaged byte raises the caller's error class.  Every file
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


def read_container(path, magic: bytes, version: int, error):
    """``(meta, sections)`` of a container; sections are read-only views.

    Raises ``error``, a :class:`~motifset.errors.DataError` subclass, for a
    short file, another magic or version, a checksum mismatch, or framing
    or metadata that does not parse.
    """
    with open(path, "rb") as f:
        raw = f.read()
    head = len(magic) + _HEAD.size
    if len(raw) < head + _DIGEST_SIZE:
        raise error(f"{path}: {len(raw)} bytes is shorter than the header")
    if raw[:len(magic)] != magic:
        raise error(f"{path}: bad magic {raw[:len(magic)]!r}, "
                    f"expected {magic!r}")
    found, meta_len = _HEAD.unpack_from(raw, len(magic))
    if found != version:
        raise error(f"{path}: unsupported version {found} (this program "
                    f"reads version {version}); regenerate the file")
    body = memoryview(raw)[:-_DIGEST_SIZE]
    if hashlib.sha256(body).digest() != raw[-_DIGEST_SIZE:]:
        raise error(f"{path}: checksum mismatch (corrupt or truncated)")

    pos, sections = head + meta_len, []
    while pos + _SECTION.size <= len(body):
        (size,) = _SECTION.unpack_from(body, pos)
        pos += _SECTION.size + size
        sections.append(body[pos - size:pos])
    if pos != len(body):
        raise error(f"{path}: metadata and sections do not fill the file")
    try:
        meta = json.loads(bytes(body[head:head + meta_len]))
    except ValueError as exc:
        raise error(f"{path}: unreadable metadata") from exc
    if not isinstance(meta, dict):
        raise error(f"{path}: metadata is not a JSON object")
    return meta, sections
