"""Dataset ingestion, preprocessing, and a checksummed binary cache.

Supported sources:

* IDX image/label file pairs (the MNIST-family container: big-endian
  header, raw byte payload), transparently gunzipped when the path ends in
  ``.gz``.  One reader and one writer serve both files of a pair;
  :func:`find_idx_files` finds the four standard files in a directory.
* Labeled CSV with one sample per row, numeric features, and a label
  column that may hold numbers or strings (mapped to class ids in sorted
  order).  A first row none of whose feature cells is a number is treated
  as a header and skipped.

Every source ends in a :class:`Dataset` of four arrays, whose shapes give
the feature and class counts; it rejects an empty split, zero feature
columns, or splits that disagree on a count.  IDX pixels are read in
chunks and scaled into [0, 1] straight into each float64 split: the
calling thread inflates the next chunk while a worker thread scales the
last, and the worker then loads the test pair while the calling thread
fits the train moments.  Standardization is fit on the training split
only and scales both splits in place, a block of rows at a time, so
ingestion holds no second copy of a split; a row limit that drops rows
copies the rows it keeps, so the full split can be freed.
"""
from __future__ import annotations

import csv
import functools
import gzip
import math
import os
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import read_container, write_container
from .errors import (
    CorruptCacheError,
    CountMismatchError,
    DataError,
    EmptyFileError,
    MagicNumberError,
    NonNumericError,
    OutOfRangeError,
    RaggedRowError,
    TooFewSamplesError,
    TruncatedFileError,
)

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
_IMAGE_HEAD = struct.Struct(">IIII")  # magic, count, rows, cols
_LABEL_HEAD = struct.Struct(">II")  # magic, count

IDX_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

CACHE_MAGIC = b"MSETDATA"
CACHE_VERSION = 2

# deflate expands data at most 1032-fold, which bounds what a gzip file holds
_DEFLATE_MAX_RATIO = 1032
# bytes of IDX pixels read at a time: one chunk is scaled while the next
# one is inflated
_DECODE_CHUNK = 1 << 18

_STD_FLOOR = 1e-8
# training rows centred and squared per block when summing the variance, so
# that a block and its squares stay in cache
_STD_BLOCK_ROWS = 64


@dataclass
class Dataset:
    """A ready-to-train dataset with one-hot targets.

    ``x_*`` are float64 matrices, ``y_*`` one-hot float64 matrices.  Raises
    :class:`EmptyFileError` for zero feature columns,
    :class:`TooFewSamplesError` for an empty split, and
    :class:`CountMismatchError` when the splits disagree on a count.
    """

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    @property
    def n_features(self) -> int:
        return self.x_train.shape[1]

    @property
    def n_classes(self) -> int:
        return self.y_train.shape[1]

    def __post_init__(self):
        if self.n_features == 0:
            raise EmptyFileError("the data has no feature columns")
        for name, x, y in (("train", self.x_train, self.y_train),
                           ("test", self.x_test, self.y_test)):
            if x.shape[0] == 0:
                raise TooFewSamplesError(f"{name}: no samples")
            if x.shape[0] != y.shape[0]:
                raise CountMismatchError(
                    f"{name}: {x.shape[0]} samples but {y.shape[0]} targets"
                )
            if (x.shape[1], y.shape[1]) != (self.n_features, self.n_classes):
                raise CountMismatchError(
                    f"{name}: {x.shape[1]} features and {y.shape[1]} classes,"
                    f" train has {self.n_features} and {self.n_classes}"
                )


# --------------------------------------------------------------------------
# IDX


def _open_maybe_gzip(path, mode: str):
    """Open ``path`` in binary ``mode``, through gzip when it ends in .gz."""
    if Path(path).suffix == ".gz":
        return gzip.open(path, mode)
    return open(path, mode)


def _check_room(f, count: int, path, what: str):
    """TruncatedFileError when ``f`` cannot hold ``count`` bytes of
    ``what``; checked before anything that size is allocated."""
    room = os.fstat(f.fileno()).st_size
    if isinstance(f, gzip.GzipFile):
        room *= _DEFLATE_MAX_RATIO
    if count > room:
        raise TruncatedFileError(
            f"{path}: header declares {count} bytes of {what}, more than "
            f"the file can hold"
        )


def _read_exact(f, count: int, path, what: str) -> bytes:
    """The next ``count`` bytes of ``f``, read at once; TruncatedFileError
    when the file cannot hold them, ends first or has damaged gzip data,
    and DataError when a buffer of ``count`` bytes cannot be allocated."""
    _check_room(f, count, path, what)
    try:
        data = f.read(count)
    except EOFError as exc:  # gzip stream cut short
        raise TruncatedFileError(
            f"{path}: compressed data ends inside the {what}"
        ) from exc
    except zlib.error as exc:
        raise TruncatedFileError(
            f"{path}: compressed data is damaged inside the {what}: {exc}"
        ) from exc
    except MemoryError as exc:  # a gzip file may declare 1032x its size
        raise DataError(
            f"{path}: header declares {count} bytes of {what}, more than "
            f"memory can hold"
        ) from exc
    if len(data) != count:
        raise TruncatedFileError(
            f"{path}: expected {count} bytes of {what}, got {len(data)}"
        )
    return data


def _read_header(f, header_struct: struct.Struct, magic: int, path,
                 what: str) -> tuple[int, list[int]]:
    """``(count, dims)`` from the IDX header at the start of ``f``, which
    ``header_struct`` unpacks to the magic, the item count and each item's
    dimensions."""
    found, count, *dims = header_struct.unpack(
        _read_exact(f, header_struct.size, path, f"{what} header"))
    if found != magic:
        raise MagicNumberError(
            f"{path}: magic 0x{found:08x}, expected 0x{magic:08x}"
        )
    return count, dims


def _read_idx_pair(images_path, labels_path, read_images):
    """``(read_images(f, n, size, images_path), labels)`` of an IDX pair,
    where ``read_images`` reads the ``n`` images of ``size`` bytes that
    follow the header of the open image file ``f``.

    The image payload's size is checked against the file before
    ``read_images`` runs, and the counts of both files must agree.
    Raises :class:`MagicNumberError`, :class:`TruncatedFileError`, or
    :class:`CountMismatchError` on the corresponding defects.
    """
    with (_open_maybe_gzip(images_path, "rb") as images,
          _open_maybe_gzip(labels_path, "rb") as labels):
        n, (rows, cols) = _read_header(images, _IMAGE_HEAD, IDX_IMAGE_MAGIC,
                                       images_path, "image")
        _check_room(images, n * rows * cols, images_path, "image data")
        n_labels, _ = _read_header(labels, _LABEL_HEAD, IDX_LABEL_MAGIC,
                                   labels_path, "label")
        if n != n_labels:
            raise CountMismatchError(
                f"{images_path} holds {n} images but {labels_path} holds "
                f"{n_labels} labels"
            )
        return (read_images(images, n, rows * cols, images_path),
                np.frombuffer(_read_exact(labels, n, labels_path,
                                          "label data"), dtype=np.uint8))


def _read_scaled(f, n: int, size: int, path, pool=None) -> np.ndarray:
    """The next ``n`` images of ``size`` bytes in ``f`` as ``(n, size)``
    float64 rows scaled by :func:`normalize_01`.

    The bytes are read ``_DECODE_CHUNK`` at a time, in file order, and each
    chunk is scaled straight into the result, so the byte payload is never
    held whole.  With a one-thread ``pool``, its thread scales each chunk
    while this one reads the next.  A chunk still queued when a read fails
    is scaled when the caller shuts the pool down.
    """
    try:
        out = np.empty((n, size))
    except MemoryError as exc:  # a gzip file may declare 1032x its size
        raise DataError(
            f"{path}: header declares {n} images of {size} bytes, more "
            f"than memory can hold"
        ) from exc
    flat = out.reshape(-1)
    scaling = []
    for start in range(0, flat.size, _DECODE_CHUNK):
        chunk = np.frombuffer(
            _read_exact(f, min(_DECODE_CHUNK, flat.size - start), path,
                        "image data"), dtype=np.uint8)
        target = flat[start:start + chunk.size]
        if pool is None:
            normalize_01(chunk, out=target)
            continue
        # the jobs finish in order: at most two chunks wait to be scaled,
        # so an uncompressed file, read faster than it is scaled, is not
        # piled up whole
        if len(scaling) >= 2:
            scaling[-2].result()
        scaling.append(pool.submit(normalize_01, chunk, target))
    for job in scaling:
        job.result()
    return out


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Load an IDX image/label pair as ``(images, labels)``.

    Images come back flattened to ``(n, rows * cols)`` uint8, labels as
    ``(n,)`` uint8.  Raises :class:`MagicNumberError`,
    :class:`TruncatedFileError`, or :class:`CountMismatchError` on the
    corresponding defects.
    """
    def read_bytes(f, n: int, size: int, path) -> np.ndarray:
        return np.frombuffer(_read_exact(f, n * size, path, "image data"),
                             dtype=np.uint8).reshape(n, size)

    return _read_idx_pair(images_path, labels_path, read_bytes)


def write_idx(images_path, labels_path, images: np.ndarray,
              labels: np.ndarray):
    """Write ``(n, rows, cols)`` images and ``(n,)`` labels as uint8 IDX
    files, gzipped when a path ends in ``.gz``; inverts :func:`load_idx`."""
    for path, head, magic, array in (
            (images_path, _IMAGE_HEAD, IDX_IMAGE_MAGIC, images),
            (labels_path, _LABEL_HEAD, IDX_LABEL_MAGIC, labels)):
        array = np.asarray(array, dtype=np.uint8)
        with _open_maybe_gzip(path, "wb") as f:
            f.write(head.pack(magic, *array.shape))
            f.write(array.tobytes())


def find_idx_files(directory) -> dict[str, Path] | None:
    """Map each :data:`IDX_FILES` field to ``directory/NAME.gz``, else to
    ``directory/NAME``; None when any of the four is missing."""
    directory, found = Path(directory), {}
    for field, name in IDX_FILES.items():
        for path in (directory / f"{name}.gz", directory / name):
            if path.is_file():
                found[field] = path
                break
        else:
            return None
    return found


# --------------------------------------------------------------------------
# CSV


def _try_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def load_labeled_csv(path, label_column: int = -1
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Load a labeled CSV as ``(features, labels)``.

    ``label_column`` indexes the label field (negative indices allowed).
    Labels are mapped to ``0..K-1`` in sorted order: numerically when every
    label is a finite number, else as strings.  The first row is dropped as
    a header only when none of its feature cells parses as a number; any
    other feature cell that is not a finite number, including one in a
    first row whose other feature cells parse, raises
    :class:`NonNumericError` naming its row and column.  Text that does not
    decode, or that the csv module refuses (such as a field over its size
    limit), raises :class:`DataError`.
    """
    try:
        with open(path, "r", newline="") as f:
            rows = [row for row in csv.reader(f) if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not readable as CSV text: {exc}") from exc
    if not rows:
        raise EmptyFileError(f"{path}: no rows")

    width = len(rows[0])
    if not -width <= label_column < width:
        raise OutOfRangeError(
            f"{path}: label column {label_column} out of range for "
            f"{width} columns"
        )
    label_idx = label_column % width

    feature_cells = [c for j, c in enumerate(rows[0]) if j != label_idx]
    if feature_cells and all(_try_float(c) is None for c in feature_cells):
        rows = rows[1:]
    if not rows:
        raise EmptyFileError(f"{path}: header only, no data rows")

    n = len(rows)
    features = np.empty((n, width - 1), dtype=np.float64)
    raw_labels = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRowError(
                f"{path}: row {i} has {len(row)} fields, expected {width}"
            )
        k = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                raw_labels.append(cell.strip())
                continue
            value = _try_float(cell)
            if value is None or not math.isfinite(value):
                raise NonNumericError(f"{path}: row {i}, column {j}: "
                                      f"{cell!r} is not a finite number")
            features[i, k] = value
            k += 1

    keys = [_try_float(lbl) for lbl in raw_labels]
    if not all(v is not None and math.isfinite(v) for v in keys):
        keys = raw_labels
    mapping = {v: idx for idx, v in enumerate(sorted(set(keys)))}
    return features, np.array([mapping[v] for v in keys], dtype=np.int64)


# --------------------------------------------------------------------------
# transforms


def normalize_01(x: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
    """Map byte-range pixel values into [0, 1] as float64, into ``out``
    when it is given, else into one new array."""
    return np.divide(x, 255.0, out=out, dtype=np.float64)


def _fit_standardize(train: np.ndarray) -> dict:
    """Scale float64 ``train`` in place to zero mean and unit variance;
    return the applied ``mean`` and ``std``.

    The arithmetic is numpy's ``std`` step by step, so the results are bit
    for bit those of ``(x - mean) / np.maximum(x.std(0), 1e-8)``, and a
    constant feature maps to zero.  The rows are centred, squared and
    summed ``_STD_BLOCK_ROWS`` at a time while the block is in cache, so no
    train-sized temporary is made.  Row 0 of ``squares`` carries each
    column's running sum of squares into the next block's sum, which keeps
    numpy's row-by-row order.  A matrix of one column is one block: numpy
    sums a single column pairwise, not row by row.
    """
    n, d = train.shape
    mean = train.mean(axis=0)
    rows = n if d == 1 else min(n, _STD_BLOCK_ROWS)
    squares = np.empty((rows + 1, d))
    for lo in range(0, n, rows):
        block = train[lo:lo + rows]
        block -= mean
        np.square(block, out=squares[1:len(block) + 1])
        # the first block has no running sum to add
        np.add.reduce(squares[(lo == 0):len(block) + 1], axis=0,
                      out=squares[0])
    std = squares[0] / n
    np.sqrt(std, out=std)
    np.maximum(std, _STD_FLOOR, out=std)
    train /= std
    return {"mean": mean, "std": std}


def _standardize_in_place(train: np.ndarray, test: np.ndarray) -> dict:
    """Scale float64 ``train`` and ``test`` in place to zero mean and unit
    variance fit on ``train`` only, by :func:`_fit_standardize`; return the
    applied ``mean`` and ``std``."""
    params = _fit_standardize(train)
    _apply_standardize(test, params)
    return params


def _apply_standardize(x: np.ndarray, params: dict):
    """Scale ``x`` in place by the ``mean`` and ``std`` fit on a train
    split."""
    x -= params["mean"]
    x /= params["std"]


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Integer labels to one-hot float64 rows; validates the index range."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        bad = labels[(labels < 0) | (labels >= n_classes)][0]
        raise OutOfRangeError(
            f"label {bad} outside [0, {n_classes})"
        )
    out = np.zeros((labels.shape[0], n_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def split(x: np.ndarray, y: np.ndarray, test_fraction: float, seed: int = 0):
    """Random train/test partition; the test side gets ``floor(n * f)`` rows.

    A seeded permutation is drawn and its first ``floor(n * f)`` indices
    become the test set.  Raises :class:`TooFewSamplesError` when either
    side would be empty.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(
            f"test_fraction must be in (0, 1), got {test_fraction}"
        )
    n = x.shape[0]
    k = int(np.floor(n * test_fraction))
    if k < 1 or n - k < 1:
        raise TooFewSamplesError(
            f"cannot split {n} samples with test fraction {test_fraction}: "
            f"test side would hold {k}"
        )
    perm = np.random.default_rng(seed).permutation(n)
    test_idx, train_idx = perm[:k], perm[k:]
    return x[train_idx], y[train_idx], x[test_idx], y[test_idx]


# --------------------------------------------------------------------------
# pipelines


def build_idx_dataset(train_images, train_labels, test_images, test_labels,
                      n_classes: int = 10, apply_standardize: bool = True
                      ) -> Dataset:
    """IDX pair pipeline: load, scale to [0, 1], optionally standardize.

    One worker thread, which lives only for this call, scales each chunk
    of train images into the train split while this thread inflates the
    next; the worker then loads the test pair while this thread fits the
    train moments.
    """
    with ThreadPoolExecutor(max_workers=1) as pool:
        x_tr, lab_tr = _read_idx_pair(
            train_images, train_labels,
            functools.partial(_read_scaled, pool=pool))
        test = pool.submit(_read_idx_pair, test_images, test_labels,
                           _read_scaled)
        # an empty train split has no moments; Dataset refuses it below
        params = (_fit_standardize(x_tr)
                  if apply_standardize and len(x_tr) else None)
        x_te, lab_te = test.result()
    dataset = Dataset(x_tr, one_hot(lab_tr, n_classes), x_te,
                      one_hot(lab_te, n_classes))
    if params is not None:
        _apply_standardize(dataset.x_test, params)
    return dataset


def build_csv_dataset(path, label_column: int = -1,
                      test_fraction: float = 1.0 / 3.0, seed: int = 0,
                      apply_standardize: bool = True) -> Dataset:
    """Labeled-CSV pipeline: load, split, standardize on train, one-hot."""
    features, labels = load_labeled_csv(path, label_column)
    # split's fancy indexing copies the rows, so the loaded matrix can go
    x_tr, y_tr, x_te, y_te = split(features,
                                   one_hot(labels, int(labels.max()) + 1),
                                   test_fraction, seed)
    del features
    if apply_standardize:
        _standardize_in_place(x_tr, x_te)
    return Dataset(x_tr, y_tr, x_te, y_te)


def limit_dataset(dataset: Dataset, train_limit: int = 0,
                  test_limit: int = 0) -> Dataset:
    """Keep only the first N train/test rows (0 means keep all).

    A limit that drops rows copies the rows it keeps, so the caller can
    free the full split; one that keeps every row copies nothing.
    """
    def head(a: np.ndarray, limit: int) -> np.ndarray:
        rows = a[:limit if limit > 0 else None]
        return rows.copy() if len(rows) < len(a) else rows

    return Dataset(head(dataset.x_train, train_limit),
                   head(dataset.y_train, train_limit),
                   head(dataset.x_test, test_limit),
                   head(dataset.y_test, test_limit))


# --------------------------------------------------------------------------
# binary cache


def save_dataset_cache(dataset: Dataset, path):
    """Write a dataset to a :mod:`motifset.container` file.

    Magic ``MSETDATA``, version 2.  The JSON metadata holds the feature and
    class counts and the shapes of the four matrices, which follow as
    float64 little-endian sections.
    """
    matrices = (dataset.x_train, dataset.y_train, dataset.x_test,
                dataset.y_test)
    meta = {
        "n_features": dataset.n_features,
        "n_classes": dataset.n_classes,
        "shapes": [list(a.shape) for a in matrices],
    }
    write_container(path, CACHE_MAGIC, CACHE_VERSION, meta,
                    (np.ascontiguousarray(a, dtype="<f8") for a in matrices))


def load_dataset_cache(path) -> Dataset:
    """Read a cache container back; any damage raises CorruptCacheError,
    stored feature and class counts that disagree with the shapes included.

    Other metadata keys, such as older caches' ``preprocessing``, are ignored.
    """
    try:
        with read_container(path, CACHE_MAGIC, CACHE_VERSION,
                            CorruptCacheError) as (meta, sizes, read):
            # the file's own size bounds every matrix: check it before one
            # is allocated
            shapes = [tuple(shape) for shape in meta["shapes"]]
            if sizes != [8 * math.prod(shape) for shape in shapes]:
                raise ValueError("sections do not match the stored shapes")
            matrices = [read(np.empty(shape)) for shape in shapes]
        dataset = Dataset(*matrices)
        if [meta["n_features"], meta["n_classes"]] != [dataset.n_features,
                                                       dataset.n_classes]:
            raise ValueError("stored feature and class counts disagree with "
                             "the array shapes")
    except (KeyError, TypeError, ValueError, IndexError,
            CountMismatchError) as exc:
        raise CorruptCacheError(f"{path}: malformed cache: {exc}") from exc
    return dataset
