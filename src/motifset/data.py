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
chunks, each inflated and scaled into [0, 1] straight into its float64
split before the next is read.  Standardization is fit on the training
split only and scales both splits in place, a block of rows at a time,
so ingestion holds no second copy of a split; a row limit that drops rows
copies the rows it keeps, so the full split can be freed.
"""
from __future__ import annotations

import csv
import gzip
import math
import os
import struct
import zlib
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
# classes of every IDX dataset (the MNIST family)
IDX_CLASSES = 10

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
# bytes of IDX pixels read and scaled at a time
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
    :class:`CountMismatchError` for an array that is not 2-D or when the
    splits disagree on a count, and :class:`NonNumericError`, naming the
    split and the first column, for a NaN or infinite cell.
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
        for name, a in vars(self).items():
            if a.ndim != 2:
                raise CountMismatchError(
                    f"{name} must be 2-D, got shape {a.shape}")
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
        for name, a in vars(self).items():
            # a finite sum proves every cell finite, and the reduce
            # allocates nothing; a sum that overflows from finite cells
            # finds no column below
            with np.errstate(all="ignore"):
                total = np.add.reduce(a, axis=None)
            if not np.isfinite(total):
                bad = ~np.isfinite(a)
                if bad.any():
                    j = np.flatnonzero(bad.any(axis=0))[0]
                    i = np.flatnonzero(bad[:, j])[0]
                    kind = "feature" if name[0] == "x" else "target"
                    raise NonNumericError(
                        f"{name[2:]}: {kind} column {j} holds {a[i, j]} at "
                        f"row {i}, not a finite number")


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


def _read_to_end(f, path, what: str):
    """Read a gzip file ``f`` on past ``what`` to its end, dropping the
    bytes, so gzip checks the CRC-32 and length trailer of every member; a
    raw file is left as it is.  TruncatedFileError when the stream ends
    before a trailer, DataError when a check fails or the data after
    ``what`` is not gzip."""
    if not isinstance(f, gzip.GzipFile):
        return
    try:
        while f.read(_DECODE_CHUNK):
            pass
    except EOFError as exc:
        raise TruncatedFileError(
            f"{path}: compressed data ends after the {what}, before its "
            f"gzip trailer"
        ) from exc
    except (gzip.BadGzipFile, zlib.error) as exc:
        raise DataError(
            f"{path}: gzip check failed after the {what}: {exc}"
        ) from exc


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


def _read_idx_pair(images_path, labels_path):
    """``(images, labels)`` of an IDX pair: the images as ``(n, rows *
    cols)`` float64 rows scaled into [0, 1] by :func:`_read_scaled`, and
    the labels as ``(n,)`` uint8.

    The image payload's size is checked against the file before it is
    read, and the counts of both files must agree.  A gzipped file is read
    on to its end after its payload, so its trailer is checked
    (:func:`_read_to_end`).  Raises :class:`MagicNumberError`,
    :class:`TruncatedFileError`, :class:`CountMismatchError`, or
    :class:`DataError` on a failed gzip check or a payload too large for
    memory.
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
        x = _read_scaled(images, n, rows * cols, images_path)
        _read_to_end(images, images_path, "image data")
        label_bytes = _read_exact(labels, n, labels_path, "label data")
        _read_to_end(labels, labels_path, "label data")
        return x, np.frombuffer(label_bytes, dtype=np.uint8)


def _read_scaled(f, n: int, size: int, path) -> np.ndarray:
    """The next ``n`` images of ``size`` bytes in ``f`` as ``(n, size)``
    float64 rows scaled by :func:`normalize_01`.

    The bytes are read ``_DECODE_CHUNK`` at a time, in file order, and each
    chunk is scaled straight into the result before the next is read, so
    one chunk of the byte payload is held at a time.
    """
    try:
        out = np.empty((n, size))
    except MemoryError as exc:  # a gzip file may declare 1032x its size
        raise DataError(
            f"{path}: header declares {n} images of {size} bytes, more "
            f"than memory can hold"
        ) from exc
    flat = out.reshape(-1)
    for start in range(0, flat.size, _DECODE_CHUNK):
        chunk = np.frombuffer(
            _read_exact(f, min(_DECODE_CHUNK, flat.size - start), path,
                        "image data"), dtype=np.uint8)
        normalize_01(chunk, out=flat[start:start + chunk.size])
    return out


def write_idx(images_path, labels_path, images: np.ndarray,
              labels: np.ndarray):
    """Write ``(n, rows, cols)`` images and ``(n,)`` labels as uint8 IDX
    files, gzipped when a path ends in ``.gz``, as :func:`build_idx_dataset`
    reads them."""
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


def _standardize_in_place(train: np.ndarray, test: np.ndarray) -> dict:
    """Scale float64 ``train`` and ``test`` in place to zero mean and unit
    variance fit on ``train`` only; return the applied ``mean`` and ``std``.

    The arithmetic is numpy's ``std`` step by step, so the results are bit
    for bit those of ``(x - mean) / np.maximum(train.std(0), 1e-8)``, and a
    constant feature maps to zero.  The training rows are centred, squared
    and summed ``_STD_BLOCK_ROWS`` at a time while the block is in cache, so
    no train-sized temporary is made.  Row 0 of ``squares`` carries each
    column's running sum of squares into the next block's sum, which keeps
    numpy's row-by-row order.  A matrix of one column is one block: numpy
    sums a single column pairwise, not row by row.

    Raises :class:`DataError` naming the first column whose mean or spread
    is not finite, or whose scaled test values are not, in float64.
    """
    n, d = train.shape
    with np.errstate(all="ignore"):
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
    # a mean that is not finite makes the spread not finite too
    bad = np.flatnonzero(~np.isfinite(std))
    if bad.size:
        j = bad[0]
        raise DataError(f"feature column {j} overflows float64 when "
                        f"standardized (mean {mean[j]}, spread {std[j]})")
    np.maximum(std, _STD_FLOOR, out=std)
    try:
        # centred training values are within sqrt(n) spreads, so only the
        # test split can overflow
        with np.errstate(all="ignore", over="raise"):
            train /= std
            test -= mean
            test /= std
    except FloatingPointError:
        j = np.flatnonzero(~np.isfinite(test).all(axis=0))[0]
        raise DataError(f"test feature column {j} overflows float64 when "
                        f"standardized (mean {mean[j]}, spread {std[j]})"
                        ) from None
    return {"mean": mean, "std": std}


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
                      apply_standardize: bool = True) -> Dataset:
    """IDX pair pipeline: load the train pair, then the test pair, scaled
    to [0, 1], and optionally standardize."""
    x_tr, lab_tr = _read_idx_pair(train_images, train_labels)
    x_te, lab_te = _read_idx_pair(test_images, test_labels)
    # Dataset refuses an empty train split, which has no moments, before
    # it is standardized
    dataset = Dataset(x_tr, one_hot(lab_tr, IDX_CLASSES), x_te,
                      one_hot(lab_te, IDX_CLASSES))
    if apply_standardize:
        _standardize_in_place(dataset.x_train, dataset.x_test)
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
    free the full split.  When neither limit drops a row, ``dataset``
    itself is returned, so it is not checked again.
    """
    def drops(a: np.ndarray, limit: int) -> bool:
        return 0 < limit < len(a)

    if not (drops(dataset.x_train, train_limit)
            or drops(dataset.x_test, test_limit)):
        return dataset

    def head(a: np.ndarray, limit: int) -> np.ndarray:
        return a[:limit].copy() if drops(a, limit) else a

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
            # a string or list would make the product below repeat it
            if not all(isinstance(n, int) for shape in shapes for n in shape):
                raise ValueError("a stored shape holds a non-integer")
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
