"""Dataset ingestion, preprocessing, and a checksummed binary cache.

Supported sources:

* IDX image/label file pairs (the MNIST-family container: big-endian
  header, raw byte payload), transparently gunzipped when the path ends in
  ``.gz``.
* Labeled CSV with one sample per row, numeric features, and a label
  column that may hold numbers or strings (mapped to class ids in sorted
  order).  A non-numeric first row is treated as a header and skipped.

Preprocessing is recorded step by step on the returned :class:`Dataset`
so a run manifest can state exactly what was applied.  Standardization is
always fit on the training split only.
"""
from __future__ import annotations

import csv
import gzip
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import read_container, write_container
from .errors import (
    CorruptCacheError,
    CountMismatchError,
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

CACHE_MAGIC = b"MSETDATA"
CACHE_VERSION = 2

_STD_FLOOR = 1e-8


@dataclass
class PreprocessingStep:
    """One applied transform and the parameters needed to reproduce it."""

    name: str
    params: dict = field(default_factory=dict)


@dataclass
class Dataset:
    """A ready-to-train dataset with one-hot targets.

    ``x_*`` are float64 matrices, ``y_*`` one-hot float64 matrices with
    ``n_classes`` columns.  ``preprocessing`` lists the applied transforms
    in order.
    """

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    n_features: int
    n_classes: int
    preprocessing: list[PreprocessingStep] = field(default_factory=list)

    def __post_init__(self):
        for name, x, y in (("train", self.x_train, self.y_train),
                           ("test", self.x_test, self.y_test)):
            if x.shape[0] != y.shape[0]:
                raise ValueError(
                    f"{name}: {x.shape[0]} samples but {y.shape[0]} targets"
                )
            if x.shape[1] != self.n_features:
                raise ValueError(
                    f"{name}: {x.shape[1]} features, expected {self.n_features}"
                )
            if y.shape[1] != self.n_classes:
                raise ValueError(
                    f"{name}: {y.shape[1]} classes, expected {self.n_classes}"
                )


# --------------------------------------------------------------------------
# IDX


def _open_maybe_gzip(path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(f, count: int, path, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise TruncatedFileError(
            f"{path}: expected {count} bytes of {what}, got {len(data)}"
        )
    return data


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Load an IDX image/label pair as ``(images, labels)``.

    Images come back flattened to ``(n, rows * cols)`` uint8, labels as
    ``(n,)`` uint8.  Raises :class:`MagicNumberError`,
    :class:`TruncatedFileError`, or :class:`CountMismatchError` on the
    corresponding defects.
    """
    with _open_maybe_gzip(images_path) as f:
        header = _read_exact(f, 16, images_path, "image header")
        magic, n, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGE_MAGIC:
            raise MagicNumberError(
                f"{images_path}: magic 0x{magic:08x}, expected "
                f"0x{IDX_IMAGE_MAGIC:08x}"
            )
        payload = _read_exact(f, n * rows * cols, images_path, "pixel data")
    images = np.frombuffer(payload, dtype=np.uint8).reshape(n, rows * cols)

    with _open_maybe_gzip(labels_path) as f:
        header = _read_exact(f, 8, labels_path, "label header")
        magic, n_labels = struct.unpack(">II", header)
        if magic != IDX_LABEL_MAGIC:
            raise MagicNumberError(
                f"{labels_path}: magic 0x{magic:08x}, expected "
                f"0x{IDX_LABEL_MAGIC:08x}"
            )
        label_bytes = _read_exact(f, n_labels, labels_path, "label data")
    labels = np.frombuffer(label_bytes, dtype=np.uint8)

    if n != n_labels:
        raise CountMismatchError(
            f"{images_path} holds {n} images but {labels_path} holds "
            f"{n_labels} labels"
        )
    return images, labels


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
    String labels are mapped to ``0..K-1`` in sorted order; numeric labels
    are sorted numerically.  The first row is dropped as a header when any
    of its feature cells fails to parse as a number.
    """
    with open(path, "r", newline="") as f:
        rows = [row for row in csv.reader(f) if row]
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
    if any(_try_float(c) is None for c in feature_cells):
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
            if value is None:
                raise NonNumericError(
                    f"{path}: row {i}, column {j}: {cell!r} is not numeric"
                )
            features[i, k] = value
            k += 1

    numeric = [_try_float(lbl) for lbl in raw_labels]
    if all(v is not None for v in numeric):
        classes = sorted(set(numeric))
        mapping = {v: idx for idx, v in enumerate(classes)}
        labels = np.array([mapping[v] for v in numeric], dtype=np.int64)
    else:
        classes = sorted(set(raw_labels))
        mapping = {v: idx for idx, v in enumerate(classes)}
        labels = np.array([mapping[v] for v in raw_labels], dtype=np.int64)
    return features, labels


# --------------------------------------------------------------------------
# transforms


def normalize_01(x: np.ndarray) -> np.ndarray:
    """Map byte-range pixel values into [0, 1] as float64."""
    return np.asarray(x, dtype=np.float64) / 255.0


def standardize(train: np.ndarray, test: np.ndarray | None = None):
    """Zero-mean unit-variance scaling fit on the training matrix only.

    Per-feature mean and population standard deviation (floored at 1e-8 so
    constant features map to zero instead of dividing by zero) come from
    ``train``; the same affine map is applied to ``test``.  Returns
    ``(train_out, test_out, params)`` with ``params`` holding the applied
    ``mean`` and ``std``.
    """
    train = np.asarray(train, dtype=np.float64)
    mean = train.mean(axis=0)
    std = np.maximum(train.std(axis=0), _STD_FLOOR)
    train_out = (train - mean) / std
    test_out = None
    if test is not None:
        test_out = (np.asarray(test, dtype=np.float64) - mean) / std
    return train_out, test_out, {"mean": mean, "std": std}


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
    if y.shape[0] != n:
        raise ValueError(f"{n} samples but {y.shape[0]} labels")
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
    """IDX pair pipeline: load, scale to [0, 1], optionally standardize."""
    x_tr, lab_tr = load_idx(train_images, train_labels)
    x_te, lab_te = load_idx(test_images, test_labels)
    if x_tr.shape[1] != x_te.shape[1]:
        raise CountMismatchError(
            f"train images have {x_tr.shape[1]} pixels, test images "
            f"{x_te.shape[1]}"
        )
    steps = [PreprocessingStep("normalize_01", {"divisor": 255.0})]
    x_tr = normalize_01(x_tr)
    x_te = normalize_01(x_te)
    if apply_standardize:
        x_tr, x_te, params = standardize(x_tr, x_te)
        steps.append(PreprocessingStep("standardize", params))
    y_tr = one_hot(lab_tr, n_classes)
    y_te = one_hot(lab_te, n_classes)
    return Dataset(x_tr, y_tr, x_te, y_te, x_tr.shape[1], n_classes, steps)


def build_csv_dataset(path, label_column: int = -1,
                      test_fraction: float = 1.0 / 3.0, seed: int = 0,
                      apply_standardize: bool = True) -> Dataset:
    """Labeled-CSV pipeline: load, split, standardize on train, one-hot."""
    features, labels = load_labeled_csv(path, label_column)
    n_classes = int(labels.max()) + 1 if labels.size else 0
    y = one_hot(labels, n_classes)
    x_tr, y_tr, x_te, y_te = split(features, y, test_fraction, seed)
    steps = [PreprocessingStep(
        "split", {"test_fraction": test_fraction, "seed": seed})]
    if apply_standardize:
        x_tr, x_te, params = standardize(x_tr, x_te)
        steps.append(PreprocessingStep("standardize", params))
    return Dataset(x_tr, y_tr, x_te, y_te, features.shape[1], n_classes,
                   steps)


def limit_dataset(dataset: Dataset, train_limit: int = 0,
                  test_limit: int = 0) -> Dataset:
    """Keep only the first N train/test rows (0 means keep all)."""
    if train_limit <= 0 and test_limit <= 0:
        return dataset
    x_tr, y_tr = dataset.x_train, dataset.y_train
    x_te, y_te = dataset.x_test, dataset.y_test
    steps = list(dataset.preprocessing)
    if train_limit > 0:
        x_tr, y_tr = x_tr[:train_limit], y_tr[:train_limit]
    if test_limit > 0:
        x_te, y_te = x_te[:test_limit], y_te[:test_limit]
    steps.append(PreprocessingStep(
        "limit", {"train_limit": train_limit, "test_limit": test_limit}))
    return Dataset(x_tr, y_tr, x_te, y_te, dataset.n_features,
                   dataset.n_classes, steps)


# --------------------------------------------------------------------------
# binary cache


def save_dataset_cache(dataset: Dataset, path):
    """Write a dataset to a :mod:`motifset.container` file.

    Magic ``MSETDATA``, version 2.  The JSON metadata holds the feature and
    class counts, the preprocessing steps and the shapes of the four
    matrices, which follow as float64 little-endian sections.
    """
    matrices = (dataset.x_train, dataset.y_train, dataset.x_test,
                dataset.y_test)
    meta = {
        "n_features": dataset.n_features,
        "n_classes": dataset.n_classes,
        "preprocessing": [{"name": s.name, "params": s.params}
                          for s in dataset.preprocessing],
        "shapes": [list(a.shape) for a in matrices],
    }
    write_container(path, CACHE_MAGIC, CACHE_VERSION, meta,
                    (np.ascontiguousarray(a, dtype="<f8") for a in matrices))


def load_dataset_cache(path) -> Dataset:
    """Read a cache container back; any damage raises CorruptCacheError."""
    meta, sections = read_container(path, CACHE_MAGIC, CACHE_VERSION,
                                    CorruptCacheError)
    try:
        x_tr, y_tr, x_te, y_te = (
            np.frombuffer(section, dtype="<f8").reshape(shape).copy()
            for section, shape in zip(sections, meta["shapes"], strict=True))
        steps = [
            PreprocessingStep(
                s["name"],
                {k: (np.asarray(v, dtype=np.float64)
                     if isinstance(v, list) else v)
                 for k, v in s["params"].items()})
            for s in meta.get("preprocessing", [])
        ]
        return Dataset(x_tr, y_tr, x_te, y_te, int(meta["n_features"]),
                       int(meta["n_classes"]), steps)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCacheError(f"{path}: malformed cache: {exc}") from exc
