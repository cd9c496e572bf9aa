"""Dataset ingestion: IDX parsing, CSV parsing, transforms, split, cache."""
import contextlib
import gzip
import hashlib
import io
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motifset.data
from motifset._synthetic import write_synthetic_idx_dataset
from motifset.cli import main
from motifset.config import ExperimentConfig
from motifset.container import write_container
from motifset.data import (
    CACHE_MAGIC,
    CACHE_VERSION,
    IDX_FILES,
    Dataset,
    _read_idx_pair,
    _standardize_in_place,
    build_csv_dataset,
    build_idx_dataset,
    find_idx_files,
    limit_dataset,
    load_dataset_cache,
    load_labeled_csv,
    normalize_01,
    one_hot,
    save_dataset_cache,
    split,
    write_idx,
)
from motifset.errors import (
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
from motifset.train import run_prepare

from conftest import Unwritable, damaged, json_values

SRC = Path(motifset.data.__file__).resolve().parents[1]


def _write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2, gz=False,
                    image_magic=0x00000803, label_magic=0x00000801,
                    label_count=None):
    """Hand-assemble IDX bytes so the loader is tested against raw files."""
    n = len(pixels) // (rows * cols)
    img = struct.pack(">IIII", image_magic, n, rows, cols) + bytes(pixels)
    lab = struct.pack(">II", label_magic,
                      n if label_count is None else label_count)
    lab += bytes(labels)
    suffix = ".gz" if gz else ""
    ip = tmp_path / f"images-idx3-ubyte{suffix}"
    lp = tmp_path / f"labels-idx1-ubyte{suffix}"
    opener = gzip.open if gz else open
    with opener(ip, "wb") as f:
        f.write(img)
    with opener(lp, "wb") as f:
        f.write(lab)
    return ip, lp


class TestIdx:
    def test_known_bytes_round_trip(self, tmp_path):
        pixels = [0, 255, 128, 3, 10, 20, 30, 40]
        ip, lp = _write_idx_pair(tmp_path, pixels, [7, 2])
        images, labels = _read_idx_pair(ip, lp)
        assert images.shape == (2, 4)
        assert images.dtype == np.float64
        assert images.tobytes() == (np.reshape(pixels, (2, 4))
                                    / 255.0).tobytes()
        np.testing.assert_array_equal(labels, [7, 2])

    def test_gzip_by_extension(self, tmp_path):
        pixels = list(range(8))
        ip, lp = _write_idx_pair(tmp_path, pixels, [1, 0], gz=True)
        images, labels = _read_idx_pair(ip, lp)
        assert images.tobytes() == (np.array(pixels) / 255.0).tobytes()

    def test_bad_image_magic(self, tmp_path):
        ip, lp = _write_idx_pair(tmp_path, [0] * 8, [1, 0],
                                 image_magic=0x00000804)
        with pytest.raises(MagicNumberError):
            _read_idx_pair(ip, lp)

    def test_bad_label_magic(self, tmp_path):
        ip, lp = _write_idx_pair(tmp_path, [0] * 8, [1, 0],
                                 label_magic=0xDEADBEEF)
        with pytest.raises(MagicNumberError):
            _read_idx_pair(ip, lp)

    @pytest.mark.parametrize("cut", ["image", "label"])
    def test_truncated_payload(self, tmp_path, cut):
        ip, lp = _write_idx_pair(tmp_path, [0] * 8, [1, 0])
        path = ip if cut == "image" else lp
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(TruncatedFileError, match=f"bytes of {cut} data"):
            _read_idx_pair(ip, lp)

    @pytest.mark.parametrize("cut", ["images", "labels"])
    def test_truncated_gzip(self, tmp_path, cut):
        # random bytes do not compress, so half the file holds about half
        # the payload and gzip runs out of stream inside it
        rng = np.random.default_rng(3)
        ip, lp = tmp_path / "images.gz", tmp_path / "labels.gz"
        write_idx(ip, lp, rng.integers(0, 256, size=(40, 8, 8)),
                  rng.integers(0, 256, size=40))
        path = ip if cut == "images" else lp
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(TruncatedFileError,
                           match="compressed data ends inside the"):
            _read_idx_pair(ip, lp)

    @pytest.mark.parametrize("gz", [False, True], ids=["raw", "gz"])
    @pytest.mark.parametrize("count", [2**32 - 1, 60000])
    def test_header_overstating_payload(self, tmp_path, gz, count):
        # the declared size is refused before a byte of payload is read, so
        # no huge buffer is asked for
        ip, lp = _write_idx_pair(tmp_path, [0] * 8, [1, 0], gz=gz)
        head = struct.pack(">IIII", 0x00000803, count, 2**16 - 1, 2**16 - 1)
        with (gzip.open if gz else open)(ip, "wb") as f:
            f.write(head + bytes(8))
        with pytest.raises(TruncatedFileError,
                           match="more than the file can hold"):
            _read_idx_pair(ip, lp)

    def test_damaged_deflate_data(self, tmp_path):
        ip, lp = _write_idx_pair(tmp_path, [0] * 8, [1, 0], gz=True)
        # a bare gzip header, then a deflate block of the reserved type 3
        ip.write_bytes(b"\x1f\x8b\x08" + bytes(6) + b"\xff\x07" + bytes(32))
        with pytest.raises(TruncatedFileError,
                           match="damaged inside the image header"):
            _read_idx_pair(ip, lp)

    def test_count_mismatch(self, tmp_path):
        # label header promises 3 but the image header says 2
        ip, lp = _write_idx_pair(tmp_path, [0] * 8, [1, 0, 5],
                                 label_count=3)
        with pytest.raises(CountMismatchError):
            _read_idx_pair(ip, lp)

    @pytest.mark.parametrize("suffix", ["", ".gz"], ids=["raw", "gz"])
    def test_write_idx_round_trip(self, tmp_path, suffix):
        images = np.arange(3 * 2 * 5, dtype=np.uint8).reshape(3, 2, 5) * 8
        labels = np.array([9, 0, 4], dtype=np.uint8)
        ip = tmp_path / f"images{suffix}"
        lp = tmp_path / f"labels{suffix}"
        write_idx(ip, lp, images, labels)
        back_images, back_labels = _read_idx_pair(ip, lp)
        assert back_images.tobytes() == (images.reshape(3, 10)
                                         / 255.0).tobytes()
        np.testing.assert_array_equal(back_labels, labels)
        # gzipped when and only when the name says so
        assert (ip.read_bytes()[:2] == b"\x1f\x8b") == (suffix == ".gz")

    def test_write_idx_matches_hand_assembled_bytes(self, tmp_path):
        pixels = [0, 255, 128, 3, 10, 20, 30, 40]
        ref_ip, ref_lp = _write_idx_pair(tmp_path, pixels, [7, 2])
        ip, lp = tmp_path / "images", tmp_path / "labels"
        write_idx(ip, lp, np.array(pixels).reshape(2, 2, 2), [7, 2])
        assert ip.read_bytes() == ref_ip.read_bytes()
        assert lp.read_bytes() == ref_lp.read_bytes()


class TestFindIdxFiles:
    def _touch(self, directory, names):
        for name in names:
            (directory / name).write_bytes(b"")

    def test_prefers_gz_and_falls_back_to_raw(self, tmp_path):
        names = list(IDX_FILES.values())
        self._touch(tmp_path, names)
        self._touch(tmp_path, [names[0] + ".gz"])
        found = find_idx_files(tmp_path)
        assert list(found) == list(IDX_FILES)
        assert found["train_images"] == tmp_path / (names[0] + ".gz")
        for field in list(IDX_FILES)[1:]:
            assert found[field] == tmp_path / IDX_FILES[field]

    @pytest.mark.parametrize("missing", list(IDX_FILES))
    def test_none_when_one_is_missing(self, tmp_path, missing):
        self._touch(tmp_path, [name + ".gz" for field, name
                               in IDX_FILES.items() if field != missing])
        assert find_idx_files(tmp_path) is None


class TestCsv:
    def test_string_labels_sorted_mapping(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,zebra\n3.0,4.0,apple\n5.0,6.0,moth\n")
        x, y = load_labeled_csv(p)
        # sorted class order: apple=0, moth=1, zebra=2
        np.testing.assert_array_equal(y, [2, 0, 1])
        np.testing.assert_allclose(x, [[1, 2], [3, 4], [5, 6]])

    def test_numeric_labels_sorted_numerically(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,10\n2,2\n3,10\n4,0\n")
        _, y = load_labeled_csv(p)
        np.testing.assert_array_equal(y, [2, 1, 2, 0])

    def test_header_detected_and_dropped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2,label\n1.5,2.5,a\n3.5,4.5,b\n")
        x, y = load_labeled_csv(p)
        assert x.shape == (2, 2)
        np.testing.assert_array_equal(y, [0, 1])

    @pytest.mark.parametrize("first,column", [("1,oops,a", 1),
                                              ("oops,1,a", 0)])
    def test_partly_numeric_first_row_is_data(self, tmp_path, first, column):
        # only a first row with no numeric feature cell is a header, so a
        # typo in the first sample is an error, not a dropped row
        p = tmp_path / "d.csv"
        p.write_text(f"{first}\n1,2,b\n3,4,a\n5,6,b\n")
        with pytest.raises(NonNumericError,
                           match=f"row 0, column {column}: 'oops' is not a "
                                 f"finite number"):
            load_labeled_csv(p)

    def test_label_column_position(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,1.0,2.0\nb,3.0,4.0\n")
        x, y = load_labeled_csv(p, label_column=0)
        np.testing.assert_allclose(x, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(y, [0, 1])

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,a\n1,2,3,a\n")
        with pytest.raises(RaggedRowError):
            load_labeled_csv(p)

    def test_non_numeric_feature(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,a\n1,oops,b\n")
        with pytest.raises(NonNumericError):
            load_labeled_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"1,2,a\n3,{cell},b\n")
        with pytest.raises(NonNumericError, match=f"row 1, column 1: "
                                                  f"'{cell}' is not a finite"):
            load_labeled_csv(p)

    def test_non_finite_labels_mapped_as_strings(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,nan\n2,2\n3,nan\n4,10\n")
        _, y = load_labeled_csv(p)
        # sorted as strings: "10" < "2" < "nan"
        np.testing.assert_array_equal(y, [2, 1, 2, 0])

    @pytest.mark.parametrize("cell", [b"\xff", b"1" * (2**17 + 1)],
                             ids=["undecodable", "oversized-field"])
    def test_unreadable_text(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_bytes(b"1,2,a\n3," + cell + b",b\n")
        with pytest.raises(DataError, match=f"{p}: not readable as CSV"):
            load_labeled_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(EmptyFileError):
            load_labeled_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2,label\n")
        with pytest.raises(EmptyFileError):
            load_labeled_csv(p)


class TestTransforms:
    def test_normalize_01_exact_values(self):
        x = np.array([[0, 255, 128]], dtype=np.uint8)
        out = normalize_01(x)
        np.testing.assert_allclose(out, [[0.0, 1.0, 128 / 255]])
        np.testing.assert_allclose(out * 255.0, x)

    def test_standardize_train_moments(self):
        rng = np.random.default_rng(5)
        train = rng.normal(3.0, 2.0, size=(200, 6))
        out = train.copy()
        params = _standardize_in_place(out, train[:1].copy())
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(params["mean"], train.mean(axis=0))

    def test_standardize_constant_feature_maps_to_zero(self):
        train = np.full((10, 3), 7.0)
        _standardize_in_place(train, train[:1].copy())
        np.testing.assert_array_equal(train, 0.0)

    def test_standardize_matches_two_pass_scalar(self):
        """Scalar two-pass mean/std oracle, population variance."""
        rng = np.random.default_rng(8)
        train = rng.normal(size=(37, 3))
        test = rng.normal(size=(11, 3))
        tr_out, te_out = train.copy(), test.copy()
        _standardize_in_place(tr_out, te_out)
        for j in range(3):
            mean = sum(float(v) for v in train[:, j]) / 37
            var = sum((float(v) - mean) ** 2 for v in train[:, j]) / 37
            std = max(var ** 0.5, 1e-8)
            for i in range(37):
                expected = (float(train[i, j]) - mean) / std
                assert tr_out[i, j] == pytest.approx(expected, abs=1e-12)
            for i in range(11):
                expected = (float(test[i, j]) - mean) / std
                assert te_out[i, j] == pytest.approx(expected, abs=1e-12)

    def test_test_set_never_leaks_into_params(self):
        rng = np.random.default_rng(9)
        train = rng.normal(size=(50, 4))
        test_a = rng.normal(size=(20, 4))
        test_b = rng.normal(100.0, 50.0, size=(20, 4))
        pa = _standardize_in_place(train.copy(), test_a)
        pb = _standardize_in_place(train.copy(), test_b)
        np.testing.assert_array_equal(pa["mean"], pb["mean"])
        np.testing.assert_array_equal(pa["std"], pb["std"])

    def test_one_hot_basic(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(out, np.eye(3)[[0, 2, 1]])

    def test_one_hot_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            one_hot(np.array([0, 3]), 3)
        with pytest.raises(OutOfRangeError):
            one_hot(np.array([-1]), 3)

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_one_hot_round_trip(self, labels):
        labels = np.array(labels)
        encoded = one_hot(labels, 10)
        assert (encoded.sum(axis=1) == 1.0).all()
        np.testing.assert_array_equal(encoded.argmax(axis=1), labels)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _numpy_standardize(train, test):
    """Out-of-place numpy standardization, the in-place core's reference:
    ``(train_out, test_out, std)``."""
    mean = train.mean(axis=0)
    std = np.maximum(train.std(axis=0), 1e-8)
    return (train - mean) / std, (test - mean) / std, std


class TestStandardizeInPlace:
    """The in-place core matches numpy's out-of-place formula bit for bit."""

    @pytest.mark.parametrize("block", [1, 2, 3, 32])
    @pytest.mark.parametrize("n, d", [
        (1, 1), (1, 7), (40, 1), (3001, 1), (40, 2), (3001, 5), (33, 64),
        (1000, 65), (20, 97), (8200, 9), (30, 784)])
    def test_bit_identical_to_numpy(self, monkeypatch, block, n, d):
        # a block height that does not divide n leaves a short last block
        monkeypatch.setattr(motifset.data, "_STD_BLOCK_ROWS", block)
        rng = np.random.default_rng(n * 1000 + d)
        train = rng.normal(0.0, rng.uniform(0.1, 50.0, d), size=(n, d))
        test = rng.normal(0.0, 10.0, size=(7, d))
        want = _numpy_standardize(train, test)
        params = _standardize_in_place(train, test)
        assert np.array_equal(_bits(train), _bits(want[0]))
        assert np.array_equal(_bits(test), _bits(want[1]))
        assert np.array_equal(_bits(params["std"]), _bits(want[2]))

    @pytest.mark.parametrize("offset", [1e6, -3e9, 1e12])
    def test_large_offsets_and_constant_columns(self, monkeypatch, offset):
        monkeypatch.setattr(motifset.data, "_STD_BLOCK_ROWS", 7)
        rng = np.random.default_rng(11)
        train = offset + rng.normal(size=(300, 9))
        train[:, [0, 4, 8]] = offset  # constant columns, one at each end
        test = offset + rng.normal(size=(50, 9))
        want = _numpy_standardize(train, test)
        _standardize_in_place(train, test)
        assert np.array_equal(_bits(train), _bits(want[0]))
        assert np.array_equal(_bits(test), _bits(want[1]))
        assert (train[:, [0, 4, 8]] == 0.0).all()

    def test_default_block_width(self):
        # more rows than one default block, and not a multiple of it
        assert 203 % motifset.data._STD_BLOCK_ROWS
        rng = np.random.default_rng(12)
        train = rng.normal(5.0, 3.0, size=(203, 70))
        test = rng.normal(5.0, 3.0, size=(9, 70))
        want = _numpy_standardize(train, test)
        params = _standardize_in_place(train, test)
        assert np.array_equal(_bits(train), _bits(want[0]))
        assert np.array_equal(_bits(test), _bits(want[1]))
        assert np.array_equal(_bits(params["std"]), _bits(want[2]))


    @pytest.mark.parametrize("column, message", [
        # the sum behind the mean overflows
        ([1e308, 1e308, 0.0], r"mean inf, spread inf"),
        # the mean is finite, a square is not
        ([1e308, -1e308, 0.0], r"mean 0\.0, spread inf"),
        ([-1.7e308, 0.0, 0.0], r"mean -5\.6+7e\+307, spread inf"),
    ])
    def test_moment_that_overflows_is_a_data_error(self, column, message):
        train = np.zeros((3, 3))
        train[:, 1] = column
        with np.errstate(all="raise"), pytest.raises(
                DataError, match=r"^feature column 1 overflows float64 when "
                                 r"standardized \(" + message):
            _standardize_in_place(train, np.zeros((2, 3)))

    def test_test_value_that_overflows_is_a_data_error(self):
        # a constant training column scales by the 1e-8 floor, so a large
        # test value leaves float64
        train = np.zeros((4, 3))
        test = np.zeros((2, 3))
        test[1, 2] = 1e308
        with np.errstate(all="raise"), pytest.raises(
                DataError, match=r"^test feature column 2 overflows float64 "
                                 r"when standardized \(mean 0\.0, spread "
                                 r"1e-08\)$"):
            _standardize_in_place(train, test)


class TestDataset:
    def test_counts_read_from_shapes(self):
        ds = Dataset(np.zeros((4, 6)), np.eye(3)[[0, 1, 2, 0]],
                     np.zeros((2, 6)), np.eye(3)[[2, 1]])
        assert (ds.n_features, ds.n_classes) == (6, 3)

    @pytest.mark.parametrize("width,classes", [(5, 3), (6, 4)],
                             ids=["width", "classes"])
    def test_test_split_must_match_train(self, width, classes):
        with pytest.raises(CountMismatchError,
                           match=f"test: {width} features and {classes} "
                                 f"classes, train has 6 and 3"):
            Dataset(np.zeros((4, 6)), np.eye(3)[[0, 1, 2, 0]],
                    np.zeros((2, width)), np.zeros((2, classes)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["x_train", "y_train", "x_test",
                                      "y_test"])
    def test_non_finite_cell_rejected(self, name, value):
        arrays = {"x_train": np.zeros((4, 6)),
                  "y_train": np.eye(3)[[0, 1, 2, 0]],
                  "x_test": np.zeros((2, 6)), "y_test": np.eye(3)[[2, 1]]}
        arrays[name][1, 2] = value
        kind = "feature" if name[0] == "x" else "target"
        with pytest.raises(NonNumericError, match=re.escape(
                f"{name[2:]}: {kind} column 2 holds {value} at row 1, "
                "not a finite number")):
            Dataset(**arrays)

    def test_first_non_finite_column_named(self):
        x = np.zeros((4, 6))
        x[0, 4], x[3, 1] = np.inf, np.nan
        with pytest.raises(NonNumericError, match="column 1 holds nan"):
            Dataset(x, np.eye(3)[[0, 1, 2, 0]], np.zeros((2, 6)),
                    np.eye(3)[[2, 1]])

    def test_sum_that_overflows_from_finite_cells_accepted(self):
        # the sum of the cells is inf; every cell is finite
        x = np.zeros((4, 6))
        x[:2, 3] = 1e308
        ds = Dataset(x, np.eye(3)[[0, 1, 2, 0]], np.zeros((2, 6)),
                     np.eye(3)[[2, 1]])
        assert ds.x_train is x


class TestLimitDataset:
    def _dataset(self):
        rng = np.random.default_rng(13)
        return Dataset(rng.normal(size=(20, 4)),
                       one_hot(rng.integers(0, 3, 20), 3),
                       rng.normal(size=(8, 4)),
                       one_hot(rng.integers(0, 3, 8), 3))

    def test_dropping_rows_copies_the_kept_rows(self):
        ds = self._dataset()
        out = limit_dataset(ds, train_limit=5, test_limit=3)
        for got, full, n in ((out.x_train, ds.x_train, 5),
                             (out.y_train, ds.y_train, 5),
                             (out.x_test, ds.x_test, 3),
                             (out.y_test, ds.y_test, 3)):
            assert got.tobytes() == full[:n].tobytes()
            assert got.flags.owndata
            assert not np.shares_memory(got, full)

    @pytest.mark.parametrize("limit", [0, 20, 50])
    def test_keeping_every_row_copies_nothing(self, limit):
        # the same Dataset, so a load checks its arrays once
        ds = self._dataset()
        assert limit_dataset(ds, train_limit=limit, test_limit=limit) is ds


class TestIdxPipeline:
    def _write(self, directory, n_train, n_test, gz):
        rng = np.random.default_rng(14)
        paths = []
        for split_name, n in (("train", n_train), ("test", n_test)):
            images = directory / f"{split_name}-images{'.gz' * gz}"
            labels = directory / f"{split_name}-labels{'.gz' * gz}"
            write_idx(images, labels, rng.integers(0, 256, (n, 28, 28)),
                      rng.integers(0, 10, n))
            paths += [images, labels]
        return paths

    @pytest.mark.parametrize("gz", [False, True])
    def test_matches_standardize_of_normalize(self, tmp_path, gz):
        paths = self._write(tmp_path, 120, 40, gz)
        ds = build_idx_dataset(*paths)
        x_tr, lab_tr = _read_idx_pair(paths[0], paths[1])
        x_te, lab_te = _read_idx_pair(paths[2], paths[3])
        _standardize_in_place(x_tr, x_te)
        assert ds.x_train.tobytes() == x_tr.tobytes()
        assert ds.x_test.tobytes() == x_te.tobytes()
        assert ds.y_train.tobytes() == one_hot(lab_tr, 10).tobytes()
        assert ds.y_test.tobytes() == one_hot(lab_te, 10).tobytes()

    def test_image_sizes_must_agree(self, tmp_path):
        paths = self._write(tmp_path, 30, 10, False)
        write_idx(paths[2], paths[3], np.zeros((10, 27, 27)), np.zeros(10))
        with pytest.raises(CountMismatchError, match="test: 729 features"):
            build_idx_dataset(*paths)

    def test_unstandardized_is_normalize(self, tmp_path):
        paths, (u8_tr, u8_te) = _write_quartet(tmp_path, 30, 10, False)
        ds = build_idx_dataset(*paths, apply_standardize=False)
        assert ds.x_train.tobytes() == (u8_tr / 255.0).tobytes()
        assert ds.x_test.tobytes() == (u8_te / 255.0).tobytes()

    def test_ingestion_holds_each_split_once(self, tmp_path):
        """The peak stays within 1.25x of what the result itself holds."""
        n_train, n_test = 2000, 500
        paths = self._write(tmp_path, n_train, n_test, False)
        tracemalloc.start()
        try:
            ds = build_idx_dataset(*paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for a in (ds.x_train, ds.y_train, ds.x_test,
                                         ds.y_test))
        payloads = (n_train + n_test) * (28 * 28 + 1)
        assert peak <= 1.25 * (outputs + payloads)

    def test_payload_never_held_whole(self, tmp_path):
        """The peak exceeds the result by far less than the 3 MiB train
        payload: one chunk at a time is read and scaled."""
        # a small test split, so the peak falls while the train split is read
        paths = self._write(tmp_path, 4000, 10, False)
        tracemalloc.start()
        try:
            ds = build_idx_dataset(*paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for a in (ds.x_train, ds.y_train, ds.x_test,
                                         ds.y_test))
        assert peak - outputs < 3 * motifset.data._DECODE_CHUNK

    def test_prepare_cache_bytes_pinned(self, tmp_path):
        """The cache bytes of an IDX prepare, with and without a row limit,
        as written before ingestion scaled the splits in place."""
        paths = write_synthetic_idx_dataset(tmp_path / "idx", n_train=300,
                                            n_test=100, seed=1)
        want = {0: "0eb730a3ca927d22834ec536438b0c7b"
                   "67502e2cc1a45fd25661eef90221afcf",
                200: "b24b2def295a35eae1132cf15fc4f152"
                     "9f6e7053616559f24d8cbd864cc79695"}
        for limit, sha in want.items():
            cache = tmp_path / f"cache{limit}.bin"
            run_prepare(ExperimentConfig(
                dataset_kind="idx", **{k: str(p) for k, p in paths.items()},
                standardize=True, train_limit=limit), cache)
            assert hashlib.sha256(cache.read_bytes()).hexdigest() == sha


def _write_quartet(directory, n_train, n_test, gz, seed=16):
    """Random 28x28 train and test IDX pairs; returns the four paths in
    :func:`build_idx_dataset`'s order and the ``(train, test)`` images."""
    rng = np.random.default_rng(seed)
    paths, images = [], []
    for split_name, n in (("train", n_train), ("test", n_test)):
        pixels = rng.integers(0, 256, (n, 28, 28), dtype=np.uint8)
        pair = [directory / f"{split_name}-{kind}{'.gz' * gz}"
                for kind in ("images", "labels")]
        write_idx(*pair, pixels, rng.integers(0, 10, n))
        paths += pair
        images.append(pixels.reshape(n, -1))
    return paths, images


class TestIdxChunkBoundaries:
    """Pixels read in chunks and standardized in row blocks give the bytes
    of numpy's out-of-place formula wherever the boundaries fall."""

    # 1001 train rows span three default decode chunks and end inside a
    # row block; 700 test rows span three chunks of the test pair too
    N_TRAIN, N_TEST = 1001, 700

    @pytest.mark.parametrize("chunk", [None, 1000],
                             ids=["default-chunk", "chunk-1000"])
    @pytest.mark.parametrize("gz", [False, True], ids=["raw", "gz"])
    def test_bytes_equal_numpy(self, tmp_path, monkeypatch, gz, chunk):
        if chunk is not None:  # a chunk that ends inside a row
            monkeypatch.setattr(motifset.data, "_DECODE_CHUNK", chunk)
        size = motifset.data._DECODE_CHUNK
        assert self.N_TRAIN * 784 > 2 * size and self.N_TEST * 784 > 2 * size
        assert self.N_TRAIN % motifset.data._STD_BLOCK_ROWS
        paths, (u8_tr, u8_te) = _write_quartet(tmp_path, self.N_TRAIN,
                                               self.N_TEST, gz)
        ds = build_idx_dataset(*paths)
        mean = (u8_tr / 255).mean(axis=0)
        std = np.maximum((u8_tr / 255).std(axis=0), 1e-8)
        assert ds.x_train.tobytes() == ((u8_tr / 255 - mean) / std).tobytes()
        assert ds.x_test.tobytes() == ((u8_te / 255 - mean) / std).tobytes()


def _gzip_damaged_after(raw: bytes, offset: int) -> bytes:
    """A gzip member whose deflate data holds ``raw[:offset]`` and then a
    block of the reserved type 3, so inflating fails at ``offset``."""
    deflate = zlib.compressobj(6, zlib.DEFLATED, -15)
    body = deflate.compress(raw[:offset]) + deflate.flush(zlib.Z_FULL_FLUSH)
    # a full flush ends byte-aligned; 0x07 is a final block of type 3
    return b"\x1f\x8b\x08\x00" + bytes(4) + b"\x00\xff" + body + b"\x07" \
        + bytes(64)


def _prepare_args(paths, cache):
    """``prepare`` arguments that read the four IDX ``paths``."""
    args = ["prepare", "--dataset-kind", "idx", "--cache-out", str(cache)]
    for flag, path in zip(("--train-images", "--train-labels",
                           "--test-images", "--test-labels"), paths):
        args += [flag, str(path)]
    return args


# runs prepare with the address space capped 256 MiB above what the
# interpreter has mapped once motifset is imported
_CAPPED_PREPARE = """
import resource, sys
from motifset.cli import main
with open("/proc/self/status") as f:
    mapped = next(int(line.split()[1]) * 1024 for line in f
                  if line.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (mapped + 2**28, hard))
sys.exit(main(sys.argv[1:]))
"""


def _flip_payload_byte_stored(path, offset):
    """Recompress gzip file ``path`` at level 0, whose stored blocks hold
    the bytes verbatim, with byte ``offset`` of its content flipped: the
    deflate data still decodes, and only the CRC-32 trailer can tell."""
    raw = gzip.decompress(path.read_bytes())
    packed = bytearray(gzip.compress(raw, compresslevel=0))
    packed[packed.index(raw) + offset] ^= 0x01
    path.write_bytes(bytes(packed))


class TestGzipTrailer:
    """A gzipped IDX file is read on to its end, so gzip checks the CRC-32
    and length trailer after the payload."""

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_flipped_payload_byte_is_refused(self, tmp_path, which):
        rng = np.random.default_rng(4)
        ip, lp = tmp_path / "images.gz", tmp_path / "labels.gz"
        write_idx(ip, lp, rng.integers(0, 256, size=(40, 8, 8)),
                  rng.integers(0, 10, size=40))
        path = ip if which == "images" else lp
        # a byte past the header, inside the payload
        _flip_payload_byte_stored(path, 20)
        with pytest.raises(DataError, match="CRC check failed") as info:
            _read_idx_pair(ip, lp)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("which", [0, 1], ids=["images", "labels"])
    def test_prepare_exits_3(self, tmp_path, which):
        paths, _ = _write_quartet(tmp_path, 50, 40, gz=True)
        _flip_payload_byte_stored(paths[which], 30)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            assert main(_prepare_args(paths, tmp_path / "cache.bin")) == 3
        assert str(paths[which]) in err.getvalue()
        assert "CRC check failed" in err.getvalue()
        assert not (tmp_path / "cache.bin").exists()

    def test_intact_level_0_pair_loads(self, tmp_path):
        rng = np.random.default_rng(4)
        pixels = rng.integers(0, 256, size=(40, 8, 8))
        ip, lp = tmp_path / "images.gz", tmp_path / "labels.gz"
        write_idx(ip, lp, pixels, rng.integers(0, 10, size=40))
        for path in (ip, lp):
            path.write_bytes(gzip.compress(gzip.decompress(
                path.read_bytes()), compresslevel=0))
        images, _ = _read_idx_pair(ip, lp)
        assert images.tobytes() == (pixels.reshape(40, -1) / 255.0).tobytes()

    def test_trailer_cut_short(self, tmp_path):
        ip, lp = _write_idx_pair(tmp_path, [0] * 8, [1, 0], gz=True)
        lp.write_bytes(lp.read_bytes()[:-4])  # half of the length field
        with pytest.raises(TruncatedFileError, match="before its gzip "
                                                     "trailer"):
            _read_idx_pair(ip, lp)

    def test_bytes_after_the_member_that_are_not_gzip(self, tmp_path):
        ip, lp = _write_idx_pair(tmp_path, [0] * 8, [1, 0], gz=True)
        ip.write_bytes(ip.read_bytes() + b"extra bytes")
        with pytest.raises(DataError, match="Not a gzipped file"):
            _read_idx_pair(ip, lp)

    def test_raw_file_with_trailing_bytes_loads(self, tmp_path):
        ip, lp = _write_idx_pair(tmp_path, [0] * 8, [1, 0])
        ip.write_bytes(ip.read_bytes() + b"extra")
        images, labels = _read_idx_pair(ip, lp)
        assert images.shape == (2, 4) and list(labels) == [1, 0]


class TestIdxWorkerFailures:
    """A defect in the train or the test pair raises its typed error,
    exits 3 through ``prepare``, and leaves no thread behind."""

    def _damage(self, paths, defect):
        if defect == "truncated-test-images":
            raw = paths[2].read_bytes()
            paths[2].write_bytes(raw[:len(raw) // 2])
        elif defect in ("damaged-test-deflate", "damaged-train-deflate"):
            path = paths[2 if defect == "damaged-test-deflate" else 0]
            with gzip.open(path, "rb") as f:
                raw = f.read()
            # in the middle of the image payload
            path.write_bytes(_gzip_damaged_after(raw, len(raw) // 2))
        else:  # one label more than the test images
            with gzip.open(paths[3], "rb") as f:
                labels = f.read()[8:]
            with gzip.open(paths[3], "wb") as f:
                f.write(struct.pack(">II", 0x801, len(labels) + 1) + labels
                        + b"\x00")

    DEFECTS = {
        "truncated-test-images": (TruncatedFileError,
                                  "compressed data ends inside the image "
                                  "data"),
        "damaged-test-deflate": (TruncatedFileError,
                                 "compressed data is damaged inside the "
                                 "image data"),
        "damaged-train-deflate": (TruncatedFileError,
                                  "compressed data is damaged inside the "
                                  "image data"),
        "test-label-count": (CountMismatchError, "holds 400 images but"),
    }

    @pytest.mark.parametrize("defect", list(DEFECTS))
    def test_typed_error_and_no_thread_left(self, tmp_path, defect):
        paths, _ = _write_quartet(tmp_path, 500, 400, gz=True)
        self._damage(paths, defect)
        error, message = self.DEFECTS[defect]
        threads = threading.active_count()
        with pytest.raises(error, match=message):
            build_idx_dataset(*paths)
        assert threading.active_count() == threads
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            assert main(_prepare_args(paths, tmp_path / "cache.bin")) == 3
        assert message in err.getvalue()
        assert threading.active_count() == threads
        assert not (tmp_path / "cache.bin").exists()

    def test_success_leaves_no_thread(self, tmp_path):
        paths, _ = _write_quartet(tmp_path, 500, 400, gz=True)
        threads = threading.active_count()
        build_idx_dataset(*paths)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("gz", [False, True], ids=["raw", "gz"])
    def test_overdeclared_header_refused_before_allocation(self, tmp_path,
                                                           gz):
        """A header declaring 60000 images in a file that holds 2 is
        refused before a buffer for the declared payload is allocated."""
        paths, _ = _write_quartet(tmp_path, 2, 2, gz)
        with (gzip.open if gz else open)(paths[0], "wb") as f:
            f.write(struct.pack(">IIII", 0x803, 60000, 28, 28) + bytes(1568))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFileError,
                               match="more than the file can hold"):
                build_idx_dataset(*paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads the mapped size from /proc")
    def test_payload_too_large_for_memory(self, tmp_path):
        """A gzip header that declares no more than deflate could expand
        the file to, but more than the process may allocate, exits 3 and
        names the file."""
        paths, _ = _write_quartet(tmp_path, 2, 2, gz=True)
        # random bytes do not compress: a 1 MiB member may declare up to
        # about 1 GiB, four times the capped headroom
        rng = np.random.default_rng(17)
        with gzip.open(paths[0], "wb") as f:
            f.write(struct.pack(">IIII", 0x803, 1_300_000, 28, 28)
                    + rng.bytes(2**20))
        with gzip.open(paths[1], "wb") as f:
            f.write(struct.pack(">II", 0x801, 1_300_000)
                    + rng.integers(0, 10, 1_300_000, np.uint8).tobytes())
        assert 1_300_000 * 784 <= 1032 * paths[0].stat().st_size
        done = subprocess.run(
            [sys.executable, "-c", _CAPPED_PREPARE,
             *_prepare_args(paths, tmp_path / "cache.bin")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert done.returncode == 3, done.stderr
        assert f"{paths[0]}: header declares 1300000 images of 784 bytes, " \
            "more than memory can hold" in done.stderr
        assert not (tmp_path / "cache.bin").exists()


class TestSplit:
    def test_203_samples_one_third(self):
        x = np.arange(203 * 2, dtype=float).reshape(203, 2)
        y = one_hot(np.arange(203) % 5, 5)
        x_tr, y_tr, x_te, y_te = split(x, y, 1 / 3, seed=4)
        assert x_te.shape[0] == 67  # floor(203 / 3)
        assert x_tr.shape[0] == 136

    def test_two_samples_minimum(self):
        x = np.zeros((2, 1))
        y = one_hot(np.array([0, 1]), 2)
        x_tr, _, x_te, _ = split(x, y, 0.5, seed=0)
        assert x_tr.shape[0] == 1 and x_te.shape[0] == 1

    def test_too_few_samples(self):
        x = np.zeros((2, 1))
        y = one_hot(np.array([0, 1]), 2)
        with pytest.raises(TooFewSamplesError):
            split(x, y, 0.1, seed=0)  # floor(0.2) = 0 test samples

    def test_deterministic_per_seed(self):
        x = np.arange(50, dtype=float).reshape(50, 1)
        y = one_hot(np.arange(50) % 3, 3)
        a = split(x, y, 0.3, seed=12)
        b = split(x, y, 0.3, seed=12)
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)

    @given(st.integers(min_value=4, max_value=200),
           st.floats(min_value=0.1, max_value=0.9),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, n, fraction, seed):
        x = np.arange(n, dtype=float).reshape(n, 1)
        y = one_hot(np.zeros(n, dtype=int), 1)
        try:
            x_tr, _, x_te, _ = split(x, y, fraction, seed)
        except TooFewSamplesError:
            assert int(np.floor(n * fraction)) in (0, n)
            return
        combined = np.sort(np.concatenate([x_tr, x_te]).ravel())
        np.testing.assert_array_equal(combined, x.ravel())
        assert x_te.shape[0] == int(np.floor(n * fraction))


class TestCache:
    def _dataset(self):
        rng = np.random.default_rng(3)
        return Dataset(
            x_train=rng.normal(size=(20, 5)),
            y_train=one_hot(rng.integers(0, 3, 20), 3),
            x_test=rng.normal(size=(8, 5)),
            y_test=one_hot(rng.integers(0, 3, 8), 3),
        )

    def test_round_trip_bit_exact(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "cache.bin"
        save_dataset_cache(ds, path)
        back = load_dataset_cache(path)
        np.testing.assert_array_equal(back.x_train, ds.x_train)
        np.testing.assert_array_equal(back.y_test, ds.y_test)
        assert back.n_features == 5 and back.n_classes == 3

    def _write_sealed(self, path, matrices, **meta):
        """A checksum-valid cache of ``matrices`` with metadata ``meta``."""
        meta = {"n_features": 5, "n_classes": 3,
                "shapes": [list(a.shape) for a in matrices], **meta}
        write_container(path, CACHE_MAGIC, CACHE_VERSION, meta,
                        (np.ascontiguousarray(a, dtype="<f8")
                         for a in matrices))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_resealed_metadata_fuzz(self, tmp_path_factory, data):
        """Drawn ``n_features``, ``n_classes`` and ``shapes``, sealed again
        so that the digest passes: only CorruptCacheError escapes."""
        ds = self._dataset()
        matrices = (ds.x_train, ds.y_train, ds.x_test, ds.y_test)

        def shape_of(a):
            # shapes whose sizes match the sections reach the array checks
            n = a.size
            return st.one_of(json_values, st.sampled_from([
                list(a.shape), [n], [1, n], [n, 1, 1], [float(n), 1.0],
                [True, n], [-1, -n], [a.shape[1], a.shape[0]]]))

        edits = {"n_features": json_values, "n_classes": json_values,
                 "shapes": st.one_of(json_values, st.tuples(
                     *map(shape_of, matrices)).map(list))}
        keys = data.draw(st.lists(st.sampled_from(sorted(edits)),
                                  min_size=1, max_size=3, unique=True))
        path = tmp_path_factory.mktemp("resealed") / "cache.bin"
        self._write_sealed(path, matrices,
                           **{key: data.draw(edits[key]) for key in keys})
        try:
            load_dataset_cache(path)
        except CorruptCacheError:
            pass

    def test_metadata_not_a_json_object_rejected(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "cache.bin"
        write_container(path, CACHE_MAGIC, CACHE_VERSION, [5, 3],
                        (np.ascontiguousarray(a) for a in (
                            ds.x_train, ds.y_train, ds.x_test, ds.y_test)))
        with pytest.raises(CorruptCacheError,
                           match="metadata is not a JSON object"):
            load_dataset_cache(path)

    def test_cache_with_preprocessing_record_loads(self, tmp_path):
        """Older writers stored a ``preprocessing`` list in the metadata."""
        ds = self._dataset()
        matrices = (ds.x_train, ds.y_train, ds.x_test, ds.y_test)
        path = tmp_path / "old.bin"
        self._write_sealed(path, matrices, preprocessing=[
            {"name": "split", "params": {"test_fraction": 0.25, "seed": 2}},
            {"name": "standardize", "params": {"mean": np.zeros(5),
                                               "std": np.ones(5)}},
        ])
        back = load_dataset_cache(path)
        for got, want in zip((back.x_train, back.y_train, back.x_test,
                              back.y_test), matrices):
            assert got.tobytes() == want.tobytes()
        assert back.n_features == 5 and back.n_classes == 3

    @pytest.mark.parametrize("key", ["n_features", "n_classes"])
    def test_stored_counts_must_match_shapes(self, tmp_path, key):
        ds = self._dataset()
        path = tmp_path / "cache.bin"
        self._write_sealed(path, (ds.x_train, ds.y_train, ds.x_test,
                                  ds.y_test), **{key: 4})
        with pytest.raises(CorruptCacheError,
                           match="stored feature and class counts"):
            load_dataset_cache(path)

    def test_one_dimensional_matrix_rejected(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "cache.bin"
        self._write_sealed(path, (ds.x_train[:, 0], ds.y_train, ds.x_test,
                                  ds.y_test))
        with pytest.raises(CorruptCacheError, match="malformed cache"):
            load_dataset_cache(path)

    def test_three_dimensional_matrix_exit_code(self, tmp_path, capsys):
        """A sealed cache whose feature matrices are 3-D, with the counts
        their axes 1 give, is malformed: ``train`` exits 3 and writes no
        run file."""
        rng = np.random.default_rng(5)
        path = tmp_path / "cache.bin"
        self._write_sealed(path, (rng.normal(size=(8, 4, 2)),
                                  one_hot(np.arange(8) % 2, 2),
                                  rng.normal(size=(4, 4, 2)),
                                  one_hot(np.arange(4) % 2, 2)),
                           n_features=4, n_classes=2)
        with pytest.raises(CorruptCacheError, match=r"x_train must be 2-D, "
                                                    r"got shape \(8, 4, 2\)"):
            load_dataset_cache(path)
        out = tmp_path / "r"
        assert main(["train", "--cache-path", str(path), "--epochs", "1",
                     "--hidden-sizes", "4", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("data error:")
        assert not out.exists() or not list(out.iterdir())

    def test_checksum_detects_corruption(self, tmp_path):
        path = tmp_path / "cache.bin"
        save_dataset_cache(self._dataset(), path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCacheError):
            load_dataset_cache(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "cache.bin"
        save_dataset_cache(self._dataset(), path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCacheError):
            load_dataset_cache(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "cache.bin"
        path.write_bytes(b"MSET")
        with pytest.raises(CorruptCacheError):
            load_dataset_cache(path)

    def test_every_flipped_byte_rejected(self, tmp_path):
        path = tmp_path / "cache.bin"
        save_dataset_cache(self._dataset(), path)
        raw = path.read_bytes()
        for offset in range(len(raw)):
            damaged = bytearray(raw)
            damaged[offset] ^= 0xFF
            path.write_bytes(damaged)
            with pytest.raises(CorruptCacheError):
                load_dataset_cache(path)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_damaged_bytes_rejected(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("cache") / "cache.bin"
        save_dataset_cache(self._dataset(), path)
        path.write_bytes(data.draw(damaged(path.read_bytes())))
        with pytest.raises(CorruptCacheError):
            load_dataset_cache(path)

    def test_empty_split_rejected(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "cache.bin"
        self._write_sealed(path, (ds.x_train, ds.y_train, ds.x_test[:0],
                                  ds.y_test[:0]))
        with pytest.raises(TooFewSamplesError):
            load_dataset_cache(path)

    def test_oversized_shapes_rejected_before_allocation(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "cache.bin"
        self._write_sealed(path, (ds.x_train, ds.y_train, ds.x_test,
                                  ds.y_test),
                           shapes=[[10**9, 10**9], [20, 3], [8, 5], [8, 3]])
        with pytest.raises(CorruptCacheError, match="stored shapes"):
            load_dataset_cache(path)

    @pytest.mark.parametrize("side", ["x", [5], 5.0])
    def test_non_integer_shape_rejected(self, tmp_path, side):
        # a string or list would be repeated by the size product
        ds = self._dataset()
        path = tmp_path / "cache.bin"
        self._write_sealed(path, (ds.x_train, ds.y_train, ds.x_test,
                                  ds.y_test),
                           shapes=[[20, side], [20, 3], [8, 5], [8, 3]])
        with pytest.raises(CorruptCacheError, match="holds a non-integer"):
            load_dataset_cache(path)

    def test_load_peaks_near_the_arrays_it_returns(self, tmp_path):
        # each section is read straight into its matrix: a 2000 + 1000
        # sample, 784-feature cache peaks within 15% of the four arrays
        rng = np.random.default_rng(4)
        path = tmp_path / "cache.bin"
        save_dataset_cache(Dataset(
            rng.normal(size=(2000, 784)),
            one_hot(rng.integers(0, 10, 2000), 10),
            rng.normal(size=(1000, 784)),
            one_hot(rng.integers(0, 10, 1000), 10),
        ), path)
        tracemalloc.start()
        try:
            back = load_dataset_cache(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (back.x_train, back.y_train,
                                          back.x_test, back.y_test))
        assert peak <= 1.15 * returned

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "cache.bin"
        path.write_bytes(CACHE_MAGIC + struct.pack("<I", 1) + bytes(64))
        with pytest.raises(CorruptCacheError, match="unsupported version 1"):
            load_dataset_cache(path)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "cache.bin"
        save_dataset_cache(self._dataset(), path)
        before = path.read_bytes()
        ds = self._dataset()
        ds.y_test = Unwritable()  # the last section, after three others
        with pytest.raises(OSError, match="disk full"):
            save_dataset_cache(ds, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cache.bin"]


class TestCsvPipeline:
    def test_end_to_end(self, toy_csv):
        ds = build_csv_dataset(toy_csv, test_fraction=1 / 3, seed=2)
        assert ds.n_features == 8 and ds.n_classes == 3
        assert ds.x_test.shape[0] == 40 and ds.x_train.shape[0] == 80
        # standardized on train only
        np.testing.assert_allclose(ds.x_train.mean(axis=0), 0.0, atol=1e-10)

    def test_matches_standardize_of_split(self, toy_csv):
        ds = build_csv_dataset(toy_csv, seed=2)
        features, labels = load_labeled_csv(toy_csv)
        x_tr, y_tr, x_te, y_te = split(features, one_hot(labels, 3), 1 / 3,
                                       seed=2)
        _standardize_in_place(x_tr, x_te)
        assert ds.x_train.tobytes() == x_tr.tobytes()
        assert ds.x_test.tobytes() == x_te.tobytes()
        assert ds.y_train.tobytes() == y_tr.tobytes()
        assert ds.y_test.tobytes() == y_te.tobytes()

    def test_pipeline_then_cache_round_trip(self, toy_csv, tmp_path):
        ds = build_csv_dataset(toy_csv, seed=2)
        path = tmp_path / "c.bin"
        save_dataset_cache(ds, path)
        back = load_dataset_cache(path)
        np.testing.assert_array_equal(back.x_train, ds.x_train)
        np.testing.assert_array_equal(back.y_train, ds.y_train)
