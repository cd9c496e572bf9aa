"""Dataset ingestion: IDX parsing, CSV parsing, transforms, split, cache."""
import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifset.data import (
    CACHE_MAGIC,
    Dataset,
    PreprocessingStep,
    build_csv_dataset,
    load_dataset_cache,
    load_idx,
    load_labeled_csv,
    normalize_01,
    one_hot,
    save_dataset_cache,
    split,
    standardize,
)
from motifset.errors import (
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

from conftest import Unwritable


def _write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2, gz=False,
                    image_magic=0x00000803, label_magic=0x00000801,
                    truncate_images=0, label_count=None):
    """Hand-assemble IDX bytes so the loader is tested against raw files."""
    n = len(pixels) // (rows * cols)
    img = struct.pack(">IIII", image_magic, n, rows, cols) + bytes(pixels)
    if truncate_images:
        img = img[:-truncate_images]
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
        images, labels = load_idx(ip, lp)
        assert images.shape == (2, 4)
        assert images.dtype == np.uint8
        np.testing.assert_array_equal(images[0], [0, 255, 128, 3])
        np.testing.assert_array_equal(labels, [7, 2])

    def test_gzip_by_extension(self, tmp_path):
        pixels = list(range(8))
        ip, lp = _write_idx_pair(tmp_path, pixels, [1, 0], gz=True)
        images, labels = load_idx(ip, lp)
        np.testing.assert_array_equal(images.ravel(), pixels)

    def test_bad_image_magic(self, tmp_path):
        ip, lp = _write_idx_pair(tmp_path, [0] * 8, [1, 0],
                                 image_magic=0x00000804)
        with pytest.raises(MagicNumberError):
            load_idx(ip, lp)

    def test_bad_label_magic(self, tmp_path):
        ip, lp = _write_idx_pair(tmp_path, [0] * 8, [1, 0],
                                 label_magic=0xDEADBEEF)
        with pytest.raises(MagicNumberError):
            load_idx(ip, lp)

    def test_truncated_pixels(self, tmp_path):
        ip, lp = _write_idx_pair(tmp_path, [0] * 8, [1, 0],
                                 truncate_images=3)
        with pytest.raises(TruncatedFileError):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        # label header promises 3 but the image header says 2
        ip, lp = _write_idx_pair(tmp_path, [0] * 8, [1, 0, 5],
                                 label_count=3)
        with pytest.raises(CountMismatchError):
            load_idx(ip, lp)


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
        out, _, params = standardize(train)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(params["mean"], train.mean(axis=0))

    def test_standardize_constant_feature_maps_to_zero(self):
        train = np.full((10, 3), 7.0)
        out, _, _ = standardize(train)
        np.testing.assert_array_equal(out, 0.0)

    def test_standardize_matches_two_pass_scalar(self):
        """Scalar two-pass mean/std oracle, population variance."""
        rng = np.random.default_rng(8)
        train = rng.normal(size=(37, 3))
        test = rng.normal(size=(11, 3))
        tr_out, te_out, _ = standardize(train, test)
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
        _, _, pa = standardize(train, test_a)
        _, _, pb = standardize(train, test_b)
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
            n_features=5,
            n_classes=3,
            preprocessing=[PreprocessingStep("standardize",
                                             {"mean": np.zeros(5),
                                              "std": np.ones(5)})],
        )

    def test_round_trip_bit_exact(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "cache.bin"
        save_dataset_cache(ds, path)
        back = load_dataset_cache(path)
        np.testing.assert_array_equal(back.x_train, ds.x_train)
        np.testing.assert_array_equal(back.y_test, ds.y_test)
        assert back.n_features == 5 and back.n_classes == 3
        assert back.preprocessing[0].name == "standardize"
        np.testing.assert_array_equal(back.preprocessing[0].params["std"],
                                      np.ones(5))

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
        names = [s.name for s in ds.preprocessing]
        assert names == ["split", "standardize"]

    def test_pipeline_then_cache_round_trip(self, toy_csv, tmp_path):
        ds = build_csv_dataset(toy_csv, seed=2)
        path = tmp_path / "c.bin"
        save_dataset_cache(ds, path)
        back = load_dataset_cache(path)
        np.testing.assert_array_equal(back.x_train, ds.x_train)
        np.testing.assert_array_equal(back.y_train, ds.y_train)
