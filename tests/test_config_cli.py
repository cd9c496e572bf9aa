"""Config parsing/echo, preset resolution, CLI subcommands and exit codes."""
import configparser
import contextlib
import gzip
import hashlib
import io
import re
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifset.checkpoint import save_checkpoint
from motifset.cli import _resolve_config, build_parser, main
from motifset.config import (
    ExperimentConfig,
    apply_overrides,
    config_to_text,
    load_config,
    preset_path,
    read_manifest_result,
)
from motifset.data import (
    Dataset,
    one_hot,
    save_dataset_cache,
    write_idx,
)
from motifset.errors import ConfigError, MissingFieldError
from motifset.topology import ER_MODE, FIXED_MODE
from motifset.train import run_sweep

from conftest import damaged, small_network


class TestConfigFiles:
    def test_defaults_fill_missing_sections(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[model]\nmotif_size = 4\nhidden_sizes = 12,12\n")
        config = load_config(p)
        assert config.motif_size == 4
        assert config.hidden_sizes == (12, 12)
        assert config.epochs == ExperimentConfig().epochs  # untouched

    def test_every_seed_explicit_after_echo(self, tmp_path):
        text = config_to_text(ExperimentConfig())
        assert "[seeds]" in text
        for key in ("topology", "init", "evolution", "split", "shuffle"):
            assert f"{key} = " in text

    def test_echo_round_trips_every_field(self, tmp_path):
        config = ExperimentConfig(motif_size=2, hidden_sizes=(32, 16),
                                  learning_rate=0.125, standardize=False,
                                  evolution_mode="listing4", zeta=0.45,
                                  csv_path="x.csv", out_dir="runs/z",
                                  shuffle_seed=99)
        p = tmp_path / "c.cfg"
        p.write_text(config_to_text(config))
        back = load_config(p)
        assert back == config

    def test_inline_comments_ignored(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[train]\nepochs = 5  # short run\n")
        assert load_config(p).epochs == 5

    def test_percent_sign_taken_literally(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[dataset]\ncsv_path = data/100%.csv\n")
        assert load_config(p).csv_path == "data/100%.csv"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[train]\nwarp_speed = 9\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_result_section_ignored(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[train]\nepochs = 3\n[result]\nfinal_accuracy = 0.5\n")
        assert load_config(p).epochs == 3

    def test_old_score_section_ignored(self, tmp_path):
        """Configs and manifests once carried ``[score] w_eff``/``w_acc``;
        they still load, whatever the weights, into the config without
        that section."""
        text = "[dataset]\ncsv_path = x.csv\n\n[train]\nepochs = 3\n"
        old, new = tmp_path / "old.cfg", tmp_path / "new.cfg"
        old.write_text(text + "\n[score]\nw_eff = 0.3\nw_acc = 0.9\n")
        new.write_text(text)
        assert load_config(old) == load_config(new)
        load_config(old).validate()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nepochs = 5\n",
        "[DEFAULT]\nepochs = 5\n[model]\nmotif_size = 2\n",
    ], ids=["alone", "beside-model"])
    def test_default_section_rejected(self, tmp_path, text):
        # configparser would copy [DEFAULT] options into every section
        p = tmp_path / "c.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match=r"options under \[DEFAULT\]"):
            load_config(p)

    @pytest.mark.parametrize("field,value", [
        ("csv_path", "/tmp/a #b.csv"), ("out_dir", "runs/x ;y"),
        ("csv_path", " x.csv"), ("out_dir", "runs/a\nb"),
        ("out_dir", "runs/a\n[train]\nepochs = 1"),
    ])
    def test_value_a_manifest_would_change_rejected(self, tmp_path, field,
                                                     value):
        config = ExperimentConfig(csv_path="x.csv")
        setattr(config, field, value)
        with pytest.raises(ConfigError, match=f"^{field} = "):
            config.validate()

    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("learning_rate", -0.1), ("motif_size", 0),
        ("zeta", 1.0), ("weight_mode", "psychic"), ("batch_size", -1),
        ("evolution_period", 0),
        ("density_value", float("inf")), ("learning_rate", float("inf")),
        ("noise_scale", float("nan")), ("noise_scale", float("inf")),
    ])
    def test_validation_failures(self, field, value):
        config = ExperimentConfig(csv_path="x.csv")
        setattr(config, field, value)
        with pytest.raises(ConfigError):
            config.validate()

    @pytest.mark.parametrize("key", ["topology", "init", "evolution",
                                     "split", "shuffle"])
    def test_negative_seed_in_file_rejected(self, tmp_path, key):
        p = tmp_path / "c.cfg"
        p.write_text(f"[dataset]\ncsv_path = x.csv\n[seeds]\n{key} = -1\n")
        with pytest.raises(ConfigError, match=f"seeds must be >= 0, got "
                                              f"{{'{key}_seed': -1}}"):
            load_config(p).validate()

    def test_overrides_skip_none(self):
        config = ExperimentConfig()
        apply_overrides(config, {"epochs": None, "motif_size": "2",
                                 "zeta": 0.25, "hidden_sizes": "8,8"})
        assert config.epochs == ExperimentConfig().epochs
        assert config.motif_size == 2
        assert config.zeta == 0.25
        assert config.hidden_sizes == (8, 8)
        with pytest.raises(ConfigError):
            apply_overrides(config, {"motif_size": "x"})

    def test_every_field_has_a_cli_flag(self, tmp_path):
        config = ExperimentConfig(
            dataset_kind="idx", csv_path="a.csv", label_column=0,
            test_fraction=0.25, train_images="ti", train_labels="tl",
            test_images="vi", test_labels="vl", cache_path="c.bin",
            standardize=False, train_limit=100, test_limit=50,
            hidden_sizes=(32, 16), motif_size=2, weight_mode="independent",
            activation="sigmoid", init_scheme="he_normal",
            density_mode="fixed_density", density_value=0.5, epochs=3,
            learning_rate=0.125, batch_size=0, evolution_mode="listing4",
            zeta=0.45, epsilon_prune=0.2, noise_scale=0.5,
            evolution_period=2, topology_seed=1,
            init_seed=2, evolution_seed=3, split_seed=4, shuffle_seed=5,
            out_dir="runs/z")
        assert all(getattr(config, f.name) != f.default
                   for f in fields(config))
        text = config_to_text(config)
        echoed = configparser.ConfigParser()
        echoed.read_string(text)
        values = [value for section in echoed.sections()
                  for _, value in echoed.items(section)]
        argv = ["train"]
        for f, value in zip(fields(config), values, strict=True):
            flag = "--out" if f.name == "out_dir" else "--" + f.name.replace(
                "_", "-")
            argv += [flag, value]
        p = tmp_path / "c.cfg"
        p.write_text(text)
        from_flags = _resolve_config(build_parser().parse_args(argv))
        assert from_flags == load_config(p) == config

    @pytest.mark.parametrize("name", [
        "fmnist-full", "fmnist-simple", "fmnist-desk", "lung-full",
        "lung-simple"])
    def test_presets_parse_and_validate_shape(self, name):
        config = load_config(preset_path(name))
        # dataset paths are machine specific, so only check model knobs
        assert config.epochs >= 1
        assert config.learning_rate == 0.05
        assert all(h % 4 == 0 for h in config.hidden_sizes)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_path("mystery-profile")


class TestCliTrain:
    def test_train_writes_all_artifacts(self, toy_csv, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--csv-path", str(toy_csv), "--epochs", "2",
                     "--hidden-sizes", "8,8", "--density-mode",
                     "fixed_density", "--density-value", "0.6",
                     "--batch-size", "16", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint.bin", "evolution.csv", "manifest.txt", "metrics.csv"]
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 3  # header + 2 epochs
        result = read_manifest_result(out / "manifest.txt")
        assert "final_accuracy" in result and "total_flops" in result
        assert "numpy" in result  # environment echo

    def test_manifest_refeed_reproduces_run(self, toy_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        base = ["--csv-path", str(toy_csv), "--epochs", "3",
                "--hidden-sizes", "8,8", "--density-mode", "fixed_density",
                "--density-value", "0.5", "--seed", "7"]
        assert main(["train", *base, "--out", str(out1)]) == 0
        assert main(["train", "--config", str(out1 / "manifest.txt"),
                     "--out", str(out2)]) == 0
        assert ((out1 / "checkpoint.bin").read_bytes()
                == (out2 / "checkpoint.bin").read_bytes())

    def test_config_error_exit_code(self, tmp_path):
        code = main(["train", "--csv-path", "x.csv", "--epochs", "0",
                     "--out", str(tmp_path / "r")])
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"),
                                            ("--init-seed", "-3")])
    def test_negative_seed_exit_code(self, toy_csv, tmp_path, capsys, flag,
                                     value):
        code = main(["train", "--csv-path", str(toy_csv), flag, value,
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "seeds must be >= 0" in capsys.readouterr().err

    def test_data_error_exit_code(self, tmp_path):
        missing = tmp_path / "missing.csv"
        code = main(["train", "--csv-path", str(missing),
                     "--out", str(tmp_path / "r")])
        assert code == 3

    def test_both_config_and_preset_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[train]\nepochs = 1\n")
        code = main(["train", "--config", str(p), "--preset", "fmnist-desk",
                     "--out", str(tmp_path / "r")])
        assert code == 2

    def test_rerun_into_a_used_directory(self, toy_csv, tmp_path):
        """A run that trains removes an earlier run's checkpoint and
        manifest, so one that then fails leaves none to be scored; a run
        refused before training leaves them as they are."""
        out = tmp_path / "run"
        train = ["train", "--csv-path", str(toy_csv), "--epochs", "2",
                 "--out", str(out)]
        assert main(train) == 0
        kept = {name: (out / name).read_bytes()
                for name in ("checkpoint.bin", "manifest.txt")}
        assert main([*train, "--epochs", "0"]) == 2
        assert main([*train, "--cache-path", str(tmp_path / "no.bin")]) == 3
        assert {name: (out / name).read_bytes() for name in kept} == kept
        assert main([*train, "--learning-rate", "1e300"]) == 4
        assert not (out / "checkpoint.bin").exists()
        assert not (out / "manifest.txt").exists()
        assert (out / "metrics.csv").exists()


class TestCliPrepareAndCache:
    def test_prepare_then_train_matches_direct(self, toy_csv, tmp_path):
        cache = tmp_path / "cache.bin"
        assert main(["prepare", "--csv-path", str(toy_csv), "--seed", "5",
                     "--cache-out", str(cache)]) == 0
        assert not list(tmp_path.glob("*.tmp"))
        direct, cached = tmp_path / "direct", tmp_path / "cached"
        base = ["--epochs", "2", "--hidden-sizes", "8,8", "--seed", "5",
                "--density-mode", "fixed_density", "--density-value", "0.5"]
        assert main(["train", "--csv-path", str(toy_csv), *base,
                     "--out", str(direct)]) == 0
        assert main(["train", "--csv-path", str(toy_csv), "--cache-path",
                     str(cache), *base, "--out", str(cached)]) == 0
        assert ((direct / "checkpoint.bin").read_bytes()
                == (cached / "checkpoint.bin").read_bytes())

    def test_corrupt_cache_exit_code(self, toy_csv, tmp_path):
        cache = tmp_path / "cache.bin"
        main(["prepare", "--csv-path", str(toy_csv), "--cache-out",
              str(cache)])
        raw = bytearray(cache.read_bytes())
        raw[-1] ^= 0x01
        cache.write_bytes(bytes(raw))
        code = main(["train", "--csv-path", str(toy_csv), "--cache-path",
                     str(cache), "--epochs", "1",
                     "--out", str(tmp_path / "r")])
        assert code == 3

    @pytest.mark.parametrize("name", ["x_train", "x_test"])
    def test_non_finite_cache_exit_code(self, tmp_path, capsys, name):
        """A cache holding a NaN is bad input (exit 3), in either split: in
        the training split it ended in a numerical failure (exit 4), and in
        the test split it was scored without a word (exit 0)."""
        rng = np.random.default_rng(7)
        ds = Dataset(rng.normal(size=(40, 6)),
                     one_hot(rng.integers(0, 3, 40), 3),
                     rng.normal(size=(10, 6)),
                     one_hot(rng.integers(0, 3, 10), 3))
        getattr(ds, name)[4, 2] = np.nan  # after the Dataset's own check
        cache, out = tmp_path / "cache.bin", tmp_path / "r"
        save_dataset_cache(ds, cache)
        assert main(["train", "--cache-path", str(cache), "--hidden-sizes",
                     "4,4", "--epochs", "1", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            f"data error: {name[2:]}: feature column 2 holds nan at row 4")
        assert not out.exists()

    def test_missing_cache_exit_code(self, toy_csv, tmp_path, capsys):
        # a cache_path replaces the raw loaders, so a typo must not fall
        # back to the CSV
        out = tmp_path / "r"
        code = main(["train", "--csv-path", str(toy_csv), "--cache-path",
                     str(tmp_path / "typo.bin"), "--epochs", "1",
                     "--out", str(out)])
        assert code == 3
        assert "i/o error:" in capsys.readouterr().err
        assert not out.exists()


def _idx_args(tmp_path, n_train, n_test, side):
    """Write a train/test IDX pair of ``side x side`` images; CLI flags."""
    args = ["--dataset-kind", "idx"]
    for split, n in (("train", n_train), ("test", n_test)):
        images = tmp_path / f"{split}-images"
        labels = tmp_path / f"{split}-labels"
        write_idx(images, labels, np.zeros((n, side, side)), np.arange(n) % 2)
        args += [f"--{split}-images", str(images), f"--{split}-labels",
                 str(labels)]
    return args


def test_truncated_gzip_idx_exit_code(tmp_path, capsys):
    """A gzipped IDX file cut short is bad input (exit 3), not a crash."""
    args = _idx_args(tmp_path, 40, 4, 4)
    images = tmp_path / "train-images.gz"
    labels = tmp_path / "train-labels"
    rng = np.random.default_rng(0)
    write_idx(images, labels, rng.integers(0, 256, size=(40, 4, 4)),
              np.arange(40) % 2)
    raw = images.read_bytes()
    images.write_bytes(raw[:len(raw) // 2])
    args[args.index("--train-images") + 1] = str(images)
    assert main(["train", *args, "--hidden-sizes", "4", "--epochs", "1",
                 "--out", str(tmp_path / "r")]) == 3
    assert capsys.readouterr().err.startswith("data error:")


def test_value_lost_in_manifest_exit_code(toy_csv, tmp_path, capsys):
    """A path the manifest would not echo back is refused before training."""
    odd = tmp_path / "a #b.csv"
    odd.write_bytes(toy_csv.read_bytes())
    out = tmp_path / "r"
    assert main(["train", "--csv-path", str(odd), "--epochs", "1",
                 "--out", str(out)]) == 2
    assert "config error: csv_path = " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gz", [False, True], ids=["raw", "gz"])
@pytest.mark.parametrize("count", [2**32 - 1, 60000])
def test_idx_header_overstating_payload_exit_code(tmp_path, capsys, gz,
                                                  count):
    """An image header declaring more bytes than the file holds is bad
    input (exit 3), not an OverflowError or MemoryError."""
    args = _idx_args(tmp_path, 4, 4, 2)
    images = tmp_path / ("train-images.gz" if gz else "train-images")
    with (gzip.open if gz else open)(images, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, count, 2**16 - 1, 2**16 - 1))
    args[args.index("--train-images") + 1] = str(images)
    assert main(["prepare", *args, "--cache-out",
                 str(tmp_path / "cache.bin")]) == 3
    assert "more than the file can hold" in capsys.readouterr().err


@pytest.mark.parametrize("cell", [b"\xff", b"1" * (2**17 + 1)],
                         ids=["undecodable", "oversized-field"])
def test_unreadable_csv_exit_code(tmp_path, capsys, cell):
    path = tmp_path / "d.csv"
    path.write_bytes(b"1,2,a\n3," + cell + b",b\n")
    assert main(["train", "--csv-path", str(path), "--epochs", "1",
                 "--out", str(tmp_path / "r")]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {path}: ")


# header fields at the extremes an IDX file can state
_EXTREMES = st.sampled_from([0, 1, 2, 255, 2**16 - 1, 2**31, 2**32 - 1])


@st.composite
def _idx_file(draw, raw: bytes, header_fields: int) -> bytes:
    """``raw``, damaged or with header fields after the magic replaced."""
    kind = draw(st.sampled_from(["keep", "damage", "header"]))
    if kind == "damage":
        return draw(damaged(raw))
    if kind == "header":
        head = struct.Struct(f">{header_fields}I")
        magic, *sizes = head.unpack(raw[:head.size])
        sizes = [draw(st.one_of(st.just(v), _EXTREMES)) for v in sizes]
        return head.pack(magic, *sizes) + raw[head.size:]
    return raw


def _prepare_exit_code(directory, args) -> int:
    """``prepare``'s exit code; any exception escaping main fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(["prepare", *args, "--cache-out",
                     str(directory / "cache.bin")])


@given(data=st.data(), gz=st.booleans())
@settings(max_examples=80, deadline=None)
def test_fuzzed_idx_prepare_exit_code(tmp_path_factory, data, gz):
    """Damaged IDX pairs, or pairs whose headers state extreme counts and
    sizes, end in exit 0 or a typed error's 2 or 3, never a traceback."""
    directory = tmp_path_factory.mktemp("idx")
    rng = np.random.default_rng(0)
    args = ["--dataset-kind", "idx", "--standardize", "false"]
    for split, n in (("train", 6), ("test", 3)):
        images, labels = directory / "images", directory / "labels"
        write_idx(images, labels, rng.integers(0, 256, size=(n, 2, 3)),
                  np.arange(n) % 3)
        for kind, source, header_fields in (("images", images, 4),
                                            ("labels", labels, 2)):
            raw = data.draw(_idx_file(source.read_bytes(), header_fields))
            path = directory / f"{split}-{kind}"
            if gz:
                raw = gzip.compress(raw, mtime=0)
                if data.draw(st.booleans()):
                    raw = data.draw(damaged(raw))
                path = path.with_suffix(".gz")
            path.write_bytes(raw)
            args += [f"--{split}-{kind}", str(path)]
    assert _prepare_exit_code(directory, args) in (0, 2, 3)


# finite cells, two of which overflow float64 when a column is standardized
_CSV_NUMBERS = ["1", "-2.5", "0", "1e308", "-1.7e308"]
_CSV_CELLS = st.sampled_from([*_CSV_NUMBERS, "1e400", "nan", "a", "", " 3 ",
                              '"4"', "x,y", "\udcff", "é"])


def _csv_bytes(rows) -> bytes:
    return "\n".join(",".join(r) for r in rows).encode("utf-8",
                                                       "surrogateescape")


@given(data=st.one_of(
    st.binary(max_size=200),
    st.lists(st.lists(_CSV_CELLS, min_size=1, max_size=4),
             max_size=12).map(_csv_bytes),
    # rectangular and numeric, so that most examples are standardized
    st.integers(2, 4).flatmap(lambda width: st.lists(
        st.lists(st.sampled_from(_CSV_NUMBERS), min_size=width,
                 max_size=width), min_size=3, max_size=12)).map(_csv_bytes)))
@settings(max_examples=80, deadline=None)
def test_fuzzed_csv_prepare_exit_code(tmp_path_factory, data):
    """Arbitrary CSV bytes end in exit 0 or a typed error's 2 or 3."""
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(data)
    assert _prepare_exit_code(path.parent,
                              ["--csv-path", str(path)]) in (0, 2, 3)


# values of each fuzzed training flag that a run may take, edges included
_TRAIN_FLAGS = {
    "--epochs": st.sampled_from(["1", "2"]),
    "--batch-size": st.sampled_from(["0", "1", "2", "5"]),
    "--hidden-sizes": st.lists(st.sampled_from(["2", "4", "8"]),
                               min_size=1, max_size=2).map(",".join),
    # the IDX images have 4 pixels and the CSV rows 2 features
    "--motif-size": st.sampled_from(["1", "2", "4"]),
    "--density-mode": st.sampled_from([ER_MODE, FIXED_MODE]),
    "--density-value": st.sampled_from(["0.01", "0.5", "1", "1.5", "20"]),
    # 1e300 overflows in the first step
    "--learning-rate": st.sampled_from(["0.01", "0.5", "1e300"]),
    "--train-limit": st.sampled_from(["0", "1", "2", "5"]),
    "--test-limit": st.sampled_from(["0", "1", "2", "5"]),
}
# a value that one flag may refuse
_ODD_VALUES = st.sampled_from(["0", "-1", "x", "", "nan", "inf", "2,0"])


@given(data=st.data(), source=st.sampled_from(["idx", "csv"]),
       odd=st.one_of(st.none(), st.sampled_from(list(_TRAIN_FLAGS))))
@settings(max_examples=40, deadline=None)
def test_fuzzed_train_exit_code(tmp_path_factory, data, source, odd):
    """Drawn training flags, one of them perhaps given an odd value, on
    tiny IDX or CSV inputs end in exit 0, a typed error's 2 or 3, or a
    numerical failure's 4, never a traceback; a run refused before it
    trains leaves no run directory."""
    directory = tmp_path_factory.mktemp("train")
    if source == "idx":
        argv = ["train", *_idx_args(directory, 6, 3, 2)]
    else:
        csv_path = directory / "d.csv"
        csv_path.write_text("".join(f"{i % 3},{i * 0.5},{i % 2}\n"
                                    for i in range(9)))
        argv = ["train", "--csv-path", str(csv_path)]
    for flag, values in _TRAIN_FLAGS.items():
        argv += [flag, data.draw(_ODD_VALUES if flag == odd else values)]
    out = directory / "run"
    code = _cli_exit_code([*argv, "--out", str(out)])
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        assert not out.exists()
    else:
        assert (out / "metrics.csv").is_file()


def _label_only_csv(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("a\nb\na\nb\na\nb\n")
    return ["--csv-path", str(path)]


@pytest.mark.parametrize("command,make_args,message", [
    ("train", lambda p: _idx_args(p, 0, 3, 2), "train: no samples"),
    ("train", lambda p: _idx_args(p, 3, 0, 2), "test: no samples"),
    ("train", lambda p: _idx_args(p, 3, 3, 0), "no feature columns"),
    ("train", _label_only_csv, "no feature columns"),
    ("prepare", _label_only_csv, "no feature columns"),
], ids=["idx-empty-train", "idx-empty-test", "idx-0x0-pixels",
        "csv-label-only-train", "csv-label-only-prepare"])
def test_empty_or_featureless_data_exit_code(tmp_path, capsys, command,
                                             make_args, message):
    """An empty split or zero feature columns is a data error (exit 3)."""
    argv = [command, *make_args(tmp_path), "--hidden-sizes", "4",
            "--epochs", "1", "--out", str(tmp_path / "r")]
    if command == "prepare":
        argv += ["--cache-out", str(tmp_path / "cache.bin")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and message in err
    assert not (tmp_path / "cache.bin").exists()
    assert not (tmp_path / "r" / "metrics.csv").exists()


def test_non_finite_csv_feature_exit_code(toy_csv, tmp_path, capsys):
    """A nan cell is bad input (exit 3), not a training failure (exit 4)."""
    lines = toy_csv.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = "nan"
    lines[5] = ",".join(cells)
    toy_csv.write_text("\n".join(lines) + "\n")
    assert main(["train", "--csv-path", str(toy_csv), "--epochs", "1",
                 "--hidden-sizes", "8,8", "--out", str(tmp_path / "r")]) == 3
    assert "row 5, column 2: 'nan' is not a finite number" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command", ["prepare", "train"])
def test_csv_that_overflows_when_standardized_exit_code(toy_csv, tmp_path,
                                                        capsys, command):
    """A column whose mean or spread overflows float64 is bad input (exit
    3), not a training failure, and leaves no cache and no run directory."""
    lines = toy_csv.read_text().splitlines()
    lines = [",".join(["1e308", *line.split(",")[1:]]) for line in lines]
    toy_csv.write_text("\n".join(lines) + "\n")
    out, cache = tmp_path / "r", tmp_path / "cache.bin"
    assert main([command, "--csv-path", str(toy_csv), "--epochs", "1",
                 "--hidden-sizes", "8,8", "--out", str(out),
                 *["--cache-out", str(cache)] * (command == "prepare")]) == 3
    assert capsys.readouterr().err.startswith(
        "data error: feature column 0 overflows float64 when standardized")
    assert not out.exists() and not cache.exists()


def _manifest(tmp_path, name, train_time, accuracy):
    config = ExperimentConfig(csv_path="toy.csv")
    from motifset.config import config_to_text
    text = config_to_text(config, {"final_accuracy": accuracy,
                                   "total_time_s": train_time + 1.0,
                                   "train_time_s": train_time,
                                   "total_flops": int(train_time * 1e6)})
    path = tmp_path / name
    path.write_text(text)
    return path


class TestCliScoreSweep:
    def test_score_reference_values(self, tmp_path, capsys):
        base = _manifest(tmp_path, "base.txt", 25236.2, 0.761)
        var = _manifest(tmp_path, "var.txt", 14307.5, 0.733)
        out = tmp_path / "scored"
        assert main(["score", "--baseline", str(base), "--variant",
                     str(var), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "S=0.910191" in printed
        assert [p.name for p in out.iterdir()] == ["score.csv"]
        assert (out / "score.csv").read_text().splitlines()[1] == (
            "0.1,0.9,0.43305648235471267,0.03679369250985549,"
            "0.9101913249766013,0.9")

    def test_sweep_finds_crossover(self, tmp_path, capsys):
        base = _manifest(tmp_path, "base.txt", 25236.2, 0.761)
        var = _manifest(tmp_path, "var.txt", 14307.5, 0.733)
        out = tmp_path / "swept"
        assert main(["sweep", "--baseline", str(base), "--variant",
                     str(var), "--out", str(out)]) == 0
        assert "0.08" in capsys.readouterr().out
        assert [p.name for p in out.iterdir()] == ["sweep.csv"]
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 102  # header + 101 grid points
        # the bytes of the default 101-point sweep, frozen
        digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
        assert digest == ("8e95a9419b651004c6f2187283284b47"
                          "a95793ea9f83d428dbf1cfc1c84d45b9")

    def test_sweep_explicit_grid_fixed_point(self, tmp_path, capsys):
        base = _manifest(tmp_path, "base.txt", 100.0, 0.9)
        var = _manifest(tmp_path, "var.txt", 100.0, 0.9)
        assert main(["sweep", "--baseline", str(base), "--variant",
                     str(var), "--grid", "0,0.5,1",
                     "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "sweep.csv").read_text().strip().splitlines()
        scores = [float(r.split(",")[4]) for r in rows[1:]]
        assert scores == [1.0, 0.5, 0.0]

    @pytest.mark.parametrize("flags", [
        ["--grid", "a,b"], ["--grid", "2"], ["--grid", ""]])
    def test_bad_grid_exit_code(self, tmp_path, capsys, flags):
        base = _manifest(tmp_path, "base.txt", 100.0, 0.9)
        assert main(["sweep", "--baseline", str(base), "--variant",
                     str(base), *flags]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "sweep"])
    def test_non_numeric_result_exit_code(self, tmp_path, capsys, command):
        base = _manifest(tmp_path, "base.txt", 100.0, 0.9)
        var = _manifest(tmp_path, "var.txt", 100.0, "high")
        assert main([command, "--baseline", str(base), "--variant",
                     str(var)]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "sweep"])
    @pytest.mark.parametrize("key", ["train_time_s", "final_accuracy"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_result_exit_code(self, tmp_path, capsys, command,
                                         key, value):
        base = _manifest(tmp_path, "base.txt", 100.0, 0.9)
        var = tmp_path / "var.txt"
        var.write_text(re.sub(f"(?m)^{key} = .*$", f"{key} = {value}",
                              base.read_text()))
        assert main([command, "--baseline", str(base), "--variant",
                     str(var)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and key in err

    def test_nan_w_eff_exit_code(self, tmp_path, capsys):
        base = _manifest(tmp_path, "base.txt", 100.0, 0.9)
        for w_eff in ("nan", "-0.1", "1.5"):
            assert main(["score", "--baseline", str(base), "--variant",
                         str(base), "--w-eff", w_eff]) == 2
            assert "config error:" in capsys.readouterr().err

    def test_use_flops_channel(self, tmp_path, capsys):
        base = _manifest(tmp_path, "base.txt", 10.0, 0.8)
        var = _manifest(tmp_path, "var.txt", 5.0, 0.8)
        assert main(["score", "--baseline", str(base), "--variant",
                     str(var), "--use-flops"]) == 0
        assert "R_r=0.500000" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["score", "sweep"])
    def test_variant_without_final_accuracy_exit_code(self, tmp_path,
                                                       capsys, command):
        base = _manifest(tmp_path, "base.txt", 100.0, 0.9)
        var = tmp_path / "var.txt"
        var.write_text(re.sub(r"(?m)^final_accuracy = .*\n", "",
                              base.read_text()))
        with pytest.raises(MissingFieldError, match="'final_accuracy'"):
            run_sweep(base, var)
        assert main([command, "--baseline", str(base), "--variant",
                     str(var)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "final_accuracy" in err

    def test_missing_result_field_exit_code(self, tmp_path):
        config = ExperimentConfig(csv_path="toy.csv")
        path = tmp_path / "no_result.txt"
        path.write_text(config_to_text(config))
        code = main(["score", "--baseline", str(path), "--variant",
                     str(path)])
        assert code == 2


_NO_HEADER = "epochs = 3\n"
_DUPLICATE_KEY = "[train]\nepochs = 3\nepochs = 4\n"


@pytest.mark.parametrize("command,text,code,prefix", [
    ("train", None, 2, "config error:"),
    ("train", _NO_HEADER, 2, "config error:"),
    ("train", _DUPLICATE_KEY, 2, "config error:"),
    ("score", None, 3, "i/o error:"),
    ("score", _NO_HEADER, 2, "config error:"),
    ("score", _DUPLICATE_KEY, 2, "config error:"),
    ("sweep", None, 3, "i/o error:"),
    ("sweep", _NO_HEADER, 2, "config error:"),
    ("sweep", _DUPLICATE_KEY, 2, "config error:"),
], ids=["train-missing", "train-no-header", "train-duplicate-key",
        "score-missing", "score-no-header", "score-duplicate-key",
        "sweep-missing", "sweep-no-header", "sweep-duplicate-key"])
def test_bad_config_or_manifest_file(tmp_path, capsys, command, text, code,
                                     prefix):
    """Missing config: exit 2; missing manifest: exit 3 like any other
    missing input; malformed text in either: exit 2, never a traceback."""
    bad = tmp_path / "bad.txt"
    if text is not None:
        bad.write_text(text)
    if command == "train":
        argv = ["train", "--config", str(bad), "--out", str(tmp_path / "r")]
    else:
        good = _manifest(tmp_path, "good.txt", 100.0, 0.9)
        argv = [command, "--baseline", str(bad), "--variant", str(good)]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(prefix)


def _cli_exit_code(argv) -> int:
    """``main``'s exit code, or argparse's when it rejects an option's text;
    any other exception escaping main fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


# numbers, text that float() reads or refuses, and configparser syntax
_RESULT_VALUE = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", " 1", "1e400", "0x10", "1_0", "%(x)s", "1 # c",
                     "a", "0,1"]),
    st.text(max_size=6))


@st.composite
def _result_section(draw) -> str:
    """A manifest's ``[result]`` text: any text, or a positive number under
    each key, with some keys dropped or given other text."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(max_size=40))
    text = ""
    for key in ("train_time_s", "final_accuracy", "total_flops"):
        if draw(st.integers(0, 4)):
            value = repr(draw(st.floats(1e-3, 1e6)))
        else:
            value = draw(st.one_of(st.none(), _RESULT_VALUE))
        if value is not None:
            text += f"{key} = {value}\n"
    return text


@given(command=st.sampled_from(["score", "sweep"]),
       results=st.tuples(_result_section(), _result_section()),
       value=st.one_of(st.none(), _RESULT_VALUE, st.lists(
           st.floats(0, 1).map(repr), min_size=1, max_size=3).map(",".join)),
       use_flops=st.booleans())
@settings(max_examples=80, deadline=None)
def test_fuzzed_score_and_sweep_exit_code(tmp_path_factory, command,
                                          results, value, use_flops):
    """Drawn manifest ``[result]`` sections and ``--w-eff`` or ``--grid``
    text end in exit 0 or a typed error's 2 or 3, never a traceback."""
    directory = tmp_path_factory.mktemp("manifests")
    argv = [command]
    for role, result in zip(("baseline", "variant"), results):
        path = directory / f"{role}.txt"
        text = config_to_text(ExperimentConfig()) + "\n[result]\n" + result
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        argv += [f"--{role}", str(path)]
    if value is not None:
        argv.append(("--w-eff=" if command == "score" else "--grid=")
                    + value)
    if use_flops:
        argv.append("--use-flops")
    assert _cli_exit_code(argv) in (0, 2, 3)


class TestCliExportTopology:
    def test_export_from_checkpoint_parses(self, toy_csv, tmp_path):
        out = tmp_path / "run"
        main(["train", "--csv-path", str(toy_csv), "--epochs", "1",
              "--hidden-sizes", "8,8", "--motif-size", "2",
              "--density-mode", "fixed_density", "--density-value", "0.5",
              "--out", str(out)])
        topo_file = tmp_path / "topo.txt"
        assert main(["export-topology", "--checkpoint",
                     str(out / "checkpoint.bin"),
                     "--out", str(topo_file)]) == 0
        from motifset.topology import parse_topology
        topo = parse_topology(topo_file.read_text())
        assert topo.layer_sizes == (8, 8, 8, 3)
        assert topo.motif_size == 2

    def test_export_from_config(self, tmp_path, capsys):
        assert main(["export-topology", "--hidden-sizes", "8,8",
                     "--motif-size", "2", "--density-mode", "fixed_density",
                     "--density-value", "1.0", "--input-size", "8",
                     "--output-size", "4"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("motif-topology v1")
        from motifset.topology import parse_topology
        assert parse_topology(text).layer_sizes == (8, 8, 8, 4)

    @pytest.mark.parametrize("flag,value", [
        ("--output-size", "0"), ("--motif-size", "0"), ("--input-size", "-4"),
        ("--hidden-sizes", "0"), ("--hidden-sizes", "8,,8"),
        ("--hidden-sizes", "8,")])
    def test_bad_size_exit_code(self, capsys, flag, value):
        # argparse keeps the last value given for a flag
        assert main(["export-topology", "--input-size", "8",
                     "--hidden-sizes", "8", "--output-size", "4",
                     flag, value]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and value in err


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fuzzed_export_topology_checkpoint_exit_code(tmp_path_factory, data):
    """A damaged checkpoint ends in exit 3, never a traceback or a topology."""
    path = tmp_path_factory.mktemp("ck") / "checkpoint.bin"
    save_checkpoint(small_network(sizes=(8, 8, 4)), path)
    path.write_bytes(data.draw(damaged(path.read_bytes())))
    assert _cli_exit_code(["export-topology", "--checkpoint", str(path)]) == 3
