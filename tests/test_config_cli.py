"""Config parsing/echo, preset resolution, CLI subcommands and exit codes."""
import configparser
from dataclasses import fields

import numpy as np
import pytest

from motifset.cli import _resolve_config, build_parser, main
from motifset.config import (
    ExperimentConfig,
    apply_overrides,
    config_to_text,
    load_config,
    preset_path,
    read_manifest_result,
)
from motifset.errors import ConfigError


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

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[train]\nwarp_speed = 9\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_result_section_ignored(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[train]\nepochs = 3\n[result]\nfinal_accuracy = 0.5\n")
        assert load_config(p).epochs == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("learning_rate", -0.1), ("motif_size", 0),
        ("zeta", 1.0), ("weight_mode", "psychic"), ("batch_size", -1),
        ("evolution_period", 0), ("w_eff", 0.5),  # w_eff+w_acc != 1
        ("density_value", float("inf")),
    ])
    def test_validation_failures(self, field, value):
        config = ExperimentConfig(csv_path="x.csv")
        setattr(config, field, value)
        with pytest.raises(ConfigError):
            config.validate()

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
            evolution_period=2, w_eff=0.25, w_acc=0.75, topology_seed=1,
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
        row = (out / "score.csv").read_text().strip().splitlines()[1]
        assert float(row.split(",")[4]) == pytest.approx(
            0.9101913249766013, abs=1e-15)

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
        ["--grid", "a,b"], ["--grid", "2"], ["--grid-step", "-0.1"],
        ["--grid-step", "1.5"]])
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

    def test_use_flops_channel(self, tmp_path, capsys):
        base = _manifest(tmp_path, "base.txt", 10.0, 0.8)
        var = _manifest(tmp_path, "var.txt", 5.0, 0.8)
        assert main(["score", "--baseline", str(base), "--variant",
                     str(var), "--use-flops"]) == 0
        assert "R_r=0.500000" in capsys.readouterr().out

    def test_missing_result_field_exit_code(self, tmp_path):
        config = ExperimentConfig(csv_path="toy.csv")
        path = tmp_path / "no_result.txt"
        path.write_text(config_to_text(config))
        code = main(["score", "--baseline", str(path), "--variant",
                     str(path)])
        assert code == 2


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
