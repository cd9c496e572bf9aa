"""End-to-end training runs: learning dynamics, file outputs, evolution
bookkeeping, and a real-data check when scikit-learn's digits are around."""
import csv
import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import motifset.train
from motifset._synthetic import write_synthetic_idx_dataset
from motifset.config import ExperimentConfig, read_manifest_result
from motifset.errors import NonFiniteError
from motifset.evolution import evolution_schedule
from motifset.metrics import METRICS_CSV_HEADER
from motifset.train import run_train

SRC = Path(motifset.train.__file__).resolve().parents[1]


def _synth_config(paths, out_dir, motif_size=1, epochs=10, **kw):
    base = dict(
        dataset_kind="idx",
        train_images=str(paths["train_images"]),
        train_labels=str(paths["train_labels"]),
        test_images=str(paths["test_images"]),
        test_labels=str(paths["test_labels"]),
        hidden_sizes=(256, 256),
        motif_size=motif_size,
        density_mode="erdos_renyi_set",
        density_value=15.7,
        epochs=epochs,
        learning_rate=0.05,
        batch_size=64,
        out_dir=str(out_dir),
    )
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def synth_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("synth")
    return write_synthetic_idx_dataset(directory, n_train=2000, n_test=500,
                                       noise_std=100.0, seed=5)


class TestSyntheticDeskScale:
    """784-feature 10-class byte images through the full IDX pipeline.

    Reference accuracies with these exact seeds: 0.966 at motif size 1,
    0.976 at motif size 2 (measured once and pinned with margin).
    """

    def test_motif1_learns(self, synth_paths, tmp_path):
        run = run_train(_synth_config(synth_paths, tmp_path / "m1"),
                        echo=lambda *_: None)
        assert run.final_accuracy >= 0.90
        # loss should fall substantially from the ln(10) start
        assert run.train_losses[-1] < 0.5 * run.train_losses[0]

    def test_motif2_close_to_motif1(self, synth_paths, tmp_path):
        r1 = run_train(_synth_config(synth_paths, tmp_path / "m1"),
                       echo=lambda *_: None)
        r2 = run_train(_synth_config(synth_paths, tmp_path / "m2",
                                     motif_size=2),
                       echo=lambda *_: None)
        assert r2.final_accuracy >= 0.90
        assert abs(r1.final_accuracy - r2.final_accuracy) <= 0.05
        # coarser motifs must cost fewer analytic MACs
        assert r2.flop_count < r1.flop_count

    def test_run_artifacts_consistent(self, synth_paths, tmp_path):
        out = tmp_path / "run"
        config = _synth_config(synth_paths, out, epochs=4)
        run = run_train(config, echo=lambda *_: None)

        with open(out / "metrics.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4
        assert [float(r["train_loss"]) for r in rows] == run.train_losses
        assert float(rows[-1]["test_accuracy"]) == run.final_accuracy

        with open(out / "evolution.csv") as f:
            evo = list(csv.DictReader(f))
        # 3 events (never after the final epoch) x 3 weight layers
        assert len(evo) == 9
        fired_epochs = sorted({int(r["epoch"]) for r in evo})
        assert fired_epochs == [0, 1, 2]
        # the clamped-to-dense output layer is flagged, never rewired
        final_rows = [r for r in evo if int(r["layer"]) == 2]
        assert all(int(r["saturated"]) == 1 for r in final_rows)
        assert all(int(r["pruned"]) == 0 for r in final_rows)

    def test_total_time_covers_epoch_times(self, synth_paths, tmp_path):
        run = run_train(_synth_config(synth_paths, tmp_path / "t",
                                      epochs=3),
                        echo=lambda *_: None)
        assert run.total_time_s >= sum(run.per_epoch_time_s)

    def test_evolution_changes_topology_between_epochs(self, synth_paths,
                                                       tmp_path):
        from motifset.checkpoint import load_checkpoint
        from motifset.topology import ER_MODE, BlockDensitySpec, build_topology

        out = tmp_path / "evo"
        config = _synth_config(synth_paths, out, epochs=4)
        run_train(config, echo=lambda *_: None)
        net = load_checkpoint(out / "checkpoint.bin")
        fresh = build_topology((784, 256, 256, 10), 1,
                               BlockDensitySpec(ER_MODE, 15.7),
                               seed=config.topology_seed)
        moved = sum(
            int((a != b).sum())
            for a, b in zip(net.topology.block_masks, fresh.block_masks))
        assert moved > 0  # rewiring actually happened
        # ... while per-layer active counts are conserved
        for a, b in zip(net.topology.block_masks, fresh.block_masks):
            assert int(a.sum()) == int(b.sum())


class TestListing4Training:
    def test_listing4_run_completes_and_keeps_mask(self, synth_paths,
                                                   tmp_path):
        config = _synth_config(
            synth_paths, tmp_path / "l4", epochs=10,
            evolution_mode="listing4", epsilon_prune=0.05,
            noise_scale=0.001)
        run = run_train(config, echo=lambda *_: None)
        # zapping slows learning (reference: 0.78 here vs 0.97 for the
        # magnitude rule) but must not stop it
        assert run.final_accuracy > 0.5


class TestEvolutionDisabled:
    def test_none_mode_writes_no_events(self, synth_paths, tmp_path):
        out = tmp_path / "off"
        config = _synth_config(synth_paths, out, epochs=2,
                               evolution_mode="none")
        run_train(config, echo=lambda *_: None)
        lines = (out / "evolution.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only


@pytest.mark.parametrize("evolution_mode", ["magnitude_set", "none"])
def test_manifest_records_evolve_time(toy_csv, tmp_path, evolution_mode):
    out = tmp_path / "run"
    run_train(ExperimentConfig(
        csv_path=str(toy_csv), hidden_sizes=(8, 8), motif_size=2,
        density_mode="fixed_density", density_value=0.5, epochs=3,
        batch_size=16, evolution_mode=evolution_mode, out_dir=str(out)),
        echo=lambda *_: None)
    result = read_manifest_result(out / "manifest.txt")
    evolve_s = float(result["evolve_time_s"])
    assert (evolve_s > 0.0) == (evolution_mode != "none")
    assert (float(result["train_time_s"]) + evolve_s
            <= float(result["total_time_s"]))


class TestNonFinite:
    def test_stops_at_the_first_non_finite_batch(self, toy_csv, tmp_path):
        # at this rate the first update overflows layer 0's weights, so
        # the second batch's loss is NaN; the epoch is never finished
        out = tmp_path / "nf"
        config = ExperimentConfig(
            csv_path=str(toy_csv), standardize=False, hidden_sizes=(8, 8),
            motif_size=2, density_mode="fixed_density", density_value=0.5,
            epochs=3, learning_rate=1e308, batch_size=16, out_dir=str(out))
        with pytest.raises(
                NonFiniteError, match=r"^non-finite parameters in layer 0 "
                                      r"at epoch 0, batch 1$"):
            run_train(config, echo=lambda *_: None)
        assert (out / "metrics.csv").read_text() == METRICS_CSV_HEADER + "\n"

    def test_caller_error_state_does_not_change_the_failure(self, toy_csv,
                                                            tmp_path):
        # numpy's error state is the caller's; a run that diverges under
        # "raise" still ends in NonFiniteError, not FloatingPointError
        config = ExperimentConfig(
            csv_path=str(toy_csv), hidden_sizes=(8, 8), epochs=2,
            learning_rate=1e308, batch_size=16, out_dir=str(tmp_path / "r"))
        with np.errstate(all="raise"), pytest.raises(NonFiniteError):
            run_train(config, echo=lambda *_: None)
        assert np.geterr()["over"] == "warn"  # and it is restored

    def test_diverging_run_under_warnings_as_errors_exits_4(self, toy_csv,
                                                            tmp_path):
        # "-W error" turns numpy's RuntimeWarnings into exceptions; a run
        # computes under its own error state, so it emits none and stderr
        # is the one failure line
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "motifset.cli", "train",
             "--csv-path", str(toy_csv), "--hidden-sizes", "8,8",
             "--epochs", "2", "--learning-rate", "1e308",
             "--out", str(tmp_path / "r")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert done.returncode == 4, done.stderr
        assert done.stderr.startswith("numerical failure: non-finite ")
        assert done.stderr.count("\n") == 1

    def test_nan_in_an_inactive_gradient_cell_stops_the_run(
            self, toy_csv, tmp_path, monkeypatch):
        # masking multiplies by 0.0, and NaN * 0.0 is NaN, so a NaN the
        # backward product puts only into inactive cells reaches the
        # weights in the fused step; the next batch's loss is NaN and the
        # run stops there
        real_backward = motifset.train.backward
        real_sgd_step = motifset.train.sgd_step
        planted = []

        def backward_with_nan_input(network, cache, y_true, out):
            if not planted:
                layer = network.layers[0]
                empty = np.flatnonzero(~layer.block_mask.any(axis=1))
                assert empty.size, "need a block row with no active block"
                cache.pooled[0] = cache.pooled[0].copy()
                cache.pooled[0][0, empty[0]] = np.nan  # feeds only that row
                planted.extend((empty[0], network))
            return real_backward(network, cache, y_true, out)

        def sgd_step_reaching_weights(grads, learning_rate):
            real_sgd_step(grads, learning_rate)
            if len(planted) == 2:
                row = planted[1].layers[0].weights[planted[0]]
                assert np.isnan(row).all()
                planted.append("weights")

        monkeypatch.setattr(motifset.train, "backward",
                            backward_with_nan_input)
        monkeypatch.setattr(motifset.train, "sgd_step",
                            sgd_step_reaching_weights)
        config = ExperimentConfig(
            csv_path=str(toy_csv), hidden_sizes=(8, 8), motif_size=2,
            density_mode="fixed_density", density_value=0.25, epochs=3,
            learning_rate=0.05, batch_size=16, out_dir=str(tmp_path / "nan"))
        with pytest.raises(
                NonFiniteError, match=r"^non-finite parameters in layer 0 "
                                      r"at epoch 0, batch 1$"):
            run_train(config, echo=lambda *_: None)
        assert planted[2:] == ["weights"]


def test_no_weight_sized_gradient_alive_during_evolve(toy_csv, tmp_path,
                                                     monkeypatch):
    # while evolve runs, the only buffer the size of the 96 x 96 layer's
    # weights is those weights: no gradient or gradient buffer survives
    # the epoch's SGD loop
    real_evolve = motifset.train.evolve
    sizes = []

    def evolve_probed(network, policy, event_index):
        grid = network.layers[1].weights.nbytes
        sizes.append([t.size for t in tracemalloc.take_snapshot().traces
                      if t.size >= grid])
        return real_evolve(network, policy, event_index=event_index)

    monkeypatch.setattr(motifset.train, "evolve", evolve_probed)
    config = ExperimentConfig(
        csv_path=str(toy_csv), hidden_sizes=(96, 96), motif_size=1,
        density_mode="fixed_density", density_value=0.5, epochs=2,
        learning_rate=0.05, batch_size=16, out_dir=str(tmp_path / "run"))
    tracemalloc.start()
    try:
        run_train(config, echo=lambda *_: None)
    finally:
        tracemalloc.stop()
    assert sizes == [[96 * 96 * 8]]


def _traced_names():
    """The ``motifset.train`` globals the benchmark's tracer swaps, read
    from its ``LAYER_OF`` so that this list and that one cannot drift."""
    path = (Path(__file__).resolve().parent.parent / "perfbench"
            / "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return list(tracing.LAYER_OF)


def test_run_train_calls_each_traced_global_directly(toy_csv, tmp_path,
                                                     monkeypatch):
    # the benchmark times run_train's phases by swapping these globals, so
    # each must be looked up on the module at call time and called from
    # run_train or _train_epoch themselves, as often as listed here
    config = ExperimentConfig(
        csv_path=str(toy_csv), hidden_sizes=(8, 8), motif_size=2,
        density_mode="fixed_density", density_value=0.5, epochs=3,
        batch_size=24, out_dir=str(tmp_path / "run"))
    n = motifset.train.load_dataset(config).x_train.shape[0]
    batches = config.epochs * math.ceil(n / config.batch_size)
    events = sum(evolution_schedule(e, config.epochs, config.evolution_period)
                 for e in range(config.epochs))
    assert events > 0 and n % config.batch_size  # a short last batch too

    calls = Counter()
    callers = set()
    for name in _traced_names():
        def counted(*args, _name=name,
                    _real=getattr(motifset.train, name), **kwargs):
            calls[_name] += 1
            callers.add(sys._getframe(1).f_code.co_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(motifset.train, name, counted)
    run_train(config, echo=lambda *_: None)

    assert callers <= {"run_train", "_train_epoch"}
    assert calls == {
        "forward": batches, "loss": batches, "backward": batches,
        "sgd_step": batches,
        "predict_accuracy": config.epochs, "flop_counter": config.epochs,
        "evolve": events,
        "load_dataset": 1, "build_topology": 1, "init_network": 1,
        "save_checkpoint": 1,
    }


def test_digits_real_data_end_to_end(tmp_path):
    """Small real-image sanity check via the labeled-CSV route."""
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    digits = sklearn_datasets.load_digits()
    csv_path = tmp_path / "digits.csv"
    with open(csv_path, "w") as f:
        for row, label in zip(digits.data, digits.target):
            f.write(",".join(str(v) for v in row) + f",{label}\n")
    config = ExperimentConfig(
        csv_path=str(csv_path),
        hidden_sizes=(128, 128),
        motif_size=2,
        density_mode="fixed_density",
        density_value=0.3,
        epochs=15,
        learning_rate=0.05,
        batch_size=32,
        out_dir=str(tmp_path / "digits_run"),
    )
    run = run_train(config, echo=lambda *_: None)
    assert run.final_accuracy >= 0.90
