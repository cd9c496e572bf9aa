"""Run orchestration: train, prepare, and sweep entry points.

``run_train`` is set-up, then per epoch ``_train_epoch`` (minibatch SGD
over a seeded shuffle), eval and any scheduled evolution event, then the
final writes.  Both look their package callees up as module globals at
call time, so a caller can wrap those there.  Files in the run directory:

* ``metrics.csv``: one row per epoch (loss, test accuracy, wall time,
  analytic MACs), flushed as it goes.
* ``evolution.csv``: one row per evolution event and layer.
* ``checkpoint.bin``: final network, bit-exact restorable.
* ``manifest.txt``: resolved config echo plus a ``[result]`` section;
  feeding it back in reproduces the run, and ``run_sweep`` reads its
  result block.
"""
from __future__ import annotations

import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import save_checkpoint
from .config import ExperimentConfig, config_to_text, read_manifest_result
from .container import atomic_open
from .data import (
    Dataset,
    build_csv_dataset,
    build_idx_dataset,
    limit_dataset,
    load_dataset_cache,
    save_dataset_cache,
)
from .errors import ConfigError, MissingFieldError, NonFiniteError
from .evolution import EVOLUTION_CSV_HEADER, evolution_schedule, evolve
from .metrics import (
    METRICS_CSV_HEADER,
    SCORE_CSV_HEADER,
    RunMeasurement,
    SweepResult,
    flop_counter,
    score_csv_rows,
    tradeoff_sweep,
)
from .network import (backward, forward, gradient_buffer, init_network, loss,
                      predict_accuracy, sgd_step)
from .topology import build_topology


def load_dataset(config: ExperimentConfig) -> Dataset:
    """Materialize the dataset a config describes; a set ``cache_path``
    replaces the raw loaders, so a missing cache file raises OSError."""
    if config.cache_path:
        dataset = load_dataset_cache(config.cache_path)
    elif config.dataset_kind == "idx":
        dataset = build_idx_dataset(
            config.train_images, config.train_labels,
            config.test_images, config.test_labels,
            apply_standardize=config.standardize,
        )
    else:
        dataset = build_csv_dataset(
            config.csv_path, config.label_column, config.test_fraction,
            config.split_seed, apply_standardize=config.standardize,
        )
    return limit_dataset(dataset, config.train_limit, config.test_limit)


def run_prepare(config: ExperimentConfig, cache_out) -> Dataset:
    """Build the configured dataset and write it to a cache container."""
    config.validate()
    dataset = load_dataset(config)
    cache_out = Path(cache_out)
    cache_out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset_cache(dataset, cache_out)
    return dataset


def _check_finite(network, where: str):
    """Raise NonFiniteError naming the first layer with a NaN or infinite
    weight or bias; ``where`` says when in the run it was found."""
    for i, layer in enumerate(network.layers):
        if not (np.isfinite(layer.weights).all()
                and np.isfinite(layer.bias).all()):
            raise NonFiniteError(f"non-finite parameters in layer {i} {where}")


def _train_epoch(network, dataset: Dataset, order: np.ndarray,
                 config: ExperimentConfig, epoch: int) -> float:
    """Minibatch SGD over the training rows in ``order``; returns the mean
    loss.  Raises NonFiniteError at the first batch whose loss is not finite.

    Every step forms each layer's weight gradient in one buffer that lives
    only for this call, so none survives into eval, evolution or saving.
    ``sgd_step`` applies each pair as ``backward`` yields it, so a row
    slice's batch mean, mask and update run while it is in cache.
    """
    x_tr, y_tr = dataset.x_train, dataset.y_train
    n = order.size
    batch_size = config.batch_size if config.batch_size > 0 else n
    grad_buffer = gradient_buffer(network)
    loss_sum = 0.0
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        y = y_tr[idx]
        cache = forward(network, x_tr[idx])
        batch_loss = loss(cache, y)
        if not np.isfinite(batch_loss):
            where = f"at epoch {epoch}, batch {start // batch_size}"
            _check_finite(network, where)
            raise NonFiniteError(f"non-finite loss {batch_loss} "
                                 f"{where}, from finite parameters")
        loss_sum += batch_loss * idx.size
        sgd_step(backward(network, cache, y, grad_buffer),
                 config.learning_rate)
    return loss_sum / n


def run_train(config: ExperimentConfig, echo=print) -> RunMeasurement:
    """Train a network per the config; writes run files, returns measurements.

    Raises NonFiniteError at the first batch whose loss is not finite,
    naming the epoch, batch and first non-finite layer, whatever numpy's
    error state or the warnings filter; the epoch gets no ``metrics.csv`` row.
    """
    config.validate()
    t_start = time.perf_counter()
    dataset = load_dataset(config)
    # init_network copies the topology it is given, so the run keeps no
    # reference to this one
    network = init_network(
        build_topology((dataset.n_features, *config.hidden_sizes,
                        dataset.n_classes), config.motif_size,
                       config.density_spec(), seed=config.topology_seed),
        config.activation, config.init_scheme, config.init_seed,
        config.weight_mode)
    policy = config.evolution_policy()
    n = dataset.x_train.shape[0]
    shuffle_rng = np.random.default_rng(config.shuffle_seed)
    run = RunMeasurement()
    # made only now, so a run refused before training leaves no directory
    # and an earlier run's results in it as they are; from here on those
    # go, so a run that fails leaves none of them beside its own files
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("checkpoint.bin", "manifest.txt"):
        (out_dir / name).unlink(missing_ok=True)

    with (open(out_dir / "metrics.csv", "w") as mf,
          open(out_dir / "evolution.csv", "w") as ef,
          np.errstate(all="ignore")):
        mf.write(METRICS_CSV_HEADER + "\n")
        ef.write(EVOLUTION_CSV_HEADER + "\n")
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            train_loss = _train_epoch(network, dataset,
                                      shuffle_rng.permutation(n), config,
                                      epoch)
            epoch_time = time.perf_counter() - t0
            _check_finite(network, f"after epoch {epoch}")

            accuracy = predict_accuracy(network, dataset.x_test,
                                        dataset.y_test)
            flops = flop_counter(network.topology, config.weight_mode,
                                 n_samples=n).total
            mf.write(run.record_epoch(epoch_time, train_loss, accuracy, flops)
                     + "\n")
            mf.flush()

            if policy is not None and evolution_schedule(
                    epoch, config.epochs, config.evolution_period):
                t_evolve = time.perf_counter()
                _, stats = evolve(network, policy, event_index=epoch)
                run.evolve_time_s += time.perf_counter() - t_evolve
                ef.writelines(row + "\n" for row in stats.csv_rows(epoch))
                ef.flush()

            echo(f"epoch {epoch}: loss={train_loss:.6f} "
                 f"test_acc={accuracy:.4f} time={epoch_time:.3f}s")

    run.total_time_s = time.perf_counter() - t_start
    save_checkpoint(network, out_dir / "checkpoint.bin")
    result = {
        "final_accuracy": run.final_accuracy,
        "total_time_s": run.total_time_s,
        "train_time_s": float(sum(run.per_epoch_time_s)),
        "evolve_time_s": run.evolve_time_s,
        "total_flops": run.flop_count,
        "epochs": run.n_epochs,
        "final_train_loss": run.train_losses[-1],
        "package_version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    with atomic_open(out_dir / "manifest.txt") as f:
        f.write(config_to_text(config, result))
    return run


def _manifest_measurements(path, use_flops: bool) -> tuple[float, float]:
    """(time-or-flops, accuracy) from a manifest's [result] section."""
    result = read_manifest_result(path)
    time_key = "total_flops" if use_flops else "train_time_s"
    values = []
    for key in (time_key, "final_accuracy"):
        if key not in result:
            raise MissingFieldError(
                f"{path}: manifest [result] lacks {key!r}"
            )
        try:
            value = float(result[key])
        except ValueError:
            value = math.nan  # reported below like a non-finite value
        if not math.isfinite(value):
            raise ConfigError(f"{path}: manifest [result] {key} = "
                              f"{result[key]!r} is not a finite number")
        values.append(value)
    return tuple(values)


def run_sweep(baseline_manifest, variant_manifest, grid=None,
              use_flops: bool = False, out_csv=None) -> SweepResult:
    """Score a variant manifest against a baseline manifest at each
    ``w_eff`` of ``grid`` (default 0 to 1 in steps of 0.01).

    The efficiency channel is wall-clock training time by default, or the
    analytic MAC count with ``use_flops``; ``w_acc`` is ``1 - w_eff``.
    Writes the scores to ``out_csv`` when it is given.
    """
    t_base, a_base = _manifest_measurements(baseline_manifest, use_flops)
    t_var, a_var = _manifest_measurements(variant_manifest, use_flops)
    result = tradeoff_sweep(t_base, t_var, a_base, a_var, grid)
    if out_csv is not None:
        out_csv = Path(out_csv)
        out_csv.parent.mkdir(parents=True, exist_ok=True)
        with atomic_open(out_csv) as f:
            f.write(SCORE_CSV_HEADER + "\n"
                    + "\n".join(score_csv_rows(result)) + "\n")
    return result
