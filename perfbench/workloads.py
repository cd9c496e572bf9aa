"""Benchmark workloads and their input generator.

Each workload fixes a network shape, the training hyperparameters and how
its data reaches ``run_train``.  Inputs come only from the workload seed:
``motifset._synthetic`` writes a fresh synthetic IDX task per seed.  The
model's own seeds stay at the presets' value, so a seed changes the data,
not the training recipe.

Run as a script, this module generates one workload's inputs into a
directory and writes ``inputs.json`` with the SHA-256 of every file.  The
benchmark runs it in a child process, so neither the generator's memory nor
its time counts towards the measured process.

    python3 perfbench/workloads.py --workload desk-m2 --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import dataclasses
import gzip
import hashlib
import json
import shutil
import sys
from pathlib import Path

INPUTS_JSON = "inputs.json"
NOISE_STD = 100.0
MODEL_SEED = 42


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    hidden_sizes: tuple[int, ...]
    motif_size: int
    weight_mode: str
    density_mode: str
    density_value: float
    batch_size: int
    # at least 2: evolution never runs after the last epoch
    epochs: int
    n_train: int
    n_test: int
    # True: train from a run_prepare cache; False: parse gzipped IDX
    cached: bool
    accuracy_floor: float
    blas_threads: int
    # untimed operations before the timed loop, checked like the others
    warmup_ops: int

    def tiny(self) -> "Workload":
        """The same workload on a shape small enough for a smoke run."""
        width = 16 * self.motif_size
        return dataclasses.replace(
            self, hidden_sizes=(width,) * len(self.hidden_sizes),
            n_train=256, n_test=128, accuracy_floor=0.0)


WORKLOADS = {w.name: w for w in (
    Workload(
        # fmnist-desk shape at m=2: the pooled path on small GEMMs, where
        # per-call overhead hides the MAC savings; gz IDX parsing is setup
        name="desk-m2",
        hidden_sizes=(256, 256), motif_size=2, weight_mode="shared",
        density_mode="erdos_renyi_set", density_value=15.7, batch_size=64,
        epochs=3, n_train=10000, n_test=2000, cached=False,
        # the synthetic task reaches about 0.99; a broken update falls far
        accuracy_floor=0.95,
        # on a shared 2-core machine a second thread made these small GEMMs
        # about 5% faster but widened the spread over five seeds from 4-6%
        # to 8-9%
        blas_threads=1,
        # the first call of a process runs about 10% slower than the rest
        warmup_ops=1),
    Workload(
        # fmnist-full shape at m=1 on a 2k slice read from a cache: pooling
        # bypassed; large GEMMs, 3000^2 masked gradients, SGD, evolve on
        # 9M-cell masks and a 180 MB checkpoint dominate
        name="wide-m1",
        hidden_sizes=(3000, 3000, 3000), motif_size=1, weight_mode="shared",
        density_mode="fixed_density", density_value=0.1, batch_size=128,
        epochs=2, n_train=2000, n_test=1000, cached=True,
        # near chance after 2 epochs: accuracy is a determinism check here
        accuracy_floor=0.0, blas_threads=2,
        # two 17 s operations fill a run; a third would not fit the time
        # the whole benchmark may take
        warmup_ops=0),
    Workload(
        # the same shape with independent weights at m=4: the block mask is
        # re-expanded on every backward and evolution loops over blocks.
        # Not in BENCHMARK.json: on a shared 2-core host its run_s spread
        # 17% between runs of two operations, and a third operation per run
        # would not fit the time the whole benchmark may take
        name="wide-m4-indep",
        hidden_sizes=(3000, 3000, 3000), motif_size=4,
        weight_mode="independent", density_mode="fixed_density",
        density_value=0.1, batch_size=128, epochs=2, n_train=2000,
        n_test=1000, cached=True, accuracy_floor=0.0, blas_threads=2,
        warmup_ops=0),
)}


def get_workload(name: str, tiny: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return workload.tiny() if tiny else workload


def run_config(workload: Workload, inputs: dict, out_dir):
    """The ExperimentConfig of one measured ``run_train`` call."""
    from motifset.config import ExperimentConfig

    files = inputs["files"]
    if workload.cached:
        data = {"cache_path": files["cache"]["path"]}
    else:
        data = {key: files[key]["path"] for key in (
            "train_images", "train_labels", "test_images", "test_labels")}
    return ExperimentConfig(
        dataset_kind="idx", **data, standardize=True,
        train_limit=workload.n_train,
        hidden_sizes=workload.hidden_sizes, motif_size=workload.motif_size,
        weight_mode=workload.weight_mode,
        density_mode=workload.density_mode,
        density_value=workload.density_value, epochs=workload.epochs,
        learning_rate=0.05, batch_size=workload.batch_size,
        evolution_mode="magnitude_set", zeta=0.3, evolution_period=1,
        topology_seed=MODEL_SEED, init_seed=MODEL_SEED,
        evolution_seed=MODEL_SEED, split_seed=MODEL_SEED,
        shuffle_seed=MODEL_SEED, out_dir=str(out_dir)).validate()


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _gzip_in_place(path: Path) -> Path:
    gz_path = path.with_name(path.name + ".gz")
    with open(path, "rb") as src, gzip.open(gz_path, "wb") as dst:
        shutil.copyfileobj(src, dst)
    path.unlink()
    return gz_path


def generate_inputs(workload: Workload, seed: int, out_dir) -> dict:
    """Write the workload's input files for ``seed``; return their record."""
    from motifset._synthetic import write_synthetic_idx_dataset
    from motifset.train import run_prepare

    out_dir = Path(out_dir)
    paths = write_synthetic_idx_dataset(
        out_dir / "idx", n_train=workload.n_train, n_test=workload.n_test,
        noise_std=NOISE_STD, seed=seed)
    if workload.cached:
        from motifset.config import ExperimentConfig

        cache = out_dir / "cache.bin"
        run_prepare(ExperimentConfig(
            dataset_kind="idx", **{k: str(p) for k, p in paths.items()},
            standardize=True, train_limit=workload.n_train), cache)
        paths = {**paths, "cache": cache}
    else:
        paths = {key: _gzip_in_place(path) for key, path in paths.items()}
    record = {
        "workload": workload.name,
        "seed": seed,
        "files": {key: {"path": str(path), "bytes": path.stat().st_size,
                        "sha256": sha256_file(path)}
                  for key, path in paths.items()},
    }
    (out_dir / INPUTS_JSON).write_text(json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    generate_inputs(get_workload(args.workload, args.tiny), args.seed,
                    args.out)
    return 0


if __name__ == "__main__":
    from env import SourceMissing, prepare_process
    try:
        prepare_process(blas_threads=1)
    except SourceMissing as exc:
        print(f"workloads: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
