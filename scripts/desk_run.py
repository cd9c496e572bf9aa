#!/usr/bin/env python3
"""Desk-scale motif comparison: train m=1 and m=2 back to back and score them.

With --synthetic the script generates a small 28x28 10-class IDX dataset
on the fly (smoothed class templates plus pixel noise), so it runs
anywhere in about a minute.  Otherwise it expects the four image
benchmark IDX files under --data-dir (default data/fmnist) and uses the
fmnist-desk preset: 10000 training samples, 784-256-256-10, ~10% block
density, 30 epochs.

Outputs go under --out (default runs/desk): one subdirectory per motif
size with checkpoint.bin, manifest.txt, metrics.csv, evolution.csv,
plus sweep.csv comparing the two runs across efficiency weights.
"""
import argparse
import sys
from pathlib import Path

from motifset.config import (SEED_FIELDS, apply_overrides, load_config,
                             preset_path)
from motifset.data import find_idx_files
from motifset.metrics import W_EFF
from motifset.train import run_sweep, run_train


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--synthetic", action="store_true",
                        help="generate a synthetic IDX dataset instead of"
                             " loading benchmark files")
    parser.add_argument("--data-dir", type=Path, default=Path("data/fmnist"))
    parser.add_argument("--out", type=Path, default=Path("runs/desk"))
    parser.add_argument("--epochs", type=int, default=None,
                        help="override the preset's epoch count")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every seed in the preset")
    args = parser.parse_args()

    config = load_config(preset_path("fmnist-desk"))
    if args.synthetic:
        from motifset._synthetic import write_synthetic_idx_dataset
        print("generating synthetic IDX data under", args.out / "data")
        files = write_synthetic_idx_dataset(args.out / "data", n_train=2000,
                                            n_test=500, noise_std=100.0,
                                            seed=5)
        config.train_limit = 0
        if args.epochs is None:
            config.epochs = 10
    else:
        files = find_idx_files(args.data_dir)
        if files is None:
            print(f"error: IDX files not found under {args.data_dir};"
                  f" pass --data-dir or use --synthetic", file=sys.stderr)
            return 1
    apply_overrides(config, {k: str(v) for k, v in files.items()})
    if args.epochs is not None:
        config.epochs = args.epochs
    apply_overrides(config, dict.fromkeys(SEED_FIELDS, args.seed))

    manifests = {}
    results = {}
    for m in (1, 2):
        out = args.out / f"m{m}"
        print(f"\n=== motif size {m} -> {out} ===")
        apply_overrides(config, {"motif_size": m, "out_dir": str(out)})
        results[m] = run_train(config)
        manifests[m] = out / "manifest.txt"

    r1, r2 = results[1], results[2]
    speedup = (1.0 - sum(r2.per_epoch_time_s) / sum(r1.per_epoch_time_s))
    print("\n=== comparison (m=2 vs m=1) ===")
    print(f"accuracy: {r1.final_accuracy:.4f} -> {r2.final_accuracy:.4f}")
    print(f"train time: {sum(r1.per_epoch_time_s):.2f} s ->"
          f" {sum(r2.per_epoch_time_s):.2f} s ({speedup:+.1%})")
    print(f"analytic MACs: {r1.flop_count} -> {r2.flop_count}"
          f" ({1 - r2.flop_count / r1.flop_count:+.1%})")
    report = run_sweep(manifests[1], manifests[2], [W_EFF]).points[0]
    print(f"comprehensive score S(m=2) = {report.s:.4f}"
          f"  (baseline fixed point {report.w_acc})")

    sweep_csv = args.out / "sweep.csv"
    sweep = run_sweep(manifests[1], manifests[2], out_csv=sweep_csv)
    cross = sweep.crossover_w_eff
    print(f"sweep written to {sweep_csv}; crossover at"
          f" w_eff={'-' if cross is None else f'{cross:.2f}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
