"""Command line driver.

Subcommands::

    motifset prepare --config c.cfg --cache-out data.bin
    motifset train   --preset fmnist-desk --out runs/desk
    motifset score   --baseline runs/a/manifest.txt --variant runs/b/manifest.txt
    motifset sweep   --baseline ... --variant ... --out runs/sweep
    motifset export-topology --checkpoint runs/b/checkpoint.bin --out topo.txt

Exit codes: 0 success, 2 configuration or usage error, 3 unreadable or
inconsistent input data, 4 numerical failure during training.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .checkpoint import load_checkpoint
from .config import (
    SCHEMA,
    SEED_FIELDS,
    ExperimentConfig,
    apply_overrides,
    load_config,
    preset_path,
)
from .container import atomic_open
from .errors import ConfigError, DataError, MotifSetError, NonFiniteError
from .topology import build_topology, export_topology
from .train import run_prepare, run_score, run_sweep, run_train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _add_config_args(parser: argparse.ArgumentParser, run_dir: bool = True):
    """``--config``/``--preset``, ``--seed``, and one flag per config field.

    A field's flag is ``--<field-name>`` and takes the text its config key
    takes; ``out_dir`` is ``--out``, added only when ``run_dir`` is set.
    """
    parser.add_argument("--config", help="path to a config or manifest file")
    parser.add_argument("--preset", help="name of a bundled preset config")
    parser.add_argument("--seed", type=int,
                        help=f"sets every seed ({', '.join(SEED_FIELDS)}) "
                             f"at once; a per-seed flag wins over it")
    for section, key, name in SCHEMA:
        if name == "out_dir":
            if run_dir:
                parser.add_argument("--out", dest=name,
                                    help="run output directory")
            continue
        parser.add_argument("--" + name.replace("_", "-"), dest=name,
                            help=f"[{section}] {key}")


def _resolve_config(args) -> ExperimentConfig:
    if args.config and args.preset:
        raise ConfigError("pass either --config or --preset, not both")
    config = ExperimentConfig()
    if args.preset:
        config = load_config(preset_path(args.preset), config)
    elif args.config:
        config = load_config(args.config, config)
    apply_overrides(config, dict.fromkeys(SEED_FIELDS, args.seed))
    return apply_overrides(config, {name: getattr(args, name, None)
                                    for _, _, name in SCHEMA})


def _cmd_prepare(args) -> int:
    config = _resolve_config(args)
    config.cache_path = ""  # prepare always rebuilds from the raw source
    dataset = run_prepare(config, args.cache_out)
    print(f"wrote {args.cache_out}: {dataset.x_train.shape[0]} train / "
          f"{dataset.x_test.shape[0]} test samples, "
          f"{dataset.n_features} features, {dataset.n_classes} classes")
    return EXIT_OK


def _cmd_train(args) -> int:
    config = _resolve_config(args)
    run = run_train(config)
    print(f"done: final test accuracy {run.final_accuracy:.4f}, "
          f"training time {sum(run.per_epoch_time_s):.2f}s, "
          f"outputs in {config.out_dir}")
    return EXIT_OK


def _cmd_score(args) -> int:
    report = run_score(args.baseline, args.variant, w_eff=args.w_eff,
                       use_flops=args.use_flops, out_dir=args.out)
    print(f"R_r={report.r_r:.6f} A_r={report.a_r:.6f} "
          f"S={report.s:.6f} (w_eff={report.w_eff:g}, w_acc={report.w_acc:g})")
    return EXIT_OK


def _sweep_grid(args):
    """The ``w_eff`` grid of ``sweep``, or None for the default grid."""
    if args.grid:
        try:
            return np.array([float(p) for p in args.grid.split(",")])
        except ValueError as exc:
            raise ConfigError(f"--grid must list numbers, got {args.grid!r}"
                              ) from exc
    if args.grid_step is None:
        return None
    if not 0.0 < args.grid_step <= 1.0:
        raise ConfigError(
            f"--grid-step must be in (0, 1], got {args.grid_step}")
    return np.arange(0.0, 1.0 + args.grid_step / 2, args.grid_step)


def _cmd_sweep(args) -> int:
    grid = _sweep_grid(args)
    try:
        result = run_sweep(args.baseline, args.variant, grid=grid,
                           use_flops=args.use_flops, out_dir=args.out)
    except ValueError as exc:
        # tradeoff_sweep rejects grid values outside [0, 1]
        raise ConfigError(str(exc)) from exc
    if result.crossover_w_eff is None:
        print("variant never beats the baseline on this grid")
    else:
        print(f"variant beats the baseline from w_eff = "
              f"{result.crossover_w_eff:g}")
    return EXIT_OK


def _cmd_export_topology(args) -> int:
    if args.checkpoint:
        network = load_checkpoint(args.checkpoint)
        topology = network.topology
    else:
        config = _resolve_config(args)
        if not config.hidden_sizes or args.input_size is None:
            raise ConfigError(
                "building a topology without a checkpoint needs "
                "--input-size (and --output-size)"
            )
        sizes = (args.input_size, *config.hidden_sizes, args.output_size)
        topology = build_topology(sizes, config.motif_size,
                                  config.density_spec(),
                                  seed=config.topology_seed)
    text = export_topology(topology)
    if args.out:
        with atomic_open(args.out) as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motifset",
        description="Motif-block sparse MLP training and scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build and cache a dataset")
    _add_config_args(p)
    p.add_argument("--cache-out", required=True,
                   help="where to write the dataset container")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("train", help="train one network")
    _add_config_args(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="score a variant against a baseline")
    p.add_argument("--baseline", required=True, help="baseline manifest.txt")
    p.add_argument("--variant", required=True, help="variant manifest.txt")
    p.add_argument("--w-eff", type=float, default=0.1, dest="w_eff")
    p.add_argument("--use-flops", action="store_true",
                   help="use analytic MACs instead of wall time")
    p.add_argument("--out", help="directory for score.csv")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("sweep", help="sweep the efficiency weight over [0, 1]")
    p.add_argument("--baseline", required=True)
    p.add_argument("--variant", required=True)
    p.add_argument("--grid", help="explicit comma separated w_eff values")
    p.add_argument("--grid-step", type=float, default=None,
                   help="uniform grid step (default 0.01)")
    p.add_argument("--use-flops", action="store_true")
    p.add_argument("--out", help="directory for sweep.csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("export-topology",
                       help="write a topology in the text format")
    p.add_argument("--checkpoint", help="read the topology from a checkpoint")
    _add_config_args(p, run_dir=False)
    p.add_argument("--input-size", type=int)
    p.add_argument("--output-size", type=int, default=10)
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.set_defaults(func=_cmd_export_topology)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NonFiniteError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MotifSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
