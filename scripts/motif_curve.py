#!/usr/bin/env python3
"""Motif curve: one training step's wall time at m = 1, 2 and 4, against
the analytic MAC ratio that the paper's efficiency claim rests on.

    python3 scripts/motif_curve.py --out BENCH_1.json
    python3 scripts/motif_curve.py --tiny --out /tmp/curve.json

Two shapes, shared weights, seed 1 for the topology, the initial weights
and the synthetic inputs (standard normal features, uniform one-hot
labels):

* desk: 784-256-256-10, Erdos-Renyi epsilon 15.7, batch 64;
* wide: 784-3000x3-10, fixed block density 0.1, batch 128.

One step is ``forward``, ``loss``, then ``sgd_step(backward(...))``, called
directly.  The script runs interleaved rounds: each round times one step of
each ``m`` of a shape (on desk the best of 50 steps), so the ratios to
``m = 1`` are taken from steps run together and host drift cancels in
them.  The BLAS runs on 1 thread, set for this process only.

Per (shape, m) the JSON record holds the median and minimum step, every
round's step, the analytic MACs (``flop_counter(...).total``), the grid
MACs the products execute (each stored grid ``rows x cols`` three times per
sample, twice for layer 0, which forms no input delta), the ratios of both
to ``m = 1``, the wall ratio to ``m = 1`` as the median of per-round ratios
with the smallest, the gate "wall ratio <= 1.25 x analytic ratio",
recorded as it comes out, and the process's minor page faults per timed
step, which show when a step falls into an allocator regime that maps and
unmaps its arrays (glibc's heap growing and trimming on every step).
``--tiny`` runs small shapes in a few seconds; its record has the same
fields.
"""
import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MOTIF_SIZES = (1, 2, 4)
SEED = 1
LEARNING_RATE = 0.01
GATE = 1.25
# name: layer sizes, density mode and value, batch, rounds, steps per round
SHAPES = {
    "desk": ((784, 256, 256, 10), "erdos_renyi_set", 15.7, 64, 15, 50),
    "wide": ((784, 3000, 3000, 3000, 10), "fixed_density", 0.1, 128, 15, 1),
}
TINY_SHAPES = {
    "desk": ((32, 16, 16, 4), "erdos_renyi_set", 3.0, 8, 3, 5),
    "wide": ((32, 48, 48, 48, 4), "fixed_density", 0.5, 16, 3, 1),
}


def grid_macs(layer_sizes, motif_size: int, batch: int) -> int:
    """MACs of the products a step runs over the stored grids."""
    from motifset.network import weight_grid

    total = 0
    for i in range(len(layer_sizes) - 1):
        rows, cols = weight_grid(layer_sizes, motif_size, "shared", i)
        total += (2 if i == 0 else 3) * rows * cols
    return total * batch


def measure_shape(name, spec):
    """One record per motif size of a shape, from interleaved rounds."""
    import numpy as np

    from motifset.metrics import flop_counter
    from motifset.network import (
        backward,
        forward,
        gradient_buffer,
        init_network,
        loss,
        sgd_step,
    )
    from motifset.topology import BlockDensitySpec, build_topology

    sizes, density_mode, density, batch, rounds, per_round = spec
    rng = np.random.default_rng(SEED)
    x = rng.normal(size=(batch, sizes[0]))
    y = np.eye(sizes[-1])[rng.integers(0, sizes[-1], batch)]
    runs = {}
    for m in MOTIF_SIZES:
        topology = build_topology(sizes, m,
                                  BlockDensitySpec(density_mode, density),
                                  seed=SEED)
        network = init_network(topology, seed=SEED)
        buffer = gradient_buffer(network)
        runs[m] = (network, buffer, flop_counter(topology, "shared",
                                                 n_samples=batch).total)

    def step(m):
        network, buffer, _ = runs[m]
        t0 = time.perf_counter()
        cache = forward(network, x)
        loss(cache, y)
        sgd_step(backward(network, cache, y, buffer), LEARNING_RATE)
        return time.perf_counter() - t0

    for m in MOTIF_SIZES:  # warm-up, not timed
        step(m)
    times = {m: [] for m in MOTIF_SIZES}
    faults = dict.fromkeys(MOTIF_SIZES, 0)
    for _ in range(rounds):
        for m in MOTIF_SIZES:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            times[m].append(1e3 * min(step(m) for _ in range(per_round)))
            faults[m] += (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                          - before)

    base_macs = runs[1][2]
    base_grid = grid_macs(sizes, 1, batch)
    records = []
    for m in MOTIF_SIZES:
        ratios = [t / t1 for t, t1 in zip(times[m], times[1])]
        analytic_ratio = runs[m][2] / base_macs
        grid = grid_macs(sizes, m, batch)
        record = {
            "shape": name, "m": m, "mode": "shared",
            "layer_sizes": list(sizes), "density_mode": density_mode,
            "density_value": density, "batch": batch,
            "steps_per_round": per_round,
            "step_ms_median": statistics.median(times[m]),
            "step_ms_min": min(times[m]),
            "round_step_ms": times[m],
            "analytic_macs": runs[m][2],
            "grid_macs": grid,
            "analytic_ratio": analytic_ratio,
            "grid_ratio": grid / base_grid,
            "wall_ratio_median": statistics.median(ratios),
            "wall_ratio_min": min(ratios),
            "minor_faults_per_step": faults[m] / (rounds * per_round),
        }
        if m > 1:
            record["gate_bound"] = GATE * analytic_ratio
            record["gate_pass"] = record["wall_ratio_median"] <= (
                record["gate_bound"])
        records.append(record)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON file to write")
    parser.add_argument("--tiny", action="store_true",
                        help="small shapes and 3 rounds, for a smoke test")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import env

    env.prepare_process(1)  # before numpy loads, which reads the count
    shapes = TINY_SHAPES if args.tiny else SHAPES
    records = []
    for name, spec in shapes.items():
        shape_records = measure_shape(name, spec)
        records += shape_records
        for r in shape_records:
            print(f"{name} m={r['m']}: step {r['step_ms_median']:.3f} ms, "
                  f"wall ratio {r['wall_ratio_median']:.3f} "
                  f"(min {r['wall_ratio_min']:.3f}), analytic ratio "
                  f"{r['analytic_ratio']:.3f}, gate "
                  f"{r.get('gate_pass', '-')}")
    result = {
        "bench": "motif_curve",
        "tiny": args.tiny,
        "seed": SEED,
        "learning_rate": LEARNING_RATE,
        "inputs": "synthetic: standard normal features, uniform one-hot "
                  "labels",
        "step": "forward, loss, sgd_step(backward(...)) called directly",
        "gate": f"wall_ratio_median <= {GATE} x analytic_ratio",
        "environment": env.environment_record(),
        "records": records,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
