"""Release gate: one test per numbered guarantee of the package.

Every test prints a single ``[criterion NN] PASS/FAIL`` line (shown with
``pytest -s`` or whenever the assertion trips) so the whole gate can be
read at a glance.  Criterion 07 exercises the desk-scale image benchmark
and is skipped unless the four IDX files are present — see the module
docstring of :func:`test_criterion_07_desk_scale_training`.
"""
import csv
import itertools
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from motifset.cli import main as cli_main
from motifset.config import (
    ExperimentConfig,
    apply_overrides,
    config_to_text,
    load_config,
    preset_path,
)
from motifset.data import find_idx_files
from motifset.evolution import EvolutionPolicy, evolve
from motifset.metrics import comprehensive_score, flop_counter, tradeoff_sweep
from motifset.network import (
    backward,
    forward,
    gradient_buffer,
    init_network,
    sgd_step,
)
from motifset.topology import FIXED_MODE, BlockDensitySpec, build_topology
from motifset.train import run_train

from conftest import collect_gradients, finite_diff_grads
from oracles import (DenseMLP, active_block_count, expand_mask,
                     expand_weights, max_rel_error)


def _criterion(number, ok, detail):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# 01: reference score table reproduction

FMNIST = {"t_base": 25236.2, "a_base": 0.761}
LUNG = {"t_base": 4953.2, "a_base": 0.937}

GOLDEN_SCORES = [
    # (label, table, t, a, reference S, tolerance; 0.0 = exact equality)
    ("fmnist-m1", FMNIST, 25236.2, 0.761, 0.9000, 0.0),
    ("fmnist-m2", FMNIST, 14307.5, 0.733, 0.9100, 2e-3),
    # The paper quotes 0.8864, but this row's own T and A give 0.88190;
    # 0.8864 would need A ~= 0.6958 or T ~= 8074.8.  Corrected to 0.8819.
    ("fmnist-m4", FMNIST, 9209.3, 0.692, 0.8819, 2e-3),
    ("lung-m1", LUNG, 4953.2, 0.937, 0.9000, 2e-3),
    ("lung-m2", LUNG, 3448.7, 0.926, 0.9199, 2e-3),
    ("lung-m4", LUNG, 3417.3, 0.914, 0.9089, 2e-3),
]


@pytest.mark.parametrize("label,table,t,a,reference,tol",
                         GOLDEN_SCORES, ids=[g[0] for g in GOLDEN_SCORES])
def test_criterion_01_reference_scores(label, table, t, a, reference, tol):
    """Benchmark-table inputs must reproduce the reference S values.

    Each reference is first checked against an exact rational evaluation
    of the documented formula on the row's own decimal inputs, so a
    reference that contradicts its row fails as bad table data whatever
    ``comprehensive_score`` returns.

    The fmnist-m4 reference is an erratum in the source table: the paper
    quotes 0.8864, but its own T = 9209.3 and A = 0.692 columns give
    0.88190 (the other five rows reproduce to within 0.0002).  Reaching
    0.8864 would need A ~= 0.6958 or T ~= 8074.8, neither of which the
    table shows, so the row asserts the corrected value 0.8819.
    """
    w_eff = Fraction("0.1")
    t_base, t_var = Fraction(str(table["t_base"])), Fraction(str(t))
    a_base, a_var = Fraction(str(table["a_base"])), Fraction(str(a))
    exact = (w_eff * (t_base - t_var) / t_base
             + (1 - w_eff) * (1 - (a_base - a_var) / a_base))
    table_ok = abs(exact - Fraction(str(reference))) <= Fraction(str(tol))
    _criterion(1, table_ok,
               f"{label} table data: exact S={float(exact):.6f} from the"
               f" row's T and A vs reference {reference} (tol {tol})")

    report = comprehensive_score(table["t_base"], t, table["a_base"], a,
                                 w_eff=0.1)
    if tol == 0.0:
        ok = report.s == reference
    else:
        ok = abs(report.s - reference) <= tol
    _criterion(1, ok,
               f"{label}: S={report.s:.6f} vs reference {reference}"
               f" (tol {tol})")


# --------------------------------------------------------------------------
# 02: gradients match central finite differences on 25 random configs

def _random_configs(n=25):
    """Deterministic pool covering every (m, mode, density) combination."""
    rng = np.random.default_rng(2025)
    combos = itertools.cycle(itertools.product(
        (1, 2, 4), ("shared", "independent"), (0.3, 1.0)))
    for i in range(n):
        m, mode, density = next(combos)
        widths = [int(m * rng.integers(1, 12 // m + 1)) for _ in range(3)]
        sizes = tuple(widths) + (int(rng.integers(2, 11)),)
        activation = "relu" if i % 2 == 0 else "sigmoid"
        yield i, sizes, m, density, mode, activation


def _nudge_off_kinks(net, x, seed):
    """Jitter biases until no relu pre-activation sits near its kink.

    Freshly initialised networks have zero biases, so units whose active
    inputs are all zero land at z = 0.0 exactly, where central
    differences straddle the non-differentiable point and disagree with
    the (one-sided) analytic derivative.  The check is only meaningful at
    differentiable points, so we move away from them deterministically.
    Hidden pre-activations are recomputed from each layer's input with the
    expanded weights, since the forward cache keeps only activations.
    """
    if net.activation != "relu":
        return
    for attempt in range(50):
        cache = forward(net, x)
        closest = min(
            float(np.abs(a @ expand_weights(layer) + layer.bias).min())
            for a, layer in zip(cache.a_list, net.layers[:-1]))
        if closest > 1e-3:
            return
        jitter = np.random.default_rng((seed, attempt))
        for layer in net.layers:
            layer.bias += jitter.normal(0.0, 0.05, layer.bias.shape)
    raise AssertionError("could not move network off relu kinks")


def test_criterion_02_gradient_check():
    worst = 0.0
    for i, sizes, m, density, mode, activation in _random_configs():
        topo = build_topology(sizes, m, BlockDensitySpec(FIXED_MODE, density),
                              seed=100 + i)
        net = init_network(topo, activation=activation, seed=200 + i,
                          weight_mode=mode)
        rng = np.random.default_rng(300 + i)
        x = rng.normal(size=(5, sizes[0]))
        y = np.eye(sizes[-1])[rng.integers(0, sizes[-1], 5)]
        _nudge_off_kinks(net, x, 400 + i)
        weight_grads, bias_grads = collect_gradients(net, forward(net, x), y)
        fd_w, fd_b = finite_diff_grads(net, x, y, step=1e-5)
        err = max(max_rel_error(weight_grads, fd_w),
                  max_rel_error(bias_grads, fd_b))
        worst = max(worst, err)
        if err > 1e-4:
            _criterion(2, False,
                       f"config {i} ({sizes}, m={m}, {mode}, {activation},"
                       f" d={density}): rel err {err:.2e} > 1e-4")
    _criterion(2, worst <= 1e-4,
               f"25 configs, worst relative error {worst:.2e} <= 1e-4")


# --------------------------------------------------------------------------
# 03: dense equivalence over 10 SGD steps

def test_criterion_03_dense_equivalence():
    topo = build_topology((6, 8, 8, 4), 1, BlockDensitySpec(FIXED_MODE, 1.0),
                          seed=31)
    net = init_network(topo, seed=32)
    oracle = DenseMLP([l.weights for l in net.layers],
                      [l.bias for l in net.layers], "relu")
    buffer = gradient_buffer(net)
    rng = np.random.default_rng(33)
    for _ in range(10):
        x = rng.normal(size=(8, 6))
        y = np.eye(4)[rng.integers(0, 4, 8)]
        sgd_step(backward(net, forward(net, x), y, buffer), 0.05)
        oracle.sgd_step(x, y, 0.05)
    gap = 0.0
    for layer, ow, ob in zip(net.layers, oracle.weights_arrays(),
                             oracle.bias_arrays()):
        gap = max(gap, float(np.abs(layer.weights - ow).max()),
                  float(np.abs(layer.bias - ob).max()))
    _criterion(3, gap <= 1e-8,
               f"10 SGD steps vs scalar dense oracle, max |delta|"
               f" {gap:.2e} <= 1e-8")


# --------------------------------------------------------------------------
# 04: tiling equivalence for m in {2, 4}

def test_criterion_04_tiling_equivalence():
    gap = 0.0
    for m in (2, 4):
        topo = build_topology((8, 8, 8, 4), m,
                              BlockDensitySpec(FIXED_MODE, 0.5), seed=40 + m)
        net = init_network(topo, seed=50 + m)
        oracle = DenseMLP([expand_weights(l) for l in net.layers],
                          [l.bias for l in net.layers], "relu")
        x = np.random.default_rng(60 + m).normal(size=(7, 8))
        ours = forward(net, x).a_list[-1]
        _, a_oracle = oracle.forward(x)
        gap = max(gap, float(np.abs(ours - np.asarray(a_oracle[-1])).max()))
    _criterion(4, gap <= 1e-12,
               f"m in (2, 4) forward vs expanded-weight oracle, max"
               f" |delta| {gap:.2e} <= 1e-12")


# --------------------------------------------------------------------------
# 05: evolution invariants

def test_criterion_05_evolution_invariants():
    # (a) 1000 prune/regrow events conserve active counts per layer and
    # never leave a value outside the mask
    rng = np.random.default_rng(500)
    events = 0
    conserved = True
    clean = True
    while events < 1000:
        m = int(rng.choice((1, 2)))
        sizes = (8 * m, 8 * m, 4)
        topo = build_topology(sizes, m, BlockDensitySpec(FIXED_MODE, 0.4),
                              seed=int(rng.integers(1 << 30)))
        net = init_network(topo, seed=int(rng.integers(1 << 30)),
                          weight_mode="shared" if events % 2 else
                          "independent")
        policy = EvolutionPolicy(zeta=0.3,
                                 rng_seed=int(rng.integers(1 << 30)))
        for event in range(20):
            before = active_block_count(net.topology)
            evolve(net, policy, event_index=event)
            events += 1
            if active_block_count(net.topology) != before:
                conserved = False
            for i, layer in enumerate(net.layers):
                off = ~expand_mask(net.topology, i)
                if layer.weights[off].any():
                    clean = False
    _criterion(5, conserved and clean,
               f"{events} magnitude events: counts conserved={conserved},"
               f" masked weights stay zero={clean}")

    # (b) listing4 zap frequency over 1e5 cells
    topo = build_topology((10, 10), 1, BlockDensitySpec(FIXED_MODE, 1.0),
                          seed=1)
    net = init_network(topo, seed=2)
    policy = EvolutionPolicy(mode="listing4", epsilon_prune=0.3,
                             noise_scale=0.0, rng_seed=505)
    zapped = 0
    for event in range(1000):
        net.layers[0].weights[:] = 1.0
        evolve(net, policy, event_index=event)
        zapped += int((net.layers[0].weights == 0.0).sum())
    freq = zapped / 100_000.0
    _criterion(5, abs(freq - 0.3) <= 0.01,
               f"listing4 zap frequency {freq:.4f} within 0.01 of 0.3"
               f" over 1e5 cells")


# --------------------------------------------------------------------------
# 06: parameter and MAC reduction law on the benchmark architecture

def test_criterion_06_reduction_law():
    sizes = (784, 3000, 3000, 3000, 10)
    params = {}
    flops = {}
    for m in (1, 2, 4):
        topo = build_topology(sizes, m, BlockDensitySpec(FIXED_MODE, 1.0),
                              seed=60)
        # distinct stored parameters of the hidden (tiled) layers only
        params[m] = sum(active_block_count(topo)[:-1])
        flops[m] = flop_counter(topo, "shared", n_samples=1).total
    quarter = params[2] * 4 == params[1]
    sixteenth = params[4] * 16 == params[1]
    decreasing = flops[1] > flops[2] > flops[4]
    _criterion(6, quarter and sixteenth and decreasing,
               f"hidden params {params[1]}/{params[2]}/{params[4]}"
               f" (x4={quarter}, x16={sixteenth}); MACs"
               f" {flops[1]}>{flops[2]}>{flops[4]}={decreasing}")


# --------------------------------------------------------------------------
# 07: desk-scale training on the real image benchmark (needs local data)

def _find_fmnist():
    """Locate the four IDX files, gzipped or raw, or return None.

    Search order: $MOTIFSET_FMNIST_DIR, then data/fmnist under the repo
    root.
    """
    candidates = []
    env = os.environ.get("MOTIFSET_FMNIST_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent
                      / "data" / "fmnist")
    for directory in candidates:
        found = find_idx_files(directory)
        if found is not None:
            return found
    return None


def test_criterion_07_desk_scale_training(tmp_path):
    """30-epoch 10k-sample run: m=1 >= 0.75 accuracy, m=2 within 0.05.

    Skipped when the image benchmark files are absent (place the four
    IDX files under data/fmnist/ or point MOTIFSET_FMNIST_DIR at them);
    the synthetic IDX integration tests cover the same code path.
    """
    files = _find_fmnist()
    if files is None:
        pytest.skip("IDX benchmark files not found: set MOTIFSET_FMNIST_DIR"
                    " or place them under data/fmnist/ (criterion 07 not"
                    " evaluated; training path covered by synthetic tests)")
    base = load_config(preset_path("fmnist-desk"))
    apply_overrides(base, {k: str(v) for k, v in files.items()})
    r1 = run_train(apply_overrides(base, {"motif_size": 1,
                                          "out_dir": str(tmp_path / "m1")}),
                   echo=lambda *_: None)
    r2 = run_train(apply_overrides(base, {"motif_size": 2,
                                          "out_dir": str(tmp_path / "m2")}),
                   echo=lambda *_: None)
    ok = r1.final_accuracy >= 0.75 and (
        abs(r1.final_accuracy - r2.final_accuracy) <= 0.05)
    _criterion(7, ok,
               f"m=1 acc {r1.final_accuracy:.4f} >= 0.75; m=2 acc"
               f" {r2.final_accuracy:.4f} within 0.05")


# --------------------------------------------------------------------------
# 08: trade-off sweep property on the benchmark motif-2 numbers

def test_criterion_08_sweep_crossover():
    sweep = tradeoff_sweep(FMNIST["t_base"], 14307.5, FMNIST["a_base"],
                           0.733)
    diffs = [p.s - p.w_acc for p in sweep.points]
    weights = [p.w_eff for p in sweep.points]
    beyond = all(d > 0 for w, d in zip(weights, diffs) if w >= 0.11)
    signs = [np.sign(d) for d in diffs if d != 0.0]
    crossings = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    _criterion(8, beyond and crossings <= 1,
               f"variant beats baseline for all w_eff >= 0.11 ({beyond}),"
               f" curves cross {crossings} time(s); first crossing at"
               f" w_eff={sweep.crossover_w_eff}")


# --------------------------------------------------------------------------
# 09: bit-level determinism of the train command

def test_criterion_09_determinism(tmp_path):
    from motifset._synthetic import write_synthetic_idx_dataset

    paths = write_synthetic_idx_dataset(tmp_path / "data", n_train=1000,
                                        n_test=300, noise_std=100.0, seed=5)
    config = ExperimentConfig(
        dataset_kind="idx",
        train_images=str(paths["train_images"]),
        train_labels=str(paths["train_labels"]),
        test_images=str(paths["test_images"]),
        test_labels=str(paths["test_labels"]),
        hidden_sizes=(64, 64), motif_size=2,
        density_mode="erdos_renyi_set", density_value=10.0,
        epochs=5, learning_rate=0.05, batch_size=32,
        out_dir="unused")
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(config_to_text(config))

    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        code = cli_main(["train", "--config", str(cfg_file),
                         "--out", str(out)])
        assert code == 0

    ckpt_same = ((outs[0] / "checkpoint.bin").read_bytes()
                 == (outs[1] / "checkpoint.bin").read_bytes())

    def rows_sans_time(path):
        with open(path) as f:
            rows = list(csv.DictReader(f))
        for row in rows:
            row.pop("epoch_time_s")
        return rows

    metrics_same = (rows_sans_time(outs[0] / "metrics.csv")
                    == rows_sans_time(outs[1] / "metrics.csv"))
    evolution_same = ((outs[0] / "evolution.csv").read_bytes()
                      == (outs[1] / "evolution.csv").read_bytes())
    _criterion(9, ckpt_same and metrics_same and evolution_same,
               f"two identical train runs: checkpoint bit-identical="
               f"{ckpt_same}, metrics identical sans time={metrics_same}, "
               f"evolution.csv byte-identical={evolution_same}")
