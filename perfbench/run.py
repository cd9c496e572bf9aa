"""Training benchmark: times ``motifset.train.run_train`` on generated inputs.

    python3 perfbench/run.py --workload desk-m2 --seed 1 --seconds 15 --trace 0

One operation is one ``run_train`` call plus its output checks.  The
workload's inputs are generated from ``--seed`` in a child process first.
Set-up (load, topology, init) is then timed on its own a few times.  The
workload's warm-up operations run next; they are checked but not timed.
Then operations run one after another, closed loop, until ``--seconds``
have passed and at least two have run, so every checkpoint has a twin that
it must match byte for byte.

``--trace 0`` runs untraced operations and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced operations in pairs, dumps the
spans of the traced ones to ``spans.json`` and reports the per-layer
metrics computed from that dump, medians over traced operations.  The last
line of standard output is the result object; the line before it records
the environment, the input and checkpoint SHA-256, the final accuracy and
loss, and each operation.  Run files go to
``perfbench/runs/<workload>/seed<seed>-trace<trace>/``.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
RUNS_DIR = HERE / "runs"
MIN_OPS = 2
SETUP_REPEATS = 7
GENERATE_TIMEOUT_S = 120
# per-layer units of counts, which must repeat exactly across operations
EXACT_UNITS = ("count", "bytes", "MAC")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test shape, for selftest.py")
    return parser.parse_args(argv)


def generate(name: str, seed: int, tiny: bool, out_dir: Path) -> dict:
    from workloads import INPUTS_JSON

    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
           "--seed", str(seed), "--out", str(out_dir)]
    subprocess.run(cmd + ["--tiny"] * tiny, check=True,
                   timeout=GENERATE_TIMEOUT_S)
    return json.loads((out_dir / INPUTS_JSON).read_text())


def measure_setup(config):
    """Times of repeating run_train's set-up, and the test split loaded."""
    import motifset.train as train
    from motifset.topology import BlockDensitySpec

    density = BlockDensitySpec(config.density_mode, config.density_value)
    times = []
    for _ in range(SETUP_REPEATS):
        dataset = None  # free the last copy, as a fresh run_train would
        t0 = time.perf_counter()
        dataset = train.load_dataset(config)
        sizes = (dataset.n_features, *config.hidden_sizes, dataset.n_classes)
        topology = train.build_topology(sizes, config.motif_size, density,
                                        seed=config.topology_seed)
        train.init_network(topology, config.activation, config.init_scheme,
                           config.init_seed, config.weight_mode)
        times.append(time.perf_counter() - t0)
    return times, (dataset.x_test, dataset.y_test)


def operation(config, workload, test: tuple, reference: dict | None,
              tracer=None) -> dict:
    """One run_train call and its checks; the checkpoint is deleted after."""
    import motifset.train as train
    from motifset.errors import MotifSetError
    from checks import check_checkpoint, check_run
    from tracing import ROOT_SPAN, traced

    out_dir = Path(config.out_dir)
    op = {"run_id": out_dir.name, "traced": tracer is not None}
    t0 = time.perf_counter()
    try:
        if tracer is None:
            run = train.run_train(config, echo=lambda line: None)
        else:
            with traced(tracer, op["run_id"]):
                run = tracer.span(ROOT_SPAN, op["run_id"], train.run_train,
                                  config, echo=lambda line: None)
    except MotifSetError as exc:
        op.update(run_s=time.perf_counter() - t0, problems=[repr(exc)])
        return op
    op["run_s"] = time.perf_counter() - t0
    op.update(samples_per_s=workload.n_train * run.n_epochs
              / sum(run.per_epoch_time_s),
              accuracy=run.final_accuracy, loss=run.train_losses[-1])
    problems = check_run(run, out_dir, workload.accuracy_floor)
    checkpoint = out_dir / "checkpoint.bin"
    if checkpoint.is_file():
        op["checkpoint_sha256"], found = check_checkpoint(
            checkpoint, test, run.final_accuracy,
            reference and reference["checkpoint_sha256"])
        problems += found
        checkpoint.unlink()
    if reference is not None:
        for key in ("accuracy", "loss"):
            if op[key] != reference[key]:
                problems.append(f"{key} {op[key]} differs from the first "
                                f"operation's {reference[key]}")
    op["problems"] = problems
    return op


def traced_metrics(ops: list[dict], dump_path: Path) -> tuple[dict, dict]:
    """Per-layer medians over the traced operations, from the span dump."""
    from tracing import layer_metrics, span_problems

    spans = json.loads(dump_path.read_text())["spans"]
    tables, infos = [], []
    for op in ops:
        if not op["traced"]:
            continue
        mine = [s for s in spans if s["run"] == op["run_id"]]
        op["problems"] += span_problems(mine)
        if "checkpoint_sha256" in op:
            table, info = layer_metrics(mine)
            for name, (value, unit) in table.items():
                if unit in EXACT_UNITS and tables \
                        and value != tables[0][name][0]:
                    op["problems"].append(
                        f"{name} {value} differs from the first traced "
                        f"operation's {tables[0][name][0]}")
            tables.append(table)
            infos.append(info)
    metrics = {
        name: (tables[0][name][0] if unit in EXACT_UNITS
               else statistics.median(t[name][0] for t in tables), unit)
        for name, (_, unit) in tables[0].items()} if tables else {}
    untraced = [op["run_s"] for op in ops if not op["traced"]]
    traced_s = [info["run_s"] for info in infos]
    if untraced and traced_s:
        metrics["trace.overhead_s"] = (
            statistics.median(traced_s) - statistics.median(untraced), "s")
    return metrics, {"traced_runs": infos}


def main(argv=None) -> int:
    from workloads import WORKLOADS, get_workload, run_config

    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = get_workload(args.workload, args.tiny)
    try:
        env.prepare_process(workload.blas_threads)
    except env.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from tracing import Tracer

    run_dir = (RUNS_DIR / (args.workload + "-tiny" * args.tiny)
               / f"seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = generate(args.workload, args.seed, args.tiny,
                      run_dir / "inputs")

    setup_times, test = measure_setup(
        run_config(workload, inputs, run_dir / "setup"))
    tracer = Tracer() if args.trace else None
    ops: list[dict] = []

    def run_op(tracer_or_none) -> dict:
        config = run_config(workload, inputs, run_dir / f"op{len(ops)}")
        reference = next((op for op in ops if "checkpoint_sha256" in op),
                         None)
        ops.append(operation(config, workload, test, reference,
                             tracer_or_none))
        return ops[-1]

    for _ in range(workload.warmup_ops):
        run_op(None)["warmup"] = True
    timed = len(ops)
    deadline = time.perf_counter() + args.seconds
    while True:
        n = len(ops) - timed
        if (n >= MIN_OPS and not (tracer and n % 2)
                and time.perf_counter() >= deadline):
            break
        # untraced and traced in the order U T T U, so neither side always
        # runs first
        run_op(tracer if n % 4 in (1, 2) else None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "environment": env.environment_record(),
               "inputs": {k: f["sha256"] for k, f in inputs["files"].items()},
               "setup_s_samples": setup_times}
    done = [op for op in ops[timed:] if "checkpoint_sha256" in op]
    if tracer:
        dump = run_dir / "spans.json"
        dump.write_text(json.dumps({"spans": tracer.spans}))
        metrics, summary["trace_info"] = traced_metrics(ops[timed:], dump)
    else:
        metrics = {
            "run_s": (statistics.median(op["run_s"] for op in done), "s"),
            "train_samples_per_s": (statistics.median(
                op["samples_per_s"] for op in done), "samples/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        } if done else {}
    for key, name in (("checkpoint_sha256", "checkpoint_sha256"),
                      ("accuracy", "final_test_accuracy"),
                      ("loss", "final_train_loss")):
        summary[name] = done[0][key] if done else None
    summary["operations"] = ops
    failed = sum(bool(op["problems"]) for op in ops)
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1))
    shutil.rmtree(run_dir / "inputs")
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
