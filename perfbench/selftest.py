"""Smoke test of the benchmark on tiny shapes.

    python3 perfbench/selftest.py

Runs every workload of ``workloads.py`` on a tiny shape, untraced and
traced, and checks that the result line holds exactly the metrics
BENCHMARK.json names, each with its unit and a finite value, and that no
operation failed.
Then flips one byte of a checkpoint and checks that the output checks
reject it.  Exits 1 and lists the problems if any check fails.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def result_problems(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        return [f"{where}: exit code {out.returncode}: {out.stderr[-2000:]}"]
    result = json.loads(out.stdout.splitlines()[-1])
    if set(result) != RESULT_KEYS:
        return [f"{where}: result keys {sorted(result)}"]
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of "
                        f"{result['attempted']} operations failed")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics {got}, expected {wanted}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")
    return problems


def flipped_checkpoint_problems() -> list[str]:
    from motifset.train import load_dataset, run_train

    from checks import check_checkpoint
    from workloads import generate_inputs, get_workload, run_config, \
        sha256_file

    work = HERE / "runs" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    workload = get_workload("desk-m2", tiny=True)
    config = run_config(workload, generate_inputs(workload, 1, work / "in"),
                        work / "run")
    run = run_train(config, echo=lambda line: None)
    dataset = load_dataset(config)
    test = dataset.x_test, dataset.y_test
    intact = work / "run" / "checkpoint.bin"
    sha = sha256_file(intact)
    problems = []
    if check_checkpoint(intact, test, run.final_accuracy, sha)[1]:
        problems.append("the output checks reject an intact checkpoint")
    raw = bytearray(intact.read_bytes())
    raw[len(raw) // 2] ^= 0xFF  # a weight byte
    flipped = work / "flipped.bin"
    flipped.write_bytes(raw)
    if not check_checkpoint(flipped, test, run.final_accuracy, sha)[1]:
        problems.append("the output checks accept a checkpoint with one "
                        "flipped byte")
    shutil.rmtree(work)
    return problems


def main() -> int:
    env.prepare_process(blas_threads=1)
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    problems = []
    from workloads import WORKLOADS

    for name in WORKLOADS:
        for trace in (0, 1):
            problems += result_problems(spec, name, trace)
    problems += flipped_checkpoint_problems()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
