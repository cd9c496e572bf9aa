"""Run every workload untraced and traced, print one table.

    python3 perfbench/report.py [--seed 1] [--seconds 40]

The workloads are those of ``workloads.py``, which include one that
BENCHMARK.json leaves out.  Each runs twice through ``run.py``:
``--trace 0`` for the end-to-end metrics and ``--trace 1`` for the
per-layer ones.  The table
lists every metric with its unit per workload, then the recorded final
accuracy, final loss and checkpoint SHA-256, then failed operations
against attempted ones.  Exits 1 if any operation failed.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=RUN_TIMEOUT_S)
    summary, result = out.stdout.splitlines()[-2:]
    return json.loads(summary), json.loads(result)


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    names = list(WORKLOADS)
    rows: dict[tuple[str, str], dict] = {}
    records, counts = {}, {}
    for name in names:
        for trace in (0, 1):
            summary, result = run(name, args.seed, args.seconds, trace)
            for metric, m in result["metrics"].items():
                rows.setdefault((metric, m["unit"]), {})[name] = m["value"]
            counts[name, trace] = (result["failed"], result["attempted"])
            records[name] = summary
    width = max(len(f"{metric} [{unit}]") for metric, unit in rows)
    print(f"{'metric':{width}s}  " + "  ".join(f"{n:>16s}" for n in names))
    for (metric, unit), values in rows.items():
        cells = "  ".join(f"{values.get(n, float('nan')):16.6g}"
                          for n in names)
        print(f"{metric + ' [' + unit + ']':{width}s}  {cells}")
    for key in ("final_test_accuracy", "final_train_loss",
                "checkpoint_sha256"):
        print(f"{key}: " + ", ".join(f"{n} {records[n][key]}"
                                     for n in names))
    failed = 0
    for (name, trace), (bad, attempted) in counts.items():
        print(f"{name} --trace {trace}: {bad} of {attempted} operations "
              f"failed")
        failed += bad
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
