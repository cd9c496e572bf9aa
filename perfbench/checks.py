"""Output checks of one ``run_train`` call.

Each check returns a list of problems; an operation whose checks return
any problem counts as failed.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

from motifset.checkpoint import load_checkpoint
from motifset.errors import MotifSetError
from motifset.network import predict_accuracy

from workloads import sha256_file


def check_run(run, out_dir: Path, accuracy_floor: float) -> list[str]:
    """Finite losses, the accuracy floor, the run files and evolution log."""
    problems = []
    if not all(math.isfinite(x) for x in run.train_losses):
        problems.append(f"non-finite train loss in {run.train_losses}")
    if not run.final_accuracy >= accuracy_floor:
        problems.append(f"test accuracy {run.final_accuracy} is below the "
                        f"floor {accuracy_floor}")
    for name in ("manifest.txt", "metrics.csv", "checkpoint.bin"):
        if not (out_dir / name).is_file():
            problems.append(f"{name} was not written")
    with open(out_dir / "evolution.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        problems.append("evolution.csv has no event")
    active = {}
    for row in rows:
        where = f"evolution.csv epoch {row['epoch']} layer {row['layer']}"
        if row["pruned"] != row["regrown"]:
            problems.append(f"{where}: pruned {row['pruned']} != regrown "
                            f"{row['regrown']}")
        first = active.setdefault(row["layer"], row["active_blocks"])
        if row["active_blocks"] != first:
            problems.append(f"{where}: active blocks moved from {first} to "
                            f"{row['active_blocks']}")
    return problems


def check_checkpoint(path: Path, test: tuple, accuracy: float,
                     reference_sha: str | None) -> tuple[str, list[str]]:
    """SHA-256 of the checkpoint and its problems.

    Without a reference the checkpoint must load and reproduce ``accuracy``
    on ``test = (x_test, y_test)`` exactly.  With one, it must match the
    reference byte for byte; the reference passed the load check, so
    identical bytes would pass it again.
    """
    sha = sha256_file(path)
    if reference_sha is not None:
        if sha == reference_sha:
            return sha, []
        return sha, [f"checkpoint sha256 {sha} differs from the reference "
                     f"{reference_sha}"]
    try:
        network = load_checkpoint(path)
        reloaded = predict_accuracy(network, *test)
    # the loader lets some decoding errors of a corrupt file escape untyped
    except (MotifSetError, ValueError, KeyError, IndexError) as exc:
        return sha, [f"checkpoint does not load: {exc!r}"]
    if reloaded != accuracy:
        return sha, [f"reloaded checkpoint scores {reloaded}, the run "
                     f"reported {accuracy}"]
    return sha, []
