"""Process set-up shared by the benchmark's entry points, and the
environment record printed next to the metrics.

Nothing here imports numpy or motifset at module level: ``prepare_process``
must run first, because the BLAS thread count is read when numpy loads.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/motifset`` to benchmark."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare_process(blas_threads: int):
    """Pin BLAS threads and put the checkout's package first on the path.

    ``blas_threads`` is capped at ``nproc``, so a smaller machine is never
    oversubscribed and a larger one does not change what a workload
    measures.

    Raises :class:`SourceMissing` when the checkout has no package source,
    so an installed copy of motifset is never measured by mistake.
    """
    if not (SRC / "motifset" / "__init__.py").is_file():
        raise SourceMissing(f"no package source under {SRC}")
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(blas_threads, nproc()))
    sys.path.insert(0, str(SRC))
    import motifset
    if Path(motifset.__file__).resolve().parent != SRC / "motifset":
        raise SourceMissing(f"motifset imported from {motifset.__file__}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_record() -> dict:
    """numpy/BLAS build, thread count, nproc, Python and CPU model."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
    }
