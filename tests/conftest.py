import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from motifset.network import init_network
from motifset.topology import BlockDensitySpec, build_topology


@pytest.fixture
def toy_csv(tmp_path):
    """Separable 3-class CSV with string labels; returns its path."""
    rng = np.random.default_rng(1234)
    centers = rng.normal(0.0, 3.0, size=(3, 8))
    lines = []
    for i in range(120):
        k = i % 3
        x = centers[k] + rng.normal(0.0, 0.8, size=8)
        lines.append(",".join(f"{v:.6f}" for v in x) + f",class{k}")
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class Unwritable:
    """Stands in for an array whose conversion fails halfway through a save."""

    shape = (1, 1)

    def __array__(self, *args, **kwargs):
        raise OSError("disk full")


def small_network(sizes=(8, 8, 4), motif_size=2, density=0.5, seed=0,
                  weight_mode="shared", activation="relu",
                  density_mode="fixed"):
    spec = (BlockDensitySpec.fixed(density) if density_mode == "fixed"
            else BlockDensitySpec.erdos_renyi(density))
    topo = build_topology(sizes, motif_size, spec, seed=seed)
    return init_network(topo, activation=activation, seed=seed + 1,
                        weight_mode=weight_mode)


@pytest.fixture
def make_network():
    return small_network
