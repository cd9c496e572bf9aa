import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

from motifset.network import (
    backward,
    forward,
    gradient_buffer,
    init_network,
    loss,
)
from motifset.topology import FIXED_MODE, BlockDensitySpec, build_topology

from oracles import weight_mask


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


@st.composite
def damaged(draw, raw: bytes) -> bytes:
    """``raw`` truncated, extended or with flipped bytes; never ``raw``."""
    data = raw
    while data == raw:
        kind = draw(st.sampled_from(["truncate", "extend", "flip"]))
        if kind == "truncate":
            data = data[:draw(st.integers(0, len(data) - 1))]
        elif kind == "extend":
            data += draw(st.binary(min_size=1, max_size=64))
        else:
            at = draw(st.integers(0, len(data) - 1))
            data = (data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))])
                    + data[at + 1:])
    return data


# any JSON value: huge and negative ints, NaN and infinite floats, strings,
# bools, null, and lists and objects of these
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.sampled_from([-1, 0, 1, 2**31, 2**63, 10**30, -10**30]),
              st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=2)),
    max_leaves=8)


class Unwritable:
    """Stands in for an array whose conversion fails halfway through a save."""

    shape = (1, 1)

    def __array__(self, *args, **kwargs):
        raise OSError("disk full")


def small_network(sizes=(8, 8, 4), motif_size=2, density=0.5, seed=0,
                  weight_mode="shared", activation="relu",
                  density_mode=FIXED_MODE):
    topo = build_topology(sizes, motif_size,
                          BlockDensitySpec(density_mode, density), seed=seed)
    return init_network(topo, activation=activation, seed=seed + 1,
                        weight_mode=weight_mode)


@pytest.fixture
def make_network():
    return small_network


def finite_diff_grads(network, x, y, step=1e-5):
    """Central-difference loss gradients of a package network.

    Perturbs every active stored weight cell and every bias entry in
    place, evaluating the package's own forward/loss.  Inactive cells are
    reported as zero, matching the analytic gradients.
    """
    def loss_now():
        return loss(forward(network, x), y)

    weight_grads = []
    bias_grads = []
    for layer in network.layers:
        gw = np.zeros_like(layer.weights)
        active = np.nonzero(weight_mask(layer))
        for idx in zip(*active):
            orig = layer.weights[idx]
            layer.weights[idx] = orig + step
            up = loss_now()
            layer.weights[idx] = orig - step
            down = loss_now()
            layer.weights[idx] = orig
            gw[idx] = (up - down) / (2.0 * step)
        weight_grads.append(gw)
        gb = np.zeros_like(layer.bias)
        for j in range(layer.bias.shape[0]):
            orig = layer.bias[j]
            layer.bias[j] = orig + step
            up = loss_now()
            layer.bias[j] = orig - step
            down = loss_now()
            layer.bias[j] = orig
            gb[j] = (up - down) / (2.0 * step)
        bias_grads.append(gb)
    return weight_grads, bias_grads


def collect_gradients(network, cache, y):
    """``(weight_grads, bias_grads)``: the per-layer gradients that the
    package's ``backward`` yields, in layer order, as new arrays.

    ``backward`` forms them in one buffer, as a training step does, and
    overwrites each layer's with the next: every yielded row slice of a
    weight gradient is copied into its layer's array as it comes.  Layers
    come last first, each starting with its bias, the one 1-D parameter."""
    weight_grads = [np.empty_like(layer.weights) for layer in network.layers]
    bias_grads = [None] * len(network.layers)
    i = len(network.layers)
    for param, grad in backward(network, cache, y, gradient_buffer(network)):
        if param.ndim == 1:
            i -= 1
            bias_grads[i] = grad
            row = 0
        else:
            weight_grads[i][row:row + grad.shape[0]] = grad
            row += grad.shape[0]
    return weight_grads, bias_grads


def whole_layer_pairs(network, weight_grads, bias_grads):
    """``sgd_step`` pairs that update each layer whole."""
    return [pair for layer, gw, gb in zip(network.layers, weight_grads,
                                          bias_grads)
            for pair in ((layer.weights, gw), (layer.bias, gb))]
