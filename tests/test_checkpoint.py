"""Checkpoint container: bit-exact round trips and corruption handling."""
import json
import struct

import numpy as np
import pytest

from motifset.checkpoint import load_checkpoint, save_checkpoint
from motifset.cli import main
from motifset.errors import CheckpointFormatError
from motifset.network import backward, forward, sgd_step

from conftest import small_network


def _trained(seed=0, **kw):
    net = small_network(seed=seed, **kw)
    rng = np.random.default_rng(seed + 100)
    for _ in range(5):
        x = rng.normal(size=(6, net.layer_sizes[0]))
        y = np.eye(net.n_classes)[rng.integers(0, net.n_classes, 6)]
        sgd_step(net, backward(net, forward(net, x), y), 0.1)
    return net


@pytest.mark.parametrize("mode,m", [("shared", 1), ("shared", 2),
                                    ("independent", 2)])
def test_round_trip_bit_exact(tmp_path, mode, m):
    net = _trained(seed=m, weight_mode=mode, motif_size=m)
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    assert back.weight_mode == net.weight_mode
    assert back.activation == net.activation
    assert back.topology.layer_sizes == net.topology.layer_sizes
    assert back.topology.motif_size == net.topology.motif_size
    for la, lb in zip(net.layers, back.layers):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.bias, lb.bias)
        np.testing.assert_array_equal(la.block_mask, lb.block_mask)
        assert la.share_tile == lb.share_tile


def test_restored_network_predicts_identically(tmp_path):
    net = _trained(seed=7)
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    x = np.random.default_rng(3).normal(size=(12, 8))
    np.testing.assert_array_equal(forward(net, x).a_list[-1],
                                  forward(back, x).a_list[-1])


def test_density_metadata_survives(tmp_path):
    net = _trained(seed=2, density=0.4)
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    assert back.topology.epsilon == net.topology.epsilon
    assert back.topology.density_mode == net.topology.density_mode


def test_restored_network_is_trainable_and_evolvable(tmp_path):
    from motifset.evolution import EvolutionPolicy, evolve_magnitude

    net = _trained(seed=9, density=0.5)
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    evolve_magnitude(back, EvolutionPolicy(zeta=0.3, rng_seed=1), 0)
    for layer, mask in zip(back.layers, back.topology.block_masks):
        assert layer.block_mask is mask  # still shared after reload


def test_bad_magic(tmp_path):
    net = _trained()
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    net = _trained()
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_trailing_garbage(tmp_path):
    net = _trained()
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def _edit_checkpoint(path, edit):
    """Rewrite a checkpoint's metadata and topology text through ``edit``."""
    raw = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", raw, 12)
    meta = json.loads(raw[16:16 + meta_len])
    at = 16 + meta_len
    (topo_len,) = struct.unpack_from("<Q", raw, at)
    topo = raw[at + 8:at + 8 + topo_len].decode()
    meta, topo = edit(meta, topo)
    meta_bytes, topo_bytes = json.dumps(meta).encode(), topo.encode()
    path.write_bytes(raw[:12] + struct.pack("<I", len(meta_bytes))
                     + meta_bytes + struct.pack("<Q", len(topo_bytes))
                     + topo_bytes + raw[at + 8 + topo_len:])


@pytest.mark.parametrize("edit", [
    lambda meta, topo: ({k: v for k, v in meta.items()
                         if k != "weight_mode"}, topo),
    lambda meta, topo: (meta, topo + "99 0\n"),
    lambda meta, topo: (meta, topo + "-1 0\n"),
    lambda meta, topo: (meta, topo + "3\n"),
    lambda meta, topo: ({**meta, "activation": "tanh"}, topo),
    lambda meta, topo: ({**meta, "init_scheme": "xavier"}, topo),
    lambda meta, topo: ({**meta, "weight_mode": "dense"}, topo),
], ids=["missing-key", "block-out-of-range", "negative-block",
        "short-block-line", "tanh", "init-scheme", "weight-mode"])
def test_damaged_checkpoint_rejected(tmp_path, edit):
    path = tmp_path / "ck.bin"
    save_checkpoint(_trained(), path)
    _edit_checkpoint(path, edit)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)
    assert main(["export-topology", "--checkpoint", str(path)]) == 3
