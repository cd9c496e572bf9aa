"""Checkpoint container: bit-exact round trips and corruption handling."""
import struct

import numpy as np
import pytest

from motifset.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from motifset.cli import main
from motifset.container import read_container, write_container
from motifset.errors import CheckpointFormatError
from motifset.network import backward, forward, sgd_step

from conftest import Unwritable, small_network


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
    from motifset.evolution import EvolutionPolicy, evolve

    net = _trained(seed=9, density=0.5)
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    evolve(back, EvolutionPolicy(zeta=0.3, rng_seed=1), 0)
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


def test_every_flipped_byte_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(_trained(), path)
    raw = path.read_bytes()
    for offset in range(len(raw)):
        damaged = bytearray(raw)
        damaged[offset] ^= 0xFF
        path.write_bytes(damaged)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


def test_version_1_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, 2) + b"{}"
                     + bytes(40))
    with pytest.raises(CheckpointFormatError, match="unsupported version 1"):
        load_checkpoint(path)
    assert main(["export-topology", "--checkpoint", str(path)]) == 3


def test_failed_save_keeps_previous_file(tmp_path):
    net = _trained()
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    before = path.read_bytes()
    net.layers[-1].bias = Unwritable()  # fails after the other sections
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(net, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]


def _edit_checkpoint(path, edit):
    """Rewrite a checkpoint's metadata and topology text through ``edit``.

    The result is sealed again, so the loader gets past the checksum and
    reaches its metadata and topology checks.
    """
    meta, sections = read_container(path, CHECKPOINT_MAGIC,
                                    CHECKPOINT_VERSION, CheckpointFormatError)
    meta, topo = edit(meta, str(sections[0], "utf-8"))
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, meta,
                    [topo.encode(), *sections[1:]])


@pytest.mark.parametrize("edit", [
    lambda meta, topo: ({k: v for k, v in meta.items()
                         if k != "weight_mode"}, topo),
    lambda meta, topo: (meta, topo + "99 0\n"),
    lambda meta, topo: (meta, topo + "-1 0\n"),
    lambda meta, topo: (meta, topo + "3\n"),
    lambda meta, topo: ({**meta, "activation": "tanh"}, topo),
    lambda meta, topo: ({**meta, "init_scheme": "xavier"}, topo),
    lambda meta, topo: ({**meta, "weight_mode": "dense"}, topo),
    lambda meta, topo: ({**meta, "motif_size": "2"}, topo),
    lambda meta, topo: ({**meta, "epsilon": "20"}, topo),
], ids=["missing-key", "block-out-of-range", "negative-block",
        "short-block-line", "tanh", "init-scheme", "weight-mode",
        "motif-size-str", "epsilon-str"])
def test_damaged_checkpoint_rejected(tmp_path, edit):
    path = tmp_path / "ck.bin"
    save_checkpoint(_trained(), path)
    _edit_checkpoint(path, edit)
    with pytest.raises(CheckpointFormatError) as caught:
        load_checkpoint(path)
    assert "checksum" not in str(caught.value)
    assert main(["export-topology", "--checkpoint", str(path)]) == 3


@pytest.mark.parametrize("stray", [-0.0, 1e-300, np.nan])
@pytest.mark.parametrize("mode,m", [("shared", 2), ("independent", 2)])
def test_inactive_weight_other_than_plus_zero_rejected(tmp_path, stray, mode,
                                                       m):
    net = _trained(weight_mode=mode, motif_size=m)
    layer = net.layers[0]
    e = layer.expand_factor
    r, c = np.argwhere(~layer.block_mask)[0]
    layer.weights[r * e, c * e] = stray
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    with pytest.raises(CheckpointFormatError,
                       match=r"layer 0 has 1 weights outside its active "
                             r"blocks that are not \+0\.0"):
        load_checkpoint(path)
    assert main(["export-topology", "--checkpoint", str(path)]) == 3
