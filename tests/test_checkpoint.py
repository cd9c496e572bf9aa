"""Checkpoint container: bit-exact round trips and corruption handling."""
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motifset.checkpoint
from motifset.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from motifset.cli import main
from motifset.container import read_container, write_container
from motifset.errors import CheckpointFormatError
from motifset.network import (
    backward,
    forward,
    gradient_buffer,
    init_network,
    sgd_step,
)
from motifset.topology import FIXED_MODE, BlockDensitySpec, build_topology

from conftest import (
    Unwritable,
    damaged,
    json_values,
    small_network,
)


def _trained(seed=0, **kw):
    net = small_network(seed=seed, **kw)
    buffer = gradient_buffer(net)
    rng = np.random.default_rng(seed + 100)
    for _ in range(5):
        x = rng.normal(size=(6, net.layer_sizes[0]))
        y = np.eye(net.n_classes)[rng.integers(0, net.n_classes, 6)]
        sgd_step(backward(net, forward(net, x), y, buffer), 0.1)
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


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("sealed") / "ck.bin"
    save_checkpoint(_trained(), path)
    return path.read_bytes()


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_damaged_bytes_rejected(data, checkpoint_bytes, tmp_path_factory):
    # only the typed error escapes, and the command line exits 3
    path = tmp_path_factory.mktemp("fuzz") / "ck.bin"
    path.write_bytes(data.draw(damaged(checkpoint_bytes)))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)
    assert main(["export-topology", "--checkpoint", str(path)]) == 3


def test_load_peaks_near_the_arrays_it_returns(tmp_path):
    # sections are read straight into the network's arrays, the file is
    # never held whole and the stray-weight check counts a bounded group
    # of block rows at a time: on three 1000-wide hidden layers, 10% dense
    # at m = 1, the peak stays within 5% of the weights, biases and masks
    topo = build_topology((784, 1000, 1000, 1000, 10), 1,
                          BlockDensitySpec(FIXED_MODE, 0.1), seed=1)
    path = tmp_path / "ck.bin"
    save_checkpoint(init_network(topo, seed=2), path)
    del topo
    tracemalloc.start()
    try:
        network = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for layer in network.layers
                   for a in (layer.weights, layer.bias, layer.block_mask))
    assert peak <= 1.05 * returned


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
    with read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                        CheckpointFormatError) as (meta, sizes, read):
        sections = [read() for _ in sizes]
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
    # a grid the metadata does not imply is refused before it is allocated
    lambda meta, topo: (meta, re.sub(r"^layer 0 .*$",
                                     "layer 0 1000000000 1000000000 1", topo,
                                     flags=re.M)),
    # one the metadata implies too is refused by the section lengths
    lambda meta, topo: ({**meta, "layer_sizes": [10**9, 10**9]},
                        topo.splitlines()[0]
                        + "\nlayer 0 1000000000 1000000000 1\n"),
    lambda meta, topo: ({**meta, "layer_sizes": [8, 8, 5]}, topo),
    lambda meta, topo: ({**meta, "layer_sizes": [8, 8, 4, 4]}, topo),
    lambda meta, topo: ({**meta, "motif_size": 0}, topo),
], ids=["missing-key", "block-out-of-range", "negative-block",
        "short-block-line", "tanh", "init-scheme", "weight-mode",
        "motif-size-str", "epsilon-str", "oversized-grid",
        "oversized-grid-in-metadata", "layer-sizes-disagree",
        "layer-sizes-extra", "motif-size-zero"])
def test_damaged_checkpoint_rejected(tmp_path, edit):
    path = tmp_path / "ck.bin"
    save_checkpoint(_trained(), path)
    _edit_checkpoint(path, edit)
    with pytest.raises(CheckpointFormatError) as caught:
        load_checkpoint(path)
    assert "checksum" not in str(caught.value)
    assert main(["export-topology", "--checkpoint", str(path)]) == 3


def test_metadata_not_a_json_object_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(_trained(), path)
    _edit_checkpoint(path, lambda meta, topo: (list(meta), topo))
    with pytest.raises(CheckpointFormatError,
                       match="metadata is not a JSON object"):
        load_checkpoint(path)


def test_topology_without_its_last_layer_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(_trained(sizes=(8, 8, 8, 4)), path)
    _edit_checkpoint(path, lambda meta, topo: (
        meta, topo[:topo.index("\nlayer 2 ") + 1]))
    with pytest.raises(CheckpointFormatError,
                       match=r"^.*: 2 layers for sizes \[8, 8, 8, 4\]$"):
        load_checkpoint(path)


@pytest.mark.parametrize("sizes", [["8", 8, 4], [[8], 8, 4], [8.0, 8, 4]],
                         ids=["str", "list", "float"])
def test_non_integer_layer_size_rejected(tmp_path, sizes):
    # an independent layer's grid sides are its sizes, so a string or list
    # side would be repeated by the section-length product, not multiplied
    path = tmp_path / "ck.bin"
    save_checkpoint(_trained(), path)
    _edit_checkpoint(path, lambda meta, topo: (
        {**meta, "weight_mode": "independent", "layer_sizes": sizes}, topo))
    with pytest.raises(CheckpointFormatError,
                       match=r"layer sizes .* are not all integers"):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value, message", [
    ("motif_size", True, "motif_size"), ("epsilon", True, "epsilon"),
    ("layer_sizes", [8, 8, True], "not all integers")],
    ids=["motif_size", "epsilon", "layer_sizes"])
def test_bool_metadata_value_rejected(tmp_path, key, value, message):
    # true equals 1 in Python, so it would load as a motif size of 1, an
    # epsilon of 1 or a last layer of one unit, and save as other bytes
    path = tmp_path / "ck.bin"
    save_checkpoint(_trained(sizes=(8, 8, 1), motif_size=1), path)
    _edit_checkpoint(path, lambda meta, topo: ({**meta, key: value}, topo))
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)


# a topology line: a layer line of drawn numbers, a block line, or text
_TOPOLOGY_LINES = st.one_of(
    st.lists(st.integers(-2, 10**12).map(str), min_size=4, max_size=4).map(
        lambda fields: " ".join(["layer", *fields])),
    st.lists(st.integers(-2, 10**12).map(str), max_size=3).map(" ".join),
    st.text(alphabet="0123456789 -layer\t", max_size=12))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_resealed_metadata_fuzz(data, checkpoint_bytes, tmp_path_factory):
    """Drawn metadata values and topology lines, sealed again so that the
    digest passes: the loader raises only CheckpointFormatError, and the
    command line exits 0 or 3."""
    path = tmp_path_factory.mktemp("resealed") / "ck.bin"
    path.write_bytes(checkpoint_bytes)

    def edit(meta, topo):
        keys = st.lists(st.sampled_from(sorted(meta)), max_size=3,
                        unique=True)
        meta.update({key: data.draw(json_values) for key in data.draw(keys)})
        lines = topo.split("\n")
        for at in data.draw(st.lists(st.integers(0, len(lines) - 1),
                                     max_size=2)):
            lines[at] = data.draw(_TOPOLOGY_LINES)
        return meta, "\n".join(lines)

    _edit_checkpoint(path, edit)
    try:
        load_checkpoint(path)
    except CheckpointFormatError:
        pass
    assert main(["export-topology", "--checkpoint", str(path)]) in (0, 3)


@pytest.mark.parametrize("key", ["epsilon", "density_mode"])
def test_missing_nullable_metadata_key_rejected(tmp_path, key):
    # these keys may hold null, but they may not be absent
    path = tmp_path / "ck.bin"
    save_checkpoint(_trained(), path)
    _edit_checkpoint(path, lambda meta, topo: (
        {k: v for k, v in meta.items() if k != key}, topo))
    with pytest.raises(CheckpointFormatError, match=key):
        load_checkpoint(path)


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


@pytest.mark.parametrize("group_rows", [1, 3])
@pytest.mark.parametrize("mode", ["shared", "independent"])
def test_stray_weights_counted_in_every_row_group(tmp_path, monkeypatch,
                                                  group_rows, mode):
    # groups of one block row, and of three, which do not divide the four
    # block rows: a stray in the first and in the last inactive block,
    # each in the last cell of its tile, is counted once
    net = _trained(weight_mode=mode, motif_size=2)
    layer = net.layers[0]
    e = layer.expand_factor
    assert layer.block_mask.shape[0] == 4
    monkeypatch.setattr(motifset.checkpoint, "_COUNT_CELLS",
                        group_rows * e * layer.weights.shape[1])
    inactive = np.argwhere(~layer.block_mask)
    assert inactive[0][0] < 3 <= inactive[-1][0]
    for r, c in inactive[[0, -1]]:
        layer.weights[r * e + e - 1, c * e + e - 1] = -0.0
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    with pytest.raises(CheckpointFormatError,
                       match=r"layer 0 has 2 weights outside its active "
                             r"blocks that are not \+0\.0"):
        load_checkpoint(path)
