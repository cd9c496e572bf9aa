"""Versioned binary network checkpoints with bit-exact round trips.

Layout: 8-byte magic, u32 version, length-prefixed JSON metadata
(activation, weight mode, init scheme, motif size, density record, layer
sizes), a length-prefixed ``motif-topology v1`` text section, then per
layer the raw float64 little-endian weight matrix and bias vector.  All
shapes are implied by the metadata and topology, so the payload carries
only data.
"""
from __future__ import annotations

import json
import struct

import numpy as np

from .errors import CheckpointFormatError, DivisibilityError, EmptyNetworkError
from .network import Network, zero_network
from .topology import export_topology, parse_topology

CHECKPOINT_MAGIC = b"MSETCKPT"
CHECKPOINT_VERSION = 1
_META_KEYS = {"activation", "weight_mode", "init_scheme", "motif_size",
              "epsilon", "density_mode", "layer_sizes"}


def save_checkpoint(network: Network, path):
    """Serialize a network (topology, weights, biases) to ``path``."""
    topo = network.topology
    meta = {
        "activation": network.activation,
        "weight_mode": network.weight_mode,
        "init_scheme": network.init_scheme,
        "motif_size": topo.motif_size,
        "epsilon": topo.epsilon,
        "density_mode": topo.density_mode,
        "layer_sizes": list(topo.layer_sizes),
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    topo_bytes = export_topology(topo).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(meta_bytes)))
        f.write(meta_bytes)
        f.write(struct.pack("<Q", len(topo_bytes)))
        f.write(topo_bytes)
        for layer in network.layers:
            f.write(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())


def _take(raw: bytes, offset: int, count: int, what: str):
    if offset + count > len(raw):
        raise CheckpointFormatError(
            f"checkpoint ends inside {what} (need {count} bytes at "
            f"offset {offset}, file has {len(raw)})"
        )
    return raw[offset:offset + count], offset + count


def load_checkpoint(path) -> Network:
    """Reconstruct a network from a checkpoint file, bit for bit.

    Raises :class:`CheckpointFormatError` for a damaged file, including
    metadata that :func:`motifset.network.init_network` would reject.
    """
    with open(path, "rb") as f:
        raw = f.read()
    head, offset = _take(raw, 0, len(CHECKPOINT_MAGIC), "magic")
    if head != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {head!r}")
    chunk, offset = _take(raw, offset, 4, "version")
    (version,) = struct.unpack("<I", chunk)
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"{path}: unsupported checkpoint version {version}"
        )
    chunk, offset = _take(raw, offset, 4, "metadata length")
    (meta_len,) = struct.unpack("<I", chunk)
    chunk, offset = _take(raw, offset, meta_len, "metadata")
    try:
        meta = json.loads(chunk.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: unreadable metadata") from exc
    if not isinstance(meta, dict) or not _META_KEYS <= meta.keys():
        raise CheckpointFormatError(
            f"{path}: metadata must hold the keys {sorted(_META_KEYS)}"
        )
    chunk, offset = _take(raw, offset, 8, "topology length")
    (topo_len,) = struct.unpack("<Q", chunk)
    chunk, offset = _take(raw, offset, topo_len, "topology text")
    try:
        topology = parse_topology(
            chunk.decode(),
            motif_size=meta["motif_size"],
            epsilon=meta["epsilon"],
            density_mode=meta["density_mode"],
        ).copy_mutable()
        network = zero_network(topology, meta["activation"],
                               meta["init_scheme"], meta["weight_mode"])
    except (ValueError, DivisibilityError, EmptyNetworkError) as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc

    if tuple(meta["layer_sizes"]) != topology.layer_sizes:
        raise CheckpointFormatError(
            f"{path}: metadata layer sizes {meta['layer_sizes']} disagree "
            f"with topology {list(topology.layer_sizes)}"
        )

    for i, layer in enumerate(network.layers):
        chunk, offset = _take(raw, offset, layer.weights.nbytes,
                              f"layer {i} weights")
        layer.weights = np.frombuffer(chunk, dtype="<f8").reshape(
            layer.weights.shape).copy()
        chunk, offset = _take(raw, offset, layer.bias.nbytes,
                              f"layer {i} bias")
        layer.bias = np.frombuffer(chunk, dtype="<f8").copy()
    if offset != len(raw):
        raise CheckpointFormatError(
            f"{path}: {len(raw) - offset} trailing bytes after last layer"
        )
    return network
