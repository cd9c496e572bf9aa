"""Versioned binary network checkpoints with bit-exact round trips.

A :mod:`motifset.container` file (magic ``MSETCKPT``, version 2).  The JSON
metadata holds the activation, weight mode, init scheme, motif size,
density record and layer sizes; the first section is the ``motif-topology
v1`` text, then per layer the raw float64 little-endian weight matrix and
bias vector.  All shapes are implied by the metadata and topology, so the
sections carry only data.
"""
from __future__ import annotations

import itertools

import numpy as np

from .container import read_container, write_container
from .errors import CheckpointFormatError, DivisibilityError, EmptyNetworkError
from .network import Network, zero_network
from .topology import export_topology, parse_topology

CHECKPOINT_MAGIC = b"MSETCKPT"
CHECKPOINT_VERSION = 2
_META_TYPES = {"activation": str, "weight_mode": str, "init_scheme": str,
               "motif_size": int, "epsilon": (int, float, type(None)),
               "density_mode": (str, type(None)), "layer_sizes": list}


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
    arrays = (np.ascontiguousarray(a, dtype="<f8")
              for layer in network.layers for a in (layer.weights, layer.bias))
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, meta,
                    itertools.chain([export_topology(topo).encode()], arrays))


def load_checkpoint(path) -> Network:
    """Reconstruct a network from a checkpoint file, bit for bit.

    Raises :class:`CheckpointFormatError` for a damaged file, including
    metadata that :func:`motifset.network.init_network` would reject.
    """
    meta, sections = read_container(path, CHECKPOINT_MAGIC,
                                    CHECKPOINT_VERSION, CheckpointFormatError)
    wrong = sorted(key for key, kind in _META_TYPES.items()
                   if not isinstance(meta.get(key), kind))
    if wrong:
        raise CheckpointFormatError(
            f"{path}: metadata keys {wrong} are missing or of the wrong type"
        )
    try:
        topology = parse_topology(
            str(sections[0], "utf-8") if sections else "",
            motif_size=meta["motif_size"],
            epsilon=meta["epsilon"],
            density_mode=meta["density_mode"],
        ).copy_mutable()
        network = zero_network(topology, meta["activation"],
                               meta["init_scheme"], meta["weight_mode"])
    except (ValueError, DivisibilityError, EmptyNetworkError) as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc

    if meta["layer_sizes"] != list(topology.layer_sizes):
        raise CheckpointFormatError(
            f"{path}: metadata layer sizes {meta['layer_sizes']} disagree "
            f"with topology {list(topology.layer_sizes)}"
        )
    targets = [a for layer in network.layers
               for a in (layer.weights, layer.bias)]
    if [s.nbytes for s in sections[1:]] != [a.nbytes for a in targets]:
        raise CheckpointFormatError(
            f"{path}: weight and bias sections do not match the topology"
        )
    for target, section in zip(targets, sections[1:]):
        target[...] = np.frombuffer(section, dtype="<f8").reshape(
            target.shape)
    return network
