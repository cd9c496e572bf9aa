"""Versioned binary network checkpoints with bit-exact round trips.

A :mod:`motifset.container` file (magic ``MSETCKPT``, version 2).  The JSON
metadata holds the activation, weight mode, init scheme, motif size,
density record and layer sizes; the first section is the ``motif-topology
v1`` text, then per layer the raw float64 little-endian weight matrix and
bias vector.  All shapes are implied by the metadata and topology, so the
sections carry only data, and the loader reads them straight into the
network's arrays.
"""
from __future__ import annotations

import itertools

import numpy as np

from .container import read_container, write_container
from .errors import CheckpointFormatError, DivisibilityError, EmptyNetworkError
from .network import Network, SparseLayer, weight_grid, zero_network
from .topology import blocks, export_topology, parse_topology

CHECKPOINT_MAGIC = b"MSETCKPT"
CHECKPOINT_VERSION = 2
_META_TYPES = {"activation": str, "weight_mode": str, "init_scheme": str,
               "motif_size": int, "epsilon": (int, float, type(None)),
               "density_mode": (str, type(None)), "layer_sizes": list}


# weight cells per group of block rows that _inactive_nonzero inspects at
# once: its two boolean temporaries stay at 256 KiB each
_COUNT_CELLS = 1 << 18


def _inactive_nonzero(layer: SparseLayer) -> int:
    """How many weights outside the active blocks are not ``+0.0``.

    Counts cells whose bits are not all zero, one group of block rows at a
    time, so no temporary larger than a group is made.
    """
    e = layer.expand_factor
    bits = layer.weights.view(np.uint64)
    mask = layer.block_mask
    step = max(1, _COUNT_CELLS // bits.shape[1] // e)
    stray = 0
    for r in range(0, mask.shape[0], step):
        group = blocks(bits[r * e:(r + step) * e], e)
        stray += np.count_nonzero(
            (group != 0) & ~mask[r:r + step, None, :, None])
    return stray


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
    metadata that :func:`motifset.network.init_network` would reject and a
    weight outside the active blocks that is anything but ``+0.0``
    (``-0.0`` included): the forward pass multiplies by those weights, and
    the in-place update keeps them ``+0.0`` only if they start that way.
    """
    with read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                        CheckpointFormatError) as (meta, sizes, read):
        wrong = sorted(key for key, kind in _META_TYPES.items()
                       if key not in meta or not isinstance(meta[key], kind))
        if wrong:
            raise CheckpointFormatError(
                f"{path}: metadata keys {wrong} are missing or of the wrong "
                f"type"
            )
        try:
            # the file's own size bounds every grid: check it before one
            # is built
            layer_sizes, implied = meta["layer_sizes"], []
            # a string or list would make the products below repeat it
            if not all(isinstance(n, int) for n in layer_sizes):
                raise ValueError(f"layer sizes {layer_sizes} are not all "
                                 f"integers")
            for i in range(len(layer_sizes) - 1):
                rows, cols = weight_grid(layer_sizes, meta["motif_size"],
                                         meta["weight_mode"], i)
                implied += [8 * rows * cols, 8 * layer_sizes[i + 1]]
            if sizes[1:] != implied:
                raise ValueError("weight and bias sections do not match the "
                                 "metadata")
            topology = parse_topology(
                read(),
                motif_size=meta["motif_size"],
                epsilon=meta["epsilon"],
                density_mode=meta["density_mode"],
                expected_sizes=layer_sizes,
            ).copy_mutable()
            network = zero_network(topology, meta["activation"],
                                   meta["init_scheme"], meta["weight_mode"])
        except (ValueError, TypeError, ZeroDivisionError, DivisibilityError,
                EmptyNetworkError) as exc:
            raise CheckpointFormatError(f"{path}: {exc}") from exc
        for layer in network.layers:
            read(layer.weights)
            read(layer.bias)
    for i, layer in enumerate(network.layers):
        stray = _inactive_nonzero(layer)
        if stray:
            raise CheckpointFormatError(
                f"{path}: layer {i} has {stray} weights outside its active "
                f"blocks that are not +0.0"
            )
    return network
