"""Block-motif sparse connectivity: construction, inspection, text export.

A network topology is described per weight layer by a boolean *block mask*.
For motif size ``m`` every hidden-facing weight matrix is tiled into ``m x m``
blocks and the mask has one entry per block; the final weight layer always
stays at neuron granularity (tile size 1) so the class count never has to be
divisible by ``m``.

Sparsity is sampled on the block grid, either with a fixed density or with
the Erdos-Renyi rule used by sparse evolutionary training, where the density
of a ``rows x cols`` grid is ``epsilon * (rows + cols) / (rows * cols)``.
Sampling draws an exact number of blocks without replacement, so the achieved
density equals the target up to rounding on the block count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivisibilityError, EmptyNetworkError

ER_MODE = "erdos_renyi_set"
FIXED_MODE = "fixed_density"
_MODES = (ER_MODE, FIXED_MODE)

TOPOLOGY_HEADER = "motif-topology v1"


def check_layer_sizes(layer_sizes: tuple[int, ...], motif_size: int):
    """Raise unless every non-output width is a positive multiple of
    ``motif_size`` and there is at least one weight layer."""
    if len(layer_sizes) < 2:
        raise EmptyNetworkError(
            f"need at least input and output sizes, got {layer_sizes}"
        )
    if motif_size < 1:
        raise ValueError(f"motif size must be >= 1, got {motif_size}")
    if any(s < 1 for s in layer_sizes):
        raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
    for size in layer_sizes[:-1]:
        if size % motif_size != 0:
            raise DivisibilityError(
                f"layer width {size} is not divisible by motif size "
                f"{motif_size} (only the output layer is exempt)"
            )


def _block_grid(layer_sizes, motif_size: int, layer_index: int
                ) -> tuple[int, int, int]:
    """``(rows, cols, tile)`` of weight layer ``layer_index``'s block grid.

    The tile is the motif size, except on the last weight layer, which stays
    at neuron granularity (tile 1).
    """
    tile = 1 if layer_index == len(layer_sizes) - 2 else motif_size
    return (layer_sizes[layer_index] // tile,
            layer_sizes[layer_index + 1] // tile, tile)


def tile_cells(cells: np.ndarray, t: int) -> np.ndarray:
    """Expand every cell of a 2-D array into a ``t x t`` patch.

    Returns ``cells`` itself, not a copy, when ``t == 1``.
    """
    if t == 1:
        return cells
    return np.repeat(np.repeat(cells, t, axis=0), t, axis=1)


@dataclass(frozen=True)
class BlockDensitySpec:
    """How many blocks of a layer's block grid should be active.

    mode
        ``"erdos_renyi_set"``: ``value`` is the epsilon parameter of the
        Erdos-Renyi rule (density scales like ``eps * (r + c) / (r * c)``).
        ``"fixed_density"``: ``value`` is the density itself, in ``(0, 1]``.
    """

    mode: str
    value: float

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown density mode {self.mode!r}")
        if not np.isfinite(self.value) or self.value <= 0:
            raise ValueError(f"density value must be positive, got {self.value}")
        if self.mode == FIXED_MODE and self.value > 1.0:
            raise ValueError(f"fixed density must be <= 1, got {self.value}")

    @classmethod
    def erdos_renyi(cls, epsilon: float) -> "BlockDensitySpec":
        return cls(ER_MODE, float(epsilon))

    @classmethod
    def fixed(cls, density: float) -> "BlockDensitySpec":
        return cls(FIXED_MODE, float(density))

    def target_density(self, rows: int, cols: int) -> float:
        """Target fraction of active blocks for a rows x cols block grid."""
        if self.mode == FIXED_MODE:
            return self.value
        return min(1.0, self.value * (rows + cols) / (rows * cols))


@dataclass(frozen=True)
class MotifTopology:
    """Immutable description of one network's block-sparse connectivity.

    ``block_masks[i]`` is a boolean array with one entry per ``tile(i)`` x
    ``tile(i)`` block of weight layer ``i``.  ``epsilon``/``density_mode``
    record how the masks were sampled (``None`` when parsed from a text
    export that carries no sampling information).
    """

    layer_sizes: tuple[int, ...]
    motif_size: int
    block_masks: tuple[np.ndarray, ...]
    epsilon: float | None = None
    density_mode: str | None = None

    def __post_init__(self):
        check_layer_sizes(self.layer_sizes, self.motif_size)
        if len(self.block_masks) != self.n_weight_layers:
            raise ValueError(
                f"expected {self.n_weight_layers} masks, got {len(self.block_masks)}"
            )
        for i, mask in enumerate(self.block_masks):
            if mask.dtype != np.bool_:
                raise ValueError(f"mask {i} must be boolean, got {mask.dtype}")
            if mask.shape != self.block_shape(i):
                raise ValueError(
                    f"mask {i} has shape {mask.shape}, expected {self.block_shape(i)}"
                )

    @property
    def n_weight_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def tile(self, layer_index: int) -> int:
        """Block tile size of weight layer ``layer_index`` (1 on the last)."""
        self._check_index(layer_index)
        return _block_grid(self.layer_sizes, self.motif_size, layer_index)[2]

    def block_shape(self, layer_index: int) -> tuple[int, int]:
        self._check_index(layer_index)
        return _block_grid(self.layer_sizes, self.motif_size, layer_index)[:2]

    def copy_mutable(self) -> "MotifTopology":
        """Deep copy with writable masks, for a network that will evolve."""
        masks = tuple(np.array(m) for m in self.block_masks)
        return MotifTopology(self.layer_sizes, self.motif_size, masks,
                             self.epsilon, self.density_mode)

    def _check_index(self, layer_index: int):
        if not 0 <= layer_index < self.n_weight_layers:
            raise IndexError(
                f"layer index {layer_index} out of range "
                f"[0, {self.n_weight_layers})"
            )


def build_topology(layer_sizes, motif_size: int, density: BlockDensitySpec,
                   seed: int = 0) -> MotifTopology:
    """Sample a block-sparse topology.

    Per layer ``i`` the sampler uses an independent generator seeded with
    ``(seed, i)``, targets ``density.target_density(rows, cols)`` on the
    block grid, activates ``round(p * rows * cols)`` distinct blocks chosen
    uniformly without replacement, then repairs any output block column left
    without incoming connections by activating one random block in it.

    Masks in the returned topology are marked read-only; pass the topology
    to :func:`motifset.network.init_network` to get an evolvable copy.
    """
    layer_sizes = tuple(int(s) for s in layer_sizes)
    check_layer_sizes(layer_sizes, motif_size)

    masks = []
    for i in range(len(layer_sizes) - 1):
        rows, cols, _ = _block_grid(layer_sizes, motif_size, i)
        rng = np.random.default_rng((seed, i))
        p = density.target_density(rows, cols)
        total = rows * cols
        k = int(round(p * total))
        k = min(max(k, 0), total)
        mask = np.zeros((rows, cols), dtype=bool)
        if k > 0:
            flat = rng.choice(total, size=k, replace=False)
            mask.flat[flat] = True
        # every output block column must receive at least one connection
        empty_cols = np.flatnonzero(~mask.any(axis=0))
        for col in empty_cols:
            mask[rng.integers(rows), col] = True
        mask.flags.writeable = False
        masks.append(mask)

    return MotifTopology(layer_sizes, motif_size, tuple(masks),
                         epsilon=density.value, density_mode=density.mode)


def active_block_count(topology: MotifTopology) -> list[int]:
    """Number of active blocks per weight layer."""
    return [int(mask.sum()) for mask in topology.block_masks]


def expand_mask(topology: MotifTopology, layer_index: int) -> np.ndarray:
    """Neuron-granularity boolean mask of one weight layer.

    Each active block expands to a ``tile x tile`` patch of ones, so the
    result has shape ``(layer_sizes[i], layer_sizes[i + 1])``.  Raises
    IndexError for an invalid layer index.
    """
    topology._check_index(layer_index)
    mask = topology.block_masks[layer_index]
    return tile_cells(mask, topology.tile(layer_index)).copy()


def export_topology(topology: MotifTopology) -> str:
    """Serialize a topology to the ``motif-topology v1`` text format.

    One ``layer <index> <rows> <cols> <tile>`` line per weight layer,
    followed by one ``<row> <col>`` line per active block in row-major
    order.  The format is self-delimiting and round-trips exactly through
    :func:`parse_topology`.
    """
    lines = [TOPOLOGY_HEADER]
    for i, mask in enumerate(topology.block_masks):
        rows, cols = mask.shape
        lines.append(f"layer {i} {rows} {cols} {topology.tile(i)}")
        r_idx, c_idx = np.nonzero(mask)
        for r, c in zip(r_idx.tolist(), c_idx.tolist()):
            lines.append(f"{r} {c}")
    return "\n".join(lines) + "\n"


def _ints(parts: list[str], count: int, line: str) -> list[int]:
    if len(parts) != count:
        raise ValueError(f"expected {count} numbers in line {line!r}")
    return [int(p) for p in parts]


def parse_topology(text: str, motif_size: int | None = None,
                   epsilon: float | None = None,
                   density_mode: str | None = None) -> MotifTopology:
    """Parse the ``motif-topology v1`` text format back into a topology.

    Layer sizes are reconstructed from the grid shapes and tile sizes.
    The motif size is inferred from the first layer's tile; for a network
    with a single weight layer (stored at tile 1) pass ``motif_size``
    explicitly if it matters.  ``epsilon``/``density_mode`` are not stored
    in the text format; pass them to re-attach them (checkpoints do).
    Raises ValueError for a malformed line or a block outside its grid.
    """
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines or lines[0] != TOPOLOGY_HEADER:
        raise ValueError(f"missing '{TOPOLOGY_HEADER}' header")

    shapes: list[tuple[int, int, int]] = []  # rows, cols, tile
    masks: list[np.ndarray] = []
    current: np.ndarray | None = None
    for ln in lines[1:]:
        if not ln:
            continue
        parts = ln.split()
        if parts[0] == "layer":
            idx, rows, cols, tile = _ints(parts[1:], 4, ln)
            if idx != len(shapes):
                raise ValueError(f"layer lines out of order at index {idx}")
            shapes.append((rows, cols, tile))
            current = np.zeros((rows, cols), dtype=bool)
            masks.append(current)
        else:
            if current is None:
                raise ValueError("block line before any layer line")
            r, c = _ints(parts, 2, ln)
            if not (0 <= r < current.shape[0] and 0 <= c < current.shape[1]):
                raise ValueError(
                    f"block {r} {c} lies outside the {current.shape[0]} x "
                    f"{current.shape[1]} grid of layer {len(shapes) - 1}"
                )
            current[r, c] = True

    if not shapes:
        raise ValueError("no layer lines found")

    layer_sizes = [shapes[0][0] * shapes[0][2]]
    for rows, cols, tile in shapes:
        layer_sizes.append(cols * tile)
    if motif_size is None:
        # the last layer is stored at tile 1; every earlier layer's tile is
        # the motif size (all non-final tiles agree by construction)
        motif_size = shapes[0][2] if len(shapes) > 1 else 1
    for mask in masks:
        mask.flags.writeable = False
    return MotifTopology(tuple(layer_sizes), motif_size, tuple(masks),
                         epsilon=epsilon, density_mode=density_mode)
