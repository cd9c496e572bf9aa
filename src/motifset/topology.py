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

import re
from dataclasses import dataclass

import numpy as np

from .errors import DivisibilityError, EmptyNetworkError, TopologyFormatError

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


def block_grid(layer_sizes, motif_size: int, layer_index: int
               ) -> tuple[int, int, int]:
    """``(rows, cols, tile)`` of weight layer ``layer_index``'s block grid.

    The tile is the motif size, except on the last weight layer, which stays
    at neuron granularity (tile 1).
    """
    tile = 1 if layer_index == len(layer_sizes) - 2 else motif_size
    return (layer_sizes[layer_index] // tile,
            layer_sizes[layer_index + 1] // tile, tile)


def blocks(a: np.ndarray, t: int) -> np.ndarray:
    """The ``(rows, t, cols, t)`` view of a C-contiguous 2-D array.

    ``blocks(a, t)[r, :, c, :]`` is the ``t x t`` tile of block ``(r, c)``,
    and writes through the view land in ``a``.
    """
    if not a.flags.c_contiguous:
        raise ValueError("blocks() needs a C-contiguous array")
    rows, cols = a.shape
    return a.reshape(rows // t, t, cols // t, t)


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
            shape = block_grid(self.layer_sizes, self.motif_size, i)[:2]
            if mask.shape != shape:
                raise ValueError(
                    f"mask {i} has shape {mask.shape}, expected {shape}"
                )

    @property
    def n_weight_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def tile(self, layer_index: int) -> int:
        """Block tile size of weight layer ``layer_index`` (1 on the last),
        read from its mask; a negative index counts from the end."""
        mask = self.block_masks[layer_index]
        return self.layer_sizes[:-1][layer_index] // mask.shape[0]

    def copy_mutable(self) -> "MotifTopology":
        """Deep copy with writable masks, for a network that will evolve."""
        masks = tuple(np.array(m) for m in self.block_masks)
        return MotifTopology(self.layer_sizes, self.motif_size, masks,
                             self.epsilon, self.density_mode)


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
        rows, cols, _ = block_grid(layer_sizes, motif_size, i)
        rng = np.random.default_rng((seed, i))
        p = density.target_density(rows, cols)
        total = rows * cols
        k = int(round(p * total))
        mask = np.zeros((rows, cols), dtype=bool)
        if k > 0:
            flat = rng.choice(total, size=k, replace=False)
            mask.reshape(-1)[flat] = True
        # every output block column must receive at least one connection
        empty_cols = np.flatnonzero(~mask.any(axis=0))
        for col in empty_cols:
            mask[rng.integers(rows), col] = True
        mask.flags.writeable = False
        masks.append(mask)

    return MotifTopology(layer_sizes, motif_size, tuple(masks),
                         epsilon=density.value, density_mode=density.mode)


def _digits(n: int) -> np.ndarray:
    """``(n, width)`` uint8 table: row ``v`` is ``v``'s decimal digits,
    left-aligned and padded with zero bytes."""
    table = np.array([b"%d" % v for v in range(n)])
    return table.view(np.uint8).reshape(n, -1)


def export_topology(topology: MotifTopology) -> str:
    """Serialize a topology to the ``motif-topology v1`` text format.

    One ``layer <index> <rows> <cols> <tile>`` line per weight layer,
    followed by one ``<row> <col>`` line per active block in row-major
    order.  The format is self-delimiting and round-trips exactly through
    :func:`parse_topology`.  Each layer's block lines are laid out as
    fixed-width records gathered from digit tables, and the padding bytes
    are then dropped.
    """
    parts = [TOPOLOGY_HEADER.encode() + b"\n"]
    for i, mask in enumerate(topology.block_masks):
        rows, cols = mask.shape
        parts.append(b"layer %d %d %d %d\n"
                     % (i, rows, cols, topology.tile(i)))
        r, c = np.divmod(np.flatnonzero(mask), cols)
        row_digits, col_digits = _digits(rows), _digits(cols)
        lines = np.concatenate(
            [row_digits[r], np.full((r.size, 1), ord(" "), np.uint8),
             col_digits[c], np.full((r.size, 1), ord("\n"), np.uint8)],
            axis=1)
        parts.append(lines[lines != 0].tobytes())
    return b"".join(parts).decode("ascii")


# a layer line with the newline before it; the one after it is not taken
_LAYER_LINE = re.compile(rb"\nlayer ([0-9]+) ([0-9]+) ([0-9]+) ([0-9]+)"
                         rb"(?=\n)")


def _block_lines(body: np.ndarray, rows: int, cols: int, i: int):
    """Rows and columns of a layer's block lines, ``<row> <col>\\n`` each.

    The bytes are checked before ``np.fromstring`` sees them, because it
    stops early, with only a warning, at anything it cannot parse.
    """
    seps = np.flatnonzero(np.subtract(body, ord("0"), dtype=np.uint8) > 9)
    if not (seps.size % 2 == 0 and (body[-1:] == ord("\n")).all()
            and (body[seps[0::2]] == ord(" ")).all()
            and (body[seps[1::2]] == ord("\n")).all()
            and (np.diff(seps, prepend=-1) > 1).all()):
        raise TopologyFormatError(
            f"layer {i} has a block line other than '<row> <col>' in ASCII "
            f"digits")
    pairs = np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 2)
    outside = np.flatnonzero(((pairs < 0) | (pairs >= (rows, cols))).any(1))
    if outside.size:
        r, c = pairs[outside[0]]
        raise TopologyFormatError(f"block {r} {c} lies outside the {rows} x "
                                  f"{cols} grid of layer {i}")
    return pairs[:, 0], pairs[:, 1]


def parse_topology(text: str | bytes, motif_size: int | None = None,
                   epsilon: float | None = None,
                   density_mode: str | None = None,
                   expected_sizes: list | None = None) -> MotifTopology:
    """Parse the ``motif-topology v1`` text format back into a topology.

    The text must be exactly what :func:`export_topology` writes: the
    header line, then per layer its ``layer`` line and its block lines,
    every line ending in ``\\n``, numbers in ASCII digits, one space
    between them, and no blank line.  Layer sizes are reconstructed from
    the grid shapes and tile sizes.  The motif size is inferred from the
    first layer's tile; for a network with a single weight layer (stored at
    tile 1) pass ``motif_size`` explicitly if it matters.
    ``epsilon``/``density_mode`` are not stored in the text format; pass
    them to re-attach them (checkpoints do).  Raises TopologyFormatError
    for a malformed line, a block outside its grid, or a grid other than
    ``expected_sizes`` imply (checked before it is built).
    """
    data = text.encode() if isinstance(text, str) else text
    head = TOPOLOGY_HEADER.encode() + b"\n"
    if not data.startswith(head):
        raise TopologyFormatError(f"missing '{TOPOLOGY_HEADER}' header")
    found = list(_LAYER_LINE.finditer(data, len(head) - 1))
    if not found:
        raise TopologyFormatError("no layer lines found")
    if found[0].start() != len(head) - 1:
        raise TopologyFormatError("block line before any layer line")

    whole = np.frombuffer(data, dtype=np.uint8)
    shapes: list[tuple[int, int, int]] = []  # rows, cols, tile
    masks: list[np.ndarray] = []
    ends = [m.start() + 1 for m in found[1:]] + [len(data)]
    for line, end in zip(found, ends):
        idx, rows, cols, tile = map(int, line.groups())
        if idx != len(shapes):
            raise TopologyFormatError(f"layer lines out of order at index "
                                      f"{idx}")
        if expected_sizes is not None and list(
                expected_sizes[idx:idx + 2]) != [rows * tile, cols * tile]:
            raise TopologyFormatError(
                f"layer {idx} grid {rows} x {cols} at tile {tile} disagrees "
                f"with {expected_sizes}")
        shapes.append((rows, cols, tile))
        mask = np.zeros((rows, cols), dtype=bool)
        mask[_block_lines(whole[line.end() + 1:end], rows, cols, idx)] = True
        mask.flags.writeable = False
        masks.append(mask)

    if (expected_sizes is not None
            and len(shapes) + 1 != len(expected_sizes)):
        raise TopologyFormatError(f"{len(shapes)} layers for sizes "
                                  f"{expected_sizes}")
    layer_sizes = [shapes[0][0] * shapes[0][2]]
    for rows, cols, tile in shapes:
        layer_sizes.append(cols * tile)
    if motif_size is None:
        # the last layer is stored at tile 1; every earlier layer's tile is
        # the motif size (all non-final tiles agree by construction)
        motif_size = shapes[0][2] if len(shapes) > 1 else 1
    try:
        return MotifTopology(tuple(layer_sizes), motif_size, tuple(masks),
                             epsilon=epsilon, density_mode=density_mode)
    except (ValueError, DivisibilityError, EmptyNetworkError) as exc:
        raise TopologyFormatError(str(exc)) from exc
