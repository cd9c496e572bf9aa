"""Between-epoch topology evolution: prune weak blocks, regrow at random.

:func:`evolve` runs one event: per layer, it seeds a generator
``(rng_seed, event_index, layer_index)``, so every event of every layer is
independently reproducible, and applies the policy's rule to that layer.

``magnitude_set``
    The classic prune-and-regrow cycle adapted to block granularity.  The
    fraction ``zeta`` of active blocks with the smallest magnitude is
    deactivated (weights zeroed, mask cleared) and the same number of
    blocks is regrown uniformly at random among the inactive positions,
    with freshly initialized weights.  Block magnitude is the mean absolute
    weight over the block's tile of stored weights (a single weight for
    shared layers).  A fully dense layer is left untouched and reported
    once, as its ``saturated`` flag.

``listing4``
    A literal noise-driven variant: every stored active weight is zeroed
    independently with probability ``epsilon_prune``, then Gaussian noise
    scaled by ``noise_scale`` is added to every active position (which can
    resurrect just-zeroed weights).  The mask is never modified.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import Network, he_sample
from .topology import blocks

MAGNITUDE_SET = "magnitude_set"
LISTING4 = "listing4"


@dataclass(frozen=True)
class EvolutionPolicy:
    """Parameters steering topology evolution.

    zeta
        Fraction of active blocks pruned (and regrown) per event, strictly
        inside ``(0, 1)``.  The pruned count is ``floor(zeta * active)``.
    epsilon_prune
        Independent zeroing probability of the ``listing4`` mode, in
        ``[0, 1]`` (both endpoints are meaningful: never / always).
    noise_scale
        Standard deviation multiplier of the additive ``listing4`` noise,
        finite and ``>= 0``.
    """

    mode: str = MAGNITUDE_SET
    zeta: float = 0.3
    epsilon_prune: float = 0.1
    noise_scale: float = 0.01
    rng_seed: int = 0

    def __post_init__(self):
        if self.mode not in _RULES:
            raise ValueError(f"unknown evolution mode {self.mode!r}")
        if not 0.0 < self.zeta < 1.0:
            raise ValueError(f"zeta must be in (0, 1), got {self.zeta}")
        if not 0.0 <= self.epsilon_prune <= 1.0:
            raise ValueError(
                f"epsilon_prune must be in [0, 1], got {self.epsilon_prune}"
            )
        if not np.isfinite(self.noise_scale) or self.noise_scale < 0.0:
            raise ValueError(
                f"noise_scale must be finite and >= 0, got {self.noise_scale}"
            )


@dataclass
class LayerEvolutionStats:
    layer: int
    pruned: int
    regrown: int
    active_blocks: int
    saturated: bool = False


@dataclass
class EvolutionStats:
    """Per-layer bookkeeping of one evolution event."""

    layers: list[LayerEvolutionStats] = field(default_factory=list)

    @property
    def total_pruned(self) -> int:
        return sum(s.pruned for s in self.layers)

    def csv_rows(self, epoch: int) -> list[str]:
        return [
            f"{epoch},{s.layer},{s.pruned},{s.regrown},{s.active_blocks},"
            f"{int(s.saturated)}"
            for s in self.layers
        ]


EVOLUTION_CSV_HEADER = "epoch,layer,pruned,regrown,active_blocks,saturated"


def _prune_regrow(network: Network, i: int, policy: EvolutionPolicy,
                  rng: np.random.Generator) -> LayerEvolutionStats:
    layer = network.layers[i]
    mask = layer.block_mask
    rows, cols = np.nonzero(mask)
    active = rows.size
    if active == mask.size:
        return LayerEvolutionStats(i, 0, 0, active, saturated=True)
    k = int(np.floor(policy.zeta * active))
    if k == 0:
        return LayerEvolutionStats(i, 0, 0, active)

    e = layer.expand_factor
    w = blocks(layer.weights, e)  # w[r, :, c, :] is block (r, c)
    tiles = np.abs(w[rows, :, cols, :])
    mags = np.add.accumulate(tiles.sum(axis=2), axis=1)[:, -1] / (e * e)
    prune_sel = np.argsort(mags, kind="stable")[:k]
    pr, pc = rows[prune_sel], cols[prune_sel]
    mask[pr, pc] = False
    w[pr, :, pc, :] = 0.0

    # draw before listing the free blocks, so that choice's internal
    # arange over them is gone before the list is built
    pick = rng.choice(mask.size - active + k, size=k, replace=False)
    gr, gc = np.divmod(np.flatnonzero(~mask)[pick], mask.shape[1])
    mask[gr, gc] = True
    w[gr, :, gc, :] = he_sample(rng, network.init_scheme,
                                network.layer_sizes[i], (k, e, e))
    # k pruned and k regrown: the active count is where it started
    return LayerEvolutionStats(i, k, k, active)


def _zap_and_noise(network: Network, i: int, policy: EvolutionPolicy,
                   rng: np.random.Generator) -> LayerEvolutionStats:
    layer = network.layers[i]
    e = layer.expand_factor
    w = blocks(layer.weights, e)
    active = np.broadcast_to(layer.block_mask[:, None, :, None], w.shape)
    zap = (blocks(rng.random(layer.weights.shape), e)
           < policy.epsilon_prune) & active
    w[zap] = 0.0
    if policy.noise_scale > 0.0:
        noise = blocks(rng.standard_normal(layer.weights.shape), e)
        w[active] += noise[active] * policy.noise_scale
    return LayerEvolutionStats(i, int(zap.sum()), 0,
                               int(layer.block_mask.sum()))


_RULES = {MAGNITUDE_SET: _prune_regrow, LISTING4: _zap_and_noise}


def evolve(network: Network, policy: EvolutionPolicy,
           event_index: int = 0) -> tuple[Network, EvolutionStats]:
    """One evolution event of the policy's mode, in place, layer by layer.

    ``magnitude_set``: ``k = floor(zeta * active)`` blocks are pruned.
    Pruning order sorts active blocks by magnitude ascending with a stable
    sort, so equal magnitudes break ties by (row, col) position; a tile's
    magnitude sums each tile row, then the row sums top to bottom, over the
    cell count.  Regrowth draws one ``choice`` of ``k`` without replacement
    from the blocks inactive *after* pruning, in row-major order (so a
    just-pruned block can be immediately regrown with a fresh weight), then
    one He sample of shape ``(k, e, e)``.  A fully dense layer is skipped,
    draws nothing and is flagged ``saturated``; a layer with ``k == 0`` is
    skipped too.

    ``listing4``: one uniform variate per stored weight cell is drawn;
    active cells with a variate below ``epsilon_prune`` are zeroed.  Then,
    when ``noise_scale > 0``, one standard normal per stored cell is drawn,
    and its product with ``noise_scale`` is added to every active cell,
    including just-zeroed ones.  Masks are untouched, so ``pruned`` counts
    zeroed cells and ``regrown`` stays 0.
    """
    rule = _RULES[policy.mode]
    stats = EvolutionStats()
    for i in range(len(network.layers)):
        rng = np.random.default_rng((policy.rng_seed, event_index, i))
        stats.layers.append(rule(network, i, policy, rng))
    return network, stats


def evolution_schedule(epoch: int, total_epochs: int, period: int = 1) -> bool:
    """Whether an evolution event runs after the given epoch.

    Events fire after every ``period``-th epoch (1-based), but never after
    the final epoch, so the last training epoch always ends with a
    gradient-only network.
    """
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    if total_epochs < 1:
        raise ValueError(f"total_epochs must be >= 1, got {total_epochs}")
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if epoch >= total_epochs - 1:
        return False
    return (epoch + 1) % period == 0
