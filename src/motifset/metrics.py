"""Efficiency/accuracy scoring, trade-off sweeps, and cost accounting.

The comprehensive score of a variant run against a baseline is

    S = w_eff * R_r + w_acc * (1 - A_r)

with the runtime reduction ratio ``R_r = (T_base - T) / T_base`` and the
accuracy reduction ratio ``A_r = (A_base - A) / A_base``.  Neither ratio is
clamped: a variant slower than the baseline contributes a negative ``R_r``
and a variant that is *more* accurate makes ``A_r`` negative.  The baseline
compared against itself scores exactly ``w_acc``, which makes the baseline
score a fixed horizontal line in weight sweeps.

The analytic cost model counts multiply-accumulates per sample from the
active block counts alone.  Shared-weight hidden layers use the pooled
formulation (pool, block multiply, broadcast), so their forward cost is
``k + n_prev`` MACs for ``k`` active blocks and the backward cost is
``2k + n_next``; neuron-granularity layers cost one MAC per active weight
forward and two backward.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveBaselineError, WeightSumError
from .network import weight_grid
from .topology import MotifTopology

METRICS_CSV_HEADER = "epoch,train_loss,test_accuracy,epoch_time_s,flops"
W_EFF = 0.1  # the default efficiency weight; w_acc = 1 - w_eff
SCORE_CSV_HEADER = "w_eff,w_acc,r_r,a_r,s_variant,s_baseline"


def fmt(x: float) -> str:
    """Shortest decimal that round-trips the float64 exactly."""
    return repr(float(x))


@dataclass
class RunMeasurement:
    """Per-epoch history plus end-of-run totals of one training run."""

    per_epoch_time_s: list[float] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list)
    test_accuracies: list[float] = field(default_factory=list)
    flop_count: int = 0
    evolve_time_s: float = 0.0
    total_time_s: float = 0.0

    @property
    def n_epochs(self) -> int:
        return len(self.train_losses)

    @property
    def final_accuracy(self) -> float:
        return self.test_accuracies[-1]

    def record_epoch(self, epoch_time_s: float, train_loss: float,
                     test_accuracy: float, flops: int) -> str:
        """Append the next epoch's measurements, add its MACs to the total
        and return its ``METRICS_CSV_HEADER`` row."""
        self.per_epoch_time_s.append(float(epoch_time_s))
        self.train_losses.append(float(train_loss))
        self.test_accuracies.append(float(test_accuracy))
        self.flop_count += int(flops)
        return (f"{self.n_epochs - 1},{fmt(train_loss)},{fmt(test_accuracy)},"
                f"{fmt(epoch_time_s)},{flops}")


@dataclass(frozen=True)
class ScoreReport:
    """One evaluation of the comprehensive score."""

    w_eff: float
    w_acc: float
    r_r: float
    a_r: float
    s: float


def comprehensive_score(t_base: float, t: float, a_base: float, a: float,
                        w_eff: float = W_EFF) -> ScoreReport:
    """Score a variant (time ``t``, accuracy ``a``) against a baseline.

    ``w_acc`` is ``1 - w_eff``.  Raises :class:`NonPositiveBaselineError`
    when a baseline quantity is not positive (NaN included) and
    :class:`WeightSumError` when ``w_eff`` is outside ``[0, 1]`` or NaN.
    """
    if not t_base > 0:  # NaN fails too
        raise NonPositiveBaselineError(f"baseline time {t_base} must be > 0")
    if not a_base > 0:
        raise NonPositiveBaselineError(
            f"baseline accuracy {a_base} must be > 0"
        )
    if not 0 <= w_eff <= 1:  # NaN fails too
        raise WeightSumError(f"w_eff must be in [0, 1], got {w_eff}")
    w_acc = 1.0 - w_eff
    r_r = (t_base - t) / t_base
    a_r = (a_base - a) / a_base
    s = w_eff * r_r + w_acc * (1.0 - a_r)
    return ScoreReport(w_eff, w_acc, r_r, a_r, s)


@dataclass
class SweepResult:
    """Scores across a grid of efficiency weights.

    ``crossover_w_eff`` is the smallest grid weight at which the variant
    strictly beats the baseline's fixed-point score ``w_acc`` (None when it
    never does).
    """

    points: list[ScoreReport]
    crossover_w_eff: float | None


def tradeoff_sweep(t_base: float, t: float, a_base: float, a: float,
                   grid=None) -> SweepResult:
    """Evaluate the score along a grid of ``w_eff`` values.

    The default grid is 0 to 1 in steps of 0.01.  Each point uses
    ``w_acc = 1 - w_eff``; the paired baseline score is ``w_acc``.  An
    empty grid raises ValueError; :func:`comprehensive_score` checks each
    weight.
    """
    if grid is None:
        grid = np.linspace(0.0, 1.0, 101)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("sweep grid is empty")
    points = []
    crossover = None
    for w in grid.tolist():
        report = comprehensive_score(t_base, t, a_base, a, w_eff=w)
        points.append(report)
        if crossover is None and report.s > report.w_acc:
            crossover = w
    return SweepResult(points, crossover)


def score_csv_rows(result: SweepResult) -> list[str]:
    """One ``SCORE_CSV_HEADER`` row per point; ``s_baseline`` is ``w_acc``."""
    return [f"{fmt(p.w_eff)},{fmt(p.w_acc)},{fmt(p.r_r)},{fmt(p.a_r)},"
            f"{fmt(p.s)},{fmt(p.w_acc)}" for p in result.points]


# --------------------------------------------------------------------------
# analytic cost model


@dataclass(frozen=True)
class FlopCount:
    """Multiply-accumulate counts per layer and in total.

    Per-layer fields are per sample; ``total`` scales the sum of forward
    and backward by ``n_samples``.
    """

    forward_per_layer: tuple[int, ...]
    backward_per_layer: tuple[int, ...]
    n_samples: int

    @property
    def forward_per_sample(self) -> int:
        return sum(self.forward_per_layer)

    @property
    def backward_per_sample(self) -> int:
        return sum(self.backward_per_layer)

    @property
    def total(self) -> int:
        return self.n_samples * (self.forward_per_sample
                                 + self.backward_per_sample)


def flop_counter(topology: MotifTopology, weight_mode: str = "shared",
                 n_samples: int = 1) -> FlopCount:
    """Count MACs per sample from active block counts (closed form).

    Each layer's stored grid is :func:`motifset.network.weight_grid`'s.  A
    grid with fewer rows than the layer has inputs is pooled: for ``k``
    active blocks, ``n_prev`` input and ``n_next`` output neurons, forward
    costs ``k + n_prev`` (column pooling plus one MAC per block), backward
    costs ``2k + n_next`` (block gradient, input delta, and pooling the
    output delta).  Any other grid costs one MAC per active weight forward
    and two backward, and a block holds ``(rows / mask rows)**2`` weights:
    ``m * m`` on an independent-mode hidden layer, else one.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    fwd = []
    bwd = []
    sizes = topology.layer_sizes
    for i, mask in enumerate(topology.block_masks):
        rows, _ = weight_grid(sizes, topology.motif_size, weight_mode, i)
        k = int(mask.sum())
        if rows < sizes[i]:
            fwd.append(k + sizes[i])
            bwd.append(2 * k + sizes[i + 1])
        else:
            active_weights = k * (rows // mask.shape[0]) ** 2
            fwd.append(active_weights)
            bwd.append(2 * active_weights)
    return FlopCount(tuple(fwd), tuple(bwd), int(n_samples))
