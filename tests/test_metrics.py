"""Score arithmetic, sweep behavior, cost model, and CSV formatting.

The benchmark-table reference points used here are the wall-time and
accuracy pairs of the three motif sizes on the two benchmark tasks; the
expected scores were recomputed from those inputs with scalar arithmetic
and frozen.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifset.errors import NonPositiveBaselineError, WeightSumError
from motifset.metrics import (
    FlopCount,
    RunMeasurement,
    comprehensive_score,
    flop_counter,
    fmt,
    metrics_csv_row,
    record_epoch,
    score_csv_rows,
    tradeoff_sweep,
)
from motifset.topology import BlockDensitySpec, MotifTopology, build_topology

# (time, accuracy) per motif size from the reference byte-image benchmark
FM_T = {1: 25236.2, 2: 14307.5, 4: 9209.3}
FM_A = {1: 0.761, 2: 0.733, 4: 0.692}
# and from the high-dimensional tabular benchmark
LUNG_T = {1: 4953.2, 2: 3448.7, 4: 3417.3}
LUNG_A = {1: 0.937, 2: 0.926, 4: 0.914}


class TestComprehensiveScore:
    def test_baseline_against_itself_is_exactly_w_acc(self):
        report = comprehensive_score(FM_T[1], FM_T[1], FM_A[1], FM_A[1])
        assert report.s == 0.9
        assert report.r_r == 0.0 and report.a_r == 0.0

    def test_reference_motif2_values(self):
        report = comprehensive_score(FM_T[1], FM_T[2], FM_A[1], FM_A[2])
        assert report.r_r == pytest.approx(0.43305648235471267, abs=1e-15)
        assert report.a_r == pytest.approx(0.03679369250985549, abs=1e-15)
        assert report.s == pytest.approx(0.9101913249766013, abs=1e-15)

    def test_reference_motif4_values(self):
        report = comprehensive_score(FM_T[1], FM_T[4], FM_A[1], FM_A[4])
        assert report.r_r == pytest.approx(0.6350758038056443, abs=1e-15)
        assert report.a_r == pytest.approx(0.09067017082785817, abs=1e-15)
        assert report.s == pytest.approx(0.8819044266354922, abs=1e-15)

    def test_tabular_benchmark_values(self):
        s2 = comprehensive_score(LUNG_T[1], LUNG_T[2], LUNG_A[1], LUNG_A[2])
        s4 = comprehensive_score(LUNG_T[1], LUNG_T[4], LUNG_A[1], LUNG_A[4])
        assert s2.s == pytest.approx(0.9198086684752421, abs=1e-15)
        assert s4.s == pytest.approx(0.9089164548153642, abs=1e-15)

    def test_matches_scalar_formula(self):
        t_base, t, a_base, a, w = 12.0, 7.5, 0.83, 0.79, 0.25
        report = comprehensive_score(t_base, t, a_base, a, w_eff=w)
        r_r = (t_base - t) / t_base
        a_r = (a_base - a) / a_base
        assert report.s == w * r_r + (1.0 - w) * (1.0 - a_r)

    def test_no_clamping_on_bad_variant(self):
        # slower and less accurate: R_r goes negative, S can drop below 0
        report = comprehensive_score(10.0, 30.0, 0.9, 0.9, w_eff=0.9)
        assert report.r_r == -2.0
        assert report.s < 0.0

    def test_more_accurate_variant_scores_above_w_acc(self):
        report = comprehensive_score(10.0, 10.0, 0.8, 0.9, w_eff=0.1)
        assert report.a_r < 0.0
        assert report.s > 0.9

    @pytest.mark.parametrize("t_base,a_base", [
        (0.0, 0.9), (-5.0, 0.9), (10.0, 0.0), (10.0, -0.1),
        (float("nan"), 0.9), (10.0, float("nan"))])
    def test_non_positive_baseline_rejected(self, t_base, a_base):
        with pytest.raises(NonPositiveBaselineError):
            comprehensive_score(t_base, 1.0, a_base, 0.5)

    @pytest.mark.parametrize("w_eff", [-0.1, 1.2, float("nan")])
    def test_weight_validation(self, w_eff):
        with pytest.raises(WeightSumError):
            comprehensive_score(10.0, 5.0, 0.9, 0.8, w_eff)

    def test_w_acc_defaults_to_complement(self):
        report = comprehensive_score(10.0, 5.0, 0.9, 0.8, w_eff=0.3)
        assert report.w_acc == 0.7

    @given(st.floats(min_value=0.1, max_value=1e4),
           st.floats(min_value=0.0, max_value=2e4),
           st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_score_identity_property(self, t_base, t, a_base, a, w):
        report = comprehensive_score(t_base, t, a_base, a, w_eff=w)
        assert report.s == pytest.approx(
            w * report.r_r + (1.0 - w) * (1.0 - report.a_r), abs=1e-12)
        # the baseline fixed point holds for every weight
        self_report = comprehensive_score(t_base, t_base, a_base, a_base,
                                          w_eff=w)
        assert self_report.s == pytest.approx(1.0 - w, abs=1e-15)


class TestSweep:
    def test_endpoints(self):
        result = tradeoff_sweep(FM_T[1], FM_T[2], FM_A[1], FM_A[2],
                                grid=[0.0, 1.0])
        assert result.points[0].s == pytest.approx(1.0 - 0.03679369250985549)
        assert result.points[1].s == pytest.approx(0.43305648235471267)

    def test_default_grid_is_101_points(self):
        result = tradeoff_sweep(10.0, 5.0, 0.9, 0.8)
        assert len(result.points) == 101
        assert result.points[0].w_eff == 0.0
        assert result.points[-1].w_eff == 1.0

    def test_crossover_on_reference_table(self):
        r2 = tradeoff_sweep(FM_T[1], FM_T[2], FM_A[1], FM_A[2])
        assert r2.crossover_w_eff == pytest.approx(0.08)
        r4 = tradeoff_sweep(FM_T[1], FM_T[4], FM_A[1], FM_A[4])
        assert r4.crossover_w_eff == pytest.approx(0.13)

    def test_crossover_matches_analytic_threshold(self):
        # variant beats baseline iff w > A_r / (A_r + R_r)
        report = comprehensive_score(FM_T[1], FM_T[2], FM_A[1], FM_A[2])
        w_star = report.a_r / (report.a_r + report.r_r)
        result = tradeoff_sweep(FM_T[1], FM_T[2], FM_A[1], FM_A[2])
        grid = [p.w_eff for p in result.points]
        expected = min(w for w in grid if w > w_star)
        assert result.crossover_w_eff == pytest.approx(expected)

    def test_margin_strictly_increasing_single_crossover(self):
        """S_variant - S_baseline = w (R_r + A_r) - A_r rises with w when
        R_r + A_r > 0, so the sign changes at most once on the grid."""
        result = tradeoff_sweep(FM_T[1], FM_T[2], FM_A[1], FM_A[2])
        margins = [p.s - p.w_acc for p in result.points]
        assert all(b > a for a, b in zip(margins, margins[1:]))
        signs = [m > 0 for m in margins]
        assert signs == sorted(signs)  # False... then True...

    def test_equal_runs_never_cross(self):
        result = tradeoff_sweep(7.0, 7.0, 0.8, 0.8, grid=[0.0, 0.5, 1.0])
        assert [p.s for p in result.points] == [1.0, 0.5, 0.0]
        assert result.crossover_w_eff is None

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            tradeoff_sweep(10.0, 5.0, 0.9, 0.8, grid=[0.5, 1.2])
        with pytest.raises(ValueError):
            tradeoff_sweep(10.0, 5.0, 0.9, 0.8, grid=[])


class TestFlopCounter:
    def test_dense_single_layer(self):
        # a lone 4x4 weight layer is the output layer: tile 1
        topo = build_topology([4, 4], 1, BlockDensitySpec.fixed(1.0))
        flops = flop_counter(topo)
        assert flops.forward_per_layer == (16,)
        assert flops.backward_per_layer == (32,)
        assert flops.total == 48

    def test_pooled_hidden_layer(self):
        # 4->4 at m=2: 4 active blocks, pooled forward is k + n_prev = 8
        topo = build_topology([4, 4, 4], 2, BlockDensitySpec.fixed(1.0))
        flops = flop_counter(topo)
        assert flops.forward_per_layer[0] == 4 + 4
        assert flops.backward_per_layer[0] == 2 * 4 + 4

    def test_independent_mode_counts_neuron_weights(self):
        topo = build_topology([4, 4, 4], 2, BlockDensitySpec.fixed(1.0))
        flops = flop_counter(topo, weight_mode="independent")
        assert flops.forward_per_layer[0] == 4 * 4  # k * m^2

    def test_scales_linearly_in_samples(self):
        topo = build_topology([8, 8, 4], 2, BlockDensitySpec.fixed(0.5))
        one = flop_counter(topo, n_samples=1)
        many = flop_counter(topo, n_samples=640)
        assert many.total == 640 * one.total

    @staticmethod
    def _full_density_topology(sizes, m):
        masks = []
        n_layers = len(sizes) - 1
        for i in range(n_layers):
            t = m if i < n_layers - 1 else 1
            masks.append(np.ones((sizes[i] // t, sizes[i + 1] // t),
                                 dtype=bool))
        return MotifTopology(tuple(sizes), m, tuple(masks))

    def test_strictly_decreasing_in_motif_size(self):
        sizes = (784, 3000, 3000, 3000, 10)
        totals = [self._full_density_topology(sizes, m) for m in (1, 2, 4)]
        counts = [flop_counter(t).total for t in totals]
        assert counts[0] > counts[1] > counts[2]

    def test_pooled_speedup_exceeds_half_m_squared(self):
        sizes = (3000, 3000, 10)
        for m in (2, 4):
            dense = flop_counter(self._full_density_topology(sizes, 1))
            pooled = flop_counter(self._full_density_topology(sizes, m))
            ratio = dense.forward_per_layer[0] / pooled.forward_per_layer[0]
            assert ratio > m * m / 2

    def test_counts_follow_mask_popcount(self):
        topo = build_topology([8, 8, 4], 2, BlockDensitySpec.fixed(0.5),
                              seed=3)
        k = int(topo.block_masks[0].sum())
        flops = flop_counter(topo)
        assert flops.forward_per_layer[0] == k + 8


class TestRecording:
    def test_record_epoch_accumulates(self):
        run = RunMeasurement()
        record_epoch(run, 1.5, 0.9, 0.5, flops=100)
        record_epoch(run, 2.0, 0.7, 0.6, flops=100)
        assert run.n_epochs == 2
        assert run.final_accuracy == 0.6
        assert run.flop_count == 200
        assert run.train_losses == [0.9, 0.7]

    def test_csv_row_round_trips_exactly(self):
        awkward = [0.1, 1 / 3, 2.0 ** -40, 1234.5678901234567]
        row = metrics_csv_row(3, awkward[0], awkward[1], awkward[2],
                              10 ** 15)
        fields = row.split(",")
        assert int(fields[0]) == 3
        assert float(fields[1]) == awkward[0]
        assert float(fields[2]) == awkward[1]
        assert float(fields[3]) == awkward[2]
        assert int(fields[4]) == 10 ** 15

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_fmt_round_trips_any_float(self, value):
        assert float(fmt(value)) == value

    def test_score_csv_rows_parse_back(self):
        result = tradeoff_sweep(FM_T[1], FM_T[2], FM_A[1], FM_A[2],
                                grid=[0.1])
        row = score_csv_rows(result)[0]
        parts = [float(v) for v in row.split(",")]
        assert parts[0] == 0.1
        assert parts[4] == pytest.approx(0.9101913249766013, abs=1e-15)
        assert parts[5] == 0.9
