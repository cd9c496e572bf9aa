"""Prune-and-regrow behavior: selection rules, conservation, determinism."""
import tracemalloc

import numpy as np
import pytest

from motifset.evolution import EvolutionPolicy, evolution_schedule, evolve
from motifset.network import init_network
from motifset.topology import (
    FIXED_MODE,
    BlockDensitySpec,
    MotifTopology,
    build_topology,
)

from conftest import small_network
from oracles import (reference_evolve_listing4, reference_evolve_magnitude,
                     weight_mask)


def _policy(**kw):
    defaults = dict(mode="magnitude_set", zeta=0.3, rng_seed=0)
    defaults.update(kw)
    return EvolutionPolicy(**defaults)


class TestPolicyValidation:
    @pytest.mark.parametrize("zeta", [0.0, 1.0, -0.1, 1.5])
    def test_zeta_strictly_inside_unit_interval(self, zeta):
        with pytest.raises(ValueError):
            EvolutionPolicy(zeta=zeta)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 0.5])
    def test_epsilon_prune_endpoints_allowed(self, eps):
        EvolutionPolicy(mode="listing4", epsilon_prune=eps)

    @pytest.mark.parametrize("eps", [-0.01, 1.01])
    def test_epsilon_prune_outside_rejected(self, eps):
        with pytest.raises(ValueError):
            EvolutionPolicy(mode="listing4", epsilon_prune=eps)

    @pytest.mark.parametrize("noise", [-0.01, float("nan"), float("inf")])
    def test_noise_scale_finite_non_negative(self, noise):
        with pytest.raises(ValueError):
            EvolutionPolicy(mode="listing4", noise_scale=noise)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            EvolutionPolicy(mode="simulated_annealing")


class TestMagnitudePrune:
    def test_floor_rule_keeps_single_block(self):
        # floor(0.3 * 1) = 0: nothing pruned, nothing regrown
        net = small_network(sizes=(4, 4, 2), motif_size=2, density=0.5)
        layer = net.layers[0]  # 2x2 block grid
        layer.block_mask[:] = False
        layer.weights[:] = 0.0
        layer.block_mask[0, 0] = True
        layer.weights[0, 0] = 0.4
        _, stats = evolve(net, _policy(), 0)
        assert stats.layers[0].pruned == 0
        assert not stats.layers[0].saturated
        assert layer.block_mask[0, 0] and layer.weights[0, 0] == 0.4

    def test_prunes_smallest_magnitudes(self):
        net = small_network(sizes=(8, 4, 2), motif_size=2, density=0.5)
        # hidden block grid is 4x2; plant 4 known blocks by hand
        layer = net.layers[0]
        layer.block_mask[:] = False
        layer.weights[:] = 0.0
        planted = {(0, 0): 0.5, (0, 1): -0.01, (1, 0): 0.3, (1, 1): 0.02}
        for (r, c), v in planted.items():
            layer.block_mask[r, c] = True
            layer.weights[r, c] = v
        _, stats = evolve(net, _policy(zeta=0.5, rng_seed=3), 0)
        # brute force: the two smallest |w| are 0.01 and 0.02
        assert stats.layers[0].pruned == 2
        assert layer.block_mask[0, 0] and layer.weights[0, 0] == 0.5
        assert layer.block_mask[1, 0] and layer.weights[1, 0] == 0.3
        assert layer.weights[0, 1] != -0.01  # pruned (maybe regrown fresh)
        assert layer.weights[1, 1] != 0.02
        assert int(layer.block_mask.sum()) == 4

    def test_equal_magnitudes_prune_in_row_major_order(self):
        net = small_network(sizes=(8, 4, 2), motif_size=2, density=0.5)
        layer = net.layers[0]  # 4x2 block grid
        layer.block_mask[:] = False
        layer.weights[:] = 0.0
        for r, c in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            layer.block_mask[r, c] = True
            layer.weights[r, c] = 0.25  # all equal: ties everywhere
        _, _ = evolve(net, _policy(zeta=0.5, rng_seed=1), 0)
        # ties break in row-major order, so (0,0) and (0,1) are pruned
        # and the survivors keep exactly 0.25
        assert layer.weights[1, 0] == 0.25 and layer.weights[1, 1] == 0.25
        assert layer.weights[0, 0] != 0.25 and layer.weights[0, 1] != 0.25

    def test_conservation_and_mask_consistency(self):
        net = small_network(sizes=(8, 8, 6), motif_size=2, density=0.5,
                            seed=5)
        counts = [int(l.block_mask.sum()) for l in net.layers]
        for event in range(100):
            _, stats = evolve(net, _policy(rng_seed=9), event)
            for s, layer, c0 in zip(stats.layers, net.layers, counts):
                assert s.pruned == s.regrown
                assert int(layer.block_mask.sum()) == c0
                assert (layer.weights[~weight_mask(layer)] == 0.0).all()

    def test_regrown_weights_within_init_bound(self):
        net = small_network(sizes=(8, 8, 4), motif_size=2, density=0.5,
                            seed=6)
        for event in range(20):
            evolve(net, _policy(rng_seed=7), event)
        for i, layer in enumerate(net.layers):
            bound = np.sqrt(6.0 / net.layer_sizes[i])
            assert np.abs(layer.weights).max() <= bound * 1.0000001

    def test_saturated_layer_warns_and_skips(self):
        # saturation is reported once, as the layer's saturated flag
        net = small_network(sizes=(4, 4, 3), motif_size=2, density=1.0)
        before = [l.weights.copy() for l in net.layers]
        _, stats = evolve(net, _policy(), 0)
        assert all(s.saturated for s in stats.layers)
        assert all(s.pruned == s.regrown == 0 for s in stats.layers)
        for b, layer in zip(before, net.layers):
            assert layer.block_mask.all()
            np.testing.assert_array_equal(b, layer.weights)

    def test_independent_mode_uses_mean_tile_magnitude(self):
        net = small_network(sizes=(8, 4, 2), motif_size=2, density=0.5,
                            weight_mode="independent")
        layer = net.layers[0]  # block grid 4x2, weight grid 8x4
        layer.block_mask[:] = False
        layer.weights[:] = 0.0
        tiles = {(0, 0): 0.001, (0, 1): 0.9, (1, 0): 0.8, (1, 1): 0.7}
        for (r, c), v in tiles.items():
            layer.block_mask[r, c] = True
            layer.weights[2 * r:2 * r + 2, 2 * c:2 * c + 2] = v
        _, stats = evolve(net, _policy(zeta=0.26, rng_seed=2), 0)
        # zeta 0.26 of 4 blocks floors to 1 prune: the smallest-mean block
        assert stats.layers[0].pruned == 1
        for (r, c), v in tiles.items():
            if (r, c) == (0, 0):
                continue
            assert layer.block_mask[r, c]
            assert (layer.weights[2 * r:2 * r + 2, 2 * c:2 * c + 2]
                    == v).all()
        tile = layer.weights[0:2, 0:2]
        assert not (tile == 0.001).any()  # zeroed or rewritten fresh

    def test_deterministic_under_seed(self):
        nets = [small_network(sizes=(8, 8, 4), density=0.5, seed=11)
                for _ in range(2)]
        for event in range(5):
            for net in nets:
                evolve(net, _policy(rng_seed=13), event)
        for la, lb in zip(nets[0].layers, nets[1].layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.block_mask, lb.block_mask)

    @pytest.mark.parametrize("init_scheme", ["he_uniform", "he_normal"])
    @pytest.mark.parametrize("weight_mode", ["shared", "independent"])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_matches_scalar_reference(self, m, weight_mode, init_scheme):
        # every pruned tile, regrown position and regrown value must land
        # exactly where the scalar-loop reference puts it; the second
        # topology makes the middle layer fully dense, and skipping it must
        # not shift the draws of the layer after it
        topo = build_topology((16, 24, 16, 5), m,
                              BlockDensitySpec(FIXED_MODE, 0.5), seed=30 + m)
        masks = list(topo.block_masks)
        masks[1] = np.ones_like(masks[1])
        dense_middle = MotifTopology(topo.layer_sizes, m, tuple(masks))
        policy = _policy(rng_seed=17)
        for t in (topo, dense_middle):
            nets = [init_network(t, seed=31, weight_mode=weight_mode,
                                 init_scheme=init_scheme) for _ in range(2)]
            for event in range(6):
                _, stats = evolve(nets[0], policy, event)
                reference_evolve_magnitude(nets[1], policy, event)
                assert ([s.saturated for s in stats.layers]
                        == [t is dense_middle and i == 1 for i in range(3)])
                for la, lb in zip(nets[0].layers, nets[1].layers):
                    np.testing.assert_array_equal(la.block_mask,
                                                  lb.block_mask)
                    np.testing.assert_array_equal(la.weights, lb.weights)

    @pytest.mark.parametrize("m", [2, 4])
    def test_matches_scalar_reference_on_near_tie(self, m):
        # tile a sums to 1 + 2u over columns first but to 1 over rows
        # first, a tie with tile b, so only the documented row-first order
        # prunes a (the earlier of the tied pair) and keeps b
        u = 2.0 ** -53
        nets = [small_network(sizes=(16, 16, 4), motif_size=m, density=0.5,
                              seed=70 + m, weight_mode="independent")
                for _ in range(2)]
        rows, cols = np.nonzero(nets[0].layers[0].block_mask)
        (ra, rb), (ca, cb) = rows[:2], cols[:2]

        def tile(net, r, c):
            return net.layers[0].weights[r * m:(r + 1) * m,
                                         c * m:(c + 1) * m]

        for net in nets:
            net.layers[0].weights[weight_mask(net.layers[0])] = 1.0
            a, b = tile(net, ra, ca), tile(net, rb, cb)
            a[:], b[:] = 0.0, 0.0
            a[0, 0], a[0, 1], a[1, 1] = 1.0, u, u
            b[0, 0] = 1.0
        policy = _policy(zeta=1.5 / rows.size, rng_seed=71)  # one prune
        evolve(nets[0], policy, 0)
        reference_evolve_magnitude(nets[1], policy, 0)
        for la, lb in zip(nets[0].layers, nets[1].layers):
            np.testing.assert_array_equal(la.block_mask, lb.block_mask)
            np.testing.assert_array_equal(la.weights, lb.weights)
        assert nets[0].layers[0].block_mask[rb, cb]
        kept = tile(nets[0], rb, cb)
        assert kept[0, 0] == kept.sum() == 1.0

    @pytest.mark.parametrize("weight_mode", ["shared", "independent"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_scalar_reference_on_heavy_ties(self, m, weight_mode):
        # weights on a grid of four values put most block magnitudes in a
        # few tie classes, one of them straddling the k-th smallest, so the
        # pruned set must be the first k of the stable sort
        topo = build_topology((24, 32, 24, 5), m,
                              BlockDensitySpec(FIXED_MODE, 0.6), seed=40 + m)
        nets = [init_network(topo, seed=41, weight_mode=weight_mode)
                for _ in range(2)]
        policy = _policy(zeta=0.4, rng_seed=43)
        for event in range(4):
            for net in nets:
                for layer in net.layers:
                    q = np.ceil(np.abs(layer.weights) * 8.0) / 4.0
                    layer.weights[...] = np.where(weight_mask(layer), q, 0.0)
            evolve(nets[0], policy, event)
            reference_evolve_magnitude(nets[1], policy, event)
            for la, lb in zip(nets[0].layers, nets[1].layers):
                np.testing.assert_array_equal(la.block_mask, lb.block_mask)
                np.testing.assert_array_equal(la.weights, lb.weights)

    def test_topology_masks_track_layer_masks(self):
        net = small_network(sizes=(8, 8, 4), density=0.5, seed=14)
        evolve(net, _policy(rng_seed=15), 0)
        for layer, mask in zip(net.layers, net.topology.block_masks):
            assert layer.block_mask is mask


    def test_regrowth_peaks_below_16_bytes_per_free_block(self):
        # one int64 list of the free blocks, built after the draw, and
        # choice's own arange over them are never alive together
        topo = build_topology((1000, 1000, 2), 1,
                              BlockDensitySpec(FIXED_MODE, 0.1), seed=3)
        net = init_network(topo, seed=4)
        mask = net.layers[0].block_mask
        free = mask.size - int(mask.sum()) + int(0.3 * mask.sum())
        tracemalloc.start()
        try:
            evolve(net, _policy(), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * free

    @pytest.mark.parametrize("m,weight_mode", [(1, "shared"),
                                               (2, "independent")])
    def test_prune_lists_end_before_the_draw(self, m, weight_mode):
        # the active-block lists, magnitudes and prune selection are gone
        # when choice builds its arange over the free blocks: the peak is
        # that arange or the free-block list (8 bytes per free block) and
        # the inverted mask, not those plus 3 more bytes per block
        topo = build_topology((1000, 1000, 2), m,
                              BlockDensitySpec(FIXED_MODE, 0.1), seed=3)
        net = init_network(topo, seed=4, weight_mode=weight_mode)
        mask = net.layers[0].block_mask
        active = int(mask.sum())
        free = mask.size - active + int(0.3 * active)
        tracemalloc.start()
        try:
            evolve(net, _policy(), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * free + 2 * mask.size


class TestListing4:
    def test_zero_epsilon_zero_noise_is_identity(self):
        net = small_network(seed=21)
        before = [l.weights.copy() for l in net.layers]
        policy = EvolutionPolicy(mode="listing4", epsilon_prune=0.0,
                                 noise_scale=0.0)
        evolve(net, policy, 0)
        for b, layer in zip(before, net.layers):
            np.testing.assert_array_equal(b, layer.weights)

    def test_epsilon_one_zeroes_every_active_weight(self):
        net = small_network(seed=22)
        policy = EvolutionPolicy(mode="listing4", epsilon_prune=1.0,
                                 noise_scale=0.0)
        _, stats = evolve(net, policy, 0)
        for layer in net.layers:
            assert (layer.weights == 0.0).all()
        assert stats.total_pruned == sum(
            int(weight_mask(l).sum()) for l in net.layers)

    def test_mask_never_changes(self):
        net = small_network(seed=23)
        before = [l.block_mask.copy() for l in net.layers]
        policy = EvolutionPolicy(mode="listing4", epsilon_prune=0.7,
                                 noise_scale=0.05)
        for event in range(10):
            evolve(net, policy, event)
        for b, layer in zip(before, net.layers):
            np.testing.assert_array_equal(b, layer.block_mask)

    def test_noise_respects_mask(self):
        net = small_network(density=0.4, seed=24)
        policy = EvolutionPolicy(mode="listing4", epsilon_prune=0.3,
                                 noise_scale=0.1)
        for event in range(10):
            evolve(net, policy, event)
        for layer in net.layers:
            assert (layer.weights[~weight_mask(layer)] == 0.0).all()

    def test_noise_can_resurrect_zeroed_weight(self):
        net = small_network(seed=25)
        policy = EvolutionPolicy(mode="listing4", epsilon_prune=1.0,
                                 noise_scale=0.1)
        evolve(net, policy, 0)
        nonzero = sum(int((l.weights != 0.0).sum()) for l in net.layers)
        assert nonzero > 0  # everything was zeroed, then noise revived it

    def test_zeroing_frequency_matches_epsilon(self):
        """10^5 independent events on a single-weight layer."""
        topo = build_topology([1, 1], 1, BlockDensitySpec(FIXED_MODE, 1.0))
        net = init_network(topo, seed=0)
        policy = EvolutionPolicy(mode="listing4", epsilon_prune=0.3,
                                 noise_scale=0.0, rng_seed=77)
        trials = 100_000
        zeroed = 0
        for event in range(trials):
            net.layers[0].weights[0, 0] = 1.0
            _, stats = evolve(net, policy, event)
            zeroed += stats.layers[0].pruned
        assert abs(zeroed / trials - 0.3) <= 0.01

    @pytest.mark.parametrize("noise_scale", [0.0, 0.05])
    @pytest.mark.parametrize("weight_mode", ["shared", "independent"])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_matches_scalar_reference(self, m, weight_mode, noise_scale):
        # every zeroed cell and every noise value must land exactly where
        # the scalar-loop reference puts it, event after event
        topo = build_topology((16, 24, 16, 5), m,
                              BlockDensitySpec(FIXED_MODE, 0.5), seed=40 + m)
        nets = [init_network(topo, seed=41, weight_mode=weight_mode)
                for _ in range(2)]
        policy = EvolutionPolicy(mode="listing4", epsilon_prune=0.3,
                                 noise_scale=noise_scale, rng_seed=19)
        for event in range(4):
            _, stats = evolve(nets[0], policy, event)
            zapped = reference_evolve_listing4(nets[1], policy, event)
            assert [s.pruned for s in stats.layers] == zapped
            for la, lb in zip(nets[0].layers, nets[1].layers):
                np.testing.assert_array_equal(la.block_mask, lb.block_mask)
                np.testing.assert_array_equal(la.weights, lb.weights)


class TestSchedule:
    def test_never_after_final_epoch(self):
        for total in (1, 2, 10):
            assert evolution_schedule(total - 1, total) is False

    def test_every_epoch_by_default(self):
        assert [evolution_schedule(e, 5) for e in range(5)] == [
            True, True, True, True, False]

    def test_period(self):
        fired = [e for e in range(20) if evolution_schedule(e, 20, period=5)]
        assert fired == [4, 9, 14]

    @pytest.mark.parametrize("epoch,total,period", [
        (-1, 5, 1), (0, 0, 1), (0, 5, 0)])
    def test_argument_validation(self, epoch, total, period):
        with pytest.raises(ValueError):
            evolution_schedule(epoch, total, period)

