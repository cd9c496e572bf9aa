"""Forward/backward/SGD checked against scalar-loop and finite-difference
oracles, plus shape and cache validation."""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import motifset.network
from motifset.checkpoint import load_checkpoint, save_checkpoint
from motifset.errors import ShapeError, StaleCacheError
from motifset.evolution import EvolutionPolicy, evolve
from motifset.network import (
    ForwardCache,
    _chunk_outputs,
    _pool_cols,
    backward,
    forward,
    gradient_buffer,
    init_network,
    loss,
    predict_accuracy,
    sgd_step,
    softmax,
)
from motifset.topology import (
    ER_MODE,
    FIXED_MODE,
    BlockDensitySpec,
    build_topology,
)

from conftest import (
    collect_gradients,
    finite_diff_grads,
    small_network,
    whole_layer_pairs,
)
from oracles import (DenseMLP, expand_weights, max_rel_error,
                     pool_cols_reference, weight_mask)


def _batch(n, d, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


def _onehot_targets(n, k, seed=1):
    labels = np.random.default_rng(seed).integers(0, k, n)
    return np.eye(k)[labels]


class TestInit:
    def test_inactive_weights_exactly_zero(self):
        net = small_network(density=0.3, seed=4)
        for layer in net.layers:
            assert (layer.weights[~weight_mask(layer)] == 0.0).all()

    def test_he_uniform_bound(self):
        net = small_network(sizes=(24, 12, 4), motif_size=2, density=1.0)
        for i, layer in enumerate(net.layers):
            bound = np.sqrt(6.0 / net.layer_sizes[i])
            assert np.abs(layer.weights).max() <= bound

    def test_he_normal_draws_differ_from_uniform(self):
        topo = build_topology([8, 8, 4], 1, BlockDensitySpec(FIXED_MODE, 1.0))
        a = init_network(topo, init_scheme="he_uniform", seed=5)
        b = init_network(topo, init_scheme="he_normal", seed=5)
        assert not np.allclose(a.layers[0].weights, b.layers[0].weights)

    def test_biases_start_at_zero(self):
        net = small_network()
        for layer in net.layers:
            assert (layer.bias == 0.0).all()

    def test_construction_bit_reproducible(self):
        a = small_network(seed=9)
        b = small_network(seed=9)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_shared_layer_stores_block_grid(self):
        net = small_network(sizes=(8, 8, 4), motif_size=2, density=1.0)
        assert net.layers[0].weights.shape == (4, 4)
        assert net.layers[1].weights.shape == (8, 4)  # final at tile 1

    def test_independent_layer_stores_neuron_grid(self):
        net = small_network(sizes=(8, 8, 4), motif_size=2, density=1.0,
                            weight_mode="independent")
        assert net.layers[0].weights.shape == (8, 8)


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        net = small_network(sizes=(8, 8, 10), density=1.0)
        for layer in net.layers:
            layer.weights[:] = 0.0
        cache = forward(net, _batch(6, 8))
        np.testing.assert_allclose(cache.a_list[-1], 0.1, atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        net = small_network(sizes=(8, 8, 6, 5), motif_size=2, density=0.7)
        cache = forward(net, _batch(20, 8, seed=3))
        sums = cache.a_list[-1].sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        assert (cache.a_list[-1] > 0.0).all()
        assert (cache.a_list[-1] < 1.0).all()

    def test_softmax_overflow_stable(self):
        z = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
        p = softmax(z)
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0)

    def test_softmax_in_place_gives_formula_bits(self):
        rng = np.random.default_rng(9)
        z = np.vstack([rng.normal(size=(6, 5)) * 30.0,
                       [1000.0, 0.0, -1000.0, 710.0, 709.0],
                       [-1000.0, -1001.0, -2000.0, 0.0, -745.0]])
        e = np.exp(z - z.max(axis=1, keepdims=True))
        want = e / e.sum(axis=1, keepdims=True)
        got = softmax(z)
        assert got is z
        np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_matches_scalar_oracle_dense(self, activation):
        net = small_network(sizes=(6, 6, 4), motif_size=1, density=1.0,
                            activation=activation, seed=2)
        oracle = DenseMLP([l.weights for l in net.layers],
                          [l.bias for l in net.layers], activation)
        x = _batch(7, 6, seed=8)
        cache = forward(net, x)
        _, a_oracle = oracle.forward(x)
        np.testing.assert_allclose(cache.a_list[-1], a_oracle[-1],
                                   atol=1e-10)

    @pytest.mark.parametrize("m", [2, 4])
    def test_tiling_equivalence(self, m):
        """Pooled shared-weight forward equals the expanded dense product."""
        net = small_network(sizes=(8, 8, 5), motif_size=m, density=1.0,
                            seed=6)
        x = _batch(9, 8, seed=10)
        cache = forward(net, x)
        oracle = DenseMLP([expand_weights(l) for l in net.layers],
                          [l.bias for l in net.layers], "relu")
        _, a_oracle = oracle.forward(x)
        np.testing.assert_allclose(cache.a_list[-1], a_oracle[-1],
                                   atol=1e-12)

    def test_shape_validation(self):
        net = small_network()
        with pytest.raises(ShapeError):
            forward(net, np.zeros((3, 5)))  # wrong feature count
        with pytest.raises(ShapeError):
            forward(net, np.zeros((0, 8)))  # empty batch
        with pytest.raises(ShapeError):
            forward(net, np.zeros(8))  # not 2-D


class TestLoss:
    def test_confident_correct_prediction_near_zero(self):
        net = small_network(sizes=(4, 4, 3), motif_size=1, density=1.0)
        for layer in net.layers:
            layer.weights[:] = 0.0
        net.layers[-1].bias[:] = np.array([50.0, 0.0, 0.0])
        y = np.tile([1.0, 0.0, 0.0], (4, 1))
        value = loss(forward(net, _batch(4, 4)), y)
        assert value <= 1e-6

    def test_uniform_prediction_is_log_k(self):
        net = small_network(sizes=(8, 8, 10), density=1.0)
        for layer in net.layers:
            layer.weights[:] = 0.0
        y = _onehot_targets(12, 10)
        value = loss(forward(net, _batch(12, 8)), y)
        assert value == pytest.approx(np.log(10.0), abs=1e-12)

    def test_matches_scalar_oracle(self):
        net = small_network(sizes=(6, 6, 4), motif_size=2, density=0.8,
                            seed=3)
        x = _batch(10, 6, seed=4)
        y = _onehot_targets(10, 4, seed=5)
        oracle = DenseMLP([expand_weights(l) for l in net.layers],
                          [l.bias for l in net.layers], "relu")
        assert loss(forward(net, x), y) == pytest.approx(
            oracle.loss(x, y), abs=1e-12)

    @pytest.mark.parametrize("n", [8, 6, 80])
    def test_bits_of_numpy_mean(self, n):
        """The batch mean is numpy's mean, bit for bit; over 20 batches, a
        multiplication by an inexact 1/n would change some last bits."""
        net = small_network(sizes=(8, 8, 10), density=0.8, seed=n)
        for seed in range(20):
            cache = forward(net, _batch(n, 8, seed=seed))
            y = _onehot_targets(n, 10, seed=seed)
            logp = np.log(np.maximum(cache.a_list[-1], 1e-12))
            assert loss(cache, y) == float(-(y * logp).sum(axis=1).mean())

    def test_mismatched_targets_rejected(self):
        net = small_network()
        cache = forward(net, _batch(5, 8))
        with pytest.raises(ShapeError):
            loss(cache, np.zeros((5, 7)))
        with pytest.raises(ShapeError):
            loss(cache, np.zeros((4, 4)))


class TestBackward:
    def test_perfect_prediction_zero_gradient(self):
        net = small_network(sizes=(8, 8, 4), motif_size=2, density=0.7,
                            seed=12)
        x = _batch(6, 8, seed=13)
        cache = forward(net, x)
        grads = collect_gradients(net, cache, cache.a_list[-1].copy())
        for gw, gb in zip(*grads):
            assert np.abs(gw).max() <= 1e-12
            assert np.abs(gb).max() <= 1e-12

    def test_gradients_vanish_outside_mask(self):
        net = small_network(density=0.4, seed=20)
        x = _batch(5, 8, seed=21)
        cache = forward(net, x)
        weight_grads, _ = collect_gradients(net, cache,
                                            _onehot_targets(5, 4, seed=22))
        for layer, gw in zip(net.layers, weight_grads):
            assert (gw[~weight_mask(layer)] == 0.0).all()

    @pytest.mark.parametrize("m,mode,activation", [
        (1, "shared", "relu"),
        (2, "shared", "relu"),
        (2, "shared", "sigmoid"),
        (4, "shared", "relu"),
        (2, "independent", "relu"),
        (4, "independent", "sigmoid"),
    ])
    def test_finite_difference_agreement(self, m, mode, activation):
        net = small_network(sizes=(8, 8, 4), motif_size=m, density=0.6,
                            weight_mode=mode, activation=activation, seed=m)
        x = _batch(6, 8, seed=30 + m)
        y = _onehot_targets(6, 4, seed=31 + m)
        cache = forward(net, x)
        weight_grads, bias_grads = collect_gradients(net, cache, y)
        fd_w, fd_b = finite_diff_grads(net, x, y)
        assert max_rel_error(weight_grads, fd_w) <= 1e-4
        assert max_rel_error(bias_grads, fd_b) <= 1e-4

    def test_block_gradient_is_sum_over_tile(self):
        """A shared block's gradient equals the summed per-connection
        gradients of the equivalent expanded dense layer."""
        net = small_network(sizes=(6, 6, 3), motif_size=2, density=1.0,
                            seed=40, activation="sigmoid")
        x = _batch(5, 6, seed=41)
        y = _onehot_targets(5, 3, seed=42)
        weight_grads, _ = collect_gradients(net, forward(net, x), y)
        oracle = DenseMLP([expand_weights(l) for l in net.layers],
                          [l.bias for l in net.layers], "sigmoid")
        gw_oracle, _ = oracle.backward(x, y)
        m = 2
        pooled = gw_oracle[0].reshape(3, m, 3, m).sum(axis=(1, 3))
        np.testing.assert_allclose(weight_grads[0], pooled, atol=1e-12)

    def test_stale_cache_rejected(self):
        net = small_network()
        other = small_network(sizes=(6, 6, 4), motif_size=1, density=1.0)
        cache = forward(other, _batch(5, 6))
        buffer = gradient_buffer(net)
        with pytest.raises(StaleCacheError):
            backward(net, cache, _onehot_targets(5, 4), buffer)
        with pytest.raises(StaleCacheError):
            backward(net, ForwardCache(), _onehot_targets(5, 4), buffer)
        # pooled inputs missing, one layer short, layer 0 left unpooled,
        # a sample short
        cache = forward(net, _batch(5, 8))
        for pooled in ([], cache.pooled[:-1],
                       [cache.a_list[0]] + cache.pooled[1:],
                       [p[:-1] for p in cache.pooled]):
            with pytest.raises(StaleCacheError):
                backward(net, ForwardCache(cache.a_list, pooled),
                         _onehot_targets(5, 4), buffer)

    @pytest.mark.parametrize("out", [
        np.empty(100, dtype=np.float32), np.empty(3), np.empty((8, 8)),
        np.empty(200)[::2], [0.0] * 100],
        ids=["float32", "short", "2-D", "strided", "list"])
    def test_wrong_buffer_rejected_when_called(self, out):
        # a float32 buffer trained on float32-rounded gradients, and a
        # short or 2-D one failed mid-step with an untyped ValueError
        net = small_network()
        cache = forward(net, _batch(5, 8))
        with pytest.raises(ShapeError, match="gradient buffer"):
            backward(net, cache, _onehot_targets(5, 4), out)

    def test_gradient_buffer_fits_the_largest_grid(self):
        # 8-8-4 at m = 2 stores a 4 x 4 grid, then an 8 x 4 one at tile 1
        net = small_network()
        buffer = gradient_buffer(net)
        assert (buffer.shape, buffer.dtype) == ((32,), np.float64)
        cache = forward(net, _batch(5, 8))
        with pytest.raises(ShapeError, match="has 31 cells, layer 1's "
                                             "weight gradient needs 32"):
            backward(net, cache, _onehot_targets(5, 4), buffer[:31])


class TestPooling:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    def test_sums_each_group_left_to_right(self, m):
        # magnitudes from 1e-8 to 1e7 make every change of summation
        # order visible in the last bits
        rng = np.random.default_rng(60 + m)
        a = rng.normal(size=(7, 24 * m)) * 10.0 ** rng.integers(
            -8, 8, size=(7, 24 * m))
        np.testing.assert_array_equal(_pool_cols(a, m),
                                      pool_cols_reference(a, m))

    @pytest.mark.parametrize("mode", ["shared", "independent"])
    def test_pools_at_most_twice_per_layer_per_step(self, mode,
                                                    monkeypatch):
        # forward pools each input once and caches it; backward pools
        # only the deltas.  sgd_step advances backward's generator, so
        # its pools are counted too
        calls = []

        def counted(a, m):
            calls.append(m)
            return _pool_cols(a, m)

        monkeypatch.setattr(motifset.network, "_pool_cols", counted)
        net = small_network(sizes=(8, 8, 8, 4), motif_size=2,
                            weight_mode=mode)
        x = _batch(5, 8)
        sgd_step(backward(net, forward(net, x), _onehot_targets(5, 4),
                          gradient_buffer(net)), 0.1)
        assert len(calls) <= 2 * len(net.layers)

    def test_cached_input_is_pooled_input(self):
        net = small_network(sizes=(8, 8, 4), motif_size=2)
        cache = forward(net, _batch(5, 8))
        np.testing.assert_array_equal(cache.pooled[0],
                                      pool_cols_reference(cache.a_list[0], 2))
        assert cache.pooled[1] is cache.a_list[1]  # tile-1 output layer


class TestSgd:
    def test_zero_gradient_leaves_network_unchanged(self):
        net = small_network(seed=50)
        x = _batch(4, 8, seed=51)
        cache = forward(net, x)
        grads = backward(net, cache, cache.a_list[-1].copy(),
                         gradient_buffer(net))
        before = [l.weights.copy() for l in net.layers]
        sgd_step(grads, 0.5)
        for b, layer in zip(before, net.layers):
            np.testing.assert_array_equal(b, layer.weights)

    def test_single_step_arithmetic(self):
        net = small_network(sizes=(4, 4, 3), motif_size=1, density=1.0,
                            seed=52)
        x = _batch(6, 4, seed=53)
        y = _onehot_targets(6, 3, seed=54)
        weight_grads, bias_grads = collect_gradients(net, forward(net, x), y)
        expected = [l.weights - 0.1 * g
                    for l, g in zip(net.layers, weight_grads)]
        sgd_step(whole_layer_pairs(net, weight_grads, bias_grads), 0.1)
        for e, layer in zip(expected, net.layers):
            np.testing.assert_allclose(layer.weights, e, atol=0)

    def test_ten_steps_match_dense_oracle(self):
        """m=1 at full density must track a plain dense MLP exactly."""
        net = small_network(sizes=(6, 6, 4), motif_size=1, density=1.0,
                            seed=60)
        oracle = DenseMLP([l.weights for l in net.layers],
                          [l.bias for l in net.layers], "relu")
        buffer = gradient_buffer(net)
        rng = np.random.default_rng(61)
        for _ in range(10):
            x = rng.normal(size=(8, 6))
            y = np.eye(4)[rng.integers(0, 4, 8)]
            sgd_step(backward(net, forward(net, x), y, buffer), 0.05)
            oracle.sgd_step(x, y, 0.05)
        for layer, ow, ob in zip(net.layers, oracle.weights_arrays(),
                                 oracle.bias_arrays()):
            np.testing.assert_allclose(layer.weights, ow, atol=1e-8)
            np.testing.assert_allclose(layer.bias, ob, atol=1e-8)

    def test_training_solves_separable_toy(self):
        rng = np.random.default_rng(70)
        centers = rng.normal(0, 4, size=(4, 8))
        labels = rng.integers(0, 4, 200)
        x = centers[labels] + rng.normal(0, 0.5, size=(200, 8))
        y = np.eye(4)[labels]
        net = small_network(sizes=(8, 16, 4), motif_size=2, density=0.8,
                            seed=71)
        buffer = gradient_buffer(net)
        for _ in range(200):
            sgd_step(backward(net, forward(net, x), y, buffer), 0.1)
        assert predict_accuracy(net, x, y) == 1.0


class TestPredictAccuracy:
    def test_matches_scalar_argmax(self):
        net = small_network(sizes=(8, 8, 5), motif_size=2, density=0.6,
                            seed=80)
        x = _batch(100, 8, seed=81)
        y = _onehot_targets(100, 5, seed=82)
        probs = forward(net, x).a_list[-1]
        hits = 0
        for s in range(100):
            best, best_j = -1.0, 0
            for j in range(5):
                if probs[s][j] > best:
                    best, best_j = probs[s][j], j
            hits += int(y[s][best_j] == 1.0)
        assert predict_accuracy(net, x, y) == pytest.approx(hits / 100)

    def test_tie_breaks_to_lowest_index(self):
        net = small_network(sizes=(4, 4, 3), motif_size=1, density=1.0)
        for layer in net.layers:
            layer.weights[:] = 0.0  # uniform output: argmax -> class 0
        x = _batch(10, 4)
        y = np.eye(3)[np.zeros(10, dtype=int)]
        assert predict_accuracy(net, x, y) == 1.0

    def test_chunking_consistent(self, monkeypatch):
        net = small_network(sizes=(8, 8, 4), seed=90)
        x = _batch(50, 8, seed=91)
        y = _onehot_targets(50, 4, seed=92)
        whole = predict_accuracy(net, x, y)
        monkeypatch.setattr(motifset.network, "EVAL_ROWS", 7)
        assert predict_accuracy(net, x, y) == whole

    def test_shape_validation(self):
        net = small_network()
        y = _onehot_targets(5, 4)
        with pytest.raises(ShapeError):
            predict_accuracy(net, _batch(5, 8), np.zeros((4, 4)))
        with pytest.raises(ShapeError):
            predict_accuracy(net, np.zeros((5, 5)), y)  # wrong feature count
        with pytest.raises(ShapeError):
            predict_accuracy(net, np.zeros((0, 8)), y[:0])  # empty batch
        with pytest.raises(ShapeError):
            predict_accuracy(net, np.zeros(8), y[:1])  # not 2-D

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_holds_one_layer_at_a_time(self, activation):
        """Evaluation keeps the current layer's input and its activation,
        applied in place over the pre-activation, not every layer's: with
        three equal-width hidden layers at m=1 its peak stays under three
        activation-sized arrays with ReLU. The sigmoid adds one ``exp``
        temporary and a sign mask, and stays under 3.25."""
        net = small_network(sizes=(8, 512, 512, 512, 4), motif_size=1,
                            density=0.1, activation=activation)
        x = _batch(256, 8)
        y = _onehot_targets(256, 4)
        peak, _ = _peak_bytes(predict_accuracy, net, x, y)
        arrays = {"relu": 3.0, "sigmoid": 3.25}[activation]
        assert peak < arrays * 256 * 512 * 8


    @pytest.mark.parametrize("m", [1, 2])
    def test_desk_peak_is_one_512_row_chunk(self, m):
        """On the 784-256-256-10 desk shape, evaluating four 512-row chunks
        holds one chunk's layer arrays at a time: the peak stays under 512
        rows of every layer's width, where one pass over all the rows
        would hold about four times as much."""
        sizes = (784, 256, 256, 10)
        net = small_network(sizes=sizes, motif_size=m, density=15.7,
                            density_mode=ER_MODE)
        x = _batch(4 * 512, 784)
        y = _onehot_targets(4 * 512, 10)
        peak, _ = _peak_bytes(predict_accuracy, net, x, y)
        assert peak < 512 * sum(sizes) * 8

    @pytest.mark.parametrize("m", [1, 2])
    def test_chunks_give_the_bits_of_one_pass(self, m):
        """At ``EVAL_ROWS`` rows a chunk, the desk shape's outputs are those
        of one pass over every row, bit for bit, also for the last chunk,
        which overlaps the one before it; shorter products can run another
        BLAS kernel and change the last bit."""
        net = small_network(sizes=(784, 256, 256, 10), motif_size=m,
                            density=15.7, density_mode=ER_MODE)
        rows = 2 * motifset.network.EVAL_ROWS + 37
        x = _batch(rows, 784, seed=3)
        starts, outputs = zip(*_chunk_outputs(net, x))
        assert starts == (0, motifset.network.EVAL_ROWS,
                          2 * motifset.network.EVAL_ROWS)
        whole = forward(net, x).a_list[-1]
        assert np.concatenate(outputs).tobytes() == whole.tobytes()


@given(st.integers(min_value=0, max_value=2**31),
       st.sampled_from([1, 2]),
       st.sampled_from(["shared", "independent"]))
@settings(max_examples=25, deadline=None)
def test_masked_weights_stay_zero_through_training(seed, m, mode):
    """Inactive connections never become nonzero under SGD."""
    net = small_network(sizes=(8, 8, 4), motif_size=m, density=0.5,
                        seed=seed % 1000, weight_mode=mode)
    buffer = gradient_buffer(net)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.normal(size=(6, 8))
        y = np.eye(4)[rng.integers(0, 4, 6)]
        sgd_step(backward(net, forward(net, x), y, buffer), 0.1)
    for layer in net.layers:
        assert (layer.weights[~weight_mask(layer)] == 0.0).all()


def _assert_inactive_plus_zero(net, when):
    for i, layer in enumerate(net.layers):
        off = layer.weights[~weight_mask(layer)]
        assert (off == 0.0).all(), f"layer {i} {when}: nonzero inactive"
        assert not np.signbit(off).any(), f"layer {i} {when}: -0.0 inactive"


@pytest.mark.parametrize("mode", ["shared", "independent"])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_inactive_weights_are_plus_zero(tmp_path, m, mode):
    """The in-place update relies on inactive weights being +0.0 bit for
    bit: -0.0 would turn into +0.0 on the first step and change the
    checkpoint bytes."""
    net = small_network(sizes=(16, 16, 16, 4), motif_size=m, density=0.4,
                        seed=m, weight_mode=mode)
    _assert_inactive_plus_zero(net, "after init")
    buffer = gradient_buffer(net)
    rng = np.random.default_rng(m)
    for _ in range(10):
        x = rng.normal(size=(6, 16))
        y = np.eye(4)[rng.integers(0, 4, 6)]
        sgd_step(backward(net, forward(net, x), y, buffer), 0.1)
    _assert_inactive_plus_zero(net, "after 10 SGD steps")
    evolve(net, EvolutionPolicy(zeta=0.3, rng_seed=m), 0)
    _assert_inactive_plus_zero(net, "after a magnitude_set event")
    evolve(net, EvolutionPolicy(mode="listing4", epsilon_prune=0.3,
                                noise_scale=0.01, rng_seed=m), 1)
    _assert_inactive_plus_zero(net, "after a listing4 event")
    save_checkpoint(net, tmp_path / "ck.bin")
    _assert_inactive_plus_zero(load_checkpoint(tmp_path / "ck.bin"),
                               "after a checkpoint round trip")


def _peak_bytes(fn, *args):
    """Peak bytes allocated while ``fn(*args)`` runs (numpy reports its
    buffers to tracemalloc), and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m,mode", [(1, "shared"), (2, "independent")])
def test_step_allocates_no_weight_sized_temporary(m, mode):
    """sgd_step over whole-layer gradients allocates nothing the size of a
    weight grid, and neither does the fused step given a buffer."""
    net = small_network(sizes=(600, 600, 10), motif_size=m, density=0.5,
                        weight_mode=mode)
    grid = net.layers[0].weights.nbytes  # the 600 x 600 layer
    x = _batch(64, 600, seed=5)
    y = _onehot_targets(64, 10)
    cache = forward(net, x)
    pairs = whole_layer_pairs(net, *collect_gradients(net, cache, y))
    peak, _ = _peak_bytes(sgd_step, pairs, 0.1)
    assert peak < grid
    del pairs
    buffer = gradient_buffer(net)
    peak, _ = _peak_bytes(
        lambda: sgd_step(backward(net, cache, y, buffer), 0.1))
    assert peak < grid


def test_step_multiplies_the_relu_derivative_into_the_delta():
    """A fused m=1 ReLU step holds a layer's delta, the next one, which the
    derivative multiplies in place, and the bool mask ``a > 0``, an eighth
    of a delta: its peak stays under 2.25 delta-sized arrays.  No float
    copy of the mask is made beside the spread delta."""
    net = small_network(sizes=(64, 1500, 1500, 10), motif_size=1,
                        density=0.1)
    x = _batch(128, 64, seed=6)
    y = _onehot_targets(128, 10)
    cache = forward(net, x)
    buffer = gradient_buffer(net)
    peak, _ = _peak_bytes(
        lambda: sgd_step(backward(net, cache, y, buffer), 0.1))
    assert peak < 2.25 * 128 * 1500 * 8


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _reference_backward(net, cache, y, mean=np.divide):
    """Every layer's gradients as new arrays, from the cached activations:
    pooled by the scalar reference, ``mean(P.T @ Q, n)``, masked by the
    oracle's cell mask."""
    n = y.shape[0]
    delta = cache.a_list[-1] - y
    weight_grads, bias_grads = [], []
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        m = layer.share_tile
        p = pool_cols_reference(cache.a_list[i], m)
        q = pool_cols_reference(delta, m)
        weight_grads.insert(0, mean(p.T @ q, n) * weight_mask(layer))
        bias_grads.insert(0, delta.mean(axis=0))
        if i > 0:
            a = cache.a_list[i]
            deriv = ((a > 0).astype(np.float64) if net.activation == "relu"
                     else a * (1.0 - a))
            delta = np.repeat(q @ layer.weights.T, m, axis=1) * deriv
    return weight_grads, bias_grads


def _recording(pairs, seen):
    """Pass ``pairs`` through, noting each parameter."""
    for pair in pairs:
        seen.append(pair[0])
        yield pair


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
@pytest.mark.parametrize("mode", ["shared", "independent"])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_fused_step_matches_backward_then_update(monkeypatch, m, mode,
                                                 activation):
    """Bit for bit, backward's gradients are the reference's, and steps
    fused through one buffer give the weights and biases of backward
    followed by ``W -= lr * gW``: each delta must be taken before its
    layer's weights change.  The steps cut the gradients into row slices
    of several sizes: 48 and 192 cells give slices of 2 to 12 rows that do
    not divide the layers (block rows of 4 at m=4 independent), then one
    row or block row, then the default; each size takes a batch of 8,
    whose mean multiplies by 1/8, and one of 6, which divides."""
    def make():
        return small_network(sizes=(16, 16, 16, 4), motif_size=m,
                             density=0.5, seed=m, weight_mode=mode,
                             activation=activation)
    fused, stepped = make(), make()
    buffer = gradient_buffer(fused)
    rng = np.random.default_rng(m)
    short_slices = 0
    for cells, batch in itertools.product(
            (48, 192, 1, motifset.network._SLICE_CELLS), (8, 6)):
        monkeypatch.setattr(motifset.network, "_SLICE_CELLS", cells)
        x = rng.normal(size=(batch, 16))
        y = np.eye(4)[rng.integers(0, 4, batch)]
        cache = forward(stepped, x)
        weight_grads, bias_grads = collect_gradients(stepped, cache, y)
        reference = _reference_backward(stepped, cache, y)
        for got, want in zip(weight_grads + bias_grads,
                             reference[0] + reference[1]):
            np.testing.assert_array_equal(_bits(got), _bits(want))
        for layer, gw, gb in zip(stepped.layers, weight_grads, bias_grads):
            layer.weights -= 0.1 * gw
            layer.bias -= 0.1 * gb
        seen = []
        sgd_step(_recording(
            backward(fused, forward(fused, x), y, buffer), seen), 0.1)
        for a, b in zip(fused.layers, stepped.layers):
            np.testing.assert_array_equal(_bits(a.weights), _bits(b.weights))
            np.testing.assert_array_equal(_bits(a.bias), _bits(b.bias))
        # layers come last first, each its bias and then slices over its
        # rows in order, whole block rows; a slice's start row is its
        # offset into the layer's weights
        params = iter(seen)
        for layer in reversed(fused.layers):
            assert next(params) is layer.bias
            w, rows = layer.weights, []
            while sum(rows) < w.shape[0]:
                param = next(params)
                assert param.ctypes.data - w.ctypes.data == (
                    sum(rows) * w.strides[0])
                assert param.shape[1:] == w.shape[1:]
                rows.append(param.shape[0])
            assert sum(rows) == w.shape[0]
            assert all(r % layer.expand_factor == 0 for r in rows)
            short_slices += rows[-1] < rows[0]
        assert next(params, None) is None
    assert short_slices  # some slicing did not divide a layer


@given(arrays(np.float64, st.integers(1, 40),
              elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.integers(0, 1023))
@settings(max_examples=300, deadline=None)
def test_power_of_two_reciprocal_multiplies_to_division_bits(x, k):
    """For ``n = 2**k``, ``x * (1 / n)`` and ``x / n`` are one rounding of
    the same real number, subnormal results and inputs included: backward
    multiplies by the reciprocal for such batch sizes."""
    n = 2**k
    np.testing.assert_array_equal(_bits(np.multiply(x, 1.0 / n)),
                                  _bits(np.divide(x, n)))


def test_batch_of_80_divides():
    """1/80 is inexact, so a batch of 80 keeps the division: its gradients
    are ``P.T @ Q / 80``, which differs from ``P.T @ Q * (1/80)`` in some
    cells."""
    net = small_network(sizes=(16, 16, 16, 4), motif_size=1, density=0.5,
                        seed=7)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(80, 16))
    y = np.eye(4)[rng.integers(0, 4, 80)]
    cache = forward(net, x)
    weight_grads, _ = collect_gradients(net, cache, y)
    divided, _ = _reference_backward(net, cache, y)
    multiplied, _ = _reference_backward(
        net, cache, y, mean=lambda g, n: g * (1.0 / n))
    for got, want in zip(weight_grads, divided):
        np.testing.assert_array_equal(_bits(got), _bits(want))
    assert any((_bits(a) != _bits(b)).any()
               for a, b in zip(divided, multiplied))


def test_sgd_step_rejects_a_gradient_not_of_its_rows():
    net = small_network(sizes=(8, 8, 4), motif_size=1, density=1.0)
    before = [layer.weights.copy() for layer in net.layers]
    with pytest.raises(ShapeError, match="does not match parameter shape"):
        sgd_step([(net.layers[0].weights[0:3], np.zeros((4, 8)))], 0.1)
    for b, layer in zip(before, net.layers):
        np.testing.assert_array_equal(b, layer.weights)
