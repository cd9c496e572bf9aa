"""Independent reference implementations used to check the fast paths.

Everything here is deliberately written with scalar Python loops and
``math`` functions, no vectorized numpy, and imports nothing from the
package, so agreement with the package is evidence rather than tautology.
"""
from __future__ import annotations

import math

import numpy as np


def weight_mask(layer):
    """Boolean mask at the granularity of ``layer.weights``: cell ``(i, j)``
    is active when block ``(i // e, j // e)`` is, ``e`` the layer's
    blocks-to-weights tile ratio."""
    e = layer.expand_factor
    rows, cols = layer.weights.shape
    return np.array([[bool(layer.block_mask[i // e][j // e])
                      for j in range(cols)] for i in range(rows)])


def expand_weights(layer):
    """Neuron-granularity weight matrix equivalent to ``layer``: each stored
    cell repeated over a ``t x t`` patch, ``t`` the layer's share tile."""
    t = layer.share_tile
    rows, cols = layer.weights.shape
    return np.array([[float(layer.weights[i // t][j // t])
                      for j in range(cols * t)] for i in range(rows * t)])


def expand_mask(topology, layer_index):
    """Neuron-granularity boolean mask of one weight layer: each active
    block of its mask repeated over a ``t x t`` patch, ``t`` the input
    width divided by the mask's row count."""
    mask = topology.block_masks[layer_index]
    t = topology.layer_sizes[layer_index] // len(mask)
    rows, cols = mask.shape
    return np.array([[bool(mask[i // t][j // t]) for j in range(cols * t)]
                     for i in range(rows * t)], dtype=bool)


def active_block_count(topology):
    """Number of active blocks per weight layer, counted cell by cell."""
    counts = []
    for mask in topology.block_masks:
        count = 0
        for row in mask.tolist():
            for v in row:
                count += int(v)
        counts.append(count)
    return counts


def pool_cols_reference(a, m):
    """Sum each group of ``m`` consecutive columns of 2-D ``a`` with scalar
    additions, left to right from the group's first entry."""
    out = []
    for row in np.asarray(a).tolist():
        pooled = []
        for g in range(0, len(row), m):
            total = row[g]
            for v in row[g + 1:g + m]:
                total += v
            pooled.append(total)
        out.append(pooled)
    return np.array(out, dtype=np.float64)


class DenseMLP:
    """Scalar-loop MLP with softmax output and cross-entropy loss.

    Weights and biases are copied from plain nested lists or arrays; an
    optional neuron-granularity mask freezes the zero pattern the way the
    sparse implementation does (gradients at inactive positions are
    discarded).
    """

    def __init__(self, weights, biases, activation="relu", masks=None):
        self.w = [[[float(v) for v in row] for row in np.asarray(W)]
                  for W in weights]
        self.b = [[float(v) for v in np.asarray(B)] for B in biases]
        self.activation = activation
        if masks is None:
            self.masks = [[[True] * len(row) for row in W] for W in self.w]
        else:
            self.masks = [[[bool(v) for v in row] for row in np.asarray(M)]
                          for M in masks]

    def _act(self, z):
        if self.activation == "relu":
            return z if z > 0.0 else 0.0
        return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else (
            math.exp(z) / (1.0 + math.exp(z)))

    def _act_deriv(self, z):
        if self.activation == "relu":
            return 1.0 if z > 0.0 else 0.0
        s = self._act(z)
        return s * (1.0 - s)

    def forward(self, x):
        """Per-sample scalar forward; returns (z_layers, a_layers)."""
        x = np.asarray(x, dtype=float)
        n_layers = len(self.w)
        z_layers = [[] for _ in range(n_layers)]
        a_layers = [[] for _ in range(n_layers + 1)]
        for sample in x:
            a = [float(v) for v in sample]
            a_layers[0].append(list(a))
            for li in range(n_layers):
                cols = len(self.b[li])
                z = []
                for j in range(cols):
                    acc = self.b[li][j]
                    for i in range(len(a)):
                        acc += a[i] * self.w[li][i][j]
                    z.append(acc)
                z_layers[li].append(list(z))
                if li == n_layers - 1:
                    m = max(z)
                    e = [math.exp(v - m) for v in z]
                    total = sum(e)
                    a = [v / total for v in e]
                else:
                    a = [self._act(v) for v in z]
                a_layers[li + 1].append(list(a))
        return ([np.array(z) for z in z_layers],
                [np.array(a) for a in a_layers])

    def loss(self, x, y):
        _, a_layers = self.forward(x)
        probs = a_layers[-1]
        y = np.asarray(y, dtype=float)
        total = 0.0
        for s in range(probs.shape[0]):
            row = 0.0
            for j in range(probs.shape[1]):
                p = max(probs[s][j], 1e-12)
                row += y[s][j] * math.log(p)
            total -= row
        return total / probs.shape[0]

    def backward(self, x, y):
        """Scalar backprop; returns (weight_grads, bias_grads) as arrays."""
        z_layers, a_layers = self.forward(x)
        y = np.asarray(y, dtype=float)
        n = y.shape[0]
        n_layers = len(self.w)
        gw = [np.zeros((len(W), len(W[0]))) for W in self.w]
        gb = [np.zeros(len(B)) for B in self.b]
        for s in range(n):
            delta = [a_layers[-1][s][j] - y[s][j]
                     for j in range(y.shape[1])]
            for li in range(n_layers - 1, -1, -1):
                a_prev = a_layers[li][s]
                for j in range(len(delta)):
                    gb[li][j] += delta[j] / n
                    for i in range(len(a_prev)):
                        if self.masks[li][i][j]:
                            gw[li][i][j] += a_prev[i] * delta[j] / n
                if li > 0:
                    da = []
                    for i in range(len(a_prev)):
                        acc = 0.0
                        for j in range(len(delta)):
                            acc += delta[j] * self.w[li][i][j]
                        da.append(acc)
                    delta = [da[i] * self._act_deriv(z_layers[li - 1][s][i])
                             for i in range(len(da))]
        return gw, gb

    def sgd_step(self, x, y, lr):
        gw, gb = self.backward(x, y)
        for li in range(len(self.w)):
            for i in range(len(self.w[li])):
                for j in range(len(self.w[li][i])):
                    if self.masks[li][i][j]:
                        self.w[li][i][j] -= lr * gw[li][i][j]
            for j in range(len(self.b[li])):
                self.b[li][j] -= lr * gb[li][j]

    def weights_arrays(self):
        return [np.array(W) for W in self.w]

    def bias_arrays(self):
        return [np.array(B) for B in self.b]


def max_rel_error(analytic, numeric, floor=1e-6):
    """Worst-case relative disagreement with an absolute floor.

    The floor keeps finite-difference noise (loss cancellation divided by
    the step) from inflating the ratio where both gradients are tiny.
    """
    worst = 0.0
    for g, f in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(g), np.abs(f)), floor)
        worst = max(worst, float((np.abs(g - f) / denom).max()))
    return worst


def reference_evolve_magnitude(network, policy, event_index=0):
    """Scalar-loop prune-and-regrow event, in place, for comparison with
    a ``magnitude_set`` :func:`motifset.evolution.evolve`.

    Blocks are visited in row-major order and every tile is read and
    written through explicit slices.  A tile's magnitude adds the absolute
    values of each tile row left to right, then the row sums top to bottom,
    and divides by the cell count.  The generator is drawn from exactly as
    the package documents: one ``choice`` over the blocks free after
    pruning, then one He draw of shape ``(k, e, e)``.
    """
    for i, layer in enumerate(network.layers):
        rng = np.random.default_rng((policy.rng_seed, event_index, i))
        mask, w, e = layer.block_mask, layer.weights, layer.expand_factor
        n_rows, n_cols = mask.shape
        active = [(r, c) for r in range(n_rows) for c in range(n_cols)
                  if mask[r, c]]
        k = math.floor(policy.zeta * len(active))
        if len(active) == n_rows * n_cols or k == 0:
            continue
        mags = []
        for r, c in active:
            tile = w[r * e:(r + 1) * e, c * e:(c + 1) * e]
            total = 0.0
            for a in range(e):
                row = 0.0
                for b in range(e):
                    row += abs(float(tile[a, b]))
                total += row
            mags.append(total / (e * e))
        order = sorted(range(len(active)), key=lambda j: mags[j])
        for j in order[:k]:
            r, c = active[j]
            mask[r, c] = False
            w[r * e:(r + 1) * e, c * e:(c + 1) * e] = 0.0
        free = [(r, c) for r in range(n_rows) for c in range(n_cols)
                if not mask[r, c]]
        pick = rng.choice(len(free), size=k, replace=False)
        fan_in = network.layer_sizes[i]
        if network.init_scheme == "he_uniform":
            bound = math.sqrt(6.0 / fan_in)
            values = rng.uniform(-bound, bound, size=(k, e, e))
        else:
            values = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(k, e, e))
        for j, p in enumerate(pick):
            r, c = free[p]
            mask[r, c] = True
            w[r * e:(r + 1) * e, c * e:(c + 1) * e] = values[j]


def reference_evolve_listing4(network, policy, event_index=0):
    """Scalar-loop zap-and-noise event, in place, for comparison with a
    ``listing4`` :func:`motifset.evolution.evolve`; returns the zeroed cell
    count of each layer.

    Per layer, the generator gives one uniform variate per stored weight
    cell, then, when ``noise_scale > 0``, one standard normal per cell, both
    in row-major order.  Every active cell whose variate is below
    ``epsilon_prune`` is zeroed; then every active cell gains its normal
    times ``noise_scale``.
    """
    zapped = []
    for i, layer in enumerate(network.layers):
        rng = np.random.default_rng((policy.rng_seed, event_index, i))
        mask, w, e = layer.block_mask, layer.weights, layer.expand_factor
        rows, cols = w.shape
        u = rng.random((rows, cols))
        count = 0
        for a in range(rows):
            for b in range(cols):
                if mask[a // e, b // e] and u[a, b] < policy.epsilon_prune:
                    w[a, b] = 0.0
                    count += 1
        if policy.noise_scale > 0.0:
            noise = rng.standard_normal((rows, cols))
            for a in range(rows):
                for b in range(cols):
                    if mask[a // e, b // e]:
                        w[a, b] += float(noise[a, b]) * policy.noise_scale
        zapped.append(count)
    return zapped


def parse_topology_reference(text):
    """Line-by-line ``motif-topology v1`` parser, for comparison with
    :func:`motifset.topology.parse_topology`; returns ``(layer_sizes,
    motif_size, masks)``.

    It accepts more than the package parser: each line is stripped and
    split on any whitespace, numbers go through ``int`` (so ``+3``, ``0_1``
    and non-ASCII digits pass) and blank lines are skipped.  The caller
    still has to check that the parts form a valid topology.  Raises
    ValueError for a missing header, a malformed or misplaced line, or a
    block outside its layer's grid.
    """
    def ints(parts, count, line):
        if len(parts) != count:
            raise ValueError(f"expected {count} numbers in line {line!r}")
        return [int(p) for p in parts]

    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines or lines[0] != "motif-topology v1":
        raise ValueError("missing 'motif-topology v1' header")
    shapes, masks, current = [], [], None
    for ln in lines[1:]:
        if not ln:
            continue
        parts = ln.split()
        if parts[0] == "layer":
            idx, rows, cols, tile = ints(parts[1:], 4, ln)
            if idx != len(shapes):
                raise ValueError(f"layer lines out of order at index {idx}")
            shapes.append((rows, cols, tile))
            current = np.zeros((rows, cols), dtype=bool)
            masks.append(current)
        else:
            if current is None:
                raise ValueError("block line before any layer line")
            r, c = ints(parts, 2, ln)
            if not (0 <= r < current.shape[0] and 0 <= c < current.shape[1]):
                raise ValueError(f"block {r} {c} lies outside its grid")
            current[r, c] = True
    if not shapes:
        raise ValueError("no layer lines found")
    layer_sizes = [shapes[0][0] * shapes[0][2]]
    layer_sizes += [cols * tile for _, cols, tile in shapes]
    motif_size = shapes[0][2] if len(shapes) > 1 else 1
    return tuple(layer_sizes), motif_size, masks
