"""Sparse MLP with motif-block weight sharing.

Two weight modes exist per network:

``shared``
    Hidden-facing layers store one scalar weight per active block.  The
    forward pass never materializes the expanded matrix: inputs are pooled
    over each group of ``m`` consecutive features, multiplied by the block
    weight grid, and the block outputs are spread back to the ``m``
    neurons of each output block.  This is exactly equivalent to multiplying
    by the tiled neuron-granularity matrix, but the matrix product shrinks
    by ``m`` in both dimensions.  Pooling sums ``m`` strided column slices
    (:func:`_pool_cols`); each layer pools its input once per step, in
    :func:`_layer_forward`, and its delta once, in :func:`backward`.

``independent``
    Weights are stored at neuron granularity and only the *mask* lives on
    the block grid, so connectivity comes and goes in ``m x m`` patches but
    every connection trains its own value.

The final weight layer always stores neuron-granularity weights (tile 1).
:func:`weight_grid` is the one rule for where a layer's weights live; every
other reader takes a layer's grid and tiles from the arrays' shapes.
:meth:`SparseLayer.mask_in_place` is the one masking rule of both modes: it
multiplies the ``(rows / e, e, cols)`` view of a weight-shaped array, ``e``
the layer's expand factor, by the block mask with each column repeated
``e`` times.  Inactive weights are always ``+0.0``, so masking a gradient
and subtracting it in place keeps them ``+0.0`` (``+0.0 - (-0.0)`` is
``+0.0``) with no full-size temporary per step.  :func:`backward` yields
``(parameter, gradient)`` pairs lazily, last layer first: a layer's bias,
then its weights one row slice at a time.  :func:`sgd_step` applies each
pair as it comes, so a training step,
``sgd_step(backward(network, cache, y, buffer), lr)``, forms every weight
gradient in the one buffer it is given, which :func:`gradient_buffer`
makes, and holds one at a time.  A slice is about 256 KiB
(``_SLICE_CELLS``), so its batch mean, mask and update run while it sits
in cache: one pass over memory per gradient where there were four.
:func:`_layer_forward` is the one layer step of training and evaluation:
:func:`forward` keeps every layer's pooled input and activation in the
:class:`ForwardCache` for :func:`backward`, and :func:`predict_accuracy`
keeps only the current activation.  Pooling is the identity at tile 1, so
forward and backward take one path for every layer.  Hidden activations
are ReLU or sigmoid; the output is a row-stabilized softmax trained with
cross-entropy.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, StaleCacheError
from .topology import MotifTopology, block_grid, blocks

SHARED = "shared"
INDEPENDENT = "independent"
_WEIGHT_MODES = (SHARED, INDEPENDENT)

HE_UNIFORM = "he_uniform"
HE_NORMAL = "he_normal"
_INIT_SCHEMES = (HE_UNIFORM, HE_NORMAL)

_PROB_FLOOR = 1e-12

# rows of one evaluation chunk.  It bounds evaluation's arrays: about 3 MiB
# on the 784-256-256-10 desk shape at m=2, 12 MiB each on a 3000-wide layer.
# It is the least power of two whose products give every output bit of one
# pass over all rows on the desk shape: OpenBLAS 0.3.31 runs a product of
# at most 10**6 multiply-adds on another kernel, which the 256 x 10 output
# layer reaches at 390 rows, and 256-row chunks changed the last bit.  That
# holds with 1 BLAS thread only: with 2, a 3000-wide shared layer at m >= 2
# can give other last bits for 512 rows than for 1000
EVAL_ROWS = 512

# float64 cells in one row slice of a weight gradient: 256 KiB, which fits
# in L2 beside the weights' rows it updates
_SLICE_CELLS = 1 << 15

# (parameter, its gradient): an array to update in place and its gradient
# of the same shape
GradientPairs = Iterable[tuple[np.ndarray, np.ndarray]]


def _relu(z):
    return np.maximum(z, 0.0, out=z)


def _sigmoid(z):
    # t = exp(-|z|); 1 / (1 + t) where z >= 0 and t / (1 + t) where z < 0
    neg = z < 0
    t = np.abs(z)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.copyto(z, t, where=neg)
    t += 1.0
    np.divide(z, t, out=z, where=neg)
    np.logical_not(neg, out=neg)
    np.divide(1.0, t, out=z, where=neg)
    return z


# name: (activation, applied in place and returning its argument; and
# apply_derivative(d, a), which multiplies the delta ``d`` in place by the
# derivative taken from the activation's output ``a``).  The first entry is
# init_network's default
_ACTIVATIONS = {
    "relu": (_relu, lambda d, a: np.multiply(d, a > 0, out=d)),
    "sigmoid": (_sigmoid,
                lambda d, a: np.multiply(d, a * (1.0 - a), out=d)),
}


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of float64 ``z``, stabilized by subtracting each
    row's maximum; applied in place, returning ``z``, with the bits of
    ``exp(z - max) / sum``."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def he_sample(rng: np.random.Generator, init_scheme: str, fan_in: int,
              size) -> np.ndarray:
    """He-initialised values: uniform on ``(-sqrt(6 / fan_in),
    sqrt(6 / fan_in))`` or normal with std ``sqrt(2 / fan_in)``."""
    if init_scheme == HE_UNIFORM:
        bound = np.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=size)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=size)


def check_network_options(activation: str, init_scheme: str,
                          weight_mode: str):
    """Raise ValueError on an unknown activation, init scheme or weight mode."""
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    if init_scheme not in _INIT_SCHEMES:
        raise ValueError(f"unknown init scheme {init_scheme!r}")
    if weight_mode not in _WEIGHT_MODES:
        raise ValueError(f"unknown weight mode {weight_mode!r}")


@dataclass
class SparseLayer:
    """One weight layer of the network: its three arrays.

    ``weights`` lies on the layer's :func:`weight_grid`, ``bias`` has one
    entry per output neuron, and ``block_mask``, one cell per block, is a
    view into the owning network's topology, so evolution edits both at
    once.  Both tiles are ratios of these shapes.
    """

    weights: np.ndarray
    bias: np.ndarray
    block_mask: np.ndarray

    @property
    def share_tile(self) -> int:
        """Neurons per weight side; ``m`` on a shared hidden layer."""
        return self.bias.size // self.weights.shape[1]

    @property
    def expand_factor(self) -> int:
        """Weights per block side; ``m`` on an independent hidden layer."""
        return self.weights.shape[0] // self.block_mask.shape[0]

    def mask_in_place(self, a: np.ndarray, first_row: int = 0):
        """Multiply C-contiguous ``a``, the rows of a weight-shaped array
        from ``first_row`` on, by 0.0 outside the active blocks and by 1.0
        inside them, in place.  ``first_row`` and the row count are
        multiples of the expand factor.

        Active cells keep their bits; an inactive cell becomes ``+0.0`` or
        ``-0.0`` with the sign of its old value (NaN if it was not finite).
        """
        e = self.expand_factor
        rows, cols = a.shape
        mask = self.block_mask[first_row // e:(first_row + rows) // e]
        view = blocks(a, e).reshape(rows // e, e, cols)
        view *= _spread_cols(mask, e)[:, None, :]


@dataclass
class Network:
    """A trainable block-sparse MLP.

    ``topology`` is owned by the network (its masks are writable) and stays
    in sync with the layers' ``block_mask`` views as evolution rewires them.
    """

    topology: MotifTopology
    layers: list[SparseLayer]
    activation: str
    weight_mode: str
    init_scheme: str

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return self.topology.layer_sizes

    @property
    def n_classes(self) -> int:
        return self.topology.layer_sizes[-1]


@dataclass
class ForwardCache:
    """Intermediate results of one forward pass.

    ``a_list[0]`` is the input batch, ``a_list[i]`` the activation after
    layer ``i - 1``, so ``a_list[-1]`` holds softmax probabilities.
    ``pooled[i]`` is layer ``i``'s input pooled over its share tile, the
    left operand of both its forward product and its weight gradient; at
    tile 1 it is ``a_list[i]`` itself, so it costs no memory there.
    Pre-activations are not kept: the ReLU derivative is ``a_list[i] > 0``.
    """

    a_list: list[np.ndarray] = field(default_factory=list)
    pooled: list[np.ndarray] = field(default_factory=list)


def weight_grid(layer_sizes, motif_size: int, weight_mode: str, i: int
                ) -> tuple[int, int]:
    """``(rows, cols)`` of weight layer ``i``'s stored grid: one weight per
    block on a shared layer, else one per neuron pair."""
    if weight_mode == SHARED:
        return block_grid(layer_sizes, motif_size, i)[:2]
    return layer_sizes[i], layer_sizes[i + 1]


def zero_network(topology: MotifTopology, activation: str, init_scheme: str,
                 weight_mode: str) -> Network:
    """A network on ``topology`` with every weight and bias zero.

    Lays out each weight layer's :func:`weight_grid`.  The network takes
    ``topology`` itself, so its masks are the layers' ``block_mask``.
    Raises ValueError for an unknown activation, init scheme or weight mode.
    """
    check_network_options(activation, init_scheme, weight_mode)
    sizes = topology.layer_sizes
    layers = []
    for i, mask in enumerate(topology.block_masks):
        grid = weight_grid(sizes, topology.motif_size, weight_mode, i)
        layers.append(SparseLayer(np.zeros(grid), np.zeros(sizes[i + 1]),
                                  mask))
    return Network(topology, layers, activation, weight_mode, init_scheme)


def init_network(topology: MotifTopology,
                 activation: str = next(iter(_ACTIVATIONS)),
                 init_scheme: str = HE_UNIFORM, seed: int = 0,
                 weight_mode: str = SHARED) -> Network:
    """Build a network with freshly initialized weights.

    Layer ``i`` draws from an independent generator seeded ``(seed, i)``.
    He initialization (:func:`he_sample`) uses the full previous layer width
    as fan-in.  A full weight grid is drawn first and then zeroed outside
    the mask, so the surviving values do not depend on which blocks happen
    to be active.  Inactive weights are ``+0.0``, never ``-0.0``.  Biases
    start at zero.
    """
    network = zero_network(topology.copy_mutable(), activation, init_scheme,
                           weight_mode)
    for i, layer in enumerate(network.layers):
        rng = np.random.default_rng((seed, i))
        layer.weights = he_sample(rng, init_scheme, network.layer_sizes[i],
                                  layer.weights.shape)
        layer.mask_in_place(layer.weights)
        layer.weights += 0.0  # -0.0 + 0.0 is +0.0; every other value stays
    return network


def _pool_cols(a: np.ndarray, m: int) -> np.ndarray:
    """Sum each group of ``m`` consecutive columns (``a`` itself at 1).

    ``a[:, 0::m] + a[:, 1::m]`` adds ``a[:, j::m]`` for ``j = 2 .. m-1`` in
    place, so every group is summed left to right.  For ``m <= 7`` that is
    the order of numpy's ``reshape(n, d // m, m).sum(axis=2)``, so the sums
    agree bit for bit (except that a group of ``-0.0`` alone sums to
    ``-0.0``, where numpy gives ``+0.0``); from ``m = 8`` numpy sums a
    group pairwise over 8 accumulators, so the two can differ in the last
    bit.
    """
    if m == 1:
        return a
    out = np.add(a[:, 0::m], a[:, 1::m])
    for j in range(2, m):
        out += a[:, j::m]
    return out


def _spread_cols(a: np.ndarray, m: int) -> np.ndarray:
    """Repeat every column ``m`` times (``a`` itself at 1)."""
    if m == 1:
        return a
    return np.repeat(a, m, axis=1)


def _check_batch(network: Network, batch: np.ndarray) -> np.ndarray:
    a = np.asarray(batch, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ShapeError("batch must contain at least one sample")
    if a.shape[1] != network.layer_sizes[0]:
        raise ShapeError(
            f"batch has {a.shape[1]} features, network expects "
            f"{network.layer_sizes[0]}"
        )
    return a


def _check_targets(y_true: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    y = np.asarray(y_true, dtype=np.float64)
    if y.shape != shape:
        raise ShapeError(
            f"targets shape {y.shape} does not match outputs {shape}"
        )
    return y


def _layer_forward(network: Network, i: int,
                   a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Layer ``i``'s step on its input ``a``: ``(pooled input, activation)``,
    the activation a softmax on the last layer.  A hidden activation is
    applied in place over the pre-activation, so no layer holds both."""
    layer = network.layers[i]
    m = layer.share_tile
    pooled = _pool_cols(a, m)
    z = _spread_cols(pooled @ layer.weights, m)
    z += layer.bias
    if i == len(network.layers) - 1:
        return pooled, softmax(z)
    return pooled, _ACTIVATIONS[network.activation][0](z)


def forward(network: Network, batch: np.ndarray) -> ForwardCache:
    """Run a batch through the network, keeping per-layer intermediates."""
    a = _check_batch(network, batch)
    cache = ForwardCache(a_list=[a])
    for i in range(len(network.layers)):
        pooled, a = _layer_forward(network, i, a)
        cache.pooled.append(pooled)
        cache.a_list.append(a)
    return cache


def loss(cache: ForwardCache, y_true: np.ndarray) -> float:
    """Mean cross-entropy of cached softmax outputs against one-hot targets."""
    if not cache.a_list:
        raise StaleCacheError("empty forward cache")
    probs = cache.a_list[-1]
    y = _check_targets(y_true, probs.shape)
    logp = np.log(np.maximum(probs, _PROB_FLOOR))
    # numpy's mean is this reduce and then a divide
    return float(-np.add.reduce((y * logp).sum(axis=1)) / y.shape[0])


def _check_cache(network: Network, cache: ForwardCache):
    n_layers = len(network.layers)
    if len(cache.a_list) != n_layers + 1 or len(cache.pooled) != n_layers:
        raise StaleCacheError(
            f"cache holds {len(cache.a_list) - 1} layers and "
            f"{len(cache.pooled)} pooled inputs, network has {n_layers}"
        )
    for i, layer in enumerate(network.layers):
        if cache.a_list[i].shape[1] != network.layer_sizes[i]:
            raise StaleCacheError(
                f"cache activation {i} has width {cache.a_list[i].shape[1]}, "
                f"network expects {network.layer_sizes[i]}"
            )
        width = layer.weights.shape[0]
        if cache.pooled[i].shape != (cache.a_list[i].shape[0], width):
            raise StaleCacheError(
                f"cache pooled input {i} has shape {cache.pooled[i].shape}, "
                f"network expects width {width}"
            )


def gradient_buffer(network: Network) -> np.ndarray:
    """A new buffer for :func:`backward`'s ``out``: 1-D float64, with the
    cells of the network's largest weight grid.  Every layer's weight
    gradient is formed in its front, so one buffer serves every step while
    the grids keep their shapes."""
    return np.empty(max(np.size(layer.weights) for layer in network.layers))


def _check_out(network: Network, out: np.ndarray):
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.ndim == 1 and out.flags.c_contiguous):
        raise ShapeError("the gradient buffer must be a 1-D C-contiguous "
                         f"float64 array, got {type(out).__name__} of "
                         f"shape {np.shape(out)} and dtype "
                         f"{np.asarray(out).dtype}")
    for i, layer in enumerate(network.layers):
        if out.size < layer.weights.size:
            raise ShapeError(
                f"the gradient buffer has {out.size} cells, layer {i}'s "
                f"weight gradient needs {layer.weights.size}")


def _layer_gradients(network: Network, cache: ForwardCache, y: np.ndarray,
                     out: np.ndarray) -> GradientPairs:
    """The generator :func:`backward` returns, after its checks."""
    n = y.shape[0]
    # 1 / n is exact for a power of two, so x * (1 / n) and x / n round the
    # same real number: the same bits from a cheaper operation
    mean, by = ((np.multiply, 1.0 / n) if n & (n - 1) == 0
                else (np.divide, n))
    apply_derivative = _ACTIVATIONS[network.activation][1]
    delta = cache.a_list[-1] - y
    for i in range(len(network.layers) - 1, -1, -1):
        layer = network.layers[i]
        m = layer.share_tile
        p, q = cache.pooled[i], _pool_cols(delta, m)
        shape = (p.shape[1], q.shape[1])
        gw = np.matmul(p.T, q, out=out[:shape[0] * shape[1]].reshape(shape))
        # numpy's mean is this reduce and then a divide by n
        gb = np.add.reduce(delta, axis=0)
        mean(gb, by, out=gb)
        if i > 0:
            # a new array at every tile, so the derivative may overwrite it
            delta = _spread_cols(q @ layer.weights.T, m)
            apply_derivative(delta, cache.a_list[i])
        yield layer.bias, gb
        e = layer.expand_factor
        step = max(e, _SLICE_CELLS // shape[1] // e * e)
        for start in range(0, shape[0], step):
            g = gw[start:start + step]
            mean(g, by, out=g)
            layer.mask_in_place(g, start)
            yield layer.weights[start:start + step], g


def backward(network: Network, cache: ForwardCache, y_true: np.ndarray,
             out: np.ndarray) -> GradientPairs:
    """Backpropagate cross-entropy gradients through the cached pass.

    The softmax/cross-entropy pair gives the output delta ``probs - y``
    directly.  With ``P`` the pooled input that :func:`forward` cached and
    ``Q`` the column-pooled delta (both unpooled at tile 1),
    ``dW = P.T @ Q / n`` masked in place by
    :meth:`SparseLayer.mask_in_place`, and ``Q @ W.T`` spread back over the
    tile, multiplied in place by the activation's derivative, is the
    previous layer's delta.  All gradients are means over the batch.

    Returns an iterator of ``(parameter, gradient)`` pairs that forms each
    layer's gradients when advanced; the cache, targets and ``out`` are
    checked when this is called, and a wrong one raises StaleCacheError or
    ShapeError.  Layers come last first; each gives ``(bias, db)``, then
    ``(W[rows], dW[rows])`` for its row slices in order, each a view into
    the layer's weights.  Each layer's ``P.T @ Q`` is one product; its row
    slices, of about ``_SLICE_CELLS`` cells and a whole number of block
    rows each, are then divided by ``n`` and masked one at a time as they
    are yielded, so a consumer can finish a slice while it is in cache.
    Layer ``i - 1``'s delta is taken from ``W_i`` before layer ``i``'s
    first pair is yielded, so a consumer such as :func:`sgd_step` may
    update ``W_i`` at once.  ``out`` is the buffer that
    :func:`gradient_buffer` returns, or any 1-D C-contiguous float64 array
    at least as long; each layer's ``dW`` is a view into its front that the
    next layer's overwrites, so a step holds one weight-sized gradient at
    most.  For a batch of ``2**k`` the division is a multiplication by
    ``2**-k``, which gives the same bits.

    A non-finite cell of ``P.T @ Q`` stays non-finite after masking
    (``inf * 0.0`` and ``nan * 0.0`` are NaN), so :func:`sgd_step` carries
    it into an inactive weight.  Short of an overflow in the product
    itself, only a non-finite input ``P`` gives one, and then the forward
    pass was non-finite already: ``P @ W`` multiplies that input by the
    ``+0.0`` inactive weights, and ``inf * 0.0`` is NaN there too, so the
    loss is NaN before this runs.
    """
    _check_cache(network, cache)
    y = _check_targets(y_true, cache.a_list[-1].shape)
    _check_out(network, out)
    return _layer_gradients(network, cache, y, out)


def sgd_step(grads: GradientPairs, learning_rate: float):
    """In-place gradient descent: ``param -= learning_rate * grad`` for each
    ``(param, grad)`` pair of ``grads``, such as the iterator
    :func:`backward` returns.

    Each pair is applied as it comes, so a slice of :func:`backward`'s is
    updated while it is still in cache.  ``param`` must be writable (a
    view updates the array it views); a ``grad`` not of its shape raises
    ShapeError.  Scales each gradient by ``learning_rate`` in place, with no
    temporary of its size.
    """
    for param, grad in grads:
        if grad.shape != param.shape:
            raise ShapeError(f"gradient shape {grad.shape} does not match "
                             f"parameter shape {param.shape}")
        grad *= learning_rate
        param -= grad


def _chunk_outputs(network: Network, x: np.ndarray):
    """The network's outputs on ``x``, one chunk of ``EVAL_ROWS`` rows at a
    time: yields ``(row, outputs of x[row:row + len(outputs)])``, each row
    once, in order.

    Every chunk has ``EVAL_ROWS`` rows unless ``x`` has fewer: the last one
    ends at the last row and recomputes the rows it shares with the one
    before, whose outputs it does not yield again.  So no product is
    shorter than ``EVAL_ROWS`` rows, because a short product can run
    another BLAS kernel whose results differ in the last bit.  Only with 1
    BLAS thread are the outputs those of one pass, bit for bit: with 2, a
    3000-wide shared layer at m >= 2 can differ in the last bit with the
    row count.  Each chunk goes layer by layer through
    :func:`_layer_forward`, keeping only the current activation: no
    :class:`ForwardCache` is built.
    """
    n = x.shape[0]
    for row in range(0, n, EVAL_ROWS):
        start = max(min(row, n - EVAL_ROWS), 0)
        a = x[start:start + EVAL_ROWS]
        for i in range(len(network.layers)):
            a = _layer_forward(network, i, a)[1]
        yield row, a[row - start:]


def predict_accuracy(network: Network, x: np.ndarray,
                     y_true: np.ndarray) -> float:
    """Fraction of samples whose argmax output matches the one-hot target.

    Ties in the output probabilities resolve to the lowest class index on
    both sides of the comparison.  The outputs are formed
    ``EVAL_ROWS`` rows at a time by :func:`_chunk_outputs`, so evaluation
    holds one chunk's layer arrays, whatever the rows of ``x``.
    """
    x = _check_batch(network, x)
    y = _check_targets(y_true, (x.shape[0], network.n_classes))
    true_idx = np.argmax(y, axis=1)
    hits = 0
    for row, probs in _chunk_outputs(network, x):
        hits += int((np.argmax(probs, axis=1)
                     == true_idx[row:row + probs.shape[0]]).sum())
    return hits / x.shape[0]
