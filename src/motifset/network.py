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
:meth:`SparseLayer.mask_in_place` is the one masking rule of both modes: it
multiplies the ``(rows / e, e, cols)`` view of a weight-shaped array, ``e``
the layer's expand factor, by the block mask with each column repeated
``e`` times.  Inactive weights are always ``+0.0``, so masking a gradient
and subtracting it in place keeps them ``+0.0`` (``+0.0 - (-0.0)`` is
``+0.0``) with no full-size temporary per step.  :func:`backward` yields
each layer's gradients lazily, last layer first, and :func:`sgd_step`
applies each as it comes, so a training step,
``sgd_step(network, backward(network, cache, y, buffer), lr)``, forms
every weight gradient in the one buffer and holds one at a time.
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
from .topology import MotifTopology, blocks

SHARED = "shared"
INDEPENDENT = "independent"
_WEIGHT_MODES = (SHARED, INDEPENDENT)

HE_UNIFORM = "he_uniform"
HE_NORMAL = "he_normal"
_INIT_SCHEMES = (HE_UNIFORM, HE_NORMAL)

_PROB_FLOOR = 1e-12

# predict_accuracy's chunk rows; fewer can change results in the last bit
EVAL_ROWS = 8192

# (layer index, weight gradient, bias gradient), the last layer first
LayerGradients = Iterable[tuple[int, np.ndarray, np.ndarray]]


def _relu(z):
    return np.maximum(z, 0.0, out=z)


def _sigmoid(z):
    pos = z >= 0
    ez = np.exp(z[~pos])
    z[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    z[~pos] = ez / (1.0 + ez)
    return z


# name: (activation, applied in place and returning its argument, and its
# derivative computed from the activation's output); the first entry is
# init_network's default
_ACTIVATIONS = {
    "relu": (_relu, lambda a: (a > 0).astype(np.float64)),
    "sigmoid": (_sigmoid, lambda a: a * (1.0 - a)),
}


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's maximum."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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
    """One weight layer of the network.

    ``weights`` is stored on a grid of ``share_tile x share_tile`` cells:
    the block grid for shared hidden layers, the neuron grid otherwise.
    ``block_mask`` always lives on the ``block_tile`` grid and is a view
    into the owning network's topology, so evolution edits both at once.
    """

    weights: np.ndarray
    bias: np.ndarray
    block_mask: np.ndarray
    block_tile: int
    share_tile: int

    @property
    def expand_factor(self) -> int:
        """Blocks-to-weights tile ratio (``m`` for independent hidden layers)."""
        return self.block_tile // self.share_tile

    def mask_in_place(self, a: np.ndarray):
        """Multiply C-contiguous weight-shaped ``a`` by 0.0 outside the
        active blocks and by 1.0 inside them, in place.

        Active cells keep their bits; an inactive cell becomes ``+0.0`` or
        ``-0.0`` with the sign of its old value (NaN if it was not finite).
        """
        e = self.expand_factor
        rows, cols = a.shape
        view = blocks(a, e).reshape(rows // e, e, cols)
        view *= _spread_cols(self.block_mask, e)[:, None, :]


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


def zero_network(topology: MotifTopology, activation: str, init_scheme: str,
                 weight_mode: str) -> Network:
    """A network on ``topology`` with every weight and bias zero.

    Lays out each weight layer's grid: shared hidden layers store one weight
    per block, every other layer one per neuron pair.  The network takes
    ``topology`` itself, so its masks are the layers' ``block_mask``.
    Raises ValueError for an unknown activation, init scheme or weight mode.
    """
    check_network_options(activation, init_scheme, weight_mode)
    sizes = topology.layer_sizes
    layers = []
    for i, mask in enumerate(topology.block_masks):
        block_tile = topology.tile(i)
        share_tile = block_tile if weight_mode == SHARED else 1
        layers.append(SparseLayer(
            weights=np.zeros((sizes[i] // share_tile,
                              sizes[i + 1] // share_tile)),
            bias=np.zeros(sizes[i + 1], dtype=np.float64),
            block_mask=mask,
            block_tile=block_tile,
            share_tile=share_tile,
        ))
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

    A copy of the strided slice ``a[:, 0::m]`` adds ``a[:, j::m]`` for
    ``j = 1 .. m-1`` in place, so every group is summed left to right.  For
    ``m <= 7`` that is the order of numpy's ``reshape(n, d // m, m)
    .sum(axis=2)``, so the sums agree bit for bit (except that a group of
    ``-0.0`` alone sums to ``-0.0``, where numpy gives ``+0.0``); from
    ``m = 8`` numpy sums a group pairwise over 8 accumulators, so the two
    can differ in the last bit.
    """
    if m == 1:
        return a
    out = a[:, 0::m].copy()
    for j in range(1, m):
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
    return float(-(y * logp).sum(axis=1).mean())


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
        width = network.layer_sizes[i] // layer.share_tile
        if cache.pooled[i].shape != (cache.a_list[i].shape[0], width):
            raise StaleCacheError(
                f"cache pooled input {i} has shape {cache.pooled[i].shape}, "
                f"network expects width {width}"
            )


def _layer_gradients(network: Network, cache: ForwardCache, y: np.ndarray,
                     out: np.ndarray | None) -> LayerGradients:
    """The generator :func:`backward` returns, after its checks."""
    n = y.shape[0]
    derivative = _ACTIVATIONS[network.activation][1]
    delta = cache.a_list[-1] - y
    for i in range(len(network.layers) - 1, -1, -1):
        layer = network.layers[i]
        m = layer.share_tile
        p, q = cache.pooled[i], _pool_cols(delta, m)
        shape = (p.shape[1], q.shape[1])
        gw = np.matmul(p.T, q, out=None if out is None
                       else out[:shape[0] * shape[1]].reshape(shape))
        gw /= n
        layer.mask_in_place(gw)
        gb = delta.mean(axis=0)
        if i > 0:
            delta = (_spread_cols(q @ layer.weights.T, m)
                     * derivative(cache.a_list[i]))
        yield i, gw, gb


def backward(network: Network, cache: ForwardCache, y_true: np.ndarray,
             out: np.ndarray | None = None) -> LayerGradients:
    """Backpropagate cross-entropy gradients through the cached pass.

    The softmax/cross-entropy pair gives the output delta ``probs - y``
    directly.  With ``P`` the pooled input that :func:`forward` cached and
    ``Q`` the column-pooled delta (both unpooled at tile 1),
    ``dW = P.T @ Q / n`` masked in place by
    :meth:`SparseLayer.mask_in_place`, and ``Q @ W.T`` spread back over the
    tile feeds the previous layer.  All gradients are means over the batch.

    Returns an iterator of ``(layer index, dW, db)``, last layer first,
    that forms each layer's gradients when advanced; the cache and targets
    are checked when this is called.  Layer ``i - 1``'s delta is taken
    from ``W_i`` before layer ``i`` is yielded, so a consumer such as
    :func:`sgd_step` may update ``W_i`` at once.  Each ``dW`` is a new
    array, or, given ``out`` (a 1-D float64 buffer of at least the largest
    weight grid's cells), a view into the front of ``out`` that the next
    layer's overwrites, so a step holds one weight-sized gradient at most.

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
    return _layer_gradients(network, cache, y, out)


def sgd_step(network: Network, grads: LayerGradients,
             learning_rate: float) -> Network:
    """In-place gradient descent update; returns the same network.

    ``grads`` is any iterable of ``(layer index, dW, db)``, such as the
    iterator :func:`backward` returns; each layer is updated as its triple
    comes, and a ``dW`` not of its layer's shape raises ShapeError.  Scales
    the gradients it is given by ``learning_rate`` in place:
    ``W -= lr * gW`` with no temporary the size of ``W``.
    """
    for i, gw, gb in grads:
        layer = network.layers[i]
        if gw.shape != layer.weights.shape:
            raise ShapeError(
                f"weight gradient shape {gw.shape} does not match layer "
                f"shape {layer.weights.shape}"
            )
        gw *= learning_rate
        layer.weights -= gw
        gb *= learning_rate
        layer.bias -= gb
    return network


def predict_accuracy(network: Network, x: np.ndarray,
                     y_true: np.ndarray) -> float:
    """Fraction of samples whose argmax output matches the one-hot target.

    Ties in the output probabilities resolve to the lowest class index on
    both sides of the comparison.  Each chunk of ``EVAL_ROWS`` samples goes
    layer by layer through :func:`_layer_forward`, keeping only the current
    activation: no :class:`ForwardCache` is built.
    """
    x = _check_batch(network, x)
    y = _check_targets(y_true, (x.shape[0], network.n_classes))
    true_idx = np.argmax(y, axis=1)
    hits = 0
    for start in range(0, x.shape[0], EVAL_ROWS):
        stop = start + EVAL_ROWS
        a = x[start:stop]
        for i in range(len(network.layers)):
            a = _layer_forward(network, i, a)[1]
        hits += int((np.argmax(a, axis=1) == true_idx[start:stop]).sum())
    return hits / x.shape[0]
