"""From-scratch binary CNN on numpy arrays.

Architecture: conv(3x3, same) -> ReLU -> maxpool(2x2) -> conv -> ReLU ->
maxpool -> flatten -> dense -> ReLU -> dense(1) -> sigmoid, trained with
binary cross-entropy and the plain gradient-descent update
w <- w - alpha * dL/dw.

`forward_batch` chains the public layer ops, each on a batched (n, h, w, c)
stack; convolutions run as im2col matrix products. Each step of training
splits its work between the calling thread and one worker, the data- and
model-parallel halves of Krizhevsky's "One weird trick" (arXiv:1404.5997):

- the conv layers and their input gradients by batch halves: each example's
  values come from GEMM rows of its own, and a conv GEMM row does not depend
  on how many rows its call has;
- dense1's forward by hidden-unit columns, its input gradient by feature
  rows of its weights, and its weight gradient by feature rows again; each
  conv kernel gradient, which sums over the batch, by patch rows dy. None of
  these splits the axis a GEMM sums over, so each output element is the
  same dot product, summed in the same order where OpenBLAS picks the same
  kernel for the part as for the whole (see `_gemm_mid`);
- the SGD update by rows of each tensor, as it is elementwise.

A process that may run on one CPU only runs both parts on the calling
thread, one after the other. Within its half, each thread runs the conv
chain one example at a time, forward (conv1, ReLU, pool1, conv2, ReLU,
pool2) and back (pool2 scatter, conv2 input gradient, ReLU mask, pool1
scatter), so that it holds one example's patch matrix (2.4 MB for conv2 of
the paper model) where half a batch's took 9.4 MB at batch 8.

So every bit is that of the whole-batch chain of layer ops, in which
conv2's input gradient multiplies by a C-contiguous copy of the transposed
kernel matrix, made once per backward for `_conv_input_grad`: by the
transposed view, OpenBLAS sums that product in another order on some shapes
off the paper's. All math is float64 so the finite-difference gradient
checks are meaningful.
"""

from __future__ import annotations

import contextvars
import dataclasses
import json
import math
import os
import struct
import typing
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptCheckpoint, ShapeMismatch

_SIGMOID_HI = float(np.nextafter(1.0, 0.0))
_SIGMOID_LO = float(np.nextafter(0.0, 1.0))
LOSS_EPS = 1e-7

_CKPT_MAGIC = b"ECGPHASE_CKPT\n"
_CKPT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; the paper-shaped network is the default."""

    input_size: int = 64
    input_channels: int = 3
    kernel_size: int = 3
    conv_filters: tuple[int, int] = (32, 64)
    hidden_units: int = 128

    def __post_init__(self):
        sizes = (self.input_size, self.input_channels, self.kernel_size, self.hidden_units)
        if not all(type(v) is int and v >= 1 for v in (*sizes, *self.conv_filters)):
            raise ValueError(f"layer sizes must be positive ints, got {self}")
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")
        if self.input_size % 4:
            raise ValueError(
                f"input_size must be divisible by 4 for two 2x2 pools, got {self.input_size}"
            )

    @property
    def flat_dim(self) -> int:
        side = self.input_size // 4
        return side * side * self.conv_filters[1]


@dataclass(frozen=True)
class ConvLayer:
    kernels: np.ndarray = field(repr=False)  # (k, k, c_in, c_out)
    bias: np.ndarray = field(repr=False)     # (c_out,)


@dataclass(frozen=True)
class DenseLayer:
    weights: np.ndarray = field(repr=False)  # (n_in, n_out)
    bias: np.ndarray = field(repr=False)     # (n_out,)


@dataclass(frozen=True)
class Model:
    """The network's parameters; `backward_batch` returns its gradients as one too."""

    config: ModelConfig
    conv1: ConvLayer
    conv2: ConvLayer
    dense1: DenseLayer
    dense_out: DenseLayer


# layer field name -> layer class, in declaration order, which is the
# checkpoint's tensor order
_LAYERS = {name: cls for name, cls in typing.get_type_hints(Model).items() if name != "config"}


def parameters(model: Model) -> dict[str, np.ndarray]:
    """Every parameter tensor as "layer.part" -> array, in checkpoint order."""
    return {
        f"{name}.{part.name}": getattr(getattr(model, name), part.name)
        for name, cls in _LAYERS.items()
        for part in dataclasses.fields(cls)
    }


def from_parameters(config: ModelConfig, params: dict[str, np.ndarray]) -> Model:
    """Inverse of `parameters`: the Model holding these named tensors."""
    return Model(config, **{
        name: cls(**{part.name: params[f"{name}.{part.name}"] for part in dataclasses.fields(cls)})
        for name, cls in _LAYERS.items()
    })


def _parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shapes `parameters` gives for a model of this config: each layer's
    kernels or weights, then its bias over their last axis."""
    k, c = config.kernel_size, config.input_channels
    f1, f2 = config.conv_filters
    h = config.hidden_units
    weights = ((k, k, c, f1), (k, k, f1, f2), (config.flat_dim, h), (h, 1))
    return {
        f"{name}.{part.name}": shape
        for (name, cls), w in zip(_LAYERS.items(), weights, strict=True)
        for part, shape in zip(dataclasses.fields(cls), (w, w[-1:]), strict=True)
    }


@dataclass
class ForwardCache:
    """Intermediates the backward pass needs, in forward order. Each conv's
    patch matrix is rebuilt from its input, `x` or `p1`, not kept."""

    x: np.ndarray
    pool1_arg: np.ndarray
    p1: np.ndarray
    pool2_arg: np.ndarray
    flat: np.ndarray
    ad: np.ndarray
    prob: np.ndarray


def _patches(x: np.ndarray, k: int) -> np.ndarray:
    """Every patch of a batch, zero-padded to keep its size, as a read-only
    (n, h, w, k, k*c) view: patch row dy on axis 3, dx/c order along axis 4.

    In the C-contiguous padded batch, patch row dy of output pixel (y, x) is
    the k*c consecutive values of padded row y+dy starting at column x, so
    one strided view holds every patch. (np.pad would keep a Fortran-ordered
    input's layout, so the padded batch is built here.)
    """
    n, h, w, c = x.shape
    p = (k - 1) // 2
    padded = np.zeros((n, h + 2 * p, w + 2 * p, c))
    padded[:, p : p + h, p : p + w, :] = x
    sn, sy, sx, sc = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded, shape=(n, h, w, k, k * c), strides=(sn, sy, sx, sy, sc), writeable=False
    )


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Patch matrix of a batch: (n, h, w, k*k*c), dy/dx/c order, laid out by
    a single copy of `_patches`."""
    n, h, w, c = x.shape
    return _patches(x, k).reshape(n, h, w, k * k * c)


def _conv_input_grad(dout: np.ndarray, kernels_t: np.ndarray, k: int) -> np.ndarray:
    """Adjoint of a k x k conv in its input for one (h, w, c_out) example,
    `kernels_t` the C-contiguous transposed (c_out, k*k*c) kernel matrix.

    The example's patch gradients (2.4 MB for conv2 of the paper model) are
    the rows a whole-batch product by `kernels_t` gives, and each padded
    element sums them back from 0.0 in kernel-offset order, as over the
    whole batch.
    """
    h, w, _ = dout.shape
    c = kernels_t.shape[1] // (k * k)
    p = (k - 1) // 2
    dcols = (dout @ kernels_t).reshape(h, w, k * k, c)
    dpadded = np.zeros((h + 2 * p, w + 2 * p, c))
    for i, (dy, dx) in enumerate(np.ndindex(k, k)):
        dpadded[dy : dy + h, dx : dx + w, :] += dcols[:, :, i, :]
    return dpadded[p : p + h, p : p + w, :]


def _pool_backward(dout: np.ndarray, arg: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Scatter each pooled gradient to its window's argmax in `out`, which is
    (n, 2h, 2w, c) for an (n, h, w, c) `arg`; returns `out`."""
    for q, (row, col) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        np.multiply(dout, arg == q, out=out[:, row::2, col::2, :])
    return out


_worker: ThreadPoolExecutor | None = None
_worker_pid = 0


def _in_parallel(first: typing.Callable, second: typing.Callable) -> tuple:
    """(first(), second()), with first run on a one-thread worker and second
    on the calling thread; returns only once both are done.

    A process that may run on one CPU only runs both here, in turn, and
    makes no worker. The CPUs are read on every call, as they can change
    while the process runs: the affinity set where the platform has one,
    else the machine's count. The worker is made on first use, and made again
    in a forked child, which inherits the executor but not its thread. It
    runs `first` in a copy of the caller's context, so that numpy's
    floating-point error state (a context variable) holds there too.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return first(), second()
    global _worker, _worker_pid
    if _worker is None or _worker_pid != os.getpid():
        _worker, _worker_pid = ThreadPoolExecutor(max_workers=1), os.getpid()
    future = _worker.submit(contextvars.copy_context().run, first)
    try:
        second_result = second()
    finally:
        wait((future,))
    return future.result(), second_result


def _split(fn: typing.Callable[[int, int], None], n: int, mid: int) -> None:
    """fn(0, mid) on the worker and fn(mid, n) here, or fn(0, n) inline when
    mid is 0; fn writes its share of the results into preallocated arrays."""
    if mid == 0:
        fn(0, n)
        return
    _in_parallel(lambda: fn(0, mid), lambda: fn(mid, n))


# A GEMM output element is one dot product, and a slice of the output made
# on its own keeps its bits wherever OpenBLAS sums each element the same way.
# Its blocked x86-64 dgemm kernels do so in output blocks of 8 and 16 alike,
# but not in the narrower blocks of a ragged edge, nor in the small-matrix
# kernels it takes for products of at most 100**3 multiply-adds; and numpy
# sends a one-row product to gemv. So a GEMM splits on a multiple of 8 with
# both parts above that size, or not at all. (Splitting 7 columns 3 + 4, or
# the 8 x 40 x 256 product in halves, changed last bits.)
_GEMM_ALIGN = 8
_SMALL_GEMM = 100**3


def _gemm_mid(n: int, macs: int) -> int:
    """Where to split the n output rows or columns of a GEMM that takes
    `macs` multiply-adds for each, for `_split`: 0 keeps it whole."""
    mid = n // 2 // _GEMM_ALIGN * _GEMM_ALIGN
    return mid if mid * macs > _SMALL_GEMM else 0


# --- layer ops, each on a (n, h, w, c) batch ---

def conv2d_forward(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Same-padded stride-1 convolution of an (n, h, w, c_in) batch, c_in
    the kernels' input channels; preserves the spatial size."""
    k, _, _, c_out = layer.kernels.shape
    out = _im2col(x, k) @ layer.kernels.reshape(-1, c_out)
    out += layer.bias
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0) of a float64 array."""
    return np.maximum(x, 0.0)


def maxpool_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 stride-2 max pool of an (n, h, w, c) batch with h and w even;
    returns (pooled, window argmax indices)."""
    # window corners in row-major order; >= comparisons break ties toward
    # the first row-major position, matching a naive scan
    a = x[:, 0::2, 0::2, :]
    b = x[:, 0::2, 1::2, :]
    cc = x[:, 1::2, 0::2, :]
    d = x[:, 1::2, 1::2, :]
    m_ab = np.maximum(a, b)
    m_cd = np.maximum(cc, d)
    out = np.maximum(m_ab, m_cd)
    # ~(u >= v), not u < v, so an unordered (NaN) pair also picks the later
    # corner; int8 keeps the argmax an eighth the size of a default int
    arg = np.where(m_ab >= m_cd, ~(a >= b), np.int8(2) + ~(cc >= d))
    return out, arg


def flatten(x: np.ndarray) -> np.ndarray:
    """Row-major linearization of each (h, w, c) example of an (n, h, w, c)
    batch: (n, h*w*c)."""
    return x.reshape(x.shape[0], -1)


def dense_forward(x: np.ndarray, layer: DenseLayer) -> np.ndarray:
    """x @ weights + bias, x a float64 array whose last axis is the layer's
    input width."""
    return x @ layer.weights + layer.bias


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic, clamped into the open interval (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, _SIGMOID_LO, _SIGMOID_HI)


def bce_loss(p, y) -> float:
    """Binary cross-entropy, mean over the batch, with p clamped to avoid log(0)."""
    p = np.clip(np.asarray(p, dtype=np.float64), LOSS_EPS, 1.0 - LOSS_EPS)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


# --- full network ---

def forward_batch(model: Model, images: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Probabilities for a (n, s, s, c) batch plus the backward cache."""
    cfg = model.config
    x = np.asarray(images, dtype=np.float64)
    expected = (cfg.input_size, cfg.input_size, cfg.input_channels)
    if x.ndim != 4 or x.shape[1:] != expected:
        raise ShapeMismatch(f"expected (n, {expected[0]}, {expected[1]}, {expected[2]}), got {x.shape}")

    n, side = x.shape[0], cfg.input_size // 2
    f1, f2 = cfg.conv_filters
    p1, arg1 = np.empty((n, side, side, f1)), np.empty((n, side, side, f1), np.int8)
    p2, arg2 = np.empty((n, side // 2, side // 2, f2)), np.empty((n, side // 2, side // 2, f2), np.int8)

    def convs(lo: int, hi: int) -> None:
        for j in range(lo, hi):
            e = slice(j, j + 1)
            p1[e], arg1[e] = maxpool_forward(relu(conv2d_forward(x[e], model.conv1)))
            p2[e], arg2[e] = maxpool_forward(relu(conv2d_forward(p1[e], model.conv2)))

    _split(convs, n, n // 2)
    flat = flatten(p2)
    w1, b1 = model.dense1.weights, model.dense1.bias
    ad = np.empty((n, cfg.hidden_units))

    def dense1(lo: int, hi: int) -> None:
        ad[:, lo:hi] = relu(dense_forward(flat, DenseLayer(w1[:, lo:hi], b1[lo:hi])))

    _split(dense1, cfg.hidden_units, _gemm_mid(cfg.hidden_units, flat.size))
    prob = sigmoid(dense_forward(ad, model.dense_out)[:, 0])

    return prob, ForwardCache(
        x=x, pool1_arg=arg1, p1=p1, pool2_arg=arg2, flat=flat, ad=ad, prob=prob
    )


def backward_batch(model: Model, cache: ForwardCache, labels: np.ndarray) -> Model:
    """Mean-loss gradients for a batch, shaped as the model, using the fused
    sigmoid+BCE output grad; `cache` is the batch's `forward_batch` cache,
    and `labels` holds one label per example of that batch."""
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    n = y.size

    dlogit = ((cache.prob - y) / n)[:, None]                      # (n, 1)

    dW_out = cache.ad.T @ dlogit
    db_out = dlogit.sum(axis=0)
    dad = dlogit @ model.dense_out.weights.T
    # ReLU masks come from cached outputs, the conv ones applied before the
    # pool scatter. Exact: a pooled value is > 0 iff the pre-ReLU value at
    # its argmax is, a 0/1 multiply commutes with the scatter bit for bit
    # (signed zeros too), and a NaN makes all its example's gradients NaN.
    dzd = dad * (cache.ad > 0)

    w1, flat = model.dense1.weights, cache.flat
    dflat = np.empty(flat.shape)

    def dense1_input_grad(lo: int, hi: int) -> None:
        np.multiply(dzd @ w1[lo:hi].T, flat[:, lo:hi] > 0, out=dflat[:, lo:hi])

    _split(dense1_input_grad, flat.shape[1], _gemm_mid(flat.shape[1], dzd.size))
    dp2 = dflat.reshape(cache.pool2_arg.shape)

    # Each thread's malloc arena keeps its own peak. So every large array is
    # made here, conv2's padded input included, and the worker only writes
    # into them; what it makes is one example's patch gradients and one patch
    # row of conv2's patch matrix at a time. dense1's weight gradient (16 MB
    # on the paper model) is made once dz1, dz2 and that padded input are
    # freed.
    k, _, f1, f2 = model.conv2.kernels.shape
    dz2 = np.empty(cache.p1.shape[:3] + model.conv2.bias.shape)
    dz1 = np.empty(cache.x.shape[:3] + model.conv1.bias.shape)
    kernels_t = np.ascontiguousarray(model.conv2.kernels.reshape(-1, f2).T)

    def input_grads(lo: int, hi: int) -> None:
        for j in range(lo, hi):
            e = slice(j, j + 1)
            _pool_backward(dp2[e], cache.pool2_arg[e], out=dz2[e])
            dp1 = _conv_input_grad(dz2[j], kernels_t, k)
            _pool_backward(dp1 * (cache.p1[e] > 0), cache.pool1_arg[e], out=dz1[e])

    _split(input_grads, n, n // 2)

    # A kernel gradient cols.T @ dz sums over the batch, so it splits by
    # patch rows instead. The worker copies out and multiplies conv2's patch
    # rows dy < k - 1, one row at a time (6.3 MB each on the paper model at
    # batch 8), this thread conv2's last row and all of conv1's, which take
    # about as long; both read the one padded p1 made here. Each row is one
    # product of the size `mid` tests: one too small for the blocked kernels
    # keeps conv2's product whole, here.
    patches2 = _patches(cache.p1, k)
    dout2, dout1 = dz2.reshape(-1, f2), dz1.reshape(-1, f1)
    dk2 = np.empty((k, k * f1, f2))
    mid = k - 1 if k * f1 * dout2.size > _SMALL_GEMM else 0

    def conv2_rows(dy: slice) -> None:
        cols = patches2[:, :, :, dy].reshape(len(dout2), -1)
        np.matmul(cols.T, dout2, out=dk2[dy].reshape(-1, f2))

    def worker_share() -> np.ndarray:
        for dy in range(mid):
            conv2_rows(slice(dy, dy + 1))
        return dout2.sum(axis=0)

    def caller_share() -> tuple[np.ndarray, np.ndarray]:
        conv2_rows(slice(mid, k))
        return _im2col(cache.x, k).reshape(len(dout1), -1).T @ dout1, dout1.sum(axis=0)

    dbc2, (dk1, dbc1) = _in_parallel(worker_share, caller_share)
    del dz1, dz2, dout1, dout2, patches2

    dw1 = np.empty(w1.shape)
    _split(
        lambda lo, hi: np.matmul(flat[:, lo:hi].T, dzd, out=dw1[lo:hi]),
        flat.shape[1], _gemm_mid(flat.shape[1], dzd.size),
    )

    return Model(
        model.config,
        ConvLayer(dk1.reshape(model.conv1.kernels.shape), dbc1),
        ConvLayer(dk2.reshape(model.conv2.kernels.shape), dbc2),
        DenseLayer(dw1, dzd.sum(axis=0)),
        DenseLayer(dW_out, db_out),
    )


def sgd_step(model: Model, grads: Model, alpha: float) -> Model:
    """One gradient-descent update: w_new = w - alpha * dL/dw, alpha > 0.

    Pure: returns a new Model and writes neither the model nor the grads.
    Each tensor, seen as rows along its last axis, has the first half of its
    rows updated on the worker and the rest here, all in one hand-off; the
    update is elementwise, so the split keeps every bit.
    """
    w, g = parameters(model), parameters(grads)
    new = {name: np.empty(t.shape) for name, t in w.items()}

    def descend(lo: int, hi: int) -> None:
        for name, out in new.items():
            rows = out.reshape(-1, out.shape[-1])
            part = slice(lo * len(rows) // 2, hi * len(rows) // 2)
            o = rows[part]
            np.multiply(alpha, g[name].reshape(rows.shape)[part], out=o)
            np.subtract(w[name].reshape(rows.shape)[part], o, out=o)

    _split(descend, 2, 1)
    return from_parameters(model.config, new)


def init_weights(config: ModelConfig, seed=0) -> Model:
    """Glorot-uniform kernels/weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)

    def glorot(shape):
        receptive = math.prod(shape[:-2])  # k*k for a kernel, 1 for dense weights
        bound = math.sqrt(6.0 / (receptive * shape[-2] + receptive * shape[-1]))
        return rng.uniform(-bound, bound, size=shape)

    return from_parameters(config, {
        name: np.zeros(shape) if len(shape) == 1 else glorot(shape)
        for name, shape in _parameter_shapes(config).items()
    })


# --- checkpoint container: magic, version, json header, raw tensor bytes ---

def save_checkpoint(model: Model, path, extra: dict | None = None) -> None:
    """Write the model to a deterministic, value-exact binary container."""
    params = parameters(model)
    header = {
        "model_config": dataclasses.asdict(model.config),
        "extra": extra or {},
        "tensors": [{"name": name, "shape": list(t.shape)} for name, t in params.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(blob)))
        fh.write(blob)
        for t in params.values():
            fh.write(np.ascontiguousarray(t, dtype=np.float64).tobytes())


def load_checkpoint(path) -> tuple[Model, dict]:
    """Read a checkpoint back; returns (model, extra-config dict).

    The header must list exactly the tensors, in order and shape, that its
    model config implies, their data must end at the end of the file, and
    every value must be finite.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CorruptCheckpoint(f"cannot read {path}: {exc}") from exc

    if not data.startswith(_CKPT_MAGIC):
        raise CorruptCheckpoint(f"{path}: bad magic")
    pos = len(_CKPT_MAGIC)
    try:
        version, hlen = struct.unpack_from("<II", data, pos)
    except struct.error as exc:
        raise CorruptCheckpoint(f"{path}: truncated header") from exc
    if version != _CKPT_VERSION:
        raise CorruptCheckpoint(f"{path}: unsupported version {version}")
    pos += 8
    try:
        header = json.loads(data[pos : pos + hlen].decode("utf-8"))
        pos += hlen
        cfg_dict = dict(header["model_config"])
        cfg_dict["conv_filters"] = tuple(cfg_dict["conv_filters"])
        config = ModelConfig(**cfg_dict)
        shapes = _parameter_shapes(config)
        listed = [(spec["name"], tuple(spec["shape"])) for spec in header["tensors"]]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CorruptCheckpoint(f"{path}: malformed header ({exc})") from exc
    if listed != list(shapes.items()):
        raise CorruptCheckpoint(
            f"{path}: tensors {listed} do not match the model config's {list(shapes.items())}"
        )

    nbytes = 8 * sum(math.prod(shape) for shape in shapes.values())
    if len(data) - pos != nbytes:
        raise CorruptCheckpoint(f"{path}: {len(data) - pos} bytes of tensor data, expected {nbytes}")
    params = {}
    for name, shape in shapes.items():
        size = math.prod(shape)
        params[name] = np.frombuffer(data, np.float64, size, pos).reshape(shape).copy()
        pos += 8 * size
        if not np.isfinite(params[name]).all():
            raise CorruptCheckpoint(f"{path}: tensor {name} holds NaN or infinity")
    return from_parameters(config, params), header.get("extra", {})
