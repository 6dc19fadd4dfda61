import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecgphase import neuralnet as nn
from ecgphase import pipeline
from ecgphase.errors import CorruptCheckpoint, ShapeMismatch
from ecgphase.record_io import Label
from oracles import (
    PARAM_TENSORS,
    _conv_grads,
    conv2d_naive,
    dense_naive,
    im2col_loop,
    max_gradient_error,
    maxpool_naive,
    whole_batch_chain,
)

TINY = nn.ModelConfig(input_size=8, conv_filters=(2, 2), hidden_units=4)

# sha256 of save_checkpoint(init_weights(TINY, seed=5), extra={"k": 1}); any
# change to the format, the tensor order or the initializer changes it
GOLDEN_CKPT_SHA256 = "54d3e2c655cbdaee7f34a7b8fb5f717ae02fcfb88ebb1b5b10550bca189efb89"


def zero_model(config=TINY):
    k, c = config.kernel_size, config.input_channels
    f1, f2 = config.conv_filters
    return nn.Model(
        config=config,
        conv1=nn.ConvLayer(np.zeros((k, k, c, f1)), np.zeros(f1)),
        conv2=nn.ConvLayer(np.zeros((k, k, f1, f2)), np.zeros(f2)),
        dense1=nn.DenseLayer(np.zeros((config.flat_dim, config.hidden_units)), np.zeros(config.hidden_units)),
        dense_out=nn.DenseLayer(np.zeros((config.hidden_units, 1)), np.zeros(1)),
    )


def pad_same(x, k):
    """Zero-pad a batch's spatial axes for a same-size k x k convolution."""
    p = (k - 1) // 2
    return np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))


class TestConv:
    def test_identity_kernel(self):
        layer = nn.ConvLayer(np.ones((1, 1, 1, 1)), np.zeros(1))
        x = np.random.default_rng(0).normal(size=(1, 5, 5, 1))
        assert np.allclose(nn.conv2d_forward(x, layer), x)

    def test_hand_example_all_ones(self):
        x = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=float)[:, :, None]
        layer = nn.ConvLayer(np.ones((3, 3, 1, 1)), np.zeros(1))
        out = nn.conv2d_forward(x[None], layer)[0, :, :, 0]
        assert out[1, 1] == 45.0
        assert out[0, 0] == 12.0  # zero padding: 1 + 2 + 4 + 5

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            h = int(rng.integers(2, 9))
            w = int(rng.integers(2, 9))
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5]))
            x = rng.normal(size=(h, w, c_in))
            layer = nn.ConvLayer(rng.normal(size=(k, k, c_in, c_out)), rng.normal(size=c_out))
            fast = nn.conv2d_forward(x[None], layer)[0]
            slow = conv2d_naive(x, layer.kernels, layer.bias)
            assert np.max(np.abs(fast - slow)) < 1e-10

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("c", [1, 3, 32])
    @pytest.mark.parametrize("n", [1, 3])
    def test_im2col_matches_loop(self, k, c, n):
        rng = np.random.default_rng(k * 100 + c * 10 + n)
        h, w = 7, 4
        x = rng.normal(size=(n, h, w, c))
        fast = nn._im2col(x, k)
        assert fast.shape == (n, h, w, k * k * c)
        assert np.array_equal(fast, im2col_loop(pad_same(x, k), k))

    def test_im2col_of_strided_input(self):
        # a non-contiguous batch gives the same patches as its contiguous
        # copy; so does a Fortran-ordered one, whose layout np.pad would keep
        rng = np.random.default_rng(3)
        strided = rng.normal(size=(2, 12, 10, 6))[:, ::2, :, 1::2]
        fortran = np.asfortranarray(rng.normal(size=(2, 5, 4, 3)))
        for x in (strided, fortran):
            assert np.array_equal(nn._im2col(x, 3), im2col_loop(pad_same(x, 3), 3))


class TestRelu:
    def test_values(self):
        assert np.array_equal(nn.relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])


class TestMaxPool:
    def test_single_window(self):
        x = np.array([[1, 2], [3, 4]], dtype=float)[None, :, :, None]
        out, arg = nn.maxpool_forward(x)
        assert out[0, 0, 0, 0] == 4.0
        assert arg[0, 0, 0, 0] == 3

    def test_tie_break_first_row_major(self):
        x = np.full((1, 2, 2, 1), 5.0)
        out, arg = nn.maxpool_forward(x)
        assert out[0, 0, 0, 0] == 5.0
        assert arg[0, 0, 0, 0] == 0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            h = 2 * int(rng.integers(1, 7))
            w = 2 * int(rng.integers(1, 7))
            c = int(rng.integers(1, 4))
            x = rng.normal(size=(h, w, c))
            fast, fast_arg = (t[0] for t in nn.maxpool_forward(x[None]))
            slow, slow_arg = maxpool_naive(x)
            assert np.array_equal(fast, slow)
            assert np.array_equal(fast_arg, slow_arg)

    def test_nan_picks_later_corner_of_its_pair(self):
        x = np.array([[0.0, 0.0], [np.nan, 0.0]])[None, :, :, None]
        out, arg = nn.maxpool_forward(x)
        assert np.isnan(out[0, 0, 0, 0])
        assert arg[0, 0, 0, 0] == 3

    def test_matches_naive_oracle_after_relu(self):
        # ReLU output is what the network pools: most windows of a negative-
        # biased input are all-zero ties
        rng = np.random.default_rng(9)
        for _ in range(10):
            h = 2 * int(rng.integers(1, 7))
            w = 2 * int(rng.integers(1, 7))
            c = int(rng.integers(1, 4))
            x = nn.relu(rng.normal(loc=-1.5, size=(h, w, c)))
            fast, fast_arg = (t[0] for t in nn.maxpool_forward(x[None]))
            slow, slow_arg = maxpool_naive(x)
            assert np.array_equal(fast, slow)
            assert np.array_equal(fast_arg, slow_arg)

    def test_backward_routes_to_oracle_argmax(self):
        rng = np.random.default_rng(10)
        x = nn.relu(rng.normal(loc=-0.5, size=(2, 6, 8, 3)))
        _, arg = nn.maxpool_forward(x)
        assert arg.dtype == np.int8
        dout = rng.normal(size=(2, 3, 4, 3))
        dx = nn._pool_backward(dout, arg, out=np.empty(x.shape))
        expected = np.zeros_like(x)
        for i in range(x.shape[0]):
            _, slow_arg = maxpool_naive(x[i])
            for y, xx, ch in np.ndindex(slow_arg.shape):
                row, col = divmod(int(slow_arg[y, xx, ch]), 2)
                expected[i, 2 * y + row, 2 * xx + col, ch] = dout[i, y, xx, ch]
        assert np.array_equal(dx, expected)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_relu_mask_before_scatter_is_bit_exact(self, data):
        # backward masks the pooled gradient with p > 0, not the scattered
        # one with z > 0; ties, signed zeros and infinities must not tell
        n, h, w, c = data.draw(st.tuples(*(st.integers(1, 3),) * 4))
        z = data.draw(hnp.arrays(np.float64, (n, 2 * h, 2 * w, c), elements=st.sampled_from(
            [-np.inf, -2.0, -0.5, -0.0, 0.0, 0.5, 2.0, np.inf]
        )))
        dp = data.draw(hnp.arrays(np.float64, (n, h, w, c), elements=(
            st.sampled_from([-np.inf, -0.0, 0.0, np.inf]) | st.floats(-3, 3)
        )))
        p, arg = nn.maxpool_forward(nn.relu(z))
        with np.errstate(invalid="ignore"):  # inf times a zero mask
            before = nn._pool_backward(dp * (p > 0), arg, out=np.empty(z.shape))
            after = nn._pool_backward(dp, arg, out=np.empty(z.shape)) * (z > 0)
        assert before.tobytes() == after.tobytes()


class TestFlattenDense:
    def test_flatten_row_major(self):
        x = np.array([[1, 2], [3, 4]], dtype=float)[None, :, :, None]
        assert nn.flatten(x).tolist() == [[1.0, 2.0, 3.0, 4.0]]

    def test_flatten_roundtrip(self):
        x = np.random.default_rng(1).normal(size=(2, 4, 6, 3))
        assert np.array_equal(nn.flatten(x).reshape(2, 4, 6, 3), x)

    def test_flatten_model_scale(self):
        assert nn.flatten(np.zeros((1, 16, 16, 64))).shape == (1, 16384)

    def test_dense_identity(self):
        layer = nn.DenseLayer(np.eye(5), np.zeros(5))
        x = np.arange(5.0)
        assert np.array_equal(nn.dense_forward(x, layer), x)

    def test_dense_hand_example(self):
        layer = nn.DenseLayer(np.array([[1.0], [1.0]]), np.array([0.5]))
        assert nn.dense_forward(np.array([1.0, 2.0]), layer).tolist() == [3.5]

    def test_dense_matches_naive(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n_in = int(rng.integers(1, 30))
            n_out = int(rng.integers(1, 20))
            layer = nn.DenseLayer(rng.normal(size=(n_in, n_out)), rng.normal(size=n_out))
            x = rng.normal(size=n_in)
            assert np.max(np.abs(nn.dense_forward(x, layer) - dense_naive(x, layer.weights, layer.bias))) < 1e-12


class TestSigmoidLoss:
    def test_midpoint(self):
        assert nn.sigmoid(0.0) == 0.5

    def test_symmetry(self):
        for x in (0.3, 2.0, 15.0):
            assert nn.sigmoid(x) + nn.sigmoid(-x) == pytest.approx(1.0, abs=1e-15)

    def test_extreme_inputs_stay_in_open_interval(self):
        hi = nn.sigmoid(710.0)
        lo = nn.sigmoid(-710.0)
        assert math.isfinite(hi) and hi < 1.0
        assert math.isfinite(lo) and lo > 0.0

    def test_bce_values(self):
        assert nn.bce_loss(0.5, 1) == pytest.approx(math.log(2), rel=1e-12)
        assert nn.bce_loss(1 - 1e-7, 1) < 1e-6
        assert nn.bce_loss(1e-7, 1) == pytest.approx(-math.log(1e-7), rel=1e-9)

    def test_bce_clamps(self):
        assert math.isfinite(nn.bce_loss(0.0, 1))
        assert math.isfinite(nn.bce_loss(1.0, 0))

    def test_bce_batch_mean(self):
        p = np.array([0.5, 0.5])
        y = np.array([1.0, 0.0])
        assert nn.bce_loss(p, y) == pytest.approx(math.log(2), rel=1e-12)


class TestForward:
    def test_zero_model_gives_half(self):
        model = zero_model()
        x = np.random.default_rng(0).uniform(0, 1, (8, 8, 3))
        p, _ = nn.forward_batch(model, x[None])
        assert p[0] == 0.5

    def test_shape_chain_default_architecture(self):
        model = nn.init_weights(nn.ModelConfig(), seed=0)
        x = np.random.default_rng(1).uniform(0, 1, (64, 64, 3))
        p, cache = nn.forward_batch(model, x[None])
        assert 0.0 < p[0] < 1.0
        assert nn.conv2d_forward(x[None], model.conv1).shape == (1, 64, 64, 32)
        assert cache.pool1_arg.shape == cache.p1.shape == (1, 32, 32, 32)
        assert nn.conv2d_forward(cache.p1, model.conv2).shape == (1, 32, 32, 64)
        assert cache.pool2_arg.shape == (1, 16, 16, 64)
        assert cache.flat.shape == (1, 16384)
        assert cache.ad.shape == (1, 128)

        # a batch-8 cache holds x, p1, both argmaxes, flat, ad and prob; no
        # patch matrix or pre-activation
        batch = np.random.default_rng(2).uniform(0, 1, (8, 64, 64, 3))
        _, cache = nn.forward_batch(model, batch)
        sizes = {f.name: getattr(cache, f.name).nbytes for f in dataclasses.fields(cache)}
        assert sizes == {
            "x": 8 * 64 * 64 * 3 * 8, "pool1_arg": 8 * 32 * 32 * 32, "p1": 8 * 32 * 32 * 32 * 8,
            "pool2_arg": 8 * 16 * 16 * 64, "flat": 8 * 16384 * 8, "ad": 8 * 128 * 8, "prob": 8 * 8,
        }
        assert sum(sizes.values()) == 4_333_632

    def test_deterministic(self):
        model = nn.init_weights(TINY, seed=3)
        x = np.random.default_rng(2).uniform(0, 1, (8, 8, 3))
        p, _ = nn.forward_batch(model, x[None])
        assert np.array_equal(nn.forward_batch(model, x[None])[0], p)

    def test_shape_mismatch(self):
        model = nn.init_weights(TINY, seed=0)
        with pytest.raises(ShapeMismatch):
            nn.forward_batch(model, np.zeros((1, 16, 16, 3)))


def split_and_whole_chain(config, n, with_nan):
    """(got, want): the probabilities, cache fields and gradients of
    `forward_batch` and `backward_batch`, and of the whole-batch chain of
    layer ops, by name. Example 0 holds only ±0; with_nan puts a NaN in the
    last example."""
    model = nn.init_weights(config, seed=4)
    side = config.input_size
    rng = np.random.default_rng(n)
    x = rng.uniform(0, 1, (n, side, side, 3))
    x[0] = np.where(rng.uniform(size=x[0].shape) < 0.5, -0.0, 0.0)
    if with_nan:
        x[-1, side // 2, side // 3, 1] = np.nan
    labels = (np.arange(n) % 2).astype(np.float64)

    prob, cache = nn.forward_batch(model, x)
    grads = nn.parameters(nn.backward_batch(model, cache, labels))
    want_prob, want_cache, want_grads = whole_batch_chain(model, x, labels)
    assert [f.name for f in dataclasses.fields(cache)] == list(want_cache)
    got = {"prob": prob, **{f"cache.{k}": getattr(cache, k) for k in want_cache}, **grads}
    want = {"prob": want_prob, **{f"cache.{k}": v for k, v in want_cache.items()}, **want_grads}
    return got, want


def split_digest():
    """sha256 over the bytes `split_and_whole_chain` gives, both sides, for a
    few batches of the paper model and TINY."""
    h = hashlib.sha256()
    for config in (nn.ModelConfig(), TINY):
        for n in (3, 8, 11):
            for side in split_and_whole_chain(config, n, with_nan=False):
                for a in side.values():
                    h.update(a.tobytes())
    return h.hexdigest()


# a child that loads numpy before the package, so BLAS keeps its own thread
# count; argv[1] is this directory
DEFAULT_THREADS_CHILD = """
import sys
import numpy
sys.path.insert(0, sys.argv[1])
from test_neuralnet import split_digest
print(split_digest())
"""


def training_digest():
    """sha256 of the model and metrics of one augmented paper-model epoch
    on nine random images, in batches of 8 and 1, tested on two more."""
    rng = np.random.default_rng(12)
    images = rng.integers(0, 256, (11, 64, 64, 3), dtype=np.uint8)
    labeled = [pipeline.LabeledImage(str(i), images[i], Label(i % 2)) for i in range(11)]
    model = nn.init_weights(nn.ModelConfig(), seed=3)
    model, metrics = pipeline.train(model, labeled[:9], pipeline.TrainConfig(epochs=1), rng, labeled[9:])
    h = hashlib.sha256(repr(metrics).encode())
    for t in nn.parameters(model).values():
        h.update(t.tobytes())
    return h.hexdigest()


# a child that may run on one CPU only; it prints its training digest and
# whether it made a worker thread. argv[1] is this directory
ONE_CPU_CHILD = """
import os, sys, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[1])
from test_neuralnet import nn, training_digest
print(training_digest(), threading.active_count(), nn._worker is None)
"""


class TestBatchHalves:
    """The conv layers run each half of a batch on its own thread; the bytes
    must equal those of the whole-batch chain of layer ops."""

    # TINY's conv GEMMs are small enough for OpenBLAS's small-matrix kernels,
    # the paper model's are not
    @pytest.mark.parametrize("config", [nn.ModelConfig(), TINY], ids=["paper", "tiny"])
    @pytest.mark.parametrize("with_nan", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 11, 16])
    def test_bit_identical_to_whole_batch_chain(self, config, n, with_nan):
        # a NaN example makes every kernel gradient NaN, so the batch sums
        # are checked without one too
        got, want = split_and_whole_chain(config, n, with_nan)
        for name, a in want.items():
            b = got[name]
            assert (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes()), (n, name)
        assert np.isnan(got["prob"][-1]) == with_nan
        assert np.isfinite(got["prob"][0]) == (n > 1 or not with_nan)

    def test_bit_identical_at_default_blas_thread_count(self):
        # this process runs one BLAS thread, the package's default; the child
        # runs as many as BLAS picks itself (one per CPU)
        blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas_vars}
        child = subprocess.run(
            [sys.executable, "-c", DEFAULT_THREADS_CHILD, str(Path(__file__).parent)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        assert child.stdout.strip() == split_digest()

    def test_one_cpu_runs_inline_with_the_threaded_bytes(self):
        child = subprocess.run(
            [sys.executable, "-c", ONE_CPU_CHILD, str(Path(__file__).parent)],
            capture_output=True, text=True, timeout=300, check=True,
        )
        assert child.stdout.split() == [training_digest(), "1", "True"]

    def test_platform_without_affinity_counts_its_cpus(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity; there the split
        # reads os.cpu_count, and on one CPU it runs inline with no worker
        want = training_digest()
        monkeypatch.delattr(os, "sched_getaffinity")
        assert training_digest() == want
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(nn, "_worker", None)
        assert training_digest() == want
        assert nn._worker is None

    def test_forked_child_makes_its_own_worker(self):
        # a forked child inherits the executor but not its thread
        model = nn.init_weights(TINY, seed=0)
        x = np.random.default_rng(0).uniform(0, 1, (4, 8, 8, 3))
        want, _ = nn.forward_batch(model, x)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got, _ = pool.apply_async(nn.forward_batch, (model, x)).get(timeout=60)
        assert got.tobytes() == want.tobytes()


# Shapes where splitting every GEMM at its middle changed last bits: 7
# hidden units split 3 + 4, halves of an 8 x 40 x 256 dense1 input gradient,
# and a conv2 kernel gradient whose last patch row is a small product. Such
# GEMMs must stay whole.
@pytest.mark.parametrize("config, n", [
    (nn.ModelConfig(input_size=12, kernel_size=5, conv_filters=(3, 3), hidden_units=7), 5),
    (nn.ModelConfig(input_size=16, conv_filters=(8, 16), hidden_units=40), 8),
    (nn.ModelConfig(input_size=16, kernel_size=5, conv_filters=(8, 16), hidden_units=17), 8),
], ids=["ragged-columns", "small-dense", "small-kernel-rows"])
def test_split_gemms_keep_bits_off_the_paper_shapes(config, n):
    got, want = split_and_whole_chain(config, n, with_nan=False)
    for name, a in want.items():
        assert got[name].tobytes() == a.tobytes(), name


@pytest.mark.parametrize("config", [
    nn.ModelConfig(), TINY, nn.ModelConfig(input_size=12, kernel_size=5, conv_filters=(3, 4), hidden_units=5),
], ids=["paper", "tiny", "kernel-5"])
@pytest.mark.parametrize("n", [1, 5, 11])
def test_conv_input_grad_matches_whole_batch_scatter(config, n):
    # conv2's input gradient, per example, against the whole-batch GEMM and
    # scatter; example 0 holds only ±0
    layer = nn.init_weights(config, seed=n).conv2
    side, (f1, f2) = config.input_size // 2, config.conv_filters
    rng = np.random.default_rng(n)
    dout = rng.normal(size=(n, side, side, f2))
    dout[0] = np.where(rng.uniform(size=dout[0].shape) < 0.5, -0.0, 0.0)
    x = np.zeros((n, side, side, f1))  # the oracle's kernel gradient reads it
    got = nn._conv_input_grad(layer, dout, x.shape)
    want = _conv_grads(x, layer.kernels, dout)[0]
    assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


class TestBackward:
    def test_fused_output_gradient_on_zero_model(self):
        model = zero_model()
        x = np.random.default_rng(0).uniform(0, 1, (8, 8, 3))
        p, cache = nn.forward_batch(model, x[None])
        grads = nn.backward_batch(model, cache, np.array([1.0]))
        assert grads.dense_out.bias[0] == pytest.approx(p[0] - 1.0)  # = -0.5

    def test_finite_difference_check(self):
        for seed in range(3):
            model = nn.init_weights(TINY, seed=seed)
            rng = np.random.default_rng(100 + seed)
            x = rng.uniform(0, 1, (8, 8, 3))
            assert max_gradient_error(model, x, float(seed % 2)) < 1e-4

    def test_dead_relu_zero_gradients(self):
        model = nn.init_weights(TINY, seed=1)
        # a large negative conv1 bias silences the first ReLU everywhere
        model = nn.Model(
            config=model.config,
            conv1=nn.ConvLayer(model.conv1.kernels, np.full(2, -100.0)),
            conv2=model.conv2,
            dense1=model.dense1,
            dense_out=model.dense_out,
        )
        x = np.random.default_rng(5).uniform(0, 1, (8, 8, 3))
        _, cache = nn.forward_batch(model, x[None])
        grads = nn.backward_batch(model, cache, np.array([1.0]))
        assert np.all(grads.conv1.kernels == 0.0)
        assert np.all(grads.conv1.bias == 0.0)


class TestSgdStep:
    def test_direct_substitution(self):
        model = zero_model()
        model = nn.Model(
            config=model.config,
            conv1=model.conv1,
            conv2=model.conv2,
            dense1=model.dense1,
            dense_out=nn.DenseLayer(np.full((4, 1), 1.0), np.zeros(1)),
        )
        grads = nn.from_parameters(model.config, {
            **{name: np.zeros_like(t) for name, t in nn.parameters(model).items()},
            "dense_out.weights": np.full((4, 1), 2.0),
        })
        stepped = nn.sgd_step(model, grads, 0.1)
        assert np.allclose(stepped.dense_out.weights, 0.8)
        twice = nn.sgd_step(stepped, grads, 0.1)
        assert np.allclose(twice.dense_out.weights, 1.0 - 2 * 0.1 * 2.0)

    def test_zero_gradient_is_noop(self):
        model = nn.init_weights(TINY, seed=2)
        x = np.random.default_rng(0).uniform(0, 1, (8, 8, 3))
        _, cache = nn.forward_batch(model, x[None])
        grads = nn.backward_batch(model, cache, np.array([1.0]))
        zeroed = nn.from_parameters(
            grads.config, {name: np.zeros_like(g) for name, g in nn.parameters(grads).items()}
        )
        stepped = nn.sgd_step(model, zeroed, 0.5)
        assert np.array_equal(stepped.conv1.kernels, model.conv1.kernels)
        assert np.array_equal(stepped.dense1.weights, model.dense1.weights)

    def test_single_step_decreases_loss(self):
        # line-search property of exact gradients
        for alpha in (1e-3, 1e-4):
            model = nn.init_weights(TINY, seed=4)
            x = np.random.default_rng(6).uniform(0, 1, (8, 8, 3))
            p0, cache = nn.forward_batch(model, x[None])
            loss0 = nn.bce_loss(p0, 1.0)
            stepped = nn.sgd_step(model, nn.backward_batch(model, cache, np.array([1.0])), alpha)
            p1, _ = nn.forward_batch(stepped, x[None])
            assert nn.bce_loss(p1, 1.0) < loss0

    # the update splits each tensor's rows between two threads; 27 rows of
    # dense1 weights split unevenly
    @pytest.mark.parametrize(
        "config",
        [nn.ModelConfig(), nn.ModelConfig(input_size=12, conv_filters=(2, 3), hidden_units=5)],
        ids=["paper", "odd-flat-dim"],
    )
    def test_split_update_bytes_equal_whole_expression(self, config):
        model = nn.init_weights(config, seed=7)
        rng = np.random.default_rng(8)
        w = nn.parameters(model)
        g = {name: rng.normal(size=t.shape) for name, t in w.items()}
        new = nn.parameters(nn.sgd_step(model, nn.from_parameters(config, g), 0.01))
        for name, t in w.items():
            want = t - 0.01 * g[name]
            assert (new[name].shape, new[name].tobytes()) == (want.shape, want.tobytes()), name
            assert not np.shares_memory(new[name], t)
            assert not np.shares_memory(new[name], g[name])

    def test_step_is_pure(self):
        model = nn.init_weights(TINY, seed=6)
        x = np.random.default_rng(1).uniform(0, 1, (8, 8, 3))
        _, cache = nn.forward_batch(model, x[None])
        grads = nn.backward_batch(model, cache, np.array([1.0]))
        old, g = nn.parameters(model), nn.parameters(grads)
        old_copy = {k: v.copy() for k, v in old.items()}
        g_copy = {k: v.copy() for k, v in g.items()}
        new = nn.parameters(nn.sgd_step(model, grads, 0.1))
        for name in new:
            assert np.array_equal(old[name], old_copy[name])
            assert np.array_equal(g[name], g_copy[name])
            assert not np.shares_memory(new[name], old[name])
            assert not np.shares_memory(new[name], g[name])
            assert np.array_equal(new[name], old_copy[name] - 0.1 * g_copy[name])


class TestInitWeights:
    def test_deterministic(self):
        a = nn.init_weights(nn.ModelConfig(), seed=9)
        b = nn.init_weights(nn.ModelConfig(), seed=9)
        assert np.array_equal(a.conv1.kernels, b.conv1.kernels)
        assert np.array_equal(a.dense1.weights, b.dense1.weights)

    def test_conv1_glorot_bound(self):
        model = nn.init_weights(nn.ModelConfig(), seed=0)
        bound = math.sqrt(6.0 / (27 + 32 * 9))
        assert np.all(np.abs(model.conv1.kernels) <= bound)

    def test_biases_zero(self):
        model = nn.init_weights(nn.ModelConfig(), seed=0)
        assert np.all(model.conv1.bias == 0)
        assert np.all(model.conv2.bias == 0)
        assert np.all(model.dense1.bias == 0)
        assert np.all(model.dense_out.bias == 0)


class TestCheckpoint:
    def test_roundtrip_value_exact(self, tmp_path):
        model = nn.init_weights(TINY, seed=5)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(model, path, extra={"seed": 5, "note": "t"})
        loaded, extra = nn.load_checkpoint(path)
        assert extra == {"seed": 5, "note": "t"}
        assert loaded.config == model.config
        assert np.array_equal(loaded.conv1.kernels, model.conv1.kernels)
        assert np.array_equal(loaded.conv2.kernels, model.conv2.kernels)
        assert np.array_equal(loaded.dense1.weights, model.dense1.weights)
        assert np.array_equal(loaded.dense_out.bias, model.dense_out.bias)

    def test_truncated_file(self, tmp_path):
        model = nn.init_weights(TINY, seed=5)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(CorruptCheckpoint):
            nn.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CorruptCheckpoint):
            nn.load_checkpoint(path)

    def test_header_nested_past_recursion_limit(self, tmp_path):
        path = tmp_path / "model.ckpt"
        header = b"[" * 100_000
        path.write_bytes(nn._CKPT_MAGIC + struct.pack("<II", nn._CKPT_VERSION, len(header)) + header)
        with pytest.raises(CorruptCheckpoint):
            nn.load_checkpoint(path)

    def test_deterministic_bytes(self, tmp_path):
        model = nn.init_weights(TINY, seed=5)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nn.save_checkpoint(model, a, extra={"k": 1})
        nn.save_checkpoint(model, b, extra={"k": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(nn.init_weights(TINY, seed=5), path, extra={"k": 1})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CKPT_SHA256

    def test_parameters_in_checkpoint_order(self):
        model = nn.init_weights(TINY, seed=5)
        assert tuple(nn.parameters(model)) == PARAM_TENSORS
        count = sum(t.size for t in nn.parameters(model).values())
        assert count == (54 + 2) + (36 + 2) + (32 + 4) + (4 + 1)

    @pytest.mark.parametrize("edit", [
        # a one-element conv1 bias would broadcast silently if it loaded
        lambda cfg, params: params.update({"conv1.bias": params["conv1.bias"][:1]}),
        lambda cfg, params: cfg.update(input_size=8.0),
    ], ids=["short_bias", "float_input_size"])
    def test_header_disagreeing_with_config(self, tmp_path, edit):
        cfg = dataclasses.asdict(TINY)
        params = nn.parameters(nn.init_weights(TINY, seed=5))
        edit(cfg, params)
        header = json.dumps({
            "model_config": cfg,
            "extra": {},
            "tensors": [{"name": n, "shape": list(t.shape)} for n, t in params.items()],
        }).encode()
        path = tmp_path / "model.ckpt"
        path.write_bytes(
            nn._CKPT_MAGIC + struct.pack("<II", nn._CKPT_VERSION, len(header)) + header
            + b"".join(t.tobytes() for t in params.values())
        )
        with pytest.raises(CorruptCheckpoint):
            nn.load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(nn.init_weights(TINY, seed=5), path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(CorruptCheckpoint):
            nn.load_checkpoint(path)
