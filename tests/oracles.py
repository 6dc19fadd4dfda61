"""Independent brute-force oracles the fast implementations are checked against.

Everything here is written as plainly as possible (explicit loops, no shared
code with the package) so a bug in the vectorized paths cannot hide.
"""

import dataclasses
import math

import numpy as np

from ecgphase import neuralnet as nn


def conv2d_naive(x, kernels, bias):
    """Quadruple-loop same-padded stride-1 convolution of one (h, w, c) image."""
    h, w, c_in = x.shape
    k = kernels.shape[0]
    c_out = kernels.shape[3]
    p = (k - 1) // 2
    out = np.zeros((h, w, c_out))
    for y in range(h):
        for xx in range(w):
            for o in range(c_out):
                acc = bias[o]
                for dy in range(k):
                    for dx in range(k):
                        sy, sx = y + dy - p, xx + dx - p
                        if 0 <= sy < h and 0 <= sx < w:
                            for i in range(c_in):
                                acc += x[sy, sx, i] * kernels[dy, dx, i, o]
                out[y, xx, o] = acc
    return out


def im2col_loop(padded, k):
    """Patch matrix of a zero-padded (n, hp, wp, c) batch, one slice copy per
    kernel offset: (n, h, w, k*k*c) in dy/dx/c order."""
    n, hp, wp, c = padded.shape
    h, w = hp - k + 1, wp - k + 1
    cols = np.empty((n, h, w, k * k, c), dtype=padded.dtype)
    i = 0
    for dy in range(k):
        for dx in range(k):
            cols[:, :, :, i, :] = padded[:, dy : dy + h, dx : dx + w, :]
            i += 1
    return cols.reshape(n, h, w, k * k * c)


def maxpool_naive(x):
    """Explicit 2x2 windows; argmax recorded by first row-major occurrence."""
    h, w, c = x.shape
    out = np.zeros((h // 2, w // 2, c))
    arg = np.zeros((h // 2, w // 2, c), dtype=int)
    for y in range(h // 2):
        for xx in range(w // 2):
            for ch in range(c):
                best = None
                best_i = 0
                for i, (dy, dx) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
                    v = x[2 * y + dy, 2 * xx + dx, ch]
                    if best is None or v > best:
                        best = v
                        best_i = i
                out[y, xx, ch] = best
                arg[y, xx, ch] = best_i
    return out, arg


def dense_naive(x, weights, bias):
    """Explicit dot product of one input vector."""
    n_out = weights.shape[1]
    out = np.zeros(n_out)
    for j in range(n_out):
        acc = bias[j]
        for i in range(x.shape[0]):
            acc += x[i] * weights[i, j]
        out[j] = acc
    return out


# written out here, not taken from the package, so a tensor missing from
# nn.parameters cannot drop out of the finite-difference check
PARAM_TENSORS = (
    "conv1.kernels", "conv1.bias",
    "conv2.kernels", "conv2.bias",
    "dense1.weights", "dense1.bias",
    "dense_out.weights", "dense_out.bias",
)


def numeric_gradients(model, x, y, eps=1e-4):
    """Central finite differences of the single-example loss, per parameter."""
    out = {}
    for name in PARAM_TENSORS:
        layer_name, part = name.split(".")
        layer = getattr(model, layer_name)
        tensor = getattr(layer, part)
        grad = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = tensor.copy()
            plus[idx] += eps
            minus = tensor.copy()
            minus[idx] -= eps
            m_plus = dataclasses.replace(
                model, **{layer_name: dataclasses.replace(layer, **{part: plus})}
            )
            m_minus = dataclasses.replace(
                model, **{layer_name: dataclasses.replace(layer, **{part: minus})}
            )
            p_plus, _ = nn.forward_batch(m_plus, x[None])
            p_minus, _ = nn.forward_batch(m_minus, x[None])
            grad[idx] = (nn.bce_loss(p_plus, y) - nn.bce_loss(p_minus, y)) / (2 * eps)
        out[name] = grad
    return out


def max_gradient_error(model, x, y, eps=1e-4):
    """Worst relative disagreement between backprop and finite differences."""
    _, cache = nn.forward_batch(model, x[None])
    analytic = nn.parameters(nn.backward_batch(model, cache, np.array([y])))
    numeric = numeric_gradients(model, x, y, eps)
    worst = 0.0
    for name in PARAM_TENSORS:
        a = analytic[name]
        rel = np.abs(a - numeric[name]) / np.maximum(1.0, np.abs(a))
        worst = max(worst, float(rel.max()))
    return worst


def _unpool(dout, arg):
    """Scatter a 2x2 max pool's output gradient to its argmax corners."""
    n, h, w, c = arg.shape
    dx = np.empty((n, 2 * h, 2 * w, c))
    for q, (row, col) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        np.multiply(dout, arg == q, out=dx[:, row::2, col::2, :])
    return dx


def _conv_grads(x, kernels, dout):
    """(input, kernel, bias) gradients of a same-padded conv of the batch x.

    The input gradient's product takes the transposed kernel matrix as a
    C-contiguous copy, as `nn._conv_input_grad` does: off the paper's shapes
    OpenBLAS can sum a transposed view's product in another order, so the
    two layouts may differ in last bits.
    """
    k, _, c_in, c_out = kernels.shape
    n, h, w, _ = x.shape
    p = (k - 1) // 2
    dout2 = dout.reshape(-1, c_out)
    cols = im2col_loop(np.pad(x, ((0, 0), (p, p), (p, p), (0, 0))), k).reshape(-1, k * k * c_in)
    dkernels = (cols.T @ dout2).reshape(kernels.shape)
    dcols = (dout @ np.ascontiguousarray(kernels.reshape(-1, c_out).T)).reshape(n, h, w, k * k, c_in)
    dpadded = np.zeros((n, h + 2 * p, w + 2 * p, c_in))
    for i, (dy, dx) in enumerate(np.ndindex(k, k)):
        dpadded[:, dy : dy + h, dx : dx + w, :] += dcols[:, :, :, i, :]
    return dpadded[:, p : p + h, p : p + w, :], dkernels, dout2.sum(axis=0)


def whole_batch_chain(model, x, labels):
    """Forward and backward of the whole batch, one layer op at a time.

    Returns (prob, cache fields by name, gradients by parameter name). Every
    operation sees the whole batch, so `nn.forward_batch` and
    `nn.backward_batch`, which split the conv layers' batch in two, must
    match it bit for bit.
    """
    p1, arg1 = nn.maxpool_forward(nn.relu(nn.conv2d_forward(x, model.conv1)))
    p2, arg2 = nn.maxpool_forward(nn.relu(nn.conv2d_forward(p1, model.conv2)))
    flat = nn.flatten(p2)
    ad = nn.relu(nn.dense_forward(flat, model.dense1))
    prob = nn.sigmoid(nn.dense_forward(ad, model.dense_out)[:, 0])
    cache = {"x": x, "pool1_arg": arg1, "p1": p1, "pool2_arg": arg2, "flat": flat, "ad": ad, "prob": prob}

    dlogit = ((prob - labels) / labels.size)[:, None]
    dzd = (dlogit @ model.dense_out.weights.T) * (ad > 0)
    dflat = dzd @ model.dense1.weights.T
    dz2 = _unpool((dflat * (flat > 0)).reshape(arg2.shape), arg2)
    dp1, dk2, dbc2 = _conv_grads(p1, model.conv2.kernels, dz2)
    dz1 = _unpool(dp1 * (p1 > 0), arg1)
    _, dk1, dbc1 = _conv_grads(x, model.conv1.kernels, dz1)
    grads = {
        "conv1.kernels": dk1, "conv1.bias": dbc1,
        "conv2.kernels": dk2, "conv2.bias": dbc2,
        "dense1.weights": flat.T @ dzd, "dense1.bias": dzd.sum(axis=0),
        "dense_out.weights": ad.T @ dlogit, "dense_out.bias": dlogit.sum(axis=0),
    }
    return prob, cache, grads


def pixel_of(v, dv, viewport):
    """One data point's pixel (column, row) in a 64x64 image; Python's
    round() is half to even."""
    fx = (v - viewport.v_min) / (viewport.v_max - viewport.v_min)
    fy = (dv - viewport.dv_min) / (viewport.dv_max - viewport.dv_min)
    return int(round(fx * 63)), 63 - int(round(fy * 63))


def draw_line(img, x0, y0, x1, y1):
    """Scalar Bresenham line; plots both end points."""
    dx = abs(x1 - x0)
    sx = 1 if x0 < x1 else -1
    dy = -abs(y1 - y0)
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        img[y0, x0, :] = 0
        if x0 == x1 and y0 == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def rasterize_loop(trajectory, chord, viewport):
    """Trajectory and chord drawn one segment at a time on a white 64x64 image.

    A single point is one zero-length segment, and each segment runs from
    its start point's pixel to its end point's.
    """
    img = np.full((64, 64, 3), 255, dtype=np.uint8)
    pts = [tuple(p) for p in trajectory.points]
    segments = [(pts[0], pts[0])] if len(pts) == 1 else list(zip(pts[:-1], pts[1:]))
    if chord is not None:
        segments.append((chord.q_point, chord.r_point))
    for (v0, dv0), (v1, dv1) in segments:
        x0, y0 = pixel_of(v0, dv0, viewport)
        x1, y1 = pixel_of(v1, dv1, viewport)
        draw_line(img, x0, y0, x1, y1)
    return img


def apply_affine_gather(image, zoom, shear, flip):
    """Bilinear zoom/shear/flip of an (h, w, c) image, each corner gathered
    with 2-D fancy indexing of the (h, w, c) float image; the same sampling
    arithmetic as `rasterizer.apply_affine`."""
    h, w = image.shape[:2]
    tan_s = math.tan(shear)
    a = -zoom if flip else zoom
    b = -tan_s if flip else tan_s
    d = zoom
    inv = np.array([[1.0 / a, -b / (a * d)], [0.0, 1.0 / d]])

    cx = (w - 1) / 2.0
    cy = (h - 1) / 2.0
    ys, xs = np.mgrid[0:h, 0:w]
    rel = np.stack([xs - cx, ys - cy])
    src = np.tensordot(inv, rel, axes=1)
    sx = np.clip(src[0] + cx, 0, w - 1)
    sy = np.clip(src[1] + cy, 0, h - 1)

    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    wx = (sx - x0)[..., None]
    wy = (sy - y0)[..., None]

    pix = image.astype(np.float64)
    top = pix[y0, x0] * (1 - wx) + pix[y0, x1] * wx
    bot = pix[y1, x0] * (1 - wx) + pix[y1, x1] * wx
    out = top * (1 - wy) + bot * wy
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def synth_irregular_mask(
    duration, sampling_rate, heart_rate=60.0, rr_jitter=0.3, amp_jitter=0.4,
    ectopic_prob=0.35, noise_amp=0.02, seed=0,
):
    """`record_io.synth_ecg_irregular`'s samples, each beat placed with a
    full-length boolean mask over the time axis instead of a sorted slice.

    The beat shape is the package's own `_beat_voltage`; only the choice of
    samples that each beat covers is checked.
    """
    from ecgphase.record_io import ECG_BUMPS, _beat_voltage

    rng = np.random.default_rng(seed)
    n = int(round(duration * sampling_rate))
    t = np.arange(n) / sampling_rate
    samples = np.zeros(n)
    nominal = 60.0 / heart_rate
    start = 0.0
    while start < duration:
        period = nominal * rng.uniform(1.0 - rr_jitter, 1.0 + rr_jitter)
        scale = rng.uniform(1.0 - amp_jitter, 1.0 + amp_jitter)
        bumps = [(c, w, a * scale) for c, w, a in ECG_BUMPS]
        if rng.uniform() < ectopic_prob:
            bumps = [(c, w * 2.5, a * (0.55 if a > 0.5 else 1.0)) for c, w, a in bumps]
            bumps[-1] = (bumps[-1][0], bumps[-1][1], -bumps[-1][2])
        in_beat = (t >= start) & (t < start + period)
        samples[in_beat] += _beat_voltage(t[in_beat] - start, period, bumps)
        start += period
    if noise_amp > 0:
        samples = samples + rng.uniform(-noise_amp, noise_amp, size=n)
    return samples
