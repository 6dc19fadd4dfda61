"""Independent brute-force oracles the fast implementations are checked against.

Everything here is written as plainly as possible (explicit loops, no shared
code with the package) so a bug in the vectorized paths cannot hide.
"""

import dataclasses

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

    A single point is one zero-length segment, and each segment ends at
    p0 + 1.0 * (p1 - p0), as the vectorized rasterizer computes it.
    """
    img = np.full((64, 64, 3), 255, dtype=np.uint8)
    pts = [tuple(p) for p in trajectory.points]
    segments = [(pts[0], pts[0])] if len(pts) == 1 else list(zip(pts[:-1], pts[1:]))
    if chord is not None:
        segments.append((chord.q_point, chord.r_point))
    for (v0, dv0), (v1, dv1) in segments:
        x0, y0 = pixel_of(v0, dv0, viewport)
        x1, y1 = pixel_of(v0 + 1.0 * (v1 - v0), dv0 + 1.0 * (dv1 - dv0), viewport)
        draw_line(img, x0, y0, x1, y1)
    return img
