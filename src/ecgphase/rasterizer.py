"""Rendering of phase-space trajectories into 64x64 RGB images.

Trajectories are drawn as 1-pixel black polylines on a white background
(three identical channels keep the 64x64x3 input shape), the Q-R chord is
overlaid last, and a zoom/shear/flip affine augmentation produces training
variety. PPM P6 is the canonical bit-exact interchange format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTrajectory, MalformedPPM
from .phase_space import QRChord, Trajectory

IMAGE_SIZE = 64
WHITE = 255
BLACK = 0


@dataclass(frozen=True)
class Viewport:
    """Data-space window mapped onto the pixel grid."""

    v_min: float
    v_max: float
    dv_min: float
    dv_max: float

    def __post_init__(self):
        if not (self.v_min < self.v_max and self.dv_min < self.dv_max):
            raise ValueError(f"degenerate viewport {self}")


@dataclass(frozen=True)
class AugmentParams:
    """Magnitudes for the stochastic affine augmentation."""

    zoom_range: float = 0.2
    shear_range: float = 0.2   # radians
    horizontal_flip: bool = True

    def __post_init__(self):
        if not 0 <= self.zoom_range < 1:
            raise ValueError(f"zoom_range {self.zoom_range} outside [0, 1)")
        if not 0 <= self.shear_range < math.pi / 2:
            raise ValueError(f"shear_range {self.shear_range} outside [0, pi/2)")


def fit_viewport(trajectory: Trajectory, margin: float = 0.05) -> Viewport:
    """Tight bounding box of the trajectory, expanded by margin per side.

    A zero-extent axis (constant signal or constant derivative) is widened
    to +/- 0.5 units so the viewport stays valid.
    """
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    pts = trajectory.points
    if pts.shape[0] == 0:
        raise EmptyTrajectory("cannot fit a viewport to an empty trajectory")

    lims = []
    for axis in (0, 1):
        lo = float(pts[:, axis].min())
        hi = float(pts[:, axis].max())
        if hi == lo:
            lo, hi = lo - 0.5, hi + 0.5
        else:
            pad = margin * (hi - lo)
            lo, hi = lo - pad, hi + pad
        lims.append((lo, hi))
    return Viewport(lims[0][0], lims[0][1], lims[1][0], lims[1][1])


def _to_pixel(v: float, dv: float, viewport: Viewport, size: int) -> tuple[int, int]:
    fx = (v - viewport.v_min) / (viewport.v_max - viewport.v_min)
    fy = (dv - viewport.dv_min) / (viewport.dv_max - viewport.dv_min)
    x = int(round(fx * (size - 1)))
    y = (size - 1) - int(round(fy * (size - 1)))  # larger dv drawn higher
    return x, y


def _clip_segment(p0, p1, viewport: Viewport):
    """Liang-Barsky clip of a data-space segment to the viewport box.

    Returns the clipped endpoints, or None when the segment lies outside.
    """
    x0, y0 = p0
    x1, y1 = p1
    dx = x1 - x0
    dy = y1 - y0
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, x0 - viewport.v_min),
        (dx, viewport.v_max - x0),
        (-dy, y0 - viewport.dv_min),
        (dy, viewport.dv_max - y0),
    ):
        if p == 0:
            if q < 0:
                return None  # parallel and outside
            continue
        t = q / p
        if p < 0:
            if t > t1:
                return None
            t0 = max(t0, t)
        else:
            if t < t0:
                return None
            t1 = min(t1, t)
    if t0 > t1:
        return None
    return (x0 + t0 * dx, y0 + t0 * dy), (x0 + t1 * dx, y0 + t1 * dy)


def _draw_line(img: np.ndarray, x0: int, y0: int, x1: int, y1: int) -> None:
    """Bresenham line; plots both endpoints."""
    dx = abs(x1 - x0)
    sx = 1 if x0 < x1 else -1
    dy = -abs(y1 - y0)
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        img[y0, x0, :] = BLACK
        if x0 == x1 and y0 == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def _draw_polyline(img: np.ndarray, points: np.ndarray, viewport: Viewport, size: int) -> None:
    if points.shape[0] == 1:
        clipped = _clip_segment(points[0], points[0], viewport)
        if clipped is not None:
            x, y = _to_pixel(*clipped[0], viewport, size)
            img[y, x, :] = BLACK
        return
    for i in range(points.shape[0] - 1):
        clipped = _clip_segment(points[i], points[i + 1], viewport)
        if clipped is None:
            continue
        x0, y0 = _to_pixel(*clipped[0], viewport, size)
        x1, y1 = _to_pixel(*clipped[1], viewport, size)
        _draw_line(img, x0, y0, x1, y1)


def rasterize(
    trajectory: Trajectory,
    chord: QRChord | None,
    viewport: Viewport,
    size: int = IMAGE_SIZE,
) -> np.ndarray:
    """Render the trajectory plus chord into a size x size x 3 uint8 image.

    White background, black 1-pixel Bresenham segments between consecutive
    points, chord drawn last; segments are clipped to the viewport.
    Deterministic for identical inputs.
    """
    img = np.full((size, size, 3), WHITE, dtype=np.uint8)
    _draw_polyline(img, trajectory.points, viewport, size)
    if chord is not None:
        q = np.asarray(chord.q_point, dtype=np.float64)
        r = np.asarray(chord.r_point, dtype=np.float64)
        _draw_polyline(img, np.vstack([q, r]), viewport, size)
    return img


def apply_affine(image: np.ndarray, zoom: float, shear: float, flip: bool) -> np.ndarray:
    """Affine zoom/shear/flip about the image center with bilinear sampling.

    Source coordinates outside the image clamp to the nearest edge pixel.
    zoom = 1, shear = 0, flip = False is the exact identity.
    """
    h, w = image.shape[:2]
    if zoom <= 0:
        raise ValueError(f"zoom must be positive, got {zoom}")

    # forward map A = Flip . Shear_x . Zoom about the center; sample with A^-1,
    # inverted analytically so identity and pure flip stay exact
    tan_s = math.tan(shear)
    a = -zoom if flip else zoom
    b = -tan_s if flip else tan_s
    d = zoom
    inv = np.array([[1.0 / a, -b / (a * d)], [0.0, 1.0 / d]])

    cx = (w - 1) / 2.0
    cy = (h - 1) / 2.0
    ys, xs = np.mgrid[0:h, 0:w]
    rel = np.stack([xs - cx, ys - cy])                    # (2, h, w)
    src = np.tensordot(inv, rel, axes=1)                  # (2, h, w)
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


def augment(image: np.ndarray, params: AugmentParams, rng: np.random.Generator) -> np.ndarray:
    """Randomly zoomed/sheared/flipped copy of the image.

    Draw order is fixed (zoom, shear, then the flip coin when enabled) so a
    given rng state always yields the same transform.
    """
    zoom = rng.uniform(1.0 - params.zoom_range, 1.0 + params.zoom_range)
    shear = rng.uniform(-params.shear_range, params.shear_range)
    flip = bool(params.horizontal_flip and rng.uniform() < 0.5)
    return apply_affine(image, zoom, shear, flip)


def write_ppm(image: np.ndarray) -> bytes:
    """Serialize to binary PPM (P6, maxval 255), row-major RGB."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError(f"expected uint8 HxWx3 image, got {img.dtype} {img.shape}")
    h, w = img.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode("ascii") + img.tobytes()


def read_ppm(data: bytes) -> np.ndarray:
    """Parse binary PPM bytes; inverse of :func:`write_ppm` bit-exactly."""
    if not data.startswith(b"P6"):
        raise MalformedPPM("bad magic, expected P6")
    # header = magic + width + height + maxval, whitespace separated
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise MalformedPPM("truncated header")
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise MalformedPPM(f"non-numeric header fields {fields}") from exc
    if w <= 0 or h <= 0:
        raise MalformedPPM(f"bad dimensions {w}x{h}")
    if maxval != 255:
        raise MalformedPPM(f"unsupported maxval {maxval}")
    payload = data[pos : pos + w * h * 3]
    if len(payload) != w * h * 3:
        raise MalformedPPM(
            f"payload holds {len(payload)} bytes, expected {w * h * 3}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3).copy()
