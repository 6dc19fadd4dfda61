"""Rendering of phase-space trajectories into 64x64 RGB images.

Trajectories are drawn as 1-pixel black polylines on a white background
(three identical channels keep the 64x64x3 input shape) together with the
Q-R chord, inside a viewport that holds every point, and a zoom/shear/flip
affine augmentation produces training variety. PPM P6 is the canonical
bit-exact interchange format.
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


def _to_pixels(points: np.ndarray, viewport: Viewport) -> tuple[np.ndarray, np.ndarray]:
    """Pixel columns and rows of (n, 2) data points.

    np.rint rounds half to even, as Python's round does. A point whose pixel
    falls outside the image (NaN included) raises ValueError. int16 holds
    every value the drawing derives from a pixel: flat indices below 4096 and
    Bresenham errors within +/- 4 * IMAGE_SIZE.
    """
    fx = (points[:, 0] - viewport.v_min) / (viewport.v_max - viewport.v_min)
    fy = (points[:, 1] - viewport.dv_min) / (viewport.dv_max - viewport.dv_min)
    x = np.rint(fx * (IMAGE_SIZE - 1))
    y = (IMAGE_SIZE - 1) - np.rint(fy * (IMAGE_SIZE - 1))  # larger dv drawn higher
    inside = (x >= 0) & (x < IMAGE_SIZE) & (y >= 0) & (y < IMAGE_SIZE)
    if not inside.all():
        raise ValueError(f"{np.count_nonzero(~inside)} points fall outside {viewport}")
    return x.astype(np.int16), y.astype(np.int16)


def _draw_segments(x0, y0, x1, y1) -> np.ndarray:
    """Bresenham (1965) on every segment at once; both end points are inked.

    Returns the IMAGE_SIZE x IMAGE_SIZE mask of inked pixels. A pixel is
    tracked by its flat index y * IMAGE_SIZE + x. Each pass inks the current
    pixel of every segment, keeps only the segments that have not reached
    their end and steps those.
    """
    dx = np.abs(x1 - x0)
    dy = -np.abs(y1 - y0)
    step_x = np.sign(x1 - x0)  # an axis with no extent is never stepped
    step_y = np.sign(y1 - y0) * IMAGE_SIZE
    pos = y0 * IMAGE_SIZE + x0
    end = y1 * IMAGE_SIZE + x1
    err = dx + dy
    ink = np.zeros(IMAGE_SIZE * IMAGE_SIZE, dtype=bool)
    while pos.size:
        ink[pos] = True
        live = pos != end
        pos, end, dx, dy, step_x, step_y, err = (
            a[live] for a in (pos, end, dx, dy, step_x, step_y, err)
        )
        e2 = 2 * err
        go_x = e2 >= dy
        go_y = e2 <= dx
        err += dy * go_x + dx * go_y
        pos += step_x * go_x + step_y * go_y
    return ink.reshape(IMAGE_SIZE, IMAGE_SIZE)


def rasterize(trajectory: Trajectory, chord: QRChord | None, viewport: Viewport) -> np.ndarray:
    """Render the trajectory plus chord into a 64 x 64 x 3 uint8 image.

    White background, black 1-pixel Bresenham segments between consecutive
    points (a single point is one pixel) and the chord as one more segment.
    Every point must map inside the viewport, as it does for
    ``fit_viewport(trajectory, margin)``; a point outside raises ValueError.
    Deterministic for identical inputs.
    """
    pts = trajectory.points
    start, end = (pts, pts) if len(pts) == 1 else (pts[:-1], pts[1:])
    if chord is not None:
        start = np.vstack([start, chord.q_point])
        end = np.vstack([end, chord.r_point])
    x0, y0 = _to_pixels(start, viewport)
    # the end point as p0 + (p1 - p0), which may differ from p1 in the last bit
    x1, y1 = _to_pixels(start + (end - start), viewport)
    img = np.full((IMAGE_SIZE, IMAGE_SIZE, 3), WHITE, dtype=np.uint8)
    img[_draw_segments(x0, y0, x1, y1)] = BLACK
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
