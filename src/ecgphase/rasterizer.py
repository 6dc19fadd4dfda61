"""Rendering of phase-space trajectories into 64x64 RGB images.

Trajectories are drawn as 1-pixel black polylines on a white background
(three identical channels keep the 64x64x3 input shape) together with the
Q-R chord, inside a viewport that holds every point, and a zoom/shear/flip
affine augmentation produces training variety. PPM P6 is the canonical
bit-exact interchange format.

The segments are drawn with Bresenham's algorithm, whose pixels depend only
on a segment's pixel delta. A table of every delta's pixel offsets, built
once per process on first use, gives each segment's pixels, and a record's
repeated segments (most of them, on a long record) are inked once.

The augmentation samples each image channel-major, as a (c, h*w) array, so
that each bilinear corner is one flat gather along the pixel axis.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import MalformedPPM, NonFinite
from .phase_space import QRChord, Trajectory

IMAGE_SIZE = 64
WHITE = 255
BLACK = 0
_MAX_DELTA = IMAGE_SIZE - 1  # the largest pixel step along an axis
_SPAN = 2 * _MAX_DELTA + 1  # pixel deltas per axis
_SEGMENT_CHUNK = 4096  # segments inked at a time, which bounds the temporaries

# a segment's uint32 sort key packs, from the top, its length (6 bits), the
# row of its delta in the offset table (14 bits) and its start pixel (12 bits)
_ROW_SHIFT = 12
_LENGTH_SHIFT = 26
_START_MASK = (1 << _ROW_SHIFT) - 1
_ROW_MASK = (1 << (_LENGTH_SHIFT - _ROW_SHIFT)) - 1

# magic, width, height, maxval, then the one whitespace byte before the payload
_PPM_HEADER = re.compile(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s")


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
    """Tight bounding box of the trajectory, expanded by margin >= 0 per side.

    A zero-extent axis (constant signal or constant derivative) is widened
    to +/- 0.5 units so the viewport stays valid, or by one unit in the last
    place where that is larger (|v| >= 2**52), since 0.5 would round away.
    Raises NonFinite when an axis's widened extent overflows a float.
    """
    pts = trajectory.points

    lims = []
    for axis in (0, 1):
        lo = float(pts[:, axis].min())
        hi = float(pts[:, axis].max())
        if hi == lo:
            with np.errstate(over="ignore"):  # inf at the largest float; checked below
                half = max(0.5, abs(float(np.spacing(lo))))
            lo, hi = lo - half, hi + half
        else:
            pad = margin * (hi - lo)
            lo, hi = lo - pad, hi + pad
        if not math.isfinite(hi - lo):
            raise NonFinite(f"record {trajectory.record_id!r} spans more than a float holds")
        lims.append((lo, hi))
    return Viewport(lims[0][0], lims[0][1], lims[1][0], lims[1][1])


def _to_pixels(points: np.ndarray, viewport: Viewport) -> tuple[np.ndarray, np.ndarray]:
    """Pixel columns and rows of (n, 2) data points.

    np.rint rounds half to even, as Python's round does. A point whose pixel
    falls outside the image (NaN included) raises ValueError. int16 holds
    every value the drawing derives from a pixel: flat indices below 4096,
    deltas within +/- 63 and offset-table rows below 127**2.
    """
    fx = (points[:, 0] - viewport.v_min) / (viewport.v_max - viewport.v_min)
    fy = (points[:, 1] - viewport.dv_min) / (viewport.dv_max - viewport.dv_min)
    x = np.rint(fx * (IMAGE_SIZE - 1))
    y = (IMAGE_SIZE - 1) - np.rint(fy * (IMAGE_SIZE - 1))  # larger dv drawn higher
    inside = (x >= 0) & (x < IMAGE_SIZE) & (y >= 0) & (y < IMAGE_SIZE)
    if not inside.all():
        raise ValueError(f"{np.count_nonzero(~inside)} points fall outside {viewport}")
    return x.astype(np.int16), y.astype(np.int16)


@functools.cache
def _segment_offsets() -> np.ndarray:
    """Flat-index offsets of the pixels Bresenham inks from (0, 0), per delta.

    Row (dy + _MAX_DELTA) * _SPAN + dx + _MAX_DELTA holds, for the segment to
    pixel (dx, dy), the offset y * IMAGE_SIZE + x of each pixel in drawing
    order, then the end pixel's again up to IMAGE_SIZE entries. Built on
    first use, by stepping every delta at once; 2 MB as int16.
    """
    d = np.arange(-_MAX_DELTA, _MAX_DELTA + 1)
    x1 = np.tile(d, _SPAN)
    y1 = np.repeat(d, _SPAN)
    dx = np.abs(x1)
    dy = -np.abs(y1)
    x = np.zeros_like(x1)
    y = np.zeros_like(y1)
    err = dx + dy
    table = np.empty((_SPAN * _SPAN, IMAGE_SIZE), dtype=np.int16)
    for k in range(IMAGE_SIZE):
        table[:, k] = y * IMAGE_SIZE + x
        live = (x != x1) | (y != y1)
        e2 = 2 * err
        go_x = live & (e2 >= dy)
        go_y = live & (e2 <= dx)
        err += dy * go_x + dx * go_y
        x += np.sign(x1) * go_x
        y += np.sign(y1) * go_y
    table.flags.writeable = False  # every caller shares the one table
    return table


def _draw_segments(x0, y0, x1, y1) -> np.ndarray:
    """Bresenham (1965) on every segment at once; both end points are inked.

    Returns the IMAGE_SIZE x IMAGE_SIZE mask of inked pixels. A segment's
    pixels are its start pixel's flat index y * IMAGE_SIZE + x plus the
    offsets of its delta in `_segment_offsets`, and depend on nothing else.
    So the segments are keyed by (length, delta row, start pixel), sorted,
    and each distinct key is inked once, _SEGMENT_CHUNK at a time. A chunk
    reads as many offsets as its longest segment has pixels.
    """
    dx = x1 - x0
    dy = y1 - y0
    length = np.maximum(np.abs(dx), np.abs(dy))
    row = (dy + _MAX_DELTA) * _SPAN + dx + _MAX_DELTA
    key = (
        length.astype(np.uint32) << _LENGTH_SHIFT
        | row.astype(np.uint32) << _ROW_SHIFT
        | (y0 * IMAGE_SIZE + x0).astype(np.uint32)
    )
    key.sort()  # np.unique would sort a copy or hash, and is slower here
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    offsets = _segment_offsets()
    ink = np.zeros(IMAGE_SIZE * IMAGE_SIZE, dtype=bool)
    for i in range(0, key.size, _SEGMENT_CHUNK):
        chunk = key[i : i + _SEGMENT_CHUNK]
        steps = int(chunk[-1] >> _LENGTH_SHIFT) + 1  # the longest segment sorts last
        row = chunk >> _ROW_SHIFT & _ROW_MASK
        ink[(chunk & _START_MASK)[:, None] + offsets[row, :steps]] = True
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
    x0, y0 = _to_pixels(start, viewport)
    # the end point as p0 + (p1 - p0), which may differ from p1 in the last bit
    x1, y1 = _to_pixels(start + (end - start), viewport)
    if chord is not None:
        q, r = np.array([chord.q_point]), np.array([chord.r_point])
        chord_pixels = (*_to_pixels(q, viewport), *_to_pixels(q + (r - q), viewport))
        x0, y0, x1, y1 = map(np.append, (x0, y0, x1, y1), chord_pixels)
    img = np.full((IMAGE_SIZE, IMAGE_SIZE, 3), WHITE, dtype=np.uint8)
    img[_draw_segments(x0, y0, x1, y1)] = BLACK
    return img


@functools.cache
def _centred_grid(h: int, w: int) -> np.ndarray:
    """Read-only (2, h, w) pixel coordinates relative to the image center,
    x then y; built once per image size."""
    ys, xs = np.mgrid[0:h, 0:w]
    rel = np.stack([xs - (w - 1) / 2.0, ys - (h - 1) / 2.0])
    rel.flags.writeable = False
    return rel


def apply_affine(image: np.ndarray, zoom: float, shear: float, flip: bool) -> np.ndarray:
    """Affine zoom/shear/flip about the image center with bilinear sampling.

    Source coordinates outside the image clamp to the nearest edge pixel.
    zoom must be positive; zoom = 1, shear = 0, flip = False is the exact
    identity.

    The image is sampled channel-major, as a (c, h*w) array, so each of the
    four corners is one flat gather along the pixel axis; every output value
    comes from the same float operations, in the same order, as sampling the
    (h, w, c) image at 2-D indices would give.
    """
    h, w, c = image.shape

    # forward map A = Flip . Shear_x . Zoom about the center; sample with A^-1,
    # inverted analytically so identity and pure flip stay exact
    tan_s = math.tan(shear)
    a = -zoom if flip else zoom
    b = -tan_s if flip else tan_s
    d = zoom
    inv = np.array([[1.0 / a, -b / (a * d)], [0.0, 1.0 / d]])

    src = np.tensordot(inv, _centred_grid(h, w), axes=1).reshape(2, h * w)
    sx = np.clip(src[0] + (w - 1) / 2.0, 0, w - 1)
    sy = np.clip(src[1] + (h - 1) / 2.0, 0, h - 1)

    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    wx = sx - x0
    wy = sy - y0
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w

    pix = image.transpose(2, 0, 1).reshape(c, h * w).astype(np.float64)
    top = pix.take(row0 + x0, axis=1) * (1 - wx) + pix.take(row0 + x1, axis=1) * wx
    bot = pix.take(row1 + x0, axis=1) * (1 - wx) + pix.take(row1 + x1, axis=1) * wx
    out = np.clip(np.rint(top * (1 - wy) + bot * wy), 0, 255).astype(np.uint8)
    return np.ascontiguousarray(out.reshape(c, h, w).transpose(1, 2, 0))


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
    header = _PPM_HEADER.match(data)
    if header is None:
        raise MalformedPPM(f"truncated or non-numeric header {data[:32]!r}")
    w, h, maxval = (int(f) for f in header.groups())
    if w <= 0 or h <= 0:
        raise MalformedPPM(f"bad dimensions {w}x{h}")
    if maxval != 255:
        raise MalformedPPM(f"unsupported maxval {maxval}")
    payload = data[header.end() : header.end() + w * h * 3]
    if len(payload) != w * h * 3:
        raise MalformedPPM(
            f"payload holds {len(payload)} bytes, expected {w * h * 3}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3).copy()
