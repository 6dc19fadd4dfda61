"""Phase-space embedding of ECG signals.

The first derivative is estimated with a forward finite-difference scheme
(third-order by default), each sample is paired with its derivative to form
the (v, dv/dt) trajectory, and a single chord is drawn from the Q-wave dip
to the record's highest R peak as an extra geometric feature.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFinite, TooShort
from .record_io import Signal


class DerivativeScheme(enum.Enum):
    FIRST_ORDER_FORWARD = "first_order_forward"
    THIRD_ORDER_FORWARD = "third_order_forward"

    @property
    def min_samples(self) -> int:
        return 2 if self is DerivativeScheme.FIRST_ORDER_FORWARD else 4


@dataclass(frozen=True)
class Trajectory:
    """Ordered (v mV, dv mV/s) points: a non-empty (n, 2) float array, as `embed` builds it."""

    record_id: str
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if not np.all(np.isfinite(pts)):
            raise NonFinite(f"record {self.record_id!r} has non-finite coordinates")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def v(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def dv(self) -> np.ndarray:
        return self.points[:, 1]


@dataclass(frozen=True)
class QRChord:
    """Straight line from the Q-wave point to the highest R-wave point."""

    q_point: tuple[float, float]
    r_point: tuple[float, float]
    q_index: int
    r_index: int


def derivative(
    signal: Signal,
    scheme: DerivativeScheme = DerivativeScheme.THIRD_ORDER_FORWARD,
) -> np.ndarray:
    """First derivative of the signal in mV/s.

    Third-order forward scheme:
        f'_i = (-11 f_i + 18 f_{i+1} - 9 f_{i+2} + 2 f_{i+3}) / (6 h),
    exact for polynomials up to degree 3. First-order forward scheme:
        f'_i = (f_{i+1} - f_i) / h.
    Finite samples whose derivative overflows give inf or NaN there, without
    a numpy warning; `embed`'s Trajectory raises NonFinite on them.
    """
    f = signal.samples
    n = f.size
    if n < scheme.min_samples:
        raise TooShort(
            f"record {signal.record_id!r}: {n} samples, scheme needs "
            f">= {scheme.min_samples}"
        )
    h = signal.step
    with np.errstate(over="ignore", invalid="ignore"):
        if scheme is DerivativeScheme.FIRST_ORDER_FORWARD:
            return (f[1:] - f[:-1]) / h
        return (-11.0 * f[:-3] + 18.0 * f[1:-2] - 9.0 * f[2:-1] + 2.0 * f[3:]) / (6.0 * h)


def embed(
    signal: Signal,
    scheme: DerivativeScheme = DerivativeScheme.THIRD_ORDER_FORWARD,
) -> Trajectory:
    """Pair each sample with its derivative: points[i] = (f_i, f'_i)."""
    dv = derivative(signal, scheme)
    v = signal.samples[: dv.size]
    return Trajectory(record_id=signal.record_id, points=np.column_stack([v, dv]))


def detect_r_peak(signal: Signal) -> int:
    """Index of the record's global maximum (ties go to the smallest index)."""
    return int(np.argmax(signal.samples))


def detect_q_point(signal: Signal, r_index: int, window_ms: float = 50.0) -> int:
    """Index of the minimum sample in the window just before the R peak.

    The window is [r_index - w, r_index) with w = round(window_ms/1000 * fs),
    clamped to at least one sample and to the start of the record. An R peak
    at index 0 degenerates to 0. Needs 0 <= r_index < len(signal).
    """
    if r_index == 0:
        return 0
    # clamped before int(), where it may overflow; a longer window reads from 0 too
    w = max(1, int(round(min(window_ms / 1000.0 * signal.sampling_rate, r_index))))
    lo = max(0, r_index - w)
    return lo + int(np.argmin(signal.samples[lo:r_index]))


def qr_chord(trajectory: Trajectory, q_index: int, r_index: int) -> QRChord:
    """Chord between two trajectory points, Q first; both indices in
    [0, len(trajectory))."""
    return QRChord(
        q_point=tuple(trajectory.points[q_index]),
        r_point=tuple(trajectory.points[r_index]),
        q_index=q_index,
        r_index=r_index,
    )


def chord_for_signal(
    signal: Signal,
    trajectory: Trajectory,
    window_ms: float = 50.0,
) -> QRChord:
    """Locate the R peak and its Q dip on the signal and chord the trajectory.

    Indices landing in the derivative-free tail of the signal (where the
    trajectory has no point) are clamped to the last trajectory point.
    """
    last = len(trajectory) - 1
    r_idx = min(detect_r_peak(signal), last)
    q_idx = min(detect_q_point(signal, r_idx, window_ms), last)
    return qr_chord(trajectory, q_idx, r_idx)

