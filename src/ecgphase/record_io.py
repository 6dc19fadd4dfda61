"""MIT-BIH-style record ingestion.

Parses the text header and format-212 binary signal files of ambulatory ECG
records, selects a channel by name, converts raw ADU counts to millivolts,
and carries the fixed healthy/unhealthy label table. A synthetic ECG
generator stands in for the licensed database in tests and demo runs.
"""

from __future__ import annotations

import csv
import enum
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChannelAbsent,
    MalformedHeader,
    MalformedRow,
    NonFinite,
    NonUniformSampling,
    OutOfRange,
    TruncatedData,
    UnsupportedFormat,
)

SUPPORTED_FORMATS = frozenset({212})

# a CSV time step must exceed this for its inverse, the rate, to be finite
_MIN_STEP = 1.0 / np.finfo(np.float64).max

# header(5) ADC gain field: gain[(baseline)][/units]
_GAIN_FIELD = re.compile(r"([^(/]+)(?:\((.*)\))?(?:/.*)?")

# The 44 usable records by label and by side of the published split:
# 8 + 25 train, 3 + 8 test. 102/104 lack the MLII channel and 107/217 are
# paced, so all four are excluded from the table.
PUBLISHED_SPLIT = {
    "train_healthy": ("101", "113", "115", "117", "121", "122", "123", "230"),
    "train_unhealthy": (
        "106", "108", "109", "114", "116", "118", "119", "124", "201", "203",
        "205", "207", "208", "209", "214", "215", "219", "220", "221", "222",
        "223", "228", "231", "232", "233",
    ),
    "test_healthy": ("103", "112", "234"),
    "test_unhealthy": ("100", "105", "111", "200", "202", "210", "212", "213"),
}
EXCLUDED_RECORDS = ("102", "104", "107", "217")


class Label(enum.IntEnum):
    """Record-level class; unhealthy is the positive class."""

    HEALTHY = 0
    UNHEALTHY = 1


@dataclass(frozen=True)
class ChannelSpec:
    name: str
    format_code: int
    gain: float          # ADU per mV
    baseline: int        # ADU offset subtracted before gain division

    def __post_init__(self):
        if self.format_code not in SUPPORTED_FORMATS:
            raise UnsupportedFormat(f"signal format {self.format_code} not supported")
        if not 0 < self.gain < math.inf:
            raise MalformedHeader(f"gain must be finite and positive, got {self.gain}")


@dataclass(frozen=True)
class RecordHeader:
    record_id: str
    n_channels: int
    sampling_rate: float
    n_samples: int
    channels: tuple[ChannelSpec, ...]

    def __post_init__(self):
        if self.n_channels < 1 or not 0 < self.sampling_rate < math.inf or self.n_samples <= 0:
            raise MalformedHeader(
                f"bad header numbers for record {self.record_id!r}: "
                f"{self.n_channels} channels, {self.sampling_rate} Hz, "
                f"{self.n_samples} samples"
            )
        if len(self.channels) != self.n_channels:
            raise MalformedHeader(
                f"record {self.record_id!r} declares {self.n_channels} channels "
                f"but lists {len(self.channels)}"
            )


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled voltage series in millivolts."""

    record_id: str
    channel: str
    sampling_rate: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.sampling_rate <= 0:
            raise ValueError(f"sampling rate must be positive, got {self.sampling_rate}")
        if self.samples.size == 0:
            raise ValueError("signal has no samples")
        if not np.all(np.isfinite(self.samples)):
            raise NonFinite(f"record {self.record_id!r} contains non-finite samples")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def step(self) -> float:
        """Sampling step h in seconds."""
        return 1.0 / self.sampling_rate


def parse_header(text: str) -> RecordHeader:
    """Parse record header text.

    Layout (WFDB header(5)): first line
    ``record_id n_channels sampling_rate n_samples [base_time [base_date]]``,
    where the rate may carry a counter frequency (``360/10``), then one line
    per channel with tokens
    ``filename format gain adc_res adc_zero [extras...] channel_name``
    (the channel name is the last token). The gain may be written
    ``200``, ``200/mV`` or ``200(0)/mV``; the baseline is the parenthesized
    value when present and adc_zero otherwise. Base time and date, extra
    tokens between adc_zero and the name, and any header lines starting
    with ``#`` are ignored.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise MalformedHeader("empty header")

    first = lines[0].split()
    if not 4 <= len(first) <= 6:
        raise MalformedHeader(f"first line needs 4 to 6 tokens, got {len(first)}: {lines[0]!r}")
    record_id = first[0]
    try:
        n_channels = int(first[1])
        sampling_rate = float(first[2].split("/")[0])
        n_samples = int(first[3])
    except ValueError as exc:
        raise MalformedHeader(f"non-numeric field in first line: {lines[0]!r}") from exc

    channels = []
    for ln in lines[1 : 1 + n_channels]:
        tokens = ln.split()
        if len(tokens) < 6:
            raise MalformedHeader(f"channel line needs at least 6 tokens: {ln!r}")
        gain_field = _GAIN_FIELD.fullmatch(tokens[2])
        if gain_field is None:
            raise MalformedHeader(f"bad gain field in channel line: {ln!r}")
        try:
            format_code = int(tokens[1])
            gain = float(gain_field[1])
            baseline = int(tokens[4] if gain_field[2] is None else gain_field[2])
        except ValueError as exc:
            raise MalformedHeader(f"non-numeric field in channel line: {ln!r}") from exc
        channels.append(
            ChannelSpec(name=tokens[-1], format_code=format_code, gain=gain, baseline=baseline)
        )

    return RecordHeader(
        record_id=record_id,
        n_channels=n_channels,
        sampling_rate=sampling_rate,
        n_samples=n_samples,
        channels=tuple(channels),
    )


def decode_format212(data: bytes, n_samples: int, n_channels: int) -> np.ndarray:
    """Unpack format-212 bytes into an (n_samples, n_channels) int matrix.

    Each 3-byte group holds two 12-bit two's-complement samples:
    sample A = byte0 | (low nibble of byte1 << 8),
    sample B = byte2 | (high nibble of byte1 << 8).
    Samples are interleaved across channels.
    """
    total = n_samples * n_channels
    needed = (total * 3 + 1) // 2
    if len(data) < needed:
        raise TruncatedData(
            f"need {needed} bytes for {total} samples, got {len(data)}"
        )

    n_groups = (total + 1) // 2
    buf = bytes(data[: n_groups * 3])
    if len(buf) < n_groups * 3:
        # odd sample count without the final pad byte
        buf += b"\x00" * (n_groups * 3 - len(buf))
    raw = np.frombuffer(buf, dtype=np.uint8)
    b0 = raw[0::3].astype(np.int32)
    b1 = raw[1::3].astype(np.int32)
    b2 = raw[2::3].astype(np.int32)

    first = b0 | ((b1 & 0x0F) << 8)
    second = b2 | ((b1 & 0xF0) << 4)

    samples = np.empty(n_groups * 2, dtype=np.int32)
    samples[0::2] = first
    samples[1::2] = second
    samples = samples[:total]
    samples[samples >= 2048] -= 4096
    return samples.reshape(n_samples, n_channels)


def encode_format212(samples: np.ndarray) -> bytes:
    """Pack a matrix of signed 12-bit samples into format-212 bytes.

    Inverse of :func:`decode_format212`: the round trip is bit-exact.
    """
    flat = np.asarray(samples, dtype=np.int64).reshape(-1)
    if flat.size and (flat.min() < -2048 or flat.max() > 2047):
        bad = flat[(flat < -2048) | (flat > 2047)][0]
        raise OutOfRange(f"sample {bad} outside signed 12-bit range [-2048, 2047]")

    if flat.size % 2:
        flat = np.concatenate([flat, [0]])
    vals = np.where(flat < 0, flat + 4096, flat).astype(np.uint16)
    a = vals[0::2]
    b = vals[1::2]

    out = np.empty(a.size * 3, dtype=np.uint8)
    out[0::3] = a & 0xFF
    out[1::3] = ((b >> 8) << 4) | (a >> 8)
    out[2::3] = b & 0xFF
    return out.tobytes()


def to_millivolts(adu, gain: float, baseline: int):
    """Convert raw ADU counts to millivolts: (adu - baseline) / gain."""
    return (np.asarray(adu, dtype=np.float64) - baseline) / gain


def select_channel(header: RecordHeader, raw: np.ndarray, name: str) -> Signal:
    """Pick the named channel from a decoded ADU matrix and convert to mV.

    Raises ChannelAbsent when the record lacks the channel, which signals
    the record must be excluded (as with records 102 and 104 for MLII).
    """
    for idx, spec in enumerate(header.channels):
        if spec.name == name:
            mv = to_millivolts(raw[:, idx], spec.gain, spec.baseline)
            return Signal(
                record_id=header.record_id,
                channel=name,
                sampling_rate=header.sampling_rate,
                samples=mv,
            )
    present = [c.name for c in header.channels]
    raise ChannelAbsent(f"record {header.record_id!r} has channels {present}, not {name!r}")


def load_record(header_path, channel: str = "MLII") -> Signal:
    """Read `<record>.hea` and `<record>.dat` and return the named channel;
    the header must name `<record>`."""
    from pathlib import Path

    header_path = Path(header_path)
    try:
        text = header_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"{header_path.name} is not UTF-8 text: {exc.reason}") from exc
    header = parse_header(text)
    if header.record_id != header_path.stem:
        raise MalformedHeader(f"{header_path.name} names record {header.record_id!r}")
    raw = decode_format212(
        header_path.with_suffix(".dat").read_bytes(), header.n_samples, header.n_channels
    )
    return select_channel(header, raw, channel)


def quadrant_label(quadrant: str) -> Label:
    """The label of the records in a quadrant keyed like PUBLISHED_SPLIT:
    those of a `*_unhealthy` quadrant are unhealthy."""
    return Label.UNHEALTHY if quadrant.endswith("_unhealthy") else Label.HEALTHY


def load_labels() -> dict[str, Label]:
    """The fixed 44-record healthy/unhealthy table (11 + 33 entries), read
    off the quadrants of PUBLISHED_SPLIT."""
    return {rid: quadrant_label(quadrant) for quadrant, ids in PUBLISHED_SPLIT.items() for rid in ids}


# Beat template: five Gaussian bumps as (center, width, amplitude_mV), all
# times as fractions of the beat interval. Widths are narrow enough that no
# bump contributes more than ~1e-8 mV at the R center, so the noiseless peak
# equals the R amplitude.
ECG_BUMPS = (
    (0.200, 0.0250, 0.12),   # P
    (0.355, 0.0075, -0.15),  # Q
    (0.400, 0.0120, 1.20),   # R
    (0.445, 0.0075, -0.25),  # S
    (0.650, 0.0400, 0.35),   # T
)
R_PHASE = 0.400


def _beat_voltage(phase: np.ndarray, period_s: float, bumps=ECG_BUMPS) -> np.ndarray:
    """Evaluate the bump template at phases in [0, period) seconds."""
    v = np.zeros_like(phase)
    t = np.empty_like(phase)
    for center, width, amp in bumps:
        # amp * exp(-0.5 * ((phase - c) / s) ** 2), step by step in one buffer
        np.subtract(phase, center * period_s, out=t)
        t /= width * period_s
        np.square(t, out=t)
        t *= -0.5
        np.exp(t, out=t)
        t *= amp
        v += t
    return v


def synth_ecg(
    duration: float,
    sampling_rate: float,
    heart_rate: float = 60.0,
    noise_amp: float = 0.0,
    seed: int = 0,
    record_id: str | None = None,
) -> Signal:
    """Deterministic synthetic ECG: periodic PQRST beats plus uniform noise.

    With noise_amp = 0 the output is exactly periodic whenever the beat
    interval is an integer number of samples.
    """
    if duration <= 0 or sampling_rate <= 0:
        raise ValueError("duration and sampling_rate must be positive")
    if not 20 <= heart_rate <= 240:
        raise ValueError(f"heart_rate {heart_rate} outside [20, 240] bpm")

    n = int(round(duration * sampling_rate))
    period_s = 60.0 / heart_rate
    period_samples = sampling_rate * period_s
    if abs(period_samples - round(period_samples)) < 1e-9:
        # integer modulo keeps cycles bit-identical
        phase = (np.arange(n) % int(round(period_samples))) / sampling_rate
    else:
        phase = np.mod(np.arange(n) / sampling_rate, period_s)

    samples = _beat_voltage(phase, period_s)
    if noise_amp > 0:
        rng = np.random.default_rng(seed)
        samples += rng.uniform(-noise_amp, noise_amp, size=n)

    return Signal(
        record_id=record_id if record_id is not None else f"synth{seed}",
        channel="MLII",
        sampling_rate=sampling_rate,
        samples=samples,
    )


def synth_ecg_irregular(
    duration: float,
    sampling_rate: float,
    heart_rate: float = 60.0,
    rr_jitter: float = 0.3,
    amp_jitter: float = 0.4,
    ectopic_prob: float = 0.35,
    noise_amp: float = 0.02,
    seed: int = 0,
    record_id: str | None = None,
) -> Signal:
    """Synthetic arrhythmic ECG: beat-to-beat interval and amplitude jitter.

    Each beat draws its own interval (uniform within +/- rr_jitter of the
    nominal), its own R amplitude scale, and with probability ectopic_prob
    becomes a wide low ectopic-like beat. Deterministic per seed.
    """
    if duration <= 0 or sampling_rate <= 0:
        raise ValueError("duration and sampling_rate must be positive")
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
            # wide, blunted QRS with inverted T
            bumps = [(c, w * 2.5, a * (0.55 if a > 0.5 else 1.0)) for c, w, a in bumps]
            bumps[-1] = (bumps[-1][0], bumps[-1][1], -bumps[-1][2])
        lo, hi = np.searchsorted(t, (start, start + period))
        samples[lo:hi] += _beat_voltage(t[lo:hi] - start, period, bumps)
        start += period

    if noise_amp > 0:
        samples += rng.uniform(-noise_amp, noise_amp, size=n)

    return Signal(
        record_id=record_id if record_id is not None else f"synth{seed}",
        channel="MLII",
        sampling_rate=sampling_rate,
        samples=samples,
    )


def _csv_rows(fh, path):
    """csv.reader's rows of an open file; a byte that is not UTF-8 raises MalformedRow."""
    try:
        yield from csv.reader(fh)
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{path.name} is not UTF-8 text: {exc.reason}") from exc


def load_csv(path, sampling_rate: float | None = None, channel: str = "csv") -> Signal:
    """Read a signal from CSV.

    Two columns are treated as ``time_s,voltage_mV`` with the rate inferred
    from the time column (which must be uniform to 1e-6 relative tolerance);
    one column is plain mV values and needs sampling_rate. A non-numeric
    first row is taken as a header and skipped.
    """
    from pathlib import Path

    path = Path(path)
    times: list[float] = []
    volts: list[float] = []
    n_cols = None
    with open(path, newline="", encoding="utf-8") as fh:
        for i, row in enumerate(_csv_rows(fh, path)):
            row = [tok.strip() for tok in row if tok.strip() != ""]
            if not row:
                continue
            if n_cols is None:
                try:
                    float(row[0])
                except ValueError:
                    continue  # header row
                n_cols = len(row)
                if n_cols not in (1, 2):
                    raise MalformedRow(f"{path.name} line {i + 1}: expected 1 or 2 columns")
            if len(row) != n_cols:
                raise MalformedRow(f"{path.name} line {i + 1}: inconsistent column count")
            try:
                values = [float(tok) for tok in row]
            except ValueError as exc:
                raise MalformedRow(f"{path.name} line {i + 1}: {row!r}") from exc
            if n_cols == 2:
                times.append(values[0])
                volts.append(values[1])
            else:
                volts.append(values[0])

    if not volts:
        raise MalformedRow(f"{path.name}: no data rows")

    if n_cols == 2:
        if len(times) < 2:
            raise MalformedRow(f"{path.name}: need at least 2 rows to infer the rate")
        # a difference that overflows is infinite, which the check rejects
        with np.errstate(over="ignore"):
            steps = np.diff(np.asarray(times))
            h = steps[0]
            if not (np.all(np.isfinite(steps)) and h > _MIN_STEP) or np.any(np.abs(steps - h) > 1e-6 * h):
                raise NonUniformSampling(f"{path.name}: time steps are not uniform or too small to invert")
        rate = 1.0 / h
    else:
        if sampling_rate is None or sampling_rate <= 0:
            raise MalformedRow(
                f"{path.name}: single-column CSV needs an explicit positive sampling rate"
            )
        rate = float(sampling_rate)

    return Signal(
        record_id=path.stem,
        channel=channel,
        sampling_rate=rate,
        samples=np.asarray(volts),
    )
