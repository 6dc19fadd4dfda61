"""Exception types raised across the package.

Every error is a subclass of :class:`EcgPhaseError` so callers (and the CLI)
can catch data problems with a single except clause.
"""


class EcgPhaseError(Exception):
    """Base class for all package errors."""


# --- record parsing / signal I/O ---

class MalformedHeader(EcgPhaseError, ValueError):
    """Header text does not follow the expected token layout."""


class UnsupportedFormat(EcgPhaseError, ValueError):
    """Signal format code other than 212."""


class TruncatedData(EcgPhaseError, ValueError):
    """Signal byte stream shorter than the header demands."""


class OutOfRange(EcgPhaseError, ValueError):
    """Sample value outside the signed 12-bit range."""


class ChannelAbsent(EcgPhaseError, KeyError):
    """Requested channel not present in the record; the record is excluded."""


class NonUniformSampling(EcgPhaseError, ValueError):
    """CSV time column is not uniformly spaced."""


class MalformedRow(EcgPhaseError, ValueError):
    """CSV row cannot be parsed as numbers."""


class NonFinite(EcgPhaseError, ValueError):
    """Signal samples or trajectory coordinates hold NaN or infinity."""


class NoRecords(EcgPhaseError, ValueError):
    """Ingest found nothing usable in the data directory."""


# --- phase space ---

class TooShort(EcgPhaseError, ValueError):
    """Signal shorter than the derivative scheme minimum."""


class EmptyTrajectory(EcgPhaseError, ValueError):
    """Trajectory with no points."""


class IndexOutOfRange(EcgPhaseError, IndexError):
    """Chord endpoint index beyond the trajectory length."""


# --- raster images ---

class MalformedPPM(EcgPhaseError, ValueError):
    """PPM bytes with bad magic, dimensions, maxval, or truncated payload."""


# --- neural network ---

class ShapeMismatch(EcgPhaseError, ValueError):
    """Tensor shape incompatible with the layer."""


class OddDimension(EcgPhaseError, ValueError):
    """Max-pool input with odd height or width."""


class MissingCache(EcgPhaseError, ValueError):
    """Backward pass called without a forward cache."""


class CorruptCheckpoint(EcgPhaseError, ValueError):
    """Checkpoint file unreadable or inconsistent."""


# --- dataset / training ---

class MissingImage(EcgPhaseError, KeyError):
    """Split references a record with no rendered image."""


class LabelMismatch(EcgPhaseError, KeyError):
    """Split references a record absent from the label table."""


class EmptyTrainSet(EcgPhaseError, ValueError):
    """Training requires at least one example."""


class EmptySet(EcgPhaseError, ValueError):
    """Evaluation requires at least one example."""


class IoFailure(EcgPhaseError, OSError):
    """Could not write an output file."""
