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


class ChannelAbsent(EcgPhaseError):
    """Requested channel not present in the record; the record is excluded."""


class NonUniformSampling(EcgPhaseError, ValueError):
    """CSV time column is not uniformly spaced."""


class MalformedRow(EcgPhaseError, ValueError):
    """CSV row cannot be parsed as numbers."""


class NonFinite(EcgPhaseError, ValueError):
    """Signal samples or trajectory coordinates hold NaN or infinity, or a
    trajectory's extent overflows."""


class NoRecords(EcgPhaseError, ValueError):
    """Ingest or render produced no record."""


class MalformedCache(EcgPhaseError, ValueError):
    """Cached signal pair unreadable or unlike what ingest writes."""


# --- phase space ---

class TooShort(EcgPhaseError, ValueError):
    """Signal shorter than the derivative scheme minimum."""


# --- raster images ---

class MalformedPPM(EcgPhaseError, ValueError):
    """PPM bytes with bad magic, dimensions, maxval, or truncated payload."""


# --- neural network ---

class ShapeMismatch(EcgPhaseError, ValueError):
    """Image or image batch shaped other than the model's input."""


class CorruptCheckpoint(EcgPhaseError, ValueError):
    """Checkpoint file unreadable or inconsistent."""


# --- dataset / training ---

class MissingImage(EcgPhaseError):
    """Split references a record with no rendered image."""
