"""Exception types shared across the package, and the one conversion of
untyped (JSON) values that reports a bad value as a ValidationError."""


class QelmLabError(Exception):
    """Base class for every error raised by qelm_lab."""


class InvalidTarget(QelmLabError):
    """Gate target index out of range, repeated, or unknown qubit."""


class ArityMismatch(QelmLabError):
    """Gate has the wrong number of targets or parameters."""


class ScaleOutOfRange(QelmLabError):
    """Noise-scaling factor below 1."""


class CapExceeded(QelmLabError):
    """Circuit exceeds the backend qubit cap."""


class IncompatibleProfile(QelmLabError):
    """Noise profile covers fewer qubits than the circuit uses."""


class ParseError(QelmLabError):
    """Malformed input file."""


class ValidationError(QelmLabError):
    """A value violates a documented invariant."""


class DimensionMismatch(QelmLabError):
    """Input vector length does not match the expected dimension."""


class InsufficientPoints(QelmLabError):
    """Too few points for the requested extrapolation."""


class NotTrained(QelmLabError):
    """Model used before it was trained."""


class CorpusTooSmall(QelmLabError):
    """Calibration corpus is below the minimum size."""


class InsufficientSamples(QelmLabError):
    """Too few samples to form an empirical quantile."""


class InsufficientMembers(QelmLabError):
    """Bootstrap or ensemble size below 2."""


class LengthMismatch(QelmLabError):
    """Paired sequences differ in length."""


class InvalidInterval(QelmLabError):
    """Interval lower bound exceeds upper bound."""


class TooFewSamples(QelmLabError):
    """Statistical test needs at least 3 values per group."""


class EmptyInput(QelmLabError):
    """Empty sequence where values are required."""


class UsageError(QelmLabError):
    """Bad command-line arguments or run configuration."""


def coerce(path: str, value, to, expected: str):
    """``to(value)``; a value ``to`` cannot convert raises a ValidationError
    that names ``path``, the key the value was read from."""
    try:
        return to(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{path}: expected {expected}, got {value!r}") from None
