"""Exception hierarchy shared across the library."""


class GenSyncError(Exception):
    """Base class for all library errors."""


class ConfigError(GenSyncError, ValueError):
    """Invalid builder setting, parameter record or benchmark configuration.

    For configuration scripts, ``line`` carries the 1-based line number.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParameterError(GenSyncError):
    """Infeasible workload or protocol parameters."""


class StateError(GenSyncError):
    """Operation requires state that does not exist yet."""


class TransportError(GenSyncError):
    """Channel failure: peer closed, timeout, or connection problem."""


class ProtocolError(GenSyncError):
    """Malformed frame or wire-format version mismatch."""


class InterpolationError(GenSyncError):
    """Rational interpolation could not produce a usable function."""


class NotSplittableError(GenSyncError):
    """Polynomial does not factor into distinct linear terms over the field."""


class BoundExceededError(GenSyncError):
    """Symmetric difference exceeds the configured CPI bound."""


class PeelError(GenSyncError):
    """IBLT peeling stalled before the table emptied."""


class IncompatibleSketchError(ProtocolError):
    """Sketches disagree on dimensions or hash seed and cannot be combined.

    A peer's sketch that does not match the local one is malformed input,
    so a session answers it like any other protocol error.
    """


class FilterFullError(GenSyncError):
    """Cuckoo filter insertion failed after exhausting displacement kicks."""
