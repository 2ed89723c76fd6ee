"""Exception hierarchy.

Every public function raises a subclass of TransductError on malformed
input; ``transduct.core``'s coercions decide what is valid. Three families
map onto the CLI exit codes: configuration problems (exit 1), malformed
input data (exit 2) and numerical failures (exit 3).
"""


class TransductError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(TransductError):
    """Invalid configuration, arguments or option combinations."""


class DataError(TransductError):
    """Malformed or mutually inconsistent input data."""


class NumericalError(TransductError):
    """A computation hit a degenerate or non-finite state."""


# --- configuration ---

class OutOfRange(ConfigError):
    """An index or parameter lies outside its valid range."""


class InvalidSpec(ConfigError):
    """Synthetic dataset parameters are not realizable."""


# --- data ---

class EmptyInput(DataError):
    """An operation received zero samples."""


class LengthMismatch(DataError):
    """Two aligned vectors have different lengths."""


class ShapeMismatch(DataError):
    """Matrix shapes are incompatible for the requested operation."""


class InsufficientSamples(DataError):
    """Not enough samples for the requested neighborhood size."""


class ParseError(DataError):
    """A CSV file could not be parsed; carries file and line context."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class DuplicateId(DataError):
    """The same sample identifier appears more than once."""


class UnknownId(DataError):
    """A referenced sample identifier does not exist in the feature set."""


class DimensionMismatch(DataError):
    """A row has a different number of columns than the header declares."""


# --- numerics ---

class NonFinite(NumericalError):
    """An input or intermediate value is NaN or infinite."""
