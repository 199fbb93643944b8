"""Exception hierarchy with stable machine-readable categories.

Every error raised by this package derives from SpikeDepthError and carries a
`category` used by the CLI as the error prefix (CONFIG, DATA, NUMERIC, IO).
The CLI reports `OSError` and `MemoryError` (out of memory) as IO too.
"""


class SpikeDepthError(Exception):
    """Base class for all package errors."""

    category = "NUMERIC"


class ConfigError(SpikeDepthError):
    """Bad configuration value, unknown key, or inconsistent settings."""

    category = "CONFIG"


class DimensionError(ConfigError):
    """Shape, arity, or size constraint violated."""


class DataError(SpikeDepthError):
    """Dataset-level problem: missing files, incompatible samples."""

    category = "DATA"


class EmptyMaskError(DataError):
    """No valid pixels (or no samples) to reduce over."""


class FormatError(SpikeDepthError):
    """Malformed binary file: bad magic, version, or payload length."""

    category = "IO"


class NumericError(SpikeDepthError):
    """Non-finite values or numerically invalid operations."""

    category = "NUMERIC"


class StaleTapeError(NumericError):
    """Backward requested on a tape that was already consumed (or is empty)."""


class ContractError(NumericError):
    """An internal value contract was violated (e.g. non-binary spike input)."""
