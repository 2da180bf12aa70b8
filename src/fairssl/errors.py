"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: ConfigError -> 2, DataError (and
subclasses) -> 3, NumericError -> 4.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PipelineError):
    """Invalid configuration value, unknown key, or unresolvable path."""


class DataError(PipelineError):
    """Input data violates a contract (bad values, collisions, missing fields)."""


class FormatError(DataError):
    """File does not match the expected binary or text layout."""


class FileSizeError(FormatError):
    """Payload is shorter or longer than the header declares."""


class DegenerateInputError(DataError):
    """Mathematically degenerate input, e.g. a zero vector where a direction is required."""


class DegenerateBatchError(DataError):
    """A contrastive batch of fewer than two samples: no anchor has a negative."""


class SelectionError(DataError):
    """A sampling request cannot be satisfied by the available candidates."""


class NumericError(PipelineError):
    """Non-finite values or numeric breakdown during computation."""
