"""Exception types shared across the package.

The CLI maps these onto exit codes: config errors are usage problems (2),
data and format errors are input problems (3), training errors are runtime
failures (4).
"""


class CalibensError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(CalibensError):
    """Array shapes do not conform; the message names both shapes."""


class ConfigError(CalibensError):
    """A configuration value is outside its legal range."""


class DataError(CalibensError):
    """Dataset contents violate an invariant (empty set, bad confidence, ...)."""


class LabelError(DataError):
    """A class label is outside [0, C); the message names the offending index.
    A DataError, so callers that catch bad data catch bad labels too."""


class StratificationError(DataError):
    """A class has too few samples for a stratified split."""


class FormatError(CalibensError):
    """A binary or text file does not match its declared layout."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class TrainingError(CalibensError):
    """Training diverged or could not run; carries the failing epoch and the
    index of the failing model among those trained together."""

    def __init__(self, message: str, epoch: int | None = None, model: int | None = None):
        super().__init__(message)
        self.epoch, self.model = epoch, model
