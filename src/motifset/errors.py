"""Exception taxonomy shared across the package.

Grouped by the stage that raises them so the command line driver can map
them onto stable exit codes: configuration problems (exit 2), unreadable
or inconsistent input data (exit 3), numerical failure during training
(exit 4).
"""


class MotifSetError(Exception):
    """Base class for every error raised deliberately by this package."""


# --------------------------------------------------------------------------
# configuration / usage errors (exit code 2)


class ConfigError(MotifSetError):
    """Invalid or contradictory experiment configuration."""


class WeightSumError(ConfigError):
    """A score weight is outside [0, 1], or the weights do not sum to one."""


class NonPositiveBaselineError(ConfigError):
    """Baseline time or accuracy is zero/negative, so ratios are undefined."""


class MissingFieldError(ConfigError):
    """A manifest or config lacks a field required by the requested command."""


# --------------------------------------------------------------------------
# topology construction errors


class DivisibilityError(MotifSetError):
    """A non-output layer width is not divisible by the motif size."""


class EmptyNetworkError(MotifSetError):
    """Fewer than two layer sizes were given, so there is no weight layer."""


# --------------------------------------------------------------------------
# network usage errors


class ShapeError(MotifSetError):
    """An array argument does not match the shape the network expects."""


class StaleCacheError(MotifSetError):
    """A forward cache does not correspond to the network it is used with."""


# --------------------------------------------------------------------------
# data loading errors (exit code 3)


class DataError(MotifSetError):
    """Base class for dataset ingestion problems."""


class MagicNumberError(DataError):
    """A binary file does not start with the expected magic number."""


class CountMismatchError(DataError):
    """Image and label files disagree about the number of samples."""


class TruncatedFileError(DataError):
    """A file ends before the byte count promised by its header."""


class RaggedRowError(DataError):
    """CSV rows have inconsistent field counts."""


class NonNumericError(DataError):
    """A CSV feature cell is not a finite number (text, nan or inf)."""


class EmptyFileError(DataError):
    """The input holds no data rows, or its samples have no features."""


class OutOfRangeError(DataError):
    """A label is outside the valid class index range."""


class TooFewSamplesError(DataError):
    """The train or test split is empty, or a split would leave it so."""


class CorruptCacheError(DataError):
    """A dataset cache file fails its checksum or structural checks."""


class CheckpointFormatError(DataError):
    """A checkpoint file is malformed or from an unknown version."""


# --------------------------------------------------------------------------
# numerical failure (exit code 4)


class NonFiniteError(MotifSetError):
    """A NaN or infinity appeared in network parameters during training."""

