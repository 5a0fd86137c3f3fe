"""Error taxonomy shared by every module.

The CLI maps these onto exit codes: usage/configuration -> 1,
data -> 2, numeric -> 3.  Parsers raise ConfigError; only a reader of a
file on disk turns that into a DataError, naming the file.
"""


class UsageError(Exception):
    """Misuse of an API or the command line (bad flags, wrong call order)."""


class ConfigError(Exception):
    """Invalid or inconsistent configuration (shapes, strides, windows)."""


class DataError(Exception):
    """Corrupt or inconsistent data on disk (masks, manifests, checkpoints)."""


class NumericError(Exception):
    """Non-finite values or a failed numeric check."""
