"""Exception hierarchy shared across the toolkit.

The exit codes below are the contract for the command-line interface
still to come: usage errors -> 1, DataError -> 2, NumericalError -> 3.
"""


class SilentSpeechError(Exception):
    """Base class for all toolkit errors."""


class UsageError(SilentSpeechError, ValueError):
    """An argument outside its valid range, such as ``epochs=0``."""


class DataError(SilentSpeechError):
    """Malformed, missing, or inconsistent input data."""


class ManifestError(DataError):
    """Manifest file cannot be parsed or violates its invariants."""


class NumericalError(SilentSpeechError):
    """Numerical failure: divergence, singular system, degenerate input."""
