"""Exception hierarchy shared across the toolkit, and its input boundary.

Each class below :class:`SilentSpeechError` has one exit code in the
command-line interface still to come: UsageError -> 1, DataError -> 2,
NumericalError -> 3.

Every reader opens its input file through :func:`open_input` (bytes) or
:func:`read_text` (UTF-8 text), so a path that is missing, a directory or
otherwise unreadable raises DataError naming it, with the ``OSError`` as
its cause. Every entry that takes an array reads it through :func:`_array`,
so a ragged nesting or text raises DataError naming the argument.
"""

from __future__ import annotations

import math
import operator
from numbers import Real
from pathlib import Path
from typing import BinaryIO

import numpy as np


class SilentSpeechError(Exception):
    """Base class for all toolkit errors."""


class UsageError(SilentSpeechError, ValueError):
    """An argument outside its valid range, such as ``epochs=0``."""


class DataError(SilentSpeechError):
    """Malformed, missing, or inconsistent input data."""


class NumericalError(SilentSpeechError):
    """Numerical failure: divergence, singular system, degenerate input."""


def _count(value, name: str, least: int = 1) -> int:
    """``value`` as an int if it is an integer >= ``least`` and not a bool;
    UsageError naming ``name`` otherwise."""
    if not isinstance(value, bool):  # numpy's bool has no __index__
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if count >= least:
                return count
    raise UsageError(f"need an integer {name} >= {least}, got {value!r}")


def _real(value, name: str) -> float:
    """``value`` as a float if it is a real number and not a bool, an int
    past float range as inf of its sign; UsageError naming ``name``
    otherwise. Each caller checks its own range."""
    if isinstance(value, bool) or not isinstance(value, Real):  # numpy's bool is no Real
        raise UsageError(f"need a real number {name}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _array(value, name: str, dtype=None) -> np.ndarray:
    """``value`` by ``np.asarray``, cast to ``dtype`` if one is given under
    numpy's ``same_kind`` rule, which casts no text, object or complex array
    to a float; DataError naming ``name`` where numpy raises, as it does for
    a ragged nesting."""
    try:
        array = np.asarray(value)
        return array if dtype is None else array.astype(dtype, casting="same_kind", copy=False)
    except (ValueError, TypeError) as exc:
        raise DataError(f"{name} must be a rectangular array of numbers ({exc})") from exc


def open_input(path: str | Path) -> BinaryIO:
    """``path`` opened for binary reading; DataError naming it on any OSError."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc


def read_text(path: str | Path) -> str:
    """The whole of ``path`` decoded as UTF-8; DataError naming it when the
    file cannot be read or is not UTF-8."""
    with open_input(path) as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
