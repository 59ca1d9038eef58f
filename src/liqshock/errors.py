"""Exception types and the integer and scalar rules shared across the
package."""

from __future__ import annotations

import operator

import numpy as np


class NumericalError(RuntimeError):
    """A computation left its validated regime (overflow guard, failed
    convergence, stability bound).  Distinct from ValueError so the CLI can
    map input problems and numerical failures to different exit codes."""


def check_integer(name: str, value) -> int:
    """``value`` as an int; refuses (ValueError) a value that is not an
    integer (an int or a numpy integer), a bool included."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def check_regime(name: str, value) -> int:
    """``value`` as an int; refuses (ValueError) a value that is not the
    integer 0 or 1."""
    regime = check_integer(name, value)
    if regime not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {regime}")
    return regime


def check_scalar(name: str, value) -> None:
    """Refuse (ValueError) an array of one or more dimensions, by name and
    shape; a 0-d array passes."""
    shape = np.shape(value)
    if shape:
        raise ValueError(f"{name} must be a scalar, got an array of shape {shape}")


def check_count(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer of at least ``least``."""
    check_integer(name, value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
