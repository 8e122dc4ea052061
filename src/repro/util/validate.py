"""Input validation helpers shared by the data-model constructors."""

from __future__ import annotations

import re

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\[\].$]*")


def check_positive(value: int | float, what: str) -> None:
    """Raise :class:`ValueError` unless ``value`` is strictly positive."""
    if value <= 0:
        raise ValueError(f"{what} must be positive, got {value!r}")


def check_non_negative(value: int | float, what: str) -> None:
    """Raise :class:`ValueError` unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{what} must be non-negative, got {value!r}")


def check_name(name: str, what: str = "name") -> str:
    """Validate an HDL-ish identifier and return it.

    Identifiers may contain word characters plus ``[ ] . $`` after the first
    character (bus bits like ``data[3]`` and hierarchical names like
    ``u_top.u_core`` are accepted).
    """
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ValueError(f"invalid {what}: {name!r}")
    return name
