"""Readers for the values of a JSON experiment config.

Each refuses a value of the wrong kind, or a missing key, with a
``ValueError`` that names it, so that the CLI reports it in one line.
"""

from __future__ import annotations

__all__ = [
    "MissingConfigKey",
    "config_float",
    "config_int",
    "config_key",
    "config_list",
    "config_section",
]


class MissingConfigKey(ValueError):
    """A config object lacks a required key; ``path`` names it from the top,
    such as ``filter.c``."""

    def __init__(self, path: str):
        super().__init__(f"config lacks required key {path!r}")
        self.path = path


def config_key(d: dict, key: str):
    """``d[key]``; refuses a missing key by name."""
    if key not in d:
        raise MissingConfigKey(key)
    return d[key]


def config_section(d: dict, key: str, from_dict):
    """``from_dict(d[key])``; refuses a section that is not a JSON object, and
    names a key missing inside the section by its path through ``key``."""
    section = config_key(d, key)
    if not isinstance(section, dict):
        raise ValueError(f"{key} must be a JSON object, got {section!r}")
    try:
        return from_dict(section)
    except MissingConfigKey as err:
        raise MissingConfigKey(f"{key}.{err.path}") from None


def config_list(d: dict, key: str) -> list:
    """``d[key]``; refuses a missing key by name, and a value that is not a
    JSON array, such as a number or a string, which iterating would fail on
    or read character by character."""
    value = config_key(d, key)
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def config_int(value, name: str) -> int:
    """A config count as an int; refuses booleans and non-integral numbers."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def config_float(value, name: str) -> float:
    """A config real as a float; refuses booleans, strings and other
    non-numbers, which ``float()`` would read as reals."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)
