"""Readers for the values of a JSON experiment config.

Each refuses a value of the wrong kind, a missing key or an unknown one with
a ``ValueError`` that names it, so that the CLI reports it in one line.
"""

from __future__ import annotations

__all__ = [
    "MissingConfigKey",
    "UnknownConfigKeys",
    "config_float",
    "config_int",
    "config_key",
    "config_known_keys",
    "config_list",
    "config_section",
]


class MissingConfigKey(ValueError):
    """A config object lacks a required key; ``path`` names it from the top,
    such as ``filter.c``."""

    def __init__(self, path: str):
        super().__init__(f"config lacks required key {path!r}")
        self.path = path


class UnknownConfigKeys(ValueError):
    """A config object holds keys its reader does not know; ``paths`` name
    them, and ``known`` the keys it reads, from the top, such as
    ``dimension_rule.pmax`` and ``dimension_rule.p_max``."""

    def __init__(self, paths: list[str], known: list[str]):
        super().__init__(f"unknown config keys {paths}; known: {known}")
        self.paths = paths
        self.known = known


def config_known_keys(d: dict, known) -> None:
    """Refuses every key of ``d`` outside ``known``, by name, so that a
    misspelled optional key is not read as absent."""
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise UnknownConfigKeys(unknown, sorted(known))


def config_key(d: dict, key: str):
    """``d[key]``; refuses a missing key by name."""
    if key not in d:
        raise MissingConfigKey(key)
    return d[key]


def config_section(d: dict, key: str, from_dict):
    """``from_dict(d[key])``; refuses a section that is not a JSON object, and
    names a key missing or unknown inside the section by its path through
    ``key``."""
    section = config_key(d, key)
    if not isinstance(section, dict):
        raise ValueError(f"{key} must be a JSON object, got {section!r}")
    try:
        return from_dict(section)
    except MissingConfigKey as err:
        raise MissingConfigKey(f"{key}.{err.path}") from None
    except UnknownConfigKeys as err:
        raise UnknownConfigKeys([f"{key}.{p}" for p in err.paths], [f"{key}.{k}" for k in err.known]) from None


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
