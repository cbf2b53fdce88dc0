"""Exception types shared across primelab modules, and the rules that
turn a non-integer or mistyped argument into one of them."""

import operator


class PrimelabError(Exception):
    """Base class for all primelab errors."""


class DomainError(PrimelabError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConfigError(PrimelabError, ValueError):
    """A generator configuration is inconsistent or yields invalid parameters."""


class ResourceLimitError(PrimelabError):
    """A requested computation exceeds the configured desk-scale caps."""


class NonTerminationError(PrimelabError):
    """A search loop exceeded its iteration hard cap.

    Only reachable when some residue class contains no primes, which the
    hard cap converts into a diagnosable error instead of a hang.
    """


class BrokenBitSourceError(PrimelabError):
    """Rejection sampling failed an implausible number of times in a row."""


def _bound_index(name: str, value, least: int | None = None,
                 error: type = DomainError) -> int:
    """value as a Python int (numpy integers accepted), and at least `least`
    if a bound is given; `error` otherwise: DomainError for a library
    argument, ConfigError for a configuration field."""
    try:
        index = operator.index(value)
    except TypeError as exc:
        raise error(f"{name} needs an integer, got {value!r}") from exc
    if least is not None and index < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return index


def _instance_of(name: str, value, kind: type, error: type = DomainError):
    """value if it is an instance of kind, else `error`."""
    if not isinstance(value, kind):
        raise error(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value


def _index_field(obj, name: str, least: int | None = None) -> None:
    """Check the field `name` of the frozen dataclass obj by _bound_index,
    with ConfigError, and store it as a Python int."""
    value = getattr(obj, name)
    index = _bound_index(name, value, least, ConfigError)
    if type(value) is not int:
        object.__setattr__(obj, name, index)
