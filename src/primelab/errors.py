"""Exception types shared across primelab modules, and the one rule that
turns a non-integer argument into one of them."""

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


def _bound_index(name: str, value, error: type = DomainError) -> int:
    """value as a Python int (numpy integers accepted); `error` if it is not
    an integer: DomainError for a library argument, ConfigError for a
    configuration field."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise error(f"{name} needs an integer, got {value!r}") from exc
