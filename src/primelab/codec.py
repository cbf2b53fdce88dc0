"""The JSON form of record values, written once: the record codec of
`harness` writes every record through it, and a FiniteDist refuses at
construction a meta that it cannot write."""

import json
import sys
from dataclasses import fields, is_dataclass
from enum import Enum
from fractions import Fraction

from .errors import DomainError, ResourceLimitError
from .ntheory import Exact, MillerRabin, PrimalityPolicy


def encode_value(v):
    """JSON form of a report value: dataclasses and dicts field by field
    (str keys), a Fraction as {"fraction": "n/d"}, an enum as its value,
    a primality policy as a {"type": ...} dict."""
    if isinstance(v, Fraction):
        try:
            return {"fraction": f"{v.numerator}/{v.denominator}"}
        except ValueError as exc:
            raise digit_limit_error() from exc
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, Exact):
        return {"type": "exact",
                "table_bound": v.table.bound if v.table else None}
    if isinstance(v, MillerRabin):
        return {"type": "miller_rabin", "rounds": v.rounds, "seed": v.seed}
    if isinstance(v, PrimalityPolicy):
        raise DomainError(f"cannot serialize policy {v!r}")
    if is_dataclass(v):
        return {f.name: encode_value(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, dict):
        return {str(k): encode_value(x) for k, x in v.items()}
    return v


def json_text(value, **options) -> str:
    """json.dumps(value, **options) of an encoded value; DomainError for
    what JSON cannot write, where json raises a bare TypeError (or a
    ValueError: a circular reference, an int past Python's
    integer-to-string limit)."""
    try:
        return json.dumps(value, **options)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"cannot write as JSON: {exc}") from None


def digit_limit_error() -> ResourceLimitError:
    return ResourceLimitError(
        f"fraction has more than {sys.get_int_max_str_digits()} "
        f"digits, Python's integer-to-string limit")
