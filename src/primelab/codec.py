"""The JSON form of record values, written and read in one place: the
record codec of `harness` writes every record through it and reads its
run reports back, and a FiniteDist refuses at construction a meta that it
cannot write."""

import json
import re
import sys
import types
from dataclasses import fields, is_dataclass
from enum import Enum
from fractions import Fraction

from .errors import DomainError, ResourceLimitError, _bound_index
from .ntheory import EXACT, Exact, MillerRabin, PrimalityPolicy

_FRACTION = re.compile(r"(-?[0-9]+)/([0-9]*[1-9][0-9]*)")  # d > 0


def encode_value(v):
    """JSON form of a report value: dataclasses and dicts field by field
    (str keys), a Fraction as {"fraction": "n/d"}, an enum as its value,
    a primality policy as a {"type": ...} dict."""
    if isinstance(v, Fraction):
        try:
            return {"fraction": f"{v.numerator}/{v.denominator}"}
        except ValueError as exc:
            raise _digit_limit_error() from exc
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


def decode_value(tp, value, name: str):
    """The value of annotation tp from the JSON form that encode_value
    writes, `name` its path in the record; DomainError where it does not
    fit tp.  Enum values are left for GenConfig to turn into members."""
    if isinstance(tp, types.UnionType):  # X | None
        tp = tp.__args__[0]
        return None if value is None else decode_value(tp, value, name)
    if tp is int:
        if isinstance(value, bool):
            raise DomainError(f"{name} needs an integer, got {value!r}")
        return _bound_index(name, value)
    if tp is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return value
        raise DomainError(f"{name} needs a finite number, got {value!r}")
    if tp is Fraction:
        text = value.get("fraction") if isinstance(value, dict) else None
        match = _FRACTION.fullmatch(text) if isinstance(text, str) else None
        if match is None:
            raise DomainError(f"{name} is not a fraction n/d: {value!r}")
        try:
            return Fraction(int(match[1]), int(match[2]))
        except ValueError as exc:
            raise _digit_limit_error() from exc
    if tp is PrimalityPolicy:
        kind = value.get("type") if isinstance(value, dict) else None
        if kind == "exact":
            return EXACT
        if kind == "miller_rabin":
            return decode_value(MillerRabin, value, name)
        raise DomainError(f"{name} is not a primality policy: {value!r}")
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise DomainError(f"{name} must be an object, got {value!r}")
        for f in fields(tp):
            if f.name not in value:
                raise DomainError(f"{name} lacks field {f.name!r}")
        return tp(**{f.name: decode_value(f.type, value[f.name],
                                          f"{name}.{f.name}")
                     for f in fields(tp)})
    return value


def json_text(value, **options) -> str:
    """json.dumps(value, **options) of an encoded value; DomainError for
    what JSON cannot write, where json raises a bare TypeError (or a
    ValueError: a circular reference, an int past Python's
    integer-to-string limit)."""
    try:
        return json.dumps(value, **options)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"cannot write as JSON: {exc}") from None


def _digit_limit_error() -> ResourceLimitError:
    return ResourceLimitError(
        f"fraction has more than {sys.get_int_max_str_digits()} "
        f"digits, Python's integer-to-string limit")
