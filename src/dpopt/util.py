"""Small helpers shared by the parameter derivations."""
from __future__ import annotations

import math
import sys


class PreconditionError(ValueError):
    """A derivation's sample-size hypothesis does not hold at this (n, d, eps).

    The harness turns exactly this error into a `precondition:` row. Any
    other exception from a derivation rejects the config at load, and one
    raised while a grid point runs surfaces as `error:`.
    """


def floori(v: float) -> int:
    """Floor with a relative 1e-9 nudge, so closed forms that are exact
    integers in real arithmetic (e.g. n^(2/3) at powers of two) do not lose
    a unit to floating-point rounding."""
    return int(math.floor(v + 1e-9 * abs(v) + 1e-12))


def read_number(name: str, value, kind: type, least: float | None = None):
    """`value` read as a number of `kind`, int or float: the one rule for every
    number a sweep takes. A JSON boolean, any other non-number, a value that is
    not finite, an int with a fraction, an int below `least` and a float not
    above it are rejected by name; a whole float reads as its integer."""
    if kind is int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        ok = type(value) is int and (least is None or value >= least)
        rule = "an integer" + ("" if least is None else f" >= {least}")
    else:  # NaN fails the comparison, and an int too large for a float fails it too
        ok = ((type(value) is int or isinstance(value, float))
              and abs(value) <= sys.float_info.max and (least is None or value > least))
        rule = "a finite number" + ("" if least is None else f" > {least}")
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return kind(value)


def read_overrides(given: dict | None, table: dict, who: str) -> dict:
    """`given`, each value read by its (kind, least) in `table`; a bad name or
    value is rejected by its name."""
    given = given or {}
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ValueError(f"unknown {who} overrides: {unknown}")
    return {name: read_number(f"overrides {name}", value, *table[name])
            for name, value in given.items()}
