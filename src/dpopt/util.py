"""Small helpers shared by the parameter derivations."""
from __future__ import annotations

import math


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


def read_overrides(given: dict | None, table: dict, who: str) -> dict:
    """`given`, each value cast to its type in `table`: (float, None), or (int,
    its least value). A bad name or value is rejected by its name."""
    given = given or {}
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ValueError(f"unknown {who} overrides: {unknown}")
    for name, value in given.items():
        if isinstance(value, bool) or not (isinstance(value, (int, float))
                                           and math.isfinite(value)):
            raise ValueError(f"overrides {name} must be a finite number, got {value!r}")
        cast, least = table[name]
        if cast is int and not (value == int(value) and value >= least):
            raise ValueError(f"overrides {name} must be an integer >= {least}, got {value!r}")
    return {name: table[name][0](value) for name, value in given.items()}
