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
