"""Log-log scaling fits for rate-trend checks."""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    r2: float
    points: tuple[tuple[float, float], ...]  # (log x, log y)


def scaling_fit(points: list[tuple[float, float]]) -> ScalingFit:
    """Ordinary least squares on (log x, log y). Requires >= 3 strictly
    positive points."""
    if len(points) < 3:
        raise ValueError(f"need at least 3 points, got {len(points)}")
    for x, y in points:
        if x <= 0 or y <= 0:
            raise ValueError(f"all values must be positive, got ({x}, {y})")
    logs = [(math.log(x), math.log(y)) for x, y in points]
    n = len(logs)
    mx = sum(p[0] for p in logs) / n
    my = sum(p[1] for p in logs) / n
    sxx = sum((p[0] - mx) ** 2 for p in logs)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in logs)
    if sxx == 0.0:
        raise ValueError("x values must not all coincide")
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((p[1] - (intercept + slope * p[0])) ** 2 for p in logs)
    ss_tot = sum((p[1] - my) ** 2 for p in logs)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return ScalingFit(slope=slope, intercept=intercept, r2=r2, points=tuple(logs))


def median_by_x(pairs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Collapse (x, y) pairs to (x, median y), sorted by x."""
    groups: dict[float, list[float]] = {}
    for x, y in pairs:
        groups.setdefault(x, []).append(y)
    return [(x, median(ys)) for x, ys in sorted(groups.items())]
