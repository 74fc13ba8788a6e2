"""Pure statistics of the harness: percentiles, sub-window summaries, bounds.

No I/O, no ``repro`` imports — everything here is unit-tested in
``test_harness.py`` without a subprocess.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, Optional, Sequence, Tuple

#: Percentiles the tail rule may pick from, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reportable only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(count: int, q: float) -> int:
    """Nearest rank of the q-th percentile among ``count`` samples (the
    epsilon keeps 99.9 % of 10000 at 9990, not 9991, in floating point)."""
    return min(count, max(1, math.ceil(q * count / 100.0 - 1e-9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the q-th percentile."""
    return count - _rank(count, q) if count else 0


def supported_tail(count: int,
                   candidates: Sequence[float] = TAIL_CANDIDATES,
                   beyond: int = MIN_SAMPLES_BEYOND) -> Optional[float]:
    """The highest candidate percentile with >= ``beyond`` samples above it.

    ``None`` when even the lowest candidate is not supported (too few
    samples to report any tail at all).
    """
    for q in candidates:
        if samples_beyond(count, q) >= beyond:
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, quartiles and relative spread of per-window values.

    ``spread`` is ``(q3 - q1) / median`` — the same statistic the
    benchmark contract applies across runs — or ``None`` when fewer than
    two values (or a zero median) make it undefined.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("summary of an empty sample")
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": None, "q3": None, "spread": None,
                "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``ys`` on ``xs`` (0.0 when ``xs`` is constant)."""
    n = len(xs)
    if n < 2 or n != len(ys):
        return 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var


def worse_by(base: float, new: float, better: str) -> float:
    """By what share of ``base`` the new value is worse (negative: better)."""
    if base == 0:
        raise ValueError("comparison against a zero base")
    if better == "lower":
        return (new - base) / base
    if better == "higher":
        return (base - new) / base
    raise ValueError("better must be 'lower' or 'higher', got {!r}".format(
        better))


def verdict(base: float, new: float, better: str, bound: float,
            spreads: Iterable[Optional[float]] = ()) -> Tuple[str, float]:
    """``("ok" | "worse" | "unresolved", share_worse)`` for one metric.

    ``spreads`` are the sub-window spreads of the two sides.  When the
    widest of them exceeds the bound, a difference the size of the bound
    cannot be told from noise: the pair is ``unresolved`` unless the new
    side is worse by more than that noise, which is still ``worse``.
    """
    share = worse_by(base, new, better)
    noise = max([s for s in spreads if s is not None] or [0.0])
    if noise > bound:
        return ("worse" if share > noise else "unresolved"), share
    return ("worse" if share > bound else "ok"), share
