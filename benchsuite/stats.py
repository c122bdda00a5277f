"""Order statistics with the benchmark's tail guard.

Percentiles are taken only over like operations: over whole warm
passes, never over the fourteen different artefacts inside one pass,
and per serve request class, never over a mix of classes.  A tail
percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it; :func:`tail` names the highest percentile of
:data:`TAIL_LADDER` that the sample count supports, and the run record
carries that percentile with its sample count.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 75.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def samples_beyond(count: int, percentile: float) -> int:
    """How many of ``count`` samples lie beyond the given percentile."""
    return math.floor(count * (100.0 - percentile) / 100.0 + 1e-9)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (``numpy.percentile``'s default)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    position = pct / 100.0 * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest guarded tail percentile.

    Refuses - raises ``ValueError`` - when even the lowest percentile of
    the ladder would have fewer than :data:`MIN_BEYOND` samples beyond it.
    """
    for pct in TAIL_LADDER:
        if samples_beyond(len(samples), pct) >= MIN_BEYOND:
            return pct, percentile(samples, pct)
    raise ValueError(
        f"{len(samples)} samples support no tail percentile; at least "
        f"{math.ceil(MIN_BEYOND * 100 / (100 - TAIL_LADDER[-1]))} are needed"
    )
