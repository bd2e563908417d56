"""Pure reducers of the serving benchmark: clock correction, percentiles,
request outcomes, span self time and the output digest.

Nothing here imports the program under test, so the arithmetic the
benchmark's numbers rest on is unit-tested on its own
(``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond the highest percentile a timing reports.
TAIL_SAMPLES = 10


# -- drift-corrected clock ----------------------------------------------------

def corrected_durations(durations: Sequence[float], probes: Sequence[float],
                        reference_probe_s: float) -> List[float]:
    """Express each timed interval in reference-host seconds.

    ``probes`` has one entry more than ``durations``: ``probes[i]`` and
    ``probes[i + 1]`` are the fixed probe timed just before and just after
    interval ``i``.  The interval is divided by the mean of its two
    bracketing probes and multiplied by ``reference_probe_s``, so a host
    phase that slows both the interval and its probes by the same factor
    leaves the corrected duration unchanged.
    """
    if len(probes) != len(durations) + 1:
        raise ValueError("need one probe before and after every interval")
    if reference_probe_s <= 0.0:
        raise ValueError("reference probe time must be > 0")
    out = []
    for i, duration in enumerate(durations):
        local = 0.5 * (probes[i] + probes[i + 1])
        if local <= 0.0:
            raise ValueError("probe times must be > 0")
        out.append(duration * reference_probe_s / local)
    return out


def lane_clocks(lanes: Sequence[int], corrected: Sequence[float]
                ) -> List[float]:
    """Corrected end time of every step on its own lane's clock.

    A lane is one worker: its clock advances only by its own steps (fleet
    workers model separate machines, as :class:`FleetReport` does), so
    step ``i`` ends at the sum of its lane's corrected durations up to and
    including ``i``.
    """
    totals: Dict[int, float] = {}
    ends = []
    for lane, duration in zip(lanes, corrected):
        totals[lane] = totals.get(lane, 0.0) + duration
        ends.append(totals[lane])
    return ends


# -- percentiles --------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def supported_tail(n: int, wanted: float = 99.0) -> Optional[float]:
    """Highest percentile <= ``wanted`` with ``TAIL_SAMPLES`` beyond it.

    ``p`` leaves ``n * (1 - p / 100)`` samples above it, so the largest
    supported percentile is ``100 * (1 - TAIL_SAMPLES / n)``; ``None``
    when the sample is too small for any tail above the median.
    """
    if n <= 0:
        return None
    best = 100.0 * (1.0 - TAIL_SAMPLES / n)
    if best < 50.0:
        return None
    return min(wanted, best)


def tail(values: Sequence[float], wanted: float = 99.0
         ) -> Tuple[float, float]:
    """``(percentile_used, value)`` of the highest supported tail.

    Falls back to the median when the sample supports no tail above it.
    """
    q = supported_tail(len(values), wanted)
    if q is None:
        q = 50.0
    return q, percentile(values, q)


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


# -- request outcomes ---------------------------------------------------------

def failed_frac(attempted: int, failed: int) -> float:
    """Failed (shed, rejected or errored) requests over attempted."""
    if attempted <= 0:
        raise ValueError("no requests attempted")
    return failed / attempted


def slo_attainment(outcomes: Iterable[Tuple[bool, Optional[float],
                                            Sequence[float]]],
                   ttft_limit_s: float, gap_limit_s: float) -> float:
    """Share of requests meeting both the TTFT and the gap limit.

    Each outcome is ``(served, ttft_s, gaps_s)``; a request that was not
    served (failed, shed or refused) misses by definition.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no requests attempted")
    met = 0
    for served, ttft, gaps in outcomes:
        if not served or ttft is None or ttft > ttft_limit_s:
            continue
        if gaps and max(gaps) > gap_limit_s:
            continue
        met += 1
    return met / len(outcomes)


# -- span self time -----------------------------------------------------------

def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    clipped = [(max(start, s), min(end, e)) for s, e in children
               if e > start and s < end]
    return (end - start) - covered(clipped)


# -- output digest -------------------------------------------------------------

def output_digest(served: Iterable[Tuple[int, int, Sequence[int]]]) -> str:
    """Stable digest of ``(request_id, worker_id, output tokens)``.

    Order-independent over requests, so it pins *what* was served and
    where, not the interleaving in which it happened.
    """
    rows = sorted((int(rid), int(worker), [int(t) for t in tokens])
                  for rid, worker, tokens in served)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()
