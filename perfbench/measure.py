"""Arithmetic behind the end-to-end metrics.

* arrivals: increment timestamps rescaled to a fixed mean offered rate;
* the FIFO recurrence that turns closed-loop service times into the
  arrival->completion latency a generator at that rate would observe;
* percentiles, and the tail percentile a sample count supports;
* when a campaign was first flagged, for the prevention ratio.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

#: Samples required beyond a tail percentile for it to be reported.
MIN_BEYOND = 10
TAIL_LADDER = (50.0, 60.0, 75.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9, 99.95)


def arrivals_at_rate(ts: np.ndarray, rate: float) -> np.ndarray:
    """Generator timestamps rescaled so the mean rate is ``rate`` per second.

    Relative spacing is kept, so campaign bursts stay bursts. The result
    depends on the input only, never on measured times, so the generator
    cannot run late.
    """
    t = np.asarray(ts, dtype=np.float64) - float(ts[0])
    return t * ((len(t) - 1) / rate / float(t[-1]))


def fifo_completion(ready: np.ndarray, service: np.ndarray) -> np.ndarray:
    """Completion time of each update on one synchronous server.

    ``start_k = max(ready_k, done_{k-1})`` and ``done_k = start_k +
    service_k``, where ``ready_k`` is the arrival of the last edge that
    update ``k`` needs.
    """
    done = np.empty(len(service), dtype=np.float64)
    t = -np.inf
    for k, (r, s) in enumerate(zip(ready.tolist(), service.tolist())):
        t = (r if r > t else t) + s
        done[k] = t
    return done


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ``MIN_BEYOND`` of ``n`` beyond it."""
    ok = [p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= MIN_BEYOND]
    return max(ok, default=50.0)


def percentile(values: Sequence[float], p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def tail_note(name: str, n: int, p: float) -> str:
    """One line saying how well a tail percentile is sampled."""
    beyond = n * (1.0 - p / 100.0)
    flag = "" if beyond >= MIN_BEYOND else "  (UNDER-SAMPLED)"
    return f"{name}: p{p:g} over {n} samples, {beyond:.0f} beyond{flag}"


def first_detection(
    fresh_by_update: Iterable, done: np.ndarray, members: frozenset
) -> Optional[float]:
    """Completion time of the first update whose new fraudsters meet ``members``."""
    for k, fresh in fresh_by_update:
        if fresh & members:
            return float(done[k])
    return None
