"""Statistics helpers: host-speed scaling, nearest-rank percentiles and
span self times."""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Sequence

import numpy as np

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10

#: Nominal duration of :func:`reference_work`; reported times are scaled
#: to a host on which the reference takes exactly this long.
REFERENCE_S = 0.012

#: Groups on either side whose reference timings scale a group's latencies.
HOST_WINDOW = 4

#: 16 MB streamed by :func:`reference_work`.
_STREAM = np.ones(2_000_000)


def reference_work() -> None:
    """Fixed work that uses nothing of the program under test.

    Four kinds of work, as the program does them: interpreter work
    (integer arithmetic, dict updates), small-array NumPy calls, memory
    streaming, and allocation of many small objects (build, sort and
    index a list of tuples).  A shared host runs it faster or slower in
    the same phases as it runs the program, so its time measures the
    host's current speed.
    """
    counts: Dict[int, int] = {}
    total = 0
    for i in range(15000):
        k = i % 97
        counts[k] = counts.get(k, 0) + i
        total += i * i % 7
    a = np.arange(256.0)
    for _ in range(600):
        a = np.sqrt(a + 1.0)
    for _ in range(2):
        _STREAM.sum()
    rows = sorted((i * 7919 % 1000, str(i)) for i in range(8000))
    {r[1]: r for r in rows}


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def host_scale(reference_times: Sequence[float]) -> float:
    """Factor that converts a wall time measured alongside
    ``reference_times`` to the nominal host (:data:`REFERENCE_S`)."""
    return REFERENCE_S / statistics.median(reference_times)


def scale_to_host(latencies: Sequence[float], reference_times: Sequence[float],
                  group: int) -> List[float]:
    """``latencies`` converted to the nominal host, group by group.

    ``reference_times[g]`` was timed just before the ``g``-th run of
    ``group`` consecutive latencies.  Each group is scaled by the median
    of the reference timings of the :data:`HOST_WINDOW` groups on either
    side of it and its own, so a slow phase of the host in the middle of
    a run is cancelled where it happened.
    """
    out: List[float] = []
    for g, start in enumerate(range(0, len(latencies), group)):
        local = reference_times[max(0, g - HOST_WINDOW):g + HOST_WINDOW + 1]
        factor = REFERENCE_S / statistics.median(local)
        out += [x * factor for x in latencies[start:start + group]]
    return out


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-quantile (``0 < p < 1``) of ``samples``.

    Raises :class:`ValueError` when fewer than :data:`MIN_BEYOND` samples lie
    beyond the returned rank: such a tail is set by a handful of values
    and does not repeat between runs.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"percentile {p} outside (0, 1)")
    xs = sorted(samples)
    rank = math.ceil(p * len(xs))
    beyond = len(xs) - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{100 * p:g} of {len(xs)} samples leaves {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return xs[rank - 1]


def kind_medians(samples: Sequence[float], n_kinds: int) -> List[float]:
    """Median of each kind of ``samples``; sample ``i`` is of kind
    ``i % n_kinds``."""
    return [statistics.median(samples[k::n_kinds]) for k in range(n_kinds)]


def kind_median(samples: Sequence[float], n_kinds: int) -> float:
    """Geometric mean of the per-kind medians of ``samples``.

    Each median falls inside one kind's population, and a relative
    change of one kind moves the result by that change to the power
    ``1 / n_kinds``.
    """
    return statistics.geometric_mean(kind_medians(samples, n_kinds))


def self_times_ns(spans) -> Dict[str, int]:
    """Total self time per span name, in nanoseconds.

    ``spans`` are :class:`repro.obs.Tracer` records ``(name, cat, start,
    duration, lane, args)`` from one thread, nested by containment.  A
    span's self time is its duration minus the time its direct children
    cover; children of one parent never overlap in a single thread.
    """
    self_ns = [s[3] for s in spans]
    order = sorted(range(len(spans)), key=lambda i: (spans[i][2], -spans[i][3]))
    stack = []  # (end, index) of the open ancestors
    for i in order:
        start, duration = spans[i][2], spans[i][3]
        while stack and stack[-1][0] <= start:
            stack.pop()
        if stack:
            self_ns[stack[-1][1]] -= duration
        stack.append((start + duration, i))
    out: Dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        out[s[0]] += self_ns[i]
    return dict(out)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
