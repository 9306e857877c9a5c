"""The runtime engine's FPGA area ledger against its event-ordered oracle.

:class:`repro.runtime.engine._AreaLedger` keeps a step profile of the
area claimed on one device and first-fits each new claim by a sliding
window over it.  Admission is *defined* by the event-ordered rescan it
replaced: every live claim is re-sorted into start/end events per
candidate start and the running sum is peaked in event-time order.
That rescan lives on below as :class:`OracleLedger`, and the ledger
must return the oracle's ``(start, finish)`` for every claim — also
where the two float summation orders land on different sides of the
admission threshold, which the ledger settles by recounting in event
order.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import AREA_TOL
from repro.evaluation.costmodel import area_guard_band
from repro.runtime.engine import _AreaLedger


class OracleLedger:
    """The event-ordered ``_claim_area`` the step profile replaced."""

    def __init__(self, capacity):
        self.cap = capacity
        self.claims = []

    def peak(self, st, fin):
        """Peak concurrent usage of overlapping claims over [st, fin)."""
        events = []
        for cs, ce, ca in self.claims:
            if cs < fin and ce > st:
                events.append((cs if cs > st else st, 1, ca))
                events.append((ce, 0, ca))
        events.sort(key=lambda e: (e[0], e[1]))
        cur = peak = 0.0
        for _, phase, ca in events:
            cur = cur + ca if phase else cur - ca
            if cur > peak:
                peak = cur
        return peak

    def claim(self, now, st0, exec_t, drain, a):
        limit = self.cap + AREA_TOL
        band = area_guard_band(limit)
        if self.claims:
            # claims ending by now can never overlap a start >= now
            self.claims = [c for c in self.claims if c[1] > now]
        claims = self.claims
        candidates = sorted({st0} | {ce for _, ce, _ in claims if ce > st0})
        st = fin = st0
        for st in candidates:
            fin = st + exec_t
            if drain > fin:
                fin = drain
            if self.peak(st, fin) + a <= limit + band:
                break
            # the last candidate (max claim end) always fits
        claims.append((st, fin, a))
        return st, fin


def threshold(capacity):
    limit = capacity + AREA_TOL
    return limit + area_guard_band(limit)


def nudge(x, ulps):
    """``x`` moved by ``ulps`` units in the last place."""
    step = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, step)
    return x


def headroom(ledger, oracle, st, fin, bound, ulps):
    """The area still free over ``[st, fin)``, nudged by ``ulps``.

    Where the ledger's segment sum and the event-ordered sum of the
    window's peak differ, an area between them is returned instead, so
    that the two sums put the claim on opposite sides of the threshold
    and only the exact recount decides it like the oracle.
    """
    exact = oracle.peak(st, fin)
    profile = max(
        u for t0, t1, u in zip(ledger.times, ledger.times[1:] + [math.inf],
                               ledger.use)
        if t0 < fin and t1 > st
    )
    base = bound - exact
    if profile != exact:
        for k in range(-4, 5):
            a = nudge(base, k)
            if (profile + a <= bound) != (exact + a <= bound):
                return a
    return nudge(base, ulps)


def rebuilt(capacity, claims):
    """A fresh ledger holding ``claims`` in the given order, the way the
    engine rebuilds ledgers after a rollback."""
    ledger = _AreaLedger(capacity)
    for claim in claims:
        ledger.insert(*claim)
    return ledger


# times on a coarse grid (so timestamps collide) or anywhere
_times = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0]),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
# an area as a fraction of the threshold (simple fractions whose sums
# meet the threshold up to float re-association) or as the headroom
# left at the first candidate start (den 0), nudged a few ulps either way
_fractions = st.tuples(
    st.sampled_from([1, 1, 1, 2, 3, 7]),
    st.sampled_from([0, 0, 2, 3, 4, 5, 7, 10]),
    st.integers(min_value=-3, max_value=3),
)
_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("claim"),
            st.sampled_from([0.0, 0.0, 0.25, 1.0]) | _times,  # now advances
            st.sampled_from([0.0, 0.0]) | _times,             # st0 - now
            st.sampled_from([0.0]) | _times,                  # exec_t
            st.sampled_from([0.0, 0.0]) | _times,             # drain - st0
            _fractions,
        ),
        st.tuples(st.just("rebuild"), st.sampled_from(["same", "reversed"])),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(capacity=st.sampled_from([1.0, 100.0, 0.3, 7.1]), steps=_steps)
def test_ledger_matches_oracle(capacity, steps):
    bound = threshold(capacity)
    ledger = _AreaLedger(capacity)
    oracle = OracleLedger(capacity)
    now = 0.0
    for step in steps:
        if step[0] == "rebuild":
            live = [c for c in oracle.claims if c[1] > now]
            if step[1] == "reversed":
                live.reverse()
            oracle.claims = live
            ledger = rebuilt(capacity, live)
            continue
        _, dt, delay, exec_t, drain_off, (num, den, ulps) = step
        now += dt
        st0 = now + delay
        # drain 0 (no streaming predecessor) or past/before st0 + exec_t
        drain = st0 + drain_off if drain_off else 0.0
        ledger.prune(now)
        fin0 = max(st0 + exec_t, drain)
        if den == 0 and fin0 > st0:
            a = headroom(ledger, oracle, st0, fin0, bound, ulps)
        else:
            a = nudge(bound * num / (den or 2), ulps)
        a = min(max(a, 0.0), capacity)
        got = ledger.claim(st0, exec_t, drain, a)[:2]
        assert got == oracle.claim(now, st0, exec_t, drain, a)
        # the profile stays consistent with its claims
        assert ledger.times == sorted(set(ledger.times))
        assert len(ledger.use) == len(ledger.ends) == len(ledger.times)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.sampled_from([1.0, 100.0, 0.3, 7.1]),
    parts=st.lists(st.integers(min_value=1, max_value=30), min_size=2,
                   max_size=10),
    durations=st.lists(st.sampled_from([2.0, 5.0, 10.0]), min_size=10,
                       max_size=10),
    data=st.data(),
)
def test_ledger_matches_oracle_at_the_threshold(capacity, parts, durations,
                                                data):
    """Staggered claims recorded out of start order, so the profile and
    event order sum a window differently, and a new claim sized to the
    window's headroom — between the two sums wherever they differ."""
    bound = threshold(capacity)
    areas = [capacity * k / 97 for k in parts]
    while sum(areas) > capacity:
        areas.pop()
    claims = [(0.5 * k, 0.5 * k + durations[k], a) for k, a in enumerate(areas)]
    claims = data.draw(st.permutations(claims))
    ledger = rebuilt(capacity, claims)
    oracle = OracleLedger(capacity)
    oracle.claims = list(claims)
    a = headroom(ledger, oracle, 0.0, 4.0, bound, 0)
    a = min(max(a, 0.0), capacity)
    got = ledger.claim(0.0, 4.0, 0.0, a)[:2]
    assert got == oracle.claim(0.0, 0.0, 4.0, 0.0, a)


def test_recount_decides_where_summation_orders_disagree(monkeypatch):
    """Three claims starting at 0, 1 and 2 but recorded latest-first:
    the profile sums their shared segment as ``0.3 + 0.2 + 0.1 = 0.6``,
    event order as ``0.1 + 0.2 + 0.3 = 0.6000000000000001``.  With the
    new claim's area chosen between the two, the profile alone would
    admit it at once; event order (the definition) makes it wait for
    the claims to end, and only the recount gets that right."""
    capacity = 1.0
    bound = threshold(capacity)
    claims = [(2.0, 10.0, 0.3), (1.0, 10.0, 0.2), (0.0, 10.0, 0.1)]
    profile_sum = ((0.0 + 0.3) + 0.2) + 0.1
    event_sum = ((0.0 + 0.1) + 0.2) + 0.3
    assert profile_sum < event_sum
    area = next(
        b for b in (nudge(bound - 0.6, k) for k in range(-20, 21))
        if profile_sum + b <= bound < event_sum + b
    )

    recounts = []
    exact_peak = _AreaLedger.exact_peak

    def spy(self, st, fin):
        recounts.append((st, fin))
        return exact_peak(self, st, fin)

    monkeypatch.setattr(_AreaLedger, "exact_peak", spy)
    ledger = rebuilt(capacity, claims)
    oracle = OracleLedger(capacity)
    oracle.claims = list(claims)
    expected = oracle.claim(0.0, 0.0, 5.0, 0.0, area)
    assert expected == (10.0, 15.0)
    st0, fin, tried = ledger.claim(0.0, 5.0, 0.0, area)
    assert (st0, fin) == expected
    assert tried == 2
    assert recounts and recounts[0] == (0.0, 5.0)


def test_zero_length_window_counts_claims_spanning_the_instant():
    """An empty window ``[st, st)`` overlaps only claims that started
    before ``st`` and end after it: no profile segment holds that sum."""
    capacity = 1.0
    claims = [(0.0, 2.0, 0.5), (1.0, 3.0, 0.5), (1.0, 1.0, 0.25)]
    for area in (0.5, 0.6):
        ledger = rebuilt(capacity, claims)
        oracle = OracleLedger(capacity)
        oracle.claims = list(claims)
        expected = oracle.claim(0.5, 1.0, 0.0, 0.0, area)
        assert ledger.claim(1.0, 0.0, 0.0, area)[:2] == expected


def test_prune_compacts_ended_claims():
    ledger = _AreaLedger(1.0)
    for k in range(10):
        ledger.prune(float(k))
        assert ledger.claim(float(k), 1.0, 0.0, 0.5)[:2] == (k, k + 1.0)
    ledger.prune(9.5)
    # only the segment holding `now` and the live claim's end remain
    assert ledger.times == [9.0, 10.0]
    assert len(ledger.claims) <= 2
    assert ledger.claims[-1] == (9.0, 10.0, 0.5)


@pytest.mark.parametrize("n", [1, 5])
def test_last_candidate_always_fits(n):
    """A claim as large as the whole budget waits for every live claim."""
    ledger = _AreaLedger(1.0)
    ends = [ledger.claim(0.0, 1.0 + k, 0.0, 0.25)[1] for k in range(n)]
    st0, fin, tried = ledger.claim(0.0, 1.0, 0.0, 1.0)
    assert (st0, fin) == (max(ends), max(ends) + 1.0)
    assert tried == len(set(ends)) + 1
