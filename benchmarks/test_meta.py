"""Metaheuristic population-batch benchmarks.

Wall-clock comparisons of the batched/delta metaheuristic mappers against
the legacy scalar loops kept as test oracles in ``tests/legacy_mappers.py``
(the pre-batch implementations verbatim).  Both sides run back-to-back
in the same process, so the asserted ratios are machine-relative and
stable, unlike the absolute medians committed in ``BENCH_meta.json``
(which ``record.py --suite meta`` maintains and the CI ``perf-smoke``
job gates).

The trajectory equality of the two sides is pinned separately in
``tests/test_batch_population.py`` — here we only check the fast side
is actually fast, and that the counters prove the batch path ran.
"""

import os
import time

import numpy as np
import pytest

from repro.evaluation import MappingEvaluator
from repro.evaluation._ckernel import load_ckernel
from repro.graphs.generators import random_sp_graph
from repro.mappers import NsgaIIMapper, TabuSearchMapper
from repro.platform import paper_platform
from tests.legacy_mappers import LegacyNsgaIIMapper, LegacyTabuSearchMapper


def _best_of(fn, reps=5):
    fn()  # warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


@pytest.fixture(scope="module")
def bench_graph():
    return random_sp_graph(50, np.random.default_rng(1234))


def _evaluator(g):
    return MappingEvaluator(
        g,
        paper_platform(),
        rng=np.random.default_rng(5),
        n_random_schedules=20,
    )


@pytest.mark.skipif(
    load_ckernel() is None,
    reason="speedup ratios assume the compiled kernel "
    "(pure-Python fallback is exercised for correctness, not speed)",
)
@pytest.mark.skipif(
    bool(os.environ.get("CI")),
    reason="wall-clock ratios are noisy on shared runners; CI gates go "
    "through record.py --check instead",
)
class TestBatchedVsScalarWallClock:
    def test_nsgaii_batch_beats_scalar(self, bench_graph):
        """GA fitness through the population batch: >= 3x end to end.

        (The committed BENCH_meta.json medians show ~5.6x at the full
        paper budget, where converged-population dedup kicks in; the
        reduced budget here keeps the test fast, costing some ratio.)
        """
        ev_f, ev_s = _evaluator(bench_graph), _evaluator(bench_graph)
        fast = _best_of(
            lambda: NsgaIIMapper(generations=100).map(
                ev_f, rng=np.random.default_rng(np.random.SeedSequence(42))
            )
        )
        scalar = _best_of(
            lambda: LegacyNsgaIIMapper(generations=100).map(
                ev_s, rng=np.random.default_rng(np.random.SeedSequence(42))
            ),
            reps=3,
        )
        print(f"nsgaii g=100: batch {fast * 1e3:.1f} ms "
              f"vs scalar {scalar * 1e3:.1f} ms -> {scalar / fast:.1f}x")
        assert scalar / fast >= 3.0

    def test_tabu_delta_beats_scalar(self, bench_graph):
        ev_f, ev_s = _evaluator(bench_graph), _evaluator(bench_graph)
        fast = _best_of(
            lambda: TabuSearchMapper(iterations=200).map(
                ev_f, rng=np.random.default_rng(np.random.SeedSequence(42))
            )
        )
        scalar = _best_of(
            lambda: LegacyTabuSearchMapper(iterations=200).map(
                ev_s, rng=np.random.default_rng(np.random.SeedSequence(42))
            ),
            reps=3,
        )
        print(f"tabu it=200: delta {fast * 1e3:.1f} ms "
              f"vs scalar {scalar * 1e3:.1f} ms -> {scalar / fast:.1f}x")
        assert scalar / fast >= 2.0


def test_counters_prove_batch_path(bench_graph):
    """The GA's stats must show the batch path actually ran."""
    ev = _evaluator(bench_graph)
    res = NsgaIIMapper(generations=10, population_size=30).map(
        ev, rng=np.random.default_rng(0)
    )
    assert res.stats["n_batched_evaluations"] > 0
    assert res.stats["batch_size_mean"] > 1.0
    assert res.stats["n_simulations"] == 0.0
