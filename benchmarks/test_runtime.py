"""Micro-benchmarks of the runtime engine's hot paths.

The engine is the substrate every robustness experiment replays mappings
through, so its per-run cost bounds how many replications a sweep can
afford.  Benchmarked: one zero-noise run (the analytic-equivalence path),
one noisy run (adds per-task factor sampling), a full replication batch,
a contended arrival stream, and a mid-run device-failure replan (the
worst case: rollback + full recommit cascade).  One plain test gates how
the engine's cost per task scales with the number of overlapping jobs.
"""

import time

import numpy as np
import pytest

from repro.evaluation import MappingEvaluator
from repro.graphs.generators import random_sp_graph
from repro.mappers import HeftMapper, sp_first_fit
from repro.runtime import (
    DeviceFailure,
    LognormalNoise,
    RuntimeEngine,
    periodic_stream,
    replicate,
    simulate_mapping,
)


@pytest.fixture(scope="module")
def mapped(sp_graph_50):
    g, ev = sp_graph_50
    mapping = list(HeftMapper().map(ev).mapping)
    return g, ev, mapping


def test_bench_engine_zero_noise(benchmark, platform, mapped):
    g, _, mapping = mapped
    benchmark(lambda: simulate_mapping(g, platform, mapping))


def test_bench_engine_lognormal_noise(benchmark, platform, mapped):
    g, _, mapping = mapped
    noise = LognormalNoise(0.3, transfer_sigma=0.1)
    benchmark(lambda: simulate_mapping(g, platform, mapping, noise=noise, rng=3))


def test_bench_replicate_batch(benchmark, platform, mapped):
    g, _, mapping = mapped
    benchmark.pedantic(
        lambda: replicate(
            g, platform, mapping, n=20, noise=LognormalNoise(0.2), seed=5
        ),
        rounds=3,
        iterations=1,
    )


def test_bench_arrival_stream(benchmark, platform, mapped):
    g, ev, mapping = mapped
    period = ev.model.simulate(mapping) / 4  # heavy queue contention
    jobs = periodic_stream(g, mapping, 8, period=period)
    engine = RuntimeEngine(platform)
    benchmark(lambda: engine.run(jobs))


def test_bench_failure_replan(benchmark, platform, mapped):
    g, ev, mapping = mapped
    t_fail = 0.5 * ev.model.simulate(mapping)
    benchmark(lambda: simulate_mapping(
        g, platform, mapping, scenarios=[DeviceFailure(t_fail, device=1)]
    ))


#: Rounds of the engine-scaling gate; each replays both overlaps once.
SCALING_ROUNDS = 5
#: Bound on engine cost per task at 24 overlapping jobs over 1 job.
MAX_SCALING_RATIO = 4.0


def test_engine_cost_per_task_flat_in_overlap(platform):
    """Engine cost per task must stay flat as jobs overlap.

    A 60-task SP graph (seed 7) mapped by SPFirstFit streams 24 jobs
    arriving ``makespan / overlap`` apart, so about ``overlap`` jobs
    share the FPGA area ledger.  Overlap 1 and 24 are replayed
    interleaved in one process and the minimum of the rounds compared:
    a ratio, so a slow host moves both sides.  The step-profile ledger
    measures 1.4-2x; rescanning every live claim per candidate start
    costs 21-24x.
    """
    g = random_sp_graph(60, np.random.default_rng(7))
    ev = MappingEvaluator(g, platform, rng=np.random.default_rng(0))
    mapping = sp_first_fit().map(ev, rng=np.random.default_rng(0)).mapping
    span = ev.model.simulate(mapping)
    engine = RuntimeEngine(platform)
    streams = {
        overlap: periodic_stream(g, mapping, 24, period=span / overlap)
        for overlap in (1, 24)
    }
    best = {overlap: float("inf") for overlap in streams}
    for _ in range(SCALING_ROUNDS):
        for overlap, jobs in streams.items():
            t0 = time.perf_counter()
            engine.run(jobs)
            best[overlap] = min(best[overlap], time.perf_counter() - t0)
    ratio = best[24] / best[1]
    assert ratio <= MAX_SCALING_RATIO, (
        f"engine cost per task at overlap 24 is {ratio:.1f}x overlap 1"
    )


def test_robustness_noise_sweep(benchmark):
    """Regenerates results/robustness_noise_sweep.csv at the bench scale."""
    from repro.experiments import robustness
    from repro.experiments.config import bench_scale
    from repro.experiments.robustness import (
        format_robustness_table,
        write_robustness_csv,
    )

    result = benchmark.pedantic(
        lambda: robustness.run(scale=bench_scale()), rounds=1, iterations=1
    )
    print()
    print(format_robustness_table(result))
    write_robustness_csv(result)

    sigmas = result.sigmas()
    for algorithm in result.algorithms():
        lo = result.cell(sigmas[0], algorithm)
        hi = result.cell(sigmas[-1], algorithm)
        # the p95 tail must widen as runtime variability grows
        assert hi.p95_degradation > lo.p95_degradation
        assert hi.p95_degradation > 0.0
