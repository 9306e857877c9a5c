"""Tests of the benchmark's own machinery: inputs, statistics and checks.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import numpy as np
import pytest

from perfbench.measure import (
    HOST_WINDOW,
    REFERENCE_S,
    host_scale,
    kind_median,
    percentile,
    scale_to_host,
    self_times_ns,
)
from perfbench.workloads import (
    MappingWorkload,
    RuntimeWorkload,
    check_mapping,
    check_replay,
    improvement_pct,
    input_digest,
)
from repro.mappers import Mapper
from repro.runtime import RuntimeEngine


@pytest.mark.parametrize("name", ["paper_mix", "population_search"])
def test_mapping_inputs_and_improvement_follow_the_seed(name):
    a, b, other = (MappingWorkload(name, s) for s in (5, 5, 6))
    assert input_digest(a, 5) == input_digest(b, 5)
    assert input_digest(a, 5) != input_digest(other, 5)
    ops_a = [a.run(i) for i in range(2)]
    ops_b = [b.run(i) for i in range(2)]
    assert improvement_pct(ops_a) == improvement_pct(ops_b)


@pytest.fixture(scope="module")
def runtime5():
    return RuntimeWorkload(5)


def test_runtime_streams_follow_the_seed(runtime5):
    a, b, other = runtime5, RuntimeWorkload(5), RuntimeWorkload(6)
    assert input_digest(a, 12) == input_digest(b, 12)
    assert input_digest(a, 12) != input_digest(other, 12)
    assert improvement_pct([a.run(0)]) == improvement_pct([b.run(0)])


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(100))
    assert percentile(samples, 0.9) == 89
    with pytest.raises(ValueError):
        percentile(samples[:99], 0.9)


def test_host_scale_converts_to_the_nominal_reference_time():
    # on a host at half speed wall times double, and the scale halves them
    assert host_scale([2 * REFERENCE_S] * 4 + [100.0]) == pytest.approx(0.5)
    assert host_scale([REFERENCE_S]) == 1.0


def test_scale_to_host_follows_a_slow_phase_group_by_group():
    # groups of 2 equal operations; the host runs at half speed from
    # group 20 on, and the program's wall times double with it
    n_groups = 40
    refs = [REFERENCE_S if g < 20 else 2 * REFERENCE_S for g in range(n_groups)]
    lat = [0.1 if g < 20 else 0.2 for g in range(n_groups) for _ in range(2)]
    scaled = scale_to_host(lat, refs, 2)
    assert len(scaled) == len(lat)
    far = [x for i, x in enumerate(scaled)
           if abs(i // 2 - 19.5) > HOST_WINDOW]
    assert far == pytest.approx([0.1] * len(far))


def test_kind_median_stays_inside_each_kind():
    # two kinds that do not overlap, interleaved as a run records them
    samples = [1.0, 100.0] * 50
    assert kind_median(samples, 2) == pytest.approx(10.0)
    slower_first_kind = [2.0, 100.0] * 50
    assert kind_median(slower_first_kind, 2) == pytest.approx(10.0 * 2 ** 0.5)


def test_population_search_builds_no_sp_candidates(monkeypatch):
    from repro.mappers import annealing, tabu

    def forbidden(*args, **kwargs):
        raise AssertionError("population_search must not decompose")

    monkeypatch.setattr(tabu, "series_parallel_candidates", forbidden)
    monkeypatch.setattr(annealing, "series_parallel_candidates", forbidden)
    assert not MappingWorkload("population_search", 3).run(0).problems


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("op", "", 0, 100, 0, None),
        ("map", "", 10, 50, 0, None),
        ("improve", "", 20, 30, 0, None),
        ("score", "", 70, 20, 0, None),
    ]
    assert self_times_ns(spans) == {"op": 30, "map": 20, "improve": 30,
                                    "score": 20}


class _CorruptMakespan(Mapper):
    """Returns the all-CPU mapping with a wrong makespan."""

    name = "Corrupt"

    def _run(self, evaluator, rng):
        return evaluator.cpu_mapping(), {}

    def map(self, evaluator, rng=None):
        result = super().map(evaluator, rng)
        result.makespan *= 1.5
        return result


def test_corrupt_mapper_output_fails_the_operation():
    wl = MappingWorkload("paper_mix", 3)
    assert not wl.run(0).problems
    assert wl.run(0, mappers=[_CorruptMakespan]).problems


def test_check_mapping_flags_corruption():
    wl = MappingWorkload("paper_mix", 3)
    graph = wl.inputs(0)[0]
    from repro.evaluation import CostModel

    mapping = np.zeros(graph.n_tasks, dtype=np.int64)
    makespan = CostModel(graph, wl.platform).simulate(mapping)
    assert check_mapping(graph, wl.platform, mapping, makespan, 0.0) == []
    assert check_mapping(graph, wl.platform, mapping, makespan * 1.01, 0.0)
    moved = mapping.copy()
    moved[:] = 1
    assert check_mapping(graph, wl.platform, moved, makespan, 0.0)
    assert check_mapping(graph, wl.platform, mapping, makespan, 1.5)
    bad = mapping.copy()
    bad[0] = wl.platform.n_devices
    assert check_mapping(graph, wl.platform, bad, makespan, 0.0)


def test_check_replay_flags_lost_tasks_and_early_jobs(runtime5):
    wl = runtime5
    members = [0, 1, 2]
    jobs = wl.stream(members, "area", 1)
    trace = RuntimeEngine(wl.platforms["area"]).run(jobs)
    expected = [(wl.panel[i].graph.n_tasks, wl.panel[i].analytic["area"])
                for i in members]
    assert check_replay(trace, expected, exact_first_job=True) == []
    overstated = [(n, a * 1.01) for n, a in expected]
    assert check_replay(trace, overstated, exact_first_job=False)
    understated = [(n, a * 0.99) for n, a in expected]
    assert check_replay(trace, understated, exact_first_job=True)
    trace.jobs[1].tasks.pop()
    assert check_replay(trace, expected, exact_first_job=False)
