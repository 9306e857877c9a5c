"""Pinned end-to-end digests of runtime engine traces.

Each digest is the sha256 of ``repr`` of every logged event, every job's
makespan, the run's ``energy_j`` and its area/link wait counts.  ``repr``
of a float round-trips exactly, so a digest pins the trace bit for bit:
any change to how the engine orders, admits or times work — the FPGA
area ledger above all — shows up here even where the aggregate
statistics other tests check would not move.

The streams cover the paper platform (area waits) and the star
topology with one slot per link (link waits; its FPGA keeps the paper
platform's area budget, so every FPGA task still claims area) at overlap
1, 6 and 24, and lognormal noise with a slowdown and a device failure
under the fixed fallback and under a HEFT replan policy.

The digests were recorded with the event-ordered rescan ledger the
step-profile ledger replaced.  Re-record deliberately, never to get a
failing test green::

    PYTHONPATH=src python tests/test_engine_digests.py
"""

import hashlib
from typing import Dict, List

import numpy as np
import pytest

from repro import obs
from repro.evaluation import CostModel, MappingEvaluator
from repro.evaluation.schedules import ScheduleSuite
from repro.graphs.generators import random_sp_graph
from repro.mappers import sp_first_fit
from repro.platform import paper_platform, with_topology
from repro.runtime import (
    DeviceFailure,
    DeviceSlowdown,
    Job,
    LognormalNoise,
    RuntimeEngine,
)

GPU, FPGA = 1, 2  # device indices on the paper platform
GRAPH_SEEDS = (7, 11, 19, 23)
N_TASKS = 40
N_JOBS = 16

DIGESTS = {
    "paper_ov1": "873fe47625a053d59a2a63d3844012fb16bace7b03d4ca34dc3432cc71badfb6",
    "paper_ov6": "1bc61c7366274a0ab6798969ca102016e4a64d282731894275402a55396aa49e",
    "paper_ov24": "6768fcbc455bf1fda1823c7202619f934cea7225827f659b6db9d8836a49c85f",
    "paper_noisy_fallback": "b8f4ad85e6a457e4dc63cef1568025d4d031c2d1b5c0610eff66b9881249adf9",
    "paper_noisy_heft": "270d346f7de744bb503674eab6e08e13b8ba55fa8118b6aac6277fda8f9877d3",
    "star_ov1": "4c4d80aca3c8dcf4335e90c632d992574dbb1dceaa9e998c7238746c00514353",
    "star_ov6": "b393600a53f15acf63e2be156d816d5574818fa275c9c74095e49e7ad696abf0",
    "star_ov24": "e36e22210fd8a2f0726ea04e772330837678bb4dfa320945595c1a7cc5d1edb3",
    "star_noisy_fallback": "178e226c786050e6a85c8f5f87305274f259087167099095e463aeb5339494c7",
    "star_noisy_heft": "79c0b4c2f7215e2a1263c7af58de910c6f03ea9d56207ea73ffb1f0b5e80b501",
}


def trace_digest(trace) -> str:
    """sha256 over the events, job makespans, energy and wait counts."""
    h = hashlib.sha256()
    for event in trace.events:
        h.update(repr(event).encode())
        h.update(b"\n")
    for job in trace.jobs:
        h.update(repr((job.name, job.makespan)).encode())
    h.update(repr(
        (trace.energy_j, trace.n_area_waits, trace.n_link_waits)
    ).encode())
    return h.hexdigest()


def _platforms():
    base = paper_platform()
    return {"paper": base, "star": with_topology(base, "star", slots=1)}


def _graphs(platform):
    """The stream's graphs, each mapped once by SPFirstFit."""
    out = []
    for seed in GRAPH_SEEDS:
        g = random_sp_graph(N_TASKS, np.random.default_rng(seed))
        ev = MappingEvaluator(g, platform, suite=ScheduleSuite.bfs_only(g))
        mapping = sp_first_fit().map(ev, rng=np.random.default_rng(seed)).mapping
        out.append((g, [int(d) for d in mapping]))
    return out


def _stream(graphs, platform, overlap: int) -> List[Job]:
    """Jobs cycling through ``graphs``; each arrives its predecessor's
    analytic makespan divided by ``overlap`` after it."""
    spans = [CostModel(g, platform).simulate(m) for g, m in graphs]
    jobs, arrival = [], 0.0
    for k in range(N_JOBS):
        g, m = graphs[k % len(graphs)]
        jobs.append(Job(g, m, arrival=arrival, name=f"job{k}"))
        arrival += spans[k % len(graphs)] / overlap
    return jobs


def _noisy_engine(platform, jobs, policy):
    horizon = jobs[-1].arrival
    scenarios = [
        DeviceSlowdown(0.25 * horizon, device=FPGA, factor=2.5),
        DeviceFailure(0.5 * horizon, device=GPU),
    ]
    return RuntimeEngine(
        platform,
        noise=LognormalNoise(0.25, transfer_sigma=0.1),
        scenarios=scenarios,
        replan_policy=policy,
    )


def compute_digests() -> Dict[str, str]:
    platforms = _platforms()
    graphs = _graphs(platforms["paper"])
    out = {}
    for name, platform in platforms.items():
        for overlap in (1, 6, 24):
            jobs = _stream(graphs, platform, overlap)
            trace = RuntimeEngine(platform).run(jobs)
            out[f"{name}_ov{overlap}"] = trace_digest(trace)
        jobs = _stream(graphs, platform, 6)
        for policy in ("fallback", "heft"):
            engine = _noisy_engine(platform, jobs, policy)
            out[f"{name}_noisy_{policy}"] = trace_digest(engine.run(jobs, rng=5))
    return out


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_trace_digest_pinned(digests, case):
    assert digests[case] == DIGESTS[case]


def test_every_case_is_pinned(digests):
    assert sorted(digests) == sorted(DIGESTS)


def test_ledger_metrics_leave_the_trace_unchanged():
    """The ledger histograms are write-only: an observed run produces
    the pinned trace, and records one sample per area claim."""
    platform = _platforms()["paper"]
    jobs = _stream(_graphs(platform), platform, 24)
    obs.shutdown()
    obs.observe()
    try:
        trace = RuntimeEngine(platform).run(jobs)
    finally:
        _tracer, registry = obs.shutdown()
    assert trace_digest(trace) == DIGESTS["paper_ov24"]
    snapshot = registry.snapshot()
    lens = snapshot["runtime.area_ledger_len"]
    tries = snapshot["runtime.claim_candidates"]
    n_claims = sum(
        job.mapping[i] == FPGA and job.graph.params(task).area > 0.0
        for job in jobs for i, task in enumerate(job.graph.tasks())
    )
    assert lens["n"] == tries["n"] == n_claims
    # every claim tries at least its first candidate; waits try more
    assert tries["total"] > tries["n"]


if __name__ == "__main__":
    for case, digest in compute_digests().items():
        print(f'    "{case}": "{digest}",')
