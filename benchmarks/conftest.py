"""Benchmark-suite configuration.

``pytest benchmarks/ --benchmark-only`` reruns every figure/table of the
paper at the scale selected by ``REPRO_BENCH_SCALE`` (smoke | small |
paper, default smoke).  Each figure bench prints the paper-style table
(visible with ``-s`` or in the captured output) and writes a CSV into
``REPRO_RESULTS_DIR`` — a temporary directory unless the caller sets it,
so test runs never rewrite the committed CSVs.  To regenerate those::

    REPRO_RESULTS_DIR=results pytest benchmarks/ --benchmark-only
"""

import os

import numpy as np
import pytest

from repro.evaluation import MappingEvaluator
from repro.graphs.generators import random_sp_graph
from repro.platform import paper_platform


@pytest.fixture(scope="session", autouse=True)
def results_to_tmp(tmp_path_factory):
    """CSVs go to ``REPRO_RESULTS_DIR`` if set, else to a temporary
    directory."""
    with pytest.MonkeyPatch.context() as mp:
        if not os.environ.get("REPRO_RESULTS_DIR"):
            mp.setenv("REPRO_RESULTS_DIR",
                      str(tmp_path_factory.mktemp("results")))
        yield


@pytest.fixture(scope="session")
def platform():
    return paper_platform()


@pytest.fixture(scope="session")
def sp_graph_50(platform):
    """A fixed 50-task random SP graph + evaluator, for micro-benchmarks."""
    g = random_sp_graph(50, np.random.default_rng(1234))
    ev = MappingEvaluator(g, platform, rng=np.random.default_rng(5), n_random_schedules=20)
    return g, ev
