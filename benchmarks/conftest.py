"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure from the paper.  The
experiment body runs exactly once (``benchmark.pedantic`` with a single
round) because the interesting output is the printed table, not the
timing; pytest-benchmark still records the wall-clock cost of each
reproduction.

The performance benchmarks that keep a ``BENCH_*.json`` result file at
the repository root write it only when ``REPRO_BENCH_RECORD=1`` is set
(``make bench-record``); every other run, ``make check`` included, runs
the same assertions and leaves the committed results alone.
"""

import json
import os

import numpy as np
import pytest

from repro.synth import TypingDynamicsGenerator

RECORD_ENV = "REPRO_BENCH_RECORD"


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def record_results(path, payload):
    """Write ``payload`` as JSON to ``path`` if ``REPRO_BENCH_RECORD=1``."""
    if os.environ.get(RECORD_ENV) == "1":
        path.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture(scope="session")
def table1_cohort_10():
    """10-user cohort for Table I (left columns)."""
    return TypingDynamicsGenerator(seed=7).generate_cohort(10, 250)


@pytest.fixture(scope="session")
def table1_cohort_26():
    """26-user cohort for Table I (right columns)."""
    return TypingDynamicsGenerator(seed=7).generate_cohort(26, 200)


@pytest.fixture(scope="session")
def mood_cohort():
    """20-participant cohort for the Sec. IV-A mood experiments."""
    return TypingDynamicsGenerator(seed=11).generate_cohort(20, 200)
