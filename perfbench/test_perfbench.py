"""Tests of the benchmark's own machinery: seeded inputs and spans.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import wl_fedavg  # noqa: E402
import wl_fleet  # noqa: E402
import wl_serve  # noqa: E402
import wl_train  # noqa: E402
from common import REFERENCE_S  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", [wl_serve, wl_train, wl_fedavg,
                                      wl_fleet],
                         ids=lambda module: module.__name__)
def test_input_digest_follows_the_seed(workload):
    first = workload.make_inputs(1, 2.0)["digest"]
    assert workload.make_inputs(1, 2.0)["digest"] == first
    assert workload.make_inputs(2, 2.0)["digest"] != first


def test_self_times_add_up_to_the_root_span():
    ticks = iter(range(8))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    root = tracer.begin("root")
    child = tracer.begin("child")
    tracer.end(tracer.begin("grandchild"))
    tracer.end(child)
    tracer.end(tracer.begin("child"))
    tracer.end(root)
    table = tracer.self_times()
    assert table == {"root": (1, 7.0, 3.0), "child": (2, 4.0, 3.0),
                     "grandchild": (1, 1.0, 1.0)}
    assert sum(own for _, _, own in table.values()) == 7.0


class _Box:
    def value(self):
        return 1


def test_patch_records_spans_and_restore_undoes_it():
    tracer = Tracer()
    box = _Box()
    original = _Box.value
    tracer.patch(box, "value", "instance")
    tracer.patch(_Box, "value", "class")
    assert box.value() == 1 and _Box().value() == 1
    assert [span[0] for span in tracer.spans] == ["instance", "class"]
    tracer.restore()
    assert "value" not in vars(box) and _Box.value is original


def test_timings_scale_to_the_reference_host():
    spec = {"end_to_end": [{"name": name, "unit": "u"} for name in
                           ("ops_per_s", "p50_ms", "setup_s", "peak_rss_mb")]}
    # The probe ran twice as long as on the reference host.
    measured = {"e2e": {"ops_per_s": 10.0, "p50_ms": 4.0, "setup_s": 1.0},
                "peak_rss_mb": 50.0,
                "probe_s": [2 * REFERENCE_S, 2 * REFERENCE_S, 9.0]}
    values = {name: metric["value"]
              for name, metric in run.end_to_end(spec, measured).items()}
    assert values == {"ops_per_s": 20.0, "p50_ms": 2.0, "setup_s": 0.5,
                      "peak_rss_mb": 50.0}
    # A workload that runs no probe is reported as measured.
    del measured["probe_s"]
    values = {name: metric["value"]
              for name, metric in run.end_to_end(spec, measured).items()}
    assert values == dict(measured["e2e"], peak_rss_mb=50.0)
