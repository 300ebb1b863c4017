"""Self-test of the benchmark's metric plumbing and layer attribution.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q

Every workload runs at the tiny scale.  The first test checks that each
workload reports every end-to-end metric of ``BENCHMARK.json``, with its
unit and sample count, and that a traced run reports every per-layer
metric.  The last two put a fixed delay into ``WriteAheadLog.append``
and check where it shows up: in ``store.wal.append_s`` and the printed
``write_p50_us`` of ``mixed-rw``, and not in the reads of ``read-mix``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.attribution import LAYER_METRICS, traced_run  # noqa: E402
from perfbench.shims import inject_delay  # noqa: E402
from perfbench.workloads import E2E_UNITS, TINY, WORKLOADS, Pass, run_pass  # noqa: E402

NAMES = list(WORKLOADS)
APPEND = "store.wal:WriteAheadLog.append"
DELAY = 0.004
# Long enough for every op class, writes included, to reach the 1,000
# samples a p99 needs at the tiny scale.
SECONDS = 3.0


def timed(name: str, workdir: str):
    return run_pass(name, 7, Pass("timed", SECONDS, TINY, workdir))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("perfbench"))


@pytest.fixture(scope="module")
def baseline(workdir):
    return {name: timed(name, workdir) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_reported(baseline, name):
    outcome = baseline[name]
    assert outcome.attempted > 0 and outcome.failed == 0, outcome.checks
    assert sorted(outcome.metrics) == sorted(E2E_UNITS)
    for metric, (value, unit) in outcome.metrics.items():
        assert unit == E2E_UNITS[metric]
        assert value > 0
        assert outcome.samples[metric] >= 1
    for metric in outcome.printed:
        if metric.endswith("_p99_us"):
            assert outcome.samples[metric] >= 1000


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(workdir, name):
    result = traced_run(name, 7, TINY, workdir)
    assert result.repeatable
    assert all(o.failed == 0 for o in result.outcomes)
    assert set(LAYER_METRICS) - {"src.loc"} == set(result.metrics)
    assert result.metrics["trace.coverage_min"] > 0.5
    assert result.summary.request_wall


def test_wal_delay_moves_writes_on_mixed_rw(workdir):
    with inject_delay(APPEND, DELAY):
        slowed = timed("mixed-rw", workdir)
        traced = traced_run("mixed-rw", 7, TINY, workdir)
    plain = traced_run("mixed-rw", 7, TINY, workdir)
    assert slowed.failed == 0
    # Every write appends to the WAL once, so its median carries the delay.
    assert slowed.printed["write_p50_us"][0] >= DELAY * 1e6
    assert traced.metrics["store.wal.append_s"] >= (
        plain.metrics["store.wal.append_s"] + DELAY * 0.9
    )


def test_wal_delay_leaves_read_mix_reads_alone(baseline, workdir):
    with inject_delay(APPEND, DELAY):
        slowed = timed("read-mix", workdir)
        traced = traced_run("read-mix", 7, TINY, workdir)
    assert slowed.failed == 0
    before = {**baseline["read-mix"].metrics, **baseline["read-mix"].printed}
    after = {**slowed.metrics, **slowed.printed}
    for metric in ("ops_per_s", "op_p50_us", "get_p50_us", "window_p50_us", "knn_p50_us"):
        ratio = after[metric][0] / before[metric][0]
        assert 0.5 < ratio < 2.0, (metric, ratio)
    # The delay lands in set-up (the preload's group commits) ...
    assert traced.metrics["store.wal.append_s"] >= DELAY
    # ... and no read request reaches the WAL.
    spans = traced.tracer.spans
    read_requests = {
        rid for _, parent, rid, name, _, _ in spans
        if name in ("request:get", "request:window", "request:knn")
    }
    assert read_requests
    assert not any(
        rid in read_requests and name.startswith("store.wal")
        for _, _, rid, name, _, _ in spans
    )
