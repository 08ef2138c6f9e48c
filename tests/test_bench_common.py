"""Tests for the benchmark harness's shared helpers."""

import pytest

from benchmarks import bench_openloop
from benchmarks.common import (
    ALL_APPS,
    bench_config,
    format_table,
    geomean,
    speedups_vs,
)
from perfbench import workloads
from repro.analysis.metrics import RunMetrics
from repro.config import Design


def metrics(makespan):
    return RunMetrics(
        design="X", app="a", makespan=makespan, avg_unit_time=1.0,
        max_unit_time=makespan, wait_fraction=0.0, total_busy_cycles=1,
        tasks_executed=1, task_messages=0, data_messages=0,
    )


def test_all_apps_are_the_papers_eight():
    assert ALL_APPS == ["ll", "ht", "tree", "spmv", "bfs", "sssp", "pr",
                        "wcc"]


def test_bench_config_unit_override():
    cfg = bench_config(Design.B, units=256)
    assert cfg.topology.total_units == 256
    assert cfg.design is Design.B


def test_geomean():
    assert geomean([4.0, 1.0]) == pytest.approx(2.0)


def test_geomean_rejects_empty_sequence():
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean(x for x in ())


def test_speedups_vs_baseline():
    results = {
        "tree": {"C": metrics(300), "O": metrics(100)},
    }
    s = speedups_vs(results, "C")
    assert s["tree"]["O"] == pytest.approx(3.0)
    assert s["tree"]["C"] == pytest.approx(1.0)


def test_format_table_shape():
    out = format_table("t", ["a", "b"], [[1, 2.5]])
    lines = [l for l in out.splitlines() if l]
    assert lines[0] == "=== t ==="
    assert lines[1].split() == ["a", "b"]
    assert "2.50" in lines[-1]


@pytest.mark.parametrize("gap_factor", [1.0, 0.5])
def test_perfbench_openloop_stream_is_the_benchs(gap_factor):
    assert (bench_openloop.openloop_spec(gap_factor)
            == workloads.openloop_spec(gap_factor))
