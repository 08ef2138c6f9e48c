"""Tests of the benchmark's own logic.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench import tracing
from perfbench.layers import LAYERS, PER_LAYER, per_layer, ratio
from perfbench.tracing import SIMULATE, TracedPhases, Tracer, describe
from perfbench.workloads import WORKLOADS, CellFailure, Phases, build_cells
from repro.config import scaled_config
from repro.dram.bank import DRAMBank
from repro.runtime.system import NDPSystem
from repro.sim import Simulator, StatsRegistry

ROOT = Path(__file__).resolve().parent.parent


def _clock(*ticks: float):
    return iter(ticks).__next__


def test_self_time_nested_and_back_to_back_children():
    tracer = Tracer(clock=_clock(0, 1, 2, 4, 5, 6, 10, 10, 12, 15, 20, 23))
    tracer.begin(SIMULATE, "sim", simulate=True)  # t=0
    tracer.begin("A", "ndp")                      # t=1
    tracer.begin("B", "dram")                     # t=2
    tracer.end()                                  # t=4: B 2
    tracer.begin("C", "dram")                     # t=5
    tracer.end()                                  # t=6: C 1
    tracer.end()                                  # t=10: A 9, self 6
    tracer.begin("D", "bridge")                   # t=10
    tracer.end()                                  # t=12: D 2
    tracer.end()                                  # t=15: run 15, self 4
    tracer.begin("apps.verify", "apps")           # t=20, outside simulate
    tracer.end()                                  # t=23
    assert dict(tracer.self_s) == {"ndp": 6, "dram": 3, "bridge": 2, "sim": 4}
    assert sum(tracer.self_s.values()) == tracer.total_s[SIMULATE] == 15
    assert tracer.self_by_name["A"] == 6
    assert tracer.total_s["apps.verify"] == 3
    assert [s[4] for s in tracer.spans] == [-1, 0, 1, 1, 0, -1]


def test_span_cap_keeps_accounting(monkeypatch):
    monkeypatch.setattr(tracing, "MAX_SPANS", 2)
    tracer = Tracer(clock=_clock(*range(8)))
    for _ in range(4):
        tracer.begin("x", "ndp")
        tracer.end()
    assert len(tracer.spans) == 2 and tracer.dropped == 2
    assert tracer.calls["x"] == 4 and tracer.total_s["x"] == 4


def _in_module(source: str, module: str, name: str):
    namespace = {"__name__": module}
    exec(source, namespace)
    return namespace[name]


def test_layer_attribution_of_scheduled_callbacks():
    bank = DRAMBank(Simulator(), scaled_config(64), StatsRegistry(), 0)
    assert describe(bank.access) == ("DRAMBank.access", "dram")
    assert describe(functools.partial(bank.access, 0)) == (
        "DRAMBank.access", "dram"
    )
    lam = _in_module("f = lambda: None", "repro.bridge.level1", "f")
    assert describe(lam) == ("<lambda>", "bridge")
    outer = _in_module(
        "def outer(x):\n    def inner():\n        return x\n    return inner",
        "repro.ndp.unit", "outer",
    )
    assert describe(outer(1)) == ("outer.<locals>.inner", "ndp")
    pump = _in_module("def pump(): pass", "repro.runtime.requests", "pump")
    assert describe(pump)[1] == "runtime.requests"
    assert describe(print)[1] == "other"


def test_ratio_with_zero_base_is_not_divided():
    assert ratio(3, 0) == (None, 0)
    assert ratio(1, 4) == (0.25, 4)
    values, notes = per_layer(
        Tracer(), Counter(), untraced_run_s=0.0, untraced_wall_s=0.0,
        traced_wall_s=1.0, snapshot_bytes=0, latency={},
    )
    for name in ("sim.ns_per_event", "ndp.l1.hit_ratio",
                 "dram.row_hit_ratio", "bridge.useful_round_ratio",
                 "balance.plan_yield", "trace.overhead_ratio"):
        assert values[name] is None
        assert notes[name].endswith(" = 0, not divided")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_of_each_workload_passes_the_gate(workload):
    cells = build_cells(workload, seed=3, size="tiny")
    for cell in cells:
        cell.prepare()
    first = bench.run_pass(cells, Phases, measure=True)
    tracer = Tracer()
    traced = bench.run_pass(cells, lambda: TracedPhases(tracer),
                            tracer=tracer, measure=True)
    assert bench.gate([first, traced]) == []
    assert traced.counts == first.counts
    assert set(tracer.self_s) <= set(LAYERS)
    assert sum(tracer.self_s.values()) == pytest.approx(
        tracer.total_s[SIMULATE], rel=1e-9
    )
    assert first.buckets["run"] > 0 and first.buckets["setup"] > 0
    assert (first.buckets["checkpoint"] > 0) == (workload == "snapshot-fork")
    assert (tracer.self_s["runtime.requests"] > 0) == (
        workload == "openloop-tree"
    )
    values, _ = per_layer(
        tracer, traced.counts, untraced_run_s=first.buckets["run"],
        untraced_wall_s=first.wall, traced_wall_s=traced.wall,
        snapshot_bytes=0, latency=traced.latency,
    )
    assert [n for n in PER_LAYER if values[n] is None] == []


def test_events_that_bypass_the_tracing_wrappers_fail_the_cell():
    class EarlyEvent(TracedPhases):
        def on_system(self, system):
            system.sim.schedule(0, lambda: None)  # before instrument
            super().on_system(system)

    tracer = Tracer()
    cells = build_cells("tree-1024u-O", seed=3, size="tiny")
    result = bench.run_pass(cells, lambda: EarlyEvent(tracer), tracer=tracer)
    assert result.failures == [
        "tree/O: 1 events dispatched outside the tracing wrappers"
    ]


def test_gate_counts_a_failed_verify(monkeypatch):
    from repro.apps.tree import TreeApp

    monkeypatch.setattr(TreeApp, "verify", lambda self: False)
    cells = build_cells("tree-1024u-O", seed=3, size="tiny")
    result = bench.run_pass(cells, Phases)
    assert len(result.failures) == 1
    assert "verify() failed" in result.failures[0]
    assert bench.gate([result]) == result.failures


def test_gate_flags_outputs_that_change_between_passes():
    one, two = bench.Pass(), bench.Pass()
    one.outputs = {"a": {"makespan": 1}, "b": {"makespan": 2}}
    two.outputs = {"a": {"makespan": 1}, "b": {"makespan": 3}}
    assert bench.gate([one, two]) == [
        "b: pass 2 simulated outputs differ from pass 1"
    ]


def test_fork_that_differs_from_the_run_through_fails():
    (cell,) = build_cells("snapshot-fork", seed=3, size="tiny")
    cell.prepare()
    cell.reference = dict(cell.reference, makespan=-1)
    with pytest.raises(CellFailure, match="differently from the run-through"):
        cell.execute(Phases())


def test_undrained_open_loop_stream_fails(monkeypatch):
    from repro.runtime.requests import OpenLoopApp

    real = OpenLoopApp.latency_extra

    def short(self):
        out = real(self)
        out["ol/completed"] -= 1
        return out

    monkeypatch.setattr(OpenLoopApp, "latency_extra", short)
    cell = build_cells("openloop-tree", seed=3, size="tiny")[0]
    with pytest.raises(CellFailure, match="did not drain"):
        cell.execute(Phases())


def test_hermetic_clears_knobs_and_cells_refuse_the_sanitizer(monkeypatch):
    monkeypatch.setenv("NDPBRIDGE_SANITIZE", "1")
    monkeypatch.setenv("NDPBRIDGE_SHARDS", "2")
    with pytest.raises(CellFailure, match="unsanitized"):
        Phases().on_system(NDPSystem(scaled_config(64)))
    assert bench.hermetic() == {
        "NDPBRIDGE_SANITIZE": "1", "NDPBRIDGE_SHARDS": "2",
    }
    Phases().on_system(NDPSystem(scaled_config(64)))


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig10-128u",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        bench.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER
