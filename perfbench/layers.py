"""Per-layer metrics: counts read from finished systems plus traced time.

:func:`cell_counters` reads one finished cell's work counts from its
public statistics (``system.stats``, ``sim.events_processed``, the L1
tag stores and the message buffers' drop counts).  :func:`per_layer`
combines the summed counters with a :class:`~perfbench.tracing.Tracer`
into the named metrics: those of :data:`PER_LAYER` (``BENCHMARK.json``'s
``per_layer``, which every workload reports) plus the open-loop
latencies, which only ``openloop-tree`` has.

A ratio is reported with its base; a zero base is never divided (see
:func:`ratio`), and an absent value is ``None`` with a note saying why.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Any, Dict, Optional, Tuple

from repro.messages.buffers import MessageBuffer
from repro.messages.mailbox import Mailbox
from repro.state.snapshot import component_registry

from .tracing import SIMULATE, Tracer

_SCOPED = re.compile(r"^(unit|bank|bridge)(\d+)\.(\w+)$")

#: Layers whose self time inside the simulate calls is reported; any
#: other layer's lands in ``other.self_s``.
LAYERS = (
    "sim", "runtime", "runtime.requests", "ndp", "dram", "bridge",
    "balance", "messages", "links",
)

#: (unit, better) of every per-layer metric of the result line; the
#: latency metrics of the open-loop cells are added by
#: :func:`metric_units`.
PER_LAYER = {
    "sim.events": ("count", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.ns_per_event": ("ns", "lower"),
    "runtime.build_s": ("s", "lower"),
    "runtime.attach_seed_s": ("s", "lower"),
    "runtime.self_s": ("s", "lower"),
    "runtime.requests.self_s": ("s", "lower"),
    "apps.make_s": ("s", "lower"),
    "apps.verify_s": ("s", "lower"),
    "ndp.self_s": ("s", "lower"),
    "ndp.accept_task.calls": ("count", "lower"),
    "ndp.collect_state.calls": ("count", "lower"),
    "ndp.collect_state.self_s": ("s", "lower"),
    "ndp.tasks": ("count", "lower"),
    "ndp.tasks_forwarded": ("count", "lower"),
    "ndp.tasks_bounced": ("count", "lower"),
    "ndp.mailbox_stall_events": ("count", "lower"),
    "ndp.l1.hit_ratio": ("ratio", "higher"),
    "dram.accesses": ("count", "lower"),
    "dram.self_s": ("s", "lower"),
    "dram.row_hit_ratio": ("ratio", "higher"),
    "dram.busy_cycles": ("cycles", "lower"),
    "bridge.self_s": ("s", "lower"),
    "bridge.l1.message_rounds": ("count", "lower"),
    "bridge.l1.state_rounds": ("count", "lower"),
    "bridge.l2.message_rounds": ("count", "lower"),
    "bridge.useful_round_ratio": ("ratio", "higher"),
    "bridge.backup_overflows": ("count", "lower"),
    "bridge.bytes": ("bytes", "lower"),
    "balance.self_s": ("s", "lower"),
    "balance.plan.calls": ("count", "lower"),
    "balance.plan_yield": ("ratio", "higher"),
    "balance.schedule_commands": ("count", "higher"),
    "balance.O.schedule_commands": ("count", "higher"),
    "balance.blocks_lent": ("count", "higher"),
    "messages.self_s": ("s", "lower"),
    "messages.task": ("count", "lower"),
    "messages.data": ("count", "lower"),
    "messages.dropped": ("count", "lower"),
    "links.self_s": ("s", "lower"),
    "links.bytes": ("bytes", "lower"),
    "links.busy_cycles": ("cycles", "lower"),
    "state.capture_s": ("s", "lower"),
    "state.fork_s": ("s", "lower"),
    "state.snapshot_mb": ("MB", "lower"),
    "analysis.collect_s": ("s", "lower"),
    "analysis.makespan_cycles": ("cycles", "lower"),
    "other.self_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

LATENCY_DESIGNS = ("C", "B", "W", "O")
LATENCY_TENANTS = ("hot", "burst")


def latency_metric(design: str, tenant: str) -> str:
    return f"analysis.lat.{design}.{tenant}.p99_cycles"


def metric_units() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    units = dict(PER_LAYER)
    for design in LATENCY_DESIGNS:
        for tenant in LATENCY_TENANTS:
            units[latency_metric(design, tenant)] = ("cycles", "lower")
    return units


def ratio(numerator: float, base: float) -> Tuple[Optional[float], float]:
    """``(numerator / base, base)``, or ``(None, 0)`` for a zero base."""
    if base == 0:
        return None, base
    return numerator / base, base


def cell_counters(system: Any, metrics: Any) -> Counter:
    """Work counts of one finished cell, by counter name."""
    out: Counter = Counter()
    out["sim.events"] = system.sim.events_processed
    out["ndp.tasks"] = metrics.tasks_executed
    out["messages.task"] = metrics.task_messages
    out["messages.data"] = metrics.data_messages
    out["analysis.makespan_cycles"] = metrics.makespan
    counters = system.stats.counters_matching("")
    for key, value in counters.items():
        scoped = _SCOPED.match(key)
        if scoped is not None:
            out[f"{scoped.group(1)}.{scoped.group(3)}"] += value
        elif key.startswith("bridge_l2."):
            out[f"l2.{key.split('.', 1)[1]}"] += value
        if key.endswith(".transfers"):
            # Every Link, and only a Link, registers <name>.transfers.
            link = key[:-len(".transfers")]
            out["links.bytes"] += counters[f"{link}.bytes"]
            out["links.busy_cycles"] += counters[f"{link}.busy_cycles"]
            if link.startswith("bridge"):
                out["bridge.bytes"] += counters[f"{link}.bytes"]
    out[f"balance.{system.config.design.value}.schedule_commands"] = (
        out["bridge.schedule_commands"] + out["l2.schedule_commands"]
    )
    for unit in system.units:
        out["l1.hits"] += unit.cache.hits
        out["l1.misses"] += unit.cache.misses
    for obj in component_registry(system).values():
        if isinstance(obj, (Mailbox, MessageBuffer)):
            out["messages.dropped"] += obj.dropped_messages
    return out


def per_layer(
    tracer: Tracer,
    counts: Counter,
    untraced_run_s: float,
    untraced_wall_s: float,
    traced_wall_s: float,
    snapshot_bytes: int,
    latency: Dict[str, float],
) -> Tuple[Dict[str, Optional[float]], Dict[str, str]]:
    """The per-layer metrics, and a note giving the base of every ratio
    and the reason for every absent value, keyed by metric name."""
    self_s = tracer.self_s
    total_s = tracer.total_s
    calls = tracer.calls
    notes: Dict[str, str] = {}
    values: Dict[str, Optional[float]] = {}

    def put_ratio(name: str, numerator: float, base: float,
                  base_name: str) -> None:
        values[name], _ = ratio(numerator, base)
        notes[name] = f"base: {base_name} = {base:.6g}"
        if values[name] is None:
            notes[name] += ", not divided"

    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    values["other.self_s"] = sum(
        v for layer, v in self_s.items() if layer not in LAYERS
    )
    notes["runtime.self_s"] = (
        "runtime callbacks inside simulate; construction is runtime.build_s"
    )
    values["sim.events"] = counts["sim.events"]
    put_ratio("sim.ns_per_event", untraced_run_s * 1e9,
              counts["sim.events"], "sim.events")
    values["runtime.build_s"] = total_s["runtime.build"]
    values["runtime.attach_seed_s"] = total_s["runtime.attach_seed"]
    values["apps.make_s"] = total_s["apps.make"]
    values["apps.verify_s"] = total_s["apps.verify"]
    values["ndp.accept_task.calls"] = calls["NDPUnit.accept_task"]
    values["ndp.collect_state.calls"] = calls["NDPUnit.collect_state"]
    values["ndp.collect_state.self_s"] = tracer.self_by_name[
        "NDPUnit.collect_state"
    ]
    values["ndp.tasks"] = counts["ndp.tasks"]
    for name in ("tasks_forwarded", "tasks_bounced", "mailbox_stall_events"):
        values[f"ndp.{name}"] = counts[f"unit.{name}"]
    put_ratio("ndp.l1.hit_ratio", counts["l1.hits"],
              counts["l1.hits"] + counts["l1.misses"], "L1 accesses")
    values["dram.accesses"] = (
        counts["bank.core_accesses"] + counts["bank.bridge_accesses"]
    )
    put_ratio("dram.row_hit_ratio", counts["bank.row_hits"],
              counts["bank.row_hits"] + counts["bank.row_misses"],
              "row hits + row misses")
    values["dram.busy_cycles"] = counts["bank.busy_cycles"]
    values["bridge.l1.message_rounds"] = counts["bridge.message_rounds"]
    values["bridge.l1.state_rounds"] = counts["bridge.state_rounds"]
    values["bridge.l2.message_rounds"] = counts["l2.message_rounds"]
    put_ratio("bridge.useful_round_ratio",
              counts["bridge.message_rounds"] - counts["bridge.wasted_gathers"],
              counts["bridge.message_rounds"], "bridge.l1.message_rounds")
    values["bridge.backup_overflows"] = counts["bridge.backup_overflows"]
    values["bridge.bytes"] = counts["bridge.bytes"]
    values["balance.plan.calls"] = calls["SchedulingPolicy.plan"]
    put_ratio("balance.plan_yield", tracer.truthy["SchedulingPolicy.plan"],
              calls["SchedulingPolicy.plan"], "balance.plan.calls")
    values["balance.schedule_commands"] = (
        counts["bridge.schedule_commands"] + counts["l2.schedule_commands"]
    )
    values["balance.O.schedule_commands"] = (
        counts["balance.O.schedule_commands"]
    )
    values["balance.blocks_lent"] = counts["unit.blocks_lent"]
    for name in ("messages.task", "messages.data", "messages.dropped",
                 "links.bytes", "links.busy_cycles",
                 "analysis.makespan_cycles"):
        values[name] = counts[name]
    values["state.capture_s"] = total_s["state.capture"]
    values["state.fork_s"] = total_s["state.fork"]
    values["state.snapshot_mb"] = snapshot_bytes / 2**20
    values["analysis.collect_s"] = total_s["analysis.collect"]
    values["trace.run_s"] = total_s[SIMULATE]
    put_ratio("trace.overhead_ratio", traced_wall_s, untraced_wall_s,
              "untraced wall_s")
    for design in LATENCY_DESIGNS:
        for tenant in LATENCY_TENANTS:
            name = latency_metric(design, tenant)
            values[name] = latency.get(name)
            if values[name] is None:
                notes[name] = "absent: the workload has no open-loop cell"
    return values, notes
