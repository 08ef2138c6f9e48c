"""The repository's benchmark: one workload, timed end to end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig10-128u --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` repeats whole passes of the workload, back to back in this
one process (a closed loop: no threads, no process pool), until
``--seconds`` have elapsed, and reports the median over passes of each
end-to-end metric (host time):

* ``wall_s``: one pass, from its first ``make_app`` to its last verified
  ``collect_metrics``;
* ``setup_s``: ``make_app`` + ``build_system`` + ``attach`` +
  ``seed_tasks``, summed over the pass's cells;
* ``run_s``: time inside the simulate calls, summed over cells;
* ``peak_rss_mb``: peak resident memory of this process, which runs
  only this workload.

``checkpoint_s`` (``snapshot`` + ``fork``, ``snapshot-fork`` only) and
``fail_ratio`` are printed with them.  They are not in the result line,
which must carry metrics every workload reports and that are never 0.

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of :mod:`perfbench.layers`; the result line carries
those of ``PER_LAYER``, the open-loop latencies are printed and written
to the report only.  The traced pass's simulated outputs must equal the
untraced ones; its spans are written to
``perfbench/out/trace-<workload>-seed<seed>.json`` (Chrome trace-event
format).

The correctness gate: a cell fails when it raises, when ``verify()``
fails, when an open-loop stream does not drain, when a fork differs from
the run-through, when its simulated outputs differ from those of the
same cell in the first pass, or, traced, when some of its events were
dispatched outside the tracing wrappers.  Failed cells count in
``failed`` and the process exits 1.  A full report, with the environment
the run saw, goes to ``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.

Between cells ``gc.collect()`` runs outside the timed intervals, so each
cell starts from the same heap instead of paying for the previous
cell's garbage at a random point.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

if __name__ == "__main__":
    # Run as a script: the package lives at the checkout root and the
    # simulator under src/, in place of this script's own directory.
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no simulator source under {ROOT / 'src'}")
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import (  # noqa: E402
    LATENCY_TENANTS, PER_LAYER, cell_counters, latency_metric, metric_units,
    per_layer,
)
from perfbench.tracing import SIMULATE, TracedPhases, Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, Phases, build_cells,
)

#: Unit of each end-to-end metric in the result line.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}


def environment(cleared: Dict[str, str]) -> Dict[str, Any]:
    """What the run saw: host, interpreter, code version, knobs."""
    sha: Optional[str] = None  # a plain checkout: see source_sha256
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "NDPBRIDGE_env_cleared": cleared,
    }


def hermetic() -> Dict[str, str]:
    """Clear every ``NDPBRIDGE_*`` knob before any ``Simulator`` exists.

    Cells call the serial engine directly and never touch the result
    cache, so the knobs could only change the program measured (the
    sanitizer, for one); they are recorded, then removed.
    """
    cleared = {k: v for k, v in os.environ.items()
               if k.startswith("NDPBRIDGE_")}
    for key in cleared:
        del os.environ[key]
    return dict(sorted(cleared.items()))


class Pass:
    """One pass over a workload's cells."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.buckets: Counter = Counter()
        self.outputs: Dict[str, Optional[Dict[str, Any]]] = {}
        self.failures: List[str] = []
        self.counts: Counter = Counter()
        self.latency: Dict[str, float] = {}
        self.snapshot_bytes = 0


def run_pass(cells: List[Any], make_phases: Callable[[], Any],
             tracer: Any = None, measure: bool = False) -> Pass:
    """Execute every cell once; ``measure`` also reads work counters,
    latencies and snapshot sizes (outside the timed intervals).

    Traced, a cell also fails when some of its events were dispatched
    without the tracing wrapper: their time would be charged to
    ``sim.self_s`` unseen.
    """
    result = Pass()
    for cell in cells:
        done = None  # drop the previous cell's system before collecting
        gc.collect()
        if tracer is not None:
            tracer.cell = cell.label
            dispatched = tracer.dispatched
        phases = make_phases()
        t0 = time.perf_counter()
        try:
            done = cell.execute(phases)
        except Exception as exc:  # the gate records every failure
            result.failures.append(f"{cell.label}: {type(exc).__name__}: {exc}")
            result.outputs[cell.label] = None
            continue
        finally:
            result.wall += time.perf_counter() - t0
            result.buckets.update(phases.seconds)
        result.outputs[cell.label] = done.outputs()
        if tracer is not None:
            unwrapped = done.system.sim.events_processed - (
                tracer.dispatched - dispatched
            )
            if unwrapped:
                result.failures.append(
                    f"{cell.label}: {unwrapped} events dispatched outside "
                    "the tracing wrappers"
                )
        if measure:
            result.counts.update(cell_counters(done.system, done.metrics))
            if done.snapshot is not None and tracer is None:
                result.snapshot_bytes += done.snapshot.size_bytes()
            if cell.openloop is not None and cell.label.endswith("/x1"):
                for tenant in LATENCY_TENANTS:
                    result.latency[latency_metric(cell.design.value, tenant)] = (
                        done.metrics.extra[f"lat/{tenant}/p990"]
                    )
    return result


def gate(passes: List[Pass]) -> List[str]:
    """Every failure, including outputs that differ from the first pass."""
    failures = [f for p in passes for f in p.failures]
    first = passes[0].outputs
    for n, later in enumerate(passes[1:], start=2):
        for label, outputs in later.outputs.items():
            if outputs is not None and first.get(label) is not None \
                    and outputs != first[label]:
                failures.append(
                    f"{label}: pass {n} simulated outputs differ from pass 1"
                )
    return failures


def timed_run(cells: List[Any], seconds: float) -> Dict[str, Any]:
    passes: List[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(run_pass(cells, Phases))
        if time.perf_counter() >= deadline:
            break
    per_pass = {
        "wall_s": [p.wall for p in passes],
        "setup_s": [p.buckets["setup"] for p in passes],
        "run_s": [p.buckets["run"] for p in passes],
        "checkpoint_s": [p.buckets["checkpoint"] for p in passes],
    }
    metrics = {name: statistics.median(v) for name, v in per_pass.items()}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    return {"passes": passes, "per_pass": per_pass, "metrics": metrics}


def traced_run(cells: List[Any], workload: str, seed: int) -> Dict[str, Any]:
    untraced = run_pass(cells, Phases, measure=True)
    tracer = Tracer()
    traced = run_pass(cells, lambda: TracedPhases(tracer), tracer=tracer,
                      measure=True)
    values, notes = per_layer(
        tracer, traced.counts,
        untraced_run_s=untraced.buckets["run"],
        untraced_wall_s=untraced.wall,
        traced_wall_s=traced.wall,
        snapshot_bytes=untraced.snapshot_bytes,
        latency=traced.latency,
    )
    if traced.counts != untraced.counts:
        traced.failures.append("traced work counters differ from untraced")
    # Holds by construction (every child of an in-simulate span is in
    # simulate); what it cannot see, events that bypass the wrappers,
    # run_pass checks per cell.
    simulate = tracer.total_s[SIMULATE]
    assert abs(sum(tracer.self_s.values()) - simulate) <= 1e-6 * max(
        1.0, simulate
    ), "layer self times do not add up to sim.run"
    path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.export_chrome(path, {"workload": workload, "seed": seed})
    return {"passes": [untraced, traced], "metrics": values, "notes": notes,
            "trace_file": str(path.relative_to(ROOT))}


def fmt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    cleared = hermetic()

    env = environment(cleared)
    cells = build_cells(args.workload, args.seed)

    # Warm-up: the same cells at the test size, so lazy imports and
    # first-call costs land outside the measured passes.
    warmup = build_cells(args.workload, args.seed, size="tiny")
    failures = []
    for cell in warmup + cells:
        try:
            cell.prepare()
        except Exception as exc:  # the gate records every failure
            failures.append(
                f"{cell.label} (run-through): {type(exc).__name__}: {exc}"
            )
    if not failures:
        failures = [f"warm-up {f}" for f in run_pass(warmup, Phases).failures]
    attempted = len(warmup) + sum(1 for c in warmup + cells if c.fork)
    if failures:
        out: Dict[str, Any] = {"passes": [], "metrics": {}}
    elif args.trace:
        out = traced_run(cells, args.workload, args.seed)
    else:
        out = timed_run(cells, args.seconds)
    passes: List[Pass] = out["passes"]
    if passes:
        failures = gate(passes)
    attempted += len(cells) * len(passes)
    failed = len(failures)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {attempted} cells attempted, "
          f"{failed} failed")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for failure in failures:
        print(f"  FAILED {failure}")
    if args.trace:
        units = {k: v[0] for k, v in metric_units().items()}
    else:
        units = dict(END_TO_END)
        if args.workload == "snapshot-fork":
            units["checkpoint_s"] = "s"
    for name, unit in units.items():
        value = out["metrics"].get(name)
        samples = out.get("per_pass", {}).get(name)
        extra = f"  passes {[round(s, 4) for s in samples]}" if samples else ""
        note = out.get("notes", {}).get(name)
        extra += f"  ({note})" if note else ""
        print(f"  {name:<36} {fmt(value):>12} {unit}{extra}")

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "attempted": attempted,
        "failed": failed, "failures": failures,
        "metrics": {n: {"value": out["metrics"].get(n), "unit": u}
                    for n, u in units.items()},
        "notes": out.get("notes", {}), "per_pass": out.get("per_pass", {}),
        "trace_file": out.get("trace_file"),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    # The result line carries the metrics BENCHMARK.json names.  A value
    # that is absent (None, its reason in the report's notes) is left
    # out rather than written as a number it never had.
    names = PER_LAYER if args.trace else END_TO_END
    reported = {
        name: {"value": out["metrics"][name], "unit": units[name]}
        for name in names
        if out["metrics"].get(name) is not None
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
