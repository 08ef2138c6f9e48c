"""The benchmark's workloads: seeded cells that call the public API directly.

A workload is a list of cells built from ``(workload, seed, size)``.  A
cell runs one simulation through ``make_app``, ``build_system``,
``attach``/``seed_tasks``, the simulate calls, ``verify`` and
``collect_metrics`` (plus ``snapshot``/``fork`` on ``snapshot-fork``),
never through ``run_app`` or the exec layer, so the result cache never
answers a cell and the serial engine always runs.

Every call is made inside a :class:`Phases` block, which charges its
host time to one end-to-end bucket (``setup``, ``run``, ``checkpoint``,
``verify``, ``collect``) and names the span the traced run records
around it.  A cell that raises, fails ``verify()``, leaves an open-loop
stream undrained, or forks to a result that differs from the
run-through raises :class:`CellFailure`.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.analysis.metrics import RunMetrics, collect_metrics
from repro.apps import make_app
from repro.config import Design, scaled_config
from repro.runtime.requests import OpenLoopApp
from repro.runtime.runner import build_system
from repro.runtime.system import NDPSystem
from repro.workloads.openloop import OpenLoopSpec, TenantSpec

FIG10_APPS = ("ll", "ht", "tree", "spmv", "bfs", "sssp", "pr", "wcc")
DESIGNS = (Design.C, Design.B, Design.W, Design.O)

#: Unit count and app scale of each workload.  ``bench`` is what
#: ``run.py`` measures, sized so one pass takes a few seconds on a
#: 2-core host; ``tiny`` only exists so the tests can push every cell
#: through the correctness gate quickly.
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "bench": {
        "fig10-128u": {"units": 128, "scale": 0.06},
        "tree-1024u-O": {"units": 1024, "scale": 1.0},
        "openloop-tree": {"units": 128, "scale": 0.35, "requests": 1.0},
        "snapshot-fork": {"units": 256, "scale": 0.35},
    },
    "tiny": {
        "fig10-128u": {"units": 64, "scale": 0.02},
        "tree-1024u-O": {"units": 128, "scale": 0.1},
        "openloop-tree": {"units": 64, "scale": 0.1, "requests": 0.1},
        "snapshot-fork": {"units": 64, "scale": 0.1},
    },
}

WORKLOADS = tuple(SIZES["bench"])

#: The open-loop stream of ``benchmarks/bench_openloop.py``: tenant
#: ``hot`` is Poisson whose Zipf skew shifts 0.6 -> 1.2 mid-run, tenant
#: ``burst`` is MMPP-2.  Gap factor 1.0 is the reference rate, 0.5 twice
#: the rate.
OPENLOOP_GAP_FACTORS = (1.0, 0.5)
_N_HOT, _N_BURST = 400, 200
_GAP_HOT, _GAP_BURST = 200.0, 400.0
_WARMUP, _SKEW_SHIFT_AT = 1000, 30000


class CellFailure(Exception):
    """A cell's result failed the correctness gate."""


class Phases:
    """Host-time accounting for one cell, by end-to-end bucket.

    ``with phases(bucket, span): ...`` adds the block's duration to
    ``seconds[bucket]``.  ``span`` names the call for the traced run
    (:class:`perfbench.tracing.TracedPhases`); untraced it is unused.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)

    @contextmanager
    def __call__(self, bucket: str, span: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[bucket] += time.perf_counter() - t0

    def on_system(self, system: Any) -> None:
        """Called once per system right after ``build_system``."""
        if type(system) is not NDPSystem or system.sim.sanitize:
            raise CellFailure(
                "benchmark cells must run the serial, unsanitized engine"
            )


@dataclass
class CellResult:
    """What one finished cell hands back to the runner."""

    label: str
    system: Any
    metrics: RunMetrics
    snapshot: Any = None

    def outputs(self) -> Dict[str, Any]:
        """The simulated outputs that must repeat exactly."""
        out = dict(self.metrics.as_dict())
        out["events"] = self.system.sim.events_processed
        return out


@dataclass
class Cell:
    """One (app, design, system size) simulation of a workload."""

    label: str
    app: str
    design: Design
    units: int
    scale: float
    seed: int
    openloop: Optional[OpenLoopSpec] = None
    #: ``snapshot-fork``: pause mid-run, snapshot, fork, finish the fork.
    fork: bool = False
    #: Fork cells only: pause cycle and run-through outputs, filled by
    #: :meth:`prepare`.
    pause_at: Optional[int] = None
    reference: Optional[Dict[str, Any]] = field(default=None, repr=False)

    @property
    def config(self):
        return scaled_config(self.units, self.design, seed=self.seed)

    def _setup(self, ph: Phases):
        with ph("setup", "apps.make"):
            app = make_app(self.app, scale=self.scale, seed=self.seed)
            if self.openloop is not None:
                app = OpenLoopApp(app, self.openloop)
        config = self.config
        with ph("setup", "runtime.build"):
            system = build_system(config)
        ph.on_system(system)
        with ph("setup", "runtime.attach_seed"):
            app.attach(system)
            app.seed_tasks(system)
        return app, system

    def _finish(self, ph: Phases, app, system) -> RunMetrics:
        with ph("verify", "apps.verify"):
            ok = app.verify()
        if not ok:
            raise CellFailure(f"{self.label}: verify() failed")
        with ph("collect", "analysis.collect"):
            metrics = collect_metrics(system, app.name)
            if self.openloop is not None:
                metrics.extra.update(app.latency_extra())
        if self.openloop is not None:
            extra = metrics.extra
            if extra["ol/completed"] != extra["ol/requests"]:
                raise CellFailure(
                    f"{self.label}: open-loop stream did not drain "
                    f"({extra['ol/completed']:.0f} of "
                    f"{extra['ol/requests']:.0f} requests)"
                )
        return metrics

    def execute(self, ph: Phases) -> CellResult:
        if self.fork:
            return self._execute_fork(ph)
        app, system = self._setup(ph)
        with ph("run", "sim.run"):
            system.run()
        return CellResult(self.label, system, self._finish(ph, app, system))

    def _execute_fork(self, ph: Phases) -> CellResult:
        from repro.state.snapshot import snapshot

        app, system = self._setup(ph)
        with ph("run", "sim.run"):
            system.start()
            system.advance(until=self.pause_at)
        with ph("checkpoint", "state.capture"):
            snap = snapshot(system, app)
        with ph("checkpoint", "state.fork"):
            system, app = snap.fork()
        with ph("run", "sim.run"):
            system.finish()
        result = CellResult(
            self.label, system, self._finish(ph, app, system), snap
        )
        if result.outputs() != self.reference:
            raise CellFailure(
                f"{self.label}: fork finished differently from the "
                "run-through"
            )
        return result

    def prepare(self) -> None:
        """``snapshot-fork``: run through once to fix the pause cycle.

        The run-through's outputs are the oracle every fork must match.
        """
        if not self.fork or self.reference is not None:
            return
        app, system = self._setup(Phases())
        system.run()
        result = CellResult(
            self.label, system, self._finish(Phases(), app, system)
        )
        self.reference = result.outputs()
        self.pause_at = max(1, result.metrics.makespan // 2)


def openloop_spec(gap_factor: float, requests: float = 1.0) -> OpenLoopSpec:
    """Two tenants at ``gap_factor`` x the reference arrival gaps."""
    return OpenLoopSpec(
        tenants=(
            TenantSpec(
                name="hot",
                n_requests=max(1, int(_N_HOT * requests)),
                mean_gap=_GAP_HOT * gap_factor,
                skew=((0, 0.6), (int(_SKEW_SHIFT_AT * requests), 1.2)),
            ),
            TenantSpec(
                name="burst",
                n_requests=max(1, int(_N_BURST * requests)),
                mean_gap=_GAP_BURST * gap_factor,
                arrival="bursty",
                burst_gap=_GAP_BURST * gap_factor / 5.0,
                skew=((0, 1.0),),
            ),
        ),
        warmup=int(_WARMUP * requests),
    )


def build_cells(workload: str, seed: int, size: str = "bench") -> List[Cell]:
    """The cells of ``workload`` for ``seed``, in execution order."""
    try:
        dims = SIZES[size][workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {list(WORKLOADS)}"
        ) from None
    units, scale = int(dims["units"]), dims["scale"]
    if workload == "fig10-128u":
        return [
            Cell(f"{app}/{d.value}", app, d, units, scale, seed)
            for app in FIG10_APPS
            for d in DESIGNS
        ]
    if workload == "tree-1024u-O":
        return [Cell("tree/O", "tree", Design.O, units, scale, seed)]
    if workload == "openloop-tree":
        return [
            Cell(
                f"ol-tree/{d.value}/x{1 / f:g}", "tree", d, units, scale,
                seed, openloop=openloop_spec(f, dims["requests"]),
            )
            for d in DESIGNS
            for f in OPENLOOP_GAP_FACTORS
        ]
    return [Cell("tree/O/fork", "tree", Design.O, units, scale, seed,
                 fork=True)]
