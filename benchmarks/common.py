"""Shared infrastructure for the per-figure benchmark harness.

Every benchmark regenerates one table/figure of the paper's evaluation
(Section VIII).  Default sizes are reduced-but-faithful so the whole
harness runs in minutes of pure Python; two environment knobs grow runs
toward paper scale:

* ``NDPBRIDGE_BENCH_UNITS`` -- NDP unit count (64..1024, default 128;
  512 is the paper's Table-I system),
* ``NDPBRIDGE_BENCH_SCALE`` -- workload size multiplier (default 1.0).

Results are printed as aligned text tables mirroring the paper's figure
series; assertions check the qualitative *shape* (who wins, roughly by
how much), never absolute cycle counts.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

from repro import Design, make_app, run_app
from repro.analysis import RunMetrics
from repro.analysis.report import geomean
from repro.config import SystemConfig, scaled_config

BENCH_UNITS = int(os.environ.get("NDPBRIDGE_BENCH_UNITS", "128"))
BENCH_SCALE = float(os.environ.get("NDPBRIDGE_BENCH_SCALE", "1.0"))

#: The paper's application order (Section VII).
ALL_APPS = ["ll", "ht", "tree", "spmv", "bfs", "sssp", "pr", "wcc"]

#: Fast subset used by the parameter sweeps of Fig. 16.
SWEEP_APPS = ["ll", "tree", "pr"]

#: Seed shared by all benchmark runs (results are fully deterministic).
BENCH_SEED = 17


def bench_config(
    design: Design, units: Optional[int] = None
) -> SystemConfig:
    """The benchmark system configuration for one design point."""
    return scaled_config(units or BENCH_UNITS, design, seed=BENCH_SEED)


def run_one(
    app_name: str,
    design: Design,
    config: Optional[SystemConfig] = None,
    scale: Optional[float] = None,
) -> RunMetrics:
    """Run one (app, design) pair and return its metrics (verified)."""
    app = make_app(app_name, scale=scale or BENCH_SCALE, seed=BENCH_SEED)
    cfg = config if config is not None else bench_config(design)
    return run_app(app, cfg).metrics


def format_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render an aligned text table (the bench harness's 'figure')."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in str_rows)) if str_rows
        else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [f"\n=== {title} ==="]
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def speedups_vs(
    results: Dict[str, Dict[str, RunMetrics]], baseline: str
) -> Dict[str, Dict[str, float]]:
    """Per-app speedup of every design over ``baseline``."""
    out: Dict[str, Dict[str, float]] = {}
    for app_name, per_design in results.items():
        base = per_design[baseline].makespan
        out[app_name] = {
            d: base / m.makespan for d, m in per_design.items()
        }
    return out


def run_matrix(
    apps: Sequence[str],
    designs: Sequence[Design],
    config_of=None,
    scale: Optional[float] = None,
) -> Dict[str, Dict[str, RunMetrics]]:
    """Run the (app x design) matrix; ``config_of(design)`` overrides.

    Cells fan out over a process pool and hit the on-disk result cache
    (see :mod:`repro.exec`); ``NDPBRIDGE_JOBS`` and
    ``NDPBRIDGE_CACHE_DIR`` / ``NDPBRIDGE_CACHE=0`` control both.
    """
    from repro.exec import run_matrix as exec_run_matrix

    return exec_run_matrix(
        apps,
        designs,
        config_of=config_of if config_of is not None else bench_config,
        scale=scale if scale is not None else BENCH_SCALE,
        seed=BENCH_SEED,
    )
