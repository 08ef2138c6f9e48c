"""Snapshot/restore subsystem: the run-through equivalence oracle.

The contract under test (docs/ARCHITECTURE.md, "State inventory &
checkpointing"): pausing any run at any cycle, freezing it with
:func:`repro.state.snapshot.snapshot`, and finishing from the restored
clone is *bit-identical* to never having paused -- same makespan, same
event counts, every metric -- across the full app x design matrix,
plain and sanitized, serial and sharded.  A snapshot is also re-forkable
(each fork is independent) and refuses unsnapshottable state loudly.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import make_app
from repro.config import Design, scaled_config, tiny_config
from repro.runtime.runner import build_system, run_app
from repro.state.snapshot import (
    SnapshotError,
    live_manifest_digest,
    restore,
    run_app_with_snapshot,
    snapshot,
    verify_inventory,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

APPS = ["ll", "ht", "tree", "spmv", "bfs", "sssp", "pr", "wcc"]
NDP_DESIGNS = [Design.C, Design.B, Design.W, Design.O]


def _metrics(result):
    return dataclasses.asdict(result.metrics)


def _mid_run(app, design, scale=0.1, seed=7):
    """Baseline run plus a mid-makespan pause cycle for the same cell."""
    cfg = tiny_config(design)
    base = run_app(make_app(app, scale=scale, seed=seed), cfg)
    return cfg, base, max(1, base.metrics.makespan // 2)


# ----------------------------------------------------------------------
# the oracle: snapshot+resume == run-through, full matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("design", NDP_DESIGNS)
@pytest.mark.parametrize("app", APPS)
def test_snapshot_resume_matches_run_through(app, design):
    cfg, base, at = _mid_run(app, design)
    forked, snap = run_app_with_snapshot(
        make_app(app, scale=0.1, seed=7), cfg, snapshot_at=at
    )
    assert _metrics(forked) == _metrics(base)
    assert snap.meta["cycle"] == at
    assert snap.meta["version"] == 1


def test_snapshot_resume_under_sanitizer(monkeypatch):
    """Sanitizer and auditor wrappers survive the freeze and thaw."""
    monkeypatch.setenv("NDPBRIDGE_SANITIZE", "1")
    cfg, base, at = _mid_run("tree", Design.O)
    forked, snap = run_app_with_snapshot(
        make_app("tree", scale=0.1, seed=7), cfg, snapshot_at=at
    )
    assert _metrics(forked) == _metrics(base)
    assert snap.meta["sanitize"] is True
    # The auditor's conservation counters are part of the manifest.
    assert "auditor" in snap.manifest()


def test_snapshot_is_reforkable():
    """One snapshot, two forks: both finish identically, independently."""
    cfg, base, at = _mid_run("bfs", Design.B)
    app = make_app("bfs", scale=0.1, seed=7)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    system.start().advance(until=at)
    snap = snapshot(system, app)

    results = []
    for _ in range(2):
        fsys, fapp = restore(snap)
        fsys.finish()
        assert fapp.verify()
        results.append(fsys.makespan)
    assert results[0] == results[1] == base.metrics.makespan
    # ...and the paused original still finishes on its own.
    system.finish()
    assert system.makespan == base.metrics.makespan


def test_fork_is_independent_of_original():
    """Running a fork to completion must not advance the original."""
    cfg, _base, at = _mid_run("ll", Design.W)
    app = make_app("ll", scale=0.1, seed=7)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    system.start().advance(until=at)
    paused_events = system.sim.events_processed
    snap = snapshot(system, app)
    fsys, _fapp = restore(snap)
    fsys.finish()
    assert system.sim.events_processed == paused_events
    assert fsys.sim.events_processed > paused_events


def test_manifest_is_deterministic():
    """Two identical runs paused at the same cycle -> same digest."""
    digests = []
    for _ in range(2):
        cfg = tiny_config(Design.O)
        app = make_app("tree", scale=0.1, seed=7)
        system = build_system(cfg)
        app.attach(system)
        app.seed_tasks(system)
        system.start().advance(until=5000)
        digests.append(snapshot(system, app).manifest_digest())
        system.finish()
    assert digests[0] == digests[1]


def test_live_manifest_digest_matches_snapshot():
    """The race detector digests the live system without cloning it;
    that digest must equal the snapshot's, paused and finished."""
    cfg = tiny_config(Design.O)
    app = make_app("tree", scale=0.1, seed=7)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    system.start().advance(until=5000)
    for _ in range(2):
        assert live_manifest_digest(system) == (
            snapshot(system, app).manifest_digest()
        )
        system.finish()


def test_manifest_encodes_queue_symbolically():
    cfg = tiny_config(Design.O)
    app = make_app("tree", scale=0.1, seed=7)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    system.start().advance(until=5000)
    manifest = snapshot(system, app).manifest()
    assert len(manifest["queue"]) > 0
    # Every queue entry names its owner through the component registry
    # as [time, seq, "owner-path.method"], never a raw object id.
    for _time, _seq, desc in manifest["queue"]:
        assert "0x" not in desc
    system.finish()


def test_unsnapshottable_attribute_raises(tmp_path):
    cfg = tiny_config(Design.B)
    app = make_app("ll", scale=0.1, seed=7)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    system.start().advance(until=1000)
    log = tmp_path / "trace.log"
    system.units[0].trace_fh = log.open("w")
    try:
        with pytest.raises(SnapshotError):
            snapshot(system, app)
    finally:
        system.units[0].trace_fh.close()


def test_verify_inventory_clean_on_live_system():
    """Every live attribute is statically declared (ST001's promise)."""
    from repro.analyze import build_tree_inventory

    inventory = build_tree_inventory([REPO_ROOT / "src"])
    cfg = tiny_config(Design.O)
    app = make_app("tree", scale=0.1, seed=7)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    system.start().advance(until=5000)
    problems = verify_inventory(system, inventory)
    assert problems == [], "\n".join(problems)
    system.finish()


def test_fresh_system_allocates_no_per_set_tables():
    """L1 and dataBorrowed sets are created on first touch: a fresh
    system, and a fork of it, hold no per-set containers (the deep
    clone pays for every one)."""
    from repro.balance.metadata import DataBorrowedTable
    from repro.ndp.cache import L1Cache
    from repro.state.snapshot import component_registry

    def tables_by_owner(system):
        registry = component_registry(system)
        found = {}
        for path, obj in registry.items():
            if isinstance(obj, (L1Cache, DataBorrowedTable)):
                owner = type(registry[path.rsplit(".", 1)[0]]).__name__
                key = (owner, type(obj).__name__)
                found[key] = found.get(key, 0) + 1
                assert obj._sets == {}, f"{path} allocated sets eagerly"
        return found

    system = build_system(scaled_config(128, Design.O, seed=7))
    found = tables_by_owner(system)
    assert found[("NDPUnit", "L1Cache")] == 128
    assert found[("NDPUnit", "DataBorrowedTable")] == 128
    assert found[("Level1Bridge", "DataBorrowedTable")] >= 1
    assert found[("Level2Bridge", "DataBorrowedTable")] == 1
    forked, _ = snapshot(system).fork()
    assert tables_by_owner(forked) == found


def test_run_app_does_not_import_snapshot_machinery():
    """Zero fast-path cost: a plain run never loads repro.state."""
    probe = (
        "import sys\n"
        "from repro import Design, make_app, run_app\n"
        "from repro.config import tiny_config\n"
        "run_app(make_app('ll', scale=0.05, seed=1), "
        "tiny_config(Design.B))\n"
        "assert not any(m.startswith('repro.state') for m in sys.modules),"
        " 'plain run imported snapshot machinery'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# sharded: barrier snapshots
# ----------------------------------------------------------------------
def test_sharded_barrier_snapshot_resume_matches_run_through():
    from repro.runtime.shards import run_app_sharded, resolve_shards
    from repro.sim.partition import plan_partition
    from repro.state.snapshot import BarrierSnapshotter, resume_app_sharded

    cfg = scaled_config(128, Design.O)
    base = run_app_sharded(
        "tree", cfg, scale=0.1, seed=7, shards=2,
        verify=False, parallel=False,
    )
    plan = plan_partition(cfg, resolve_shards(cfg, 2))
    snapper = BarrierSnapshotter(
        at_barrier=3, app="tree", scale=0.1, seed=7, verify=False,
        config=cfg, plan=plan,
    )
    hooked = run_app_sharded(
        "tree", cfg, scale=0.1, seed=7, shards=2,
        verify=False, parallel=False, barrier_hook=snapper,
    )
    # Observation only: the hook must not perturb the hooked run itself.
    assert hooked.metrics.as_dict() == base.metrics.as_dict()
    assert snapper.snapshot is not None

    resumed = resume_app_sharded(snapper.snapshot)
    assert resumed.metrics.as_dict() == base.metrics.as_dict()
    assert resumed.system.payloads == base.system.payloads
    assert resumed.system.windows == base.system.windows


def test_sharded_snapshot_is_reforkable():
    from repro.runtime.shards import run_app_sharded, resolve_shards
    from repro.sim.partition import plan_partition
    from repro.state.snapshot import BarrierSnapshotter, resume_app_sharded

    cfg = scaled_config(128, Design.O)
    plan = plan_partition(cfg, resolve_shards(cfg, 2))
    snapper = BarrierSnapshotter(
        at_barrier=2, app="tree", scale=0.1, seed=7, verify=False,
        config=cfg, plan=plan,
    )
    run_app_sharded(
        "tree", cfg, scale=0.1, seed=7, shards=2,
        verify=False, parallel=False, barrier_hook=snapper,
    )
    first = resume_app_sharded(snapper.snapshot)
    second = resume_app_sharded(snapper.snapshot)
    assert first.metrics.as_dict() == second.metrics.as_dict()


# ----------------------------------------------------------------------
# exec integration: snapshot-resume cells
# ----------------------------------------------------------------------
def test_exec_snapshot_cell_matches_plain_cell():
    from repro.exec.runner import CellRequest, execute_cells

    cfg = tiny_config(Design.O)
    plain = CellRequest(
        app="tree", config=cfg, scale=0.1, seed=7, verify=True,
    )
    snap = CellRequest(
        app="tree", config=cfg, scale=0.1, seed=7, verify=True,
        snapshot_at=5000,
    )
    assert plain.key != snap.key  # never alias the plain cache entry
    results = execute_cells([plain, snap], jobs=1, cache=None)
    assert dataclasses.asdict(results[0]) == dataclasses.asdict(results[1])


def test_exec_snapshot_cell_rejects_sharded():
    from repro.exec.runner import CellRequest, _execute_cell

    cfg = scaled_config(128, Design.O)
    request = CellRequest(
        app="tree", config=cfg, scale=0.1, seed=7, shards=2,
        snapshot_at=5000,
    )
    with pytest.raises(ValueError, match="serial"):
        _execute_cell(request)
