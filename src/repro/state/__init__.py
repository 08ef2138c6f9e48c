"""Deterministic snapshot/restore of a live simulation.

:func:`~repro.state.snapshot.snapshot` freezes a live system (event
queue, component attributes, RNG streams, sanitizer and auditor
counters, tracker state) into a re-forkable
:class:`~repro.state.snapshot.SystemSnapshot`: one in-memory pickle
stream (:mod:`repro.state.clone`).
:func:`~repro.state.snapshot.restore` thaws an independent live
system that continues bit-identically to an uninterrupted run.  The
static half -- the ST rules proving every byte of mutable state is
enumerable -- lives in :mod:`repro.analyze`.
"""

from .snapshot import (
    ShardedSnapshot,
    SnapshotError,
    SystemSnapshot,
    component_registry,
    restore,
    run_app_with_snapshot,
    snapshot,
)

__all__ = [
    "ShardedSnapshot",
    "SnapshotError",
    "SystemSnapshot",
    "component_registry",
    "restore",
    "run_app_with_snapshot",
    "snapshot",
]
