"""Deterministic snapshot/restore of a live simulation.

The snapshot contract (docs/ARCHITECTURE.md, "State inventory &
checkpointing"):

* :func:`snapshot` freezes a running :class:`~repro.runtime.system.NDPSystem`
  (and, when given, its attached application) into a
  :class:`SystemSnapshot`: the whole object graph -- event queue,
  component attributes, RNG streams, sanitizer and auditor counters,
  tracker state -- pickled once into one in-memory stream
  (:func:`repro.state.clone.freeze`).  The live system is untouched
  and keeps running ("capture and continue").
* :func:`restore` / :meth:`SystemSnapshot.fork` thaw an *independent*
  live system from the stream.  A snapshot can be forked any number of
  times; forks never share mutable state with each other or with the
  blob.
* The oracle is bit-identity: running a forked system to completion
  yields exactly the makespan, event count and metrics of the
  uninterrupted run.  ``tests/test_snapshot.py`` asserts this across
  the full app x design matrix, plain and sanitized.

:func:`system_manifest` encodes a system's state symbolically --
every queued callback as ``(owner id, method name)`` against a component
registry derived from the same attribute walk the static inventory
models, every RNG stream by name/seed digest -- so two snapshots of
identical states produce identical manifests even though the raw
streams differ.  :meth:`SystemSnapshot.manifest` applies it to one thaw
of the stream; :func:`live_manifest_digest` applies it to a live system,
with no clone, and gives the same digest.

Sharded runs snapshot at window barriers: :class:`BarrierSnapshotter`
hooks :class:`~repro.sim.sharded.ShardedSimulator`'s barrier loop,
freezing the per-shard runtimes plus the cross-shard ledger into a
:class:`ShardedSnapshot`; :func:`resume_app_sharded` replays the
remaining windows to the identical merged result.

Snapshots stay in memory, deliberately: the stream names classes and
functions through a side table of live objects, not by import path, so
it cannot outlive the process.  The format version
(:data:`SNAPSHOT_FORMAT_VERSION`) is carried in the meta block so a
future on-disk format can reject stale blobs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import types
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from .clone import Frozen
    from ..analyze.inventory import StateInventory

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "BarrierSnapshotter",
    "ShardedSnapshot",
    "SnapshotError",
    "SystemSnapshot",
    "component_registry",
    "live_manifest_digest",
    "resume_app_sharded",
    "restore",
    "run_app_with_snapshot",
    "snapshot",
    "system_manifest",
    "verify_inventory",
]

SNAPSHOT_FORMAT_VERSION = 1


class SnapshotError(RuntimeError):
    """A snapshot or restore could not be taken/applied."""


def _is_model_object(obj: Any) -> bool:
    """Objects owned by the simulation tree (never stdlib containers)."""
    if isinstance(obj, (type, types.ModuleType, types.FunctionType)):
        return False
    return type(obj).__module__.startswith("repro.")


def _attr_names(obj: Any) -> List[str]:
    """Instance attribute names: ``__dict__`` keys plus filled slots."""
    names = list(getattr(obj, "__dict__", ()) or ())
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()) or ():
            if slot not in ("__dict__", "__weakref__") and hasattr(obj, slot):
                names.append(slot)
    seen = set()
    out = []
    for name in names:
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def component_registry(root: Any, root_id: str = "system") -> Dict[str, Any]:
    """Deterministic owner-id -> object map over the model graph.

    Depth-first over instance attributes in sorted order, descending
    into lists/tuples by index and dicts by sorted key, registering
    every ``repro.*`` object under a stable path-like id
    (``system.units[3].sketch``).  The walk is a pure function of the
    object graph, so two identical systems produce identical
    registries -- the manifest and the queue re-encoding build on this.
    """
    registry: Dict[str, Any] = {}
    seen: Dict[int, str] = {}

    def visit(obj: Any, path: str) -> None:
        if id(obj) in seen:
            return
        seen[id(obj)] = path
        registry[path] = obj
        for name in sorted(_attr_names(obj)):
            try:
                value = getattr(obj, name)
            except AttributeError:  # pragma: no cover - slot race
                continue
            descend(value, f"{path}.{name}")

    def descend(value: Any, path: str) -> None:
        if _is_model_object(value):
            visit(value, path)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if _is_model_object(item):
                    visit(item, f"{path}[{i}]")
        elif isinstance(value, dict):
            for key in sorted(value, key=repr):
                item = value[key]
                if _is_model_object(item):
                    visit(item, f"{path}[{key!r}]")

    visit(root, root_id)
    return registry


def _describe_callback(payload: Any, owner_of: Dict[int, str]) -> str:
    """Symbolic (owner-id, method-name) encoding of one queue payload."""
    from ..sim.engine import Event

    if type(payload) is Event:
        inner = payload.callback
        return f"event:{_describe_callback(inner, owner_of)}"
    if isinstance(payload, types.MethodType):
        owner = owner_of.get(
            id(payload.__self__), type(payload.__self__).__name__
        )
        return f"{owner}.{payload.__func__.__name__}"
    if isinstance(payload, functools.partial):
        return f"partial:{_describe_callback(payload.func, owner_of)}"
    if isinstance(payload, types.FunctionType):
        owner = ""
        for cell in payload.__closure__ or ():
            try:
                contents = cell.cell_contents
            except ValueError:
                continue
            path = owner_of.get(id(contents))
            if path is not None:
                owner = f"@{path}"
                break
        return f"closure:{payload.__qualname__}{owner}"
    return f"callable:{type(payload).__name__}"


# ---------------------------------------------------------------------------
# serial snapshots


def _meta(sim: Any) -> Dict[str, Any]:
    """The snapshot meta block of a system paused at ``sim.now``."""
    return {
        "version": SNAPSHOT_FORMAT_VERSION,
        "cycle": sim.now,
        "seq": sim._seq,
        "events_processed": sim.events_processed,
        "pending_events": sim.pending_events,
        "sanitize": sim.sanitize,
    }


def system_manifest(system: Any, meta: Dict[str, Any]) -> Dict[str, Any]:
    """Deterministic symbolic encoding of a system's state.

    Queue entries become ``(time, seq, owner-id.method)`` strings,
    components become their sorted attribute inventories, RNG streams
    their (name, seed, state digest).  Two systems in identical
    simulation states yield identical manifests, whether live or thawed
    from a snapshot.
    """
    from ..sim.rng import DeterministicRNG

    registry = component_registry(system)
    owner_of = {id(obj): path for path, obj in registry.items()}
    sim = system.sim
    queue = [
        [time, seq, _describe_callback(payload, owner_of)]
        for time, seq, payload in sim.queue_entries()
    ]
    components = {
        path: {
            "class": type(obj).__name__,
            "attrs": sorted(_attr_names(obj)),
        }
        for path, obj in registry.items()
    }
    rng_streams = {
        path: {
            "name": obj.name,
            "seed": obj.seed,
            "digest": obj.state_digest(),
        }
        for path, obj in registry.items()
        if isinstance(obj, DeterministicRNG)
    }
    manifest: Dict[str, Any] = {
        "version": meta["version"],
        "cycle": meta["cycle"],
        "engine": {
            "now": sim.now,
            "seq": sim._seq,
            "events_processed": sim.events_processed,
            "pending_events": sim.pending_events,
            "cancel_purged": sim.cancel_purged,
            "scheduled_total": sim.scheduled_total,
            "sanitize": sim.sanitize,
        },
        "queue": queue,
        "components": components,
        "rng": rng_streams,
        "tracker": {
            "epoch": system.tracker.epoch,
            "created": system.tracker.total_created,
            "completed": system.tracker.total_completed,
            "finished": system.tracker.finished,
        },
    }
    if getattr(system, "auditor", None) is not None:
        auditor = system.auditor
        manifest["auditor"] = {
            "created_by_type": dict(
                sorted(auditor.created_by_type.items())
            ),
            "delivered_by_type": dict(
                sorted(auditor.delivered_by_type.items())
            ),
            "dropped_by_type": dict(
                sorted(auditor.dropped_by_type.items())
            ),
        }
    return manifest


def _digest(manifest: Dict[str, Any]) -> str:
    blob = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def live_manifest_digest(system: Any) -> str:
    """``snapshot(system).manifest_digest()`` without cloning ``system``."""
    return _digest(system_manifest(system, _meta(system.sim)))


# ---------------------------------------------------------------------------
# serial snapshots


@dataclass
class SystemSnapshot:
    """A frozen, re-forkable image of one running system (+ app).

    The image is one pickle stream (:class:`~repro.state.clone.Frozen`);
    ``fork()`` thaws it again, so every fork is independent of the blob
    and of every other fork.
    """

    meta: Dict[str, Any]
    _frozen: Frozen = field(repr=False)

    def fork(self) -> Tuple[Any, Any]:
        """An independent live (system, app) pair from the frozen image."""
        return self._frozen.thaw()

    def manifest(self) -> Dict[str, Any]:
        """:func:`system_manifest` of one thaw of the frozen image."""
        system, _app = self.fork()
        return system_manifest(system, self.meta)

    def manifest_digest(self) -> str:
        return _digest(self.manifest())

    def size_bytes(self) -> int:
        """Length of the frozen pickle stream."""
        return len(self._frozen.blob)


def snapshot(
    system: Any,
    app: Any = None,
    inventory: Optional[StateInventory] = None,
) -> SystemSnapshot:
    """Freeze a live system (and optionally its app) mid-run.

    The live objects are untouched.  When ``inventory`` is given the
    live attribute sets are first cross-checked against the static
    declaration inventory (:func:`verify_inventory`); a mismatch means
    the analyzer and the runtime disagree about where state lives, and
    the snapshot refuses rather than silently under-capturing.
    """
    if inventory is not None:
        problems = verify_inventory(system, inventory)
        if problems:
            raise SnapshotError(
                "live state disagrees with the static inventory: "
                + "; ".join(problems[:5])
            )
    # Imported here so that processes that never snapshot never load
    # pickle (the registry and manifest helpers above do not need it).
    from .clone import freeze

    return SystemSnapshot(meta=_meta(system.sim), _frozen=freeze((system, app)))


def restore(snap: SystemSnapshot) -> Tuple[Any, Any]:
    """An independent live (system, app) pair from a snapshot."""
    if snap.meta.get("version") != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format v{snap.meta.get('version')} is not "
            f"v{SNAPSHOT_FORMAT_VERSION}"
        )
    return snap.fork()


def verify_inventory(
    system: Any, inventory: StateInventory
) -> List[str]:
    """Cross-check live ``__dict__`` keys against the static inventory.

    For every registered model object whose class the inventory knows,
    every live instance attribute must be statically declared.
    Instance attributes that *shadow a class-level callable* are
    sanctioned instrumentation (the sanitizer's scheduling wrappers,
    the flow auditor's observation hooks) and are skipped -- they wrap
    behaviour, they do not carry model state of their own.
    """
    known: Dict[str, Any] = {}
    for mod in inventory.modules.values():
        for ci in mod.classes.values():
            known.setdefault(ci.name, ci)
    problems: List[str] = []
    for path, obj in component_registry(system).items():
        ci = known.get(type(obj).__name__)
        if ci is None:
            continue
        declared = inventory.declared_attrs(ci)
        declared = declared | set(ci.borrowed) | set(ci.owned)
        for attr in _attr_names(obj):
            if attr in declared:
                continue
            shadowed = getattr(type(obj), attr, None)
            if callable(shadowed) or isinstance(shadowed, property):
                continue  # instrumentation wrapper over a method
            problems.append(
                f"{path} ({type(obj).__name__}) holds undeclared "
                f"attribute '{attr}'"
            )
    return problems


def run_app_with_snapshot(
    app: Any,
    config: Any,
    snapshot_at: int,
    verify: bool = True,
    inventory: Optional[StateInventory] = None,
) -> Tuple[Any, SystemSnapshot]:
    """``run_app`` twin that snapshots at cycle ``snapshot_at``.

    Runs a fresh system to ``snapshot_at``, freezes it, then *forks the
    snapshot* and runs the fork to completion -- the returned
    ``RunResult`` comes entirely from the restored system, so comparing
    it against a plain ``run_app`` proves snapshot+restore is
    bit-identical to running through.  Returns ``(result, snapshot)``.
    """
    from ..analysis.metrics import collect_metrics
    from ..config import Design
    from ..runtime.runner import RunResult, VerificationError, build_system

    if config.design is Design.H:
        raise SnapshotError(
            "snapshots cover the NDP system model; design H runs on the "
            "host baseline"
        )
    system = build_system(config)
    app.attach(system)
    app.seed_tasks(system)
    system.start()
    system.advance(until=snapshot_at)
    snap = snapshot(system, app, inventory=inventory)
    forked_system, forked_app = snap.fork()
    forked_system.finish()
    if verify and not forked_app.verify():
        raise VerificationError(
            f"{forked_app.name} on design {config.design.value}: "
            "restored run does not match the reference"
        )
    metrics = collect_metrics(forked_system, forked_app.name)
    return (
        RunResult(app=forked_app, system=forked_system, metrics=metrics),
        snap,
    )


# ---------------------------------------------------------------------------
# sharded snapshots


@dataclass
class ShardedSnapshot:
    """A barrier-aligned image of a sharded run.

    Per-shard runtime blobs (each a complete sub-machine: system, app
    replica, boundary port) plus everything the coordinator needs to
    resume the barrier loop: undelivered boundary messages, the last
    reports, the cross-shard conservation ledger, and the window/barrier
    counters.
    """

    version: int
    app: Any
    scale: float
    seed: int
    verify: bool
    config: Any
    plan: Any
    windows: int
    barriers: int
    runtimes: Frozen = field(repr=False)
    reports: Tuple[Any, ...] = ()
    pending: Tuple[Any, ...] = ()
    exported: Dict[Tuple[int, int], int] = field(default_factory=dict)
    injected: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def fork_runtimes(self) -> List[Any]:
        """Independent live shard runtimes (blob stays re-forkable)."""
        return self.runtimes.thaw()


class BarrierSnapshotter:
    """Barrier hook capturing one :class:`ShardedSnapshot`.

    Pass as ``barrier_hook`` to
    :func:`~repro.runtime.shards.run_app_sharded`; the run continues
    normally after the capture (capture-and-continue), and the snapshot
    lands in :attr:`snapshot` -- or stays ``None`` when the run finished
    before barrier ``at_barrier``.
    """

    def __init__(
        self,
        at_barrier: int,
        app: Any,
        scale: float,
        seed: int,
        verify: bool,
        config: Any,
        plan: Any,
    ) -> None:
        self.at_barrier = at_barrier
        self._context = (app, scale, seed, verify, config, plan)
        self.snapshot: Optional[ShardedSnapshot] = None

    def __call__(
        self,
        engine: Any,
        transport: Any,
        reports: List[Any],
        pending: List[Any],
    ) -> None:
        if self.snapshot is not None or engine.barriers != self.at_barrier:
            return
        runtimes = getattr(transport, "_runtimes", None)
        if not runtimes:
            raise SnapshotError(
                "barrier snapshots require the inline transport "
                "(parallel=False) -- forked shard workers hold their "
                "state in other processes"
            )
        from .clone import freeze

        app, scale, seed, verify, config, plan = self._context
        self.snapshot = ShardedSnapshot(
            version=SNAPSHOT_FORMAT_VERSION,
            app=app, scale=scale, seed=seed, verify=verify,
            config=config, plan=plan,
            windows=engine.windows, barriers=engine.barriers,
            runtimes=freeze(list(runtimes)),
            reports=tuple(reports),
            pending=tuple(pending),
            exported=dict(engine.exported),
            injected=dict(engine.injected),
        )


def resume_app_sharded(snap: ShardedSnapshot):
    """Resume a barrier snapshot to completion; the merged RunResult is
    bit-identical to the uninterrupted sharded run."""
    from ..runtime.shards import (
        NDPShardBuilder,
        finish_sharded_run,
    )
    from ..sim.sharded import ShardedSimulator

    if snap.version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"sharded snapshot format v{snap.version} is not "
            f"v{SNAPSHOT_FORMAT_VERSION}"
        )
    builders = [
        NDPShardBuilder(
            app=snap.app, scale=snap.scale, seed=snap.seed,
            config=snap.config, plan=snap.plan, shard_id=shard_id,
            verify=snap.verify,
        )
        for shard_id in range(snap.plan.shards)
    ]
    engine = ShardedSimulator(builders, snap.plan, parallel=False)
    engine.windows = snap.windows
    engine.barriers = snap.barriers
    engine.exported = dict(snap.exported)
    engine.injected = dict(snap.injected)
    result = engine.resume(
        snap.fork_runtimes(), list(snap.reports), list(snap.pending)
    )
    return finish_sharded_run(
        snap.app, snap.config, snap.plan, result,
        scale=snap.scale, seed=snap.seed,
    )
