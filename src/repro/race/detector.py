"""Deterministic race detector: seeded interleaving fuzzing of the
sharded engine.

The conservative-window engine promises that per-shard execution order
within a window is *free*: shards only interact through boundary
messages, and barrier delivery imposes a total order
(``(deliver_time, src_shard, seq)``), so any interleaving the engine is
allowed to choose must produce bit-identical results.  This module
turns that promise into a checked property:

1. run the shard set in canonical order and digest every shard's final
   state (the snapshot manifest digest of the live system,
   :func:`repro.state.snapshot.live_manifest_digest`, for NDP runtimes,
   a canonical payload hash for toys);
2. re-run under a :class:`FuzzedInlineTransport` that -- driven by a
   seeded :class:`~repro.sim.rng.DeterministicRNG` -- permutes the
   per-shard execution order of every barrier broadcast and shuffles
   each report's outbox accumulation order (the delivery-jitter axis:
   the engine must re-impose its total order, never inherit one);
3. assert the digests, payloads, and merged metrics are bit-identical.

Both fuzz axes are *provably* behaviour-preserving for a correctly
isolated model, so any divergence is a real race: hidden cross-shard
state, order-dependent accumulation, or a non-total delivery sort.  A
mismatch raises :class:`RaceError` naming the diverging shards.

The fuzzer drives real runs, so it lives behind explicit entry points
(the property tests in ``tests/test_race_detector.py``, which CI also
runs sanitized) rather than inside the simulation fast path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, \
    Tuple

from ..sim.rng import DeterministicRNG
from ..sim.sharded import (
    ControlDecision,
    Policy,
    ShardReport,
    ShardRuntime,
    ShardedResult,
    ShardedSimulator,
    _InlineTransport,
)

if TYPE_CHECKING:
    from ..config import SystemConfig
    from ..sim.sharded import BoundaryMessage

__all__ = [
    "DigestingBuilder",
    "FuzzedInlineTransport",
    "RaceCheckReport",
    "RaceError",
    "assert_no_races",
    "detect_races",
    "fuzz_run",
    "run_with_digests",
]


class RaceError(RuntimeError):
    """An interleaving changed results: the shard set hides a race."""


# ----------------------------------------------------------------------
# State digests
# ----------------------------------------------------------------------
def _payload_digest(payload: Dict[str, object]) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


class DigestingRuntime(ShardRuntime):
    """Wraps any shard runtime, stamping a state digest into finalize.

    NDP runtimes (anything with a ``.system``) are digested through the
    snapshot manifest of the live system (no clone) -- the same symbolic
    state fingerprint the checkpoint subsystem proves bit-identity with,
    equal to a snapshot's ``manifest_digest()``.  Toys without a
    system digest their own finalize payload instead.
    """

    def __init__(self, inner: ShardRuntime) -> None:
        self.inner = inner
        self.shard_id = inner.shard_id

    def begin(self) -> ShardReport:
        return self.inner.begin()

    def run_window(
        self, until: int, inbox: "Sequence[BoundaryMessage]"
    ) -> ShardReport:
        return self.inner.run_window(until, inbox)

    def apply_control(self, decision: ControlDecision) -> ShardReport:
        return self.inner.apply_control(decision)

    def run_complete(self) -> None:
        self.inner.run_complete()

    def finalize(self) -> Dict[str, object]:
        digest: Optional[str] = None
        system = getattr(self.inner, "system", None)
        if system is not None:
            from ..state.snapshot import live_manifest_digest

            # Digest *before* finalize: the manifest captures the live
            # end-of-run state (queues drained, counters final) at the
            # same point in every execution.
            digest = live_manifest_digest(system)
        payload = self.inner.finalize()
        if digest is None:
            digest = _payload_digest(payload)
        payload["state_digest"] = digest
        return payload


@dataclass(frozen=True)
class DigestingBuilder:
    """Picklable digesting wrapper around any shard builder."""

    inner: Callable[[], ShardRuntime]

    def __call__(self) -> DigestingRuntime:
        return DigestingRuntime(self.inner())


# ----------------------------------------------------------------------
# The fuzzed transport
# ----------------------------------------------------------------------
class FuzzedInlineTransport(_InlineTransport):
    """Inline transport that permutes every legal scheduling freedom.

    Per barrier broadcast it executes the shards in a seeded random
    order, and it shuffles each report's outbox tuple before handing it
    to the engine.  Reports stay in shard-index *positions* (the engine
    indexes them by shard), only the execution interleaving and the
    outbox accumulation order change -- exactly the freedoms the
    conservative-window proof says are unobservable.
    """

    def __init__(
        self,
        builders: Sequence[Callable[[], ShardRuntime]],
        fuzz_seed: int,
    ) -> None:
        super().__init__(builders)
        self._rng = DeterministicRNG(fuzz_seed, "race/interleave")

    def _order(self, n: int) -> List[int]:
        order = list(range(n))
        self._rng.shuffle(order)
        return order

    def _jitter(self, report: ShardReport) -> ShardReport:
        if len(report.outbox) < 2:
            return report
        outbox = list(report.outbox)
        self._rng.shuffle(outbox)
        return replace(report, outbox=tuple(outbox))

    def _permuted(
        self, calls: List[Callable[[], ShardReport]]
    ) -> List[ShardReport]:
        out: List[Optional[ShardReport]] = [None] * len(calls)
        for i in self._order(len(calls)):
            out[i] = calls[i]()
        return [self._jitter(r) for r in out if r is not None]

    def begin_all(self) -> List[ShardReport]:
        return self._permuted([rt.begin for rt in self._runtimes])

    def window_all(
        self, until: int, inboxes: "Sequence[Sequence[BoundaryMessage]]"
    ) -> List[ShardReport]:
        import functools

        return self._permuted(
            [
                functools.partial(rt.run_window, until, inbox)
                for rt, inbox in zip(self._runtimes, inboxes)
            ]
        )

    def control_all(self, decision: ControlDecision) -> List[ShardReport]:
        import functools

        return self._permuted(
            [
                functools.partial(rt.apply_control, decision)
                for rt in self._runtimes
            ]
        )

    def run_complete_all(self) -> None:
        for i in self._order(len(self._runtimes)):
            self._runtimes[i].run_complete()

    def finalize_all(self) -> List[Dict[str, object]]:
        out: List[Optional[Dict[str, object]]] = [None] * len(self._runtimes)
        for i in self._order(len(self._runtimes)):
            out[i] = self._runtimes[i].finalize()
        return [p for p in out if p is not None]


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run_with_digests(
    builders: Sequence[Callable[[], ShardRuntime]],
    plan: object,
    *,
    fuzz_seed: Optional[int] = None,
    parallel: bool = False,
    policy: Optional[Policy] = None,
) -> Tuple[ShardedResult, List[str]]:
    """Run a shard set and return per-shard state digests.

    ``fuzz_seed`` switches to the interleaving-fuzzed transport
    (inline only -- the fuzz axes are scheduling freedoms of the
    single-process transport; the forked transport exercises the real
    process interleaving instead).
    """
    if fuzz_seed is not None and parallel:
        raise ValueError("fuzzing permutes the inline transport; "
                         "parallel runs exercise real process order")
    wrapped = [DigestingBuilder(b) for b in builders]
    factory: Optional[
        Callable[[Sequence[Callable[[], ShardRuntime]]], _InlineTransport]
    ] = None
    if fuzz_seed is not None:
        seed = int(fuzz_seed)

        def factory(
            bs: Sequence[Callable[[], ShardRuntime]]
        ) -> _InlineTransport:
            return FuzzedInlineTransport(bs, seed)

    engine = ShardedSimulator(
        wrapped, plan, parallel=parallel, policy=policy,
        transport_factory=factory,
    )
    result = engine.run()
    digests = [str(p["state_digest"]) for p in result.payloads]
    return result, digests


def fuzz_run(
    app: str,
    config: "SystemConfig",
    *,
    shards: int,
    scale: float = 0.1,
    seed: int = 7,
    fuzz_seed: Optional[int] = None,
    parallel: bool = False,
) -> Tuple[object, List[str]]:
    """One digested sharded run of a real NDP app; returns
    ``(RunResult, per-shard digests)``."""
    from ..runtime.shards import (
        NDPShardBuilder,
        finish_sharded_run,
        resolve_shards,
    )
    from ..sim.partition import plan_partition

    plan = plan_partition(config, resolve_shards(config, shards))
    builders = [
        NDPShardBuilder(
            app=app, scale=scale, seed=seed, config=config, plan=plan,
            shard_id=shard_id, verify=False,
        )
        for shard_id in range(plan.shards)
    ]
    result, digests = run_with_digests(
        builders, plan, fuzz_seed=fuzz_seed, parallel=parallel
    )
    run = finish_sharded_run(
        app, config, plan, result, scale=scale, seed=seed
    )
    return run, digests


# ----------------------------------------------------------------------
# Detection
# ----------------------------------------------------------------------
@dataclass
class RaceCheckReport:
    """Outcome of one race-detection sweep over fuzz seeds."""

    app: str
    shards: int
    seeds: Tuple[int, ...]
    canonical_digests: List[str]
    runs: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _compare(
    label: str,
    canonical_digests: Sequence[str],
    canonical_metrics: Dict[str, object],
    digests: Sequence[str],
    metrics: Dict[str, object],
    mismatches: List[str],
) -> None:
    for shard_id, (want, got) in enumerate(
        zip(canonical_digests, digests)
    ):
        if want != got:
            mismatches.append(
                f"{label}: shard {shard_id} state digest diverged "
                f"({want[:16]} != {got[:16]})"
            )
    if metrics != canonical_metrics:
        keys = sorted(
            k
            for k in set(metrics) | set(canonical_metrics)
            if metrics.get(k) != canonical_metrics.get(k)
        )
        mismatches.append(f"{label}: merged metrics diverged on {keys}")


def detect_races(
    app: str,
    config: "SystemConfig",
    *,
    shards: int,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    scale: float = 0.1,
    seed: int = 7,
    parallel_also: bool = False,
) -> RaceCheckReport:
    """Fuzz one (app, config, shards) cell across interleaving seeds.

    Runs the canonical inline order once, then one fuzzed run per seed
    (and optionally one forked-parallel run), comparing per-shard state
    digests and the merged metrics payload against the canonical run.
    """
    from ..exec.cache import metrics_to_payload

    canonical, canon_digests = fuzz_run(
        app, config, shards=shards, scale=scale, seed=seed
    )
    canon_metrics = metrics_to_payload(canonical.metrics)  # type: ignore[attr-defined]
    report = RaceCheckReport(
        app=app,
        shards=shards,
        seeds=tuple(int(s) for s in seeds),
        canonical_digests=list(canon_digests),
        runs=1,
    )
    for fuzz_seed in report.seeds:
        fuzzed, digests = fuzz_run(
            app, config, shards=shards, scale=scale, seed=seed,
            fuzz_seed=fuzz_seed,
        )
        report.runs += 1
        _compare(
            f"fuzz seed {fuzz_seed}", canon_digests, canon_metrics,
            digests, metrics_to_payload(fuzzed.metrics),  # type: ignore[attr-defined]
            report.mismatches,
        )
    if parallel_also:
        forked, digests = fuzz_run(
            app, config, shards=shards, scale=scale, seed=seed,
            parallel=True,
        )
        report.runs += 1
        _compare(
            "forked transport", canon_digests, canon_metrics,
            digests, metrics_to_payload(forked.metrics),  # type: ignore[attr-defined]
            report.mismatches,
        )
    return report


def assert_no_races(
    app: str,
    config: "SystemConfig",
    *,
    shards: int,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    scale: float = 0.1,
    seed: int = 7,
    parallel_also: bool = False,
) -> RaceCheckReport:
    """:func:`detect_races`, raising :class:`RaceError` on divergence."""
    report = detect_races(
        app, config, shards=shards, seeds=seeds, scale=scale, seed=seed,
        parallel_also=parallel_also,
    )
    if not report.ok:
        raise RaceError(
            f"{app} x {config.design.value} with {report.shards} shards "
            f"is interleaving-dependent:\n  "
            + "\n  ".join(report.mismatches)
        )
    return report
