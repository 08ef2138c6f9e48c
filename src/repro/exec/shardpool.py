"""Persistent per-shard worker processes for the sharded engine.

:mod:`repro.exec.runner` fans independent *cells* over a throwaway
``ProcessPoolExecutor`` -- fine when each job is one self-contained
simulation.  Sharded runs are different: every shard holds a live
simulator whose state must survive thousands of window barriers, so this
module keeps one long-lived forked worker per shard and speaks a tiny
command protocol over a pipe (``begin`` / ``window`` / ``control`` /
``complete`` / ``finalize`` / ``exit``).  The same environment knobs as
the cell pool apply (``NDPBRIDGE_JOBS`` gates whether parallel mode is
worth entering at all; ``NDPBRIDGE_SANITIZE`` is inherited by the forked
children, so sanitized sharded runs audit every shard).

Commands are broadcast: the parent sends to *all* workers first, then
collects replies in shard order -- windows genuinely overlap across
cores, and reply order (hence result order) is deterministic regardless
of which worker finishes first.

Under ``NDPBRIDGE_SANITIZE=1`` every pipe additionally carries a
:class:`~repro.race.ledger.BoundaryLedger` on *both* ends: running
sha256 digests over a canonical encoding of each command and reply.  At
shutdown the worker ships its digests back and the parent cross-checks
them, proving both sides observed identical payload streams (the
runtime half of the RC rules' process-boundary contract).
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from types import TracebackType
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Type

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

    from ..race.ledger import BoundaryLedger
    from ..sim.sharded import (
        BoundaryMessage,
        ControlDecision,
        ShardReport,
        ShardRuntime,
    )

__all__ = ["ForkTransport", "ShardWorkerError"]


class ShardWorkerError(RuntimeError):
    """A shard worker raised; carries the remote traceback text."""


def _worker_main(
    conn: "Connection",
    build: "Callable[[], ShardRuntime]",
    ledger_on: bool,
) -> None:
    """Worker loop: build the runtime, then serve barrier commands."""
    ledger: "Optional[BoundaryLedger]" = None
    if ledger_on:
        from ..race.ledger import BoundaryLedger

        ledger = BoundaryLedger()

    def send(reply: object) -> None:
        if ledger is not None:
            ledger.note_sent(reply)
        conn.send(reply)

    runtime: "Optional[ShardRuntime]" = None
    try:
        runtime = build()
    except BaseException:
        send(("err", traceback.format_exc()))
        conn.close()
        return
    send(("ok", None))
    while True:
        try:
            command = conn.recv()
        except EOFError:
            break
        if ledger is not None:
            ledger.note_received(command)
        op = command[0]
        try:
            if op == "begin":
                send(("ok", runtime.begin()))
            elif op == "window":
                send(("ok", runtime.run_window(command[1], command[2])))
            elif op == "control":
                send(("ok", runtime.apply_control(command[1])))
            elif op == "complete":
                send(("ok", runtime.run_complete()))
            elif op == "finalize":
                send(("ok", runtime.finalize()))
            elif op == "exit":
                if ledger is not None:
                    # The ledger handshake itself stays outside both
                    # ledgers (it carries the digests being compared).
                    conn.send(("ledger", ledger.digests()))
                break
            else:  # pragma: no cover - protocol bug
                send(("err", f"unknown shard worker op {op!r}"))
        except BaseException:
            send(("err", traceback.format_exc()))
    conn.close()


def _fork_context() -> "mp.context.BaseContext":
    """Prefer fork (cheap, inherits the built model's modules and env)."""
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return mp.get_context()


class ForkTransport:
    """One persistent forked worker per shard builder.

    Implements the same broadcast interface as the inline transport in
    :mod:`repro.sim.sharded`, so the sharded engine can swap transports
    without changing the barrier protocol.

    ``ledger`` forces the boundary hash ledger on (``True``) or off
    (``False``); the default (``None``) follows ``NDPBRIDGE_SANITIZE``.
    """

    def __init__(
        self,
        builders: "Sequence[Callable[[], ShardRuntime]]",
        ledger: Optional[bool] = None,
    ) -> None:
        if ledger is None:
            from ..sim.engine import sanitize_from_env

            ledger = sanitize_from_env()
        self._builders = list(builders)
        self._ledger_on = bool(ledger)
        self._procs: "List[BaseProcess]" = []
        self._conns: "List[Connection]" = []
        self._ledgers: "List[Optional[BoundaryLedger]]" = []

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ForkTransport":
        ctx = _fork_context()
        try:
            for build in self._builders:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, build, self._ledger_on),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
                if self._ledger_on:
                    from ..race.ledger import BoundaryLedger

                    self._ledgers.append(BoundaryLedger())
                else:
                    self._ledgers.append(None)
            # Each worker acks (or reports a build failure) exactly once.
            for conn, ledger in zip(self._conns, self._ledgers):
                self._recv(conn, ledger)
        except BaseException:
            self._shutdown(verify=False)
            raise
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        # Only cross-check the ledgers on a clean exit: an in-flight
        # exception already explains any stream divergence.
        self._shutdown(verify=exc_type is None)

    def _shutdown(self, verify: bool = False) -> None:
        worker_digests: "Dict[int, object]" = {}
        for shard_id, (conn, ledger) in enumerate(
            zip(self._conns, self._ledgers)
        ):
            try:
                command = ("exit",)
                if ledger is not None:
                    ledger.note_sent(command)
                conn.send(command)
                if ledger is not None and verify:
                    status, value = conn.recv()
                    if status == "ledger":
                        worker_digests[shard_id] = value
            except (OSError, ValueError, EOFError):
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        ledgers = self._ledgers
        self._procs = []
        self._conns = []
        self._ledgers = []
        if verify and self._ledger_on:
            from ..race.ledger import check_ledgers

            for shard_id, ledger in enumerate(ledgers):
                if ledger is None:
                    continue
                worker = worker_digests.get(shard_id)
                if worker is None:
                    raise ShardWorkerError(
                        f"shard {shard_id} worker exited without its "
                        f"boundary ledger -- payload streams unverified"
                    )
                check_ledgers(shard_id, ledger.digests(), worker)  # type: ignore[arg-type]

    # -- protocol ------------------------------------------------------
    @staticmethod
    def _recv(
        conn: "Connection", ledger: "Optional[BoundaryLedger]" = None
    ) -> object:
        try:
            reply = conn.recv()
        except EOFError as exc:  # pragma: no cover - worker died
            raise ShardWorkerError("shard worker exited unexpectedly") from exc
        if ledger is not None:
            ledger.note_received(reply)
        status, value = reply
        if status == "err":
            raise ShardWorkerError(f"shard worker failed:\n{value}")
        return value

    def _broadcast(self, commands: Sequence[tuple]) -> List[object]:
        """Send one command per worker, then collect replies in order."""
        for conn, ledger, command in zip(
            self._conns, self._ledgers, commands
        ):
            if ledger is not None:
                ledger.note_sent(command)
            conn.send(command)
        return [
            self._recv(conn, ledger)
            for conn, ledger in zip(self._conns, self._ledgers)
        ]

    # -- transport interface (mirrors _InlineTransport) ----------------
    def begin_all(self) -> "List[ShardReport]":
        out = self._broadcast([("begin",)] * len(self._conns))
        return out  # type: ignore[return-value]

    def window_all(
        self,
        until: int,
        inboxes: "Sequence[Sequence[BoundaryMessage]]",
    ) -> "List[ShardReport]":
        commands = [
            ("window", until, list(inbox)) for inbox in inboxes
        ]
        out = self._broadcast(commands)
        return out  # type: ignore[return-value]

    def control_all(self, decision: "ControlDecision") -> "List[ShardReport]":
        out = self._broadcast([("control", decision)] * len(self._conns))
        return out  # type: ignore[return-value]

    def run_complete_all(self) -> None:
        self._broadcast([("complete",)] * len(self._conns))

    def finalize_all(self) -> "List[Dict[str, object]]":
        out = self._broadcast([("finalize",)] * len(self._conns))
        return out  # type: ignore[return-value]
